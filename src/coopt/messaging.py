"""Typed messages and bounded FIFO mailboxes connecting the agents.

Agents run as cooperatively scheduled tasks on one event loop and exchange
immutable messages through mailboxes.  A mailbox has a fixed capacity:
``put`` suspends the sender while full, ``take`` suspends the receiver while
empty.  Closing a mailbox wakes every blocked party with ``MailboxClosed``,
which agents treat as the terminate signal.  A one-shot answer (a point
to an idle evaluator, an evaluation back to its solver, the archive back to
the scheduler) travels on a bare ``asyncio.Future`` that the asker sends
along, instead of a mailbox.
"""

from __future__ import annotations

import asyncio
from collections import deque
from enum import Enum
from typing import Any, NamedTuple


class MessageKind(Enum):
    ANALYSESOLUTION = "ANALYSESOLUTION"   # evaluation result for the analysis agent
    EVALUATEPOINT = "EVALUATEPOINT"       # a solver's point to evaluate
    OBJECTIVEVALUE = "OBJECTIVEVALUE"     # evaluation result (solver's reply future)
    REQUESTPOINT = "REQUESTPOINT"         # idle evaluator (its dispatch future)
    RETRIEVEBEST = "RETRIEVEBEST"         # ask the analysis agent for the archive
    SHAREBEST = "SHAREBEST"               # broadcast of an improved solution
    STATISTICSBEST = "STATISTICSBEST"     # the final archive (scheduler's reply future)


# The three kinds every evaluation's round trip reads, bound to module
# names once: on Python 3.11 reading ``MessageKind.EVALUATEPOINT`` costs
# ~0.19 us, a global ~0.04 us.  A round trip reads them up to seven times:
# in ``proxy_objective``, twice in the evaluator, up to three times in the
# scheduler's ``_handle`` and once in the analysis agent.
ANALYSESOLUTION = MessageKind.ANALYSESOLUTION
EVALUATEPOINT = MessageKind.EVALUATEPOINT
REQUESTPOINT = MessageKind.REQUESTPOINT


class Message(NamedTuple):
    kind: MessageKind
    sender: str
    content: Any


class MailboxClosed(RuntimeError):
    """Shutdown signal: the mailbox was closed while an agent used it."""


class Mailbox:
    """Bounded multi-producer multi-consumer FIFO of messages.

    Tracks put/take/drop counts so a run can assert message conservation
    afterwards.  All operations must happen on one event loop.
    """

    __slots__ = ("name", "capacity", "_items", "_getters", "_putters",
                 "_closed", "puts", "takes", "drops")

    def __init__(self, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()
        self._closed = False
        self.puts = 0
        self.takes = 0
        self.drops = 0

    def __len__(self) -> int:
        return len(self._items)

    async def put(self, message: Message) -> None:
        """Append a message, suspending while the mailbox is full."""
        while True:
            if self._closed:
                raise MailboxClosed(self.name)
            if len(self._items) < self.capacity:
                self._items.append(message)
                self.puts += 1
                if self._getters:
                    self._wake(self._getters)
                return
            await self._wait(self._putters)

    async def take(self) -> Message:
        """Remove and return the oldest message, suspending while empty.

        A closed mailbox may still be drained; only closed-and-empty raises.
        """
        while True:
            if self._items:
                message = self._items.popleft()
                self.takes += 1
                if self._putters:
                    self._wake(self._putters)
                return message
            if self._closed:
                raise MailboxClosed(self.name)
            await self._wait(self._getters)

    def put_drop_oldest(self, message: Message) -> None:
        """Non-blocking put that evicts the oldest entry when full.

        Used for best-solution broadcasts: a stale best is superseded by a
        newer one and the sender must never block on a slow receiver.
        """
        if self._closed:
            raise MailboxClosed(self.name)
        if len(self._items) >= self.capacity:
            self._items.popleft()
            self.drops += 1
        self._items.append(message)
        self.puts += 1
        if self._getters:
            self._wake(self._getters)

    def take_nowait(self) -> Message | None:
        """Non-blocking take; None when nothing is queued."""
        if not self._items:
            return None
        message = self._items.popleft()
        self.takes += 1
        if self._putters:
            self._wake(self._putters)
        return message

    def close(self) -> None:
        """Close the mailbox and wake every suspended sender and receiver."""
        if self._closed:
            return
        self._closed = True
        for waiters in (self._getters, self._putters):
            while waiters:
                fut = waiters.popleft()
                if not fut.done():
                    fut.set_result(None)

    def stats(self) -> dict:
        return {"mailbox": self.name, "puts": self.puts, "takes": self.takes,
                "drops": self.drops, "queued": len(self._items)}

    def _wake(self, waiters: deque) -> None:
        while waiters:
            fut = waiters.popleft()
            if not fut.done():
                fut.set_result(None)
                return

    async def _wait(self, waiters: deque) -> None:
        fut = asyncio.get_running_loop().create_future()
        waiters.append(fut)
        try:
            await fut
        except asyncio.CancelledError:
            # A waiter woken but cancelled before it ran would swallow the
            # wakeup; pass it on, as asyncio.Queue does.
            if fut.done() and not fut.cancelled():
                self._wake(waiters)
            else:
                fut.cancel()
            raise
