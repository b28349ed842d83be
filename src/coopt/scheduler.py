"""Central scheduler: priority-promotion queueing and evaluator dispatch.

The scheduler is the only agent allowed to end a run.  It consumes its inbox
message by message, files evaluation requests into a vector of priority
queues, hands work to idle evaluators, relays improved solutions to every
solver (when sharing is on), and on budget exhaustion drives the shutdown
protocol that unblocks all other agents.
"""

from __future__ import annotations

import asyncio
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind

P_MAX = 10


class EvaluationRequest(NamedTuple):
    """A point awaiting dispatch, with the reply future of the asking solver."""

    point: Any
    reply: asyncio.Future
    solver_id: str
    priority_at_enqueue: int = 1


class PriorityQueues:
    """Vector of FIFO queues over priority levels 1..P_MAX.

    Dispatch removes the head of the highest non-empty level, then promotes
    the head of every other level up one (sweeping from the top down so a
    request climbs at most one level per dispatch).  A request entering at
    the bottom therefore reaches the top level after P_MAX - 1 promotions,
    which rules out starvation; with every producer on one priority level
    the dispatch order degenerates to plain FIFO.
    """

    def __init__(self):
        self._levels: list[deque] = [deque() for _ in range(P_MAX + 1)]
        # Levels P_MAX..1, and the (level p + 1, level p) pairs that a
        # promotion sweep visits, top down; built once, not per dispatch.
        self._top_down = self._levels[:0:-1]
        self._promotions = list(zip(self._top_down, self._top_down[1:]))

    def __len__(self) -> int:
        """Requests queued over all levels.

        The scheduler never asks; ``bench/micro.py`` and the tests do.
        """
        return sum(len(level) for level in self._levels)

    def enqueue(self, request: EvaluationRequest) -> None:
        if not 1 <= request.priority_at_enqueue <= P_MAX:
            raise ValueError(f"priority outside [1, {P_MAX}]")
        self._levels[request.priority_at_enqueue].append(request)

    def promote(self) -> None:
        """Lift the head of each level below the top up one level."""
        for above, level in self._promotions:
            if level:
                above.append(level.popleft())

    def next_request(self) -> Optional[EvaluationRequest]:
        """Pop the head of the highest non-empty level, then promote."""
        for level in self._top_down:
            if level:
                request = level.popleft()
                self.promote()
                return request
        return None

    def drain(self):
        """Remove and yield every queued request (teardown)."""
        for level in self._levels:
            while level:
                yield level.popleft()


@dataclass(frozen=True)
class Budget:
    """Termination rule: a cap on scheduler messages or on dispatched evaluations."""

    kind: str
    limit: int

    def __post_init__(self):
        if self.kind not in ("messages", "evaluations"):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.limit < 0:
            raise ValueError("budget limit must be >= 0")

    @classmethod
    def messages(cls, limit: int) -> "Budget":
        return cls("messages", limit)

    @classmethod
    def evaluations(cls, limit: int) -> "Budget":
        return cls("evaluations", limit)


@dataclass
class RunRecord:
    """One run's event log and counts, written into as the run goes.

    The scheduler counts into it, each evaluator into its own dict in
    ``evaluators``, and the solvers add their ``solver-improvement``
    events.  ``close`` ends the log with the evaluator records, then one
    ledger record per mailbox.
    """

    mailboxes: list[Mailbox]
    evaluators: dict[str, dict]  # evaluator id -> its "evaluator" record
    events: list[dict] = field(default_factory=list)
    messages: int = 0
    dispatches: int = 0
    broadcasts: int = 0
    refusals: int = 0
    solver_dispatches: Counter = field(default_factory=Counter)
    improvements: list[dict] = field(default_factory=list)

    def counters(self) -> dict:
        """The run's totals, as ``report.counters`` and the last event."""
        return {
            "messages": self.messages,
            "dispatches": self.dispatches,
            "broadcasts": self.broadcasts,
            "refusals": self.refusals,
            "improvements": len(self.improvements),
        }

    def close(self) -> None:
        self.events.extend(self.evaluators.values())
        self.events.extend({"event": "mailbox", **mb.stats()}
                           for mb in self.mailboxes)


@dataclass
class SchedulerState:
    """Wiring and private state of one scheduler task."""

    inbox: Mailbox
    share_mailboxes: dict[str, Mailbox]
    analysis_inbox: Mailbox
    budget: Budget
    record: RunRecord
    sharing: bool = False
    queues: PriorityQueues = field(default_factory=PriorityQueues)
    idle: deque = field(default_factory=deque)  # REQUESTPOINT messages
    busy: set = field(default_factory=set)  # evaluator ids


async def scheduler_loop(state: SchedulerState) -> Any:
    """Run the dispatch loop to budget exhaustion; return the final archive.

    Every received message counts toward a message-typed budget; every
    request handed to an evaluator counts toward an evaluation-typed
    budget (that cap is exact: dispatch stops at the limit and queued
    requests are refused during shutdown).  Unlike the other agents, the
    scheduler's one normal end is to return.
    """
    while not _exhausted(state):
        message = await state.inbox.take()
        state.record.messages += 1
        _handle(state, message)
        _dispatch_idle(state)
    return await _shutdown(state)


def _exhausted(state: SchedulerState) -> bool:
    if state.budget.kind == "messages":
        return state.record.messages >= state.budget.limit
    return state.record.dispatches >= state.budget.limit


def _handle(state: SchedulerState, message: Message) -> None:
    if message.kind is MessageKind.EVALUATEPOINT:
        state.queues.enqueue(message.content)
    elif message.kind is MessageKind.REQUESTPOINT:
        state.busy.discard(message.sender)
        state.idle.append(message)
    elif message.kind is MessageKind.ANALYSESOLUTION:
        evaluation = message.content
        record = state.record
        improvement = {
            "event": "improvement",
            "seq": evaluation.seq,
            "solver": evaluation.solver_id,
            "z": list(evaluation.objectives),
            "g": evaluation.constraint,
            "messages": record.messages,
            "dispatches": record.dispatches,
        }
        record.improvements.append(improvement)
        record.events.append(improvement)
        if state.sharing:
            _broadcast(state, evaluation)
    else:
        raise RuntimeError(f"scheduler cannot handle {message.kind}")


def _broadcast(state: SchedulerState, evaluation) -> None:
    message = Message(MessageKind.SHAREBEST, "scheduler", evaluation)
    # No ring is closed yet: ``_shutdown`` stops sharing before closing them.
    for share_mb in state.share_mailboxes.values():
        share_mb.put_drop_oldest(message)
    delivered = len(state.share_mailboxes)
    state.record.broadcasts += delivered
    state.record.events.append({"event": "broadcast", "seq": evaluation.seq,
                                "delivered": delivered})


def _dispatch_idle(state: SchedulerState) -> None:
    record = state.record
    while state.idle:
        if state.budget.kind == "evaluations" and _exhausted(state):
            return
        request = state.queues.next_request()
        if request is None:
            return
        announcement = state.idle.popleft()
        announcement.content.set_result(request)
        state.busy.add(announcement.sender)
        record.dispatches += 1
        record.solver_dispatches[request.solver_id] += 1
        record.events.append({
            "event": "dispatch",
            "evaluator": announcement.sender,
            "solver": request.solver_id,
            "messages": record.messages,
            "dispatches": record.dispatches,
        })


def _refuse(state: SchedulerState, request: EvaluationRequest) -> None:
    if not request.reply.done():
        request.reply.set_exception(MailboxClosed(request.solver_id))
    state.record.refusals += 1
    state.record.events.append({"event": "refusal",
                                "solver": request.solver_id})


def _settle(state: SchedulerState, message: Message) -> None:
    """Count a message taken during shutdown; refuse it if it asks for work."""
    state.record.messages += 1
    if message.kind is MessageKind.EVALUATEPOINT:
        _refuse(state, message.content)
    else:
        _handle(state, message)


async def _shutdown(state: SchedulerState) -> Any:
    """Wind the system down and collect the final archive.

    Order matters: first wait out busy evaluators so every dispatched result
    reaches the analysis agent (an evaluator re-announces itself only after
    delivering both result messages, and the analysis mailbox is FIFO, so
    the later RETRIEVEBEST cannot overtake any result).  Only then refuse
    pending requests, close the share rings and the inbox, release the
    idle evaluators, and query the archive.  Improvements that arrive
    after the budget is spent are recorded but no longer broadcast.
    """
    state.sharing = False
    while state.busy:
        _settle(state, await state.inbox.take())

    for request in state.queues.drain():
        _refuse(state, request)

    for share_mb in state.share_mailboxes.values():
        share_mb.close()
    state.inbox.close()

    # Anything that raced in before the close still gets an answer, and
    # every idle evaluator, including one announced just now, is let go.
    while (message := state.inbox.take_nowait()) is not None:
        _settle(state, message)
    for announcement in state.idle:
        announcement.content.set_exception(MailboxClosed(announcement.sender))

    reply = asyncio.get_running_loop().create_future()
    await state.analysis_inbox.put(
        Message(MessageKind.RETRIEVEBEST, "scheduler", reply))
    snapshot = await reply
    state.analysis_inbox.close()
    state.record.events.append({"event": "terminated",
                                **state.record.counters()})
    return snapshot
