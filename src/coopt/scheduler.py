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
from typing import Any, Callable, NamedTuple, Optional

from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind

P_MAX = 10


def ignore_event(record: dict) -> None:
    """The events sink of a run that keeps no event log."""


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
class SchedulerState:
    """Wiring and private counters of one scheduler task."""

    inbox: Mailbox
    evaluator_mailboxes: dict[str, Mailbox]
    share_mailboxes: dict[str, Mailbox]
    analysis_inbox: Mailbox
    budget: Budget
    sharing: bool = False
    events: Callable[[dict], None] = ignore_event
    queues: PriorityQueues = field(default_factory=PriorityQueues)
    idle: deque = field(default_factory=deque)
    busy: set = field(default_factory=set)
    msg_count: int = 0
    dispatches: int = 0
    dispatches_per_solver: Counter = field(default_factory=Counter)
    broadcasts: int = 0
    refusals: int = 0
    improvements: int = 0

    def counters(self) -> dict:
        """The run's totals, as ``report.counters`` and the last event."""
        return {
            "messages": self.msg_count,
            "dispatches": self.dispatches,
            "broadcasts": self.broadcasts,
            "refusals": self.refusals,
            "improvements": self.improvements,
        }


async def scheduler_loop(state: SchedulerState) -> Any:
    """Run the dispatch loop to budget exhaustion; return the final archive.

    Every received message counts toward a message-typed budget; every
    EVALUATEPOINT handed to an evaluator counts toward an evaluation-typed
    budget (that cap is exact: dispatch stops at the limit and queued
    requests are refused during shutdown).
    """
    while not _exhausted(state):
        message = await state.inbox.take()
        state.msg_count += 1
        _handle(state, message)
        _dispatch_idle(state)
    return await _shutdown(state)


def _exhausted(state: SchedulerState) -> bool:
    if state.budget.kind == "messages":
        return state.msg_count >= state.budget.limit
    return state.dispatches >= state.budget.limit


def _handle(state: SchedulerState, message: Message) -> None:
    if message.kind is MessageKind.EVALUATEPOINT:
        state.queues.enqueue(message.content)
    elif message.kind is MessageKind.REQUESTPOINT:
        evaluator_id = message.content
        state.busy.discard(evaluator_id)
        state.idle.append(evaluator_id)
    elif message.kind is MessageKind.ANALYSESOLUTION:
        evaluation = message.content
        state.improvements += 1
        state.events({
            "event": "improvement",
            "seq": evaluation.seq,
            "solver": evaluation.solver_id,
            "z": list(evaluation.objectives),
            "g": evaluation.constraint,
            "messages": state.msg_count,
            "dispatches": state.dispatches,
        })
        if state.sharing:
            _broadcast(state, evaluation)
    else:
        raise RuntimeError(f"scheduler cannot handle {message.kind}")


def _broadcast(state: SchedulerState, evaluation) -> None:
    delivered = 0
    for solver_id, share_mb in state.share_mailboxes.items():
        try:
            share_mb.put_drop_oldest(
                Message(MessageKind.SHAREBEST, "scheduler", evaluation))
            delivered += 1
        except MailboxClosed:
            continue
    state.broadcasts += delivered
    state.events({"event": "broadcast", "seq": evaluation.seq,
                  "delivered": delivered})


def _dispatch_idle(state: SchedulerState) -> None:
    while state.idle:
        if state.budget.kind == "evaluations" \
                and state.dispatches >= state.budget.limit:
            return
        request = state.queues.next_request()
        if request is None:
            return
        evaluator_id = state.idle.popleft()
        # The evaluator announced idleness, so its mailbox is empty.
        state.evaluator_mailboxes[evaluator_id].put_nowait(
            Message(MessageKind.EVALUATEPOINT, "scheduler", request))
        state.busy.add(evaluator_id)
        state.dispatches += 1
        state.dispatches_per_solver[request.solver_id] += 1
        state.events({
            "event": "dispatch",
            "evaluator": evaluator_id,
            "solver": request.solver_id,
            "messages": state.msg_count,
            "dispatches": state.dispatches,
        })


def _refuse(state: SchedulerState, request: EvaluationRequest) -> None:
    if not request.reply.done():
        request.reply.set_exception(MailboxClosed(request.solver_id))
    state.refusals += 1
    state.events({"event": "refusal", "solver": request.solver_id})


def _settle(state: SchedulerState, message: Message) -> None:
    """Count a message taken during shutdown; refuse it if it asks for work."""
    state.msg_count += 1
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
    pending requests, close the solver/evaluator channels, and query the
    archive.  Improvements that arrive after the budget is spent are
    recorded but no longer broadcast.
    """
    state.sharing = False
    while state.busy:
        _settle(state, await state.inbox.take())

    for request in state.queues.drain():
        _refuse(state, request)

    for share_mb in state.share_mailboxes.values():
        share_mb.close()
    for evaluator_mb in state.evaluator_mailboxes.values():
        evaluator_mb.close()
    state.inbox.close()

    # Anything that raced in before the close still gets an answer.
    while (message := state.inbox.take_nowait()) is not None:
        _settle(state, message)

    reply = asyncio.get_running_loop().create_future()
    await state.analysis_inbox.put(
        Message(MessageKind.RETRIEVEBEST, "scheduler", reply))
    snapshot = await reply
    state.analysis_inbox.close()
    state.events({"event": "terminated", **state.counters()})
    return snapshot
