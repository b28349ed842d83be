"""Central scheduler: priority-promotion queueing and evaluator dispatch.

The scheduler is the only agent allowed to end a run.  It consumes its inbox
message by message, files evaluation requests into a vector of priority
queues, hands work to idle evaluators, relays improved solutions to every
solver (when sharing is on), and on budget exhaustion drives the shutdown
protocol that unblocks all other agents.
"""

from __future__ import annotations

import asyncio
import json
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import count, islice
from json.encoder import c_make_encoder, encode_basestring_ascii
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


class EventLog:
    """A run's event log: every event, in order, read as dicts.

    A hen run logs ~30k ``dispatch`` events, so the log keeps them as
    columns, ~17 B a row where a tuple row took ~100 B and a 5-key dict
    ~250 B: each label is kept once in a label table, and a row is its
    evaluator's and solver's label indices (32-bit unsigned: the solver
    count has no bound) and its message count (a signed 64-bit machine
    integer, so ``dispatch`` raises ``OverflowError`` from 2**63 on).  A
    row stores no ``dispatches`` value: ``RunRecord.dispatch`` logs each
    dispatch right after counting it, so that value is the row's ordinal.
    Every other event is kept as the dict given to ``append``, with the
    number of rows logged before it; iteration and ``write`` merge the
    two in order.  Iteration builds a dispatch's dict when it is read;
    ``write`` renders the rows without building it.
    """

    __slots__ = ("_labels", "_evaluators", "_solvers", "_messages",
                 "_events", "_rows_before")

    def __init__(self):
        self._labels: dict[str, int] = {}  # label -> index, in first use
        self._evaluators = array("I")
        self._solvers = array("I")
        self._messages = array("q")
        self._events: list[dict] = []
        self._rows_before = array("q")  # per event in _events

    def dispatch(self, evaluator: str, solver: str, messages: int) -> None:
        """Log a dispatch row.  The count goes first: one it cannot hold
        raises before any column grows."""
        self._messages.append(messages)
        labels = self._labels
        self._evaluators.append(labels.setdefault(evaluator, len(labels)))
        self._solvers.append(labels.setdefault(solver, len(labels)))

    def append(self, event: dict) -> None:
        """Log any event other than a dispatch."""
        self._rows_before.append(len(self._messages))
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._messages) + len(self._events)

    def _runs(self):
        """The log in order, as pairs (rows, event): an iterator over the
        rows ``(ordinal, evaluator index, solver index, messages)`` logged
        before ``event``, then the event; the last pair's event is None.
        Each pair's rows must be read before the next pair is taken."""
        rows = zip(count(1), self._evaluators, self._solvers, self._messages)
        logged = 0
        for rows_before, event in zip(self._rows_before, self._events):
            yield islice(rows, rows_before - logged), event
            logged = rows_before
        yield rows, None

    def __iter__(self):
        labels = list(self._labels)
        for rows, event in self._runs():
            for ordinal, evaluator, solver, messages in rows:
                yield {"event": "dispatch", "evaluator": labels[evaluator],
                       "solver": labels[solver], "messages": messages,
                       "dispatches": ordinal}
            if event is not None:
                yield event

    def write(self, path) -> None:
        """Write the log as events.log: one JSON object per line, keys
        sorted, as ``json.dumps(event, sort_keys=True)`` writes each event
        that iteration yields.

        A dispatch row goes through ``_DISPATCH_LINE``, and an improvement
        or broadcast event made by ``RunRecord`` through
        ``_IMPROVEMENT_LINE`` or ``_BROADCAST_LINE``, their labels through
        ``encode_basestring_ascii`` as ``json.dumps`` encodes strings (the
        label table once, not each row).  Every other value goes through
        one ``sorted_encoder``.  The lines are streamed, not joined first:
        the joined text would add ~7 MB to a hen run's peak RSS.
        """
        encode = sorted_encoder()
        labels = [encode_basestring_ascii(label) for label in self._labels]

        def lines():
            for rows, event in self._runs():
                for ordinal, evaluator, solver, messages in rows:
                    yield _DISPATCH_LINE % (ordinal, labels[evaluator],
                                            messages, labels[solver])
                if type(event) is _Improvement:
                    yield _IMPROVEMENT_LINE % (
                        event["dispatches"], "".join(encode(event["g"], 0)),
                        event["messages"], event["seq"],
                        encode_basestring_ascii(event["solver"]),
                        "".join(encode(event["z"], 0)))
                elif type(event) is _Broadcast:
                    yield _BROADCAST_LINE % (event["delivered"], event["seq"])
                elif event is not None:
                    yield "".join(encode(event, 0)) + "\n"

        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines())


def sorted_encoder():
    """A JSON encoder: ``"".join(encode(obj, 0)) == json.dumps(obj,
    sort_keys=True)``.

    ``json.dumps`` and ``JSONEncoder.encode`` build a new encoder, and a
    new circular-reference table, per call; a writer makes this one once.
    It comes from the private ``json.encoder.c_make_encoder``, with the
    arguments ``JSONEncoder(sort_keys=True)`` passes it, alike on Python
    3.11 to 3.13, but no circular-reference table: a record is a tree.
    """
    return c_make_encoder(None, json.JSONEncoder().default,
                          encode_basestring_ascii, None, ": ", ", ",
                          True, False, True)


class _Improvement(dict):
    """An improvement event as ``RunRecord.improvement`` makes it, so that
    ``EventLog.write`` knows its keys and renders it by template."""

    __slots__ = ()


class _Broadcast(dict):
    """A broadcast event as ``RunRecord.broadcast`` makes it, likewise."""

    __slots__ = ()


# The events.log line of a dispatch, an improvement and a broadcast event:
# keys sorted, as json.dumps writes them; labels and numbers come
# JSON-encoded.
_DISPATCH_LINE = ('{"dispatches": %d, "evaluator": %s, "event": "dispatch", '
                  '"messages": %d, "solver": %s}\n')
_IMPROVEMENT_LINE = ('{"dispatches": %d, "event": "improvement", "g": %s, '
                     '"messages": %d, "seq": %d, "solver": %s, "z": %s}\n')
_BROADCAST_LINE = '{"delivered": %d, "event": "broadcast", "seq": %d}\n'


@dataclass
class RunRecord:
    """One run's event log and counts, written into as the run goes.

    Every record of ``events`` (an ``EventLog``) is made here, by one
    method per event kind, and each method bumps the counts its event
    carries.  The scheduler counts its messages into ``messages``, and
    each evaluator counts into the record ``evaluator`` made for it.
    ``close`` ends the log with the evaluator records, then one ledger
    record per mailbox.
    """

    mailboxes: list[Mailbox]
    evaluators: dict[str, dict] = field(default_factory=dict)  # id -> record
    events: EventLog = field(default_factory=EventLog)
    messages: int = 0
    dispatches: int = 0
    broadcasts: int = 0
    refusals: int = 0
    solver_dispatches: Counter = field(default_factory=Counter)
    improvements: list[dict] = field(default_factory=list)

    def run_start(self, problem: str, mode: str, rep_index: int,
                  solvers: list[str], initial_points) -> None:
        self.events.append({
            "event": "run-start", "problem": problem, "mode": mode,
            "rep_index": rep_index, "np": len(initial_points),
            "solvers": solvers,
            "initial_population": [[float(v) for v in p]
                                   for p in initial_points]})

    def evaluator(self, evaluator_id: str) -> dict:
        """A new evaluator's protocol counters, as its ``evaluator`` event."""
        record = self.evaluators[evaluator_id] = {
            "event": "evaluator", "evaluator": evaluator_id, "requests": 0,
            "evaluations": 0, "replies_delivered": 0, "analysis_sent": 0}
        return record

    def dispatch(self, evaluator: str, solver: str) -> None:
        """Count a dispatch and log it as its row."""
        self.dispatches += 1
        self.solver_dispatches[solver] += 1
        self.events.dispatch(evaluator, solver, self.messages)

    def improvement(self, evaluation) -> None:
        """An archive improvement: a trace row and an event."""
        improvement = _Improvement(
            event="improvement",
            seq=evaluation.seq,
            solver=evaluation.solver_id,
            z=list(evaluation.objectives),
            g=evaluation.constraint,
            messages=self.messages,
            dispatches=self.dispatches,
        )
        self.improvements.append(improvement)
        self.events.append(improvement)

    def broadcast(self, seq: int, delivered: int) -> None:
        self.broadcasts += delivered
        self.events.append(_Broadcast(event="broadcast", seq=seq,
                                      delivered=delivered))

    def refusal(self, solver: str) -> None:
        self.refusals += 1
        self.events.append({"event": "refusal", "solver": solver})

    def solver_improvement(self, label: str, solver_class: str,
                           evaluation) -> None:
        """A new best of one solver's own."""
        self.events.append({
            "event": "solver-improvement", "solver": label,
            "class": solver_class, "seq": evaluation.seq,
            "z": list(evaluation.objectives)})

    def counters(self) -> dict:
        """The run's totals, as ``report.counters`` and the last event."""
        return {
            "messages": self.messages,
            "dispatches": self.dispatches,
            "broadcasts": self.broadcasts,
            "refusals": self.refusals,
            "improvements": len(self.improvements),
        }

    def terminated(self) -> None:
        self.events.append({"event": "terminated", **self.counters()})

    def close(self) -> None:
        for evaluator in self.evaluators.values():
            self.events.append(evaluator)
        for mb in self.mailboxes:
            self.events.append({"event": "mailbox", **mb.stats()})


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
        state.record.improvement(evaluation)
        if state.sharing:
            _broadcast(state, evaluation)
    else:
        raise RuntimeError(f"scheduler cannot handle {message.kind}")


def _broadcast(state: SchedulerState, evaluation) -> None:
    message = Message(MessageKind.SHAREBEST, "scheduler", evaluation)
    # No ring is closed yet: ``_shutdown`` stops sharing before closing them.
    for share_mb in state.share_mailboxes.values():
        share_mb.put_drop_oldest(message)
    state.record.broadcast(evaluation.seq, len(state.share_mailboxes))


def _dispatch_idle(state: SchedulerState) -> None:
    while state.idle:
        if state.budget.kind == "evaluations" and _exhausted(state):
            return
        request = state.queues.next_request()
        if request is None:
            return
        announcement = state.idle.popleft()
        announcement.content.set_result(request)
        state.busy.add(announcement.sender)
        state.record.dispatch(announcement.sender, request.solver_id)


def _refuse(state: SchedulerState, request: EvaluationRequest) -> None:
    if not request.reply.done():
        request.reply.set_exception(MailboxClosed(request.solver_id))
    state.record.refusal(request.solver_id)


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
    archive = await reply
    state.analysis_inbox.close()
    state.record.terminated()
    return archive
