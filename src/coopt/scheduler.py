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
from itertools import count
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import call
from typing import Any, NamedTuple, Optional

from coopt.messaging import (ANALYSESOLUTION, EVALUATEPOINT, REQUESTPOINT,
                             Mailbox, MailboxClosed, Message, MessageKind)

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


# The code of each kind of event in ``EventLog``'s kind column.  The first
# is every event that the log keeps as its dict.
_DICT, _DISPATCH, _IMPROVEMENT, _BROADCAST, _SOLVER_BEST = range(5)


class _Table:
    """The rows of one kind of event, as columns.

    A row's integers go in ``ints`` (signed 64-bit machine integers) and
    its labels, as label-table indices, in ``ids`` (32-bit unsigned: the
    solver count has no bound), the same number of each in every row of a
    kind.  A kind with floats puts a row's floats, any number of them, in
    ``floats`` (doubles), and ``ends`` holds where each row's floats end.
    """

    __slots__ = ("ints", "ids", "floats", "ends")

    def __init__(self):
        self.ints, self.ids = array("q"), array("I")
        self.floats, self.ends = array("d"), array("I")

    def add(self, ints, ids, floats=None) -> None:
        """Append a row.  The numbers are converted first: one that its
        column cannot hold raises before any column grows."""
        ints = array("q", ints)
        if floats is not None:
            floats = array("d", floats)
            self.floats += floats
            self.ends.append(len(self.floats))
        self.ints += ints
        self.ids.extend(ids)

    def spans(self):
        """Each row's floats, as a list."""
        start = 0
        for end in self.ends:
            yield self.floats[start:end].tolist()
            start = end


class EventLog:
    """A run's event log: every event, in order, read as dicts.

    The log keeps the kind of every event in order, one byte an event.
    The kinds whose count grows with the run keep their events as rows of
    a ``_Table``: ``dispatch`` (~30k in a hen run), ``improvement`` and
    ``broadcast`` (~1.7k each in a mutas run of 5k evaluations) and
    ``solver-improvement``.  Each label is kept once, in a label table.  A
    row is (tracemalloc, where a dict took ~250, ~370, ~200 and ~270 B):

    * ``dispatch``: the evaluator's and solver's label indices and the
      message count, ~18 B.  No ``dispatches`` value: ``RunRecord.dispatch``
      logs each dispatch right after counting it, so that value is the
      row's ordinal.
    * ``improvement``: seq, message and dispatch counts, the solver's label
      index, ``g`` and ``z``, ~60 B with two objectives.
    * ``broadcast``: seq and the count delivered, ~17 B.
    * ``solver-improvement``: seq, the solver's and its class's label
      indices and ``z``, ~31 B with one objective.

    Integers are signed 64-bit machine integers, so one of 2**63 or more
    raises ``OverflowError`` before the row is logged; ``g`` and ``z`` are
    doubles, so an int among them reads back as a float.  Every other event
    (run-start, refusal, terminated, evaluator, mailbox: a fixed number a
    run) is kept as the dict given to ``append``.  Iteration builds a row's
    dict when it is read; ``write`` renders the rows without building them.
    """

    __slots__ = ("_labels", "_kinds", "_dicts", "_dispatches",
                 "_improvements", "_broadcasts", "_solver_bests")

    def __init__(self):
        self._labels: dict[str, int] = {}  # label -> index, in first use
        self._kinds = array("B")  # per event, its kind's code
        self._dicts: list[dict] = []
        self._dispatches = _Table()
        self._improvements = _Table()
        self._broadcasts = _Table()
        self._solver_bests = _Table()

    def _label(self, label: str) -> int:
        labels = self._labels
        return labels.setdefault(label, len(labels))

    def dispatch(self, evaluator: str, solver: str, messages: int) -> None:
        """Log a dispatch row.  The count goes first: one it cannot hold
        raises before any column grows."""
        table = self._dispatches
        table.ints.append(messages)
        ids, labels = table.ids, self._labels
        ids.append(labels.setdefault(evaluator, len(labels)))
        ids.append(labels.setdefault(solver, len(labels)))
        self._kinds.append(_DISPATCH)

    def improvement(self, seq: int, solver: str, messages: int,
                    dispatches: int, g: float, z) -> None:
        """Log an archive improvement row."""
        self._improvements.add((seq, messages, dispatches),
                               (self._label(solver),), (g, *z))
        self._kinds.append(_IMPROVEMENT)

    def broadcast(self, seq: int, delivered: int) -> None:
        """Log a broadcast row."""
        self._broadcasts.add((seq, delivered), ())
        self._kinds.append(_BROADCAST)

    def solver_improvement(self, seq: int, solver: str, solver_class: str,
                           z) -> None:
        """Log a row for a new best of one solver's own."""
        self._solver_bests.add(
            (seq,), (self._label(solver), self._label(solver_class)), z)
        self._kinds.append(_SOLVER_BEST)

    def append(self, event: dict) -> None:
        """Log an event of any other kind, as its dict."""
        self._dicts.append(event)
        self._kinds.append(_DICT)

    def __len__(self) -> int:
        return len(self._kinds)

    def improvement_count(self) -> int:
        return len(self._improvements.ends)

    def _improvement_rows(self):
        """Each improvement row as ``(seq, messages, dispatches, solver
        index, [g, *z])``."""
        table = self._improvements
        return zip(*[iter(table.ints)] * 3, table.ids, table.spans())

    def _tables(self):
        """An iterator over each kind's rows, in kind-code order: the dicts;
        the dispatch rows ``(ordinal, evaluator, solver, messages)``; the
        improvement rows as ``_improvement_rows`` gives them; the broadcast
        rows ``(seq, delivered)``; the solver-improvement rows ``(seq,
        solver, class, z)``.  Labels are label indices."""
        dispatches, broadcasts = self._dispatches, self._broadcasts
        solver_bests = self._solver_bests
        return (iter(self._dicts),
                zip(count(1), *[iter(dispatches.ids)] * 2, dispatches.ints),
                self._improvement_rows(),
                zip(*[iter(broadcasts.ints)] * 2),
                zip(solver_bests.ints, *[iter(solver_bests.ids)] * 2,
                    solver_bests.spans()))

    def _merged(self, streams):
        """The items of ``streams``, one iterator per kind code, merged
        into the log's order."""
        takes = [stream.__next__ for stream in streams]
        return map(call, map(takes.__getitem__, self._kinds))

    def __iter__(self):
        labels = list(self._labels)
        dicts, dispatches, _, broadcasts, bests = self._tables()
        return self._merged((
            dicts,
            ({"event": "dispatch", "evaluator": labels[evaluator],
              "solver": labels[solver], "messages": messages,
              "dispatches": ordinal}
             for ordinal, evaluator, solver, messages in dispatches),
            self.improvements(),
            ({"event": "broadcast", "seq": seq, "delivered": delivered}
             for seq, delivered in broadcasts),
            ({"event": "solver-improvement", "solver": labels[solver],
              "class": labels[solver_class], "seq": seq, "z": z}
             for seq, solver, solver_class, z in bests),
        ))

    def improvements(self):
        """The improvement events, in order, as iteration yields them."""
        labels = list(self._labels)
        return ({"event": "improvement", "seq": seq, "solver": labels[solver],
                 "z": z, "g": g, "messages": messages,
                 "dispatches": dispatches}
                for seq, messages, dispatches, solver, (g, *z)
                in self._improvement_rows())

    def write(self, path) -> None:
        """Write the log as events.log: one JSON object per line, keys
        sorted, as ``json.dumps(event, sort_keys=True)`` writes each event
        that iteration yields.

        A row goes through its kind's line template, its labels through
        ``encode_basestring_ascii`` as ``json.dumps`` encodes strings (the
        label table once, not each row).  Every other value goes through
        one ``sorted_encoder``.  The lines are streamed, not joined first:
        the joined text would add ~7 MB to a hen run's peak RSS.
        """
        encode = sorted_encoder()
        labels = [encode_basestring_ascii(label) for label in self._labels]
        dicts, dispatches, improvements, broadcasts, bests = self._tables()
        lines = self._merged((
            ("".join(encode(event, 0)) + "\n" for event in dicts),
            (_DISPATCH_LINE % (ordinal, labels[evaluator], messages,
                               labels[solver])
             for ordinal, evaluator, solver, messages in dispatches),
            (_IMPROVEMENT_LINE % (
                dispatches, "".join(encode(g, 0)), messages, seq,
                labels[solver], "".join(encode(z, 0)))
             for seq, messages, dispatches, solver, (g, *z) in improvements),
            (_BROADCAST_LINE % (delivered, seq)
             for seq, delivered in broadcasts),
            (_SOLVER_BEST_LINE % (labels[solver_class], seq, labels[solver],
                                  "".join(encode(z, 0)))
             for seq, solver, solver_class, z in bests),
        ))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)


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


# The events.log line of each kind of row: keys sorted, as json.dumps
# writes them; labels and numbers come JSON-encoded.
_DISPATCH_LINE = ('{"dispatches": %d, "evaluator": %s, "event": "dispatch", '
                  '"messages": %d, "solver": %s}\n')
_IMPROVEMENT_LINE = ('{"dispatches": %d, "event": "improvement", "g": %s, '
                     '"messages": %d, "seq": %d, "solver": %s, "z": %s}\n')
_BROADCAST_LINE = '{"delivered": %d, "event": "broadcast", "seq": %d}\n'
_SOLVER_BEST_LINE = ('{"class": %s, "event": "solver-improvement", '
                     '"seq": %d, "solver": %s, "z": %s}\n')


@dataclass
class RunRecord:
    """One run's event log and counts, written into as the run goes.

    Every record of ``events`` (an ``EventLog``) is made here, by one
    method per event kind, and each method bumps the counts its event
    carries; the improvements are counted from the log.  The scheduler
    counts its messages into ``messages``, and each evaluator counts into
    the record ``evaluator`` made for it.
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
        """An archive improvement: a trace row and an event.  Its ``z``
        and ``g`` are logged as floats, as ``evaluate_model`` makes them:
        an int among them reads back as a float (``1`` as ``1.0``)."""
        self.events.improvement(evaluation.seq, evaluation.solver_id,
                                self.messages, self.dispatches,
                                evaluation.constraint, evaluation.objectives)

    def broadcast(self, seq: int, delivered: int) -> None:
        self.events.broadcast(seq, delivered)
        self.broadcasts += delivered

    def refusal(self, solver: str) -> None:
        self.refusals += 1
        self.events.append({"event": "refusal", "solver": solver})

    def solver_improvement(self, label: str, solver_class: str,
                           evaluation) -> None:
        """A new best of one solver's own."""
        self.events.solver_improvement(evaluation.seq, label, solver_class,
                                       evaluation.objectives)

    def counters(self) -> dict:
        """The run's totals, as ``report.counters`` and the last event."""
        return {
            "messages": self.messages,
            "dispatches": self.dispatches,
            "broadcasts": self.broadcasts,
            "refusals": self.refusals,
            "improvements": self.events.improvement_count(),
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
    kind = message.kind
    if kind is EVALUATEPOINT:
        state.queues.enqueue(message.content)
    elif kind is REQUESTPOINT:
        state.busy.discard(message.sender)
        state.idle.append(message)
    elif kind is ANALYSESOLUTION:
        evaluation = message.content
        state.record.improvement(evaluation)
        if state.sharing:
            _broadcast(state, evaluation)
    else:
        raise RuntimeError(f"scheduler cannot handle {kind}")


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
