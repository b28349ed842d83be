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
import keyword
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, pairwise
from json.encoder import encode_basestring_ascii
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


# Each event kind whose count grows with the run, as a spec: its event
# name, and its fields as ``name:type``, in its dicts' key order, which is
# its adder's argument order.  Each field type's column is an array of the
# typecode ``_TYPECODES`` gives: an ``int`` is a signed 64-bit integer, a
# ``label`` its index in the log's label table (32-bit unsigned: the
# solver count has no bound) and a ``float`` a double (an int reads back
# as a float).  A ``floats`` field's column holds where each row's doubles
# end in its table's ``floats``.  An ``ordinal`` is the row's number, from
# 1, kept nowhere: ``RunRecord.dispatch`` counts, then logs.
_SPECS = (
    ("dispatch",
     "evaluator:label solver:label messages:int dispatches:ordinal"),
    ("improvement",
     "seq:int solver:label z:floats g:float messages:int dispatches:int"),
    ("broadcast", "seq:int delivered:int"),
    ("solver-improvement", "solver:label class:label seq:int z:floats"),
)
_TYPECODES = {"int": "q", "label": "I", "float": "d", "floats": "I"}
# A kind's ``EventLog`` adder, given the bound ``append``s of the kind
# column and its columns (a value that its column cannot hold raises, and
# the table is cut back to its whole rows), and its reader of rows, fields
# in order, as dicts.
_CODE = '''def {method}(self, {args}):
    """Log a {event} row; its spec in ``_SPECS`` names its fields."""
    labels = self._labels
    kind, {appends}, = self._appends[{index}]
    try:{statements}
        kind({code})
    except BaseException:
        self._tables["{event}"].trim()
        raise
def read(rows):
    return ({{"event": "{event}", {items}}} for {keys}, in rows)'''
_APPEND = {"int": "{append}({arg})",
           "label": "{append}(labels.setdefault({arg}, len(labels)))",
           "float": "{append}({arg})",
           "floats": "floats = self._tables[\"{event}\"].floats\n"
                     "        floats.extend({arg})\n"
                     "        {append}(len(floats))"}


class _Kind:
    """One growing kind's spec, and what it makes: its ``EventLog`` adder,
    set on that class, its dict reader and its events.log line template."""

    def __init__(self, code: int, event: str, fields: str):
        self.event = event
        self.method = event.replace("-", "_")
        self.fields = dict(field.split(":") for field in fields.split())
        self.line = "{%s}\n" % ", ".join(  # keys sorted
            f"{json.dumps(key)}: " + ("%s" if key in self.fields
                                      else json.dumps(event))
            for key in sorted([*self.fields, "event"]))
        local = {name: name + "_" * keyword.iskeyword(name)
                 for name in self.fields}  # ``class`` is ``class_``
        stored = [name for name, type_ in self.fields.items()
                  if type_ != "ordinal"]
        namespace = {"__name__": __name__}
        exec(_CODE.format(
            method=self.method, event=event, index=code - 1, code=code,
            args=", ".join(local[name] for name in stored),
            appends=", ".join(f"_{i}" for i in range(len(stored))),
            statements="".join(
                "\n        " + _APPEND[self.fields[name]].format(
                    append=f"_{i}", arg=local[name], event=event)
                for i, name in enumerate(stored)),
            items=", ".join(f'"{key}": {local[key]}' for key in self.fields),
            keys=", ".join(local.values())), namespace)
        setattr(EventLog, self.method, namespace[self.method])
        self.read = namespace["read"]


class _Table:
    """One growing kind's rows: a column per field but an ``ordinal``, by
    name, and its ``floats`` field's doubles in ``floats``."""

    __slots__ = ("kind", "columns", "floats")

    def __init__(self, kind: _Kind):
        self.kind, self.floats = kind, array("d")
        self.columns = {name: array(_TYPECODES[type_])
                        for name, type_ in kind.fields.items()
                        if type_ != "ordinal"}

    def __len__(self) -> int:
        return min(map(len, self.columns.values()))

    def trim(self) -> None:
        """Cut every column back to the whole rows."""
        rows = len(self)
        for name, column in self.columns.items():
            del column[rows:]
            if self.kind.fields[name] == "floats":
                del self.floats[column[-1] if column else 0:]

    def values(self, name: str, labels: list):
        """Field ``name`` of each row, a label as its entry in ``labels``."""
        type_ = self.kind.fields[name]
        if type_ == "ordinal":
            return range(1, len(self) + 1)
        column = self.columns[name]
        if type_ == "label":
            return map(labels.__getitem__, column)
        if type_ == "floats":
            return (self.floats[start:end].tolist()
                    for start, end in pairwise(chain((0,), column)))
        return column

    def read(self, labels: list):
        """The rows as the dicts that iteration yields."""
        return self.kind.read(zip(*(self.values(name, labels)
                                    for name in self.kind.fields)))

    def lines(self, labels: list, floats=None):
        """The rows' events.log lines, given the labels' JSON texts and,
        where the caller has them, those of the ``floats`` field."""
        return map(self.kind.line.__mod__, zip(*(
            self._json(name, labels, floats)
            for name in sorted(self.kind.fields)), strict=True))

    def _json(self, name: str, labels: list, floats):
        """Field ``name`` of each row as JSON text (or as an int)."""
        type_ = self.kind.fields[name]
        if type_ == "float":
            return json_floats([*map(repr, self.columns[name])])
        if type_ != "floats":
            return self.values(name, labels)
        if floats is not None:
            return floats
        ends = self.columns[name]
        cells = [*json_floats([*map(repr, self.floats)])]
        return map("[%s]".__mod__, map(", ".join, map(
            cells.__getitem__, map(slice, chain((0,), ends), ends))))


class EventLog:
    """A run's event log: every event, in order, read as dicts.

    The log keeps the kind of every event in order, one byte an event.
    The kinds whose count grows with the run (``dispatch``, ~30k in a hen
    run; ``improvement`` and ``broadcast``, ~1.7k each in a mutas run of
    5k evaluations; ``solver-improvement``) keep their events as rows of a
    ``_Table``, each label once in a label table.  Their adders
    (``dispatch``, ``improvement``, ``broadcast``, ``solver_improvement``)
    and readers are made from their specs (``_SPECS``); a row with a value
    its column cannot hold raises and is not logged.  Every other event (a
    fixed number a run) is kept as the dict given to ``append``.
    """

    __slots__ = ("_labels", "_kinds", "_dicts", "_tables", "_appends")

    def __init__(self):
        self._labels: dict[str, int] = {}  # label -> index, in first use
        self._kinds = array("B")  # per event, its kind's code; 0: a dict
        self._dicts: list[dict] = []
        self._tables = {kind.event: _Table(kind) for kind in _KINDS}
        self._appends = [  # per table, the ``append``s its adder calls
            (self._kinds.append, *(c.append for c in t.columns.values()))
            for t in self._tables.values()]

    def append(self, event: dict) -> None:
        """Log an event of any other kind, as its dict."""
        self._dicts.append(event)
        self._kinds.append(0)

    def __len__(self) -> int:
        return len(self._kinds)

    def count(self, event: str) -> int:
        """The number of ``event`` events."""
        if event in self._tables:
            return len(self._tables[event])
        return sum(e["event"] == event for e in self._dicts)

    def rows(self, event: str, *names):
        """The ``event`` rows, in order, as tuples of the fields ``names``."""
        table, labels = self._tables[event], list(self._labels)
        return zip(*(table.values(name, labels) for name in names))

    def _merged(self, streams):
        """The items of ``streams``, one per kind code, in the log's order."""
        takes = [iter(stream).__next__ for stream in streams]
        return map(call, map(takes.__getitem__, self._kinds))

    def __iter__(self):
        labels = list(self._labels)
        return self._merged([self._dicts, *(
            table.read(labels) for table in self._tables.values())])

    def write(self, path, rendered=None) -> None:
        """Write events.log: ``json.dumps(event, sort_keys=True)`` of each
        event that iteration yields, a line each.  A growing kind's line is
        made from its columns, without building its dict, each float
        spelled by ``json_floats``.  ``rendered`` maps an event name to the
        JSON text of its rows' ``floats`` field, in order, where the caller
        has it.  The lines are streamed: joined, they would add ~7 MB to a
        hen run's RSS.
        """
        labels = [encode_basestring_ascii(label) for label in self._labels]
        rendered = rendered or {}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(self._merged([
                (json.dumps(event, sort_keys=True) + "\n"
                 for event in self._dicts),
                *(table.lines(labels, rendered.get(event))
                  for event, table in self._tables.items())]))


# json.dumps's spelling of the non-finite floats, which repr spells nan,
# inf and -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_floats(cells):
    """A sequence of float cells, each the float's ``repr``, as
    ``json.dumps`` spells those floats, without a Python call per cell."""
    return map(_JSON_NONFINITE.get, cells, cells)


# Each growing kind; its code in ``EventLog._kinds`` is its place here,
# from 1, and ``EventLog._tables`` and ``_appends`` keep this order.
_KINDS = [_Kind(code, *spec) for code, spec in enumerate(_SPECS, 1)]


@dataclass
class RunRecord:
    """One run's event log and counts, written into as the run goes.

    Every record of ``events`` (an ``EventLog``) is made here, by one
    method per event kind.  A growing kind's method passes its fields to
    the log's adder in its spec's order (``_SPECS``).  A count is kept
    here only when the run reads it while it runs or no row holds it:
    the scheduler counts its messages into ``messages`` and its
    dispatches into ``dispatches`` (both budgets), and each evaluator
    counts into the record ``evaluator`` made for it.  Every other total
    (``counters``, ``per_solver_evaluations``) is read from the rows.
    ``close`` ends the log with the evaluator records, then one ledger
    record per mailbox.
    """

    mailboxes: list[Mailbox]
    evaluators: dict[str, dict] = field(default_factory=dict)  # id -> record
    events: EventLog = field(default_factory=EventLog)
    messages: int = 0
    dispatches: int = 0

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
        self.events.dispatch(evaluator, solver, self.messages)

    def improvement(self, evaluation) -> None:
        """An archive improvement: a trace row and an event.  Its ``z``
        and ``g`` are logged as doubles: an int reads back as a float."""
        self.events.improvement(evaluation.seq, evaluation.solver_id,
                                evaluation.objectives, evaluation.constraint,
                                self.messages, self.dispatches)

    def broadcast(self, seq: int, delivered: int) -> None:
        self.events.broadcast(seq, delivered)

    def refusal(self, solver: str) -> None:
        self.events.append({"event": "refusal", "solver": solver})

    def solver_improvement(self, label: str, solver_class: str,
                           evaluation) -> None:
        """A new best of one solver's own."""
        self.events.solver_improvement(label, solver_class, evaluation.seq,
                                       evaluation.objectives)

    def counters(self) -> dict:
        """The run's totals, as ``report.counters`` and the last event."""
        return {
            "messages": self.messages,
            "dispatches": self.dispatches,
            "broadcasts": sum(chain.from_iterable(
                self.events.rows("broadcast", "delivered"))),
            "refusals": self.events.count("refusal"),
            "improvements": self.events.count("improvement"),
        }

    def per_solver_evaluations(self) -> dict:
        """Dispatches by solver label, in first-dispatch order."""
        return dict(Counter(chain.from_iterable(
            self.events.rows("dispatch", "solver"))))

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
