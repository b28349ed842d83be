"""Experiment runner: wire the agents per config and report the results.

A run connects one scheduler, one analysis agent, a pool of evaluators, and
a roster of solver instances over bounded mailboxes, feeds every solver the
same initial population, and lets the scheduler drive the system to its
budget.  ``run_experiment`` repeats that for every repetition in both the
independent and the cooperating mode and writes plot-ready CSV summaries.

Config files are UTF-8 ``key = value`` text with one ``[solver]`` block per
solver instance; ``#`` starts a comment (whole line or trailing)::

    problem = rastrigin-10
    preset = hen-protocol
    seed = 42
    repetitions = 10
    output_dir = runs/rastrigin

    # optional explicit roster (replaces the preset's)
    [solver]
    kind = GA
    size = 20
    omega = 0.5
    priority = 1
    label = ga-big

The recognized keys, and the field each one sets, are the tables
``_TOP_KEYS`` (top level) and ``_SOLVER_KEYS`` (``[solver]`` blocks).  Any
other key, and any value a parser or constructor rejects, is reported with
its key and line (``_fields`` and ``_build``).  A named preset fills in the
budget, ``np`` (shared initial population size) and roster that the file
leaves out, exactly as ``preset_config`` does.
"""

from __future__ import annotations

import asyncio
import codecs
import csv
import itertools
import json
import re
import time
from dataclasses import dataclass, replace
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from coopt import runloop
from coopt.analysis import MULTI, SINGLE, Archive, analysis_loop
from coopt.core import Problem
from coopt.evaluator import evaluator_loop
from coopt.messaging import Mailbox, MailboxClosed
from coopt.metrics import MEASURES, front_measures
from coopt.problems import front_samples, registry_get
from coopt.scheduler import (Budget, EventLog, RunRecord, SchedulerState,
                              json_floats, scheduler_loop)
from coopt.solvers import SolverConfig, solver_loop

MODES = (("independent", False), ("cooperating", True))


class ConfigError(ValueError):
    """A config file failed validation; the message cites the line."""


# np points of up to MAX_DIMENSION floats each make the shared initial
# population: 800 MB at both bounds.
MAX_NP = 10_000
MAX_EVALUATORS = 1_000


def _check_np(population_size: int) -> int:
    if population_size < 1:
        raise ValueError("np (population size) must be >= 1")
    if population_size > MAX_NP:
        raise ValueError(f"np (population size) must be <= {MAX_NP}")
    return population_size


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs: problem, budget, roster, seeds."""

    problem: str
    budget: Budget
    solvers: tuple[SolverConfig, ...]
    population_size: int
    n_evaluators: int = 2
    sharing: bool = True  # run_once's mode; run_experiment runs both
    seed: int = 0
    repetitions: int = 10
    output_dir: str = "runs"

    def __post_init__(self):
        if not self.solvers:
            raise ValueError("at least one solver is required")
        _check_np(self.population_size)
        if self.n_evaluators < 1:
            raise ValueError("n_evaluators must be >= 1")
        if self.n_evaluators > MAX_EVALUATORS:
            raise ValueError(f"n_evaluators must be <= {MAX_EVALUATORS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        labels = [sc.label for sc in self.solvers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate solver labels: {sorted(labels)}")


@dataclass
class RunReport:
    """Outcome of one run: archive, improvement trace, counters, metrics.

    ``events`` is the run's ``EventLog``: reading it gives every event as
    a dict, a row's built when read, and its ``write`` renders events.log.
    ``trace`` builds trace.csv's rows, one dict each, from the fields of
    the log's improvement rows when it is read.
    """

    problem: str
    mode: str
    rep_index: int
    sharing: bool
    archive: Optional[Archive]  # None if the run was aborted
    solver_classes: dict[str, str]  # solver label -> "MH" or "DS"
    per_solver_evaluations: dict[str, int]  # in first-dispatch order
    counters: dict
    metrics_row: Optional[dict]
    wall_time: float
    valid: bool
    error: str
    events: EventLog

    @property
    def trace(self) -> list[dict]:
        """One row per archive improvement, in arrival order."""
        classes = self.solver_classes
        return [{"seq": seq, "messages": messages, "dispatches": dispatches,
                 "z": z, "instance_label": solver, "class": classes[solver]}
                for seq, messages, dispatches, z, solver in self.events.rows(
                    "improvement", "seq", "messages", "dispatches", "z",
                    "solver")]

    def best_value(self) -> Optional[float]:
        if self.archive is None or self.archive.best is None:
            return None
        return self.archive.best.objectives[0]


# ------------------------------------------------------------------ presets

def _hen_roster(ps: int) -> tuple[SolverConfig, ...]:
    return (
        SolverConfig("GA", ps, instance_label="ga-small"),
        SolverConfig("GA", 5 * ps, instance_label="ga-large"),
        SolverConfig("PPA", max(1, round(ps / 2)), instance_label="ppa-small"),
        SolverConfig("PPA", 2 * ps, instance_label="ppa-large"),
        SolverConfig("SD", instance_label="sd"),
        SolverConfig("CS", instance_label="cs"),
    )


def _mutas_roster(ps: int) -> tuple[SolverConfig, ...]:
    weights = (0.2, 0.4, 0.6, 0.8)
    return (
        SolverConfig("GA", 2 * ps, instance_label="ga-small"),
        SolverConfig("GA", 5 * ps, instance_label="ga-large"),
        SolverConfig("PPA", max(1, round(ps / 2)), instance_label="ppa-small"),
        SolverConfig("PPA", 2 * ps, instance_label="ppa-large"),
        SolverConfig("PSO", ps, instance_label="pso-small"),
        SolverConfig("PSO", 5 * ps, instance_label="pso-large"),
    ) + tuple(
        SolverConfig("SD", weight=w, instance_label=f"sd-w{int(w * 100)}")
        for w in weights
    ) + tuple(
        SolverConfig("CS", weight=w, instance_label=f"cs-w{int(w * 100)}")
        for w in weights
    )


class Preset(NamedTuple):
    """A named experiment protocol: budget, shared population, roster."""

    summary: str
    budget: Budget
    default_np: Optional[int]  # None: one per problem dimension
    roster: Callable[[int], tuple[SolverConfig, ...]]

    def population_size(self, problem: Problem) -> int:
        return self.default_np or problem.domain.size


PRESETS = {
    "hen-protocol": Preset(
        "message-budget protocol: 60000 scheduler messages, np = problem "
        "dimensions, roster GA(np), GA(5np), PPA(np/2), PPA(2np), SD, CS",
        Budget.messages(60_000), None, _hen_roster),
    "mutas-protocol": Preset(
        "evaluation-budget protocol: 1000 evaluations, np = 20, roster "
        "GA(2np), GA(5np), PPA(np/2), PPA(2np), PSO(np), PSO(5np), plus SD "
        "and CS at scalarizing weights 0.2/0.4/0.6/0.8",
        Budget.evaluations(1_000), 20, _mutas_roster),
}


def _unknown_preset(preset: str) -> str:
    return (f"unknown preset {preset!r}; available: "
            + ", ".join(sorted(PRESETS)))


def preset_config(preset: str, problem: str, **overrides) -> RunConfig:
    """Build a RunConfig for a named preset.

    Keyword overrides name RunConfig fields and replace the preset's values;
    an overridden ``population_size`` also sizes the preset's roster.
    """
    problem_obj = registry_get(problem)
    if preset not in PRESETS:
        raise ValueError(_unknown_preset(preset))
    spec = PRESETS[preset]
    ps = overrides.pop("population_size", None)
    ps = spec.population_size(problem_obj) if ps is None else _check_np(ps)
    fields = {"budget": spec.budget, "solvers": spec.roster(ps), **overrides}
    return RunConfig(problem=problem, population_size=ps, **fields)


# ------------------------------------------------------------- config files

def _budget(value: str) -> Budget:
    kind, limit = value.split(":")
    kind, limit = kind.strip(), int(limit)
    try:
        return Budget(kind, limit)
    except ValueError as exc:  # well-formed, but not a valid budget
        raise ConfigError(exc) from None


# Config key -> (field it sets, parser, what a value the parser rejects
# "must" do, for the error message).
_TOP_KEYS = {
    "problem": ("problem", str, ""),
    "preset": ("preset", str, ""),
    "budget": ("budget", _budget,
               "look like messages:60000 or evaluations:1000"),
    "np": ("population_size", int, "be an integer"),
    "n_evaluators": ("n_evaluators", int, "be an integer"),
    "seed": ("seed", int, "be an integer"),
    "repetitions": ("repetitions", int, "be an integer"),
    "output_dir": ("output_dir", str, ""),
}
_SOLVER_KEYS = {
    "kind": ("kind", str, ""),
    "size": ("size_param", int, "be an integer"),
    "omega": ("weight", float, "be a number"),
    "priority": ("priority", int, "be an integer"),
    "label": ("instance_label", str, ""),
}


def load_config(path) -> RunConfig:
    """Parse and validate a config file; errors cite the offending line.

    Lines end at LF, CR LF or CR, as text-mode ``open()`` reads them;
    ``str.splitlines`` would also break at a form feed, U+2028 and others.
    """
    # Not utf-8-sig: its error offsets would skip the byte-order mark.
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(re.findall(rb"\r\n?|\n", raw[:exc.start])) + 1
        raise ConfigError(f"line {lineno}: not UTF-8 text "
                          f"(byte {raw[exc.start]:#04x})") from None
    top: dict[str, tuple[str, int]] = {}
    blocks: list[dict[str, tuple[str, int]]] = []
    current: Optional[dict] = None
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[solver]":
            current = {}
            blocks.append(current)
            continue
        if line.startswith("["):
            raise ConfigError(f"line {lineno}: unknown section {line!r}")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        allowed = _TOP_KEYS if current is None else _SOLVER_KEYS
        target = top if current is None else current
        if key not in allowed:
            where = "" if current is None else " in [solver] block"
            raise ConfigError(f"line {lineno}: unknown key {key!r}{where}")
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[key] = (value, lineno)
    return _assemble(top, blocks)


def _fields(entries: dict[str, tuple[str, int]], table: dict) -> dict:
    """Convert one section's ``key -> (value, line)`` entries to fields."""
    fields = {}
    for key, (value, lineno) in entries.items():
        name, parse, must = table[key]
        try:
            fields[name] = parse(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} must {must}, got {value!r}") from None
    return fields


def _build(make, fields: dict, entries: dict, table: dict):
    """``make(**fields)``, with a rejected field's error citing its line.

    The contract: a constructor that rejects a field raises a ValueError
    whose message names that field, or its config key, first ("weight must
    lie in [0, 1]").  It is raised again as a ConfigError that names the
    key the file used, on that key's line ("line 6: omega must lie in
    [0, 1]").  Any other ValueError keeps its message, with no line.
    """
    try:
        return make(**fields)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        for key, (_value, lineno) in entries.items():
            if name in (key, table[key][0]):
                raise ConfigError(f"line {lineno}: {key} {rest}") from None
        raise ConfigError(str(exc)) from None


def _assemble(top: dict, blocks: list[dict]) -> RunConfig:
    fields = _fields(top, _TOP_KEYS)
    if blocks:
        fields["solvers"] = tuple(_solver_from_block(i, block)
                                  for i, block in enumerate(blocks))
    if "problem" not in top:
        raise ConfigError("missing required key 'problem'")
    try:
        registry_get(fields["problem"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"line {top['problem'][1]}: {exc.args[0]}") from None
    preset = fields.pop("preset", None)
    if preset is None:
        for key in ("np", "budget"):
            if key not in top:
                raise ConfigError(
                    f"missing required key {key!r} (no preset supplies it)")
        if not blocks:
            raise ConfigError("no [solver] blocks and no preset roster")
    elif preset not in PRESETS:
        line = top["preset"][1]
        raise ConfigError(f"line {line}: {_unknown_preset(preset)}")
    make = RunConfig if preset is None else partial(preset_config, preset)
    return _build(make, fields, top, _TOP_KEYS)


def _solver_from_block(index: int, block: dict) -> SolverConfig:
    if "kind" not in block:
        raise ConfigError(
            f"[solver] block {index + 1}: missing required key 'kind'")
    fields = _fields(block, _SOLVER_KEYS)
    fields.setdefault("instance_label",
                      f"{fields['kind'].lower()}-{index + 1}")
    return _build(SolverConfig, fields, block, _SOLVER_KEYS)


# ------------------------------------------------------------------ running

def _derive_seeds(cfg: RunConfig, rep_index: int):
    """Per-rep RNG streams, identical across modes for paired comparisons."""
    root = np.random.SeedSequence((cfg.seed, rep_index))
    children = root.spawn(1 + len(cfg.solvers))
    population_rng = np.random.default_rng(children[0])
    solver_seeds = [int(child.generate_state(1, np.uint64)[0])
                    for child in children[1:]]
    return population_rng, solver_seeds


class Agents(NamedTuple):
    """One run's wiring, as ``wire`` builds it; no agent is started yet."""

    state: SchedulerState  # holds the run's record, ``state.record``
    coroutines: list  # the analysis agent's, then one per evaluator


def wire(problem: Problem, solver_labels, n_evaluators: int, budget: Budget,
         sharing: bool = False) -> Agents:
    """Build the mailboxes, run record, scheduler state and agent coroutines.

    This is the one place that sizes the mailboxes.  For S solvers and E
    evaluators: scheduler inbox 2(S + E + 1), analysis inbox 2(E + 1), each
    solver's share ring 4.  The archive keeps one objective or a front, as
    ``problem.n_obj`` says.  The record starts with an empty event log.
    """
    scheduler_inbox = Mailbox(
        2 * (len(solver_labels) + n_evaluators + 1), name="scheduler")
    analysis_inbox = Mailbox(2 * (n_evaluators + 1), name="analysis")
    share_mbs = {label: Mailbox(4, name=f"share:{label}")
                 for label in solver_labels}
    record = RunRecord(
        mailboxes=[scheduler_inbox, analysis_inbox, *share_mbs.values()])
    state = SchedulerState(
        inbox=scheduler_inbox,
        share_mailboxes=share_mbs,
        analysis_inbox=analysis_inbox,
        budget=budget,
        record=record,
        sharing=sharing,
    )
    seq = itertools.count(1)
    mode = SINGLE if problem.n_obj == 1 else MULTI
    coroutines = [analysis_loop(analysis_inbox, scheduler_inbox,
                                Archive(mode), record)]
    coroutines += [
        evaluator_loop(problem, scheduler_inbox, analysis_inbox, seq,
                       record.evaluator(f"eval-{i}"))
        for i in range(n_evaluators)
    ]
    return Agents(state, coroutines)


async def run_agents(agents: Agents, solvers) -> tuple[Archive | None, list]:
    """Start analysis, evaluators, scheduler, then solvers; run to budget.

    ``solvers`` are the solver coroutines, not yet started.  The one judge
    of how an agent ends: returning, being cancelled and (but for the
    scheduler) ``MailboxClosed`` are normal; the first task to end any other
    way cancels every task.  Returns the final archive (None if aborted) and
    the abnormal endings' exceptions; the run's record is closed however
    the run ends.
    """
    tasks = [asyncio.ensure_future(c) for c in agents.coroutines]
    scheduler_task = asyncio.ensure_future(scheduler_loop(agents.state))
    tasks += [scheduler_task] + [asyncio.ensure_future(s) for s in solvers]
    errors: list[BaseException] = []

    def judge(task: asyncio.Task) -> None:
        exc = None if task.cancelled() else task.exception()
        if exc is not None and (task is scheduler_task
                                or not isinstance(exc, MailboxClosed)):
            errors.append(exc)
            for other in tasks:
                other.cancel()

    for task in tasks:
        task.add_done_callback(judge)
    try:
        await asyncio.gather(*tasks, return_exceptions=True)
    finally:  # also when the run stalls and the loop cancels this task
        agents.state.record.close()
    return (None if errors else scheduler_task.result()), errors


def run_once(cfg: RunConfig, rep_index: int) -> RunReport:
    """Run one agent system to its budget (or abort) and report on it.

    The agents run on a ``coopt.runloop.RunLoop``.  A run that stalls (every
    agent waits on another, so nothing can run again) ends like an aborted
    one, with the message count it stalled at in its error.
    """
    problem = registry_get(cfg.problem)
    population_rng, solver_seeds = _derive_seeds(cfg, rep_index)
    initial_points = problem.domain.random_population(
        population_rng, cfg.population_size)
    labels = [sc.label for sc in cfg.solvers]
    classes = {sc.label: sc.solver_class for sc in cfg.solvers}

    mode = "cooperating" if cfg.sharing else "independent"
    started = time.perf_counter()
    agents = wire(problem, labels, cfg.n_evaluators, cfg.budget, cfg.sharing)
    state = agents.state
    record = state.record
    record.run_start(cfg.problem, mode, rep_index, labels, initial_points)
    solvers = [solver_loop(sc, seed, problem.domain, initial_points,
                           state.inbox, state.share_mailboxes[sc.label],
                           record)
               for sc, seed in zip(cfg.solvers, solver_seeds)]
    try:
        archive, errors = runloop.run(run_agents(agents, solvers))
    except runloop.Stalled as exc:
        archive, errors = None, [runloop.Stalled(
            f"the run stalled at message {record.messages}: {exc}")]
    wall_time = time.perf_counter() - started

    metrics_row = None
    if problem.n_obj > 1 and archive is not None and archive.front:
        metrics_row = front_metrics(
            [e.objectives for e in archive.front], cfg.problem)
    return RunReport(
        problem=cfg.problem, mode=mode, rep_index=rep_index,
        sharing=cfg.sharing, archive=archive,
        solver_classes=classes,
        per_solver_evaluations=record.per_solver_evaluations(),
        counters=record.counters(), metrics_row=metrics_row,
        wall_time=wall_time, valid=not errors,
        error="; ".join(f"{type(e).__name__}: {e}" for e in errors),
        events=record.events)


def front_metrics(objective_points, problem_name: str) -> dict:
    """``front_measures`` of one final front, in ``MEASURES`` order.

    Reference and utopia points come from the problem's known front when it
    has one (reference 10% beyond the worst front value per objective),
    otherwise from the data itself; generational distance needs the known
    front.  ``hypervolume`` is the dominated area (higher is better);
    ``hypervolume complement`` is the rest of the [0, reference] box (lower
    is better).
    """
    pts = np.asarray(objective_points, dtype=float)
    try:
        front = front_samples(problem_name, 1_000)
    except ValueError:  # no known front
        front = None
    anchor = front if front is not None else pts
    utopia = anchor.min(axis=0)
    nadir = anchor.max(axis=0)
    reference = nadir + 0.1 * np.maximum(nadir - utopia, 1.0)
    return front_measures(pts, reference, utopia, front)


# ------------------------------------------------------------------ reports

# A trace row's and an archive member's report.json item: keys sorted, as
# json.dumps writes them.
_TRACE_ITEM = ('{"class": %s, "dispatches": %d, "instance_label": %s, '
               '"messages": %d, "seq": %d, "z": %s}')
_MEMBER_ITEM = ('{"g": %s, "objectives": [%s], "point": [%s], "seq": %d, '
                '"solver_id": %s}')


def _float_cell(value) -> str:
    """A float's cell in every CSV: its shortest round-trip repr."""
    return repr(float(value))


def _float_cells(values):
    """``_float_cell`` of each value, without a Python call per value."""
    return map(repr, map(float, values))


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _trace_table(trace: list[dict]) -> tuple[list, list]:
    """trace.csv: one row per archive improvement, in arrival order."""
    n_obj = max((len(row["z"]) for row in trace), default=1)
    header = ["seq", "messages", "dispatches"] \
        + [f"z{i + 1}" for i in range(n_obj)] + ["instance_label", "class"]
    return header, [
        [row["seq"], row["messages"], row["dispatches"],
         *_float_cells(row["z"]), row["instance_label"], row["class"]]
        for row in trace
    ]


def _archive_table(members: list[tuple]) -> tuple[list, list]:
    """archive.csv: one row per member ``(point, objectives, g, solver_id,
    seq)``: point, objectives, g, origin."""
    n_dim = len(members[0][0]) if members else 0
    n_obj = len(members[0][1]) if members else 1
    header = [f"d{i + 1}" for i in range(n_dim)] \
        + [f"z{i + 1}" for i in range(n_obj)] + ["g", "solver_id", "seq"]
    return header, [
        [*_float_cells(point), *_float_cells(objectives), _float_cell(g),
         solver_id, seq]
        for point, objectives, g, solver_id, seq in members
    ]


def write_run_csvs(run_dir, summary: dict) -> None:
    """trace.csv and archive.csv from a report.json's ``trace`` and
    ``archive`` lists, as ``write_run_dir`` writes them.

    Both tables are rendered before either file is opened, so a summary
    that cannot be rendered (a malformed report.json) leaves both as they
    were.
    """
    tables = {
        "archive.csv": _archive_table([
            (m["point"], m["objectives"], m["g"], m["solver_id"], m["seq"])
            for m in summary["archive"]]),
        "trace.csv": _trace_table(summary["trace"]),
    }
    for name, (header, rows) in tables.items():
        _write_csv(Path(run_dir) / name, header, rows)


def _write_trace_csv(path, trace: list[dict]) -> list[str]:
    """Write trace.csv; return each row's ``z`` as its JSON array text."""
    header, rows = _trace_table(trace)
    _write_csv(path, header, rows)
    return ["[%s]" % ", ".join(json_floats(cells[3:-2])) for cells in rows]


def _write_report_json(path, fields: dict, arrays: dict) -> None:
    """Write ``json.dumps({**fields, **arrays}, sort_keys=True) + "\n"``,
    where each array is given as its items' JSON texts, and stream it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        separator = "{"
        for key in sorted([*fields, *arrays]):
            fh.write(f"{separator}{encode_basestring_ascii(key)}: ")
            separator = ", "
            if key in arrays:
                items = iter(arrays[key])
                fh.write("[" + next(items, ""))
                fh.writelines(", " + item for item in items)
                fh.write("]")
            else:
                fh.write(json.dumps(fields[key], sort_keys=True))
        fh.write("}\n")


def write_run_dir(run_dir, report: RunReport) -> Path:
    """Write a run's trace.csv, archive.csv, events.log and report.json.

    Each float of the trace's ``z`` and of the archive members is rendered
    once, as ``_float_cell`` renders it.  The CSV rows hold those texts.
    report.json's ``trace`` and ``archive`` arrays are built from them, with
    each float spelled by ``json_floats``, and each trace row's ``z`` text
    is also its improvement's ``z`` in events.log.  Every other report.json
    value is written by ``json.dumps(value, sort_keys=True)``.  The
    values are floats, as ``evaluate_model`` makes them, and the bytes are
    those of ``json.dumps(summary, sort_keys=True) + "\n"`` for the summary
    of every key here, of ``write_run_csvs`` on that summary, and of
    ``EventLog.write``.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    trace = report.trace
    z_arrays = _write_trace_csv(run_dir / "trace.csv", trace)
    report.events.write(run_dir / "events.log", {"improvement": z_arrays})
    members = report.archive.members() if report.archive else []
    header, rows = _archive_table([
        (m.point.tolist(), m.objectives, m.constraint, m.solver_id, m.seq)
        for m in members])
    _write_csv(run_dir / "archive.csv", header, rows)
    _write_report_json(run_dir / "report.json", {
        "problem": report.problem,
        "mode": report.mode,
        "rep_index": report.rep_index,
        "sharing": report.sharing,
        "valid": report.valid,
        "error": report.error,
        "wall_time": report.wall_time,
        "counters": report.counters,
        "per_solver_evaluations": report.per_solver_evaluations,
        "best": report.best_value(),
        "front_size": len(members),
        "metrics": report.metrics_row,
    }, {
        "trace": (_TRACE_ITEM % (
            encode_basestring_ascii(row["class"]), row["dispatches"],
            encode_basestring_ascii(row["instance_label"]), row["messages"],
            row["seq"], z) for row, z in zip(trace, z_arrays)),
        # A member's float texts: its point's, its objectives' and its g.
        "archive": (_MEMBER_ITEM % (
            texts[-1], ", ".join(texts[len(m.point):-1]),
            ", ".join(texts[:len(m.point)]), m.seq,
            encode_basestring_ascii(m.solver_id))
            for m, cells in zip(members, rows)
            for texts in ([*json_floats(cells[:-2])],)),
    })
    return run_dir


def write_boxplot_csv(path, bests_by_mode: dict[str, list[float]]) -> None:
    """Five-number summary of the final best value per mode."""
    _write_csv(path, ["mode", "min", "q1", "median", "q3", "max"], [
        [mode] + [_float_cell(v) for v in
                  np.percentile(bests_by_mode[mode], [0, 25, 50, 75, 100])]
        for mode, _sharing in MODES if bests_by_mode.get(mode)
    ])


def write_metrics_csv(path, rows: dict[str, dict[str, float]]) -> None:
    """Measure table with one column per mode (median over repetitions)."""
    _write_csv(path, ["measure", "independent", "cooperating"], [
        [measure] + [_float_cell(by_mode[mode]) if mode in by_mode else ""
                     for mode, _sharing in MODES]
        for measure, by_mode in rows.items()
    ])


def run_experiment(cfg: RunConfig) -> dict:
    """Run every repetition in both modes and write the summary CSVs.

    Produces one ``<mode>-rep<k>`` directory per run (trace.csv,
    archive.csv, events.log, report.json) plus, at the top level,
    ``boxplot.csv`` for single-objective problems or ``metrics.csv`` for
    multi-objective ones.  Failed runs are recorded and skipped in the
    summaries; the remaining repetitions still run.
    """
    problem = registry_get(cfg.problem)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Per mode, (best, metrics row) of each valid run.
    kept: dict[str, list[tuple]] = {mode: [] for mode, _ in MODES}
    failures: list[str] = []
    for mode, sharing in MODES:
        for rep in range(cfg.repetitions):
            report = run_once(replace(cfg, sharing=sharing), rep)
            write_run_dir(out / f"{mode}-rep{rep:02d}", report)
            if report.valid:
                kept[mode].append((report.best_value(), report.metrics_row))
            else:
                failures.append(f"{mode}-rep{rep:02d}: {report.error}")
            # A hen run's ~30k events (~0.5 MB): not held over the next run.
            del report

    summary = {
        "problem": cfg.problem,
        "output_dir": str(out),
        "runs": 2 * cfg.repetitions,
        "failures": failures,
    }
    if problem.n_obj == 1:
        bests = {
            mode: [best for best, _row in runs if best is not None]
            for mode, runs in kept.items()
        }
        write_boxplot_csv(out / "boxplot.csv", bests)
        summary["boxplot"] = str(out / "boxplot.csv")
        summary["median_best"] = {
            mode: float(np.median(values)) if values else None
            for mode, values in bests.items()
        }
    else:
        rows: dict[str, dict[str, float]] = {}
        for measure in MEASURES:
            by_mode = {}
            for mode, runs in kept.items():
                values = [row[measure] for _best, row in runs
                          if row and measure in row]
                if values:
                    by_mode[mode] = float(np.median(values))
            if by_mode:
                rows[measure] = by_mode
        write_metrics_csv(out / "metrics.csv", rows)
        summary["metrics"] = str(out / "metrics.csv")
    return summary
