"""Every way a run ends: normally, aborted by one agent's failure, or stalled.

``run_agents`` is the one judge of how an agent ends.  A task that
returns, a task other than the scheduler that ends by ``MailboxClosed``,
and a cancelled task end normally; the first task to end any other way
cancels every task, so the run ends with no archive and the exception in
its errors list.  A run in which every agent waits on another ends on
``run_once``'s loop with ``Stalled``.  Most runs below are the
hen-protocol roster on sphere-3 at 2000 scheduler messages, each bounded
to 30 s by ``asyncio.wait_for`` (or a thread join, for ``run_once`` and
``run_experiment``): a run that hangs fails its test by timeout instead of
stalling the suite.
"""

import asyncio
import gc
import json
import logging
import math
import re
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopt.analysis
from coopt.harness import (RunConfig, preset_config, run_agents,
                           run_experiment, run_once, wire, write_run_dir)
from coopt.problems import registry_get
from coopt.scheduler import P_MAX, Budget
from coopt.solvers import SOLVER_KINDS, SolverConfig, solver_loop
from oracles import report_summary, run_faults

CFG = preset_config("hen-protocol", "sphere-3", budget=Budget.messages(2000))
SPHERE3 = registry_get("sphere-3")


class ModelDied(BaseException):
    """Escapes ``evaluate_model``, which maps only ``Exception``s."""


def hen_system(problem=SPHERE3):
    """The wired agents and solver coroutines of one hen run, as run_once."""
    initial_points = problem.domain.random_population(
        np.random.default_rng(7), CFG.population_size)
    labels = [sc.label for sc in CFG.solvers]
    agents = wire(problem, labels, CFG.n_evaluators, CFG.budget, True)
    state = agents.state
    solvers = [solver_loop(sc, i, problem.domain, initial_points,
                           state.inbox, state.share_mailboxes[sc.label],
                           state.record)
               for i, sc in enumerate(CFG.solvers)]
    return agents, solvers


def run(agents, solvers):
    """``run_agents`` to its end; a run still going after 30 s fails."""
    return asyncio.run(
        asyncio.wait_for(run_agents(agents, solvers), timeout=30))


def bounded(call, what):
    """``call()`` in a thread; a call still going after 30 s fails.

    ``run_once`` runs its own event loop, so a thread bounds it instead of
    ``asyncio.wait_for``.
    """
    results = []
    thread = threading.Thread(target=lambda: results.append(call()),
                              daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive(), f"the {what} hangs"
    result, = results
    return result


def failing_model(fault, on_call):
    calls = 0

    def model(point, params):
        nonlocal calls
        calls += 1
        if calls == on_call:
            raise fault
        return SPHERE3.model(point, params)

    return replace(SPHERE3, model=model)


def assert_aborted(agents, archive, errors, kind):
    assert archive is None
    assert errors and all(isinstance(e, kind) for e in errors)
    assert agents.state.record.messages < CFG.budget.limit


def raising_steps(monkeypatch, kinds):
    def step(*_args):
        raise RuntimeError("step failed")

    for kind in kinds:
        solver_class, _step, start = SOLVER_KINDS[kind]
        monkeypatch.setitem(SOLVER_KINDS, kind, (solver_class, step, start))


def test_every_solver_raising_aborts_the_run(monkeypatch):
    raising_steps(monkeypatch, SOLVER_KINDS)
    agents, solvers = hen_system()
    archive, errors = run(agents, solvers)
    assert_aborted(agents, archive, errors, RuntimeError)


def test_failing_archive_update_aborts_the_run(monkeypatch):
    update = coopt.analysis.update_archive
    calls = 0

    def flaky_update(archive, evaluation):
        nonlocal calls
        calls += 1
        if calls == 20:
            raise RuntimeError("archive update failed")
        return update(archive, evaluation)

    monkeypatch.setattr(coopt.analysis, "update_archive", flaky_update)
    agents, solvers = hen_system()
    archive, errors = run(agents, solvers)
    assert_aborted(agents, archive, errors, RuntimeError)
    assert calls == 20


def test_model_base_exception_kills_the_evaluator_and_aborts_the_run():
    agents, solvers = hen_system(failing_model(ModelDied("dead"), 50))
    archive, errors = run(agents, solvers)
    assert_aborted(agents, archive, errors, ModelDied)
    assert sum(s["evaluations"]
               for s in agents.state.record.evaluators.values()) == 49


def test_one_solver_raising_aborts_the_run(monkeypatch):
    raising_steps(monkeypatch, ["CS"])
    agents, solvers = hen_system()
    archive, errors = run(agents, solvers)
    assert_aborted(agents, archive, errors, RuntimeError)
    assert len(errors) == 1
    # The others ran: every solver had evaluations before the abort.
    assert set(agents.state.record.events.rows("dispatch", "solver")) == {
        (sc.label,) for sc in CFG.solvers}


def test_model_exception_on_first_call_is_a_sentinel_evaluation():
    agents, solvers = hen_system(failing_model(ValueError("bad point"), 1))
    archive, errors = run(agents, solvers)
    assert not errors
    assert agents.state.record.messages >= CFG.budget.limit  # ran to budget
    first = next(agents.state.record.events.rows("improvement", "seq", "z",
                                                  "g"))
    assert first == (1, [math.inf], math.inf)
    assert not archive.best.failed


def test_cancelled_run_leaves_no_task_pending():
    agents, solvers = hen_system()

    async def go():
        task = asyncio.ensure_future(run_agents(agents, solvers))
        for _ in range(100_000):
            if agents.state.record.messages >= 500:
                break
            await asyncio.sleep(0)
        assert not task.done()
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await asyncio.wait_for(task, 30)
        return asyncio.all_tasks() - {asyncio.current_task()}

    assert asyncio.run(go()) == set()
    assert 500 <= agents.state.record.messages < CFG.budget.limit


def test_aborted_run_is_flagged_and_written(tmp_path, monkeypatch):
    def broken_update(archive, evaluation):
        if evaluation.seq == 30:
            raise KeyError("archive lost")
        return update(archive, evaluation)

    update = coopt.analysis.update_archive
    monkeypatch.setattr(coopt.analysis, "update_archive", broken_update)
    report = bounded(lambda: run_once(CFG, 0), "aborted run")
    assert not report.valid
    assert report.error.startswith("KeyError: ")
    assert report.archive is None and report.best_value() is None
    assert 0 < report.counters["messages"] < CFG.budget.limit
    assert report.trace and all(row["seq"] < 30 for row in report.trace)

    run_dir = write_run_dir(tmp_path / "aborted", report)
    summary = json.loads((run_dir / "report.json").read_text())
    assert (summary["valid"], summary["error"]) == (False, report.error)
    assert summary["archive"] == [] and summary["best"] is None
    assert (run_dir / "events.log").read_text().count("\n") \
        == len(report.events)
    assert len((run_dir / "trace.csv").read_text().splitlines()) \
        == 1 + len(report.trace)
    assert (run_dir / "archive.csv").read_text().strip() \
        == "z1,g,solver_id,seq"


@pytest.mark.parametrize("fault", [None, ModelDied("dead")],
                         ids=["healthy", "aborted"])
def test_no_exception_is_left_unretrieved(caplog, fault):
    problem = SPHERE3 if fault is None else failing_model(fault, 50)
    agents, solvers = hen_system(problem)
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        archive, errors = run(agents, solvers)
        del agents, solvers
        gc.collect()
    assert (archive is None) == bool(errors) == (fault is not None)
    assert not [r.getMessage() for r in caplog.records
                if r.name == "asyncio"]


def test_one_dimensional_hen_run_reaches_its_budget():
    """hen-protocol builds GA(np) with np = 1 on a 1-D problem.

    A GA generation that evaluated no child would never give the loop
    control back, and the run would spin forever.
    """
    cfg = preset_config("hen-protocol", "sphere-1")
    assert cfg.solvers[0].size_param == 1
    report = bounded(lambda: run_once(cfg, 0), "1-D hen run")
    assert report.valid
    assert report.counters["messages"] >= cfg.budget.limit
    assert report.per_solver_evaluations["ga-small"] > 1


def test_stalled_run_is_flagged_in_both_modes(tmp_path, caplog):
    """SD and CS alone park on their share rings and stop asking.

    Nothing is left to run before the budget, in either mode: the run ends
    flagged, written, and listed under ``failures``, and cancelling its
    tasks leaves nothing for asyncio to log.  Its ``events.log`` still ends
    with the evaluator records and balanced mailbox ledgers.
    """
    budget = Budget.messages(100_000)
    cfg = RunConfig(problem="sphere-3", budget=budget,
                    solvers=(SolverConfig("SD", instance_label="sd"),
                             SolverConfig("CS", instance_label="cs")),
                    population_size=2, repetitions=1,
                    output_dir=str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        summary = bounded(lambda: run_experiment(cfg), "stalled run")
        gc.collect()
    assert not [r.getMessage() for r in caplog.records
                if r.name == "asyncio"]
    assert [f.split(":")[0] for f in summary["failures"]] \
        == ["independent-rep00", "cooperating-rep00"]
    assert summary["median_best"] == {"independent": None,
                                      "cooperating": None}
    for mode in ("independent", "cooperating"):
        run_dir = tmp_path / f"{mode}-rep00"
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "archive.csv", "events.log", "report.json", "trace.csv"]
        report = json.loads((run_dir / "report.json").read_text())
        assert not report["valid"] and report["archive"] == []
        stalled_at = re.fullmatch(
            r"Stalled: the run stalled at message (\d+): .*", report["error"])
        messages = report["counters"]["messages"]
        assert stalled_at and int(stalled_at[1]) == messages
        assert 0 < messages < budget.limit
        assert report["trace"]
        records = [json.loads(line) for line in
                   (run_dir / "events.log").read_text().splitlines()]
        kinds = [r["event"] for r in records]
        assert kinds[-6:] == ["evaluator"] * 2 + ["mailbox"] * 4
        assert kinds.count("evaluator") == 2 and kinds.count("mailbox") == 4
        assert not run_faults(report, records)


SOLVERS = st.lists(st.tuples(st.sampled_from(sorted(SOLVER_KINDS)),
                             st.integers(1, 6), st.integers(1, P_MAX),
                             st.floats(0.0, 1.0)),
                   min_size=1, max_size=4)


@st.composite
def small_configs(draw):
    """Any roster of 1-4 solvers on a small problem and budget."""
    solvers = tuple(SolverConfig(kind, size, priority, weight,
                                 instance_label=f"{kind.lower()}-{i}")
                    for i, (kind, size, priority, weight)
                    in enumerate(draw(SOLVERS)))
    return RunConfig(
        problem=draw(st.sampled_from([
            "sphere-3", "constrained-sphere-3", "mixed-int-quadratic-4",
            "biobj-quadratic-2", "false-readings-analogue",
            "mixed-int-quadratic-1", "rosenbrock-2", "biobj-quadratic-1"])),
        budget=Budget(draw(st.sampled_from(["messages", "evaluations"])),
                      draw(st.integers(0, 2000))),
        solvers=solvers, population_size=draw(st.integers(1, 4)),
        n_evaluators=draw(st.integers(1, 3)), sharing=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)), repetitions=1)


def written(report, run_dir: Path) -> list[bytes]:
    write_run_dir(run_dir, report)
    return [(run_dir / name).read_bytes()
            for name in ("trace.csv", "archive.csv", "events.log")]


@settings(deadline=None, max_examples=120)
@given(small_configs(), st.integers(0, 3))
def test_every_small_config_ends_and_replays(cfg, rep_index):
    """Valid at its exact budget, or flagged as stalled; never a hang.

    Either way the run keeps ``run_faults``'s invariants, and a second
    run of the same config and repetition writes the same bytes.
    """
    report = bounded(lambda: run_once(cfg, rep_index), "fuzzed run")
    limit = cfg.budget.limit
    counters = report.counters
    if not report.valid:
        assert report.error.startswith(
            "Stalled: the run stalled at message"), report.error
    elif cfg.budget.kind == "evaluations":
        assert counters["dispatches"] == limit
    else:
        assert counters["messages"] >= limit

    assert report.events.count("mailbox") == 2 + len(cfg.solvers)
    assert not run_faults(report_summary(report), report.events)
    with tempfile.TemporaryDirectory() as tmp:
        again = bounded(lambda: run_once(cfg, rep_index), "replayed run")
        assert written(again, Path(tmp, "again")) \
            == written(report, Path(tmp, "first"))


def test_an_improvement_filed_during_shutdown_reaches_the_trace():
    """This run's last improvement meets the scheduler's closed inbox, so
    the analysis agent records it.  Were it dropped, archive.csv would
    hold it while trace.csv and events.log ended at 0.3359063025059008."""
    cfg = preset_config("hen-protocol", "sphere-3",
                        budget=Budget.messages(200), n_evaluators=2, seed=0,
                        sharing=True)
    report = bounded(lambda: run_once(cfg, 0), "pinned run")
    assert report.valid
    best = report.archive.best
    assert best.objectives == (0.27358348863223586,)
    last = report.trace[-1]
    assert (last["seq"], last["z"]) == (best.seq, [0.27358348863223586])
    improvements = [e for e in report.events if e["event"] == "improvement"]
    assert improvements[-1]["seq"] == best.seq
    assert report.counters["improvements"] == len(report.trace)
