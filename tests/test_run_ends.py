"""Every way a run ends: normally, or aborted by one agent's failure.

``run_agents`` is the one judge of how an agent ends.  A task that
returns, a task other than the scheduler that ends by ``MailboxClosed``,
and a cancelled task end normally; the first task to end any other way
cancels every task, so the run ends with no archive and the exception in
its errors list.  Each run below is the hen-protocol roster on sphere-3
at 2000 scheduler messages, bounded to 30 s by ``asyncio.wait_for`` (or a
thread join, for ``run_once``): a run that hangs fails its test by timeout
instead of stalling the suite.
"""

import asyncio
import gc
import json
import logging
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import coopt.analysis
from coopt.harness import (preset_config, run_agents, run_once, wire,
                           write_run_dir)
from coopt.problems import registry_get
from coopt.scheduler import Budget, ignore_event
from coopt.solvers import SOLVER_KINDS, solver_loop

CFG = preset_config("hen-protocol", "sphere-3", budget=Budget.messages(2000))
SPHERE3 = registry_get("sphere-3")


class ModelDied(BaseException):
    """Escapes ``evaluate_model``, which maps only ``Exception``s."""


def hen_system(problem=SPHERE3, events=None):
    """The wired agents and solver coroutines of one hen run, as run_once.

    ``events``, if given, is a list that collects the run's event records.
    """
    initial_points = problem.domain.random_population(
        np.random.default_rng(7), CFG.population_size)
    labels = [sc.label for sc in CFG.solvers]
    agents = wire(problem, labels, CFG.n_evaluators, CFG.budget, True,
                  ignore_event if events is None else events.append)
    state = agents.state
    solvers = [solver_loop(replace(sc, seed=i), problem.domain,
                           initial_points, state.inbox,
                           state.share_mailboxes[sc.label])
               for i, sc in enumerate(CFG.solvers)]
    return agents, solvers


def run(agents, solvers):
    """``run_agents`` to its end; a run still going after 30 s fails."""
    return asyncio.run(
        asyncio.wait_for(run_agents(agents, solvers), timeout=30))


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
    assert agents.state.msg_count < CFG.budget.limit


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
    assert sum(s.evaluations for s in agents.stats.values()) == 49


def test_one_solver_raising_aborts_the_run(monkeypatch):
    raising_steps(monkeypatch, ["CS"])
    events = []
    agents, solvers = hen_system(events=events)
    archive, errors = run(agents, solvers)
    assert_aborted(agents, archive, errors, RuntimeError)
    assert len(errors) == 1
    # The others ran: every solver had evaluations before the abort.
    assert set(agents.state.dispatches_per_solver) == {
        sc.label for sc in CFG.solvers}


def test_model_exception_on_first_call_is_a_sentinel_evaluation():
    events = []
    agents, solvers = hen_system(
        failing_model(ValueError("bad point"), 1), events)
    archive, errors = run(agents, solvers)
    assert not errors
    assert agents.state.msg_count >= CFG.budget.limit  # ran to budget
    improvements = [e for e in events if e["event"] == "improvement"]
    assert (improvements[0]["seq"], improvements[0]["z"]) == (1, [math.inf])
    assert improvements[0]["g"] == math.inf
    assert not archive.best.failed


def test_cancelled_run_leaves_no_task_pending():
    agents, solvers = hen_system()

    async def go():
        task = asyncio.ensure_future(run_agents(agents, solvers))
        for _ in range(100_000):
            if agents.state.msg_count >= 500:
                break
            await asyncio.sleep(0)
        assert not task.done()
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await asyncio.wait_for(task, 30)
        return asyncio.all_tasks() - {asyncio.current_task()}

    assert asyncio.run(go()) == set()
    assert 500 <= agents.state.msg_count < CFG.budget.limit


def test_aborted_run_is_flagged_and_written(tmp_path, monkeypatch):
    def broken_update(archive, evaluation):
        if evaluation.seq == 30:
            raise KeyError("archive lost")
        return update(archive, evaluation)

    update = coopt.analysis.update_archive
    monkeypatch.setattr(coopt.analysis, "update_archive", broken_update)
    # run_once runs its own event loop; a thread bounds it instead.
    reports = []
    thread = threading.Thread(target=lambda: reports.append(run_once(CFG, 0)),
                              daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive(), "the aborted run hangs"
    report, = reports
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
