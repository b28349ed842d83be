"""The real wiring of a run, driven by scripted solvers.

``coopt.harness.wire`` builds the scheduler, evaluators and analysis agent
on their mailboxes exactly as ``run_once`` does, and ``run_agents`` runs
them to budget.  Scripted solvers mimic the proxy protocol: put
EVALUATEPOINT with a fresh reply future, wait on the reply.  Solver agents
never stop on their own (only the scheduler terminates a run), so after a
finite script the solver keeps the message flow alive with a non-improving
tail point.
"""

import asyncio

import numpy as np

from coopt.core import Problem, freeze_point, uniform_box
from coopt.harness import run_agents, wire
from coopt.messaging import MailboxClosed, Message, MessageKind
from coopt.problems import registry_get
from coopt.scheduler import Budget, EvaluationRequest, scheduler_loop


SPHERE3 = registry_get("sphere-3")


async def _ask(solver_id, point, scheduler_inbox, priority):
    reply = asyncio.get_running_loop().create_future()
    request = EvaluationRequest(freeze_point(np.asarray(point, dtype=float)),
                                reply, solver_id, priority)
    await scheduler_inbox.put(
        Message(MessageKind.EVALUATEPOINT, solver_id, request))
    return await reply


async def scripted_solver(solver_id, points, scheduler_inbox, results,
                          tail_point=None, priority=1):
    """Evaluate each point in order, then idle-loop on tail_point if given.

    A request in flight at shutdown ends it by ``MailboxClosed``, which
    ``run_agents`` judges a normal end.
    """
    for p in points:
        results.append(await _ask(solver_id, p, scheduler_inbox, priority))
    while tail_point is not None:
        await _ask(solver_id, tail_point, scheduler_inbox, priority)


async def endless_solver(solver_id, scheduler_inbox, results, seed,
                         priority=1):
    rng = np.random.default_rng(seed)
    while True:
        point = rng.uniform(-5, 5, size=3)
        results.append(await _ask(solver_id, point, scheduler_inbox,
                                  priority))


def run(agents, solvers):
    """Run wired agents to budget; a run that hangs fails the test."""
    archive, errors = asyncio.run(
        asyncio.wait_for(run_agents(agents, solvers), timeout=30))
    assert not errors
    return archive


def test_small_run_completes_and_reports_best():
    results = []
    agents = wire(SPHERE3, ["s1"], 2, Budget.messages(200))
    state = agents.state
    record = state.record
    points = [[i, 0, 0] for i in range(10, 0, -1)]
    archive = run(agents, [scripted_solver("s1", points, state.inbox, results,
                                           tail_point=[10, 0, 0])])
    assert [e.objectives[0] for e in results] == [
        float(i * i) for i in range(10, 0, -1)]
    assert archive.best.objectives == (1.0,)
    assert record.dispatches >= 10
    for s in record.evaluators.values():
        assert s["replies_delivered"] == s["evaluations"] \
            == s["analysis_sent"]
        assert s["requests"] - s["evaluations"] in (0, 1)
    events = record.events
    assert sum(1 for e in events if e["event"] == "dispatch") \
        == record.dispatches
    assert [mb.capacity for mb in record.mailboxes] == [8, 6, 4]
    assert [e["event"] for e in events[-5:]] == ["evaluator"] * 2 + [
        "mailbox"] * 3


def test_each_point_evaluated_exactly_once():
    results = []
    agents = wire(SPHERE3, ["s1"], 4, Budget.messages(1200))
    points = [[i, i, i] for i in range(100)]
    run(agents, [scripted_solver("s1", points, agents.state.inbox, results,
                                 tail_point=[0, 0, 0])])
    assert len(results) == 100
    assert sorted(e.objectives[0] for e in results) == [
        3.0 * i * i for i in range(100)]
    assert len({e.seq for e in results}) == 100


def test_message_budget_zero_returns_empty_archive():
    agents = wire(SPHERE3, ["s1"], 2, Budget.messages(0))
    archive = run(agents, [endless_solver("s1", agents.state.inbox, [],
                                          seed=1)])
    assert archive.best is None
    assert agents.state.record.dispatches == 0


def test_evaluation_budget_is_exact():
    agents = wire(SPHERE3, ["a", "b", "c"], 2, Budget.evaluations(7))
    run(agents, [endless_solver(sid, agents.state.inbox, [], seed=i)
                 for i, sid in enumerate(("a", "b", "c"))])
    events = agents.state.record.events
    assert agents.state.record.dispatches == 7
    assert sum(1 for e in events if e["event"] == "dispatch") == 7
    terminated = [e for e in events if e["event"] == "terminated"]
    assert terminated and terminated[0]["dispatches"] == 7


def test_sharing_broadcasts_to_all_share_mailboxes():
    results = []
    agents = wire(SPHERE3, ["s1", "s2"], 1, Budget.messages(120),
                  sharing=True)
    state = agents.state
    points = [[5, 0, 0], [4, 0, 0], [3, 0, 0]]
    run(agents, [
        scripted_solver("s1", points, state.inbox, results,
                        tail_point=[5, 0, 0]),
        scripted_solver("s2", [], state.inbox, results),
    ])
    shared = {}
    for sid, mb in state.share_mailboxes.items():
        got = []
        while (m := mb.take_nowait()) is not None:
            got.append(m)
        shared[sid] = got
    # Three strictly improving evaluations -> three broadcast waves to the
    # two solvers; s2 idles so its ring (capacity 4) kept all three.
    assert len(agents.state.record.improvements) == 3
    assert [m.content.objectives[0] for m in shared["s2"]] == [25.0, 16.0, 9.0]
    assert all(m.kind is MessageKind.SHAREBEST for m in shared["s2"])


def test_independent_mode_sends_no_sharebest():
    results = []
    agents = wire(SPHERE3, ["s1"], 1, Budget.messages(120), sharing=False)
    state = agents.state
    record = state.record
    points = [[5, 0, 0], [4, 0, 0], [3, 0, 0]]
    run(agents, [scripted_solver("s1", points, state.inbox, results,
                                 tail_point=[5, 0, 0])])
    assert record.broadcasts == 0
    assert all(len(mb) == 0 for mb in state.share_mailboxes.values())
    assert not [e for e in record.events if e["event"] == "broadcast"]
    # Improvements are still recorded so both modes leave the same trace shape.
    assert len(record.improvements) == 3


def test_teardown_unblocks_waiting_solvers_and_evaluators():
    # ``run`` fails on a timeout if any task is still blocked after teardown.
    agents = wire(SPHERE3, ["s1", "s2"], 3, Budget.messages(40))
    archive = run(agents, [endless_solver(sid, agents.state.inbox, [],
                                          seed=10 + i)
                           for i, sid in enumerate(("s1", "s2"))])
    assert archive.best is not None


def test_multi_objective_pipeline_builds_front():
    def two_obj(point, _params):
        return (float(point[0] ** 2), float((point[0] - 1.0) ** 2)), -1.0

    problem = Problem("biobj-1", uniform_box(-2.0, 2.0, 1), 2, two_obj)
    agents = wire(problem, ["s1"], 2, Budget.messages(300))
    points = [[t / 10.0] for t in range(-5, 16)]
    archive = run(agents, [scripted_solver("s1", points, agents.state.inbox,
                                           [], tail_point=[-2.0])])
    assert len(archive.front) == 11  # exactly the points with 0 <= d <= 1
    for e in archive.front:
        assert 0.0 <= e.point[0] <= 1.0


def test_cancelled_solvers_do_not_crash_evaluator_or_scheduler():
    solver_tasks = {}

    def cancelling_sphere(point, params):
        # Runs inside the evaluator on the one dispatched point (a's).  By
        # then b's request is queued; cancel both solvers, so a's reply and
        # b's refusal both meet a cancelled future.
        for task in solver_tasks.values():
            task.cancel()
        return SPHERE3.model(point, params)

    problem = Problem("sphere-3", uniform_box(-5.0, 5.0, 3), 1,
                      cancelling_sphere)
    agents = wire(problem, ["a", "b"], 1, Budget.evaluations(1))
    state = agents.state

    async def go():
        # Solvers first: both requests are queued before the evaluator
        # announces itself, so one is dispatched and the other refused.
        for sid in ("a", "b"):
            solver_tasks[sid] = asyncio.ensure_future(
                scripted_solver(sid, [[1.0, 2.0, 3.0]], state.inbox, []))
        tasks = [asyncio.ensure_future(c) for c in agents.coroutines]
        await asyncio.wait_for(scheduler_loop(state), timeout=10)
        outcomes = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=5)
        solvers = await asyncio.gather(*solver_tasks.values(),
                                       return_exceptions=True)
        return outcomes, solvers

    outcomes, solvers = asyncio.run(go())
    record = state.record
    stats = record.evaluators["eval-0"]
    # Each agent ended its normal way: the shutdown's MailboxClosed.
    assert all(isinstance(o, MailboxClosed) for o in outcomes)
    assert all(isinstance(o, asyncio.CancelledError) for o in solvers)
    assert (record.dispatches, record.refusals) == (1, 1)
    assert (stats["evaluations"], stats["replies_delivered"]) == (1, 0)
    assert stats["analysis_sent"] == 1
