"""Scheduler + evaluators + analysis wired together with scripted solvers.

Scripted solvers mimic the proxy protocol: put EVALUATEPOINT with a fresh
reply future, wait on the reply.  Solver agents never stop on their own
(only the scheduler terminates a run), so after a finite script the solver
keeps the message flow alive with a non-improving tail point.
"""

import asyncio
import itertools

import numpy as np

from coopt.analysis import MULTI, SINGLE, Archive, analysis_loop
from coopt.core import Problem, freeze_point, uniform_box
from coopt.evaluator import EvaluatorStats, evaluator_loop
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind
from coopt.scheduler import Budget, EvaluationRequest, SchedulerState, scheduler_loop


def sphere(point, _params):
    return float(np.sum(point**2)), -1.0


SPHERE3 = Problem("sphere-3", uniform_box(-5.0, 5.0, 3), 1, sphere)


async def _ask(solver_id, point, scheduler_inbox, priority):
    reply = asyncio.get_running_loop().create_future()
    request = EvaluationRequest(freeze_point(np.asarray(point, dtype=float)),
                                reply, solver_id, priority)
    await scheduler_inbox.put(
        Message(MessageKind.EVALUATEPOINT, solver_id, request))
    return await reply


async def scripted_solver(solver_id, points, scheduler_inbox, results,
                          tail_point=None, priority=1):
    """Evaluate each point in order, then idle-loop on tail_point if given."""
    try:
        for p in points:
            results.append(await _ask(solver_id, p, scheduler_inbox, priority))
        while tail_point is not None:
            await _ask(solver_id, tail_point, scheduler_inbox, priority)
    except MailboxClosed:
        return


async def endless_solver(solver_id, scheduler_inbox, results, seed,
                         priority=1):
    rng = np.random.default_rng(seed)
    try:
        while True:
            point = rng.uniform(-5, 5, size=3)
            results.append(await _ask(solver_id, point, scheduler_inbox,
                                      priority))
    except MailboxClosed:
        return


def wire(solver_ids, n_evaluators, budget, sharing=False, events=None,
         problem=SPHERE3, mode=SINGLE):
    """Create mailboxes and agent tasks exactly as a run would."""
    scheduler_inbox = Mailbox(
        2 * (len(solver_ids) + n_evaluators + 1), name="scheduler")
    analysis_inbox = Mailbox(2 * (n_evaluators + 1), name="analysis")
    evaluator_mbs = {f"eval-{i}": Mailbox(2, name=f"eval-{i}")
                     for i in range(n_evaluators)}
    share_mbs = {sid: Mailbox(4, name=f"share:{sid}") for sid in solver_ids}
    state = SchedulerState(
        inbox=scheduler_inbox,
        evaluator_mailboxes=evaluator_mbs,
        share_mailboxes=share_mbs,
        analysis_inbox=analysis_inbox,
        budget=budget,
        sharing=sharing,
        events=events,
    )
    seq = itertools.count(1)
    stats = {eid: EvaluatorStats(eid) for eid in evaluator_mbs}
    agent_tasks = [
        analysis_loop(analysis_inbox, scheduler_inbox, Archive(mode)),
    ] + [
        evaluator_loop(eid, problem, scheduler_inbox, analysis_inbox,
                       mb, seq, stats[eid])
        for eid, mb in evaluator_mbs.items()
    ]
    return state, agent_tasks, share_mbs, stats


def test_small_run_completes_and_reports_best():
    events = []

    async def go():
        results = []
        state, agents, _, stats = wire(["s1"], 2, Budget.messages(200),
                                       events=events.append)
        points = [[i, 0, 0] for i in range(10, 0, -1)]
        tasks = [asyncio.ensure_future(t) for t in agents]
        tasks.append(asyncio.ensure_future(
            scripted_solver("s1", points, state.inbox, results,
                            tail_point=[10, 0, 0])))
        archive = await scheduler_loop(state)
        await asyncio.gather(*tasks)
        return archive, results, state, stats

    archive, results, state, stats = asyncio.run(go())
    assert [e.objectives[0] for e in results] == [
        float(i * i) for i in range(10, 0, -1)]
    assert archive.best.objectives == (1.0,)
    assert state.dispatches >= 10
    for s in stats.values():
        assert s.replies_delivered == s.evaluations == s.analysis_sent
        assert s.requests - s.evaluations in (0, 1)
    assert sum(1 for e in events if e["event"] == "dispatch") \
        == state.dispatches


def test_each_point_evaluated_exactly_once():
    async def go():
        results = []
        state, agents, _, _ = wire(["s1"], 4, Budget.messages(1200))
        points = [[i, i, i] for i in range(100)]
        tasks = [asyncio.ensure_future(t) for t in agents]
        tasks.append(asyncio.ensure_future(
            scripted_solver("s1", points, state.inbox, results,
                            tail_point=[0, 0, 0])))
        await scheduler_loop(state)
        await asyncio.gather(*tasks)
        return results

    results = asyncio.run(go())
    assert len(results) == 100
    assert sorted(e.objectives[0] for e in results) == [
        3.0 * i * i for i in range(100)]
    assert len({e.seq for e in results}) == 100


def test_message_budget_zero_returns_empty_archive():
    async def go():
        state, agents, _, _ = wire(["s1"], 2, Budget.messages(0))
        tasks = [asyncio.ensure_future(t) for t in agents]
        tasks.append(asyncio.ensure_future(
            endless_solver("s1", state.inbox, [], seed=1)))
        archive = await scheduler_loop(state)
        await asyncio.gather(*tasks)
        return archive, state

    archive, state = asyncio.run(go())
    assert archive.best is None
    assert state.dispatches == 0


def test_evaluation_budget_is_exact():
    events = []

    async def go():
        state, agents, _, _ = wire(["a", "b", "c"], 2,
                                   Budget.evaluations(7),
                                   events=events.append)
        tasks = [asyncio.ensure_future(t) for t in agents]
        for i, sid in enumerate(("a", "b", "c")):
            tasks.append(asyncio.ensure_future(
                endless_solver(sid, state.inbox, [], seed=i)))
        archive = await scheduler_loop(state)
        await asyncio.gather(*tasks)
        return archive, state

    _, state = asyncio.run(go())
    assert state.dispatches == 7
    assert sum(1 for e in events if e["event"] == "dispatch") == 7
    terminated = [e for e in events if e["event"] == "terminated"]
    assert terminated and terminated[0]["dispatches"] == 7


def test_sharing_broadcasts_to_all_share_mailboxes():
    async def go():
        results = []
        state, agents, share_mbs, _ = wire(
            ["s1", "s2"], 1, Budget.messages(120), sharing=True)
        points = [[5, 0, 0], [4, 0, 0], [3, 0, 0]]
        tasks = [asyncio.ensure_future(t) for t in agents]
        tasks.append(asyncio.ensure_future(
            scripted_solver("s1", points, state.inbox, results,
                            tail_point=[5, 0, 0])))
        tasks.append(asyncio.ensure_future(
            scripted_solver("s2", [], state.inbox, results)))
        await scheduler_loop(state)
        await asyncio.gather(*tasks)
        shared = {}
        for sid, mb in share_mbs.items():
            got = []
            while (m := mb.take_nowait()) is not None:
                got.append(m)
            shared[sid] = got
        return shared, state

    shared, state = asyncio.run(go())
    # Three strictly improving evaluations -> three broadcast waves to the
    # two solvers; s2 idles so its ring (capacity 4) kept all three.
    assert state.improvements == 3
    assert [m.content.objectives[0] for m in shared["s2"]] == [25.0, 16.0, 9.0]
    assert all(m.kind is MessageKind.SHAREBEST for m in shared["s2"])


def test_independent_mode_sends_no_sharebest():
    events = []

    async def go():
        results = []
        state, agents, share_mbs, _ = wire(
            ["s1"], 1, Budget.messages(120), sharing=False,
            events=events.append)
        points = [[5, 0, 0], [4, 0, 0], [3, 0, 0]]
        tasks = [asyncio.ensure_future(t) for t in agents]
        tasks.append(asyncio.ensure_future(
            scripted_solver("s1", points, state.inbox, results,
                            tail_point=[5, 0, 0])))
        await scheduler_loop(state)
        await asyncio.gather(*tasks)
        return share_mbs, state

    share_mbs, state = asyncio.run(go())
    assert state.broadcasts == 0
    assert all(len(mb) == 0 for mb in share_mbs.values())
    assert not [e for e in events if e["event"] == "broadcast"]
    # Improvements are still recorded so both modes leave the same trace shape.
    assert state.improvements == 3


def test_teardown_unblocks_waiting_solvers_and_evaluators():
    async def go():
        state, agents, _, stats = wire(["s1", "s2"], 3, Budget.messages(40))
        tasks = [asyncio.ensure_future(t) for t in agents]
        for i, sid in enumerate(("s1", "s2")):
            tasks.append(asyncio.ensure_future(
                endless_solver(sid, state.inbox, [], seed=10 + i)))
        archive = await scheduler_loop(state)
        done, pending = await asyncio.wait(tasks, timeout=5)
        return archive, pending, stats

    archive, pending, stats = asyncio.run(go())
    assert not pending
    assert archive.best is not None


def test_multi_objective_pipeline_builds_front():
    def two_obj(point, _params):
        return (float(point[0] ** 2), float((point[0] - 1.0) ** 2)), -1.0

    problem = Problem("biobj-1", uniform_box(-2.0, 2.0, 1), 2, two_obj)

    async def go():
        results = []
        state, agents, _, _ = wire(["s1"], 2, Budget.messages(300),
                                   problem=problem, mode=MULTI)
        points = [[t / 10.0] for t in range(-5, 16)]
        tasks = [asyncio.ensure_future(t) for t in agents]
        tasks.append(asyncio.ensure_future(
            scripted_solver("s1", points, state.inbox, results,
                            tail_point=[-2.0])))
        archive = await scheduler_loop(state)
        await asyncio.gather(*tasks)
        return archive

    archive = asyncio.run(go())
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
        return sphere(point, params)

    problem = Problem("sphere-3", uniform_box(-5.0, 5.0, 3), 1,
                      cancelling_sphere)

    async def go():
        state, agents, _, stats = wire(["a", "b"], 1, Budget.evaluations(1),
                                       problem=problem)
        # Solvers first: both requests are queued before the evaluator
        # announces itself, so one is dispatched and the other refused.
        for sid in ("a", "b"):
            solver_tasks[sid] = asyncio.ensure_future(
                scripted_solver(sid, [[1.0, 2.0, 3.0]], state.inbox, []))
        tasks = [asyncio.ensure_future(t) for t in agents]
        await asyncio.wait_for(scheduler_loop(state), timeout=10)
        outcomes = await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=5)
        solvers = await asyncio.gather(*solver_tasks.values(),
                                       return_exceptions=True)
        return state, outcomes, solvers, stats["eval-0"]

    state, outcomes, solvers, stats = asyncio.run(go())
    assert not [o for o in outcomes if isinstance(o, BaseException)]
    assert all(isinstance(o, asyncio.CancelledError) for o in solvers)
    assert (state.dispatches, state.refusals) == (1, 1)
    assert (stats.evaluations, stats.replies_delivered) == (1, 0)
    assert stats.analysis_sent == 1
