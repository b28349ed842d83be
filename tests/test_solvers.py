"""Solver operators against stub objectives and hand oracles."""

import asyncio
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt.core import Domain, Evaluation, VarKind, freeze_point, uniform_box
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind
from coopt.solvers import (
    INFEASIBILITY_PENALTY,
    SOLVER_KINDS,
    SolverConfig,
    SwarmMember,
    assign_fitness,
    cs_step,
    descend,
    ds_objective,
    finite_difference_gradient,
    ga_step,
    line_search,
    ppa_step,
    proxy_objective,
    pso_start,
    pso_step,
    scalarize,
    sd_step,
    solver_loop,
    _mutation_noise,
    _runner_offset,
    _tournament,
)
from oracles import (
    domain_contains,
    golden_section_minimum,
    mutation_noise_reference,
    rosenbrock_gradient,
    runner_offset_reference,
    sphere_gradient,
    tournament_reference,
)

BOX5 = uniform_box(-5.0, 5.0, 2)


def run(coro):
    return asyncio.run(coro)


def ev(point, z, g=-1.0, seq=-1):
    point = freeze_point(np.asarray(point, dtype=float))
    z = (z,) if np.isscalar(z) else tuple(z)
    return Evaluation(point, z, g, "t", seq)


def make_evaluate(model, domain):
    """Synchronous stand-in for the proxy: evaluates the model directly."""
    calls = []

    async def evaluate(point):
        point = freeze_point(np.asarray(point, dtype=float))
        calls.append(point)
        z, g = model(point)
        return Evaluation(point, (float(z),), float(g), "stub", len(calls))

    return evaluate, calls


def make_obj(f):
    trace = []

    async def obj(point):
        value = float(f(np.asarray(point, dtype=float)))
        trace.append((np.array(point), value))
        return value

    return obj, trace


def sphere_model(point):
    return float(np.sum(point**2)), -1.0


# -------------------------------------------------------------- config

def test_solver_config_validation():
    assert SolverConfig("GA", 10).solver_class == "MH"
    assert SolverConfig("CS").solver_class == "DS"
    with pytest.raises(ValueError):
        SolverConfig("NELDERMEAD")
    with pytest.raises(ValueError):
        SolverConfig("GA", size_param=0)
    with pytest.raises(ValueError):
        SolverConfig("SD", weight=1.5)
    for priority in (0, 11):
        with pytest.raises(ValueError, match="^priority"):
            SolverConfig("GA", priority=priority)


# --------------------------------------------------------------- proxy

def test_proxy_routes_point_and_returns_result():
    async def go():
        inbox = Mailbox(4, name="scheduler")

        async def fake_scheduler():
            message = await inbox.take()
            request = message.content
            request.reply.set_result(
                ev(request.point, float(np.sum(request.point))))

        task = asyncio.ensure_future(fake_scheduler())
        evaluation = await proxy_objective(np.array([1.0, 2.0]), "s", inbox)
        await task
        return evaluation

    assert run(go()).objectives == (3.0,)


def test_concurrent_proxies_get_their_own_results():
    async def go():
        inbox = Mailbox(8, name="scheduler")

        async def fake_scheduler():
            for _ in range(2):
                message = await inbox.take()
                request = message.content
                request.reply.set_result(
                    ev(request.point, float(np.sum(request.point)),
                       seq=int(request.point[0])))

        task = asyncio.ensure_future(fake_scheduler())
        a, b = await asyncio.gather(
            proxy_objective(np.array([1.0, 0.0]), "s1", inbox),
            proxy_objective(np.array([2.0, 0.0]), "s2", inbox))
        await task
        return a, b

    a, b = run(go())
    assert a.objectives == (1.0,)
    assert b.objectives == (2.0,)


def test_proxy_after_shutdown_raises_terminate():
    async def go():
        inbox = Mailbox(4, name="scheduler")
        inbox.close()
        with pytest.raises(MailboxClosed):
            await proxy_objective(np.array([0.0, 0.0]), "s", inbox)

    run(go())


def test_refused_request_raises_terminate():
    async def go():
        inbox = Mailbox(4, name="scheduler")

        async def refusing_scheduler():
            request = (await inbox.take()).content
            request.reply.set_exception(MailboxClosed(request.solver_id))

        task = asyncio.ensure_future(refusing_scheduler())
        with pytest.raises(MailboxClosed):
            await asyncio.wait_for(
                proxy_objective(np.array([0.0, 0.0]), "s", inbox), timeout=5)
        await task

    run(go())


# ------------------------------------------------------------- fitness

def test_fitness_rank_map_example():
    members = [ev([0, 0], 1.0), ev([0, 0], 2.0), ev([0, 0], 3.0)]
    assert assign_fitness(members) == pytest.approx([0.75, 0.5, 0.25])


def test_fitness_feasibility_first():
    feasible = ev([0, 0], 10.0, g=-1.0)
    infeasible = ev([0, 0], 0.0, g=1.0)
    fitness = assign_fitness([infeasible, feasible])
    assert fitness[1] > fitness[0]


def test_fitness_infeasible_ranked_by_constraint():
    fitness = assign_fitness([ev([0, 0], 0.0, g=5.0), ev([0, 0], 0.0, g=2.0)])
    assert fitness[1] > fitness[0]


def test_fitness_empty_population_raises():
    with pytest.raises(ValueError):
        assign_fitness([])


def test_fitness_is_permutation_consistent():
    rng = np.random.default_rng(3)
    members = [ev([0, 0], float(z)) for z in rng.uniform(0, 9, 12)]
    fitness = assign_fitness(members)
    perm = rng.permutation(12)
    permuted = assign_fitness([members[i] for i in perm])
    assert permuted == pytest.approx(fitness[perm])


def test_fitness_multi_objective_layers():
    front = [ev([0, 0], (1.0, 3.0)), ev([0, 0], (3.0, 1.0))]
    dominated = [ev([0, 0], (4.0, 4.0)), ev([0, 0], (9.0, 9.0))]
    fitness = assign_fitness(front + dominated)
    assert min(fitness[:2]) > max(fitness[2:])
    assert fitness[2] > fitness[3]  # (4,4) dominates (9,9): earlier layer


# ------------------------------------------------------------------ GA

def test_ga_elitism_keeps_best_member():
    evaluate, _ = make_evaluate(sphere_model, BOX5)
    optimum = ev([0.0, 0.0], 0.0)
    members = [optimum] + [ev([3.0, 3.0], 18.0)] * 5
    cfg = SolverConfig("GA", size_param=6)

    async def go():
        return await ga_step(members, cfg, BOX5,
                             np.random.default_rng(1), evaluate, [])

    out = run(go())
    assert out[0].objectives == (0.0,)
    assert len(out) == 6


def test_ga_output_size_fixed_despite_injections():
    evaluate, _ = make_evaluate(sphere_model, BOX5)
    members = [ev([1.0, 1.0], 2.0)] * 4
    injected = [ev([0.5, 0.5], 0.5), ev([0.2, 0.2], 0.08)]
    cfg = SolverConfig("GA", size_param=4)

    async def go():
        return await ga_step(members, cfg, BOX5,
                             np.random.default_rng(2), evaluate, injected)

    out = run(go())
    assert len(out) == cfg.size_param
    # the injected better solution wins the elite slot
    assert out[0].objectives == (0.08,)


def test_ga_of_size_one_evaluates_a_child_and_keeps_the_better():
    """A generation that evaluated nothing would never give the loop back."""
    elite = ev([1.0, 1.0], 2.0)
    kept = set()
    for seed in range(20):
        evaluate, calls = make_evaluate(sphere_model, BOX5)
        out = run(ga_step([elite], SolverConfig("GA", size_param=1),
                          BOX5, np.random.default_rng(seed), evaluate, []))
        child_z = sphere_model(calls[0])[0]
        assert len(calls) == 1 and len(out) == 1
        if child_z < 2.0:
            assert out[0].seq == 1  # the child
        else:
            assert out[0] is elite
        kept.add(out[0] is elite)
    assert kept == {True, False}


def test_ga_step_is_deterministic_for_fixed_seed():
    members = [ev([x, -x], 2 * x * x) for x in (1.0, 2.0, 3.0, 4.0)]
    cfg = SolverConfig("GA", size_param=4)

    async def go():
        evaluate, _ = make_evaluate(sphere_model, BOX5)
        return await ga_step(members, cfg, BOX5,
                             np.random.default_rng(7), evaluate, [])

    first = run(go())
    second = run(go())
    for a, b in zip(first, second):
        assert np.array_equal(a.point, b.point)
        assert a.objectives == b.objectives


def test_ga_children_respect_bounds_and_integer_dims():
    domain = Domain(np.array([-5.0, 0.0]), np.array([5.0, 10.0]),
                    (VarKind.REAL, VarKind.INTEGER))
    evaluate, calls = make_evaluate(sphere_model, domain)
    members = [ev([4.9, 9.0], 105.01), ev([-4.9, 1.0], 25.01)]
    cfg = SolverConfig("GA", size_param=8)

    async def go():
        return await ga_step(members, cfg, domain,
                             np.random.default_rng(5), evaluate, [])

    run(go())
    for p in calls:
        assert domain_contains(domain, p)
        assert p[1] == round(p[1])


# ------------------------------------------------------- exact RNG draws
# The operators draw through cheaper numpy calls than they were first
# written with; the old calls are the oracle.  Each step runs both forms
# from the same state and must give the same bytes and leave the bit
# generator in the same state, PCG64's spare 32-bit half included, so
# every later draw matches too.

SCALE = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]),
                  st.floats(1e-300, 1e300))
# numpy's normal and uniform refuse a -0.0 scale; see the test after this.
RNG_STEP = st.one_of(
    st.tuples(st.sampled_from(["noise", "runner"]),
              st.lists(SCALE, min_size=1, max_size=12)),
    st.tuples(st.just("tournament"), st.integers(1, 200)))


def _tournament_picks(tournament, n, rng):
    """A tournament over range(n) under three fitness orders, from one state.

    Equal fitness picks the first draw, ascending the larger and descending
    the smaller; the three picks fix both draws.
    """
    state = rng.bit_generator.state
    picks = []
    for fitness in ([0.0] * n, list(range(n)), list(range(n, 0, -1))):
        rng.bit_generator.state = state
        picks.append(tournament(range(n), fitness, rng))
    return np.array(picks)


def _rng_step(step, rng, reference):
    kind, arg = step
    if kind == "tournament":
        return _tournament_picks(
            tournament_reference if reference else _tournament, arg, rng)
    scale = np.array(arg)
    if kind == "noise":
        return (mutation_noise_reference(scale, rng) if reference
                else _mutation_noise(scale, rng))
    low = -scale
    if reference:
        return runner_offset_reference(low, scale, rng)
    return _runner_offset(low, scale - low, rng)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**64 - 1), st.lists(RNG_STEP, min_size=1, max_size=6))
def test_operator_draws_match_the_numpy_calls_they_replace(seed, steps):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for step in steps:
        got, expected = _rng_step(step, new, False), _rng_step(step, old, True)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("kind", ["noise", "runner"])
def test_a_negative_zero_scale_draws_as_positive_zero(kind):
    # A flat dimension bounded by +0.0 below and -0.0 above has range -0.0.
    # There numpy's normal raises "scale < 0" and uniform "high - low < 0";
    # the rewrites draw what numpy draws at +0.0.
    flat = Domain(np.array([0.0, -1.0]), np.array([-0.0, 1.0]))
    assert np.signbit(flat.ranges[0])
    with pytest.raises(ValueError):
        _rng_step((kind, flat.ranges.tolist()), np.random.default_rng(0), True)
    new, old = np.random.default_rng(4), np.random.default_rng(4)
    got = _rng_step((kind, [-0.0] * 5), new, False)
    assert got.tobytes() == _rng_step((kind, [0.0] * 5), old, True).tobytes()
    assert got.tobytes() == np.zeros(5).tobytes()
    assert new.bit_generator.state == old.bit_generator.state


# ----------------------------------------------------------------- PPA

def test_ppa_fit_member_sends_five_short_runners():
    evaluate, calls = make_evaluate(sphere_model, BOX5)
    # one clearly best member in a pool of 9 -> fitness 9/10 = 0.9
    members = [ev([0.1, 0.1], 0.02)] + \
        [ev([4.0, 4.0], 32.0 + i) for i in range(8)]
    cfg = SolverConfig("PPA", size_param=1)

    async def go():
        return await ppa_step(members, cfg, BOX5,
                              np.random.default_rng(3), evaluate, [])

    out = run(go())
    assert len(calls) == math.ceil(0.9 * 5)  # 5 runners from the top member
    reach = (1.0 - 0.9) * 10.0
    for p in calls:
        assert np.all(np.abs(p - np.array([0.1, 0.1])) <= reach + 1e-12)
    assert len(out) == 2 * cfg.size_param


def test_ppa_unfit_member_sends_one_long_runner():
    # two members: the worse has fitness 1/3; ceil(5/3) = 2 runners... so use
    # a pool where the weakest has fitness just under 0.2: N=9, rank 9 -> 0.1.
    evaluate, calls = make_evaluate(sphere_model, BOX5)
    members = [ev([float(i), 0.0], float(i * i)) for i in range(9)]
    cfg = SolverConfig("PPA", size_param=9)

    async def go():
        return await ppa_step(members, cfg, BOX5,
                              np.random.default_rng(4), evaluate, [])

    run(go())
    # runner counts per member: ceil(f*5) with f = (9-rank+1)/10
    expected = sum(math.ceil(((9 - r + 1) / 10.0) * 5) for r in range(1, 10))
    assert len(calls) == expected
    assert math.ceil((1 / 10.0) * 5) == 1  # the weakest sends exactly one


def test_ppa_injected_best_is_propagated():
    evaluate, calls = make_evaluate(sphere_model, BOX5)
    members = [ev([4.0, 4.0], 32.0), ev([3.0, 3.0], 18.0)]
    injected = [ev([0.0, 0.1], 0.01)]
    cfg = SolverConfig("PPA", size_param=1)

    async def go():
        return await ppa_step(members, cfg, BOX5,
                              np.random.default_rng(6), evaluate, injected)

    run(go())
    # top member is the injected one; all runners grow from its position
    for p in calls:
        assert np.all(np.abs(p - np.array([0.0, 0.1])) <= (1 - 0.75) * 10 + 1e-12)


# ----------------------------------------------------------------- PSO

def test_pso_swarm_at_best_with_zero_velocity_is_stationary():
    evaluate, _ = make_evaluate(sphere_model, BOX5)
    home = ev([1.0, -1.0], 2.0)
    swarm = [SwarmMember(np.array(home.point), np.zeros(2), home, home)
             for _ in range(4)]
    cfg = SolverConfig("PSO", size_param=4)

    async def go():
        return await pso_step(swarm, cfg, BOX5,
                              np.random.default_rng(8), evaluate, [])

    out = run(go())
    for member in out:
        assert np.array_equal(member.position, home.point)
        assert np.all(member.velocity == 0.0)


def test_pso_injected_solution_becomes_global_best():
    evaluate, _ = make_evaluate(sphere_model, BOX5)
    swarm = [SwarmMember(np.array([4.0, 4.0]), np.zeros(2),
                         ev([4.0, 4.0], 32.0), ev([4.0, 4.0], 32.0))
             for _ in range(3)]
    shared = ev([0.5, 0.5], 0.5)
    cfg = SolverConfig("PSO", size_param=3)

    async def go():
        return await pso_step(swarm, cfg, BOX5,
                              np.random.default_rng(9), evaluate, [shared])

    out = run(go())
    assert len(out) == 3
    bests = [m.personal_best.objectives[0] for m in out]
    assert min(bests) <= 0.5  # injected point survived as a member/pbest
    # every non-injected member moved toward the shared position
    moved = [m for m in out if not np.array_equal(m.position, [0.5, 0.5])]
    for m in moved:
        assert np.linalg.norm(m.position - np.array([0.5, 0.5])) \
            < np.linalg.norm(np.array([4.0, 4.0]) - np.array([0.5, 0.5]))


def test_pso_swarm_size_invariant():
    evaluate, _ = make_evaluate(sphere_model, BOX5)
    rng = np.random.default_rng(10)
    swarm = [SwarmMember(p := rng.uniform(-5, 5, 2), np.zeros(2),
                         e := ev(p, float(np.sum(p**2))), e)
             for _ in range(7)]
    cfg = SolverConfig("PSO", size_param=7)

    async def go():
        s = swarm
        for _ in range(3):
            s = await pso_step(s, cfg, BOX5, rng, evaluate,
                               [ev([0.0, 0.0], 0.0)])
        return s

    assert len(run(go())) == 7


def test_pso_start_truncates_to_the_fittest_in_rank_order():
    evaluate, calls = make_evaluate(sphere_model, BOX5)
    zs = [5.0, 1.0, 4.0, 0.5, 3.0, 2.0]
    members = [ev([z, 0.0], z) for z in zs]
    cfg = SolverConfig("PSO", size_param=3)

    swarm = run(pso_start(members, cfg, BOX5, np.random.default_rng(0),
                          evaluate))
    assert [m.evaluation.objectives[0] for m in swarm] == [0.5, 1.0, 2.0]
    assert not calls
    for m in swarm:
        assert m.personal_best is m.evaluation
        assert np.array_equal(m.position, m.evaluation.point)
        assert not m.velocity.any()


def test_pso_start_tops_up_with_evaluated_random_points():
    evaluate, calls = make_evaluate(sphere_model, BOX5)
    members = [ev([4.0, 4.0], 32.0), ev([1.0, 1.0], 2.0)]
    cfg = SolverConfig("PSO", size_param=5)

    swarm = run(pso_start(list(members), cfg, BOX5,
                          np.random.default_rng(3), evaluate))
    rng = np.random.default_rng(3)
    expected = [BOX5.random_point(rng) for _ in range(3)]
    assert all(m.evaluation is e for m, e in zip(swarm, members))
    assert len(calls) == 3
    for m, point, called in zip(swarm[2:], expected, calls):
        assert np.array_equal(called, point)
        assert np.array_equal(m.position, point)
        assert m.evaluation.objectives == (float(np.sum(point**2)),)


# ----------------------------------------------------------- scalarize

def test_scalarize_examples():
    assert scalarize((2.0, 4.0), 0.5) == pytest.approx(3.0)
    assert scalarize((7.0, 99.0), 1.0) == pytest.approx(7.0)
    assert scalarize((10.0, 5.0), 0.2) == pytest.approx(6.0)


def test_scalarize_rejects_wrong_arity():
    with pytest.raises(ValueError):
        scalarize((1.0,), 0.5)
    with pytest.raises(ValueError):
        scalarize((1.0, 2.0, 3.0), 0.5)


def test_scalarize_argmin_invariant_to_common_rescaling():
    rng = np.random.default_rng(11)
    zs = [tuple(rng.uniform(0, 10, 2)) for _ in range(50)]
    for weight in (0.2, 0.4, 0.6, 0.8):
        base = min(range(50), key=lambda i: scalarize(zs[i], weight))
        scaled = min(range(50),
                     key=lambda i: scalarize(tuple(3.7 * v for v in zs[i]),
                                             weight))
        assert base == scaled


def test_ds_objective_penalizes_infeasibility():
    feasible = ev([0, 0], 5.0, g=-1.0)
    infeasible = ev([0, 0], 0.0, g=0.5)
    assert ds_objective(feasible, 0.5) == pytest.approx(5.0)
    assert ds_objective(infeasible, 0.5) \
        == pytest.approx(INFEASIBILITY_PENALTY * 0.5)
    assert ds_objective(infeasible, 0.5) > scalarize((0.0, 0.0), 0.5)


# ------------------------------------------------------------ gradient

def test_gradient_of_square_at_one():
    obj, _ = make_obj(lambda d: d[0] ** 2)
    grad = run(finite_difference_gradient(obj, np.array([1.0]),
                                          uniform_box(-10, 10, 1)))
    assert grad[0] == pytest.approx(2.0, abs=1e-5)


def test_gradient_of_linear_function():
    obj, _ = make_obj(lambda d: d[0] + 2.0 * d[1])
    grad = run(finite_difference_gradient(obj, np.array([0.3, -0.7]), BOX5))
    assert grad == pytest.approx([1.0, 2.0], abs=1e-6)


def test_gradient_at_rosenbrock_minimum_is_zero():
    obj, _ = make_obj(
        lambda d: 100.0 * (d[1] - d[0] ** 2) ** 2 + (1.0 - d[0]) ** 2)
    grad = run(finite_difference_gradient(obj, np.array([1.0, 1.0]), BOX5))
    assert grad == pytest.approx([0.0, 0.0], abs=1e-4)


def test_gradient_matches_analytic_at_random_points():
    rng = np.random.default_rng(12)
    box = uniform_box(-2.0, 2.0, 4)
    sphere_obj, _ = make_obj(lambda d: float(np.sum(d**2)))
    rosen_obj, _ = make_obj(lambda d: float(
        np.sum(100.0 * (d[1:] - d[:-1] ** 2) ** 2 + (1.0 - d[:-1]) ** 2)))
    for _ in range(5):
        d = rng.uniform(-1.5, 1.5, 4)
        got = run(finite_difference_gradient(sphere_obj, d, box))
        want = sphere_gradient(d)
        assert np.linalg.norm(got - want) <= 1e-4 * max(np.linalg.norm(want), 1.0)
        got = run(finite_difference_gradient(rosen_obj, d, box))
        want = rosenbrock_gradient(d)
        assert np.linalg.norm(got - want) <= 1e-4 * max(np.linalg.norm(want), 1.0)


def test_gradient_integer_dims_are_zero():
    domain = Domain(np.array([-5.0, 0.0]), np.array([5.0, 10.0]),
                    (VarKind.REAL, VarKind.INTEGER))
    obj, _ = make_obj(lambda d: float(np.sum(d**2)))
    grad = run(finite_difference_gradient(obj, np.array([1.0, 4.0]), domain))
    assert grad[0] == pytest.approx(2.0, abs=1e-5)
    assert grad[1] == 0.0


def test_gradient_clipped_stencil_at_boundary():
    box = uniform_box(0.0, 1.0, 1)
    obj, _ = make_obj(lambda d: 3.0 * d[0])
    grad = run(finite_difference_gradient(obj, np.array([0.0]), box))
    assert grad[0] == pytest.approx(3.0, abs=1e-5)  # one-sided fallback


# ---------------------------------------------------------- line search

def test_line_search_descends_on_convex_objective():
    box = uniform_box(-10.0, 10.0, 1)
    obj, _ = make_obj(lambda d: d[0] ** 2)
    point, value = run(line_search(obj, np.array([4.0]),
                                   np.array([-1.0]), box, f0=16.0))
    assert value < 16.0


def test_line_search_uphill_returns_input():
    box = uniform_box(-10.0, 10.0, 1)
    obj, _ = make_obj(lambda d: d[0])
    start = np.array([0.0])
    point, value = run(line_search(obj, start, np.array([1.0]), box, f0=0.0))
    assert np.array_equal(point, start)
    assert value == 0.0


def test_line_search_matches_golden_section_oracle():
    # minimum along the ray x = 4 - alpha sits on the doubling grid
    box = uniform_box(-10.0, 10.0, 1)
    obj, _ = make_obj(lambda d: d[0] ** 2)
    point, value = run(line_search(obj, np.array([4.0]),
                                   np.array([-1.0]), box, f0=16.0))
    _, oracle_value = golden_section_minimum(lambda a: (4.0 - a) ** 2,
                                             0.0, 14.0)
    assert abs(value - oracle_value) < 1e-2


# ------------------------------------------------------------ DS runs

def closed_share(preload=()):
    mb = Mailbox(4, name="share")
    for e in preload:
        mb.put_drop_oldest(Message(MessageKind.SHAREBEST, "scheduler", e))
    mb.close()
    return mb


def test_sd_converges_on_convex_quadratic():
    target = np.array([1.5, -2.0])
    obj, trace = make_obj(lambda d: float(np.sum((d - target) ** 2)))

    async def go():
        with pytest.raises(MailboxClosed):
            await descend([np.array([4.0, 4.0])], BOX5, obj,
                          closed_share(), sd_step)

    run(go())
    best = min(trace, key=lambda t: t[1])
    assert np.linalg.norm(best[0] - target) < 1e-4


def test_sd_takes_shared_start_first():
    obj, trace = make_obj(lambda d: float(np.sum(d**2)))
    shared_point = np.array([2.5, 2.5])

    async def go():
        share = closed_share(preload=[ev(shared_point, 12.5)])
        with pytest.raises(MailboxClosed):
            await descend([np.array([-4.0, -4.0])], BOX5, obj,
                          share, sd_step)

    run(go())
    assert np.array_equal(trace[0][0], shared_point)


def test_sd_descent_from_optimum_stops_immediately():
    obj, trace = make_obj(lambda d: float(np.sum(d**2)))
    optimum = np.array([0.0, 0.0])
    far = np.array([4.0, 0.0])

    async def go():
        # LIFO: the optimum was pushed last, so it is attempted first.
        with pytest.raises(MailboxClosed):
            await descend([far, optimum], BOX5, obj, closed_share(), sd_step)

    run(go())
    # descent 1: initial value + one (zero) gradient stencil = 1 + 2*2 calls,
    # after which the far start begins
    assert np.array_equal(trace[0][0], optimum)
    assert np.array_equal(trace[5][0], far)


def test_cs_solves_separable_quadratic():
    target = np.array([2.0, -1.0])
    obj, trace = make_obj(lambda d: float(np.sum((d - target) ** 2)))

    async def go():
        with pytest.raises(MailboxClosed):
            await descend([np.array([-3.0, 3.0])], BOX5, obj,
                          closed_share(), cs_step)

    run(go())
    best = min(trace, key=lambda t: t[1])
    assert np.linalg.norm(best[0] - target) < 1e-4


def test_cs_at_optimum_does_not_move():
    obj, trace = make_obj(lambda d: float(np.sum(d**2)))

    async def go():
        with pytest.raises(MailboxClosed):
            await descend([np.array([0.0, 0.0])], BOX5, obj,
                          closed_share(), cs_step)

    run(go())
    best = min(trace, key=lambda t: t[1])
    assert best[1] == 0.0


def test_cs_improves_on_coupled_ridge():
    obj, trace = make_obj(
        lambda d: (d[0] - d[1]) ** 2 + 0.01 * d[0] ** 2)

    async def go():
        with pytest.raises(MailboxClosed):
            await descend([np.array([1.0, 1.0])], BOX5, obj,
                          closed_share(), cs_step)

    run(go())
    start_value = (1.0 - 1.0) ** 2 + 0.01
    assert min(t[1] for t in trace) < start_value


def test_cs_integer_dimension_searches_integer_steps():
    domain = Domain(np.array([-5.0, 0.0]), np.array([5.0, 10.0]),
                    (VarKind.REAL, VarKind.INTEGER))
    obj, trace = make_obj(lambda d: (d[0] - 0.5) ** 2 + (d[1] - 7.0) ** 2)

    async def go():
        with pytest.raises(MailboxClosed):
            await descend([np.array([0.0, 2.0])], domain, obj,
                          closed_share(), cs_step)

    run(go())
    best = min(trace, key=lambda t: t[1])
    assert best[0][1] == 7.0
    assert abs(best[0][0] - 0.5) < 1e-4
    for p, _ in trace:
        assert p[1] == round(p[1])


# ------------------------------------------------- solver loop in system

@pytest.mark.parametrize("kind", list(SOLVER_KINDS))
def test_solver_loops_run_against_real_scheduler(kind):
    """Each kind runs beside an SD instance, with sharing on, to the end."""
    from coopt.harness import run_agents, wire
    from coopt.problems import registry_get
    from coopt.scheduler import Budget

    problem = registry_get("sphere-3")
    rng = np.random.default_rng(0)
    initial = [problem.domain.random_point(rng) for _ in range(6)]
    agents = wire(problem, ["x", "sd"], 2, Budget.messages(800),
                  sharing=True)
    inbox, share_mbs = agents.state.inbox, agents.state.share_mailboxes
    record = agents.state.record
    archive, errors = asyncio.run(asyncio.wait_for(run_agents(agents, [
        solver_loop(SolverConfig(kind, size_param=6, instance_label="x"), 1,
                    problem.domain, initial, inbox, share_mbs["x"], record),
        solver_loop(SolverConfig("SD", instance_label="sd"), 2,
                    problem.domain, initial, inbox, share_mbs["sd"], record),
    ]), timeout=30))
    assert not errors
    assert record.solver_dispatches["x"] > 0
    initial_best = min(float(np.sum(p**2)) for p in initial)
    assert archive.best is not None
    assert archive.best.objectives[0] < initial_best
