"""Acceptance gate: the eleven checks the package must pass end to end.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to
see them on success) and asserts the same condition, so the suite both
reports and enforces.  Budgeted checks use fixed seeds; tolerance and
success-count thresholds are stated inline.
"""

import time
from dataclasses import replace

import numpy as np

from coopt.analysis import MULTI, Archive, update_archive
from coopt.core import Evaluation, uniform_box
from coopt.harness import preset_config, run_experiment, run_once
from coopt.metrics import generational_distance, hypervolume
from coopt.problems import front_samples, registry_get
from coopt.scheduler import P_MAX, EvaluationRequest, PriorityQueues
from coopt.solvers import finite_difference_gradient
from oracles import (
    brute_force_front_2d,
    level_of,
    monte_carlo_hypervolume,
    rosenbrock_gradient,
    run_faults,
    sphere_gradient,
)

SEED = 20260825


def check(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number:2d}/11: {detail}")
    assert ok, f"acceptance {number}/11 failed: {detail}"


def request(tag, priority=1):
    return EvaluationRequest((0.0,), None, tag, priority)


# 1 ----------------------------------------------------------------------

def test_archive_equals_brute_force_filter():
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    zs = rng.uniform(0.0, 1.0, size=(10_000, 2))
    evals = [Evaluation(point=(float(i),), objectives=(float(a), float(b)),
                        constraint=-1.0, solver_id="r", seq=i)
             for i, (a, b) in enumerate(zs)]
    archive = Archive(MULTI)
    for e in evals:
        update_archive(archive, e)
    expected = {e.seq for e, keep in zip(evals, brute_force_front_2d(zs))
                if keep}
    elapsed = time.perf_counter() - started
    got = {e.seq for e in archive.front}
    check(1, got == expected and elapsed < 5.0,
          f"archive of 10k evaluations == brute-force front "
          f"({len(got)} members, {elapsed:.2f}s < 5s)")


# 2 ----------------------------------------------------------------------

def test_no_request_starves_under_mixed_priorities():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    queues = PriorityQueues()
    pending = [request(f"s{i % 6}-{i}", priority=1 + i % 10)
               for i in range(1_000)]
    dispatched = []
    supply = iter(pending)
    exhausted = False
    while not exhausted or len(queues):
        if not exhausted:  # interleave arrivals with 2-evaluator service
            for _ in range(int(rng.integers(1, 5))):
                nxt = next(supply, None)
                if nxt is None:
                    exhausted = True
                    break
                queues.enqueue(nxt)
        for _ in range(2):
            if len(queues):
                dispatched.append(queues.next_request())
    all_served = {r.solver_id for r in dispatched} \
        == {r.solver_id for r in pending}

    probe = PriorityQueues()
    low = request("low", priority=1)
    probe.enqueue(low)
    promotions = 0
    while level_of(probe, low) < P_MAX:
        probe.promote()
        promotions += 1
    elapsed = time.perf_counter() - started
    check(2, all_served and promotions == 9 and elapsed < 1.0,
          f"all 1000 mixed-priority requests dispatched; level-1 head "
          f"reached level {P_MAX} in {promotions} promotions "
          f"({elapsed:.2f}s < 1s)")


# 3 ----------------------------------------------------------------------

def test_uniform_priorities_behave_as_fifo():
    rng = np.random.default_rng(SEED)
    queues = PriorityQueues()
    fifo = []
    order, oracle_order = [], []
    serial = 0
    for _ in range(2_000):
        if rng.random() < 0.55 or not fifo:
            r = request(f"r{serial}")
            serial += 1
            queues.enqueue(r)
            fifo.append(r)
        else:
            order.append(queues.next_request().solver_id)
            oracle_order.append(fifo.pop(0).solver_id)
    while len(queues):
        order.append(queues.next_request().solver_id)
        oracle_order.append(fifo.pop(0).solver_id)
    check(3, order == oracle_order,
          f"dispatch order of {len(order)} uniform-priority requests "
          f"matches the FIFO oracle exactly")


# 4 ----------------------------------------------------------------------

def test_hypervolume_against_monte_carlo_and_worked_examples():
    exact_unit = hypervolume([(0.0, 0.0)], (1.0, 1.0))
    exact_pair = hypervolume([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0))
    gd_identity = generational_distance([(0.0, 1.0), (1.0, 0.0)],
                                        [(0.0, 1.0), (1.0, 0.0)])
    examples_ok = (abs(exact_unit - 1.0) <= 1e-12
                   and abs(exact_pair - 0.75) <= 1e-12
                   and abs(gd_identity) <= 1e-12)

    rng = np.random.default_rng(SEED)
    within = 0
    for _ in range(100):
        n = int(rng.integers(1, 15))
        z1 = np.sort(rng.uniform(0.0, 1.0, n))
        z2 = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        pts = np.stack([z1, z2], axis=1)
        exact = hypervolume(pts, (1.0, 1.0))
        estimate, stderr = monte_carlo_hypervolume(pts, (1.0, 1.0), rng,
                                                   samples=40_000)
        within += abs(exact - estimate) <= 3.0 * max(stderr, 1e-9)
    check(4, examples_ok and within == 100,
          f"worked examples exact to 1e-12; {within}/100 random staircases "
          f"within 3 sigma of Monte-Carlo estimate")


# 5 ----------------------------------------------------------------------

def test_finite_difference_matches_analytic_gradients():
    import asyncio

    async def go():
        rng = np.random.default_rng(SEED)
        worst = 0.0
        cases = [
            (registry_get("sphere-6"), 4.0, sphere_gradient),
            (registry_get("rosenbrock-6"), 1.6, rosenbrock_gradient),
        ]
        for problem, radius, exact_gradient in cases:
            async def obj(point, _p=problem):
                z, _g = _p.model(np.asarray(point), _p.parameters)
                return float(z)

            for _ in range(20):
                point = rng.uniform(-radius, radius, size=6)
                fd = await finite_difference_gradient(
                    obj, point, problem.domain)
                exact = exact_gradient(point)
                rel = np.max(np.abs(fd - exact)
                             / np.maximum(1.0, np.abs(exact)))
                worst = max(worst, float(rel))
        return worst

    worst = asyncio.run(go())
    check(5, worst < 1e-4,
          f"finite-difference gradient within rel. {worst:.2e} (< 1e-4) of "
          f"analytic on sphere and rosenbrock at 20 interior points each")


# 6 ----------------------------------------------------------------------

def test_budgeted_runs_reach_known_optima():
    started = time.perf_counter()
    sphere_cfg = preset_config("hen-protocol", "sphere-10", seed=SEED)
    sphere_hits = sum(
        run_once(sphere_cfg, rep).best_value() <= 1e-3 for rep in range(10))

    constrained_cfg = preset_config("hen-protocol", "constrained-sphere-10",
                                    seed=SEED)
    constrained_hits = 0
    for rep in range(10):
        best = run_once(constrained_cfg, rep).archive.best
        constrained_hits += (best is not None and best.feasible
                             and abs(best.objectives[0] - 0.1) <= 1e-2)
    elapsed = time.perf_counter() - started
    check(6, sphere_hits >= 9 and constrained_hits >= 8 and elapsed < 120.0,
          f"sphere-10 best <= 1e-3 in {sphere_hits}/10 runs (need 9); "
          f"constrained-sphere-10 within 1e-2 of 0.1 in "
          f"{constrained_hits}/10 (need 8); {elapsed:.0f}s < 120s")


# 7 ----------------------------------------------------------------------

def test_sharing_lets_direct_search_contribute():
    cfg = preset_config("hen-protocol", "ridge-basin-10", seed=SEED)
    ds_runs = 0
    coop_best, independent_best = [], []
    for rep in range(10):
        coop = run_once(replace(cfg, sharing=True), rep)
        independent = run_once(replace(cfg, sharing=False), rep)
        coop_best.append(coop.best_value())
        independent_best.append(independent.best_value())
        if any(row["class"] == "DS" for row in coop.trace):
            ds_runs += 1
    coop_median = float(np.median(coop_best))
    independent_median = float(np.median(independent_best))
    check(7, ds_runs >= 8 and coop_median <= independent_median,
          f"direct-search improvements in {ds_runs}/10 cooperating runs "
          f"(need 8); median best cooperating {coop_median:.9f} <= "
          f"independent {independent_median:.9f}")


# 8 ----------------------------------------------------------------------

def test_evaluation_budget_is_exact_for_the_evaluation_protocol():
    cfg = preset_config("mutas-protocol", "biobj-quadratic-5", seed=SEED)
    report = run_once(cfg, 0)
    dispatched = report.counters["dispatches"]
    evaluated = sum(e["evaluations"] for e in report.events
                    if e.get("event") == "evaluator")
    check(8, dispatched == 1_000 and evaluated == 1_000,
          f"evaluation-budgeted run dispatched exactly {dispatched} "
          f"evaluations (+/- 0 of 1000); evaluators performed {evaluated}")


# 9 ----------------------------------------------------------------------

def test_deterministic_replay_is_byte_identical(tmp_path):
    cfg = preset_config("mutas-protocol", "biobj-quadratic-5", seed=SEED,
                        n_evaluators=3, repetitions=1)
    traces = []
    for attempt in range(2):
        out = tmp_path / f"attempt-{attempt}"
        run_experiment(replace(cfg, output_dir=str(out)))
        traces.append({
            mode: (out / f"{mode}-rep00" / "trace.csv").read_bytes()
            for mode in ("independent", "cooperating")
        })
    identical = traces[0] == traces[1]
    sizes = {m: len(b) for m, b in traces[0].items()}
    check(9, identical,
          f"two runs with the same seed and 3 evaluators wrote "
          f"byte-identical trace.csv per mode (sizes {sizes})")


# 10 ---------------------------------------------------------------------

def test_event_log_satisfies_message_conservation(tmp_path):
    import json

    cfg = preset_config("mutas-protocol", "biobj-quadratic-5", seed=SEED,
                        repetitions=1,
                        output_dir=str(tmp_path / "conservation"))
    run_experiment(cfg)
    checked, faults = 0, []
    for mode in ("independent", "cooperating"):
        run_dir = tmp_path / "conservation" / f"{mode}-rep00"
        records = [json.loads(line) for line in
                   (run_dir / "events.log").read_text().splitlines()]
        checked += sum(r["event"] == "mailbox" for r in records)
        faults += run_faults(
            json.loads((run_dir / "report.json").read_text()), records)
    check(10, not faults and checked >= 2,
          f"no message loss across {checked} mailboxes; one analysis "
          f"notification per objective value in both modes; faults: "
          f"{faults}")


# 11 ---------------------------------------------------------------------

def test_multi_objective_runs_recover_the_front():
    cfg = preset_config("mutas-protocol", "biobj-quadratic-5", seed=SEED)
    front = front_samples("biobj-quadratic-5", 1_000)
    good = 0
    worst_gd = 0.0
    for rep in range(10):
        report = run_once(cfg, rep)
        points = [e.objectives for e in report.archive.front]
        gd = generational_distance(points, front)
        worst_gd = max(worst_gd, gd)
        good += (len(points) >= 5 and gd < 0.05)
    check(11, good >= 8,
          f"{good}/10 runs produced >= 5 non-dominated points with "
          f"generational distance < 0.05 (worst {worst_gd:.4f})")
