"""Independent reference implementations used only by the test suite.

These are deliberately written in the dumbest correct way (quadratic scans,
Monte-Carlo estimates, hand formulas) so agreement with the library is
evidence rather than tautology.
"""

import csv
import io
import json
import math

import numpy as np

from coopt.core import INFEASIBLE_SENTINEL, Evaluation, dominates, freeze_point
from coopt.metrics import MEASURES
from coopt.scheduler import P_MAX, EventLog


def objective_key(evaluation):
    """Hashable identity of an evaluation in objective space."""
    return (evaluation.objectives, evaluation.constraint)


def level(queues, priority):
    """Requests queued at one priority level of a PriorityQueues, head first."""
    return tuple(queues._levels[priority])


def level_of(queues, request):
    """The priority level a queued request currently sits at."""
    for p in range(P_MAX, 0, -1):
        if request in queues._levels[p]:
            return p
    raise LookupError("request not queued")


class PriorityQueuesReference:
    """``PriorityQueues`` as first written: lists per level, the length
    summed over them, and the full promotion sweep after every dispatch."""

    def __init__(self):
        self.levels = [[] for _ in range(P_MAX + 1)]

    def __len__(self):
        return sum(map(len, self.levels))

    def enqueue(self, request):
        self.levels[request.priority_at_enqueue].append(request)

    def next_request(self):
        for p in range(P_MAX, 0, -1):
            if self.levels[p]:
                request = self.levels[p].pop(0)
                for q in range(P_MAX - 1, 0, -1):
                    if self.levels[q]:
                        self.levels[q + 1].append(self.levels[q].pop(0))
                return request
        return None

    def drain(self):
        drained = [r for p in range(P_MAX + 1) for r in self.levels[p]]
        self.levels = [[] for _ in range(P_MAX + 1)]
        return drained


def clip_reference(domain, values):
    """``Domain.clip`` as first written: ``np.clip``, then integer rounding."""
    out = np.clip(np.asarray(values, dtype=float), domain.lower, domain.upper)
    mask = domain.integer_mask
    if mask.any():
        out[mask] = np.round(out[mask])
    return out


def domain_contains(domain, values):
    """Whether ``values`` lies in the box, integer dimensions on the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != domain.lower.shape:
        return False
    if np.any(values < domain.lower) or np.any(values > domain.upper):
        return False
    mask = domain.integer_mask
    return not mask.any() or bool(np.all(values[mask] == np.round(values[mask])))


def brute_force_front(evaluations):
    """Quadratic non-dominated filter with first-arrival duplicate rule."""
    survivors = []
    for i, e in enumerate(evaluations):
        if any(dominates(other, e) for other in evaluations):
            continue
        if any(earlier.objectives == e.objectives
               and not dominates(e, earlier)
               for earlier in evaluations[:i]):
            continue
        survivors.append(e)
    return survivors


def peel_layers(members):
    """Non-dominated layers by repeated peeling, O(n^3).

    Each layer is the list of indices of the remaining members that no
    other remaining member dominates, in arrival order.
    """
    layers = []
    remaining = list(range(len(members)))
    while remaining:
        layer = [i for i in remaining
                 if not any(dominates(members[j], members[i])
                            for j in remaining if j != i)]
        layers.append(layer)
        remaining = [i for i in remaining if i not in layer]
    return layers


def brute_force_front_2d(objective_rows, chunk=2048):
    """Vectorized pairwise dominance filter for feasible 2-D streams.

    Returns the boolean survivor mask (first-arrival rule applied to exact
    duplicates).  Still O(n^2) comparisons, just chunked for memory and
    done column-wise to stay in flat 2-D boolean ops.
    """
    z = np.asarray(objective_rows, dtype=float)
    n = len(z)
    z1, z2 = z[:, 0], z[:, 1]
    dominated = np.zeros(n, dtype=bool)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        le = (z1[None, :] <= z1[rows, None]) & (z2[None, :] <= z2[rows, None])
        lt = (z1[None, :] < z1[rows, None]) | (z2[None, :] < z2[rows, None])
        dominated[rows] = (le & lt).any(axis=1)
    seen: set = set()
    survivors = np.zeros(n, dtype=bool)
    for i in range(n):
        if dominated[i]:
            continue
        key = (z[i, 0], z[i, 1])
        if key in seen:
            continue
        seen.add(key)
        survivors[i] = True
    return survivors


def monte_carlo_hypervolume(front, reference, rng, samples=200_000):
    """Hit-or-miss estimate of the dominated area inside [front, reference].

    Returns (estimate, standard_error) for the area of the region weakly
    dominated by the front within the box [0, ref] (minimization, 2-D).
    """
    front = np.asarray(front, dtype=float)
    ref = np.asarray(reference, dtype=float)
    pts = rng.uniform(low=[0.0, 0.0], high=ref, size=(samples, 2))
    hit = np.zeros(samples, dtype=bool)
    for z in front:
        hit |= (pts[:, 0] >= z[0]) & (pts[:, 1] >= z[1])
    p = hit.mean()
    box = float(ref[0] * ref[1])
    estimate = p * box
    stderr = box * float(np.sqrt(max(p * (1 - p), 1e-12) / samples))
    return estimate, stderr


def generational_distance_cube(points, front):
    """Generational distance from the full points x front x 2 difference cube.

    The formula ``metrics.generational_distance`` was first written with;
    its memory grows with len(points) * len(front).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    front = np.asarray(front, dtype=float).reshape(-1, 2)
    diffs = pts[:, None, :] - front[None, :, :]
    nearest = np.sqrt(np.sum(diffs**2, axis=2)).min(axis=1)
    return float(np.mean(nearest))


def staircase_loop(points):
    """``metrics._staircase`` as a loop: sorted by (z1, z2), keep a point
    when its z2 is below the last kept point's."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    stairs = []
    for p in points[order]:
        if not stairs or p[1] < stairs[-1][1]:
            stairs.append(p)
    return np.array(stairs)


def front_measures_each(points, reference=None, utopia=None, front=None):
    """``metrics.front_measures`` with every measure computed on its own,
    the hypervolume complement included."""
    if np.shape(points)[1:] != (2,):
        return {"non-dominated points": float(len(points))}
    inputs = {"reference": reference, "utopia": utopia, "front": front}
    return {name: measure(points) if needs is None
            else measure(points, inputs[needs])
            for name, (measure, needs) in MEASURES.items()
            if needs is None or inputs[needs] is not None}


def golden_section_minimum(f, lo, hi, tol=1e-10):
    """Scalar golden-section search for the minimum of f on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while abs(b - a) > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    x = 0.5 * (a + b)
    return x, f(x)


def sphere_gradient(point):
    return 2.0 * np.asarray(point, dtype=float)


def rosenbrock_gradient(point):
    d = np.asarray(point, dtype=float)
    grad = np.zeros_like(d)
    grad[:-1] = -400.0 * d[:-1] * (d[1:] - d[:-1] ** 2) - 2.0 * (1.0 - d[:-1])
    grad[1:] += 200.0 * (d[1:] - d[:-1] ** 2)
    return grad


def mutation_noise_reference(sigma, rng):
    """GA mutation noise as first written: ``Generator.normal``."""
    return rng.normal(0.0, sigma)


def runner_offset_reference(low, reach, rng):
    """A PPA runner's offset as first written: ``Generator.uniform``."""
    return rng.uniform(low, reach)


def tournament_reference(pool, fitness, rng):
    """``solvers._tournament`` as first written: one ``size=2`` draw."""
    i, j = rng.integers(0, len(pool), size=2).tolist()
    return pool[i] if fitness[i] >= fitness[j] else pool[j]


def evaluate_model_reference(problem, point, solver_id="", seq=-1):
    """``core.evaluate_model`` as first written: objectives in any form but
    a bare float go through ``np.atleast_1d`` and ``float`` one by one."""
    point = freeze_point(point)
    sentinel = Evaluation(point, (INFEASIBLE_SENTINEL,) * problem.n_obj,
                          INFEASIBLE_SENTINEL, solver_id, seq)
    try:
        raw_z, raw_g = problem.model(point, problem.parameters)
        if type(raw_z) is float:
            z = (raw_z,)
        else:
            z = tuple(float(v) for v in np.atleast_1d(raw_z))
        g = float(raw_g)
    except Exception:
        return sentinel
    if len(z) != problem.n_obj or not all(map(math.isfinite, z)) \
            or not math.isfinite(g):
        return sentinel
    return Evaluation(point, z, g, solver_id, seq)


def logged_events(entries):
    """An ``EventLog`` of ``entries`` (dispatch rows as tuples
    ``(evaluator, solver, messages)``, logged by ``dispatch``; other events
    as dicts, by ``append``) and the list of dicts ``_dispatch_idle`` once
    appended in its place."""
    log, expected, dispatches = EventLog(), [], 0
    for entry in entries:
        if isinstance(entry, tuple):
            log.dispatch(*entry)
            dispatches += 1
            evaluator, solver, messages = entry
            expected.append({"event": "dispatch", "evaluator": evaluator,
                             "solver": solver, "messages": messages,
                             "dispatches": dispatches})
        else:
            log.append(entry)
            expected.append(entry)
    return log, expected


def logged_rows(steps):
    """An ``EventLog`` of ``steps``, each a pair ``(method, args)`` that is
    called on it, and the dicts its events were logged as before the log
    kept rows as columns: ``append``'s dict as given, and each other
    event's as ``RunRecord`` built it, its ``g`` and ``z`` as floats."""
    log, expected, dispatches = EventLog(), [], 0
    for method, args in steps:
        getattr(log, method)(*args)
        if method == "append":
            expected.append(args[0])
        elif method == "dispatch":
            dispatches += 1
            evaluator, solver, messages = args
            expected.append({"event": "dispatch", "evaluator": evaluator,
                             "solver": solver, "messages": messages,
                             "dispatches": dispatches})
        elif method == "improvement":
            seq, solver, messages, dispatched, g, z = args
            expected.append({"event": "improvement", "seq": seq,
                             "solver": solver, "z": [float(v) for v in z],
                             "g": float(g), "messages": messages,
                             "dispatches": dispatched})
        elif method == "broadcast":
            seq, delivered = args
            expected.append({"event": "broadcast", "seq": seq,
                             "delivered": delivered})
        else:
            seq, solver, solver_class, z = args
            expected.append({"event": "solver-improvement", "solver": solver,
                             "class": solver_class, "seq": seq,
                             "z": [float(v) for v in z]})
    return log, expected


def report_summary(report):
    """A run's report.json as a dict, as ``write_run_dir`` first built it."""
    members = report.archive.members() if report.archive else []
    return {
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
        "trace": report.trace,
        "archive": [
            {"point": list(m.point), "objectives": list(m.objectives),
             "g": m.constraint, "solver_id": m.solver_id, "seq": m.seq}
            for m in members
        ],
    }


def run_dir_bytes(report):
    """The four files of a run directory, by name, as the first writer
    rendered them: ``json.dumps`` of ``report_summary`` and of each event,
    and ``csv.writer`` over ``repr(float(v))`` cells."""
    summary = report_summary(report)
    return {
        "report.json": (json.dumps(summary, sort_keys=True)
                        + "\n").encode("utf-8"),
        "events.log": "".join(json.dumps(event, sort_keys=True) + "\n"
                              for event in report.events).encode("utf-8"),
        **run_csv_bytes(summary),
    }


def run_csv_bytes(summary):
    """trace.csv and archive.csv of a ``report_summary``, by name."""
    def table(header, rows):
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue().encode("utf-8")

    def cell(value):
        return repr(float(value))

    trace, archive = summary["trace"], summary["archive"]
    n_obj = max((len(row["z"]) for row in trace), default=1)
    n_dim = len(archive[0]["point"]) if archive else 0
    n_obj_archive = len(archive[0]["objectives"]) if archive else 1
    return {
        "trace.csv": table(
            ["seq", "messages", "dispatches"]
            + [f"z{i + 1}" for i in range(n_obj)]
            + ["instance_label", "class"],
            [[row["seq"], row["messages"], row["dispatches"]]
             + [cell(z) for z in row["z"]]
             + [row["instance_label"], row["class"]] for row in trace]),
        "archive.csv": table(
            [f"d{i + 1}" for i in range(n_dim)]
            + [f"z{i + 1}" for i in range(n_obj_archive)]
            + ["g", "solver_id", "seq"],
            [[cell(d) for d in m["point"]]
             + [cell(z) for z in m["objectives"]]
             + [cell(m["g"]), m["solver_id"], m["seq"]] for m in archive]),
    }
