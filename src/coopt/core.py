"""Problem definitions, decision points, and comparison semantics.

A problem is a black box: given a point in a bounded (possibly mixed
real/integer) search domain it returns a vector of objective values and a
single scalar infeasibility measure.  A point is feasible when that measure
is <= 0.  Everything downstream (solvers, the archive, the scheduler) relies
only on the comparison rule defined here, `dominates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

INFEASIBLE_SENTINEL = math.inf


class VarKind(Enum):
    REAL = "real"
    INTEGER = "integer"


@dataclass(frozen=True, eq=False)
class Domain:
    """Bounded search box with a kind (real or integer) per dimension.

    Parameters
    ----------
    lower, upper : array-like
        Per-dimension finite bounds, lower <= upper, with ``upper - lower``
        finite too.
    kinds : sequence of VarKind, optional
        Defaults to all-REAL.  Integer dimensions must have integer bounds.

    ``integer_mask`` (read-only) marks the INTEGER dimensions and
    ``has_integer`` says whether there are any; ``ranges`` (read-only) is
    ``upper - lower``.  All three are computed once, in ``__post_init__``:
    ``clip`` runs once per candidate point, so anything it recomputed would
    be paid on every evaluation.  ``random_point`` returns a frozen point
    that owns its data, which ``evaluate_model`` does not copy again.
    """

    lower: np.ndarray
    upper: np.ndarray
    kinds: tuple[VarKind, ...] = ()
    integer_mask: np.ndarray = field(init=False, repr=False)
    has_integer: bool = field(init=False, repr=False)
    ranges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        kinds = self.kinds or tuple(VarKind.REAL for _ in lower)
        if len(kinds) != lower.size:
            raise ValueError("one kind per dimension required")
        with np.errstate(over="ignore", invalid="ignore"):
            ranges = upper - lower
        # The range is finite only if both bounds are: NaN and inf fail here.
        if not np.isfinite(ranges).all():
            raise ValueError("bounds and upper - lower must be finite")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        for lo, hi, kind in zip(lower, upper, kinds):
            if kind is VarKind.INTEGER and (lo != round(lo) or hi != round(hi)):
                raise ValueError("integer dimension with non-integer bounds")
        mask = np.array([k is VarKind.INTEGER for k in kinds], dtype=bool)
        for array in (lower, upper, mask, ranges):
            array.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "kinds", tuple(kinds))
        object.__setattr__(self, "integer_mask", mask)
        object.__setattr__(self, "has_integer", bool(mask.any()))
        object.__setattr__(self, "ranges", ranges)

    @property
    def size(self) -> int:
        return self.lower.size

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Project onto the box and re-round integer dimensions.

        ``minimum(maximum(...))`` gives the bits of ``np.clip``, NaN and
        signed zeros included, at a fraction of its per-call cost on short
        vectors.
        """
        out = np.minimum(np.maximum(np.asarray(values, dtype=float),
                                    self.lower), self.upper)
        if self.has_integer:
            mask = self.integer_mask
            out[mask] = np.round(out[mask])
        return out

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        values = self.lower + rng.random(self.size) * self.ranges
        if self.has_integer:
            mask = self.integer_mask
            values[mask] = rng.integers(
                self.lower[mask].astype(int), self.upper[mask].astype(int) + 1
            )
        return freeze_point(values)

    def random_population(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        return [self.random_point(rng) for _ in range(n)]


def box(lower: Sequence[float], upper: Sequence[float],
        kinds: Sequence[VarKind] = ()) -> Domain:
    return Domain(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float),
                  tuple(kinds))


def uniform_box(lo: float, hi: float, n: int) -> Domain:
    return box([lo] * n, [hi] * n)


def freeze_point(values: np.ndarray) -> np.ndarray:
    """Return a read-only float copy; points are shared across agents.

    The copy owns its data, so ``evaluate_model`` takes it as it is.
    """
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True, eq=False)
class Evaluation:
    """Outcome of one model evaluation, with attribution.

    ``objectives`` is a tuple (length = objective count of the problem) and
    ``constraint`` the scalar infeasibility measure; the point is feasible
    iff ``constraint <= 0``.  ``solver_id`` and ``seq`` identify who asked
    and in which global order the evaluation completed.
    """

    point: np.ndarray
    objectives: tuple[float, ...]
    constraint: float
    solver_id: str = ""
    seq: int = -1

    @property
    def feasible(self) -> bool:
        return self.constraint <= 0.0

    @property
    def failed(self) -> bool:
        return self.constraint == INFEASIBLE_SENTINEL


@dataclass(frozen=True, eq=False)
class Problem:
    """A named black-box model over a bounded domain.

    ``model(point, parameters)`` returns ``(objectives, constraint)`` where
    objectives is a scalar or sequence of length ``n_obj``.  The same point
    must always give the same result.
    """

    name: str
    domain: Domain
    n_obj: int
    model: Callable
    parameters: object = None
    known_optimum: Optional[float] = None
    front_parametrization: Optional[Callable[[float], tuple[float, ...]]] = None


def evaluate_model(problem: Problem, point: np.ndarray,
                   solver_id: str = "", seq: int = -1) -> Evaluation:
    """Evaluate the model once; one call is one unit of evaluation budget.

    Non-finite or raising models yield a sentinel evaluation (all objectives
    and the constraint set to +inf) so that every point stays orderable and
    no exception leaks into a solver.

    The evaluation's point is a read-only float64 array.  A point that
    already is one and owns its data (``base is None``), as
    ``proxy_objective`` sends, is not copied again; anything else (a
    writable array, a view, another dtype, a list) is copied by
    ``freeze_point``.  Objectives given as a float, or as a tuple of
    floats, are kept as they are; any other form goes through
    ``np.atleast_1d`` and ``float`` of each value, which would give those
    two the same values.
    """
    if not (type(point) is np.ndarray and point.base is None
            and not point.flags.writeable and point.dtype == np.float64):
        point = freeze_point(point)
    try:
        raw_z, raw_g = problem.model(point, problem.parameters)
        if type(raw_z) is float:
            z = (raw_z,)
        elif type(raw_z) is tuple and all(type(v) is float for v in raw_z):
            z = raw_z
        else:
            z = tuple(float(v) for v in np.atleast_1d(raw_z))
        g = float(raw_g)
    except Exception:
        return _failed_evaluation(problem, point, solver_id, seq)
    if len(z) != problem.n_obj or not all(map(math.isfinite, z)) \
            or not math.isfinite(g):
        return _failed_evaluation(problem, point, solver_id, seq)
    return Evaluation(point, z, g, solver_id, seq)


def _failed_evaluation(problem, point, solver_id, seq) -> Evaluation:
    z = tuple(INFEASIBLE_SENTINEL for _ in range(problem.n_obj))
    return Evaluation(point, z, INFEASIBLE_SENTINEL, solver_id, seq)


def dominates(a: Evaluation, b: Evaluation) -> bool:
    """Constrained dominance (minimization): the one comparison rule.

    Both feasible: componentwise <= with at least one strict <.  A feasible
    point dominates any infeasible one.  Both infeasible: smaller constraint
    measure dominates.  With one objective this is a strict weak order
    (feasible first, then smaller z, then smaller g); an exact tie is not
    domination, so callers keep the earlier arrival.
    """
    if len(a.objectives) != len(b.objectives):
        raise ValueError(
            f"objective count mismatch: {len(a.objectives)} vs {len(b.objectives)}"
        )
    a_feasible = a.constraint <= 0.0
    b_feasible = b.constraint <= 0.0
    if a_feasible and b_feasible:
        strictly = False
        for x, y in zip(a.objectives, b.objectives):
            if x > y:
                return False
            if x < y:
                strictly = True
        return strictly
    if a_feasible:
        return True
    if b_feasible:
        return False
    return a.constraint < b.constraint


def pareto_key(evaluation: Evaluation) -> tuple[float, float]:
    """The (z1, z2) under which feasible points are compared in 2-D.

    Multi-objective mode is two-dimensional: every multi-objective problem
    has two objectives.  Ordered by this key, a point ``q`` placed before
    ``p`` has ``q.z1 <= p.z1``, so ``q`` weakly dominates ``p`` iff
    ``q.z2 <= p.z2``, and strictly dominates it iff ``(q.z2, q.z1) <
    (p.z2, p.z1)``.  The archive's staircase and the non-dominated layers
    of ``assign_fitness`` both rest on this.  One objective ``z`` counts as
    ``(z, z)``: the same order by z, and the layers of ``assign_fitness``
    become one per distinct z.  Any other objective count is a ValueError.
    """
    z = evaluation.objectives
    if len(z) == 2:
        return z
    if len(z) == 1:
        return (z[0], z[0])
    raise ValueError(f"expected 1 or 2 objectives, got {len(z)}")
