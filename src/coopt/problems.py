"""Benchmark problem registry with known optima and fronts for testing.

Scalable families are keyed as ``<family>-<n>`` (for example ``sphere-10``);
a few fixed-size problems are registered under plain names.  All models are
pure functions, safe to call from any number of evaluator agents.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from coopt.core import Domain, Problem, VarKind, uniform_box

# Per-dimension minimum of rastrigin + 0.5*(d - 0.25)^2, found numerically;
# the function is separable so the n-dimensional optimum is n times this.
_RIDGE_BASIN_DIM_MIN = 0.03117143970981


def _sphere(point, _params):
    return float((point**2).sum()), -1.0


def _constrained_sphere(point, _params):
    return float((point**2).sum()), 1.0 - float(point.sum())


def _rosenbrock(point, _params):
    d = point
    z = float((100.0 * (d[1:] - d[:-1] ** 2) ** 2
               + (1.0 - d[:-1]) ** 2).sum())
    return z, -1.0


def _rastrigin_value(point):
    return float(10.0 * point.size
                 + (point**2 - 10.0 * np.cos(2.0 * np.pi * point)).sum())


def _rastrigin(point, _params):
    return _rastrigin_value(point), -1.0


def _mixed_int_quadratic(point, targets):
    return float(((point - targets) ** 2).sum()), -1.0


def _ridge_basin(point, _params):
    z = _rastrigin_value(point) + 0.5 * float(((point - 0.25) ** 2).sum())
    return z, -1.0


def _biobj_quadratic(point, _params):
    z1 = float((point**2).sum())
    z2 = float(((point - 1.0) ** 2).sum())
    return (z1, z2), -1.0


def _false_readings(point, _params):
    # Synthetic detector tuning: spending more (z1) lowers two integer
    # error counts, the severe one weighted 1000x over the mild one.
    z1 = float(point[0] + point[1])
    n_false_neg = max(0.0, 10.0 - math.floor(point[0]))
    n_false_pos = max(0.0, 100.0 - 10.0 * math.floor(point[1]))
    return (z1, n_false_neg + n_false_pos / 1000.0), -1.0


def _false_readings_front_point(t: float) -> tuple[float, float]:
    step = int(round(t * 20.0))
    spent_on_neg = min(step, 10)
    spent_on_pos = step - spent_on_neg
    z2 = (10.0 - spent_on_neg) + (100.0 - 10.0 * spent_on_pos) / 1000.0
    return float(step), z2


def _build_sphere(n: int) -> Problem:
    return Problem("sphere-%d" % n, uniform_box(-5.0, 5.0, n), 1,
                   _sphere, known_optimum=0.0)


def _build_constrained_sphere(n: int) -> Problem:
    # minimize sum d_i^2 subject to sum d_i >= 1: optimum at d_i = 1/n.
    return Problem("constrained-sphere-%d" % n, uniform_box(-5.0, 5.0, n), 1,
                   _constrained_sphere, known_optimum=1.0 / n)


def _build_rosenbrock(n: int) -> Problem:
    if n < 2:
        raise ValueError("rosenbrock needs n >= 2")
    return Problem("rosenbrock-%d" % n, uniform_box(-2.0, 2.0, n), 1,
                   _rosenbrock, known_optimum=0.0)


def _build_rastrigin(n: int) -> Problem:
    return Problem("rastrigin-%d" % n, uniform_box(-5.12, 5.12, n), 1,
                   _rastrigin, known_optimum=0.0)


def _build_mixed_int_quadratic(n: int) -> Problem:
    # Even dimensions are INTEGER with target 0.5 (off-grid by exactly 0.5),
    # odd dimensions REAL with target 2, so the best reachable value is
    # 0.25 per integer dimension.
    kinds = tuple(VarKind.INTEGER if i % 2 == 0 else VarKind.REAL
                  for i in range(n))
    targets = np.array([0.5 if i % 2 == 0 else 2.0 for i in range(n)])
    domain = Domain(np.full(n, -5.0), np.full(n, 5.0), kinds)
    n_integer = (n + 1) // 2
    return Problem("mixed-int-quadratic-%d" % n, domain, 1,
                   _mixed_int_quadratic, parameters=targets,
                   known_optimum=0.25 * n_integer)


def _build_ridge_basin(n: int) -> Problem:
    return Problem("ridge-basin-%d" % n, uniform_box(-5.12, 5.12, n), 1,
                   _ridge_basin, known_optimum=n * _RIDGE_BASIN_DIM_MIN)


def _build_biobj_quadratic(n: int) -> Problem:
    def front(t: float) -> tuple[float, float]:
        return n * t * t, n * (1.0 - t) ** 2

    return Problem("biobj-quadratic-%d" % n, uniform_box(-2.0, 2.0, n), 2,
                   _biobj_quadratic, front_parametrization=front)


def _build_false_readings() -> Problem:
    return Problem("false-readings-analogue", uniform_box(0.0, 10.0, 2), 2,
                   _false_readings,
                   front_parametrization=_false_readings_front_point)


# The largest ``n`` of a ``<family>-<n>`` name; with ``harness.MAX_NP`` it
# bounds a run's shared initial population (np points of n floats).
MAX_DIMENSION = 10_000

_FAMILIES: dict[str, Callable[[int], Problem]] = {
    "sphere": _build_sphere,
    "constrained-sphere": _build_constrained_sphere,
    "rosenbrock": _build_rosenbrock,
    "rastrigin": _build_rastrigin,
    "mixed-int-quadratic": _build_mixed_int_quadratic,
    "ridge-basin": _build_ridge_basin,
    "biobj-quadratic": _build_biobj_quadratic,
}

_FIXED: dict[str, Callable[[], Problem]] = {
    "false-readings-analogue": _build_false_readings,
}


def available_names() -> list[str]:
    return sorted(["%s-n" % family for family in _FAMILIES]
                  + list(_FIXED))


def registry_get(name: str) -> Problem:
    """Build the named problem; ``<family>-<n>`` names set the dimension.

    ``n`` is ASCII digits with no leading zero, in [1, MAX_DIMENSION]; it
    is checked before anything is built.  A leading zero is refused, so
    that each problem has one name: ``sphere-003`` would build sphere-3.
    """
    if name in _FIXED:
        return _FIXED[name]()
    family, sep, suffix = name.rpartition("-")
    if sep and family in _FAMILIES and suffix.isascii() and suffix.isdigit():
        if len(suffix) > 1 and suffix[0] == "0":
            raise ValueError("dimension must have no leading zero in %r"
                             % name)
        # Too many digits is out of range: int() refuses over 4300 of them.
        n = int(suffix) if len(suffix) <= 5 else 0
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError("dimension must lie in [1, %d] in %r"
                             % (MAX_DIMENSION, name))
        return _FAMILIES[family](n)
    raise KeyError("unknown problem %r; available: %s"
                   % (name, ", ".join(available_names())))


def front_samples(name: str, k: int) -> np.ndarray:
    """k objective-space points sampled uniformly along the known front."""
    problem = registry_get(name)
    if problem.front_parametrization is None:
        raise ValueError("problem %r has no known front" % name)
    if k < 1:
        raise ValueError("k must be >= 1")
    ts = [0.5] if k == 1 else np.linspace(0.0, 1.0, k)
    return np.array([problem.front_parametrization(float(t)) for t in ts])
