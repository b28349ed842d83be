"""Domain, evaluation, and comparison semantics."""

import math

import numpy as np
import pytest

from coopt.core import (
    Domain,
    Evaluation,
    Problem,
    VarKind,
    dominates,
    evaluate_model,
    freeze_point,
    uniform_box,
)


def _sphere_model(point, _params):
    return float(np.sum(point**2)), -1.0


def _constrained_sphere_model(point, _params):
    return float(np.sum(point**2)), 1.0 - float(np.sum(point))


SPHERE2 = Problem("sphere-2", uniform_box(-5.0, 5.0, 2), 1, _sphere_model)
CSPHERE2 = Problem("constrained-sphere-2", uniform_box(-5.0, 5.0, 2), 1,
                   _constrained_sphere_model)


def ev(z, g=-1.0):
    z = (z,) if np.isscalar(z) else tuple(z)
    return Evaluation(freeze_point(np.zeros(2)), z, g)


# ---------------------------------------------------------------- domain

def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Domain(np.array([2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Domain(np.array([0.5]), np.array([3.0]), (VarKind.INTEGER,))


def test_domain_clip_rounds_integer_dims():
    dom = Domain(np.array([0.0, 0.0]), np.array([10.0, 10.0]),
                 (VarKind.REAL, VarKind.INTEGER))
    out = dom.clip(np.array([3.7, 3.7]))
    assert out[0] == pytest.approx(3.7)
    assert out[1] == 4.0
    out = dom.clip(np.array([-2.0, 99.0]))
    assert out[0] == 0.0 and out[1] == 10.0


def test_random_point_respects_domain():
    rng = np.random.default_rng(7)
    dom = Domain(np.array([-1.0, 0.0]), np.array([1.0, 5.0]),
                 (VarKind.REAL, VarKind.INTEGER))
    for _ in range(200):
        p = dom.random_point(rng)
        assert dom.contains(p)
        assert p[1] == round(p[1])


def test_random_population_size_and_membership():
    rng = np.random.default_rng(3)
    dom = uniform_box(-2.0, 2.0, 4)
    pop = dom.random_population(rng, 12)
    assert len(pop) == 12
    assert all(dom.contains(p) for p in pop)


# ----------------------------------------------------------- evaluation

def test_evaluate_sphere_at_origin():
    e = evaluate_model(SPHERE2, np.array([0.0, 0.0]))
    assert e.objectives == (0.0,)
    assert e.constraint == -1.0
    assert e.feasible


def test_evaluate_sphere_sum_of_squares():
    e = evaluate_model(SPHERE2, np.array([1.0, 2.0]))
    assert e.objectives == (5.0,)


def test_constrained_sphere_origin_is_infeasible():
    # g(d) = 1 - sum(d); at the origin g = 1 > 0.
    e = evaluate_model(CSPHERE2, np.array([0.0, 0.0]))
    assert e.objectives == (0.0,)
    assert e.constraint == 1.0
    assert not e.feasible


def test_failing_model_maps_to_infinite_sentinel():
    def bad(point, _params):
        raise FloatingPointError("model blew up")

    prob = Problem("bad", uniform_box(0.0, 1.0, 2), 1, bad)
    e = evaluate_model(prob, np.array([0.5, 0.5]))
    assert e.failed and not e.feasible
    assert e.objectives == (math.inf,)
    assert e.constraint == math.inf


def test_nonfinite_model_output_maps_to_sentinel():
    def nan_model(point, _params):
        return float("nan"), -1.0

    prob = Problem("nan", uniform_box(0.0, 1.0, 2), 1, nan_model)
    e = evaluate_model(prob, np.array([0.5, 0.5]))
    assert e.failed


def test_wrong_objective_count_maps_to_sentinel():
    def short(point, _params):
        return (1.0,), -1.0

    prob = Problem("short", uniform_box(0.0, 1.0, 2), 2, short)
    e = evaluate_model(prob, np.array([0.5, 0.5]))
    assert e.failed
    assert len(e.objectives) == 2


def test_evaluation_point_is_frozen():
    e = evaluate_model(SPHERE2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        e.point[0] = 9.0


# -------------------------------------------- one objective: better-than
# With one objective, dominance is the feasibility rule: feasible first,
# then the smaller objective, among infeasible the smaller constraint.

def test_better_smaller_objective():
    assert dominates(ev(4.0), ev(5.0))
    assert not dominates(ev(5.0), ev(4.0))


def test_better_feasibility_first():
    assert dominates(ev(9.0, g=-1.0), ev(0.0, g=2.0))
    assert not dominates(ev(0.0, g=2.0), ev(9.0, g=-1.0))


def test_better_among_infeasible_by_constraint():
    assert not dominates(ev(1.0, g=3.0), ev(9.0, g=1.0))
    assert dominates(ev(9.0, g=1.0), ev(1.0, g=3.0))


def test_better_tie_is_not_better():
    assert not dominates(ev(2.0), ev(2.0))
    assert not dominates(ev(2.0, g=1.0), ev(5.0, g=1.0))


def test_better_is_strict_weak_ordering():
    rng = np.random.default_rng(11)
    pool = [ev(float(rng.integers(0, 4)), g=float(rng.integers(-2, 3)))
            for _ in range(60)]
    for a in pool:
        assert not dominates(a, a)
    for a in pool[:20]:
        for b in pool[:20]:
            assert not (dominates(a, b) and dominates(b, a))
            for c in pool[:20]:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)
                # incomparability is transitive too
                if not (dominates(a, b) or dominates(b, a)
                        or dominates(b, c) or dominates(c, b)):
                    assert not (dominates(a, c) or dominates(c, a))


# ------------------------------------------------------------ dominance

def test_dominates_componentwise():
    assert dominates(ev((1.0, 2.0)), ev((2.0, 3.0)))


def test_dominates_incomparable_pair():
    assert not dominates(ev((1.0, 3.0)), ev((2.0, 2.0)))
    assert not dominates(ev((2.0, 2.0)), ev((1.0, 3.0)))


def test_dominates_feasibility_first():
    assert dominates(ev((5.0, 5.0)), ev((0.0, 0.0), g=2.0))


def test_dominates_equal_points_do_not_dominate():
    assert not dominates(ev((1.0, 1.0)), ev((1.0, 1.0)))


def test_dominates_rejects_mismatched_objective_counts():
    with pytest.raises(ValueError):
        dominates(ev((1.0, 2.0)), ev(1.0))


@pytest.mark.parametrize("n_obj", [1, 2])
def test_dominates_irreflexive_asymmetric_transitive(n_obj):
    rng = np.random.default_rng(23)
    pool = [ev(tuple(rng.integers(0, 4, size=n_obj).astype(float)),
               g=float(rng.choice([-1.0, -1.0, 0.0, 1.0, 2.0])))
            for _ in range(40)]
    for a in pool:
        assert not dominates(a, a)
    for a in pool:
        for b in pool:
            assert not (dominates(a, b) and dominates(b, a))
    for a in pool[:15]:
        for b in pool[:15]:
            for c in pool[:15]:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)
