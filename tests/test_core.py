"""Domain, evaluation, and comparison semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt.core import (
    Domain,
    Evaluation,
    Problem,
    VarKind,
    dominates,
    box,
    evaluate_model,
    freeze_point,
    uniform_box,
)
from coopt.problems import registry_get
from oracles import clip_reference, domain_contains, evaluate_model_reference


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


@pytest.mark.parametrize("lower, upper", [
    ([math.nan, 0.0], [1.0, 1.0]),
    ([0.0], [math.nan]),
    ([-math.inf], [math.inf]),
    ([0.0], [math.inf]),
    ([-math.inf], [0.0]),
    ([math.inf], [math.inf]),
    ([-1e308], [1e308]),  # finite bounds whose range overflows
])
def test_domain_refuses_non_finite_bounds(lower, upper):
    with pytest.raises(ValueError):
        box(lower, upper)
    with pytest.raises(ValueError):
        box(lower, upper, [VarKind.INTEGER] * len(lower))


def test_domain_with_the_widest_finite_range_draws_finite_points():
    dom = box([-8e307], [8e307])
    assert dom.ranges.tolist() == [1.6e308]
    rng = np.random.default_rng(0)
    assert all(np.isfinite(dom.random_point(rng)).all() for _ in range(100))


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
        assert domain_contains(dom, p)
        assert p[1] == round(p[1])


def test_random_population_size_and_membership():
    rng = np.random.default_rng(3)
    dom = uniform_box(-2.0, 2.0, 4)
    pop = dom.random_population(rng, 12)
    assert len(pop) == 12
    assert all(domain_contains(dom, p) for p in pop)


# Integral bounds, so any dimension may be INTEGER; signed zeros included.
CLIP_BOUND = st.sampled_from([-5.0, -1.0, -0.0, 0.0, 2.0, 7.0])
CLIP_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     0.5, -0.5, 1.5, 2.5, -2.5]),
    st.floats(-10.0, 10.0),
    st.floats())


@st.composite
def clip_cases(draw, n=10):
    """A 10-d domain with one lo == hi dimension, and a point to clip."""
    mixed = draw(st.booleans())
    lower, upper, kinds = [], [], []
    for _ in range(n):
        lo, hi = sorted((draw(CLIP_BOUND), draw(CLIP_BOUND)))
        lower.append(lo)
        upper.append(hi)
        kinds.append(draw(st.sampled_from(VarKind)) if mixed
                     else VarKind.REAL)
    flat = draw(st.integers(0, n - 1))
    upper[flat] = lower[flat]
    domain = Domain(np.array(lower), np.array(upper), tuple(kinds))
    values = draw(st.lists(CLIP_VALUE, min_size=n, max_size=n))
    return domain, values if draw(st.booleans()) else np.array(values)


@settings(deadline=None, max_examples=300)
@given(clip_cases())
def test_domain_clip_matches_np_clip_reference_bit_for_bit(case):
    domain, values = case
    before = np.array(values, dtype=float).tobytes()
    out = domain.clip(values)
    expected = clip_reference(domain, values)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert np.array(values, dtype=float).tobytes() == before


def test_domain_ranges_are_precomputed_and_read_only():
    dom = Domain(np.array([-1.0, 0.0]), np.array([1.0, 5.0]),
                 (VarKind.REAL, VarKind.INTEGER))
    assert dom.ranges.tolist() == [2.0, 5.0]
    assert dom.ranges is dom.ranges
    assert dom.has_integer and not uniform_box(0.0, 1.0, 3).has_integer
    with pytest.raises(ValueError):
        dom.ranges[0] = 9.0


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
    point = np.array([0.5, 0.5])
    e = evaluate_model(prob, point)
    assert e.point is not point and not e.point.flags.writeable
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


def test_problems_domains_and_evaluations_compare_by_identity():
    """Array fields make value equality ambiguous, so none is defined."""
    first, second = registry_get("sphere-3"), registry_get("sphere-3")
    point = np.array([1.0, 2.0, 3.0])
    one, other = (evaluate_model(first, point) for _ in range(2))
    for a, b in [(first, second), (first.domain, second.domain),
                 (one, other)]:
        assert a != b and not a == b
        assert a == a and hash(a) == hash(a)
        assert {a, b} == {b, a} and len({a, b}) == 2


def test_evaluation_point_is_frozen():
    e = evaluate_model(SPHERE2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        e.point[0] = 9.0


def _read_only_view():
    owner = np.array([1.0, 2.0])
    view = owner[:]
    view.setflags(write=False)
    return view, owner


@pytest.mark.parametrize("make", [
    lambda: (np.array([1.0, 2.0]),) * 2,
    _read_only_view,
    lambda: (np.array([1, 2]),) * 2,
    lambda: ([1.0, 2.0],) * 2,
], ids=["writable-array", "read-only-view", "int-array", "list"])
def test_evaluate_model_copies_points_it_does_not_own(make):
    point, owner = make()
    e = evaluate_model(SPHERE2, point)
    assert e.point is not point
    assert e.point.dtype == np.float64
    assert not e.point.flags.writeable
    owner[0] = 9.0  # the caller's later writes do not reach the evaluation
    assert e.point.tolist() == [1.0, 2.0]
    assert e.objectives == (5.0,)


def test_evaluate_model_reuses_a_frozen_owned_point():
    point = freeze_point([1.0, 2.0])
    e = evaluate_model(SPHERE2, point)
    assert e.point is point
    assert e.objectives == (5.0,)


SCALAR_FORMS = pytest.mark.parametrize("wrap", [
    float, np.float64, lambda z: np.array([z]), lambda z: (z,),
], ids=["float", "np.float64", "1-element-array", "1-tuple"])


@SCALAR_FORMS
def test_scalar_objective_forms_give_the_same_evaluation(wrap):
    def model(point, _params):
        return wrap(float(np.sum(point**2))), np.float64(-1.0)

    prob = Problem("forms", uniform_box(-5.0, 5.0, 2), 1, model)
    e = evaluate_model(prob, np.array([1.0, 2.0]))
    assert e.objectives == (5.0,) and type(e.objectives[0]) is float
    assert e.constraint == -1.0 and type(e.constraint) is float


@SCALAR_FORMS
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_objective_forms_give_the_sentinel(wrap, bad):
    def model(point, _params):
        return wrap(bad), -1.0

    prob = Problem("forms", uniform_box(-5.0, 5.0, 2), 1, model)
    e = evaluate_model(prob, np.array([1.0, 2.0]))
    assert e.failed and e.objectives == (math.inf,)


_RAW_SCALARS = st.one_of(
    st.floats(),  # ±0.0, ±inf and NaN included
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.integers(-2**70, 2**70), st.booleans(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64))
_RAW_OBJECTIVES = st.one_of(
    _RAW_SCALARS,
    st.lists(st.floats(), max_size=4).map(tuple),  # the tuple fast path
    st.lists(_RAW_SCALARS, max_size=4).map(tuple),
    st.lists(_RAW_SCALARS, max_size=4),
    st.lists(st.floats(), max_size=4).map(np.array))


def _exact(values):
    """Values with their types and signs of zero, NaN as a string."""
    return [(type(v), repr(v)) for v in values]


@settings(deadline=None, max_examples=400)
@given(raw_z=_RAW_OBJECTIVES, raw_g=_RAW_SCALARS, n_obj=st.integers(1, 3))
def test_evaluate_model_matches_the_reference_conversion(raw_z, raw_g, n_obj):
    """Every objective form (a float, a tuple of floats, anything else)
    gives the evaluation the general ``np.atleast_1d`` path gives it."""
    prob = Problem("raw", uniform_box(0.0, 1.0, 2), n_obj,
                   lambda _point, _params: (raw_z, raw_g))
    point = freeze_point([0.5, 0.5])
    got = evaluate_model(prob, point, solver_id="s", seq=3)
    want = evaluate_model_reference(prob, point, solver_id="s", seq=3)
    assert type(got.objectives) is tuple
    assert _exact(got.objectives) == _exact(want.objectives)
    assert _exact([got.constraint]) == _exact([want.constraint])
    assert (got.solver_id, got.seq) == (want.solver_id, want.seq) == ("s", 3)


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
