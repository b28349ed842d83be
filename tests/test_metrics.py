"""Metric worked examples, Monte-Carlo oracle, and invariance properties."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt import metrics
from coopt.metrics import (
    MEASURES,
    area_trapezoid,
    average_distance,
    front_measures,
    generational_distance,
    hypervolume,
    hypervolume_complement,
)
from oracles import (front_measures_each, generational_distance_cube,
                     monte_carlo_hypervolume, staircase_loop)


def random_staircase(rng, n):
    z1 = np.sort(rng.uniform(0.0, 1.0, n))
    z2 = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    return np.stack([z1, z2], axis=1)


# ----------------------------------------------------------- hypervolume

def test_hypervolume_unit_square():
    assert hypervolume([(0.0, 0.0)], (1.0, 1.0)) == pytest.approx(1.0,
                                                                  abs=1e-12)


def test_hypervolume_empty_set_is_zero():
    assert hypervolume([], (1.0, 1.0)) == 0.0


def test_hypervolume_inclusion_exclusion_example():
    hv = hypervolume([(0.0, 0.5), (0.5, 0.0)], (1.0, 1.0))
    assert hv == pytest.approx(0.75, abs=1e-12)  # 0.5 + 0.5 - 0.25


def test_hypervolume_ignores_points_beyond_reference():
    hv = hypervolume([(0.0, 0.5), (2.0, 2.0)], (1.0, 1.0))
    assert hv == pytest.approx(0.5, abs=1e-12)


def test_hypervolume_dominated_points_do_not_add_area():
    base = hypervolume([(0.2, 0.2)], (1.0, 1.0))
    with_dominated = hypervolume([(0.2, 0.2), (0.5, 0.5)], (1.0, 1.0))
    assert with_dominated == pytest.approx(base, abs=1e-12)


def test_hypervolume_matches_monte_carlo_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        pts = random_staircase(rng, int(rng.integers(1, 12)))
        exact = hypervolume(pts, (1.0, 1.0))
        estimate, stderr = monte_carlo_hypervolume(pts, (1.0, 1.0), rng,
                                                   samples=60_000)
        assert abs(exact - estimate) <= 3.0 * max(stderr, 1e-9)


def test_hypervolume_monotone_under_domination():
    rng = np.random.default_rng(42)
    for _ in range(20):
        outer = random_staircase(rng, 8)
        inner = outer + rng.uniform(0.0, 0.2, size=outer.shape)
        assert hypervolume(outer, (2.0, 2.0)) >= hypervolume(inner,
                                                             (2.0, 2.0))


def test_hypervolume_complement_convention():
    pts = [(0.0, 0.5), (0.5, 0.0)]
    assert hypervolume_complement(pts, (1.0, 1.0)) == pytest.approx(0.25)
    assert hypervolume_complement([], (2.0, 3.0)) == pytest.approx(6.0)


# ------------------------------------------------------------------ area

def test_area_single_pair():
    assert area_trapezoid([(0.0, 1.0), (1.0, 0.0)]) == pytest.approx(0.5)


def test_area_hand_summed_example():
    area = area_trapezoid([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
    assert area == pytest.approx(2.0)  # 1.5 + 0.5


def test_area_duplicate_z1_gives_zero_width_segment():
    # Ties sort by z2, so (0,1)->(0,2) spans zero width and the last
    # duplicate anchors the trapezoid to the next distinct z1.
    area = area_trapezoid([(0.0, 1.0), (0.0, 2.0), (1.0, 0.0)])
    assert area == pytest.approx(0.0 * 1.5 + 1.0 * 0.5 * (2.0 + 0.0))


def test_area_under_two_points_is_zero():
    assert area_trapezoid([(0.5, 0.5)]) == 0.0
    assert area_trapezoid([]) == 0.0


# -------------------------------------------------------------- distance

def test_average_distance_345():
    assert average_distance([(3.0, 4.0)], (0.0, 0.0)) == pytest.approx(5.0)


def test_average_distance_zero_at_utopia():
    assert average_distance([(0.0, 0.0)], (0.0, 0.0)) == 0.0


def test_average_distance_symmetric_pair():
    d = average_distance([(1.0, 0.0), (0.0, 1.0)], (0.0, 0.0))
    assert d == pytest.approx(1.0)


def test_average_distance_empty_errors():
    with pytest.raises(ValueError):
        average_distance([], (0.0, 0.0))


# -------------------------------------------------- generational distance

def test_gd_identity_is_zero():
    front = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    assert generational_distance(front, front) == pytest.approx(0.0,
                                                                abs=1e-12)


def test_gd_single_point():
    assert generational_distance([(1.0, 1.0)], [(0.0, 0.0)]) \
        == pytest.approx(np.sqrt(2.0))


def test_gd_exhaustive_pairing_example():
    gd = generational_distance([(1.0, 0.0), (0.0, 1.0)],
                               [(0.0, 0.0), (1.0, 1.0)])
    assert gd == pytest.approx(1.0)


def test_gd_zero_iff_subset_of_front():
    front = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    assert generational_distance([(0.5, 0.5)], front) == 0.0
    assert generational_distance([(0.5, 0.6)], front) > 0.0


def test_gd_empty_inputs_error():
    with pytest.raises(ValueError):
        generational_distance([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        generational_distance([(0.0, 0.0)], [])


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# A few values drawn often, so duplicate points, points on the front and
# +-0.0, +-inf and NaN are common; any other float, huge or subnormal, too.
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf,
                     math.nan]),
    st.floats())
POINTS = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40)


@settings(deadline=None, max_examples=300)
@given(POINTS, POINTS, st.integers(1, 64))
def test_gd_blocks_equal_the_difference_cube(points, front, block_pairs):
    # A small block makes the row blocks of these small inputs end
    # anywhere: mid-points, on the last point, or one point per block.
    # inf - inf and squares beyond the float range warn in both.
    with np.errstate(invalid="ignore", over="ignore"):
        with mock.patch.object(metrics, "_GD_BLOCK_PAIRS", block_pairs):
            gd = generational_distance(points, front)
        assert same_float(gd, generational_distance_cube(points, front))


@pytest.mark.parametrize("n_points, n_front", [
    (255, 256), (256, 256), (257, 256), (513, 256),
    (1, 1 << 16), (2, (1 << 16) + 1), (3, 70_000),
    (63, 256), (64, 256), (65, 256), (129, 256),
    (1, 1 << 14), (2, (1 << 14) + 1),
])
def test_gd_equals_the_difference_cube_around_the_block_size(n_points,
                                                             n_front):
    rng = np.random.default_rng(n_points * 7 + n_front)
    pts = rng.uniform(-1.0, 2.0, size=(n_points, 2))
    front = rng.uniform(0.0, 1.0, size=(n_front, 2))
    pts[-1] = front[-1]
    assert generational_distance(pts, front) \
        == generational_distance_cube(pts, front)


def test_gd_memory_does_not_grow_with_points_times_front():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(1000, 2))
    front = rng.uniform(0.0, 1.0, size=(1000, 2))
    tracemalloc.start()
    try:
        generational_distance(pts, front)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 1000 x 1000 x 2 difference cube alone is 16 MB.
    assert peak < 4_000_000


# ---------------------------------------------- staircase and complement

# Coordinates on a coarse grid, so that equal z1, equal z2 and duplicate
# points are common; +-0.0 and +-inf among them.
GRID = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, math.inf,
                        -math.inf])
GRID_POINTS = st.lists(st.tuples(GRID, GRID), min_size=1, max_size=30)


@settings(deadline=None, max_examples=300)
@given(st.one_of(GRID_POINTS,
                 st.lists(st.tuples(st.floats(allow_nan=False),
                                    st.floats(allow_nan=False)),
                          min_size=1, max_size=30)))
def test_staircase_equals_the_loop(points):
    pts = np.array(points, dtype=float)
    stairs = metrics._staircase(pts)
    expected = staircase_loop(pts)
    assert stairs.shape == expected.shape
    assert stairs.tobytes() == expected.tobytes()


REFERENCES = st.tuples(GRID, GRID) | st.tuples(st.floats(), st.floats())


@settings(deadline=None, max_examples=300)
@given(POINTS | GRID_POINTS, REFERENCES, st.none() | REFERENCES,
       st.none() | POINTS)
def test_front_measures_equal_each_measure_alone(points, reference, utopia,
                                                 front):
    # inf - inf, inf * 0 and squares beyond the float range warn in both.
    with np.errstate(invalid="ignore", over="ignore"):
        row = front_measures(points, reference, utopia, front)
        expected = front_measures_each(points, reference, utopia, front)
    assert list(row) == list(expected)
    for name, value in row.items():
        assert np.float64(value).tobytes() \
            == np.float64(expected[name]).tobytes() \
            or math.isnan(value) and math.isnan(expected[name]), name


# ------------------------------------------------------ order invariance

def test_all_metrics_order_invariant():
    rng = np.random.default_rng(43)
    pts = rng.uniform(0.0, 1.0, size=(15, 2))
    front = rng.uniform(0.0, 1.0, size=(10, 2))
    perm = rng.permutation(15)
    assert hypervolume(pts, (2.0, 2.0)) \
        == pytest.approx(hypervolume(pts[perm], (2.0, 2.0)), abs=1e-12)
    assert area_trapezoid(pts) == pytest.approx(area_trapezoid(pts[perm]),
                                                abs=1e-12)
    assert average_distance(pts, (0.0, 0.0)) \
        == pytest.approx(average_distance(pts[perm], (0.0, 0.0)), abs=1e-12)
    assert generational_distance(pts, front) \
        == pytest.approx(generational_distance(pts[perm], front), abs=1e-12)


# ---------------------------------------------------------- measure table

def test_front_measures_lists_every_measure_in_table_order():
    pts = [(0.0, 0.5), (0.5, 0.0), (0.25, 0.25)]
    front = [(0.0, 0.5), (0.5, 0.0)]
    row = front_measures(pts, reference=(1.0, 1.0), utopia=(0.0, 0.0),
                         front=front)
    assert list(row) == list(MEASURES)
    assert row == {
        "hypervolume": hypervolume(pts, (1.0, 1.0)),
        "hypervolume complement": hypervolume_complement(pts, (1.0, 1.0)),
        "area": area_trapezoid(pts),
        "average distance": average_distance(pts, (0.0, 0.0)),
        "generational distance": generational_distance(pts, front),
        "non-dominated points": 3.0,
    }


@pytest.mark.parametrize("given, omitted", [
    ({}, {"hypervolume", "hypervolume complement", "average distance",
          "generational distance"}),
    ({"reference": (1.0, 1.0)}, {"average distance",
                                 "generational distance"}),
    ({"utopia": (0.0, 0.0)}, {"hypervolume", "hypervolume complement",
                              "generational distance"}),
    ({"front": [(0.0, 0.5)]}, {"hypervolume", "hypervolume complement",
                               "average distance"}),
])
def test_front_measures_omits_a_measure_whose_input_is_none(given, omitted):
    row = front_measures([(0.0, 0.5), (0.5, 0.0)], **given)
    assert list(row) == [m for m in MEASURES if m not in omitted]


def test_front_measures_of_one_objective_is_the_count():
    assert front_measures([(0.5,), (0.25,)], reference=(1.0, 1.0)) \
        == {"non-dominated points": 2.0}
