"""The 2-D staircase archive and layers against the brute-force oracles.

Populations and streams are drawn from a small integer grid, so exact
duplicates, equal-z1 and equal-z2 ties, infeasible members sharing a
constraint measure and failed evaluations are all common.  One-objective
rows are the same rule's (z, z) case and are checked against the same
oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt.analysis import MULTI, SINGLE, Archive, update_archive
from coopt.core import Evaluation, freeze_point
from coopt.solvers import assign_fitness
from oracles import brute_force_front, peel_layers

# Integer points within 3 of the line z1 + z2 = 6: most are mutually
# non-dominated, many are equal or share one objective, and inserts evict.
OBJECTIVES = st.builds(lambda z1, d: (float(z1), float(6 - z1 + d)),
                       st.integers(0, 6), st.integers(0, 3))
FEASIBLE = st.builds(lambda z, g: (*z, g), OBJECTIVES,
                     st.sampled_from([-1.0, 0.0]))
INFEASIBLE = st.builds(lambda z, g: (*z, g), OBJECTIVES,
                       st.sampled_from([1.0, 2.0]))
FAILED = st.just((math.inf, math.inf, math.inf))
ROW = st.one_of(FEASIBLE, INFEASIBLE, FAILED)
ROWS = st.one_of(
    st.lists(ROW, max_size=40),
    st.builds(lambda bad, good: bad + good,
              st.lists(st.one_of(INFEASIBLE, FAILED), max_size=15),
              st.lists(FEASIBLE, max_size=25)))
ROW_1D = st.one_of(
    st.builds(lambda z, g: (float(z), g), st.integers(0, 4),
              st.sampled_from([-1.0, 0.0, 1.0, 2.0])),
    st.just((math.inf, math.inf)))
ROWS_1D = st.lists(ROW_1D, min_size=1, max_size=40)


def evaluations(rows, first_seq=0):
    """One evaluation per row ``(*objectives, g)``."""
    return [Evaluation(freeze_point(np.zeros(1)), row[:-1], row[-1], "s", seq)
            for seq, row in enumerate(rows, start=first_seq)]


def seqs(members):
    return [e.seq for e in members]


@settings(deadline=None)
@given(ROWS)
def test_archive_front_is_the_ordered_brute_force_front(rows):
    stream = evaluations(rows)
    archive = Archive(MULTI)
    for i, e in enumerate(stream):
        improved = update_archive(archive, e)
        assert improved == (archive.front[-1] is e)
        assert seqs(archive.front) == seqs(brute_force_front(stream[:i + 1]))


@settings(deadline=None)
@given(ROWS, ROWS)
def test_prebuilt_front_takes_further_inserts(first_rows, rest_rows):
    first = evaluations(first_rows)
    rest = evaluations(rest_rows, first_seq=len(first))
    archive = Archive(MULTI, front=brute_force_front(first))
    for e in rest:
        update_archive(archive, e)
    assert seqs(archive.front) == seqs(brute_force_front(first + rest))


@settings(deadline=None)
@given(ROWS_1D)
def test_single_archive_keeps_the_first_brute_force_member(rows):
    stream = evaluations(rows)
    archive = Archive(SINGLE)
    for e in stream:
        update_archive(archive, e)
    assert archive.best is brute_force_front(stream)[0]


@settings(deadline=None)
@given(st.one_of(st.lists(ROW, min_size=1, max_size=40), ROWS_1D))
def test_fitness_equals_peel_fitness(rows):
    members = evaluations(rows)
    n = len(members)
    order = [i for layer in peel_layers(members) for i in layer]
    expected = np.empty(n)
    for rank, i in enumerate(order, start=1):
        expected[i] = (n - rank + 1) / (n + 1)
    assert np.array_equal(assign_fitness(members), expected)


def test_three_objectives_are_rejected():
    points = [Evaluation(freeze_point(np.zeros(1)), (1.0, 2.0, 3.0), g)
              for g in (-1.0, 1.0)]
    for e in points:
        with pytest.raises(ValueError, match="got 3"):
            update_archive(Archive(MULTI), e)
    with pytest.raises(ValueError, match="got 3"):
        assign_fitness(points)
