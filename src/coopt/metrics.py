"""Quality measures over bi-objective solution sets (minimization).

All functions take ``points`` as an array-like of (z1, z2) rows.  Only the
two-dimensional case is supported; that is all the comparison protocol
needs.  ``hypervolume`` follows the standard larger-is-better definition;
``hypervolume_complement`` reports the undominated remainder of the
reference box for consumers that rank the other way round.
"""

from __future__ import annotations

import numpy as np


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected an array of (z1, z2) rows")
    return arr


def _staircase(points: np.ndarray) -> np.ndarray:
    """Non-dominated staircase sorted by z1 ascending (minimization).

    Sorted by (z1, z2), a point is a step when its z2 is below every
    earlier z2; a tie or a duplicate is not.  The points hold no NaN:
    ``hypervolume`` keeps only the points within its reference.
    """
    stairs = points[np.lexsort((points[:, 1], points[:, 0]))]
    z2 = stairs[:, 1]
    step = np.ones(len(stairs), dtype=bool)
    step[1:] = z2[1:] < np.minimum.accumulate(z2)[:-1]
    return stairs[step]


def hypervolume(points, reference) -> float:
    """Area weakly dominated by ``points`` inside the reference box.

    Points not strictly better than the reference in both coordinates are
    ignored; an empty (remaining) set has hypervolume 0.
    """
    pts = _as_points(points)
    ref = np.asarray(reference, dtype=float)
    pts = pts[np.all(pts <= ref, axis=1)]
    if len(pts) == 0:
        return 0.0
    stairs = _staircase(pts)
    z1 = np.append(stairs[:, 0], ref[0])
    return float(np.sum((z1[1:] - z1[:-1]) * (ref[1] - stairs[:, 1])))


def hypervolume_complement(points, reference) -> float:
    """Area of the box [0, reference] not dominated by the set.

    Lower is better under this convention; for non-negative objectives it
    is exactly box area minus ``hypervolume``.
    """
    return _complement(hypervolume(points, reference), reference)


def _complement(hv: float, reference) -> float:
    return float(np.prod(np.asarray(reference, dtype=float))) - hv


def area_trapezoid(points) -> float:
    """Trapezoidal-rule area under the point sequence sorted by z1."""
    pts = _as_points(points)
    if len(pts) < 2:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    widths = pts[1:, 0] - pts[:-1, 0]
    heights = 0.5 * (pts[1:, 1] + pts[:-1, 1])
    return float(np.sum(widths * heights))


def average_distance(points, utopia) -> float:
    """Mean Euclidean distance from each point to the utopia point."""
    pts = _as_points(points)
    if len(pts) == 0:
        raise ValueError("average_distance needs at least one point")
    utopia = np.asarray(utopia, dtype=float)
    return float(np.mean(np.linalg.norm(pts - utopia, axis=1)))


# Point-front pairs in one block of ``generational_distance``.
_GD_BLOCK_PAIRS = 1 << 14


def generational_distance(points, true_front) -> float:
    """Mean distance from each point to its nearest true-front sample.

    The points go in row blocks of at most ``_GD_BLOCK_PAIRS`` point-front
    pairs (one row if the front is larger), so memory is
    O(max(len(front), _GD_BLOCK_PAIRS)) rather than len(points) *
    len(front).  Each point keeps its least squared distance and one
    ``sqrt`` follows; ``sqrt`` is monotone and correctly rounded, so this
    equals the mean of the least distances bit for bit, NaN included.
    """
    pts = _as_points(points)
    front = _as_points(true_front)
    if len(pts) == 0 or len(front) == 0:
        raise ValueError("generational_distance needs non-empty inputs")
    f0, f1 = front[:, 0], front[:, 1]
    rows = max(1, _GD_BLOCK_PAIRS // len(front))
    nearest = np.empty(len(pts))
    for start in range(0, len(pts), rows):
        block = pts[start:start + rows]
        d0 = block[:, 0, None] - f0
        d1 = block[:, 1, None] - f1
        np.square(d0, out=d0)
        np.square(d1, out=d1)
        d0 += d1
        d0.min(axis=1, out=nearest[start:start + rows])
    np.sqrt(nearest, out=nearest)
    return float(np.mean(nearest))


def _count(points) -> float:
    return float(len(points))


# The one table of front measures.  Name -> (function, the input it takes
# after the points, or None), in the order metrics.csv and ``coopt metrics``
# list them.
MEASURES = {
    "hypervolume": (hypervolume, "reference"),
    "hypervolume complement": (hypervolume_complement, "reference"),
    "area": (area_trapezoid, None),
    "average distance": (average_distance, "utopia"),
    "generational distance": (generational_distance, "front"),
    "non-dominated points": (_count, None),
}


def front_measures(points, reference=None, utopia=None,
                   front=None) -> dict[str, float]:
    """Every measure in ``MEASURES`` whose input is not None, in that order.

    Points with other than two objectives get only the point count, since
    the other measures are bi-objective.  The hypervolume is computed once:
    its complement is the reference box's area less it, as
    ``hypervolume_complement`` gives it.
    """
    if np.shape(points)[1:] != (2,):
        return {"non-dominated points": _count(points)}
    inputs = {"reference": reference, "utopia": utopia, "front": front}
    row = {}
    for name, (measure, needs) in MEASURES.items():
        if needs is None:
            row[name] = measure(points)
        elif measure is hypervolume_complement and reference is not None:
            # "hypervolume" comes first in the table, with this input.
            row[name] = _complement(row["hypervolume"], reference)
        elif inputs[needs] is not None:
            row[name] = measure(points, inputs[needs])
    return row
