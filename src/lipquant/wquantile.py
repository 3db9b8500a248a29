"""Weighted quantiles over (value, mass) multisets.

The level-k estimator is a quantile of a discrete table: one point per
partition cell, carrying the cell's probability mass and either a freshly
evaluated value (eligible as a quantile candidate) or a value inherited from
a pruned ancestor (mass contributor only).  A point may also be eligible
with mass 0: it adds no mass and makes its value a candidate, since ties
merge into one group, eligible if any of its points is.  With head(v) the
exact mass of the points of value < v, the sup form is the greatest
eligible v with head(v) <= alpha, else the least eligible v, and the inf
form the first eligible v at or past the last value with head(v) < alpha,
else the greatest.  On a table of total mass 1 these are
sup{v : mass of {value >= v} >= 1 - alpha} and
inf{v : mass of {value <= v} >= alpha}; they differ only where a head meets
alpha (a flat CDF), both then quantiles of the table.  A head is a float
cumulative sum where that decides it, and an exact sum where it cannot
(filter, then exact: Shewchuk, "Adaptive Precision Floating-Point
Arithmetic", 1997), so no summation order moves a quantile.
"""

from __future__ import annotations

import bisect
import math

import numpy as np


class ValueMassTable:
    """Immutable table of mass points, sorted by value and merged on ties."""

    def __init__(self, values, masses, eligible):
        values = np.asarray(values, dtype=float)
        masses = np.asarray(masses, dtype=float)
        eligible = np.asarray(eligible, dtype=bool)
        if not (values.ndim == 1 and values.shape == masses.shape == eligible.shape):
            raise ValueError(f"values, masses and eligible must be 1-D of one length, got "
                             f"shapes {values.shape}, {masses.shape} and {eligible.shape}")
        if masses.size == 0:
            raise ValueError("empty table")
        if not masses.min() >= 0:  # so that NaN fails too
            raise ValueError(f"masses must be >= 0, got {masses[~(masses >= 0)][0]}")
        order = values.argsort()
        ordered = values.take(order)
        if math.isnan(ordered[-1]):  # sorted last
            raise ValueError("values must not be NaN")
        # merge ties: mass sums, eligibility is or-ed
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        starts = keep.nonzero()[0]
        keep[0] = False  # so that its cumsum numbers the groups from 0
        self.values = ordered.take(starts)
        del ordered
        # ties are bitwise equal but for a zero's sign; -0.0 + 0.0 is +0.0
        self.values += 0.0
        ranks = keep.cumsum()
        del keep
        group = np.empty_like(ranks)
        group[order] = ranks
        del order, ranks
        self.masses = np.bincount(group, weights=masses)
        self.eligible = np.bincount(group, weights=eligible) > 0


WINDOW_FLOOR = 4096  # fewer rows cost less to sort than the window's NumPy calls
N_BINS = 1024  # value bins over a level's range


def level_quantiles(frozen: tuple[np.ndarray, ...], values: np.ndarray, masses: np.ndarray,
                    alpha: float) -> tuple[float, float]:
    """The (sup, inf) quantiles of the rows (`values`, `masses`), all
    eligible, with the frozen rows `frozen`, a (values, masses, eligible)
    chunk in any order.  A level of `WINDOW_FLOOR` rows or more is read from
    the rows near its crossings (`_windowed`) where they hold both answers,
    any other from the whole table, with the same result."""
    if len(values) >= WINDOW_FLOOR:
        both = _windowed(frozen, values, masses, alpha)
        if both is not None:
            return both
    fv, fm, fe = frozen
    table = ValueMassTable(np.concatenate((values, fv)), np.concatenate((masses, fm)),
                           np.concatenate((np.ones(len(values), dtype=bool), fe)))
    if not table.eligible.any():
        raise ValueError("table has no eligible point")
    return _read(table, alpha, ((values, masses), (fv, fm)))


def _read(table: ValueMassTable, alpha: float, chunks,
          window: tuple[float, float] | None = None) -> tuple[float, float] | None:
    """(sup, inf) over `table`: the groups of all the rows of `chunks`, or
    of a `window` (below, total) of them, the rows in one range of values
    with the float mass `below` under it and `total` in all, which gives None
    unless both crossings and both answers lie in it.

    head[i], the mass below group i, is a float sum of N rows >= 0, within
    γ_N·S of the exact sum, S the total (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 4); within twice that of alpha it is
    summed exactly."""
    v, e, n = table.values, table.eligible, len(table.values)
    head = np.cumsum(np.append(window[0] if window else 0.0, table.masses))
    tol = sum(len(m) for _, m in chunks) * 2.0 ** -52 * (window[1] if window else head[-1])
    lo, hi = head.searchsorted(alpha - tol), head.searchsorted(alpha + tol, "right")
    n_le = n_lt = lo  # the heads <= alpha and < alpha
    if hi > lo:
        edges = v[lo:hi] if hi <= n else np.append(v[lo:], np.nextafter(v[-1], np.inf))
        le, lt = _settle(chunks, edges, alpha)
        n_le, n_lt = n_le + le, n_lt + lt
    sup, inf = n_le - 1, n_lt - 1  # the last group with head <= alpha, and < alpha
    if not window:
        sup, inf = min(sup, n - 1), min(inf, n - 1)
    elif not (0 <= inf and sup < n):
        return None
    sup_in, inf_in = e[:sup + 1].any(), e[inf:].any()  # an eligible point at or past each
    if window and not (sup_in and inf_in):
        return None
    return (float(v[sup - e[sup::-1].argmax()] if sup_in else v[e.argmax()]),
            float(v[inf + e[inf:].argmax()] if inf_in else v[n - 1 - e[::-1].argmax()]))


def _settle(chunks, edges: np.ndarray, alpha: float) -> tuple[int, int]:
    """How many of the exact masses of the rows of `chunks` below each of
    the increasing `edges` are <= alpha, and how many are < alpha.  A mass
    is m·2^(x - 53), m an integer whose halves are below 2^27: per slot
    between two edges and exponent x, bincount and cumsum sum each half
    exactly for fewer than 2^26 rows, and an edge's head is then one integer
    in units of 2^-1126."""
    slots, parts = [], []
    for values, masses in chunks:
        below = values < edges[-1]
        slots.append(edges.searchsorted(values[below], "right"))  # slot j: edges[j-1] <= value
        parts.append(masses[below])
    frac, x = np.frexp(np.concatenate(parts))
    mant = (frac * 2.0 ** 53).astype(np.int64)
    x -= (x0 := int(x.min(initial=0)))
    present = np.bincount(x) > 0  # one column for each exponent that occurs
    n_x = int(present.sum())
    cells = np.concatenate(slots) * n_x + (present.cumsum() - 1)[x]
    hi, lo = (np.bincount(cells, weights=half, minlength=len(edges) * n_x)
              .reshape(len(edges), n_x).cumsum(axis=0) for half in (mant >> 26, mant & 2 ** 26 - 1))
    shifts = (present.nonzero()[0] + (x0 + 1073)).tolist()

    def head(j: int) -> int:
        return sum(((int(a) << 26) + int(b)) << s for a, b, s in zip(hi[j], lo[j], shifts))

    num, den = alpha.as_integer_ratio()
    threshold = (num << 1126) // den
    return (bisect.bisect_right(range(len(edges)), threshold, key=head),
            bisect.bisect_left(range(len(edges)), threshold, key=head))


def _bins(x: np.ndarray, lo: float, scale: float) -> np.ndarray:
    """The bins of the values x >= lo: one monotone map, so tied values share one."""
    x = x - lo
    x *= scale
    return np.minimum(x, N_BINS - 1, out=x).astype(np.int16)  # truncates toward 0


def _windowed(frozen: tuple[np.ndarray, ...], values: np.ndarray, masses: np.ndarray,
              alpha: float) -> tuple[float, float] | None:
    """`level_quantiles` from the rows of the value bins around the
    crossings, or None where they do not hold both answers or the level's
    range cannot be binned.  The frozen rows are binned in place."""
    lo, hi = float(values.min()), float(values.max())
    scale = N_BINS / (hi - lo) if hi > lo else math.inf
    if not 0.0 < scale < math.inf:  # a range past the float range gives 0
        return None
    fv, fm, fe = frozen
    bins = _bins(values, lo, scale)
    inside = ((fv >= lo) & (fv <= hi)).nonzero()[0]  # the frozen rows in [lo, hi]
    fbins = _bins(fv[inside], lo, scale)
    mass = (np.bincount(bins, weights=masses, minlength=N_BINS)
            + np.bincount(fbins, weights=fm[inside], minlength=N_BINS))
    head = np.cumsum(np.append(fm[fv < lo].sum(), mass))  # the mass below each bin
    # the bins of the inf and sup crossings, and one bin on either side
    b0 = max(head[:N_BINS].searchsorted(alpha) - 2, 0)
    b1 = min(head[:N_BINS].searchsorted(alpha, "right"), N_BINS - 1)
    rows = ((bins >= b0) & (bins <= b1)).nonzero()[0]
    frows = inside[(fbins >= b0) & (fbins <= b1)]
    window = ValueMassTable(np.concatenate((values[rows], fv[frows])),
                            np.concatenate((masses[rows], fm[frows])),
                            np.concatenate((np.ones(len(rows), dtype=bool), fe[frows])))
    total = head[N_BINS] + fm[fv > hi].sum()
    return _read(window, alpha, ((values, masses), (fv, fm)), (head[b0], total))
