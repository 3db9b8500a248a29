"""Weighted quantiles over (value, mass) multisets.

The level-k estimator is a quantile of a discrete table: one point per
partition cell, carrying the cell's probability mass and either a freshly
evaluated value (eligible as a quantile candidate) or a value inherited from
a pruned ancestor (mass contributor only).  Both the sup and the inf form of
the definition are read at once by `level_quantiles`, from the rows near the
crossings of a large level where a bound on summation error certifies them,
else from the whole table; on a full subdivision level's table they coincide.
Every table is one sort of its rows and the frozen groups they join.
"""

from __future__ import annotations

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
        # each row's group, in row order: bincount then sums each group
        # sequentially in row order, the order a stable sort would give
        ranks = keep.cumsum()
        del keep
        group = np.empty_like(ranks)
        group[order] = ranks
        del order, ranks
        self.masses = np.bincount(group, weights=masses)
        self.eligible = np.bincount(group, weights=eligible) > 0


def joined(rows, values, masses, eligible, frozen: ValueMassTable | None,
           groups: slice = slice(None)) -> tuple[np.ndarray, ...]:
    """The columns of the table of the `rows` (a mask, indices or a slice) of
    `values`, `masses` and `eligible` (None for all eligible), placed first,
    then the `groups` of `frozen`.  The constructor sums a tie in row order:
    its mass is the rows' sum plus the frozen group's, where the group first
    would give (f + r1) + r2, which can round otherwise."""
    fv, fm, fe = (column[groups] for column in _columns(frozen))
    values, masses = np.concatenate((values[rows], fv)), np.concatenate((masses[rows], fm))
    head = np.ones(len(values) - len(fv), dtype=bool) if eligible is None else eligible[rows]
    return values, masses, np.concatenate((head, fe))


def _columns(frozen: ValueMassTable | None) -> tuple[np.ndarray, ...]:
    """`frozen`'s values, masses and eligibility, empty for None."""
    return ((np.empty(0), np.empty(0), np.empty(0, dtype=bool)) if frozen is None
            else (frozen.values, frozen.masses, frozen.eligible))


WINDOW_FLOOR = 4096  # fewer rows cost less to sort than the window's NumPy calls
N_BINS = 1024  # value bins over a level's range


def level_quantiles(frozen: ValueMassTable | None, values: np.ndarray, masses: np.ndarray,
                    alpha: float) -> tuple[float, float]:
    """The (sup, inf) quantiles of the rows (`values`, `masses`), all
    eligible, joined to `frozen`.  A level of `WINDOW_FLOOR` rows or more is
    read from the rows near its crossings where that is certified
    (`_windowed`), any other from the whole table, with the same result."""
    if len(values) >= WINDOW_FLOOR:
        both = _windowed(frozen, values, masses, alpha)
        if both is not None:
            return both
    return _read(ValueMassTable(*joined(slice(None), values, masses, None, frozen)), alpha)


def _crossings(masses: np.ndarray, alpha: float, above: float, below: float):
    """tail[i], `above` + the mass at and above point i; head[i], `below` +
    the mass below it; the last i whose tail reaches 1 - alpha and the last
    whose head does not reach alpha."""
    tail, head = np.zeros(len(masses) + 1), np.zeros(len(masses) + 1)
    masses[::-1].cumsum(out=tail[:-1][::-1])
    masses.cumsum(out=head[1:])
    tail += above
    head += below
    return tail, head, np.count_nonzero(tail >= 1.0 - alpha) - 1, np.count_nonzero(head < alpha) - 1


def _read(table: ValueMassTable, alpha: float, above: float = 0.0, below: float = 0.0,
          tol: float | None = None) -> tuple[float, float] | None:
    """sup{v eligible : mass of {value >= v} >= 1 - alpha}, else the least
    eligible v, and inf{v eligible : mass of {value <= v} >= alpha}, else the
    greatest, over `table` and the mass `above` and `below` its values.
    Without `tol`, `table` is whole; with it, a window of a larger table, and
    the pair is None unless both answers lie in it and every sum that decides
    clears 1 - alpha or alpha by more than `tol`."""
    v, e = table.values, table.eligible
    tail, head, last, first = _crossings(table.masses, alpha, above, below)
    sup_in, inf_in = e[:last + 1].any(), e[first:].any()  # an eligible point at or past each
    if tol is None:
        if not e.any():
            raise ValueError("table has no eligible point")
    elif not (0 <= last < len(v) and 0 <= first < len(v) and sup_in and inf_in
              and min(tail[last] - (1.0 - alpha), (1.0 - alpha) - tail[last + 1],
                      head[first + 1] - alpha, alpha - head[first]) > tol):
        return None
    return (float(v[last - e[last::-1].argmax()] if sup_in else v[e.argmax()]),
            float(v[first + e[first:].argmax()] if inf_in else v[len(e) - 1 - e[::-1].argmax()]))


def _bins(x: np.ndarray, lo: float, scale: float) -> np.ndarray:
    """The bins of the values x >= lo: one monotone map, so tied values share one."""
    x = x - lo
    x *= scale
    return np.minimum(x, N_BINS - 1, out=x).astype(np.int16)  # truncates toward 0


def _windowed(frozen: ValueMassTable | None, values: np.ndarray, masses: np.ndarray,
              alpha: float) -> tuple[float, float] | None:
    """`level_quantiles` from the rows of the value bins around the
    crossings, or None where it is not certified.  A sum here and the whole
    table's cumulative sum add the same N masses >= 0 in other orders, each
    within γ_N·S of the exact sum, S the total (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 4).  The sums at the
    crossings and past them must clear 1 - alpha or alpha by twice that, so
    that both tables decide alike."""
    lo, hi = float(values.min()), float(values.max())
    scale = N_BINS / (hi - lo) if hi > lo else math.inf
    if not 0.0 < scale < math.inf:  # a range past the float range gives 0
        return None
    fv, fm, _ = _columns(frozen)
    i0, i1 = fv.searchsorted(lo), fv.searchsorted(hi, "right")
    bins, fbins = _bins(values, lo, scale), _bins(fv[i0:i1], lo, scale)
    mass = np.bincount(bins, weights=masses, minlength=N_BINS)
    mass += np.bincount(fbins, weights=fm[i0:i1], minlength=N_BINS)
    # the bins of the sup and inf crossings, and one bin on either side
    tail, head, sup_bin, inf_bin = _crossings(mass, alpha, fm[i1:].sum(), fm[:i0].sum())
    b0, b1 = max(min(sup_bin, inf_bin) - 1, 0), min(max(sup_bin, inf_bin) + 1, N_BINS - 1)
    rows = ((bins >= b0) & (bins <= b1)).nonzero()[0]
    if not len(rows):
        return None
    j0, j1 = i0 + fbins.searchsorted(b0), i0 + fbins.searchsorted(b1, "right")
    window = ValueMassTable(*joined(rows, values, masses, None, frozen, slice(j0, j1)))
    # twice γ_N·S, with room for the rounding of S and of the comparisons
    tol = (len(values) + len(fv)) * 2.0 ** -51 * (tail[0] + head[0])
    return _read(window, alpha, tail[b1 + 1], head[b0], tol)
