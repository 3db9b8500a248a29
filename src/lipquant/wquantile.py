"""Weighted quantiles over (value, mass) multisets.

The level-k estimator is a quantile of a discrete table: one point per
partition cell, carrying the cell's probability mass and either a freshly
evaluated value (eligible as a quantile candidate) or a value inherited from
a pruned ancestor (mass contributor only).  Both the sup and the inf form of
the definition are provided; on tables coming from a full subdivision level
they coincide.  `windowed_quantiles` gives both for a large level from the
rows near its crossings, or None where the whole table must decide.
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
        if eligible.all():
            self.eligible = np.ones(len(starts), dtype=bool)
        else:
            self.eligible = np.logical_or.reduceat(eligible.take(order), starts)
        # each row's group, in row order: bincount then sums each group
        # sequentially in row order, the order a stable sort would give
        ranks = keep.cumsum()
        del keep
        group = np.empty_like(ranks)
        group[order] = ranks
        del order, ranks
        self.masses = np.bincount(group, weights=masses)

    def merge(self, other: "ValueMassTable") -> "ValueMassTable":
        """The table of both tables' points, without sorting them again.

        Each of `other`'s values is placed by one `searchsorted` into this
        table: O(len(self) + len(other) * log len(self)).  A value in both
        tables keeps one row, whose mass is the sum of the two rows' masses
        and whose eligibility is or-ed.
        """
        pos = self.values.searchsorted(other.values)
        # a value placed past the end is above the last, which it does not tie
        tied = self.values.take(pos, mode="clip") == other.values
        new = ~tied
        at = new.cumsum()
        mine = np.ones(len(self.values) + at[-1], dtype=bool)
        # other's row j lands after the self rows below it and the new other
        # rows before it; a tied row lands on its self row
        at += pos
        at -= new
        mine[at[new]] = False
        out = object.__new__(ValueMassTable)
        out.values = np.empty(len(mine))
        out.values[at] = other.values
        out.values[mine] = self.values
        out.masses = np.zeros(len(mine))
        out.masses[mine] = self.masses
        out.masses[at] += other.masses
        out.eligible = np.zeros(len(mine), dtype=bool)
        out.eligible[mine] = self.eligible
        out.eligible[at] |= other.eligible
        return out


def _check_query(table: ValueMassTable, alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not table.eligible.any():
        raise ValueError("table has no eligible point")


def weighted_quantile_sup(table: ValueMassTable, alpha: float) -> float:
    """sup{ v eligible : mass of {value >= v} >= 1 - alpha }.

    The mass sum runs over all points; only eligible values may be returned.
    If no eligible value qualifies, returns the minimum eligible value.
    """
    _check_query(table, alpha)
    v, m, e = table.values, table.masses, table.eligible
    ok = m[::-1].cumsum()[::-1] >= 1.0 - alpha  # the mass of values >= v[i]
    ok &= e
    last = len(ok) - 1 - ok[::-1].argmax()  # the last ok row, if there is one
    return float(v[last] if ok[last] else v[e.argmax()])


def weighted_quantile_inf(table: ValueMassTable, alpha: float) -> float:
    """inf{ v eligible : mass of {value <= v} >= alpha }."""
    _check_query(table, alpha)
    v, m, e = table.values, table.masses, table.eligible
    ok = m.cumsum() >= alpha
    ok &= e
    first = ok.argmax()  # the first ok row, if there is one
    return float(v[first] if ok[first] else v[len(e) - 1 - e[::-1].argmax()])


WINDOW_FLOOR = 4096  # fewer rows cost less to sort than the window's NumPy calls
N_BINS = 1024  # value bins over a level's range
CHUNK = 65536  # rows binned at a time, so that the bin map's temporaries stay small


def _sums(masses: np.ndarray, above: float, below: float) -> tuple[np.ndarray, np.ndarray]:
    """tail[i], `above` + the mass at and above point i; head[i], `below` + the mass below it."""
    return (np.append(masses[::-1].cumsum()[::-1], 0.0) + above,
            np.append(0.0, masses.cumsum()) + below)


def windowed_quantiles(frozen: ValueMassTable | None, values: np.ndarray, masses: np.ndarray,
                       alpha: float) -> tuple[float, float] | None:
    """(sup, inf) quantiles of `frozen` merged with the table of the rows
    (`values`, `masses`), all eligible, or None where they are not certified.

    Only the rows of the value bins around the crossings are sorted.  A sum
    here and the merged table's cumulative sum add the same N masses >= 0 in
    other orders, each within γ_N·S of the exact sum, S the total (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 4).  The
    sums at the crossings and past them must clear 1 - alpha or alpha by
    twice that, so that both tables decide alike.
    """
    n = len(values)
    if n < WINDOW_FLOOR:
        return None
    lo, hi = float(values.min()), float(values.max())
    scale = N_BINS / (hi - lo) if hi > lo else math.inf
    if not 0.0 < scale < math.inf:  # a range past the float range gives 0
        return None
    # one monotone map of value to bin, so tied values share one
    bins = np.empty(n, dtype=np.int16)
    mass = np.zeros(N_BINS)
    for start in range(0, n, CHUNK):
        chunk = slice(start, start + CHUNK)
        x = values[chunk] - lo
        x *= scale
        np.minimum(x, N_BINS - 1, out=bins[chunk], casting="unsafe")  # truncates toward 0
        mass += np.bincount(bins[chunk], weights=masses[chunk], minlength=N_BINS)
    fv, fm = (np.empty(0), np.empty(0)) if frozen is None else (frozen.values, frozen.masses)
    i0, i1 = fv.searchsorted(lo), fv.searchsorted(hi, "right")
    fbins = np.minimum((fv[i0:i1] - lo) * scale, N_BINS - 1).astype(np.intp)
    mass += np.bincount(fbins, weights=fm[i0:i1], minlength=N_BINS)
    tail, head = _sums(mass, fm[i1:].sum(), fm[:i0].sum())
    # twice γ_N·S, with room for the rounding of S and of the comparisons
    tol = (n + len(fv)) * 2.0 ** -51 * (tail[0] + head[0])
    # the bins of the sup and inf crossings, and one bin on either side
    sup_bin, inf_bin = np.count_nonzero(tail >= 1.0 - alpha) - 1, np.count_nonzero(head < alpha) - 1
    b0, b1 = max(min(sup_bin, inf_bin) - 1, 0), min(max(sup_bin, inf_bin) + 1, N_BINS - 1)
    rows = ((bins >= b0) & (bins <= b1)).nonzero()[0]
    if not len(rows):
        return None
    window = ValueMassTable(values.take(rows), masses.take(rows), np.ones(len(rows), dtype=bool))
    j0, j1 = i0 + fbins.searchsorted(b0), i0 + fbins.searchsorted(b1, "right")
    if j1 > j0:
        window = ValueMassTable(fv[j0:j1], fm[j0:j1], frozen.eligible[j0:j1]).merge(window)
    v, e = window.values, window.eligible
    tail, head = _sums(window.masses, tail[b1 + 1], head[b0])
    # the last group whose tail reaches 1 - alpha, the first whose head does alpha
    last, first = np.count_nonzero(tail >= 1.0 - alpha) - 1, np.count_nonzero(head < alpha) - 1
    if not (0 <= last < len(v) and 0 <= first < len(v)
            and min(tail[last] - (1.0 - alpha), (1.0 - alpha) - tail[last + 1],
                    head[first + 1] - alpha, alpha - head[first]) > tol
            and e[:last + 1].any() and e[first:].any()):
        return None
    return float(v[last - e[last::-1].argmax()]), float(v[first + e[first:].argmax()])
