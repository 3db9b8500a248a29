"""Weighted quantiles over (value, mass) multisets.

The level-k estimator is a quantile of a discrete table: one point per
partition cell, carrying the cell's probability mass and either a freshly
evaluated value (eligible as a quantile candidate) or a value inherited from
a pruned ancestor (mass contributor only).  Both the sup and the inf form of
the definition are provided; on tables coming from a full subdivision level
they coincide.
"""

from __future__ import annotations

import numpy as np


def _check_masses(masses: np.ndarray) -> None:
    if masses.size == 0:
        raise ValueError("empty table")
    if not masses.min() >= 0:  # so that NaN fails too
        raise ValueError(f"masses must be >= 0, got {masses[~(masses >= 0)][0]}")


class ValueMassTable:
    """Immutable table of mass points, sorted by value and merged on ties."""

    def __init__(self, values, masses, eligible):
        values = np.asarray(values, dtype=float)
        masses = np.asarray(masses, dtype=float)
        eligible = np.asarray(eligible, dtype=bool)
        if not (values.ndim == 1 and values.shape == masses.shape == eligible.shape):
            raise ValueError(f"values, masses and eligible must be 1-D of one length, got "
                             f"shapes {values.shape}, {masses.shape} and {eligible.shape}")
        _check_masses(masses)
        order = np.argsort(values)
        ordered = values[order]
        if np.isnan(ordered[-1]):  # sorted last
            raise ValueError("values must not be NaN")
        # merge ties: mass sums, eligibility is or-ed
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        starts = np.flatnonzero(keep)
        self.values = ordered[starts]
        del ordered
        # tied values are bitwise equal, but for the signs of zero: keep the
        # first row's, as a stable sort would
        zero = np.flatnonzero(self.values == 0)
        if len(zero):
            self.values[zero] = values[np.argmax(values == 0)]
        if eligible.all():
            self.eligible = np.ones(len(starts), dtype=bool)
        else:
            self.eligible = np.logical_or.reduceat(eligible[order], starts)
        # each row's group, in row order: bincount then sums each group
        # sequentially in row order, the order a stable sort would give
        ranks = keep.astype(np.int64)  # numpy sums int64 faster than bools
        np.cumsum(ranks, out=ranks)
        ranks -= 1
        group = np.empty(values.size, dtype=np.int64)
        group[order] = ranks
        del order, ranks
        self.masses = np.bincount(group, weights=masses)
        # the rows' values and groups, from which `take` builds a sub-table
        self.row_values, self.row_group = values, group

    def take(self, rows: np.ndarray, masses, eligible) -> "ValueMassTable":
        """The table of the rows `rows` of the values this table was built
        from (it must not be a merged table), with masses `masses` and
        eligibility `eligible`: `ValueMassTable(values[rows], masses,
        eligible)`, bit for bit, but built from this table's groups with no
        second sort.  Each group's masses are summed in the order of `rows`,
        its eligibility is or-ed, and a zero takes the sign of the first of
        `rows` that holds it.
        """
        masses = np.asarray(masses, dtype=float)
        _check_masses(masses)
        group = self.row_group[rows]
        present = np.zeros(len(self.values), dtype=bool)
        present[group] = True
        out = object.__new__(ValueMassTable)
        out.values = self.values[present]
        zero = np.flatnonzero(self.values == 0)  # one group at most
        if len(zero) and present[zero[0]]:
            first = rows[np.argmax(group == zero[0])]
            out.values[np.count_nonzero(present[:zero[0]])] = self.row_values[first]
        out.masses = np.bincount(group, weights=masses, minlength=len(self.values))[present]
        hit = np.zeros(len(self.values), dtype=bool)
        hit[group[np.asarray(eligible, dtype=bool)]] = True
        out.eligible = hit[present]
        return out

    def merge(self, other: "ValueMassTable") -> "ValueMassTable":
        """The table of both tables' points, without sorting them again.

        Each of `other`'s values is placed by one `searchsorted` into this
        table: O(len(self) + len(other) * log len(self)).  A value in both
        tables keeps one row, whose mass is the sum of the two rows' masses
        and whose eligibility is or-ed.
        """
        pos = np.searchsorted(self.values, other.values)
        tied = np.zeros(len(pos), dtype=bool)
        inside = pos < len(self.values)
        tied[inside] = self.values[pos[inside]] == other.values[inside]
        new = ~tied
        # other's row j lands after the self rows below it and the new other
        # rows before it; a tied row lands on its self row
        at = pos + np.cumsum(new) - new
        mine = np.ones(len(self.values) + int(new.sum()), dtype=bool)
        mine[at[new]] = False
        out = object.__new__(ValueMassTable)
        out.values = np.empty(len(mine))
        out.values[mine] = self.values
        out.values[at] = other.values
        out.masses = np.zeros(len(mine))
        out.masses[mine] = self.masses
        out.masses[at] += other.masses
        out.eligible = np.zeros(len(mine), dtype=bool)
        out.eligible[mine] = self.eligible
        out.eligible[at] |= other.eligible
        return out


def weighted_quantile_sup(table: ValueMassTable, alpha: float) -> float:
    """sup{ v eligible : mass of {value >= v} >= 1 - alpha }.

    The mass sum runs over all points; only eligible values may be returned.
    If no eligible value qualifies, returns the minimum eligible value.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    v, m, e = table.values, table.masses, table.eligible
    if not np.any(e):
        raise ValueError("table has no eligible point")
    tail = np.cumsum(m[::-1])[::-1]  # tail[i] = mass of values >= v[i]
    ok = e & (tail >= 1.0 - alpha)
    if np.any(ok):
        return float(v[np.flatnonzero(ok)[-1]])
    return float(v[np.flatnonzero(e)[0]])


def weighted_quantile_inf(table: ValueMassTable, alpha: float) -> float:
    """inf{ v eligible : mass of {value <= v} >= alpha }."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    v, m, e = table.values, table.masses, table.eligible
    if not np.any(e):
        raise ValueError("table has no eligible point")
    head = np.cumsum(m)
    ok = e & (head >= alpha)
    if np.any(ok):
        return float(v[np.flatnonzero(ok)[0]])
    return float(v[np.flatnonzero(e)[-1]])
