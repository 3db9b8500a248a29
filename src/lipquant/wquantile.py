"""Weighted quantiles over (value, mass) multisets.

The level-k estimator is a quantile of a discrete table: one point per
partition cell, carrying the cell's probability mass and either a freshly
evaluated value (eligible as a quantile candidate) or a value inherited from
a pruned ancestor (mass contributor only).  Both the sup and the inf form of
the definition are provided; on tables coming from a full subdivision level
they coincide.
"""

from __future__ import annotations

import math

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
        # each row's group, in row order (`take` reads it): bincount then sums
        # each group sequentially in row order, the order a stable sort would
        # give.  int32 ids take half the memory of int64 ones while they cannot wrap
        ids = np.int32 if values.size < 2 ** 31 else np.int64
        ranks = keep.cumsum(dtype=ids)
        del keep
        self.row_group = np.empty(values.size, dtype=ids)
        self.row_group[order] = ranks
        del order, ranks
        self.masses = np.bincount(self.row_group, weights=masses)

    def take(self, rows: np.ndarray, masses, eligible) -> "ValueMassTable":
        """The table of the rows `rows` of the values this table was built
        from (it must not be a merged table), with masses `masses` and
        eligibility `eligible`: `ValueMassTable(values[rows], masses,
        eligible)`, bit for bit, but built from this table's groups with no
        second sort.  Each group's masses are summed in the order of `rows`,
        and its eligibility is or-ed.
        """
        masses = np.asarray(masses, dtype=float)
        _check_masses(masses)
        group = self.row_group.take(rows)
        present = np.zeros(len(self.values), dtype=bool)
        present[group] = True
        out = object.__new__(ValueMassTable)
        out.values = self.values[present]
        out.masses = np.bincount(group, weights=masses, minlength=len(self.values))[present]
        hit = np.zeros(len(self.values), dtype=bool)
        hit[group[eligible]] = True  # refuses an `eligible` of another length
        out.eligible = hit[present]
        return out

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
