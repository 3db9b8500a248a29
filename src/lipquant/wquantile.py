"""Weighted quantiles over (value, mass) multisets.

The level-k estimator is a quantile of a discrete table: one point per
partition cell, carrying the cell's probability mass and either a freshly
evaluated value (eligible as a quantile candidate) or a value inherited from
a pruned ancestor (mass contributor only).  Both the sup and the inf form of
the definition are provided; on tables coming from a full subdivision level
they coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MassPoint:
    value: float
    mass: float
    eligible: bool = True

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError(f"mass must be >= 0, got {self.mass}")


class ValueMassTable:
    """Immutable table of mass points, pre-merged on equal values."""

    def __init__(self, values, masses, eligible):
        values = np.asarray(values, dtype=float)
        masses = np.asarray(masses, dtype=float)
        eligible = np.asarray(eligible, dtype=bool)
        if values.size == 0:
            raise ValueError("empty table")
        order = np.argsort(values, kind="stable")
        values, masses, eligible = values[order], masses[order], eligible[order]
        # merge ties: mass sums, eligibility is or-ed
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        keep[1:] = values[1:] != values[:-1]
        group = np.cumsum(keep) - 1
        self.values = values[keep]
        # bincount sums each group sequentially in index order
        self.masses = np.bincount(group, weights=masses)
        self.eligible = np.bincount(group, weights=eligible) > 0

    @classmethod
    def from_points(cls, points: list[MassPoint]) -> "ValueMassTable":
        return cls(
            [p.value for p in points],
            [p.mass for p in points],
            [p.eligible for p in points],
        )

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


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
