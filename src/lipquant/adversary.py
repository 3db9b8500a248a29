"""Worst-case constructions proving the convergence rates are optimal.

Given any N query points, these build a pair of Lipschitz functions that
agree exactly on every query yet whose medians under the uniform law differ
by C * N^{-1/(d-1)} (d = 2) or C * rho^N (d = 1).  No algorithm seeing only
the queried values can distinguish the pair, so its worst-case error is at
least half the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import uniform_cube
from .problems import TestProblem, brute_force_quantile

#: claimed gap constant C = 1/(12 (3^{d-1}-1) 3^{1/(d-1)}) for d = 2
GAP_CONSTANT_D2 = 1.0 / 72.0
#: claimed d = 1 constants: gap C * rho^N with C just below 1/18
GAP_CONSTANT_D1 = (1.0 / 18.0) * (1.0 - 1e-6)
RHO_D1 = 0.5
#: the d = 1 tent slope, above the proof's threshold (1 + rho) / (1 - rho) = 3
SLOPE_BOOST_D1 = 4.0
#: the d = 2 tent slope: twice the proof's lower threshold
#: sqrt(5) / (sqrt(6) - sqrt(5)), a margin for strictness
SLOPE_BOOST_D2 = 2.0 * (5.0 ** 0.5 / (6.0 ** 0.5 - 5.0 ** 0.5))


def f_bar(x: np.ndarray) -> np.ndarray:
    """The first function of each pair, f_bar(x) = x1: its median under the
    uniform law is 1/2."""
    return np.asarray(x, dtype=float)[:, 0]


@dataclass(frozen=True)
class Adversary:
    """A median-fooling pair (`f_bar`, `f_tilde`) for the queries `query_points`.

    f_tilde is f_bar plus a tent of slope `lipschitz - 1` on each box of
    `tents` (one (lo, hi) per axis), which is 0 outside the box's interior,
    where no query lies.  `resolution` is the grid on which the builder knows
    the grid oracle samples the tents without smearing.
    """

    query_points: np.ndarray  # (N, d)
    tents: tuple[tuple[tuple[float, float], ...], ...]
    f_tilde: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    resolution: int
    claimed_gap: float


def build_adversary_d2(query_points: np.ndarray) -> Adversary:
    """Median-fooling pair in d = 2: f_bar(x) = x1, alpha = 1/2, X uniform.

    At the smallest level j with 3^j >= 3N, the middle column of cells meets
    the hyperplane x1 = 1/2; at least 2N of them contain no query point.
    f_tilde adds a tent of slope `SLOPE_BOOST_D2` (sup-norm distance to the
    cell complement) on each free cell, which vanishes on cell boundaries and
    at every query.
    """
    q = np.atleast_2d(np.asarray(query_points, dtype=float))
    if q.shape[1] != 2:
        raise ValueError(f"query points must have 2 columns, got {q.shape}")
    n = q.shape[0]
    j = 1
    while 3 ** j < 3 * n:
        j += 1
    m = 3 ** j
    mid = (m - 1) // 2  # the column of cells straddling x1 = 1/2

    # x2 indices of middle-column cells containing a query in their interior
    hit = set()
    for x1, x2 in q:
        i1 = min(int(x1 * m), m - 1)
        i2 = min(int(x2 * m), m - 1)
        if i1 == mid:
            hit.add(i2)
        # a query on the shared edge of two cells lies in both closures,
        # but the tent vanishes there, so only the containing cell matters
    free = [i for i in range(m) if i not in hit]
    if len(free) < 2 * n:
        raise AssertionError("pigeonhole failure: expected >= 2N free cells")

    free_col = np.zeros(m, dtype=bool)  # middle-column cells that carry a tent
    free_col[free] = True

    def f_tilde(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)
        base = t[:, 0].copy()
        i1 = np.minimum((t[:, 0] * m).astype(int), m - 1)
        i2 = np.minimum((t[:, 1] * m).astype(int), m - 1)
        inside = (i1 == mid) & free_col[i2]
        if np.any(inside):
            x1 = t[inside, 0]
            x2 = t[inside, 1]
            lo1 = mid / m
            lo2 = i2[inside] / m
            tent = np.minimum(
                np.minimum(x1 - lo1, lo1 + 1.0 / m - x1),
                np.minimum(x2 - lo2, lo2 + 1.0 / m - x2),
            )
            base[inside] += SLOPE_BOOST_D2 * np.maximum(tent, 0.0)
        return base

    tents = tuple(((mid / m, (mid + 1) / m), (i / m, (i + 1) / m)) for i in free)
    # a grid aligned to the cells, so that each cell holds whole grid cells
    return Adversary(q, tents, f_tilde, SLOPE_BOOST_D2 + 1.0, m * max(1, round(4500 / m)),
                     GAP_CONSTANT_D2 / n)


def build_adversary_d1(query_points: np.ndarray) -> Adversary:
    """Median-fooling pair in d = 1: f_bar(x) = x, alpha = 1/2, X uniform.

    N + 1 disjoint candidate regions shrink geometrically toward 1/2: the
    central interval of width rho^N and, for j = 1..N, the symmetric pair at
    distance ~rho^j from 1/2, with rho = `RHO_D1`.  N queries cannot touch
    the interior of all of them; f_tilde adds a tent of slope
    `SLOPE_BOOST_D1` on one free region.
    """
    q = np.asarray(query_points, dtype=float).reshape(-1, 1)
    n, rho = len(q), RHO_D1

    def region(j: int) -> tuple[tuple[float, float], ...]:
        if j == n + 1:
            return ((0.5 * (1 - rho ** n), 0.5 * (1 + rho ** n)),)
        return (
            (0.5 * (1 - rho ** (j - 1)), 0.5 * (1 - rho ** j)),
            (0.5 * (1 + rho ** j), 0.5 * (1 + rho ** (j - 1))),
        )

    # prefer the central interval: it carries the smallest margin over the
    # claimed gap, making the verification as strict as possible
    for j in range(n + 1, 0, -1):
        parts = region(j)
        if not any(lo < x < hi for x in q[:, 0] for lo, hi in parts):
            break
    else:
        raise AssertionError("pigeonhole failure: some region must be query-free")

    def f_tilde(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)[:, 0]
        out = t.copy()
        for lo, hi in parts:
            tent = np.maximum(np.minimum(t - lo, hi - t), 0.0)
            out += SLOPE_BOOST_D1 * tent
        return out

    return Adversary(q, tuple((part,) for part in parts), f_tilde, SLOPE_BOOST_D1 + 1.0,
                     10 ** 6, GAP_CONSTANT_D1 * rho ** n)


@dataclass(frozen=True)
class SeparationReport:
    agreement_residual: float  # max |f_tilde - f_bar| over the queries
    measured_gap: float        # the f_tilde median, by the grid oracle, minus 1/2
    claimed_gap: float
    passed: bool


def verify_separation(adv: Adversary) -> SeparationReport:
    """Check exact agreement at the queries and the claimed quantile gap.

    The f_bar median is 1/2 analytically in both constructions; the f_tilde
    quantile comes from the grid oracle (independent of the main algorithm)
    at the adversary's `resolution`.
    """
    q = adv.query_points
    residual = float(np.max(np.abs(adv.f_tilde(q) - f_bar(q))))
    problem = TestProblem(name="adversary_tilde", f=adv.f_tilde, lipschitz=adv.lipschitz,
                          measure=uniform_cube(q.shape[1]), alpha=0.5)
    gap = brute_force_quantile(problem, adv.resolution) - 0.5
    return SeparationReport(residual, gap, adv.claimed_gap,
                            passed=residual == 0.0 and gap >= adv.claimed_gap)
