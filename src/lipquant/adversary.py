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
SLOPE_BOOST_D1 = 4.0


def _slope_threshold_d2(d: int = 2) -> float:
    return 5.0 ** (1.0 / d) / (6.0 ** (1.0 / d) - 5.0 ** (1.0 / d))


#: twice the proof's lower threshold on the bump slope (strictness margin)
SLOPE_BOOST_D2 = 2.0 * _slope_threshold_d2()


@dataclass(frozen=True)
class AdversaryD2:
    query_points: np.ndarray   # (N, 2)
    level: int                 # subdivision level j with 3^j >= 3N
    tilde_cols: tuple[int, ...]  # free middle-column cells (x2 indices)
    slope_boost: float
    f_bar: Callable[[np.ndarray], np.ndarray]
    f_tilde: Callable[[np.ndarray], np.ndarray]
    claimed_gap: float


@dataclass(frozen=True)
class AdversaryD1:
    query_points: np.ndarray   # (N,) or (N, 1)
    rho: float
    intervals: tuple[tuple[float, float], ...]  # components of the chosen I0
    slope_boost: float
    f_bar: Callable[[np.ndarray], np.ndarray]
    f_tilde: Callable[[np.ndarray], np.ndarray]
    claimed_gap: float


def build_adversary_d2(
    query_points: np.ndarray, slope_boost: float = SLOPE_BOOST_D2
) -> AdversaryD2:
    """Median-fooling pair in d = 2: f_bar(x) = x1, alpha = 1/2, X uniform.

    At the smallest level j with 3^j >= 3N, the middle column of cells meets
    the hyperplane x1 = 1/2; at least 2N of them contain no query point.
    f_tilde adds a tent of slope `slope_boost` (sup-norm distance to the cell
    complement) on each free cell, which vanishes on cell boundaries and at
    every query.
    """
    q = np.atleast_2d(np.asarray(query_points, dtype=float))
    if q.shape[1] != 2:
        raise ValueError(f"query points must have 2 columns, got {q.shape}")
    n = q.shape[0]
    if slope_boost <= _slope_threshold_d2():
        raise ValueError(f"slope_boost must exceed {_slope_threshold_d2():.4f}")
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
    free = tuple(i for i in range(m) if i not in hit)
    if len(free) < 2 * n:
        raise AssertionError("pigeonhole failure: expected >= 2N free cells")

    free_arr = np.array(free)
    lboost = float(slope_boost)

    def f_bar(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[:, 0]

    def f_tilde(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)
        base = t[:, 0].copy()
        i1 = np.minimum((t[:, 0] * m).astype(int), m - 1)
        i2 = np.minimum((t[:, 1] * m).astype(int), m - 1)
        inside = (i1 == mid) & np.isin(i2, free_arr)
        if np.any(inside):
            x1 = t[inside, 0]
            x2 = t[inside, 1]
            lo1 = mid / m
            lo2 = i2[inside] / m
            tent = np.minimum(
                np.minimum(x1 - lo1, lo1 + 1.0 / m - x1),
                np.minimum(x2 - lo2, lo2 + 1.0 / m - x2),
            )
            base[inside] += lboost * np.maximum(tent, 0.0)
        return base

    return AdversaryD2(
        query_points=q,
        level=j,
        tilde_cols=free,
        slope_boost=lboost,
        f_bar=f_bar,
        f_tilde=f_tilde,
        claimed_gap=GAP_CONSTANT_D2 / n,
    )


def build_adversary_d1(
    query_points: np.ndarray,
    rho: float = RHO_D1,
    slope_boost: float = SLOPE_BOOST_D1,
) -> AdversaryD1:
    """Median-fooling pair in d = 1: f_bar(x) = x, alpha = 1/2, X uniform.

    N + 1 disjoint candidate regions shrink geometrically toward 1/2: the
    central interval of width rho^N and, for j = 1..N, the symmetric pair at
    distance ~rho^j from 1/2.  N queries cannot touch the interior of all of
    them; f_tilde adds a tent of slope `slope_boost` on one free region.
    """
    q = np.asarray(query_points, dtype=float).reshape(-1)
    n = q.size
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    if slope_boost <= (1.0 + rho) / (1.0 - rho):
        raise ValueError(f"slope_boost must exceed {(1 + rho) / (1 - rho):.4f}")

    def region(j: int) -> tuple[tuple[float, float], ...]:
        if j == n + 1:
            return ((0.5 * (1 - rho ** n), 0.5 * (1 + rho ** n)),)
        return (
            (0.5 * (1 - rho ** (j - 1)), 0.5 * (1 - rho ** j)),
            (0.5 * (1 + rho ** j), 0.5 * (1 + rho ** (j - 1))),
        )

    chosen = None
    # prefer the central interval: it carries the smallest margin over the
    # claimed gap, making the verification as strict as possible
    for j in range(n + 1, 0, -1):
        parts = region(j)
        if not any(lo < x < hi for x in q for lo, hi in parts):
            chosen = parts
            break
    if chosen is None:
        raise AssertionError("pigeonhole failure: some region must be query-free")

    lboost = float(slope_boost)
    parts = tuple(chosen)

    def f_bar(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[:, 0]

    def f_tilde(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)[:, 0]
        out = t.copy()
        for lo, hi in parts:
            tent = np.maximum(np.minimum(t - lo, hi - t), 0.0)
            out += lboost * tent
        return out

    return AdversaryD1(
        query_points=q,
        rho=rho,
        intervals=parts,
        slope_boost=lboost,
        f_bar=f_bar,
        f_tilde=f_tilde,
        claimed_gap=GAP_CONSTANT_D1 * rho ** n,
    )


@dataclass(frozen=True)
class SeparationReport:
    n_queries: int
    agreement_residual: float  # max |f_tilde - f_bar| over the queries
    quantile_bar: float        # analytic: 1/2 for both constructions
    quantile_tilde: float      # measured by the grid oracle
    measured_gap: float
    claimed_gap: float
    estimator_error_lower_bound: float  # claimed_gap / 2
    passed: bool


def verify_separation(
    adv: AdversaryD1 | AdversaryD2, resolution: int | None = None
) -> SeparationReport:
    """Check exact agreement at the queries and the claimed quantile gap.

    The f_bar median is 1/2 analytically in both constructions; the f_tilde
    quantile comes from the grid oracle (independent of the main algorithm).
    For d = 2 the grid resolution is aligned to the construction's cells so
    the tents are sampled without smearing.
    """
    if isinstance(adv, AdversaryD2):
        dim = 2
        queries = adv.query_points
        if resolution is None:
            m = 3 ** adv.level
            resolution = m * max(1, round(4500 / m))
    else:
        dim = 1
        queries = adv.query_points[:, None]
        if resolution is None:
            resolution = 10 ** 6

    residual = float(np.max(np.abs(adv.f_tilde(queries) - adv.f_bar(queries))))
    problem = TestProblem(
        name="adversary_tilde",
        f=adv.f_tilde,
        dim=dim,
        lipschitz=adv.slope_boost + 1.0,
        measure=uniform_cube(dim),
        alpha=0.5,
    )
    q_tilde = brute_force_quantile(problem, resolution)
    gap = q_tilde - 0.5
    return SeparationReport(
        n_queries=len(adv.query_points),
        agreement_residual=residual,
        quantile_bar=0.5,
        quantile_tilde=q_tilde,
        measured_gap=gap,
        claimed_gap=adv.claimed_gap,
        estimator_error_lower_bound=adv.claimed_gap / 2.0,
        passed=(residual == 0.0) and (gap >= adv.claimed_gap),
    )
