"""Worst-case constructions proving the convergence rates are optimal.

Given any N query points, these build a pair of Lipschitz functions that
agree exactly on every query yet whose medians under the uniform law differ
by C * N^{-1/(d-1)} (d = 2) or C * rho^N (d = 1).  No algorithm seeing only
the queried values can distinguish the pair, so its worst-case error is at
least half the gap, which `verify_separation` checks by exact mass, with no grid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

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
#: the most queries of a d = 1 construction: up to N = 52 every region end
#: 1/2 +- rho^j / 2 is an exact double; at N = 53, 1 + rho^N rounds to 1
MAX_QUERIES_D1 = 52


def f_bar(x: np.ndarray) -> np.ndarray:
    """The first function of each pair, f_bar(x) = x1: its median under the
    uniform law is 1/2."""
    return np.asarray(x, dtype=float)[:, 0]


@dataclass(frozen=True)
class Adversary:
    """A median-fooling pair (`f_bar`, `f_tilde`) for the queries `query_points`.

    `tents` holds boxes (one (lo, hi) per axis), disjoint along the last axis,
    whose interiors hold no query.
    """

    query_points: np.ndarray  # (N, d)
    tents: tuple[tuple[tuple[float, float], ...], ...]
    lipschitz: float
    claimed_gap: float

    def f_tilde(self, x: np.ndarray) -> np.ndarray:
        """f_bar plus, on each box of `tents`, a tent of slope `lipschitz - 1`
        in the sup-norm distance to the box's complement: 0 on and outside
        the box's faces, so f_tilde = f_bar at every query."""
        x = np.asarray(x, dtype=float)
        lo, hi = np.array(sorted(self.tents, key=lambda b: b[-1])).T  # (d, boxes) each
        out = x[:, 0].copy()
        # the points inside the boxes' hull, and the one box that can hold each
        i = np.flatnonzero(np.logical_and.reduce(
            [(c > l.min()) & (c < h.max()) for c, l, h in zip(x.T, lo, hi)]))
        k = np.searchsorted(lo[-1], x[i, -1]) - 1
        tent = np.min([np.minimum(c - l[k], h[k] - c) for c, l, h in zip(x[i].T, lo, hi)], axis=0)
        out[i] += (self.lipschitz - 1.0) * np.maximum(tent, 0.0)
        return out


def _queries(query_points: np.ndarray, dim: int) -> np.ndarray:
    """The queries as an (N, dim) array, refused by name unless non-empty and in [0,1]^dim."""
    q = np.asarray(query_points, dtype=float)
    q = q[:, None] if dim == 1 and q.ndim == 1 else np.atleast_2d(q)
    if q.ndim != 2 or q.shape[1] != dim or q.shape[0] == 0:
        raise ValueError(f"query points must be a non-empty (N, {dim}) array, got shape {q.shape}")
    outside = q[~np.all((q >= 0.0) & (q <= 1.0), axis=1)]  # NaN included
    if outside.size:
        raise ValueError(f"query points must lie in [0,1]^{dim}, got {outside[0].tolist()}")
    return q


def build_adversary_d2(query_points: np.ndarray) -> Adversary:
    """Median-fooling pair in d = 2: f_bar(x) = x1, alpha = 1/2, X uniform.

    At the smallest level j with 3^j >= 3N, the middle column of cells meets
    the hyperplane x1 = 1/2; at least 2N of them contain no query point, and
    each of those is a tent box of slope `SLOPE_BOOST_D2`.
    """
    q = _queries(query_points, 2)
    n, m = q.shape[0], 3
    while m < 3 * n:
        m *= 3
    mid = (m - 1) // 2  # the column of cells straddling x1 = 1/2
    # each query's cell [i/m, (i+1)/m) per axis by the bounds `tents` holds (the
    # floor of x * m can round across one); a tent vanishes on a shared edge
    i1, i2 = np.minimum(np.searchsorted(np.arange(m + 1) / m, q, side="right") - 1, m - 1).T
    free = np.setdiff1d(np.arange(m), i2[i1 == mid]).tolist()
    if len(free) < 2 * n:
        raise AssertionError("pigeonhole failure: expected >= 2N free cells")
    tents = tuple(((mid / m, (mid + 1) / m), (i / m, (i + 1) / m)) for i in free)
    return Adversary(q, tents, SLOPE_BOOST_D2 + 1.0, GAP_CONSTANT_D2 / n)


def build_adversary_d1(query_points: np.ndarray) -> Adversary:
    """Median-fooling pair in d = 1: f_bar(x) = x, alpha = 1/2, X uniform.

    N + 1 disjoint candidate regions shrink geometrically toward 1/2: the
    central interval of width rho^N and, for j = 1..N, the symmetric pair at
    distance ~rho^j from 1/2, with rho = `RHO_D1`.  N <= `MAX_QUERIES_D1`
    queries cannot touch the interior of all of them; the tent boxes, of
    slope `SLOPE_BOOST_D1`, are one free region.
    """
    q = _queries(query_points, 1)
    n, rho, x = len(q), RHO_D1, q[:, 0]
    if n > MAX_QUERIES_D1:
        raise ValueError(f"d = 1 takes at most MAX_QUERIES_D1 = {MAX_QUERIES_D1} queries, got {n}")
    regions = [((0.5 * (1 - rho ** (j - 1)), 0.5 * (1 - rho ** j)),
                (0.5 * (1 + rho ** j), 0.5 * (1 + rho ** (j - 1)))) for j in range(1, n + 1)]
    regions.append(((0.5 * (1 - rho ** n), 0.5 * (1 + rho ** n)),))
    # the central interval first (its gap is 12.5 times the claim), then the
    # pairs outward from 1/2; the nearest pair has the least margin, 1.57 times
    for parts in reversed(regions):
        if not any(np.any((lo < x) & (x < hi)) for lo, hi in parts):
            break
    else:
        raise AssertionError("pigeonhole failure: some region must be query-free")
    return Adversary(q, tuple(zip(parts)), SLOPE_BOOST_D1 + 1.0, GAP_CONSTANT_D1 * rho ** n)


@dataclass(frozen=True)
class SeparationReport:
    agreement_residual: float  # max |f_tilde - f_bar| over the queries
    measured_gap: float        # by exact mass, the greatest double g with median >= 1/2 + g
    claimed_gap: float
    passed: bool


def verify_separation(adv: Adversary) -> SeparationReport:
    """Check exact agreement at the queries and the claimed quantile gap, by
    f_tilde's exact mass, with no grid and no call of the engine.

    The f_bar median is 1/2.  `measured_gap` is the greatest double g with
    mass{f_tilde < t} <= 1/2 at t = 1/2 + g, found by halving g in [0, 1/2]
    with t kept exact, so `passed` is exact.  As f_tilde >= x1, that mass is
    t - vol{x : x1 < t <= f_tilde(x)}, a sum over the boxes.  With s = L - 1,
    a box of x1-range (a, b) and widths w_i across has f_tilde >= t at x1 < t
    where its cross-section, shrunk by (t - x1) / s on every face, is not
    empty: for x1 in [lo, hi] below, of area prod_i (w_i - 2 (t - x1) / s),
    linear in x1 for d <= 2, so that the midpoint rule integrates it exactly.
    Boxes of one x1-range and exact widths hold equal volumes: they are
    grouped on a float key that is exact, each width hi - lo as its Fast2Sum
    pair (w, (hi - w) - lo), w = fl(hi - lo), whose sum is hi - lo exactly
    as 0 <= lo <= hi (Dekker 1971), and only the distinct keys become
    `Fraction`s.
    """
    from fractions import Fraction  # here, so that `import lipquant` does not load it

    q, s = adv.query_points, Fraction(adv.lipschitz - 1.0)
    if q.shape[1] > 2 or s <= 1:
        raise ValueError(f"exact mass needs d <= 2 and L > 2, got {q.shape[1]}, {adv.lipschitz}")
    residual = float(np.max(np.abs(adv.f_tilde(q) - f_bar(q))))
    tents = np.array(adv.tents, dtype=float).reshape(len(adv.tents), q.shape[1], 2)
    lo, hi = tents[:, 1:, 0], tents[:, 1:, 1]
    w = hi - lo
    keys, counts = np.unique(np.hstack((tents[:, 0], w, (hi - w) - lo)), axis=0,
                             return_counts=True)
    n_w, boxes = q.shape[1] - 1, Counter()
    for (a, b, *pairs), count in zip(keys.tolist(), counts.tolist()):
        # keys of one value but other bytes (a zero's sign) add to one count
        boxes[(Fraction(a), Fraction(b), *(Fraction(wi) + Fraction(err)
                                           for wi, err in zip(pairs[:n_w], pairs[n_w:])))] += count

    def mass_below(t: Fraction) -> Fraction:
        total = t
        for (a, b, *w), count in boxes.items():
            lo = max(a, (s * a + t) / (s + 1), *(t - s * wi / 2 for wi in w))
            hi = min(b, t, (s * b - t) / (s - 1))
            if lo < hi:
                total -= count * (hi - lo) * math.prod(wi - (2 * t - lo - hi) / s for wi in w)
        return total

    gap, over = 0.0, 0.5  # mass_below(1/2) <= 1/2, as f_tilde >= x1
    while gap < (g := gap + (over - gap) / 2) < over:
        gap, over = (g, over) if mass_below(Fraction(1, 2) + Fraction(g)) <= 0.5 else (gap, g)
    return SeparationReport(residual, gap, adv.claimed_gap,
                            passed=residual == 0.0 and gap >= adv.claimed_gap)
