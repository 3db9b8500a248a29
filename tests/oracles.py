"""Exact per-cell oracles for the array engine.

Cells of the level-k ternary partition are addressed by digit tuples in
[0, 3^k).  Box endpoints are rationals with denominator 3^k, so lineage and
partition identities can be checked exactly; floats only appear in
`center`, `center_point`, `cell_bounds` and the scalar cell mass.  The
engine (`lipquant.known.Frontier`) holds the same cells as int64 digit
arrays; the tests compare it against these helpers, and `frontier_sets`
reads its cells level by level.  `weighted_quantiles` reads both forms of
the weighted quantile of a table's rows, with their masses summed exactly as
integers, and `weighted_quantile_sup` and `weighted_quantile_inf` one each:
the reference for `lipquant.wquantile.level_quantiles`, and `frozen_store`
and `frozen_parts` build and read the frozen rows that it reads.
`candidate_budget` is the scalar slice formula of the unknown-constant
schedule.  `refined_quantile_d1` is a near-machine-precision quantile oracle
for smooth d = 1 problems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from lipquant.known import K_MAX, Frontier
from lipquant.problems import TestProblem
from lipquant.wquantile import FrozenRows


@dataclass(frozen=True)
class MultiIndex:
    """Address of one box of the level-k ternary partition."""

    level: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        hi = 3 ** self.level
        for b in self.digits:
            if not 0 <= b < hi:
                raise ValueError(
                    f"digit {b} out of range [0, {hi}) at level {self.level}"
                )

    @property
    def dim(self) -> int:
        return len(self.digits)


def center_fraction(idx: MultiIndex) -> tuple[Fraction, ...]:
    """Exact center (2b+1)/(2*3^k) per axis."""
    den = 2 * 3 ** idx.level
    return tuple(Fraction(2 * b + 1, den) for b in idx.digits)


def center(idx: MultiIndex) -> np.ndarray:
    den = 2 * 3 ** idx.level
    return np.array([(2 * b + 1) / den for b in idx.digits], dtype=float)


def center_point(level: int, digits: Sequence[int]) -> tuple[float, ...]:
    # int/int true division is correctly rounded even for huge denominators
    den = 2 * 3 ** level
    return tuple((2 * b + 1) / den for b in digits)


def children(idx: MultiIndex) -> list[MultiIndex]:
    """The 3^d sub-boxes at level k+1: indices 3*b + {0,1,2}^d."""
    base = tuple(3 * b for b in idx.digits)
    return [
        MultiIndex(idx.level + 1, tuple(b + o for b, o in zip(base, off)))
        for off in itertools.product((0, 1, 2), repeat=idx.dim)
    ]


def child_digits(digits: tuple[int, ...]) -> list[tuple[int, ...]]:
    """children() on raw digit tuples (skips validation), in `itertools.product` order."""
    base = tuple(3 * b for b in digits)
    return [
        tuple(b + o for b, o in zip(base, off))
        for off in itertools.product((0, 1, 2), repeat=len(digits))
    ]


def parent_l(idx: MultiIndex, steps: int) -> MultiIndex:
    """Ancestor `steps` levels up: componentwise floor-division by 3."""
    if not 0 <= steps <= idx.level:
        raise ValueError(f"steps must be in [0, {idx.level}], got {steps}")
    div = 3 ** steps
    return MultiIndex(idx.level - steps, tuple(b // div for b in idx.digits))


def cell_box_fraction(idx: MultiIndex) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact box [b/3^k, (b+1)/3^k] per axis.

    The partition is half-open on the right except at coordinate 1; for the
    atomless marginals used here the boundary carries no mass, so closed
    boxes are returned.
    """
    den = 3 ** idx.level
    lo = tuple(Fraction(b, den) for b in idx.digits)
    hi = tuple(Fraction(b + 1, den) for b in idx.digits)
    return lo, hi


def cell_bounds(level: int, digits: Sequence[int]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    den = 3 ** level
    return tuple(b / den for b in digits), tuple((b + 1) / den for b in digits)


def canonical_center_key(level: int, digits: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Key identifying a center point across levels.

    A cell shares its center with its parent iff every digit is 3g+1, so
    stripping that pattern yields the shallowest index with the same center.
    """
    while level > 0 and all(b % 3 == 1 for b in digits):
        digits = tuple(b // 3 for b in digits)
        level -= 1
    return level, digits


def cell_probability(measure, idx: MultiIndex) -> float:
    """Mass of one cell: the product of its CDF increments, one scalar per axis."""
    lo, hi = cell_bounds(idx.level, idx.digits)
    p = 1.0
    for m, a, b in zip(measure.marginals, lo, hi):
        p *= float(m.cdf(np.array(b)) - m.cdf(np.array(a)))
    return p


def exact_units(x: float) -> int:
    """x as an integer in units of 2^-1074, the last bit of the least float,
    so that a sum of these is the exact sum of the floats."""
    num, den = float(x).as_integer_ratio()  # den is a power of 2, at most 2^1074
    return num << (1075 - den.bit_length())


def weighted_quantiles(values, masses, eligible, alpha: float) -> tuple[float, float]:
    """(sup, inf) of the rows, every mass summed exactly: the greatest
    eligible v with mass of {value < v} <= alpha, else the least eligible
    value, and the least eligible v with mass of {value <= v} >= alpha, else
    the greatest eligible value."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not np.any(eligible):
        raise ValueError("table has no eligible point")
    values = np.asarray(values, dtype=float) + 0.0  # -0.0 ties +0.0
    v, group = np.unique(values, return_inverse=True)
    mass = [0] * len(v)
    for g, m in zip(group.tolist(), np.asarray(masses, dtype=float).tolist()):
        mass[g] += exact_units(m)
    e = np.bincount(group, weights=np.asarray(eligible, dtype=bool), minlength=len(v)) > 0
    head = list(itertools.accumulate(mass, initial=0))  # head[i]: the mass below v[i]
    a = exact_units(alpha)
    sup = e & np.array([h <= a for h in head[:-1]])
    inf = e & np.array([h >= a for h in head[1:]])
    return (float(v[sup.nonzero()[0][-1]] if sup.any() else v[e.argmax()]),
            float(v[inf.argmax()] if inf.any() else v[e.nonzero()[0][-1]]))


def weighted_quantile_sup(values, masses, eligible, alpha: float) -> float:
    """The sup form of `weighted_quantiles`."""
    return weighted_quantiles(values, masses, eligible, alpha)[0]


def weighted_quantile_inf(values, masses, eligible, alpha: float) -> float:
    """The inf form of `weighted_quantiles`."""
    return weighted_quantiles(values, masses, eligible, alpha)[1]


def full_grid_estimate(f, measure, alpha: float, level: int) -> float:
    """Level-k estimator computed on the complete grid, without pruning."""
    d = measure.dim
    n_cells = 3 ** (level * d)
    if n_cells > 10 ** 6:
        raise ValueError(f"refusing to enumerate {n_cells} cells")
    cells = [tuple(c) for c in itertools.product(range(3 ** level), repeat=d)]
    pts = np.array([center_point(level, c) for c in cells])
    values = np.asarray(f(pts), dtype=float)
    masses = measure.cell_probabilities(level, cells)
    return weighted_quantile_sup(values, masses, np.ones(len(cells), dtype=bool), alpha)


def frontier_sets(f, lipschitz: float, measure, alpha: float, budget: int,
                  max_level: int = K_MAX) -> list[list[tuple[int, ...]]]:
    """The frontier cells, as digit tuples, of each level that
    `run_known(f, lipschitz, measure, alpha, budget, max_level)` records,
    from a single-band `Frontier` stepped level by level."""
    fr = Frontier(f, measure, alpha, [lipschitz], [budget])
    sets = []
    while True:
        sets.append(list(map(tuple, fr.digits(np.ones(len(fr.values), dtype=bool)).tolist())))
        if fr.level >= max_level or not fr.step():
            return sets


def frozen_store(rows, sides=None) -> FrozenRows:
    """A `FrozenRows` of the (values, masses, eligible) chunk `rows` and, if
    given, of `sides` = ((below, greatest), (above, least), chunks): more
    rows, all ineligible, in (values, masses) chunks, each at most
    `greatest` or at least `least`, of the float masses `below` and `above`."""
    store = FrozenRows()
    store.rows = rows
    if sides:
        (store.below, store.greatest), (store.above, store.least), store.chunks = sides
    return store


def frozen_parts(store: FrozenRows) -> list[tuple[np.ndarray, ...]]:
    """Every row of `store` as (values, masses, eligible) chunks: its
    `rows`, then each of its side chunks, whose rows are ineligible."""
    return [store.rows, *((v, m, np.zeros(len(v), dtype=bool)) for v, m in store.chunks)]


def candidate_budget(j: int, budget: int) -> int:
    """Budget slice floor(6N / (pi^2 (j+1)^2)) of candidate constant 3^j,
    one candidate at a time in Python floats."""
    return int(math.floor(6.0 * budget / (math.pi ** 2 * (j + 1) ** 2)))


def funded_candidates(budget: int) -> range:
    """The candidates j = 0, 1, ... whose `candidate_budget` is nonzero."""
    j = 0
    while candidate_budget(j, budget) >= 1:
        j += 1
    return range(j)


def refined_quantile_d1(p: TestProblem, coarse_resolution: int = 10 ** 5) -> float:
    """Near-machine-precision quantile oracle for smooth d = 1 problems.

    Bisects on the quantile value q; at each step P(f(X) <= q) is computed
    by locating the roots of f = q with Brent's method (f is assumed
    monotone within each coarse grid cell) and summing exact CDF increments
    over the sublevel intervals.  Accuracy ~1e-13, versus O(L/resolution)
    for the plain grid oracle.
    """
    from scipy.optimize import brentq

    if p.dim != 1:
        raise ValueError("refined oracle supports d = 1 only")
    cdf = p.measure.marginals[0].cdf
    x = np.linspace(0.0, 1.0, coarse_resolution + 1)
    v = np.asarray(p.f(x[:, None]), dtype=float)
    cdf_x = np.asarray(cdf(x), dtype=float)
    w = np.diff(cdf_x)

    def scalar_f(t: float) -> float:
        return float(p.f(np.array([[t]]))[0])

    def sublevel_mass(q: float) -> float:
        below = v <= q
        mass = float(np.sum(w[below[:-1] & below[1:]]))
        for i in np.flatnonzero(below[:-1] != below[1:]):
            r = brentq(lambda t: scalar_f(t) - q, x[i], x[i + 1], xtol=1e-15)
            if below[i]:
                mass += float(cdf(r) - cdf_x[i])
            else:
                mass += float(cdf_x[i + 1] - cdf(r))
        return mass

    lo, hi = float(v.min()), float(v.max())
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sublevel_mass(mid) >= p.alpha:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14 * max(1.0, abs(hi)):
            break
    return hi
