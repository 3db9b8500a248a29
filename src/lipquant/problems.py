"""Test problems and independent ground-truth oracles.

The oracles here (dense-grid quantile, Monte Carlo baseline, Lipschitz and
level-set constant estimators) are deliberately independent of the adaptive
algorithms, so they can serve as references in tests without circularity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import check_integer
from .measure import ProductMeasure, product_measure, truncated_normal_marginal, uniform_cube


@dataclass(frozen=True)
class TestProblem:
    """A quantile problem: f on the unit cube, the law of X, and the level."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    measure: ProductMeasure
    alpha: float
    true_quantile: Optional[float] = None  # analytic value when one exists

    @property
    def dim(self) -> int:
        return self.measure.dim


def paper_f_d1(alpha: float = 0.999) -> TestProblem:
    """1-d benchmark: smooth bimodal-ish f under a truncated normal law.

    f(x) = 0.8x - 0.3 + exp(-11.534 x^1.95) + exp(-2 (x - 0.9)^2), X ~
    N(1/5, 1/25) conditioned on [0,1], by default alpha = 0.999.  The
    quantile has no closed form; use `brute_force_quantile` as the reference.
    """

    def f(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)[:, 0]
        return 0.8 * t - 0.3 + np.exp(-11.534 * t ** 1.95) + np.exp(-2.0 * (t - 0.9) ** 2)

    measure = product_measure([truncated_normal_marginal(0.2, 0.2)])
    return TestProblem(name="paper_d1", f=f, lipschitz=1.61, measure=measure, alpha=alpha)


def paper_f_d2(alpha: float = 0.999) -> TestProblem:
    """2-d benchmark: f(x) = x1 + x2 under the uniform law.

    f(X) follows the Irwin-Hall(2) distribution, so the upper-tail quantile
    is analytic: q_alpha = 2 - sqrt(2 (1 - alpha)).
    """

    def f(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)
        return t[:, 0] + t[:, 1]

    q = 2.0 - math.sqrt(2.0 * (1.0 - alpha)) if alpha >= 0.5 else math.sqrt(2.0 * alpha)
    return TestProblem(name="paper_d2", f=f, lipschitz=math.sqrt(2.0), measure=uniform_cube(2),
                       alpha=alpha, true_quantile=q)


def linear_d1(alpha: float = 0.5) -> TestProblem:
    """Identity map under the uniform law: q_alpha = alpha exactly."""

    def f(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[:, 0]

    return TestProblem(name="linear_d1", f=f, lipschitz=1.0, measure=uniform_cube(1),
                       alpha=alpha, true_quantile=alpha)


BUILTIN_PROBLEMS = {
    "paper_d1": paper_f_d1,
    "paper_d2": paper_f_d2,
    "linear_d1": linear_d1,
}


#: Coarsest grid, in cells per axis, that the grid oracle accepts.
MIN_RESOLUTION = 1000
#: The bins of the grid oracle's histogram pass, which finds the quantile's bin.
_N_BINS = 4096


def check_resolution(resolution: int | None) -> None:
    """Refuse a grid oracle's `resolution` unless it is None (the default) or
    an integer >= `MIN_RESOLUTION`; a bool is not one."""
    if resolution is not None:
        check_integer("resolution", resolution, MIN_RESOLUTION)


def _resolution(resolution: int | None, dim: int) -> int:
    """Cells per axis of a grid oracle: by default 10^6 for d = 1, 3000 for
    d = 2, else `resolution` as `check_resolution` allows it."""
    if dim > 2:
        raise ValueError("grid oracle supports d <= 2 only")
    check_resolution(resolution)
    return (10 ** 6 if dim == 1 else 3000) if resolution is None else int(resolution)


#: The most cells of one chunk of a grid walk.
_CHUNK_CELLS = 10 ** 7


def _grid(p: TestProblem, res: int):
    """The walk over the grid of `res` cells per axis: `walk(with_masses)`
    yields, for each chunk of at most `_CHUNK_CELLS` cells (runs of cells
    along x1 for d = 1, rows of x2 for d = 2), f at the chunk's cell centers
    and, if `with_masses`, the cells' probabilities, else None, both flat.
    A chunk makes the edges and centers it reads, so a walk holds one chunk.
    A grid of one chunk is evaluated once and then walked from memory."""
    # a chunk is rows of the last axis, each whole along any axis before it
    step = max(1, _CHUNK_CELLS // res ** (p.dim - 1))
    chunks = [(i0, min(i0 + step, res)) for i0 in range(0, res, step)]

    def axis(i0: int, i1: int) -> tuple[np.ndarray, np.ndarray]:
        # the edges of cells i0..i1-1 of an axis and their centers, as
        # np.linspace(0, 1, res + 1) makes the edges
        edges = np.arange(i0, i1 + 1) * (1.0 / res)
        if i1 == res:
            edges[-1] = 1.0
        return edges, 0.5 * (edges[:-1] + edges[1:])

    across = axis(0, res) if p.dim == 2 else None  # x1 of a d = 2 row

    def values(i0: int, i1: int) -> np.ndarray:
        x = np.empty((i1 - i0, res ** (p.dim - 1), p.dim))
        x[..., -1] = axis(i0, i1)[1][:, None]  # fixed per row for d = 2
        if p.dim == 2:
            x[..., 0] = across[1]
        return np.asarray(p.f(x.reshape(-1, p.dim)), dtype=float)

    def masses(i0: int, i1: int) -> np.ndarray:
        w = np.diff(p.measure.marginals[-1].cdf(axis(i0, i1)[0]))
        return w if p.dim == 1 else np.outer(w, np.diff(p.measure.marginals[0].cdf(across[0]))).ravel()

    if len(chunks) == 1:
        values, masses = functools.cache(values), functools.cache(masses)

    def walk(with_masses: bool = False):
        for i0, i1 in chunks:
            yield values(i0, i1), masses(i0, i1) if with_masses else None
    return walk


def brute_force_quantile(p: TestProblem, resolution: int | None = None) -> float:
    """Grid oracle for the alpha-quantile of f(X); accuracy O(L / resolution).

    Evaluates f at the centers of a regular grid with `resolution` cells per
    axis (by default `_resolution`'s), weights each cell by its probability,
    and returns the smallest grid value whose cumulative mass reaches alpha.
    One chunked walk over the grid serves three passes: the value range, the
    histogram bin that holds the quantile, and the values of a window around
    that bin plus the mass below it.  Memory stays bounded by one chunk; on a
    grid of one chunk, as at the default resolutions, f runs once per cell.
    """
    resolution = _resolution(resolution, p.dim)
    walk = _grid(p, resolution)
    vmin, vmax = math.inf, -math.inf
    for v, _ in walk():
        vmin, vmax = min(vmin, float(v.min())), max(vmax, float(v.max()))
    if vmax - vmin < 1e-12:
        return vmin

    # pass 1: weighted histogram of values; find the bin holding the quantile
    bin_edges = np.linspace(vmin, vmax, _N_BINS + 1)  # as np.histogram makes them
    cum = np.cumsum(sum(np.histogram(v, bins=_N_BINS, range=(vmin, vmax), weights=w)[0]
                        for v, w in walk(with_masses=True)))
    b = min(int(np.searchsorted(cum, p.alpha, side="left")), _N_BINS - 1)
    lo, hi = bin_edges[max(b - 1, 0)], bin_edges[min(b + 2, _N_BINS)]

    # pass 2: exact values within the window plus the mass strictly below it
    below, window = 0.0, []
    for v, w in walk(with_masses=True):
        below += float(np.sum(w[v < lo]))
        inside = (v >= lo) & (v <= hi)
        window.append((v[inside], w[inside]))
    values, weights = (np.concatenate(column) for column in zip(*window))
    order = np.argsort(values, kind="stable")
    cum = below + np.cumsum(weights[order])
    i = min(int(np.searchsorted(cum, p.alpha, side="left")), values.size - 1)
    return float(values[order][i])


def reference_quantile(p: TestProblem, resolution: int | None = None) -> float:
    """Analytic quantile when known, otherwise the grid oracle."""
    if p.true_quantile is not None:
        return p.true_quantile
    return brute_force_quantile(p, resolution)


def estimate_lipschitz(p: TestProblem, n: int = 10 ** 5, seed: int = 0) -> float:
    """Max finite-difference slope (Euclidean) over grid and random pairs."""
    if p.dim == 1:
        grid = np.linspace(0.0, 1.0, max(n, 10 ** 6) + 1)[:, None]
        v = np.asarray(p.f(grid), dtype=float)
        return float(np.max(np.abs(np.diff(v)) / np.abs(np.diff(grid[:, 0]))))
    rng = np.random.default_rng(seed)
    a = rng.random((n, p.dim))
    # mix long-range pairs with short-range ones, which see the local slope
    b = np.clip(a + rng.normal(scale=1e-4, size=(n, p.dim)), 0.0, 1.0)
    dist = np.linalg.norm(a - b, axis=1)
    ok = dist > 0
    ratio = np.abs(np.asarray(p.f(a), dtype=float) - np.asarray(p.f(b), dtype=float))[ok] / dist[ok]
    return float(np.max(ratio))


def estimate_level_set_M(
    p: TestProblem,
    true_quantile: float | None = None,
    resolution: int | None = None,
) -> float:
    """Estimate the level-set constant M: sup over delta of vol(|f-q|<=delta)/delta.

    The assumption quantifies over every delta > 0, and for some problems the
    ratio peaks at delta of order 1 (wide bands), so the sup is taken over a
    geometric grid from 3 down to 1e-4.  Raises if the band volume does not
    shrink as delta becomes small, i.e. the level-set assumption fails
    (constant f).
    """
    resolution = _resolution(resolution, p.dim)
    q = true_quantile if true_quantile is not None else reference_quantile(p, resolution)
    deltas = [3.0, 1.0, 0.3, 1e-1, 3e-2, 1e-2, 1e-3, 1e-4]
    counts = np.zeros(len(deltas))
    for v, _ in _grid(p, resolution)():
        gap = np.abs(v - q)
        counts += [np.count_nonzero(gap <= delta) for delta in deltas]
    vols = (counts / resolution ** p.dim).tolist()  # floats, not NumPy scalars
    # shrink test on the small-delta tail only: a wide band at delta ~ 1 is
    # normal, but the volume must vanish as delta -> 0
    if vols[-1] > 0.5 * vols[deltas.index(1e-1)]:
        raise ValueError(
            "level-set band volume does not shrink with delta; "
            "the level-set assumption fails for this function"
        )
    return max(vol / delta for vol, delta in zip(vols, deltas))


def monte_carlo_quantile(
    p: TestProblem, samples: int, seed: int
) -> tuple[float, float]:
    """Empirical quantile of i.i.d. draws of f(X) and its CLT half-width.

    The half-width is the asymptotic 95% one, 1.96 sqrt(alpha(1-alpha)/n)
    divided by a finite-difference density proxy at the quantile.
    Deterministic given the seed.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    rng = np.random.default_rng(seed)
    x = p.measure.sample(samples, rng)
    v = np.sort(np.asarray(p.f(x), dtype=float))

    def emp_quantile(a: float) -> float:
        i = min(int(math.ceil(a * samples)) - 1, samples - 1)
        return float(v[max(i, 0)])

    estimate = emp_quantile(p.alpha)
    sd = math.sqrt(p.alpha * (1.0 - p.alpha) / samples)
    eps = min(max(2.0 * sd, 1e-4), 0.5 * min(p.alpha, 1.0 - p.alpha))
    spread = emp_quantile(p.alpha + eps) - emp_quantile(p.alpha - eps)
    density = 2.0 * eps / spread if spread > 0 else math.inf
    half_width = 1.96 * sd / density if math.isfinite(density) else 0.0
    return estimate, half_width
