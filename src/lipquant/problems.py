"""Test problems and independent ground-truth oracles.

The oracles here (dense-grid quantile, Monte Carlo baseline, Lipschitz and
level-set constant estimators) are deliberately independent of the adaptive
algorithms, so they can serve as references in tests without circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .measure import ProductMeasure, product_measure, truncated_normal_marginal, uniform_cube


@dataclass(frozen=True)
class TestProblem:
    """A quantile problem: f on the unit cube, the law of X, and the level."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    dim: int
    lipschitz: float
    measure: ProductMeasure
    alpha: float
    true_quantile: Optional[float] = None  # analytic value when one exists


def paper_f_d1() -> TestProblem:
    """1-d benchmark: smooth bimodal-ish f under a truncated normal law.

    f(x) = 0.8x - 0.3 + exp(-11.534 x^1.95) + exp(-2 (x - 0.9)^2), X ~
    N(1/5, 1/25) conditioned on [0,1], alpha = 0.999.  The quantile has no
    closed form; use `brute_force_quantile` as the reference.
    """

    def f(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)[:, 0]
        return 0.8 * t - 0.3 + np.exp(-11.534 * t ** 1.95) + np.exp(-2.0 * (t - 0.9) ** 2)

    return TestProblem(
        name="paper_d1",
        f=f,
        dim=1,
        lipschitz=1.61,
        measure=product_measure([truncated_normal_marginal(0.2, 0.2)]),
        alpha=0.999,
    )


def paper_f_d2(alpha: float = 0.999) -> TestProblem:
    """2-d benchmark: f(x) = x1 + x2 under the uniform law.

    f(X) follows the Irwin-Hall(2) distribution, so the upper-tail quantile
    is analytic: q_alpha = 2 - sqrt(2 (1 - alpha)).
    """

    def f(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float)
        return t[:, 0] + t[:, 1]

    if alpha >= 0.5:
        q = 2.0 - math.sqrt(2.0 * (1.0 - alpha))
    else:
        q = math.sqrt(2.0 * alpha)
    return TestProblem(
        name="paper_d2",
        f=f,
        dim=2,
        lipschitz=math.sqrt(2.0),
        measure=uniform_cube(2),
        alpha=alpha,
        true_quantile=q,
    )


def linear_d1(alpha: float = 0.5) -> TestProblem:
    """Identity map under the uniform law: q_alpha = alpha exactly."""

    def f(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[:, 0]

    return TestProblem(
        name="linear_d1",
        f=f,
        dim=1,
        lipschitz=1.0,
        measure=uniform_cube(1),
        alpha=alpha,
        true_quantile=alpha,
    )


BUILTIN_PROBLEMS = {
    "paper_d1": paper_f_d1,
    "paper_d2": paper_f_d2,
    "linear_d1": linear_d1,
}


#: Coarsest grid, in cells per axis, that the grid oracle accepts.
MIN_RESOLUTION = 1000


def brute_force_quantile(p: TestProblem, resolution: int = 10 ** 6) -> float:
    """Grid oracle for the alpha-quantile of f(X); accuracy O(L / resolution).

    Evaluates f at the centers of a regular grid with `resolution` cells per
    axis, weights each cell by its probability, and returns the smallest grid
    value whose cumulative mass reaches alpha.  d = 2 streams the grid in row
    chunks and locates the quantile in two passes, so memory stays bounded at
    any resolution.
    """
    if p.dim > 2:
        raise ValueError("grid oracle supports d <= 2 only")
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    if p.dim == 1:
        return _grid_quantile_d1(p, resolution)
    return _grid_quantile_d2(p, resolution)


def _grid_quantile_d1(p: TestProblem, res: int) -> float:
    edges = np.linspace(0.0, 1.0, res + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    values = np.asarray(p.f(centers[:, None]), dtype=float)
    weights = np.diff(p.measure.marginals[0].cdf(edges))
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    i = min(int(np.searchsorted(cum, p.alpha, side="left")), res - 1)
    return float(values[order][i])


def _grid_quantile_d2(p: TestProblem, res: int, n_bins: int = 4096) -> float:
    edges = np.linspace(0.0, 1.0, res + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    w1 = np.diff(p.measure.marginals[0].cdf(edges))
    w2 = np.diff(p.measure.marginals[1].cdf(edges))
    chunk = max(1, 10 ** 7 // res)

    def row_values(i0: int, i1: int) -> np.ndarray:
        """f on rows i0..i1 (x2 fixed per row), shape (i1-i0, res)."""
        x1 = np.tile(centers, i1 - i0)
        x2 = np.repeat(centers[i0:i1], res)
        return np.asarray(p.f(np.column_stack([x1, x2])), dtype=float).reshape(i1 - i0, res)

    vmin, vmax = math.inf, -math.inf
    for i0 in range(0, res, chunk):
        v = row_values(i0, min(i0 + chunk, res))
        vmin = min(vmin, float(v.min()))
        vmax = max(vmax, float(v.max()))
    if vmax - vmin < 1e-12:
        return vmin

    # pass 1: weighted histogram of values; find the bin holding the quantile
    bin_edges = np.linspace(vmin, vmax, n_bins + 1)
    hist = np.zeros(n_bins)
    for i0 in range(0, res, chunk):
        i1 = min(i0 + chunk, res)
        v = row_values(i0, i1)
        w = np.outer(w2[i0:i1], w1)
        h, _ = np.histogram(v.ravel(), bins=bin_edges, weights=w.ravel())
        hist += h
    cum = np.cumsum(hist)
    b = min(int(np.searchsorted(cum, p.alpha, side="left")), n_bins - 1)
    lo = bin_edges[max(b - 1, 0)]
    hi = bin_edges[min(b + 2, n_bins)]

    # pass 2: exact values within the window plus the mass strictly below it
    below = 0.0
    in_vals: list[np.ndarray] = []
    in_wts: list[np.ndarray] = []
    for i0 in range(0, res, chunk):
        i1 = min(i0 + chunk, res)
        v = row_values(i0, i1).ravel()
        w = np.outer(w2[i0:i1], w1).ravel()
        below += float(np.sum(w[v < lo]))
        inside = (v >= lo) & (v <= hi)
        in_vals.append(v[inside])
        in_wts.append(w[inside])
    values = np.concatenate(in_vals)
    weights = np.concatenate(in_wts)
    order = np.argsort(values, kind="stable")
    cum = below + np.cumsum(weights[order])
    i = min(int(np.searchsorted(cum, p.alpha, side="left")), values.size - 1)
    return float(values[order][i])


def reference_quantile(p: TestProblem, resolution: int | None = None) -> float:
    """Analytic quantile when known, otherwise the grid oracle."""
    if p.true_quantile is not None:
        return p.true_quantile
    if resolution is None:
        resolution = 10 ** 6 if p.dim == 1 else 3000
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
    q = true_quantile if true_quantile is not None else reference_quantile(p, resolution)
    if resolution is None:
        resolution = 10 ** 6 if p.dim == 1 else 3000
    deltas = [3.0, 1.0, 0.3, 1e-1, 3e-2, 1e-2, 1e-3, 1e-4]
    vols = []
    centers = (np.arange(resolution) + 0.5) / resolution
    if p.dim == 1:
        v = np.asarray(p.f(centers[:, None]), dtype=float)
        for delta in deltas:
            vols.append(float(np.mean(np.abs(v - q) <= delta)))
    else:
        chunk = max(1, 10 ** 7 // resolution)
        counts = np.zeros(len(deltas))
        for i0 in range(0, resolution, chunk):
            i1 = min(i0 + chunk, resolution)
            x1 = np.tile(centers, i1 - i0)
            x2 = np.repeat(centers[i0:i1], resolution)
            v = np.asarray(p.f(np.column_stack([x1, x2])), dtype=float)
            for i, delta in enumerate(deltas):
                counts[i] += float(np.sum(np.abs(v - q) <= delta))
        vols = (counts / resolution ** 2).tolist()  # floats, not NumPy scalars
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
