"""Product probability measures on the unit cube.

Each marginal is given by its CDF on [0,1]; the probability of a partition
box is the product of CDF increments over its edges.  All marginals are
assumed atomless, so cell boundaries carry no mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc

from .grid import MultiIndex, cell_bounds

CdfFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Marginal:
    """One-dimensional law on [0,1] described by its CDF."""

    cdf: CdfFn
    kind: str
    params: tuple[float, ...] = ()


def uniform_marginal() -> Marginal:
    return Marginal(cdf=lambda x: np.asarray(x, dtype=float), kind="uniform")


def _std_normal_cdf(z: np.ndarray) -> np.ndarray:
    # erfc formulation keeps relative accuracy in the lower tail
    return 0.5 * erfc(-np.asarray(z, dtype=float) / np.sqrt(2.0))


def truncated_normal_marginal(mu: float, sigma: float) -> Marginal:
    """Normal(mu, sigma^2) conditioned on [0,1]."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    lo = _std_normal_cdf(np.array((0.0 - mu) / sigma))
    hi = _std_normal_cdf(np.array((1.0 - mu) / sigma))
    norm = float(hi - lo)

    def cdf(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - mu) / sigma
        return (_std_normal_cdf(z) - lo) / norm

    return Marginal(cdf=cdf, kind="truncated_normal", params=(mu, sigma))


def user_marginal(cdf: CdfFn) -> Marginal:
    """Wrap an arbitrary CDF on [0,1]; caller guarantees cdf(0)=0, cdf(1)=1."""
    return Marginal(cdf=cdf, kind="user_cdf")


@dataclass(frozen=True)
class ProductMeasure:
    marginals: tuple[Marginal, ...]

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def cell_probability(self, idx: MultiIndex) -> float:
        lo, hi = cell_bounds(idx.level, idx.digits)
        p = 1.0
        for m, a, b in zip(self.marginals, lo, hi):
            p *= float(m.cdf(np.array(b)) - m.cdf(np.array(a)))
        return p

    def cell_probabilities(self, level: int, digits: Sequence[Sequence[int]]) -> np.ndarray:
        """Vectorized cell_probability over many same-level cells.

        `digits` is an (n, d) integer array or a sequence of digit tuples.
        Edges b/3^k are correctly rounded while 3^k < 2^53 (k <= 33).
        """
        digits = np.asarray(digits, dtype=np.int64).reshape(-1, self.dim)
        den = 3 ** level
        out = np.ones(len(digits))
        for col, m in zip(digits.T, self.marginals):
            out *= m.cdf((col + 1) / den) - m.cdf(col / den)
        return out

    def marginal_quantile(self, axis: int, u: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Inverse CDF by bisection on [0,1] (vectorized)."""
        u = np.asarray(u, dtype=float)
        lo = np.zeros_like(u)
        hi = np.ones_like(u)
        cdf = self.marginals[axis].cdf
        while np.max(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            below = cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws via inverse-CDF sampling of each marginal."""
        cols = [self.marginal_quantile(a, rng.random(n)) for a in range(self.dim)]
        return np.column_stack(cols)


def product_measure(marginals: Sequence[Marginal]) -> ProductMeasure:
    return ProductMeasure(marginals=tuple(marginals))


def uniform_cube(dim: int) -> ProductMeasure:
    return product_measure([uniform_marginal() for _ in range(dim)])
