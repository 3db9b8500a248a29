"""Product probability measures on the unit cube.

Each marginal is given by its CDF on [0,1]; the probability of a partition
box is the product of CDF increments over its edges.  All marginals are
assumed atomless, so cell boundaries carry no mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import check_integer, finite_real

CdfFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Marginal:
    """One-dimensional law on [0,1] described by its CDF.

    `sf`, if given, is the survival function 1 - cdf, computed without the
    subtraction, so that it keeps its relative accuracy where the CDF is
    near 1.
    """

    cdf: CdfFn
    sf: CdfFn | None = None


def uniform_marginal() -> Marginal:
    return Marginal(cdf=lambda x: np.asarray(x, dtype=float))


def truncated_normal_marginal(mu: float, sigma: float) -> Marginal:
    """Normal(mu, sigma^2) conditioned on [0,1].

    The only user of SciPy on the algorithms' path: it is imported here, so
    that the package and every other marginal load NumPy alone.
    """
    if not (finite_real(mu) and finite_real(sigma)):
        raise ValueError(f"mu and sigma must be finite, got mu={mu!r}, sigma={sigma!r}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mu, sigma = float(mu), float(sigma)  # a Fraction would make object arrays
    from scipy.special import erfc

    def std_normal_cdf(z: np.ndarray) -> np.ndarray:
        # erfc formulation keeps relative accuracy in the lower tail
        return 0.5 * erfc(-np.asarray(z, dtype=float) / np.sqrt(2.0))

    def std_normal_sf(z: np.ndarray) -> np.ndarray:
        # and this one in the upper tail
        return 0.5 * erfc(np.asarray(z, dtype=float) / np.sqrt(2.0))

    # each difference is taken in the tail that keeps its relative accuracy:
    # the upper tail where [0,1] lies above mu, the lower where it lies below
    a, b = np.array((0.0 - mu) / sigma), np.array((1.0 - mu) / sigma)
    lo, lo_sf = std_normal_cdf(a), std_normal_sf(a)
    hi, hi_sf = std_normal_cdf(b), std_normal_sf(b)
    norm = float(lo_sf - hi_sf) if a > 0 else float(hi - lo)
    if not norm > 0:
        raise ValueError(f"mu={mu}, sigma={sigma} put a mass on [0,1] that rounds to 0, "
                         f"so the normal law cannot be conditioned on [0,1]")

    def cdf(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - mu) / sigma
        if a > 0:
            return (lo_sf - std_normal_sf(z)) / norm
        return (std_normal_cdf(z) - lo) / norm

    def sf(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - mu) / sigma
        if b < 0:
            return (hi - std_normal_cdf(z)) / norm
        return (std_normal_sf(z) - hi_sf) / norm

    return Marginal(cdf=cdf, sf=sf)


#: Where `user_marginal` probes a CDF: the cell edges b/3^6 of level 6.
_PROBE_GRID = np.arange(3 ** 6 + 1) / 3 ** 6


def user_marginal(cdf: CdfFn) -> Marginal:
    """Wrap a vectorized CDF on [0,1].

    Raises ValueError unless cdf(0) = 0, cdf(1) = 1 (within 1e-12) and the CDF
    is non-decreasing on `_PROBE_GRID`, since cell masses must be nonnegative
    and sum to one.
    """
    if not callable(cdf):
        raise ValueError(f"cdf must be callable, got {cdf!r}")
    v = np.asarray(cdf(_PROBE_GRID), dtype=float)
    if v.shape != _PROBE_GRID.shape:
        raise ValueError(f"cdf must map an array of shape {_PROBE_GRID.shape} to one of "
                         f"the same shape, got {v.shape}")
    if not (abs(v[0]) <= 1e-12 and abs(v[-1] - 1.0) <= 1e-12):
        raise ValueError(f"cdf must satisfy cdf(0) = 0 and cdf(1) = 1, got {v[0]} and {v[-1]}")
    bad = np.flatnonzero(~(np.diff(v) >= 0))
    if len(bad):
        i = bad[0]
        raise ValueError(f"cdf must be non-decreasing, but cdf({_PROBE_GRID[i]}) = {v[i]} "
                         f"and cdf({_PROBE_GRID[i + 1]}) = {v[i + 1]}")
    return Marginal(cdf=cdf)


def _steps(m: Marginal, edges: np.ndarray, axis: int) -> np.ndarray:
    """m's mass between consecutive rows of `edges` (ascending along axis 0),
    refused unless every one is >= 0; m is the marginal of axis `axis`.

    Where cdf(a) > 1/2 on an interval [a, b] and the marginal has a survival
    function, the mass is sf(a) - sf(b): cdf(b) - cdf(a) would cancel there,
    down to 0 or 1 ulp on deep cells.
    """
    # the CDF and the survival function see 1-D arrays, as user_marginal probes
    c = m.cdf(edges.ravel()).reshape(edges.shape)
    steps = c[1:] - c[:-1]
    if m.sf is not None:
        upper = c[:-1] > 0.5
        if upper.any():
            s = m.sf(edges.ravel()).reshape(edges.shape)
            np.subtract(s[:-1], s[1:], out=steps, where=upper)
    if not (steps >= 0).all():  # so that NaN fails too
        i, j = np.argwhere(~(steps >= 0))[0]
        raise ValueError(f"the CDF of axis {axis} must be non-decreasing, but cdf({edges[i, j]}) "
                         f"= {c[i, j]} and cdf({edges[i + 1, j]}) = {c[i + 1, j]}")
    return steps


@dataclass(frozen=True)
class ProductMeasure:
    marginals: tuple[Marginal, ...]
    #: t = 0..3 of the edges (3b + t)/3^k bounding a parent's 3 children on an axis
    _EDGE_OFFSETS = np.arange(4)[:, None]

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def cell_probabilities(self, level: int, digits: Sequence[Sequence[int]]) -> np.ndarray:
        """Masses of many same-level cells: per axis, the mass between the
        cell edges b/3^k and (b+1)/3^k, multiplied over the axes.

        `digits` is an (n, d) integer array or a sequence of digit tuples.
        Edges b/3^k are correctly rounded while 3^k < 2^53 (k <= 33).
        """
        digits = np.asarray(digits, dtype=np.int64).reshape(-1, self.dim)
        den = 3 ** level
        out = np.ones(len(digits))
        for axis, (col, m) in enumerate(zip(digits.T, self.marginals)):
            out *= _steps(m, np.stack([col / den, (col + 1) / den]), axis)[0]
        return out

    def child_probabilities(self, level: int, parents: np.ndarray) -> np.ndarray:
        """The (3^d, n) masses of the level-`level` children of each parent.

        `parents` is an (n, d) integer array of level-(`level` - 1) digits;
        row o holds child `3 * parents + offset` of each parent, for the o-th
        offset in `itertools.product` order, so the flattened array lists the
        children offset by offset, as `Frontier` stores a level.
        Equal, bit for bit, to `cell_probabilities` of the children: on each
        axis the 4 edges (3b + t)/3^k, t = 0..3, bound a parent's 3 children,
        and the axis product runs in the same order.
        """
        parents = np.asarray(parents, dtype=np.int64).reshape(-1, self.dim)
        den = 3 ** level
        out = None
        for axis, (col, m) in enumerate(zip(parents.T, self.marginals)):
            steps = _steps(m, (3 * col + self._EDGE_OFFSETS) / den, axis)  # (3, n)
            out = steps if out is None else out[..., None, :] * steps
        return out.reshape(3 ** self.dim, -1)

    def marginal_quantile(self, axis: int, u: np.ndarray) -> np.ndarray:
        """Inverse CDF by 40 halvings of [0,1] (vectorized), to a bracket
        2^-40 < 1e-12 wide; every midpoint is exact."""
        u = np.asarray(u, dtype=float)
        lo = np.zeros_like(u)
        hi = np.ones_like(u)
        cdf = self.marginals[axis].cdf
        for _ in range(40):
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
    marginals = tuple(marginals)
    if not (marginals and all(isinstance(m, Marginal) for m in marginals)):
        raise ValueError(f"marginals must be one or more Marginal, got "
                         f"{[type(m).__name__ for m in marginals]}")
    return ProductMeasure(marginals=marginals)


def uniform_cube(dim: int) -> ProductMeasure:
    check_integer("dim", dim, 1)
    return product_measure([uniform_marginal() for _ in range(dim)])
