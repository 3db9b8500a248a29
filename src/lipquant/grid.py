"""Ternary subdivision of the unit cube.

The cube [0,1]^d is split at level k into 3^(k*d) congruent boxes addressed
by a multi-index with digits in [0, 3^k).  Box endpoints are rationals with
denominator 3^k, so lineage and partition identities can be checked exactly;
floats only appear at the boundary of this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np


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


@dataclass(frozen=True)
class BoxDomain:
    """A Cartesian product of bounded intervals [a_i, b_i]."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper dimension mismatch")
        for a, b in zip(self.lower, self.upper):
            if not b > a:
                raise ValueError(f"degenerate interval [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lower)


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


def half_radius(level: int, dim: int) -> float:
    """Circumscribed radius of a level-k cell: sqrt(d)/(2*3^k)."""
    if level < 0 or dim < 1:
        raise ValueError("need level >= 0 and dim >= 1")
    return float(np.sqrt(dim)) / 2.0 * 3.0 ** (-level)


def children(idx: MultiIndex) -> list[MultiIndex]:
    """The 3^d sub-boxes at level k+1: indices 3*b + {0,1,2}^d."""
    base = tuple(3 * b for b in idx.digits)
    return [
        MultiIndex(idx.level + 1, tuple(b + o for b, o in zip(base, off)))
        for off in itertools.product((0, 1, 2), repeat=idx.dim)
    ]


def child_digits(digits: tuple[int, ...]) -> list[tuple[int, ...]]:
    """children() on raw digit tuples (hot path, skips validation)."""
    base = tuple(3 * b for b in digits)
    return [
        tuple(b + o for b, o in zip(base, off))
        for off in itertools.product((0, 1, 2), repeat=len(digits))
    ]


def center_child_digits(digits: tuple[int, ...]) -> tuple[int, ...]:
    """The child 3b+1, whose center coincides with the parent's."""
    return tuple(3 * b + 1 for b in digits)


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


def rescale_problem(
    domain: BoxDomain, f: Callable[[np.ndarray], np.ndarray]
) -> tuple[Callable[[np.ndarray], np.ndarray], float, float]:
    """Pull a problem on a general box back to the unit cube.

    Returns (g, c1, c2) with g(y) = f(a + (b-a)*y), c1 = max_i (b_i - a_i)
    (Lipschitz inflation) and c2 = prod_i (b_i - a_i) (level-set inflation).
    Quantiles are preserved: q_alpha(g, h(X)) = q_alpha(f, X).
    """
    a = np.asarray(domain.lower, dtype=float)
    w = np.asarray(domain.upper, dtype=float) - a

    def g(y: np.ndarray) -> np.ndarray:
        return f(a + w * np.asarray(y, dtype=float))

    return g, float(np.max(w)), float(np.prod(w))
