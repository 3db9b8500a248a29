"""Closed-form error and budget bounds for the adaptive quantile algorithms.

All quantities are functions of the problem constants: dimension d,
Lipschitz constant L, level-set constant M (volume of the band
{|f - q| <= delta} is at most M*delta) and the quantile level alpha.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .grid import half_radius


@dataclass(frozen=True)
class ProblemConstants:
    dim: int
    lipschitz: float
    level_set: float
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.dim, numbers.Integral) and not isinstance(self.dim, bool)
                and self.dim >= 1):
            raise ValueError(f"dim must be >= 1, got {self.dim!r}")
        for name in ("lipschitz", "level_set"):
            value = getattr(self, name)
            if not (finite_real(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (isinstance(self.alpha, numbers.Real) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {self.alpha!r}")


def finite_real(x) -> bool:
    """Whether x is a real number within the float range; a bool is not one.
    The comparison is exact, so an int past the float range fails it where
    `math.isfinite` would raise an OverflowError."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _whole(x, least: float) -> bool:
    """Whether x is a whole number >= `least`; a bool is not one."""
    return ((isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer())
            and not isinstance(x, bool) and x >= least)


def check_limits(budget, least: int, max_level: int | None = None) -> None:
    """Refuse a budget that is not a whole number >= `least`, and a
    `max_level` that is not one >= 0."""
    if not _whole(budget, least):
        raise ValueError(f"budget must be a whole number >= {least}, got {budget!r}")
    if budget >= 2 ** 63:  # the engine counts calls in int64
        raise ValueError(f"budget must be below 2^63, got {budget!r}")
    if max_level is not None and not _whole(max_level, 0):
        what = ">= 0" if _whole(max_level, -math.inf) else "a whole number"
        raise ValueError(f"max_level must be {what}, got {max_level!r}")


def bracket_halfwidth(lipschitz: float, level: int, dim: int) -> float:
    """Deterministic bracket half-width L * sqrt(d) / (2 * 3^k)."""
    return lipschitz * half_radius(level, dim)


LOG3 = math.log(3.0)


def _exp(x: float) -> float:
    """e^x, inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def known_bound(c: ProblemConstants, budget: int) -> float:
    """Worst-case error of the known-constant algorithm at budget N; each
    power is one, or taken through logs, so that no float overflow raises."""
    d, L, M = c.dim, c.lipschitz, c.level_set
    check_limits(budget, 1 if d == 1 else 2)
    if d == 1:
        # (L/2) * 3^(1 + 1/(4ML)) * 3^(-N/(4ML)), an exponent <= 1
        return 0.5 * L * 3.0 ** (1.0 - (budget - 1) / 4.0 / M / L)
    # (3L*sqrt(d)/2) * (3^d * M * L * sqrt(d) / (N - 1))^(1/(d-1))
    return _exp(math.log(1.5 * math.sqrt(d)) + math.log(L) + (
        d * LOG3 + math.log(M) + math.log(L) + 0.5 * math.log(d) - math.log(budget - 1)) / (d - 1))


def unknown_bound(c: ProblemConstants, budget: int) -> float:
    """Worst-case error of the unknown-constant algorithm at budget N, taken
    as `known_bound` is.

    Requires L >= 1 and a whole budget >= 1, which for d > 1 must exceed the
    start-up cost (pi^2/3) * (log3(L) + 2)^2.
    """
    d, L, M = c.dim, c.lipschitz, c.level_set
    check_limits(budget, 1)
    if L < 1.0:
        raise ValueError(f"unknown-constant bound needs lipschitz >= 1, got {L}")
    g = math.log(L) / LOG3 + 2.0
    if d == 1:
        # 18L * 3^(1/(2ML)) * 3^(-N/(2 pi^2 g^2 ML))
        return _exp(math.log(18.0) + math.log(L)
                    + (0.5 - budget / (2.0 * math.pi ** 2 * g ** 2)) / M / L * LOG3)
    startup = math.pi ** 2 / 3.0 * g ** 2
    if budget <= startup:
        raise ValueError(f"budget must exceed {startup:.3f} for d > 1")
    # 18L*sqrt(d) * (3^d * M * L * sqrt(d) * (pi^2/2) * g^2 / (N - startup))^(1/(d-1))
    return _exp(math.log(18.0 * math.sqrt(d)) + math.log(L) + (
        d * LOG3 + math.log(M) + math.log(L) + 0.5 * math.log(d) + math.log(math.pi ** 2 / 2.0)
        + 2.0 * math.log(g) - math.log(budget - startup)) / (d - 1))


def calls_upper(c: ProblemConstants, level: int) -> float:
    """Upper bound on the calls needed to complete subdivision level k, inf
    past the float range."""
    if not _whole(level, 0):
        raise ValueError(f"level must be a whole number >= 0, got {level!r}")
    d, L, M = c.dim, c.lipschitz, c.level_set
    if d == 1 or level == 0:  # level first: 0 * (4*M*L), where 4*M*L is inf, is nan
        return 1.0 + level * 4.0 * M * L
    # 1 + 2 * 3^d * M * L * sqrt(d) * (3^(k(d-1)) - 1) / (3^(d-1) - 1), with
    # log(e^x - 1) = x + log(1 - e^-x) for x = k(d-1)*log(3) and for y = (d-1)*log(3)
    x, y = level * (d - 1) * LOG3, (d - 1) * LOG3
    return 1.0 + _exp(math.log(2.0 * math.sqrt(d)) + d * LOG3 + math.log(M) + math.log(L)
                      + x + math.log(-math.expm1(-x)) - y - math.log(-math.expm1(-y)))


def level_lower(c: ProblemConstants, budget: int) -> int | float:
    """Lower bound on the level reached with budget N; inf past the float range."""
    d, L, M = c.dim, c.lipschitz, c.level_set
    check_limits(budget, 1 if d == 1 else 2)
    if d == 1:
        levels = (budget - 1) / 4.0 / M / L
    else:
        # log_{3^(d-1)} of (N - 1) / (3^d * M * L * sqrt(d))
        levels = (math.log(budget - 1) - d * LOG3 - math.log(M) - math.log(L)
                  - 0.5 * math.log(d)) / ((d - 1) * LOG3)
    return int(math.floor(levels)) if math.isfinite(levels) else levels
