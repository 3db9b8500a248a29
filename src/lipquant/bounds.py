"""Closed-form error and budget bounds for the adaptive quantile algorithms.

All quantities are functions of the problem constants: dimension d,
Lipschitz constant L, level-set constant M (volume of the band
{|f - q| <= delta} is at most M*delta) and the quantile level alpha.
"""

from __future__ import annotations

import math
import numbers
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
    """Whether x is a finite real number; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _whole(x, least: float) -> bool:
    """Whether x is a whole number >= `least`; a bool is not one."""
    return ((isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer())
            and not isinstance(x, bool) and x >= least)


def check_limits(budget, least: int, max_level: int | None = None) -> None:
    """Refuse a budget that is not a whole number >= `least`, and a
    `max_level` that is not one >= 0."""
    if not _whole(budget, least):
        raise ValueError(f"budget must be a whole number >= {least}, got {budget!r}")
    if max_level is not None and not _whole(max_level, 0):
        what = ">= 0" if _whole(max_level, -math.inf) else "a whole number"
        raise ValueError(f"max_level must be {what}, got {max_level!r}")


def bracket_halfwidth(lipschitz: float, level: int, dim: int) -> float:
    """Deterministic bracket half-width L * sqrt(d) / (2 * 3^k)."""
    return lipschitz * half_radius(level, dim)


def known_bound(c: ProblemConstants, budget: int) -> float:
    """Worst-case error of the known-constant algorithm at budget N."""
    d, L, M = c.dim, c.lipschitz, c.level_set
    check_limits(budget, 1 if d == 1 else 2)
    if d == 1:
        big_c = 0.5 * L * 3.0 ** (1.0 + 1.0 / (4.0 * M * L))
        rho = 3.0 ** (-1.0 / (4.0 * M * L))
        return big_c * rho ** budget
    big_c = 1.5 * L * math.sqrt(d) * (3.0 ** d * M * L * math.sqrt(d)) ** (1.0 / (d - 1))
    return big_c * (budget - 1) ** (-1.0 / (d - 1))


def unknown_bound(c: ProblemConstants, budget: int) -> float:
    """Worst-case error of the unknown-constant algorithm at budget N.

    Requires L >= 1 and a whole budget >= 1, which for d > 1 must exceed the
    start-up cost (pi^2/3) * (log3(L) + 2)^2.
    """
    d, L, M = c.dim, c.lipschitz, c.level_set
    check_limits(budget, 1)
    if L < 1.0:
        raise ValueError(f"unknown-constant bound needs lipschitz >= 1, got {L}")
    g = math.log(L) / math.log(3.0) + 2.0
    if d == 1:
        big_c = 18.0 * L * 3.0 ** (1.0 / (2.0 * M * L))
        rho = 3.0 ** (-1.0 / (g ** 2 * 2.0 * math.pi ** 2 * M * L))
        return big_c * rho ** budget
    startup = math.pi ** 2 / 3.0 * g ** 2
    if budget <= startup:
        raise ValueError(f"budget must exceed {startup:.3f} for d > 1")
    big_c = (
        18.0
        * L
        * math.sqrt(d)
        * (3.0 ** d * M * L * math.sqrt(d) * math.pi ** 2 / 2.0 * g ** 2) ** (1.0 / (d - 1))
    )
    return big_c * (budget - startup) ** (-1.0 / (d - 1))


def calls_upper(c: ProblemConstants, level: int) -> float:
    """Upper bound on the calls needed to complete subdivision level k."""
    if not _whole(level, 0):
        raise ValueError(f"level must be a whole number >= 0, got {level!r}")
    d, L, M = c.dim, c.lipschitz, c.level_set
    if d == 1:
        return 1.0 + 4.0 * M * L * level
    return 1.0 + 3.0 ** d * 2.0 * M * L * math.sqrt(d) * (
        3.0 ** (level * (d - 1)) - 1.0
    ) / (3.0 ** (d - 1) - 1.0)


def level_lower(c: ProblemConstants, budget: int) -> int:
    """Lower bound on the level reached with budget N."""
    d, L, M = c.dim, c.lipschitz, c.level_set
    check_limits(budget, 1 if d == 1 else 2)
    if d == 1:
        return int(math.floor((budget - 1) / (4.0 * M * L)))
    return int(
        math.floor(
            (math.log(budget - 1) - math.log(3.0 ** d * M * L * math.sqrt(d)))
            / ((d - 1) * math.log(3.0))
        )
    )
