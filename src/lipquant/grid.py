"""Ternary subdivision of the unit cube.

The cube [0,1]^d is split at level k into 3^(k*d) congruent boxes addressed
by digits in [0, 3^k).  The engine (`known.Frontier`) holds cells as int64
digit arrays; this module keeps the cell geometry it shares with the bounds.
"""

from __future__ import annotations

import numpy as np


def half_radius(level: int, dim: int) -> float:
    """Circumscribed radius of a level-k cell: sqrt(d)/(2*3^k)."""
    if level < 0 or dim < 1:
        raise ValueError("need level >= 0 and dim >= 1")
    return float(np.sqrt(dim)) / 2.0 * 3.0 ** (-level)


def center_child_digits(digits: tuple[int, ...]) -> tuple[int, ...]:
    """The child 3b+1, whose center coincides with the parent's."""
    return tuple(3 * b + 1 for b in digits)
