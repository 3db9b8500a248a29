"""Quantile estimation without the Lipschitz constant.

Candidate constants 3^j, j = 0, 1, ..., each run the known-constant pruning
with their own band and their own slice of the global budget,
floor(6N / (pi^2 (j+1)^2)), both given as arrays by `schedule(N)`; a constant
past the float range is `inf`, and its band keeps every cell.  All candidates
share one frontier of cells (`known.Frontier`, one band per candidate) and one
pooled quantile per level.  A candidate whose ledger overruns its slice is
retired and refines nothing more.  The candidates' sets are nested and their
slices shrink as j grows, so a wider candidate's ledger is never below a
narrower one's: candidates retire from the top, and the live ones are
0..n_live-1.  At a level where candidates retire, every cell's value becomes
an eligible frozen point, with mass 0 for a cell that a live candidate keeps,
whose center child carries its value and mass on; a cell that no live
candidate keeps leaves the frontier once, with its own mass, as DIRECT leaves
a box that no constant selects in its partition.  So from the first
retirement on, a `LevelRecord`'s `active_cells` and `active_mass` count only
the cells that a live candidate keeps, and its `frozen_mass` includes the
cells that left as eligible points.  The pooled estimate is returned without a
bracket.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import finite_real
# center_child_digits is unused here; the benchmark's tests patch it at this path
from .grid import center_child_digits, half_radius  # noqa: F401
from .known import Frontier, Run, check_limits
from .measure import ProductMeasure

MIN_BUDGET = 2  # smallest N with pi^2/6 <= N, i.e. with any candidate funded
_J_INF = 647  # the smallest j with 3^j past the float range


def candidate_constant(j: int) -> float:
    """Candidate j's constant 3^j, as `3.0 ** j` gives it (NumPy's own power
    can differ from it in the last bit), and `inf` past the float range."""
    return 3.0 ** j if j < _J_INF else math.inf


def schedule(budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidates j = 0, 1, ... while their slice is nonzero, as the arrays
    (constants, slices): `candidate_constant(j)` and floor(6N / (pi^2 (j+1)^2))."""
    check_limits(budget, MIN_BUDGET)
    # (j+1)^2 <= 6N/pi^2 up to rounding, which two more j cover
    j1 = np.arange(1, int(math.sqrt(6.0 * budget) / math.pi) + 3)
    slices = np.floor(6.0 * budget / (math.pi ** 2 * j1 ** 2)).astype(np.int64)
    slices = slices[slices >= 1]
    constants = np.full(len(slices), math.inf)
    constants[:_J_INF] = [candidate_constant(j) for j in range(min(len(slices), _J_INF))]
    return constants, slices


def run_unknown(
    f,
    measure: ProductMeasure,
    alpha: float,
    budget: int,
    max_level: int | None = None,
) -> Run:
    """Run the unknown-constant algorithm with a global budget of N calls.

    Candidate j of `schedule(budget)` is band j of one shared `Frontier`.
    Refinement stops at level K_MAX.
    """
    check_limits(budget, MIN_BUDGET, max_level)
    return Frontier(f, measure, alpha, *schedule(budget)).run(budget, max_level)


def best_candidate(lipschitz_true: float) -> int:
    """Smallest j whose `candidate_constant(j)` is at least the true
    constant, which must be finite and positive: 647, whose constant is
    `inf`, for a constant above 3.0 ** 646."""
    if not (finite_real(lipschitz_true) and lipschitz_true > 0):
        raise ValueError(f"lipschitz_true must be finite and positive, got {lipschitz_true!r}")
    j = 0
    while candidate_constant(j) < lipschitz_true:
        j += 1
    return j


def unknown_error_bound_check(
    run: Run, true_quantile: float, lipschitz_true: float, dim: int
) -> bool:
    """Check |estimate - q| <= 4 * 3^{j*} * delta^{min(k, retirement(j*))}.

    The comparison carries a 1e-12 margin: at deep levels the theoretical
    bound drops below double precision, where both the estimate (a cell
    center computed in floats) and any reference quantile carry larger
    representation error than the bound itself.
    """
    j_star = best_candidate(lipschitz_true)
    level_star = run.retirement_level.get(j_star, run.level)
    # past the float range the bound is inf, which any estimate meets
    bound = 4.0 * candidate_constant(j_star) * half_radius(min(run.level, level_star), dim)
    return abs(run.estimate - true_quantile) <= bound + 1e-12
