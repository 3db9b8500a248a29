"""Quantile estimation without the Lipschitz constant.

Candidate constants 3^j, j = 0, 1, ... of `schedule(N)`, each run the
known-constant pruning with their own band and their own slice of the global
budget, floor(6N / (pi^2 (j+1)^2)).  All candidates share one frontier of cells
(`known.Frontier`, one band per candidate) and one pooled quantile per level.
A candidate whose ledger overruns its slice is retired and refines nothing
more.  A cell that only retired candidates hold leaves the frontier once, with
its own mass, as an eligible frozen point, as DIRECT leaves a box that no
constant selects in its partition.  So from the first retirement on, a
`LevelRecord`'s `active_cells` and `active_mass` count only the cells that a
live candidate keeps, and its `frozen_mass` includes the cells that left as
eligible points.  The pooled estimate is returned without a bracket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# center_child_digits is unused here; the benchmark's tests patch it at this path
from .grid import center_child_digits, half_radius  # noqa: F401
from .known import Frontier, Run, check_limits
from .measure import ProductMeasure

_MIN_BUDGET = 2  # smallest N with pi^2/6 <= N, i.e. with any candidate funded


def candidate_budget(j: int, budget: int) -> int:
    """Budget slice floor(6N / (pi^2 (j+1)^2)) for candidate constant 3^j."""
    return int(math.floor(6.0 * budget / (math.pi ** 2 * (j + 1) ** 2)))


@dataclass(frozen=True)
class CandidateSchedule:
    j: int
    lipschitz: float
    budget: int


def schedule(budget: int) -> list[CandidateSchedule]:
    """Candidates j = 0, 1, ... with constant 3^j, while their slice is nonzero."""
    check_limits(budget, _MIN_BUDGET)
    slices = itertools.takewhile(
        lambda n: n >= 1, (candidate_budget(j, budget) for j in itertools.count()))
    return [CandidateSchedule(j, 3.0 ** j, n) for j, n in enumerate(slices)]


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
    check_limits(budget, _MIN_BUDGET, max_level)
    candidates = schedule(budget)
    fr = Frontier(f, measure, alpha, [c.lipschitz for c in candidates],
                  [c.budget for c in candidates])
    return fr.run(budget, max_level)


def best_candidate(lipschitz_true: float) -> int:
    """Smallest j with 3^j >= the true constant."""
    j = 0
    while 3.0 ** j < lipschitz_true:
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
    bound = 4.0 * 3.0 ** j_star * half_radius(min(run.level, level_star), dim)
    return abs(run.estimate - true_quantile) <= bound + 1e-12
