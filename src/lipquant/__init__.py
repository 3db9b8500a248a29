"""Deterministic quantile bounds for Lipschitz functions on the unit cube.

Given f Lipschitz on [0,1]^d and the law of X as a product of marginal CDFs,
the known-constant algorithm returns a bracket that provably contains the
alpha-quantile of f(X) using at most N evaluations of f; the unknown-constant
variant drops the Lipschitz constant requirement at a slower rate.
"""

from .adversary import (
    Adversary,
    SeparationReport,
    build_adversary_d1,
    build_adversary_d2,
    verify_separation,
)
from .bounds import (
    ProblemConstants,
    bracket_halfwidth,
    calls_upper,
    known_bound,
    level_lower,
    unknown_bound,
)
from .known import QuantileBracket, Run, run_known
from .measure import (
    Marginal,
    ProductMeasure,
    product_measure,
    truncated_normal_marginal,
    uniform_cube,
    uniform_marginal,
    user_marginal,
)
from .problems import (
    TestProblem,
    brute_force_quantile,
    estimate_level_set_M,
    estimate_lipschitz,
    linear_d1,
    monte_carlo_quantile,
    paper_f_d1,
    paper_f_d2,
    reference_quantile,
)
from .unknown import best_candidate, run_unknown
from .wquantile import ValueMassTable

__all__ = [
    "Adversary",
    "Marginal",
    "ProblemConstants",
    "ProductMeasure",
    "QuantileBracket",
    "Run",
    "SeparationReport",
    "TestProblem",
    "ValueMassTable",
    "best_candidate",
    "bracket_halfwidth",
    "brute_force_quantile",
    "build_adversary_d1",
    "build_adversary_d2",
    "calls_upper",
    "estimate_level_set_M",
    "estimate_lipschitz",
    "known_bound",
    "level_lower",
    "linear_d1",
    "monte_carlo_quantile",
    "paper_f_d1",
    "paper_f_d2",
    "product_measure",
    "reference_quantile",
    "run_known",
    "run_unknown",
    "truncated_normal_marginal",
    "unknown_bound",
    "uniform_cube",
    "uniform_marginal",
    "user_marginal",
    "verify_separation",
]

__version__ = "0.1.0"
