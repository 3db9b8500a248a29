"""Experiment command line: budget sweeps, optimality checks, oracles.

Subcommands:
  run        sweep budgets for one problem/algorithm, write CSV, fit a slope
  adversary  build the worst-case pairs and verify the claimed quantile gaps
  oracle     print ground-truth quantities for a builtin problem

Exit codes: 0 success, 2 configuration error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .adversary import build_adversary_d1, build_adversary_d2, verify_separation
from .bounds import ProblemConstants, finite_real, known_bound, unknown_bound
from .known import check_limits, run_known
from .problems import (
    BUILTIN_PROBLEMS,
    TestProblem,
    brute_force_quantile,
    check_resolution,
    estimate_level_set_M,
    estimate_lipschitz,
    monte_carlo_quantile,
    reference_quantile,
)
from .unknown import MIN_BUDGET, run_unknown

CSV_HEADER = ["n", "estimate", "lower", "upper", "level", "evals", "true_q", "abs_error", "bound"]

#: The algorithms of `run`, each with the least budget that its library call accepts.
LEAST_BUDGET = {"known": 1, "unknown": MIN_BUDGET, "monte_carlo": 1}


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    """The inputs of one command (`adversary` reads only `seed`); the one
    place where bad ones are refused."""

    problem: str = "paper_d1"
    algo: str = "known"
    alpha: Optional[float] = None
    budgets: Sequence[int] = (10, 50, 100, 500)
    lipschitz: Optional[float] = None
    level_set: Optional[float] = None
    out: Optional[str] = None
    seed: int = 0
    resolution: Optional[int] = None

    def __post_init__(self):
        if self.problem not in BUILTIN_PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; "
                              f"choose from {sorted(BUILTIN_PROBLEMS)}")
        if self.algo not in LEAST_BUDGET:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        if self.alpha is not None and not (isinstance(self.alpha, numbers.Real)
                                           and 0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha!r}")
        for name in ("lipschitz", "level_set"):
            value = getattr(self, name)
            if value is not None and not (finite_real(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        if not (isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool)
                and self.seed >= 0):
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        try:
            check_resolution(self.resolution)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        _check_budgets(self.budgets, LEAST_BUDGET[self.algo])


def _check_budgets(budgets: Sequence[int], least: int) -> None:
    """At least one budget, each a whole number >= `least` as the library's
    `check_limits` has it, in strictly increasing order."""
    if not isinstance(budgets, Sequence):
        raise ConfigError(f"budgets must be a sequence, got {budgets!r}")
    for n in budgets:
        try:
            check_limits(n, least)
        except ValueError as exc:
            raise ConfigError(f"budget {n}: {exc}") from None
    if len(budgets) == 0 or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ConfigError("budgets must be non-empty and strictly increasing")


def parse_budgets(text: str) -> list[int]:
    """Comma list ("10,100,1000") or range ("start:stop:step", inclusive),
    refused by the rules of `_check_budgets` for a budget of at least 1."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            start, stop, step = parts if len(parts) == 3 else parts + [1]
            budgets = list(range(start, stop + 1, step))
        else:
            budgets = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse budgets {text!r}") from None
    _check_budgets(budgets, 1)
    return budgets


def parse_query_counts(text: str) -> list[int]:
    """The adversary's comma list of query counts ("3,9,27"), all positive."""
    try:
        counts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse query counts {text!r}") from None
    if not counts or any(n < 1 for n in counts):
        raise ConfigError(f"--n needs positive integer query counts, got {text!r}")
    return counts


def load_config_file(path: str) -> dict[str, str]:
    """Plain key=value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return out


def build_problem(cfg: ExperimentConfig) -> TestProblem:
    """The named builtin problem at `cfg.alpha`, with `cfg.lipschitz` if given;
    f and the law stay, and so does the factory's analytic quantile."""
    factory = BUILTIN_PROBLEMS[cfg.problem]
    p = factory() if cfg.alpha is None else factory(cfg.alpha)
    return p if cfg.lipschitz is None else replace(p, lipschitz=cfg.lipschitz)


def fit_slope(ns: Sequence[float], errors: Sequence[float], mode: str) -> tuple[float, float, float]:
    """Least-squares slope of ln(error) against N (semilog) or ln N (loglog).

    Rows with non-positive error are excluded; at least 3 usable rows are
    required.  Returns (slope, intercept, R^2).
    """
    if mode not in ("semilog", "loglog"):
        raise ValueError(f"mode must be semilog or loglog, got {mode!r}")
    xs, ys = [], []
    for n, err in zip(ns, errors):
        if err > 0:
            xs.append(float(n) if mode == "semilog" else math.log(n))
            ys.append(math.log(err))
    if len(xs) < 3:
        raise ValueError(f"need >= 3 rows with positive error, got {len(xs)}")
    x, y = np.array(xs), np.array(ys)
    # the closed-form line: no BLAS or LAPACK call, whose first use grows the process
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    intercept = float(y.mean() - slope * x.mean())
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def _fmt(x) -> str:
    """A CSV cell: empty for None, an integer as is, any other number as a float's repr."""
    if x is None:
        return ""
    return str(x) if isinstance(x, int) else repr(float(x))


def run_experiment(cfg: ExperimentConfig, stream=None) -> list[dict]:
    """One CSV row per budget; known-constant budgets share one deep run.
    The CSV goes to `cfg.out` if set, else to `stream` (by default the
    `sys.stdout` of the call)."""
    stream = sys.stdout if stream is None else stream
    p = build_problem(cfg)
    try:  # before any run, so that a bad path costs nothing
        out_fh = open(cfg.out, "w", newline="") if cfg.out else stream
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc.strerror}") from None
    try:
        rows = _sweep(cfg, p)
        writer = csv.DictWriter(out_fh, CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows({key: _fmt(value) for key, value in r.items()} for r in rows)
    finally:
        if cfg.out:
            out_fh.close()

    mode = "semilog" if p.dim == 1 else "loglog"
    try:
        slope, intercept, r2 = fit_slope(
            [r["n"] for r in rows], [r["abs_error"] for r in rows], mode
        )
        summary = f"# slope ({mode}): {slope:.6f}  intercept: {intercept:.6f}  R2: {r2:.4f}"
        if p.dim == 1:
            summary += f"  rho_hat: {math.exp(slope):.6f}"
        print(summary, file=sys.stderr)
    except ValueError as exc:
        print(f"# slope fit skipped: {exc}", file=sys.stderr)
    return rows


def _sweep(cfg: ExperimentConfig, p: TestProblem) -> list[dict]:
    """The CSV rows of `run_experiment`, one per budget."""
    constants = None
    if cfg.level_set is not None:
        constants = ProblemConstants(p.dim, p.lipschitz, cfg.level_set, p.alpha)
    true_q = reference_quantile(p, cfg.resolution)
    if cfg.algo == "known":  # one deep run answers every budget
        deep = run_known(p.f, p.lipschitz, p.measure, p.alpha, max(cfg.budgets))
    rows: list[dict] = []
    for n in cfg.budgets:
        lower = upper = level = evals = bound = None
        if cfg.algo == "known":
            b = deep.bracket_for_budget(n)
            estimate, lower, upper = b.estimate, b.lower, b.upper
            level, evals = b.level, b.evaluations
            if constants is not None and (p.dim == 1 or n > 1):
                bound = known_bound(constants, n)
        elif cfg.algo == "unknown":
            run = run_unknown(p.f, p.measure, p.alpha, n)
            estimate, level, evals = run.estimate, run.level, run.evaluations
            if constants is not None and p.lipschitz >= 1.0:
                try:
                    bound = unknown_bound(constants, n)
                except ValueError:
                    bound = None  # budget below the start-up threshold
        else:
            estimate, _ = monte_carlo_quantile(p, max(n, 100), cfg.seed)
            evals = max(n, 100)
        row = (n, estimate, lower, upper, level, evals, true_q, abs(estimate - true_q), bound)
        rows.append(dict(zip(CSV_HEADER, row)))
    return rows


def adversary_report(dim: int, n_values: Sequence[int], seed: int = 0, stream=None) -> bool:
    """Pass/fail table of the optimality constructions, printed to `stream`
    (by default the `sys.stdout` of the call); True if all pass."""
    stream = sys.stdout if stream is None else stream
    rng = np.random.default_rng(seed)
    build = build_adversary_d2 if dim == 2 else build_adversary_d1
    try:  # every construction, so that a refused one stops the report before any is verified
        advs = [build(rng.random((n, dim))) for n in n_values]
    except ValueError as exc:
        raise ConfigError(f"--n: {exc}") from None
    all_pass = True
    print("n,claimed_gap,measured_gap,agreement_residual,status", file=stream)
    for n, adv in zip(n_values, advs):
        rep = verify_separation(adv)
        all_pass &= rep.passed
        print(
            f"{n},{rep.claimed_gap!r},{rep.measured_gap!r},"
            f"{rep.agreement_residual!r},{'pass' if rep.passed else 'FAIL'}",
            file=stream,
        )
    return all_pass


def oracle_report(cfg: ExperimentConfig, stream=None) -> None:
    """Ground truth for a builtin problem, printed to `stream` (by default the
    `sys.stdout` of the call): the grid oracle always, next to the analytic
    quantile where one exists, which is then the reference of the level-set
    constant."""
    stream = sys.stdout if stream is None else stream
    p = build_problem(cfg)
    grid = brute_force_quantile(p, cfg.resolution)
    q = grid if p.true_quantile is None else p.true_quantile  # as reference_quantile picks it
    print(f"problem: {p.name}", file=stream)
    print(f"dimension: {p.dim}", file=stream)
    print(f"alpha: {p.alpha!r}", file=stream)
    print(f"declared_lipschitz: {p.lipschitz!r}", file=stream)
    print(f"estimated_lipschitz: {estimate_lipschitz(p)!r}", file=stream)
    if p.true_quantile is not None:
        print(f"analytic_quantile: {p.true_quantile!r}", file=stream)
    print(f"grid_oracle_quantile: {grid!r}", file=stream)
    try:
        m = estimate_level_set_M(p, true_quantile=q, resolution=cfg.resolution)
        print(f"estimated_level_set_M: {m!r}", file=stream)
    except ValueError as exc:
        print(f"estimated_level_set_M: unavailable ({exc})", file=stream)


@functools.cache  # built once: parse_args keeps no state between calls
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipquant",
        description="Deterministic quantile bounds for Lipschitz functions on the unit cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="budget sweep, CSV output")
    run_p.add_argument("--config", help="key=value config file; flags override it")
    run_p.add_argument("--problem", help="paper_d1 | paper_d2 | linear_d1")
    run_p.add_argument("--algo", help="known | unknown | monte_carlo")
    run_p.add_argument("--alpha")
    run_p.add_argument("--budgets", help="comma list or start:stop:step")
    run_p.add_argument("--lipschitz", help="override the Lipschitz constant")
    run_p.add_argument("--level-set", dest="level_set",
                       help="level-set constant M, enables the bound column")
    run_p.add_argument("--out", help="CSV path (default stdout)")
    run_p.add_argument("--seed", help="Monte Carlo seed")
    run_p.add_argument("--resolution", help="grid oracle resolution")

    adv_p = sub.add_parser("adversary", help="verify the optimality constructions")
    adv_p.add_argument("--dim", type=int, choices=(1, 2), required=True)
    adv_p.add_argument("--n", default="", help="comma list of query counts")
    adv_p.add_argument("--seed")

    orc_p = sub.add_parser("oracle", help="print ground truth for a problem")
    orc_p.add_argument("--problem")
    orc_p.add_argument("--alpha")
    orc_p.add_argument("--resolution")
    return parser


#: The keys of a config file or of the flags, each with the parser of its text.
CONFIG_KEYS = {"problem": str, "algo": str, "alpha": float, "budgets": parse_budgets,
               "lipschitz": float, "level_set": float, "out": str, "seed": int,
               "resolution": int}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file, if any, with the flags given over it; each value is
    parsed once, from its text, by its key's parser."""
    merged = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key in merged:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return ExperimentConfig(**{key: CONFIG_KEYS[key](v) for key, v in merged.items()})
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "run":
            run_experiment(_config_from_args(args))
            return 0
        if args.command == "adversary":
            seed = _config_from_args(args).seed
            ok = adversary_report(args.dim, parse_query_counts(args.n), seed=seed)
            return 0 if ok else 3
        if args.command == "oracle":
            oracle_report(_config_from_args(args))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
