"""The three benchmark workloads: inputs from a seed, one operation, its check.

Every workload runs the paper's d=2 case, f(x) = x1 + x2 under the uniform
law, whose alpha-quantile is analytic: q = 2 - sqrt(2 (1 - alpha)).  Seed 0
runs the paper's alpha = 0.999.  Any other seed draws a panel of distinct
alphas from a grid of ALPHA_STEPS steps of ALPHA_STEP on either side of
0.999, and a run cycles through its panel in order.

Why a panel: the work of an operation depends on how the quantile sits on
the ternary lattice, so neighbouring alphas differ by up to 10% in points
evaluated (386k to 474k on known_d2).  One alpha per run would make run time
a property of the seed; a panel averages that out.  The grid is narrow so
that every alpha reaches the same level, and finite so that every alpha has
a golden output (golden.json).

An operation returns a plain dict of its outputs (floats kept exact), which
is what the checks, the golden comparison and the traced-versus-untraced
comparison read.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

ALPHA = 0.999
ALPHA_STEP = 2e-6
ALPHA_STEPS = 8


def alpha_steps_for_seed(seed: int, count: int) -> list[int]:
    """Grid indices of a seed's alpha panel: all 0 for seed 0, else distinct draws."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed == 0:
        return [0] * count
    steps = [i for i in range(-ALPHA_STEPS, ALPHA_STEPS + 1) if i != 0]
    return [int(i) for i in np.random.default_rng(seed).choice(steps, size=count, replace=False)]


def alpha_of_step(step: int) -> float:
    return ALPHA + step * ALPHA_STEP


def analytic_quantile(alpha: float) -> float:
    """Upper-tail quantile of the Irwin-Hall(2) law, independent of lipquant."""
    return 2.0 - math.sqrt(2.0 * (1.0 - alpha))


@dataclass(frozen=True)
class Inputs:
    """The inputs of one operation."""

    step: int
    alpha: float
    q: float
    size: object  # budget (int) or CLI budget range (str)

    @classmethod
    def at_step(cls, step: int, size) -> "Inputs":
        alpha = alpha_of_step(step)
        return cls(step, alpha, analytic_quantile(alpha), size)


def panel(seed: int, size, count: int) -> list[Inputs]:
    return [Inputs.at_step(step, size) for step in alpha_steps_for_seed(seed, count)]


class FCounter:
    """The user function, wrapped to count its calls and points and time them.

    `slot` is [calls, seconds, points]; `sizes` lists the points of each call,
    which is one call per refinement level.
    """

    def __init__(self):
        self.slot = [0, 0.0, 0]
        self.sizes: list[int] = []

    def wrap(self, f):
        slot, sizes = self.slot, self.sizes

        def counted(x):
            t0 = perf_counter()
            out = f(x)
            slot[1] += perf_counter() - t0
            slot[0] += 1
            slot[2] += len(x)
            sizes.append(len(x))
            return out

        return counted


# -- operations -------------------------------------------------------------


def _known_op(lq, inputs: Inputs, counter: FCounter, tmpdir: str) -> tuple[float, dict]:
    p = lq.problems.paper_f_d2(inputs.alpha)
    f = counter.wrap(p.f)
    t0 = perf_counter()
    run = lq.known.run_known(f, p.lipschitz, p.measure, p.alpha, inputs.size)
    wall = perf_counter() - t0
    b = run.bracket
    return wall, {"estimate": b.estimate, "lower": b.lower, "upper": b.upper,
                  "level": b.level, "f_sizes": list(counter.sizes)}


def _unknown_op(lq, inputs: Inputs, counter: FCounter, tmpdir: str) -> tuple[float, dict]:
    p = lq.problems.paper_f_d2(inputs.alpha)
    f = counter.wrap(p.f)
    t0 = perf_counter()
    run = lq.unknown.run_unknown(f, p.measure, p.alpha, inputs.size)
    wall = perf_counter() - t0
    # half-width of the bound that unknown_error_bound_check certifies,
    # 4 * 3^j* * delta_min(k, retirement(j*)), with j* from the true constant
    j_star = lq.unknown.best_candidate(p.lipschitz)
    level = min(run.level, run.retirement_level.get(j_star, run.level))
    bound_ok = lq.unknown.unknown_error_bound_check(run, inputs.q, p.lipschitz, p.dim)
    return wall, {"estimate": run.estimate, "level": run.level, "f_sizes": list(counter.sizes),
                  "halfwidth": 4.0 * 3.0 ** j_star * lq.grid.half_radius(level, p.dim),
                  "bound_ok": bool(bound_ok)}


def _cli_op(lq, inputs: Inputs, counter: FCounter, tmpdir: str) -> tuple[float, dict]:
    builtin = lq.problems.BUILTIN_PROBLEMS
    original = builtin["paper_d2"]

    def counted_problem(*args, **kwargs):
        p = original(*args, **kwargs)
        return dataclasses.replace(p, f=counter.wrap(p.f))

    out = os.path.join(tmpdir, "sweep.csv")
    argv = ["run", "--problem", "paper_d2", "--alpha", repr(inputs.alpha),
            "--budgets", inputs.size, "--out", out]
    builtin["paper_d2"] = counted_problem
    try:
        t0 = perf_counter()
        code = lq.cli.main(argv)
        wall = perf_counter() - t0
    finally:
        builtin["paper_d2"] = original
    header, rows = [], []
    if code == 0:
        with open(out, newline="") as fh:
            header, *body = list(csv.reader(fh))
        rows = [[int(r[0]), *map(float, r[1:4]), int(r[4]), int(r[5]), float(r[6])] for r in body]
    return wall, {"exit_code": code, "header": header, "rows": rows, "f_sizes": list(counter.sizes)}


# -- checks -----------------------------------------------------------------


def _check_known(out: dict, inputs: Inputs) -> list[str]:
    q = inputs.q
    bad = []
    if not out["lower"] <= q <= out["upper"]:
        bad.append(f"bracket [{out['lower']!r}, {out['upper']!r}] excludes q={q!r}")
    if abs(out["estimate"] - q) > out["upper"] - out["estimate"]:
        bad.append(f"|estimate - q| = {abs(out['estimate'] - q)!r} exceeds the half-width")
    return bad


def _check_unknown(out: dict, inputs: Inputs) -> list[str]:
    if out["bound_ok"]:
        return []
    return [f"unknown_error_bound_check failed: estimate {out['estimate']!r}, q={inputs.q!r}"]


def _check_cli(out: dict, inputs: Inputs) -> list[str]:
    from lipquant.cli import CSV_HEADER

    q = inputs.q
    if out["exit_code"] != 0:
        return [f"exit code {out['exit_code']}"]
    bad = []
    if out["header"] != CSV_HEADER:
        bad.append(f"header {out['header']} != {CSV_HEADER}")
    start, stop, step = (int(x) for x in inputs.size.split(":"))
    if len(out["rows"]) != len(range(start, stop + 1, step)):
        bad.append(f"{len(out['rows'])} rows for budgets {inputs.size}")
    for n, _est, lower, upper, _level, _evals, true_q in out["rows"]:
        if abs(true_q - q) > 1e-12:
            bad.append(f"n={n}: true_q {true_q!r} != reference {q!r}")
        elif not lower <= true_q <= upper:
            bad.append(f"n={n}: bracket [{lower!r}, {upper!r}] excludes true_q={true_q!r}")
    return bad


def halfwidth(name: str, out: dict) -> float:
    """Certified half-width of an output (at the largest budget for the CLI)."""
    if name == "unknown_d2":
        return out["halfwidth"]
    if name == "cli_sweep_d2":
        _n, est, _lower, upper, *_ = out["rows"][-1]
        return upper - est
    return out["upper"] - out["estimate"]


def abs_error(name: str, out: dict, q: float) -> float:
    """|estimate - q|, the maximum over rows for the CLI sweep."""
    if name == "cli_sweep_d2":
        return max(abs(r[1] - q) for r in out["rows"])
    return abs(out["estimate"] - q)


@dataclass(frozen=True)
class Workload:
    name: str
    size: object  # the operation's budget, or the CLI's budget range
    op: object
    check: object
    alphas_per_run: int  # about as many operations as fit in one run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("known_d2", 10 ** 6, _known_op, _check_known, alphas_per_run=8),
        Workload("unknown_d2", 10 ** 5, _unknown_op, _check_unknown, alphas_per_run=4),
        Workload("cli_sweep_d2", "1000:100000:5000", _cli_op, _check_cli, alphas_per_run=7),
    )
}


# -- golden outputs ---------------------------------------------------------


def golden_view(name: str, out: dict) -> dict:
    """The fields of an output that golden.json records."""
    if name == "cli_sweep_d2":
        return {"rows": [r[:6] for r in out["rows"]], "f_sizes": out["f_sizes"]}
    keys = ("estimate", "level", "f_sizes") if name == "unknown_d2" else (
        "estimate", "lower", "upper", "level", "f_sizes")
    return {k: out[k] for k in keys}


def count_diffs(a, b) -> int:
    """Scalars that differ between two nested lists/dicts; a missing one counts."""
    if isinstance(a, dict) and isinstance(b, dict):
        return sum(count_diffs(a.get(k), b.get(k)) for k in set(a) | set(b))
    if isinstance(a, list) and isinstance(b, list):
        return sum(count_diffs(x, y) for x, y in zip(a, b)) + abs(len(a) - len(b))
    return int(a != b)
