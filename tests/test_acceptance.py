"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Each test computes its verdict, prints a single `criterion N: PASS/FAIL` line
(visible with `pytest -s` or in captured output on failure), then asserts.
"""

import math

import numpy as np
import pytest

import lipquant as lq
from lipquant.bounds import ProblemConstants, calls_upper, known_bound, unknown_bound
from lipquant.cli import fit_slope
from lipquant.known import run_known
from lipquant.unknown import best_candidate, run_unknown

from conftest import random_lipschitz_problem
from oracles import full_grid_estimate

#: float noise floor: brackets/errors below this are at the limit of double
#: precision and of the reference oracles, so literal-zero checks use this
#: margin instead (documented deviation from exact-arithmetic statements)
NOISE = 1e-12

INFLATE = 1.5


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def inflated_d1(paper_d1, paper_d1_quantile):
    lip = lq.estimate_lipschitz(paper_d1) * INFLATE
    m = lq.estimate_level_set_M(paper_d1, true_quantile=paper_d1_quantile) * INFLATE
    return ProblemConstants(1, lip, m, paper_d1.alpha)


@pytest.fixture(scope="module")
def inflated_d2(paper_d2):
    lip = lq.estimate_lipschitz(paper_d2, n=10 ** 5, seed=3) * INFLATE
    m = lq.estimate_level_set_M(paper_d2, true_quantile=paper_d2.true_quantile) * INFLATE
    return ProblemConstants(2, lip, m, paper_d2.alpha)


def test_criterion_01_bracket_validity(
    paper_d1_deep_run, paper_d2_deep_run, paper_d1_quantile, paper_d2
):
    violations = 0
    for n in range(1, 2001):
        b = paper_d1_deep_run.bracket_for_budget(n)
        # NOISE margin: the reference quantile itself is only ~1e-13 accurate
        if not (b.lower - NOISE <= paper_d1_quantile <= b.upper + NOISE):
            violations += 1
        b = paper_d2_deep_run.bracket_for_budget(n)
        if not (b.lower <= paper_d2.true_quantile <= b.upper):
            violations += 1
    report(1, violations == 0, f"{violations} violations over 2x2000 budgets")


def test_criterion_02_d2_analytic_reproduction(paper_d2):
    run = run_known(paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 5000)
    err = abs(run.bracket.estimate - paper_d2.true_quantile)
    report(2, err < 0.01, f"|estimate - (2 - sqrt(0.002))| = {err:.3e}")


def test_criterion_03_d1_reproduction_and_rate(paper_d1, paper_d1_quantile):
    grid_q = lq.brute_force_quantile(paper_d1, 10 ** 6)
    budgets = list(range(10, 501, 10))
    deep = run_known(
        paper_d1.f, paper_d1.lipschitz, paper_d1.measure, paper_d1.alpha, max(budgets)
    )
    swept = {n: deep.bracket_for_budget(n) for n in budgets}
    err_500 = abs(swept[500].estimate - grid_q)
    # exclude budgets whose error sits below the oracle/float noise floor
    errors = [abs(swept[n].estimate - paper_d1_quantile) for n in budgets]
    usable = [(n, e) for n, e in zip(budgets, errors) if e > NOISE]
    slope, _, _ = fit_slope([n for n, _ in usable], [e for _, e in usable], "semilog")
    rho_hat = math.exp(slope)
    ok = err_500 < 5e-3 and 0.80 <= rho_hat <= 0.90
    report(3, ok, f"error(N=500) = {err_500:.3e}, rho_hat = {rho_hat:.4f}")


def test_criterion_04_d2_rates(paper_d2):
    known_budgets = [50, 100, 200, 500, 1000, 2000, 5000]
    known_errs = [
        abs(
            run_known(paper_d2.f, paper_d2.lipschitz, paper_d2.measure,
                      paper_d2.alpha, n).bracket.estimate
            - paper_d2.true_quantile
        )
        for n in known_budgets
    ]
    k_slope, _, _ = fit_slope(known_budgets, known_errs, "loglog")

    unk_budgets = [100, 200, 500, 1000, 2000, 5000, 10000]
    unk_errs = [
        abs(run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, n).estimate
            - paper_d2.true_quantile)
        for n in unk_budgets
    ]
    u_slope, _, _ = fit_slope(unk_budgets, unk_errs, "loglog")
    ok = k_slope <= -1.0 and u_slope <= -0.6
    report(4, ok, f"known slope = {k_slope:.3f} (<= -1), unknown slope = {u_slope:.3f} (<= -0.6)")


def test_criterion_05_bound_dominance(
    paper_d1, paper_d2, paper_d1_quantile,
    paper_d1_deep_run, paper_d2_deep_run, inflated_d1, inflated_d2,
):
    violations = checked = 0
    for run, c, q, start in (
        (paper_d1_deep_run, inflated_d1, paper_d1_quantile, 1),
        (paper_d2_deep_run, inflated_d2, paper_d2.true_quantile, 2),
    ):
        for n in range(start, 2001):
            bound = known_bound(c, n)
            if bound <= NOISE:
                continue  # below double precision: not checkable in floats
            checked += 1
            if abs(run.bracket_for_budget(n).estimate - q) > bound:
                violations += 1
    for p, c, q in ((paper_d1, inflated_d1, paper_d1_quantile),
                    (paper_d2, inflated_d2, paper_d2.true_quantile)):
        for n in (200, 500, 1000, 3000):
            try:
                bound = unknown_bound(c, n)
            except ValueError:
                continue  # budget below the start-up threshold
            checked += 1
            run = run_unknown(p.f, p.measure, p.alpha, n)
            if abs(run.estimate - q) > bound:
                violations += 1
    report(5, violations == 0, f"{violations} violations across {checked} checked budgets")


def test_criterion_06_pruned_equals_full_grid(paper_d1, paper_d2):
    mismatches = 0
    suite = [paper_d1, paper_d2, lq.linear_d1(0.3)]
    for p in suite:
        run = run_known(p.f, p.lipschitz, p.measure, p.alpha, 10 ** 9, max_level=4)
        for r in run.history:
            if r.estimate != full_grid_estimate(p.f, p.measure, p.alpha, r.level):
                mismatches += 1
    rng = np.random.default_rng(12345)
    for trial in range(100):
        d = 1 + trial % 2
        f, lip = random_lipschitz_problem(rng, d)
        m = lq.uniform_cube(d)
        alpha = float(rng.uniform(0.05, 0.95))
        run = run_known(f, lip, m, alpha, 10 ** 9, max_level=4)
        for r in run.history:
            if r.estimate != full_grid_estimate(f, m, alpha, r.level):
                mismatches += 1
    report(6, mismatches == 0, f"{mismatches} mismatches (suite + 100 random functions)")


def test_criterion_07_budget_accounting(
    paper_d1, paper_d2, paper_d1_deep_run, paper_d2_deep_run, inflated_d1, inflated_d2
):
    violations = 0
    for run, d, c in ((paper_d1_deep_run, 1, inflated_d1), (paper_d2_deep_run, 2, inflated_d2)):
        hist = run.history
        expected = 1
        for prev, cur in zip(hist, hist[1:]):
            expected += (3 ** d - 1) * (cur.active_cells // 3 ** d)
            if cur.evaluations != expected or cur.evaluations > 2000:
                violations += 1
            if cur.evaluations > calls_upper(c, cur.level):
                violations += 1
    for p, n in ((paper_d1, 1000), (paper_d2, 2000)):
        run = run_unknown(p.f, p.measure, p.alpha, n)
        if run.evaluations > n:
            violations += 1
    report(7, violations == 0, f"{violations} ledger/evaluation violations")


def test_criterion_08_pooling_consistency(paper_d1):
    j_star = best_candidate(paper_d1.lipschitz)
    run = run_unknown(paper_d1.f, paper_d1.measure, paper_d1.alpha, 500)
    retire = run.retirement_level[j_star]
    known = run_known(
        paper_d1.f, 3.0 ** j_star, paper_d1.measure, paper_d1.alpha,
        10 ** 9, max_level=retire,
    )
    violations = levels = 0
    for rec_u, rec_k in zip(run.history, known.history):
        if rec_u.level > retire:
            break
        levels += 1
        if rec_u.estimate != rec_k.estimate:
            violations += 1
    ok = violations == 0 and levels >= 5
    report(8, ok, f"{violations} mismatches over {levels} live levels of candidate j*={j_star}")


def test_criterion_09_optimality_adversary():
    rng = np.random.default_rng(2026)
    failures = []
    for n in (3, 9, 27):
        rep = lq.verify_separation(lq.build_adversary_d2(rng.random((n, 2))))
        if not rep.passed:
            failures.append(("d2", n))
    for n in range(3, 11):
        rep = lq.verify_separation(lq.build_adversary_d1(rng.random(n)))
        if not rep.passed:
            failures.append(("d1", n))
    report(9, not failures, f"failures: {failures or 'none'} (d2 N in {{3,9,27}}, d1 N in 3..10)")


def test_criterion_10_mass_conservation(
    paper_d1, paper_d2, paper_d1_deep_run, paper_d2_deep_run
):
    violations = 0
    for run in (paper_d1_deep_run, paper_d2_deep_run):
        for r in run.history:
            if abs(r.active_mass + r.frozen_mass - 1.0) > 1e-10:
                violations += 1
    for p, n in ((paper_d1, 1000), (paper_d2, 2000)):
        run = run_unknown(p.f, p.measure, p.alpha, n)
        for r in run.history:
            if abs(r.active_mass + r.frozen_mass - 1.0) > 1e-10:
                violations += 1
    report(10, violations == 0, f"{violations} levels out of tolerance 1e-10")
