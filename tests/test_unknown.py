"""Unknown-constant algorithm: schedule, pooling, retirement, error bound."""

import math

import numpy as np
import pytest

import lipquant as lq
from lipquant.known import run_known
from lipquant.unknown import (
    best_candidate,
    candidate_budget,
    run_unknown,
    schedule,
    unknown_error_bound_check,
)

from oracles import frontier_sets


class TestSchedule:
    def test_candidate_budget_formula(self):
        assert candidate_budget(0, 100) == math.floor(600 / math.pi ** 2)
        assert candidate_budget(3, 1000) == math.floor(6000 / (math.pi ** 2 * 16))

    def test_j_max_examples(self):
        # j_max(N), the largest candidate id, is the last of the schedule
        assert schedule(2)[-1].j == 0
        assert schedule(100)[-1].j == 6
        assert schedule(1000)[-1].j == 23

    def test_j_max_minimum_budget(self):
        with pytest.raises(ValueError):
            schedule(1)

    def test_budgets_sum_within_global(self):
        for n in (2, 10, 100, 1000, 12345):
            assert sum(c.budget for c in schedule(n)) <= n

    def test_candidate_lipschitz_values(self):
        s = schedule(50)
        assert [c.lipschitz for c in s] == [3.0 ** j for j in range(len(s))]
        assert s[0].j == 0  # candidate L=1 included


class TestRuns:
    def test_paper_d1_reproduction(self, paper_d1, paper_d1_quantile):
        run = run_unknown(paper_d1.f, paper_d1.measure, paper_d1.alpha, 3000)
        assert abs(run.estimate - paper_d1_quantile) < 0.01

    def test_paper_d2_reproduction(self, paper_d2):
        run = run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, 5000)
        assert abs(run.estimate - paper_d2.true_quantile) < 0.02

    def test_constant_function(self):
        m = lq.uniform_cube(1)
        run = run_unknown(lambda x: np.full(len(x), 2.5), m, 0.7, 50)
        assert run.estimate == 2.5
        assert all(r.estimate == 2.5 for r in run.history)

    def test_evaluation_economy(self, paper_d1, paper_d2):
        for p, n in ((paper_d1, 500), (paper_d2, 1000)):
            run = run_unknown(p.f, p.measure, p.alpha, n)
            assert run.evaluations <= n

    def test_all_candidates_retire(self, paper_d1, paper_d2):
        run = run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, 200)
        assert run.stop_reason == "all_retired"
        assert set(run.retirement_level) == set(range(run.enumerated_j_max + 1))
        for j, level in run.retirement_level.items():
            assert run.ledgers[j] > candidate_budget(j, 200)
        # on paper_d1, candidate 0 would retire only at level 39, past the
        # precision floor K_MAX = 32, where the run stops with it still live
        run = run_unknown(paper_d1.f, paper_d1.measure, paper_d1.alpha, 200)
        assert run.stop_reason == "precision"
        assert run.level == 32
        assert run.enumerated_j_max == 10
        assert set(run.retirement_level) == set(range(1, 11))
        for j in range(1, 11):
            assert run.ledgers[j] > candidate_budget(j, 200)
        assert run.ledgers[0] <= candidate_budget(0, 200)
        assert run.history[-1].live == (0,)

    def test_mass_conservation(self, paper_d1, paper_d2):
        for p, n in ((paper_d1, 300), (paper_d2, 800)):
            run = run_unknown(p.f, p.measure, p.alpha, n)
            for r in run.history:
                assert r.active_mass + r.frozen_mass == pytest.approx(1.0, abs=1e-10)

    def test_validation(self, paper_d1):
        with pytest.raises(ValueError):
            run_unknown(paper_d1.f, paper_d1.measure, 1.2, 100)
        with pytest.raises(ValueError):
            run_unknown(paper_d1.f, paper_d1.measure, 0.5, 1)


class TestPooling:
    def test_matches_known_run_while_best_candidate_live(
        self, paper_d1, paper_d1_quantile
    ):
        # the smallest candidate above the true constant (~1.61) is 3^1
        j_star = best_candidate(1.61)
        assert j_star == 1
        run = run_unknown(paper_d1.f, paper_d1.measure, paper_d1.alpha, 500)
        retire = run.retirement_level[j_star]
        assert retire >= 5
        known = run_known(
            paper_d1.f, 3.0 ** j_star, paper_d1.measure, paper_d1.alpha,
            10 ** 9, max_level=retire,
        )
        for rec_u, rec_k in zip(run.history, known.history):
            if rec_u.level > retire:
                break
            assert rec_u.estimate == rec_k.estimate

    def test_candidate_nesting_while_live(self, paper_d1):
        run = run_unknown(paper_d1.f, paper_d1.measure, paper_d1.alpha, 500)
        # rebuild per-level candidate sets by rerunning known-L per candidate:
        # nesting follows from band nesting, checked via active-set sizes of
        # dedicated runs with the candidate constants
        sizes = {j: frontier_sets(paper_d1.f, 3.0 ** j, paper_d1.measure, paper_d1.alpha,
                                  10 ** 9, max_level=3)
                 for j in (0, 1, 2)}
        for k in range(4):
            assert set(sizes[0][k]) <= set(sizes[1][k]) <= set(sizes[2][k])


class TestSingleBand:
    @pytest.mark.parametrize("name", ["paper_d1", "paper_d2", "linear_d1"])
    def test_run_known_is_the_single_band_case(self, name):
        # below N = 7 only candidate 0 is funded: one band, constant 1, and the
        # same level records as run_known with that constant and slice
        p = lq.problems.BUILTIN_PROBLEMS[name]()
        for n in range(2, 7):
            assert len(schedule(n)) == 1
            run = run_unknown(p.f, p.measure, p.alpha, n)
            known = run_known(p.f, 1.0, p.measure, p.alpha, candidate_budget(0, n))
            assert run.history == known.history


class TestErrorBound:
    def test_paper_d1(self, paper_d1, paper_d1_quantile):
        run = run_unknown(paper_d1.f, paper_d1.measure, paper_d1.alpha, 3000)
        assert unknown_error_bound_check(run, paper_d1_quantile, 1.61, 1)

    def test_d2_linear(self, paper_d2):
        run = run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, 5000)
        assert unknown_error_bound_check(
            run, paper_d2.true_quantile, math.sqrt(2), 2
        )

    def test_constant_trivially_true(self):
        m = lq.uniform_cube(1)
        run = run_unknown(lambda x: np.zeros(len(x)), m, 0.5, 50)
        assert unknown_error_bound_check(run, 0.0, 1.0, 1)

    def test_no_bracket_without_a_constant(self, paper_d2):
        run = run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, 1000)
        assert run.lipschitz is None
        for bracket in (lambda: run.bracket, lambda: run.bracket_for_budget(1000)):
            with pytest.raises(ValueError, match="without a known Lipschitz constant has no bracket"):
                bracket()

    def test_best_candidate(self):
        assert best_candidate(1.0) == 0
        assert best_candidate(1.61) == 1
        assert best_candidate(3.0) == 1
        assert best_candidate(3.0001) == 2
