"""Test problems and ground-truth oracles."""

import math

import numpy as np
import pytest

import lipquant as lq
from lipquant.problems import (
    brute_force_quantile,
    estimate_level_set_M,
    estimate_lipschitz,
    linear_d1,
    monte_carlo_quantile,
    paper_f_d2,
)

from oracles import refined_quantile_d1


class TestPaperD1:
    def test_value_at_zero(self, paper_d1):
        # f(0) = -0.3 + 1 + exp(-1.62)
        got = float(paper_d1.f(np.array([[0.0]]))[0])
        assert got == pytest.approx(0.7 + math.exp(-1.62), abs=1e-12)
        assert got == pytest.approx(0.8979, abs=1e-4)

    def test_lipschitz_estimate_in_band(self, paper_d1):
        est = estimate_lipschitz(paper_d1)
        assert 1.55 <= est <= 1.65
        assert est <= paper_d1.lipschitz * (1 + 1e-6)

    def test_grid_oracle_matches_published_value(self, paper_d1):
        q = brute_force_quantile(paper_d1, 10 ** 6)
        assert q == pytest.approx(1.3503, abs=5e-4)

    def test_refined_oracle_golden(self, paper_d1_quantile):
        # frozen from the build-time root-refined computation
        assert paper_d1_quantile == pytest.approx(1.35033869003296, abs=1e-10)

    def test_grid_and_refined_oracles_agree(self, paper_d1, paper_d1_quantile):
        q_grid = brute_force_quantile(paper_d1, 10 ** 6)
        assert abs(q_grid - paper_d1_quantile) < 2 * 1.61 / 10 ** 6


class TestPaperD2:
    def test_analytic_quantile(self):
        p = paper_f_d2(0.999)
        assert p.true_quantile == pytest.approx(2 - math.sqrt(0.002), abs=1e-15)
        assert p.true_quantile == pytest.approx(1.955279, abs=1e-6)

    def test_median_is_one(self):
        assert paper_f_d2(0.5).true_quantile == pytest.approx(1.0, abs=1e-12)

    def test_quantile_tends_to_two(self):
        assert paper_f_d2(1 - 1e-12).true_quantile == pytest.approx(2.0, abs=1e-5)

    def test_grid_oracle_cross_check(self):
        p = paper_f_d2(0.999)
        q = brute_force_quantile(p, 2000)
        assert q == pytest.approx(p.true_quantile, abs=2e-3)

    def test_lipschitz_verification(self, paper_d2):
        est = estimate_lipschitz(paper_d2, n=10 ** 5, seed=1)
        assert est <= paper_d2.lipschitz * (1 + 1e-6)


class TestGridOracle:
    def test_linear_quantile(self):
        p = linear_d1(0.25)
        assert brute_force_quantile(p, 10 ** 4) == pytest.approx(0.25, abs=1e-4)

    def test_constant_function_d1(self):
        p = lq.TestProblem(
            "const", lambda x: np.full(len(x), 3.25), 1, 1.0, lq.uniform_cube(1), 0.5
        )
        assert brute_force_quantile(p, 10 ** 4) == 3.25

    def test_constant_function_d2(self):
        p = lq.TestProblem(
            "const2", lambda x: np.full(len(x), -1.5), 2, 1.0, lq.uniform_cube(2), 0.9
        )
        assert brute_force_quantile(p, 1000) == -1.5

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            brute_force_quantile(linear_d1(0.5), 10)

    def test_dimension_guard(self):
        p = lq.TestProblem(
            "d3", lambda x: np.asarray(x).sum(axis=1), 3, 2.0, lq.uniform_cube(3), 0.5
        )
        with pytest.raises(ValueError):
            brute_force_quantile(p, 2000)


class TestLevelSetConstant:
    def test_linear_d1_is_two(self):
        assert estimate_level_set_M(
            linear_d1(0.5), true_quantile=0.5, resolution=10 ** 5
        ) == pytest.approx(2.0, rel=0.01)

    def test_constant_function_reports_failure(self):
        p = lq.TestProblem(
            "const", lambda x: np.zeros(len(x)), 1, 1.0, lq.uniform_cube(1), 0.5
        )
        with pytest.raises(ValueError, match="level-set"):
            estimate_level_set_M(p, true_quantile=0.0, resolution=10 ** 5)

    def test_paper_d2_golden(self, paper_d2):
        # the ratio vol/delta peaks at delta = 1 where the band covers
        # everything above the line x1 + x2 = q - 1: analytic value
        # 1 - (q - 1)^2 / 2 with q = 2 - sqrt(0.002)
        q = paper_d2.true_quantile
        m = estimate_level_set_M(paper_d2, true_quantile=q)
        assert m == pytest.approx(1 - (q - 1) ** 2 / 2, abs=0.01)


class TestMonteCarlo:
    def test_linear_median(self):
        est, hw = monte_carlo_quantile(linear_d1(0.5), 10 ** 5, seed=0)
        assert est == pytest.approx(0.5, abs=0.01)
        assert 0 < hw < 0.02

    def test_reproducible(self, paper_d2):
        a = monte_carlo_quantile(paper_d2, 10 ** 4, seed=42)
        b = monte_carlo_quantile(paper_d2, 10 ** 4, seed=42)
        assert a == b

    def test_paper_d2_accuracy(self, paper_d2):
        est, hw = monte_carlo_quantile(paper_d2, 10 ** 6, seed=7)
        assert est == pytest.approx(paper_d2.true_quantile, abs=0.005)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_quantile(linear_d1(0.5), 99, seed=0)


class TestRefinedOracle:
    def test_linear(self):
        assert refined_quantile_d1(linear_d1(0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_d2_rejected(self, paper_d2):
        with pytest.raises(ValueError):
            refined_quantile_d1(paper_d2)
