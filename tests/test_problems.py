"""Test problems and ground-truth oracles."""

import dataclasses
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
            "const", lambda x: np.full(len(x), 3.25), 1.0, lq.uniform_cube(1), 0.5
        )
        assert brute_force_quantile(p, 10 ** 4) == 3.25

    def test_constant_function_d2(self):
        p = lq.TestProblem(
            "const2", lambda x: np.full(len(x), -1.5), 1.0, lq.uniform_cube(2), 0.9
        )
        assert brute_force_quantile(p, 1000) == -1.5

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            brute_force_quantile(linear_d1(0.5), 10)

    @pytest.mark.parametrize("resolution", [10, 999, 1000.5, 2.5, 2000.0, True],
                             ids=["10", "999", "1000.5", "2.5", "2000.0", "bool"])
    @pytest.mark.parametrize("oracle", [brute_force_quantile, estimate_level_set_M])
    def test_both_oracles_refuse_a_resolution_by_name(self, oracle, resolution):
        # estimate_level_set_M returned 2.0 at 10, and both raised TypeError on floats
        with pytest.raises(ValueError, match="resolution must be an integer >= 1000"):
            oracle(linear_d1(0.3), resolution=resolution)

    @pytest.mark.parametrize("dim,resolution", [(1, 10 ** 6), (2, 3000)])
    def test_one_default_resolution(self, dim, resolution):
        # the grid oracles share one default, 10^6 cells per axis for d = 1
        # and 3000 for d = 2, where 10^6 would cost 10^12 calls of f; a
        # constant f costs one pass over the grid in each oracle
        seen = []

        def f(x):
            seen.append(len(x))
            assert sum(seen) <= 3 * resolution ** dim
            return np.full(len(x), -1.5)

        p = lq.TestProblem("const", f, 1.0, lq.uniform_cube(dim), 0.9)
        assert brute_force_quantile(p) == lq.reference_quantile(p) == -1.5
        with pytest.raises(ValueError, match="level-set"):
            estimate_level_set_M(p, true_quantile=-1.5)
        assert sum(seen) == 3 * resolution ** dim

    @pytest.mark.parametrize("problem, resolution", [(linear_d1(0.3), 10 ** 6),
                                                     (paper_f_d2(0.999), 3000)],
                             ids=["d1", "d2"])
    def test_a_grid_of_one_chunk_calls_f_once_per_cell(self, problem, resolution):
        # d = 2 called f three times per cell, once in each pass
        seen = []

        def f(x):
            seen.append(len(x))
            return problem.f(x)

        q = brute_force_quantile(dataclasses.replace(problem, f=f))
        assert q == pytest.approx(problem.true_quantile, abs=2e-3)
        assert seen == [resolution ** problem.dim]

    def test_a_grid_of_several_chunks_is_walked_in_each_pass(self):
        # 10^7 // 3163 = 3161 rows per chunk, so two chunks, each evaluated
        # again in each of the three passes
        p, seen = paper_f_d2(0.999), []

        def f(x):
            seen.append(len(x))
            return p.f(x)

        q = brute_force_quantile(dataclasses.replace(p, f=f), 3163)
        assert q == pytest.approx(p.true_quantile, abs=2e-3)
        assert seen == [3161 * 3163, 2 * 3163] * 3

    @pytest.mark.parametrize("problem, resolution, cells, sizes", [
        (lq.paper_f_d1(), 1000, 300, [300, 300, 300, 100]),
        (linear_d1(0.3), 1001, 1001, [1001]),
        (paper_f_d2(0.999), 1000, 2500, [2000] * 500),
    ], ids=["d1", "d1-one-chunk", "d2"])
    def test_a_chunked_walk_is_the_one_chunk_walk(self, problem, resolution, cells, sizes,
                                                  monkeypatch):
        # a d = 1 grid is cut along x1, its edges and centers included
        whole = list(lq.problems._grid(problem, resolution)(with_masses=True))
        want = (brute_force_quantile(problem, resolution),
                estimate_level_set_M(problem, None, resolution))
        monkeypatch.setattr(lq.problems, "_CHUNK_CELLS", cells)
        chunks = list(lq.problems._grid(problem, resolution)(with_masses=True))
        assert [len(v) for v, _ in chunks] == sizes
        for column in range(2):
            assert np.concatenate([c[column] for c in chunks]).tobytes() == whole[0][column].tobytes()
        assert (brute_force_quantile(problem, resolution),
                estimate_level_set_M(problem, None, resolution)) == want

    def test_dimension_guard(self):
        p = lq.TestProblem(
            "d3", lambda x: np.asarray(x).sum(axis=1), 2.0, lq.uniform_cube(3), 0.5
        )
        with pytest.raises(ValueError):
            brute_force_quantile(p, 2000)


class TestDimension:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dim_follows_the_measure(self, dim):
        # the dimension is read from the law, so the two cannot disagree
        p = lq.TestProblem(
            "sum", lambda x: np.asarray(x).sum(axis=1), 1.0, lq.uniform_cube(dim), 0.5
        )
        assert p.dim == dim


class TestLevelSetConstant:
    def test_linear_d1_is_two(self):
        assert estimate_level_set_M(
            linear_d1(0.5), true_quantile=0.5, resolution=10 ** 5
        ) == pytest.approx(2.0, rel=0.01)

    def test_constant_function_reports_failure(self):
        p = lq.TestProblem(
            "const", lambda x: np.zeros(len(x)), 1.0, lq.uniform_cube(1), 0.5
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
