"""Known-constant budgeted bracketing: brackets, pruning, accounting, memory."""

import tracemalloc

import numpy as np
import pytest

import lipquant as lq
from lipquant.grid import half_radius
from lipquant.known import run_known

from conftest import random_lipschitz_problem
from oracles import frontier_sets, full_grid_estimate


class TestBasicRuns:
    def test_identity_converges_to_median(self):
        p = lq.linear_d1(0.5)
        run = run_known(p.f, p.lipschitz, p.measure, p.alpha, 400)
        b = run.bracket
        # the run reaches levels where the exact bracket is narrower than one
        # ulp of the center coordinates, hence the 1e-12 float margin
        assert abs(b.estimate - 0.5) <= p.lipschitz * half_radius(b.level, 1) + 1e-12
        assert b.upper - b.lower == pytest.approx(
            2 * p.lipschitz * half_radius(b.level, 1), rel=1e-12
        )
        assert b.level >= 10

    def test_paper_d2_bracket(self, paper_d2):
        run = run_known(paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 2000)
        assert run.bracket.lower <= paper_d2.true_quantile <= run.bracket.upper

    def test_paper_d1_bracket(self, paper_d1, paper_d1_quantile):
        run = run_known(paper_d1.f, paper_d1.lipschitz, paper_d1.measure, paper_d1.alpha, 500)
        # 1e-12 margin covers reference accuracy plus float rounding of the
        # estimate; the exact-arithmetic bracket is far narrower than either
        assert run.bracket.lower - 1e-12 <= paper_d1_quantile <= run.bracket.upper + 1e-12

    def test_minimal_budget_gives_level0(self):
        p = lq.linear_d1(0.5)
        run = run_known(p.f, p.lipschitz, p.measure, p.alpha, 1)
        assert run.bracket.level == 0
        assert run.bracket.estimate == 0.5  # f at the cube center
        assert run.bracket.evaluations == 1

    def test_validation(self):
        p = lq.linear_d1(0.5)
        with pytest.raises(ValueError):
            run_known(p.f, 0.0, p.measure, 0.5, 10)
        with pytest.raises(ValueError):
            run_known(p.f, 1.0, p.measure, 1.5, 10)
        with pytest.raises(ValueError):
            run_known(p.f, 1.0, p.measure, 0.5, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lipschitz_is_refused(self, bad):
        # nan used to give the bracket [nan, nan], inf the bracket [-inf, inf]
        p = lq.linear_d1(0.5)
        with pytest.raises(ValueError, match="lipschitz must be finite"):
            run_known(p.f, bad, p.measure, 0.5, 10)


class TestBracketStructure:
    def test_nested_bounds(self, paper_d1_deep_run, paper_d2_deep_run):
        for run in (paper_d1_deep_run, paper_d2_deep_run):
            brackets = [run.bracket_for_budget(r.evaluations) for r in run.history]
            lowers = [b.lower for b in brackets]
            uppers = [b.upper for b in brackets]
            assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))

    def test_bracket_geometry(self, paper_d2_deep_run):
        for r in paper_d2_deep_run.history:
            b = paper_d2_deep_run.bracket_for_budget(r.evaluations)
            hw = lq.bracket_halfwidth(np.sqrt(2), r.level, 2)
            assert b.upper - b.estimate == pytest.approx(hw, rel=1e-12)
            assert b.estimate - b.lower == pytest.approx(hw, rel=1e-12)


class TestBudgetAccounting:
    def test_ledger_formula(self, paper_d2_deep_run):
        # ledger = 1 + sum over levels of (3^d - 1) * survivors, where the
        # survivor count at level l is |active at l+1| / 3^d
        hist = paper_d2_deep_run.history
        expected = 1
        for prev, cur in zip(hist, hist[1:]):
            expected += (3 ** 2 - 1) * cur.active_cells // 3 ** 2
            assert cur.active_cells % 3 ** 2 == 0
            assert cur.evaluations == expected

    def test_calls_never_exceed_budget(self, paper_d1, paper_d1_deep_run):
        for n in (1, 7, 50, 333, 2000):
            b = paper_d1_deep_run.bracket_for_budget(n)
            assert b.evaluations <= n

    def test_evaluations_equal_ledger(self, paper_d1, paper_d2):
        # center-child reuse makes the distinct points f has seen by each
        # level match that level's ledger: no point is evaluated twice
        for p in (paper_d1, paper_d2):
            calls = []

            def f(x, p=p, calls=calls):
                calls.append(np.array(x, copy=True))
                return p.f(x)

            run = run_known(f, p.lipschitz, p.measure, p.alpha, 2000)
            assert len(calls) == len(run.history)  # one batch per level
            for r in run.history:
                points = np.concatenate(calls[: r.level + 1])
                assert len(np.unique(points, axis=0)) == len(points) == r.evaluations


class TestSweep:
    def test_sweep_matches_scratch_runs(self, paper_d2):
        # one deep run answers every smaller budget as a fresh run would
        budgets = [10, 33, 100, 472, 1500]
        deep = run_known(
            paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, max(budgets)
        )
        for n in budgets:
            fresh = run_known(
                paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, n
            ).bracket
            assert deep.bracket_for_budget(n) == fresh

    @pytest.mark.parametrize("budgets,bad", [([2.5, 100], "2.5"), ([100, -5], "-5"),
                                             ([100, float("nan")], "nan"), ([0, 100], "0")])
    def test_every_budget_is_checked(self, paper_d2_deep_run, budgets, bad):
        # each budget asked of one run is checked: 2.5 got a bracket, and -5,
        # NaN or 0 raised "budget smaller than the first level's cost"
        for n in budgets:
            if n == 100:
                assert paper_d2_deep_run.bracket_for_budget(n).evaluations <= n
                continue
            with pytest.raises(ValueError, match=rf"budget must be a whole number >= 1, got {bad}$"):
                paper_d2_deep_run.bracket_for_budget(n)

    def test_budget_too_small_rejected(self, paper_d1_deep_run):
        with pytest.raises(ValueError):
            paper_d1_deep_run.bracket_for_budget(0)


class TestFullGridEquivalence:
    def test_suite_problems(self, paper_d1, paper_d2):
        for p in (paper_d1, paper_d2, lq.linear_d1(0.3)):
            run = run_known(p.f, p.lipschitz, p.measure, p.alpha, 10 ** 9, max_level=4)
            for r in run.history:
                assert r.estimate == full_grid_estimate(p.f, p.measure, p.alpha, r.level)

    def test_full_grid_level0(self, paper_d1):
        assert full_grid_estimate(paper_d1.f, paper_d1.measure, 0.5, 0) == float(
            paper_d1.f(np.array([[0.5]]))[0]
        )

    def test_full_grid_median_of_identity(self):
        p = lq.linear_d1(0.5)
        # the cell containing 0.5 at level 3 is index 13, center 27/54 = 0.5
        assert full_grid_estimate(p.f, p.measure, 0.5, 3) == 0.5

    def test_guard(self):
        p = lq.paper_f_d2()
        with pytest.raises(ValueError):
            full_grid_estimate(p.f, p.measure, p.alpha, 11)

    def test_band_past_the_float_range(self, paper_d2):
        # 2*L overflows, so the band width is inf and keeps every cell: the
        # run refines the full grid.  It used to warn of the overflow
        p = paper_d2
        run = run_known(p.f, 1e308, p.measure, p.alpha, 10 ** 9, max_level=3)
        assert [r.active_cells for r in run.history] == [3 ** (2 * k) for k in range(4)]
        for r in run.history:
            assert r.estimate == full_grid_estimate(p.f, p.measure, p.alpha, r.level)
        assert run.bracket.lower <= p.true_quantile <= run.bracket.upper

    def test_random_functions(self):
        rng = np.random.default_rng(99)
        for trial in range(20):
            d = 1 + trial % 2
            f, lip = random_lipschitz_problem(rng, d)
            m = lq.uniform_cube(d)
            alpha = float(rng.uniform(0.1, 0.9))
            run = run_known(f, lip, m, alpha, 10 ** 9, max_level=4 if d == 1 else 3)
            for r in run.history:
                assert r.estimate == full_grid_estimate(f, m, alpha, r.level)


class TestPruning:
    def test_monotone_active_sets_in_lipschitz(self, paper_d1):
        small = frontier_sets(paper_d1.f, 1.61, paper_d1.measure, paper_d1.alpha, 300)
        big = frontier_sets(paper_d1.f, 3.0, paper_d1.measure, paper_d1.alpha, 300)
        for s, b in zip(small, big):
            assert set(s) <= set(b)

    @staticmethod
    def _level1_sets(edge_value: float):
        # f takes edge_value, 0.5 and 0.83 on the three level-1 cells (centers
        # 1/6, 1/2, 5/6); at alpha = 0.5 the level-1 estimate is 0.5, so the
        # level-1 band is [0.5 -/+ 2*L*delta_1] with L = 1
        def f(x):
            t = np.asarray(x)[:, 0]
            return np.where(t < 1 / 3, edge_value, np.where(t < 2 / 3, 0.5, 0.83))

        m = lq.uniform_cube(1)
        assert run_known(f, 1.0, m, 0.5, 10 ** 9, max_level=2).history[1].estimate == 0.5
        return frontier_sets(f, 1.0, m, 0.5, 10 ** 9, max_level=2)

    def test_band_edge_survives(self):
        # value exactly on the closed band edge must survive; the level-1 band
        # test shows in the level-2 active set
        band = 2.0 * 1.0 * half_radius(1, 1)
        assert abs((0.5 - band) - 0.5) == band  # exactly on the edge in floats
        sets = self._level1_sets(0.5 - band)
        assert sets[1] == [(0,), (1,), (2,)]
        # child-major: cell 0's children lead the three offset blocks
        assert sets[2][::3] == [(0,), (1,), (2,)]
        assert len(sets[2]) == 9

    def test_hand_example_all_survive(self):
        # estimate 0.5, L=1, delta=1/6 -> band [1/6, 5/6] contains all three
        sets = self._level1_sets(0.17)
        assert sets[2] == [(0,), (3,), (6,), (1,), (4,), (7,), (2,), (5,), (8,)]

    def test_mass_conservation(self, paper_d1_deep_run, paper_d2_deep_run):
        for run in (paper_d1_deep_run, paper_d2_deep_run):
            for r in run.history:
                assert r.active_mass + r.frozen_mass == pytest.approx(1.0, abs=1e-10)


class TestFootprint:
    def test_peak_bytes_per_row_of_the_deepest_level(self):
        # the deepest level holds most of a run's rows, so the engine's peak
        # bytes per row of it set the largest budget a machine can run; the
        # peak counts f's own points and output too
        p = lq.paper_f_d2()
        tracemalloc.start()
        try:
            run = run_known(p.f, p.lipschitz, p.measure, p.alpha, 10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = run.history[-1].active_cells
        assert rows == 356_490
        assert peak / rows <= 44

    def test_no_level_sized_copy_of_the_frozen_rows_or_the_masses(self):
        # the frozen rows are kept in the chunks they left in, the masses are
        # the level's column as `child_probabilities` makes it, with no copy,
        # and the window bins the level chunk by chunk: the peak was 13.06e6
        # bytes with a copy of the frozen rows, the masses and the bins
        p = lq.paper_f_d2()
        tracemalloc.start()
        try:
            run_known(p.f, p.lipschitz, p.measure, p.alpha, 10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6
        # a one-band level is pruned one chunk of rows at a time, and the
        # chunk buffer is released before the next level is built: the peak
        # was 11.35e6 bytes with a |v - estimate| column of the last level's
        # size, and 11.54e6 with the chunk buffer alive into the build
        assert peak < 11.2e6
