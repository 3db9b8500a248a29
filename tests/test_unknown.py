"""Unknown-constant algorithm: schedule, pooling, retirement, error bound."""

import itertools
import math
import sys

import numpy as np
import pytest

import lipquant as lq
from lipquant.known import run_known
from lipquant.unknown import best_candidate, run_unknown, schedule, unknown_error_bound_check

from oracles import candidate_budget, frontier_sets

#: the budgets around the first candidates past the float range: from 688,585
#: the band width 2*3^646*delta overflows, from 690,715 the constant 3^647 does
PAST_FLOAT_RANGE = (688_585, 690_714, 690_715, 10 ** 6, 10 ** 9)


class TestSchedule:
    def test_candidate_budget_formula(self):
        assert candidate_budget(0, 100) == math.floor(600 / math.pi ** 2)
        assert candidate_budget(3, 1000) == math.floor(6000 / (math.pi ** 2 * 16))
        assert schedule(100)[1][0] == math.floor(600 / math.pi ** 2)
        assert schedule(1000)[1][3] == math.floor(6000 / (math.pi ** 2 * 16))

    def test_j_max_examples(self):
        # j_max(N), the largest candidate id, is the last of the schedule
        assert len(schedule(2)[1]) - 1 == 0
        assert len(schedule(100)[1]) - 1 == 6
        assert len(schedule(1000)[1]) - 1 == 23

    def test_j_max_minimum_budget(self):
        with pytest.raises(ValueError):
            schedule(1)

    def test_budgets_sum_within_global(self):
        for n in (2, 10, 100, 1000, 12345) + PAST_FLOAT_RANGE:
            assert schedule(n)[1].sum() <= n

    def test_candidate_lipschitz_values(self):
        constants, slices = schedule(50)
        assert constants.tolist() == [3.0 ** j for j in range(len(slices))]
        assert constants[0] == 1.0  # candidate L=1 included

    def test_slices_are_candidate_budget_bit_for_bit(self):
        # the array expression against the scalar formula, cut right after the
        # last nonzero slice
        budgets = itertools.chain(range(2, 20_001), PAST_FLOAT_RANGE, (10 ** 12,))
        for n in budgets:
            slices = schedule(n)[1].tolist()
            assert slices == [candidate_budget(j, n) for j in range(len(slices))], n
            assert candidate_budget(len(slices), n) == 0, n
        assert schedule(1e5)[1].tolist() == schedule(10 ** 5)[1].tolist()

    def test_constants_are_powers_of_three_bit_for_bit(self):
        # as `3.0 ** j` gives them, up to the last one below the float range,
        # and inf past it; NumPy's own power differs from it in the last bit
        # on some hosts
        for n in (10 ** 6, 10 ** 12):
            constants, slices = schedule(n)
            assert constants.dtype == np.float64
            assert len(constants) == len(slices) > 647
            got = constants[:647].tolist()
            assert [c.hex() for c in got] == [(3.0 ** j).hex() for j in range(647)]
            assert np.isposinf(constants[647:]).all()

    def test_schedule_is_the_scalar_schedule(self):
        for n in itertools.chain(range(2, 3000), (12345, 10 ** 5, 6 * 10 ** 5)):
            want = list(itertools.takewhile(lambda c: c[1] >= 1, (
                (3.0 ** j, candidate_budget(j, n)) for j in itertools.count())))
            constants, slices = schedule(n)
            assert list(zip(constants.tolist(), slices.tolist())) == want, n
            assert constants.dtype == np.float64 and slices.dtype == np.int64


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

    @pytest.mark.parametrize("n", [688_585, 690_715, 10 ** 6])
    def test_budgets_past_the_float_range(self, paper_d1, paper_d1_quantile, paper_d2, n):
        # the band width of candidate 646 overflows from N = 688,585 on, and
        # its constant 3^647 from N = 690,715 on: such a band is inf and keeps
        # every cell.  These runs used to warn or raise OverflowError
        for p, q in ((paper_d1, paper_d1_quantile), (paper_d2, paper_d2.true_quantile)):
            run = run_unknown(p.f, p.measure, p.alpha, n)
            _, slices = schedule(n)
            assert run.enumerated_j_max == len(slices) - 1 >= 646
            assert run.evaluations <= n
            for j in run.retirement_level:
                assert run.ledgers[j] > slices[j]
            # a slice below 3^d cannot pay for the root's children
            assert all(run.retirement_level[j] == 0
                       for j in range(len(slices)) if slices[j] < 3 ** p.dim)
            assert unknown_error_bound_check(run, q, p.lipschitz, p.dim)

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

    def test_single_band_frontiers_nest(self, paper_d1):
        # the frontiers of single-band runs with the candidate constants 3^j
        # nest at every level, as the bands of a pooled run do
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
            assert len(schedule(n)[1]) == 1
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
        assert best_candidate(math.sqrt(2)) == 1
        assert best_candidate(3.0) == 1
        assert best_candidate(3.0001) == 2
        # candidate 647's constant is inf, so it covers every finite constant
        # above 3.0 ** 646
        assert best_candidate(3.0 ** 646) == 646
        assert best_candidate(math.nextafter(3.0 ** 646, math.inf)) == 647
        assert best_candidate(1.7e308) == 647
        assert best_candidate(sys.float_info.max) == 647

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -2.0, 10 ** 400, True, "3"])
    def test_best_candidate_refuses_a_bad_constant(self, bad):
        # no candidate is best for these: each is refused by name, not read as 0
        with pytest.raises(ValueError, match="lipschitz_true must be finite and positive"):
            best_candidate(bad)

    def test_bound_past_the_float_range_is_inf(self):
        # the check with j* = 647 certifies any estimate, as its bound is inf
        run = run_unknown(lambda x: x[:, 0], lq.uniform_cube(1), 0.5, 50)
        assert unknown_error_bound_check(run, 1e300, 1.7e308, 1)
