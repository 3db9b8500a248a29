"""Closed-form theoretical bounds and budget/level laws."""

import itertools
import math
import sys
from fractions import Fraction

import pytest

from lipquant.bounds import (
    ProblemConstants,
    bracket_halfwidth,
    calls_upper,
    known_bound,
    level_lower,
    unknown_bound,
)


class TestProblemConstants:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemConstants(0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ProblemConstants(1, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ProblemConstants(1, 1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            ProblemConstants(1, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, Fraction(-1),
                                     pytest.param(10 ** 400, id="huge-int")])
    def test_non_finite_constants_are_refused(self, bad):
        # both used to be accepted, and the bounds came out nan or inf; an int
        # past the float range raised an OverflowError from math.isfinite
        with pytest.raises(ValueError, match="lipschitz must be finite"):
            ProblemConstants(1, bad, 1.0, 0.5)
        with pytest.raises(ValueError, match="level_set must be finite"):
            ProblemConstants(1, 1.0, bad, 0.5)


class TestKnownBound:
    def test_d1_algebraic_example(self):
        # L=1, M=2, N=1: (1/2)*3^{1+1/8}*3^{-1/8} = 3/2
        c = ProblemConstants(1, 1.0, 2.0, 0.5)
        assert known_bound(c, 1) == pytest.approx(1.5, rel=1e-12)

    def test_d2_example(self):
        # L=1, M=1, N=2: (3/2)*sqrt(2)*(9*sqrt(2)) = 27
        c = ProblemConstants(2, 1.0, 1.0, 0.5)
        assert known_bound(c, 2) == pytest.approx(27.0, rel=1e-12)

    def test_decreasing_in_budget(self):
        c1 = ProblemConstants(1, 1.61, 2.0, 0.999)
        c2 = ProblemConstants(2, 1.5, 0.2, 0.999)
        for c, start in ((c1, 1), (c2, 2)):
            vals = [known_bound(c, n) for n in range(start, start + 200)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert all(v > 0 for v in vals)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            known_bound(ProblemConstants(1, 1.0, 1.0, 0.5), 0)
        with pytest.raises(ValueError):
            known_bound(ProblemConstants(2, 1.0, 1.0, 0.5), 1)


class TestUnknownBound:
    def test_d1_rho_value(self):
        # L=1, M=1: rho = 3^{-1/(8 pi^2)}
        c = ProblemConstants(1, 1.0, 1.0, 0.5)
        rho = unknown_bound(c, 11) / unknown_bound(c, 10)
        assert rho == pytest.approx(3.0 ** (-1.0 / (8.0 * math.pi ** 2)), rel=1e-12)

    def test_dominates_known_bound(self):
        c = ProblemConstants(1, 1.0, 1.0, 0.5)
        for n in (10, 100, 1000, 10000):
            assert unknown_bound(c, n) >= known_bound(c, n)

    def test_decreasing(self):
        c = ProblemConstants(2, 2.0, 0.5, 0.9)
        vals = [unknown_bound(c, n) for n in range(40, 400, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            unknown_bound(ProblemConstants(1, 0.5, 1.0, 0.5), 100)
        c = ProblemConstants(2, 1.0, 1.0, 0.5)
        startup = math.pi ** 2 / 3.0 * 4.0
        with pytest.raises(ValueError):
            unknown_bound(c, int(startup))


class TestCallsUpper:
    def test_level_zero_is_one(self):
        assert calls_upper(ProblemConstants(1, 1.0, 2.0, 0.5), 0) == 1.0
        assert calls_upper(ProblemConstants(2, 1.0, 1.0, 0.5), 0) == 1.0

    def test_d1_example(self):
        assert calls_upper(ProblemConstants(1, 1.0, 2.0, 0.5), 3) == 25.0

    def test_d2_example(self):
        c = ProblemConstants(2, 1.0, 1.0, 0.5)
        assert calls_upper(c, 1) == pytest.approx(1 + 18 * math.sqrt(2), rel=1e-12)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            calls_upper(ProblemConstants(1, 1.0, 1.0, 0.5), -1)


class TestLevelLower:
    def test_d1_examples(self):
        assert level_lower(ProblemConstants(1, 1.0, 2.0, 0.5), 9) == 1
        assert level_lower(ProblemConstants(1, 1.0, 2.0, 0.5), 1) == 0

    def test_consistency_with_calls_upper(self):
        # a budget of calls_upper(k) suffices for level k, so the lower bound
        # at that budget is at least k (d = 1 chain of the two lemmas)
        c = ProblemConstants(1, 1.61, 2.0, 0.999)
        for k in range(1, 30):
            n = int(math.ceil(calls_upper(c, k)))
            assert level_lower(c, n) >= k - 1


C1, C2 = ProblemConstants(1, 1.0, 2.0, 0.5), ProblemConstants(2, 1.0, 1.0, 0.5)


# each raised a TypeError, or returned 1.5, nan and 11.0 (True, nan, 2.5)
@pytest.mark.parametrize("bound, c, n, name", [
    (known_bound, C1, "10", "budget"), (known_bound, C1, True, "budget"),
    (known_bound, C2, math.nan, "budget"), (unknown_bound, C1, "500", "budget"),
    (level_lower, C1, "100", "budget"), (calls_upper, C1, "3", "level"),
    (calls_upper, C1, 2.5, "level"),
], ids=["known-str", "known-bool", "known-nan", "unknown-str", "level_lower-str",
        "calls_upper-str", "calls_upper-2.5"])
def test_a_budget_or_level_must_be_a_whole_number(bound, c, n, name):
    with pytest.raises(ValueError, match=f"^{name} must be a whole number >= "):
        bound(c, n)


class TestBracketHalfwidth:
    def test_examples(self):
        assert bracket_halfwidth(1.0, 0, 1) == 0.5
        assert bracket_halfwidth(2.0, 2, 1) == pytest.approx(1 / 9, rel=1e-12)
        assert bracket_halfwidth(math.sqrt(2), 1, 2) == pytest.approx(1 / 3, rel=1e-12)

    def test_shrinks_by_three(self):
        for k in range(10):
            assert bracket_halfwidth(1.5, k + 1, 2) == pytest.approx(
                bracket_halfwidth(1.5, k, 2) / 3, rel=1e-12
            )


EXTREMES = [5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300, sys.float_info.max]
# the refusals each bound names; every other input gives a number
REFUSALS = ("budget must be a whole number >= 2", "unknown-constant bound needs lipschitz >= 1",
            "budget must exceed")


@pytest.mark.parametrize("dim", [1, 2, 3, 700])
def test_extreme_constants_give_a_number_or_a_named_refusal(dim):
    # 3^(1 + 1/(4ML)) and 3^(k(d-1)) raised an OverflowError, 1/(4ML) a
    # ZeroDivisionError, and int(inf) an OverflowError, for constants that
    # ProblemConstants accepts; a result past the float range is inf
    for L, M in itertools.product(EXTREMES, EXTREMES):
        c = ProblemConstants(dim, L, M, 0.5)
        for n in (1, 2, 3, 10, 10 ** 4, 10 ** 18, 2 ** 63 - 1):
            for bound in (known_bound, unknown_bound, calls_upper, level_lower):
                try:
                    out = bound(c, n)
                except ValueError as exc:
                    assert str(exc).startswith(REFUSALS), (bound.__name__, L, M, n)
                    continue
                assert not math.isnan(out), (bound.__name__, L, M, n)
                if bound is level_lower:
                    assert isinstance(out, int) or out == math.inf
                else:
                    assert out >= (1.0 if bound is calls_upper else 0.0)


@pytest.mark.parametrize("bound, c, n, want", [
    (calls_upper, ProblemConstants(2, 1.0, 1.0, 0.5), 10 ** 4, math.inf),
    (known_bound, ProblemConstants(1, 1e-300, 1e-300, 0.5), 10, 0.0),
    (level_lower, ProblemConstants(1, 1e-300, 1e-300, 0.5), 10, math.inf),
    (known_bound, ProblemConstants(1, 1.0, 1e-4, 0.5), 10, 0.0),
], ids=["calls_upper-d2", "known-d1-tiny", "level_lower-d1-tiny", "known-d1-tiny-M"])
def test_a_bound_past_the_float_range(bound, c, n, want):
    assert bound(c, n) == want


def test_level_lower_with_huge_constants_is_a_negative_level():
    # log(3^d * M * L * sqrt(d)) was log(inf), and the floor of -inf raised
    assert level_lower(ProblemConstants(2, 1e300, 1e300, 0.5), 10) == math.floor(
        (math.log(9) - math.log(9) - 600 * math.log(10) - 0.5 * math.log(2)) / math.log(3))
