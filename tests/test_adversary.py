"""Optimality constructions: agreement at queries and quantile gaps."""

import math

import numpy as np
import pytest

from lipquant.adversary import (
    GAP_CONSTANT_D1,
    GAP_CONSTANT_D2,
    SLOPE_BOOST_D1,
    SLOPE_BOOST_D2,
    build_adversary_d1,
    build_adversary_d2,
    f_bar,
    verify_separation,
)


def finite_diff_lipschitz(f, dim, rng, n=20000, eps=1e-6):
    a = rng.random((n, dim)) * (1 - 2 * eps) + eps
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    b = a + eps * direction
    return float(np.max(np.abs(f(b) - f(a))) / eps)


class TestD2Construction:
    def test_level_selection(self):
        rng = np.random.default_rng(0)
        for n, j in ((1, 1), (3, 2), (9, 3), (10, 4), (27, 4)):
            adv = build_adversary_d2(rng.random((n, 2)))
            for (lo, hi), _ in adv.tents:  # cells of level j
                assert round(1 / (hi - lo)) == 3 ** j
            assert 3 ** j >= 3 * n

    def test_exact_agreement_at_queries(self):
        rng = np.random.default_rng(1)
        for n in (3, 9, 27):
            q = rng.random((n, 2))
            adv = build_adversary_d2(q)
            assert np.array_equal(adv.f_tilde(q), f_bar(q))

    def test_pigeonhole_free_cells(self):
        rng = np.random.default_rng(2)
        for n in (3, 9, 27):
            adv = build_adversary_d2(rng.random((n, 2)))
            assert len(adv.tents) >= 2 * n

    def test_claimed_gap_formula(self):
        adv = build_adversary_d2(np.random.default_rng(3).random((9, 2)))
        assert adv.claimed_gap == GAP_CONSTANT_D2 / 9

    def test_tilde_lipschitz_bounded(self):
        rng = np.random.default_rng(4)
        adv = build_adversary_d2(rng.random((3, 2)))
        est = finite_diff_lipschitz(adv.f_tilde, 2, rng)
        assert adv.lipschitz == SLOPE_BOOST_D2 + 1.0
        assert est <= adv.lipschitz * (1 + 1e-6)

    def test_verified_separation_n3(self):
        adv = build_adversary_d2(np.random.default_rng(5).random((3, 2)))
        rep = verify_separation(adv)
        assert rep.passed
        assert rep.agreement_residual == 0.0
        assert rep.measured_gap >= rep.claimed_gap
        # the values of the construction and the grid oracle, bit for bit
        assert rep.claimed_gap.hex() == "0x1.2f684bda12f68p-8"
        assert rep.measured_gap.hex() == "0x1.5d11fa1563e60p-4"

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            build_adversary_d2(np.zeros((2, 3)))


class TestD1Construction:
    def test_exact_agreement_at_queries(self):
        rng = np.random.default_rng(6)
        for n in range(3, 11):
            q = rng.random(n)
            adv = build_adversary_d1(q)
            assert np.array_equal(adv.f_tilde(q[:, None]), f_bar(q[:, None]))

    def test_claimed_gap_formula(self):
        adv = build_adversary_d1(np.random.default_rng(7).random(5))
        assert adv.claimed_gap == GAP_CONSTANT_D1 * 0.5 ** 5

    def test_chosen_region_is_query_free(self):
        rng = np.random.default_rng(8)
        q = rng.random(6)
        adv = build_adversary_d1(q)
        for (lo, hi), in adv.tents:
            assert not np.any((q > lo) & (q < hi))

    def test_central_region_chosen_when_free(self):
        # queries far from 1/2 leave the central interval untouched
        q = np.array([0.05, 0.1, 0.9])
        adv = build_adversary_d1(q)
        assert len(adv.tents) == 1
        (lo, hi), = adv.tents[0]
        assert hi - lo == pytest.approx(0.5 ** 3, rel=1e-12)
        assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-15)

    def test_tilde_lipschitz_bounded(self):
        rng = np.random.default_rng(9)
        adv = build_adversary_d1(rng.random(4))
        est = finite_diff_lipschitz(adv.f_tilde, 1, rng)
        assert adv.lipschitz == SLOPE_BOOST_D1 + 1.0
        assert est <= adv.lipschitz * (1 + 1e-6)

    def test_full_verification_small_n(self):
        # the measured gaps of the construction and the grid oracle, bit for bit
        measured = ["0x1.642c7fbacb420p-4", "0x1.64388ebcc6c00p-8", "0x1.642e126202540p-6",
                    "0x1.642bf9830e480p-7", "0x1.64388ebcc6c00p-8", "0x1.64302b40f6600p-9",
                    "0x1.641f644955c00p-10", "0x1.6440f23897000p-11"]
        rng = np.random.default_rng(10)
        for n, gap in zip(range(3, 11), measured):
            adv = build_adversary_d1(rng.random(n))
            rep = verify_separation(adv)
            assert rep.passed, f"n={n}: gap {rep.measured_gap} < {rep.claimed_gap}"
            assert rep.agreement_residual == 0.0
            assert rep.claimed_gap.hex() == f"0x1.c71c53f39d1b2p-{n + 5}"
            assert rep.measured_gap.hex() == gap


class TestConstants:
    def test_d2_slope_boost_exceeds_threshold(self):
        threshold = math.sqrt(5) / (math.sqrt(6) - math.sqrt(5))
        assert SLOPE_BOOST_D2 == pytest.approx(2 * threshold, rel=1e-12)
        assert SLOPE_BOOST_D2 > threshold

    def test_d1_slope_boost_exceeds_threshold(self):
        assert SLOPE_BOOST_D1 > (1 + 0.5) / (1 - 0.5)
