"""Optimality constructions: agreement at queries and quantile gaps."""

import math

import numpy as np
import pytest

from lipquant.adversary import (
    GAP_CONSTANT_D1,
    GAP_CONSTANT_D2,
    MAX_QUERIES_D1,
    SLOPE_BOOST_D1,
    SLOPE_BOOST_D2,
    Adversary,
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


def tilde_reference(adv, x):
    """f_tilde point by point: f_bar plus (lipschitz - 1) times the sup-norm
    distance to the complement of the box whose interior holds the point."""
    out = []
    for point in x.tolist():
        value = point[0]
        for box in adv.tents:
            if all(lo < c < hi for c, (lo, hi) in zip(point, box)):
                value += (adv.lipschitz - 1.0) * min(min(c - lo, hi - c)
                                                     for c, (lo, hi) in zip(point, box))
        out.append(value)
    return np.array(out)


class TestTiltedFunction:
    """`Adversary.f_tilde` on hand-made boxes, disjoint along the last axis and
    given out of order there, against `tilde_reference`."""

    BOXES = {
        1: (((0.6, 0.9),), ((0.2, 0.3),)),
        2: (((0.3, 0.5), (0.5, 0.75)), ((0.4, 0.6), (0.0, 0.25))),
        3: (((0.5, 0.9), (0.1, 0.4), (0.4, 0.8)), ((0.1, 0.5), (0.2, 0.6), (0.0, 0.3))),
    }
    #: per dimension: points inside a box, in a gap between the boxes along the
    #: last axis, outside the boxes' hull, and in the hull but in no box
    POINTS = {
        1: {"inside": [[0.25], [0.61], [0.75], [0.8999]], "gap": [[0.3001], [0.45], [0.5999]],
            "outside": [[0.0], [0.1], [0.95], [1.0]], "hull": []},
        2: {"inside": [[0.45, 0.6], [0.31, 0.74], [0.5, 0.1], [0.59, 0.01]],
            "gap": [[0.45, 0.3], [0.5, 0.49], [0.35, 0.26]],
            "outside": [[0.2, 0.1], [0.7, 0.6], [0.45, 0.8], [1.0, 1.0]],
            "hull": [[0.35, 0.1], [0.55, 0.6]]},
        3: {"inside": [[0.3, 0.4, 0.1], [0.7, 0.2, 0.6], [0.11, 0.59, 0.29]],
            "gap": [[0.5, 0.3, 0.35], [0.3, 0.25, 0.31]],
            "outside": [[0.0, 0.3, 0.5], [0.5, 0.7, 0.5], [0.5, 0.3, 0.9]],
            "hull": [[0.7, 0.5, 0.6], [0.3, 0.15, 0.1]]},
    }

    def adversary(self, dim):
        return Adversary(np.zeros((1, dim)), self.BOXES[dim], 5.0, 1000, 0.1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_reference(self, dim):
        adv = self.adversary(dim)
        x = np.random.default_rng(dim).random((2000, dim))
        for points in self.POINTS[dim].values():
            x = np.vstack([x, np.reshape(points, (-1, dim))])
        assert np.array_equal(adv.f_tilde(x), tilde_reference(adv, x))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_tent_inside_a_box_only(self, dim):
        adv = self.adversary(dim)
        inside = np.array(self.POINTS[dim]["inside"])
        assert np.all(adv.f_tilde(inside) > f_bar(inside))
        for kind in ("gap", "outside", "hull"):
            x = np.reshape(self.POINTS[dim][kind], (-1, dim))
            assert np.array_equal(adv.f_tilde(x), f_bar(x)), kind

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_f_bar_on_every_face(self, dim):
        adv = self.adversary(dim)
        rng = np.random.default_rng(10 + dim)
        for box in adv.tents:
            lo, hi = np.array(box).T
            x = lo + rng.random((50, dim)) * (hi - lo)  # interior points, then one
            for axis in range(dim):                     # coordinate moved to a face
                for face in (lo, hi):
                    y = x.copy()
                    y[:, axis] = face[axis]
                    assert np.array_equal(adv.f_tilde(y), f_bar(y))
                    assert np.array_equal(tilde_reference(adv, y), f_bar(y))

    def test_the_builders_boxes(self):
        # both builders' f_tilde is the reference over their own tents
        rng = np.random.default_rng(12)
        for adv in (build_adversary_d2(rng.random((9, 2))), build_adversary_d1(rng.random(4))):
            dim = adv.query_points.shape[1]
            x = rng.random((5000, dim))
            x[:, 0] = 0.5 + (x[:, 0] - 0.5) / 4  # near the tents
            assert np.array_equal(adv.f_tilde(x), tilde_reference(adv, x))


class TestBadQueries:
    """Each is refused by name before anything is built."""

    @pytest.mark.parametrize("build, queries, match", [
        (build_adversary_d2, np.empty((0, 2)), "non-empty"),  # ZeroDivisionError
        (build_adversary_d1, np.empty(0), "non-empty"),  # a zero-size array error in verification
        (build_adversary_d1, [0.2, np.nan, 0.7], r"\[0,1\]"),  # a silent FAIL, residual nan
        (build_adversary_d2, [[0.2, 0.3], [np.inf, 0.5]], r"\[0,1\]"),
        (build_adversary_d2, [[1.5, 0.5], [0.5, -0.2]], r"\[0,1\]"),  # passed
        (build_adversary_d1, [-0.1, 0.5], r"\[0,1\]"),
        (build_adversary_d1, np.full((4, 2), 0.3), r"\(N, 1\)"),  # read as 8 queries
    ], ids=["d2-empty", "d1-empty", "d1-nan", "d2-inf", "d2-outside", "d1-outside",
            "d1-two-columns"])
    def test_refused_by_name(self, build, queries, match):
        with pytest.raises(ValueError, match=match):
            build(queries)

    def test_d1_refuses_more_queries_than_its_cap(self):
        build_adversary_d1(np.linspace(0.1, 0.9, MAX_QUERIES_D1))
        with pytest.raises(ValueError, match="MAX_QUERIES_D1"):
            build_adversary_d1(np.linspace(0.1, 0.9, MAX_QUERIES_D1 + 1))


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

    @pytest.mark.parametrize("n, x2", [(28, float.fromhex("0x1.5770b96a673e2p-1")),
                                       (82, float.fromhex("0x1.72d4ce7c5010dp-5"))],
                             ids=["m243", "m729"])
    def test_a_query_one_ulp_below_a_cell_bound(self, n, x2):
        # one ulp below 163/243 and 33/729: the floor of x2 * m names cell 163
        # or 33, but the query lies inside the box of cell 162 or 32, whose
        # tent would not vanish there
        rng = np.random.default_rng(14)
        q = np.vstack([[0.5, x2], rng.random((n - 1, 2)) * [0.3, 1.0]])  # one in the column
        adv = build_adversary_d2(q)
        assert all(not (lo < x2 < hi) for _, (lo, hi) in adv.tents)
        assert np.array_equal(adv.f_tilde(q), f_bar(q))


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

    def test_the_grid_resolves_the_central_interval(self):
        # a grid of 10^6 cells put the central interval of width 2^-N between
        # two cell centers from N = 20 on: a negative gap and a false FAIL
        rng = np.random.default_rng(11)
        for n in range(3, MAX_QUERIES_D1 + 1):
            adv = build_adversary_d1(rng.random(n))
            assert adv.resolution * 0.5 ** n >= 16
            assert adv.resolution == 10 ** 6 or n > 15

    def test_full_verification_on_the_finer_grid(self):
        # N = 19 is the largest N whose grid, 2^23 cells, stays below 10^7
        adv = build_adversary_d1(np.random.default_rng(13).random(19))
        assert adv.resolution == 2 ** 23
        rep = verify_separation(adv)
        assert rep.passed
        assert rep.measured_gap >= 8 * rep.claimed_gap


class TestConstants:
    def test_d2_slope_boost_exceeds_threshold(self):
        threshold = math.sqrt(5) / (math.sqrt(6) - math.sqrt(5))
        assert SLOPE_BOOST_D2 == pytest.approx(2 * threshold, rel=1e-12)
        assert SLOPE_BOOST_D2 > threshold

    def test_d1_slope_boost_exceeds_threshold(self):
        assert SLOPE_BOOST_D1 > (1 + 0.5) / (1 - 0.5)
