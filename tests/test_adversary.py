"""Optimality constructions: agreement at queries and quantile gaps."""

import dataclasses
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import lipquant.known
import lipquant.problems
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
from lipquant.measure import uniform_cube


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


def clip(polygon, half_plane):
    """The convex `polygon` (a list of vertices) cut to p x1 + q x2 + r >= 0."""
    p, q, r = half_plane
    side = [p * x1 + q * x2 + r for x1, x2 in polygon]
    out = []
    for i, (x1, x2) in enumerate(polygon):  # the edge from vertex i - 1 to vertex i
        (y1, y2), u, v = polygon[i - 1], side[i - 1], side[i]
        if (u >= 0) != (v >= 0):
            w = u / (u - v)
            out.append((y1 + w * (x1 - y1), y2 + w * (x2 - y2)))
        if v >= 0:
            out.append((x1, x2))
    return out


def tilde_mass_below(adv, t):
    """mass{f_tilde < t} under the uniform law for d = 2, as an exact Fraction,
    by another route than `verify_separation`: each box splits into the four
    polygons where one face is the nearest, on each of which f_tilde is linear;
    the part with x1 < t <= f_tilde is clipped from it (Sutherland-Hodgman)
    and its area taken by the shoelace formula."""
    s = Fraction(adv.lipschitz - 1.0)
    total = Fraction(t)
    for box in adv.tents:
        (a, b), (c, e) = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
        faces = [(1, 0, -a), (-1, 0, b), (0, 1, -c), (0, -1, e)]  # the distance to each, linear
        for p, q, r in faces:
            polygon = [(a, c), (b, c), (b, e), (a, e)]
            for pj, qj, rj in faces:  # this face is the nearest
                polygon = clip(polygon, (pj - p, qj - q, rj - r))
            polygon = clip(clip(polygon, (1 + s * p, s * q, s * r - t)), (-1, 0, t))
            total -= abs(sum((x1 * y2 - y1 * x2 for (x1, x2), (y1, y2)
                              in zip(polygon, polygon[1:] + polygon[:1])), Fraction(0))) / 2
    return total


def grouped_mass_below(adv):
    """`tilde_mass_below` of a d = 2 adversary, with its boxes grouped on
    their exact x1-range and width, in `Fraction`s, and the clipped polygons
    of one box of each group: boxes of one group hold equal volumes."""
    groups = Counter((Fraction(a), Fraction(b), Fraction(e) - Fraction(c))
                     for (a, b), (c, e) in adv.tents)

    def mass_below(t):
        return t - sum(n * (t - tilde_mass_below(dataclasses.replace(adv, tents=(((a, b), (0, w)),)), t))
                       for (a, b, w), n in groups.items())
    return mass_below


def assert_greatest_double_below(gap, mass_below):
    """`gap` is the greatest double g with mass_below(1/2 + g) <= 1/2, exactly."""
    half = Fraction(1, 2)
    assert isinstance(mass_below(half), Fraction)
    assert mass_below(half + Fraction(gap)) <= half
    assert mass_below(half + Fraction(math.nextafter(gap, 1.0))) > half


def exact_gap_d1(adv):
    """The median of a d = 1 f_tilde of tent slope 4 minus 1/2, solved by hand
    from its linear pieces: (16/23) 2^-N for the central interval of width
    2^-N, (2/23) 2^-j for the pair of intervals of width 2^-(j+1) each."""
    assert adv.lipschitz == 5.0
    (lo, hi), = adv.tents[0]
    return Fraction(16 if len(adv.tents) == 1 else 4, 23) * Fraction(hi - lo)


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
        return Adversary(np.zeros((1, dim)), self.BOXES[dim], 5.0, 0.1)

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
        # the values of the construction and its exact mass, bit for bit
        assert rep.claimed_gap.hex() == "0x1.2f684bda12f68p-8"
        assert rep.measured_gap.hex() == "0x1.5d11b97f823dbp-4"
        assert_greatest_double_below(rep.measured_gap, lambda t: tilde_mass_below(adv, t))

    @pytest.mark.parametrize("n", [9, 27])
    def test_the_exact_mass_is_the_clipped_polygons_mass(self, n):
        adv = build_adversary_d2(np.random.default_rng(n).random((n, 2)))
        rep = verify_separation(adv)
        assert rep.passed
        assert_greatest_double_below(rep.measured_gap, lambda t: tilde_mass_below(adv, t))

    # the gaps that grouping the boxes on their bounds as `Fraction`s gave
    @pytest.mark.parametrize("n, gap", [(3, "0x1.82244e6cea789p-4"),
                                        (243, "0x1.311986a83acd6p-10"),
                                        (3000, "0x1.6999832633de8p-15")])
    def test_boxes_grouped_on_exact_float_keys(self, n, gap):
        adv = build_adversary_d2(np.random.default_rng(n).random((n, 2)))
        rep = verify_separation(adv)
        assert rep.passed and rep.measured_gap.hex() == gap
        assert_greatest_double_below(rep.measured_gap, grouped_mass_below(adv))

    def test_verified_separation_n243(self):
        # 729 cells per axis, all of the middle column free: 729 tent boxes of 12 exact widths
        adv = build_adversary_d2(np.random.default_rng(243).random((243, 2)))
        start = time.perf_counter()
        rep = verify_separation(adv)
        assert time.perf_counter() - start < 1.0
        assert rep.passed and rep.agreement_residual == 0.0
        assert rep.measured_gap >= 20 * rep.claimed_gap

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
        # the free region of each draw (None: the central interval, else the
        # pair j), and the measured gap: the greatest double below the exact one
        regions = [None, 4, None, None, None, None, None, None]
        rng = np.random.default_rng(10)
        for n, j in zip(range(3, 11), regions):
            adv = build_adversary_d1(rng.random(n))
            rep = verify_separation(adv)
            assert rep.passed, f"n={n}: gap {rep.measured_gap} < {rep.claimed_gap}"
            assert rep.agreement_residual == 0.0
            assert rep.claimed_gap.hex() == f"0x1.c71c53f39d1b2p-{n + 5}"
            (lo, hi), = adv.tents[0]
            assert Fraction(hi - lo) == Fraction(1, 2 ** (n if j is None else j + 1))
            exact = exact_gap_d1(adv)
            assert Fraction(rep.measured_gap) <= exact < Fraction(math.nextafter(rep.measured_gap, 1))

    def test_full_verification_at_the_cap(self):
        adv = build_adversary_d1(np.random.default_rng(13).random(MAX_QUERIES_D1))
        rep = verify_separation(adv)
        assert rep.passed
        assert rep.measured_gap >= 8 * rep.claimed_gap

    @pytest.mark.parametrize("n", [30, MAX_QUERIES_D1])
    def test_free_pairs_next_to_one_half(self, n):
        # a query at 1/2 hits the central interval, and 30 to 50 of the 52 (or
        # the same share of the n) queries at 1/2 +- 2^-j u hit random pairs j,
        # so that a pair next to 1/2 is left free, whose gap lies below one ulp
        # of 1/2 at n = 52; the other queries are uniform
        for seed in range(40):
            rng = np.random.default_rng(seed)
            j = rng.integers(1, n + 1, int(rng.integers(30, 51)) * n // 52)
            x = 0.5 + rng.choice([-1.0, 1.0], j.size) * 2.0 ** -j * rng.uniform(0.5, 1.0, j.size)
            adv = build_adversary_d1(np.concatenate([[0.5], x, rng.random(n - 1 - x.size)]))
            rep = verify_separation(adv)
            assert len(adv.tents) == 2 and 0.5 - adv.tents[0][0][0] <= 2.0 ** (4 - n), seed
            assert rep.passed, f"seed {seed}: gap {rep.measured_gap} < {rep.claimed_gap}"
            exact = exact_gap_d1(adv)
            assert Fraction(rep.measured_gap) <= exact < Fraction(math.nextafter(rep.measured_gap, 1))


class TestExactMass:
    @pytest.mark.parametrize("dim, n", [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3)])
    def test_the_grid_oracle_agrees(self, dim, n):
        # the grid oracle, the independent reference, within L sqrt(d) / res
        rng = np.random.default_rng(20 + n)
        build = build_adversary_d2 if dim == 2 else build_adversary_d1
        adv = build(rng.random((n, dim)))
        problem = lipquant.problems.TestProblem(name="tilde", f=adv.f_tilde, lipschitz=adv.lipschitz,
                                                measure=uniform_cube(dim), alpha=0.5)
        res = 10 ** 6 if dim == 1 else 1000
        grid_gap = lipquant.problems.brute_force_quantile(problem, res) - 0.5
        assert abs(grid_gap - verify_separation(adv).measured_gap) <= adv.lipschitz * dim ** 0.5 / res

    @pytest.mark.parametrize("slope", [3.0, 5.0, 12.0])
    @pytest.mark.parametrize("boxes", [
        TestTiltedFunction.BOXES[2],
        # flat and tall boxes, where the cross-section empties before x1's faces meet
        (((0.2, 0.8), (0.1, 0.14)), ((0.35, 0.65), (0.3, 0.9)), ((0.45, 0.52), (0.95, 1.0))),
    ], ids=["tilted", "flat-and-tall"])
    def test_hand_made_boxes_against_the_clipped_polygons(self, boxes, slope):
        adv = Adversary(np.zeros((1, 2)), boxes, slope, 0.0)
        rep = verify_separation(adv)
        assert rep.measured_gap > 0.0
        assert_greatest_double_below(rep.measured_gap, lambda t: tilde_mass_below(adv, t))

    def test_no_grid_and_no_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_separation called the grid or the engine")

        monkeypatch.setattr(lipquant.problems, "_grid", refuse)
        monkeypatch.setattr(lipquant.known.Frontier, "__init__", refuse)
        rng = np.random.default_rng(21)
        assert verify_separation(build_adversary_d2(rng.random((9, 2)))).passed
        assert verify_separation(build_adversary_d1(rng.random(9))).passed

    @pytest.mark.parametrize("dim, slope, match", [
        (3, 5.0, "d <= 2"),  # the cross-section's volume is no longer linear in x1
        (1, 2.0, "L > 2"),  # the right face's bound divides by s - 1
        (2, 1.5, "L > 2"),
    ], ids=["d3", "s1", "s-half"])
    def test_refused_by_name(self, dim, slope, match):
        adv = Adversary(np.zeros((1, dim)), TestTiltedFunction.BOXES[dim], slope, 0.1)
        with pytest.raises(ValueError, match=match):
            verify_separation(adv)


class TestConstants:
    def test_d2_slope_boost_exceeds_threshold(self):
        threshold = math.sqrt(5) / (math.sqrt(6) - math.sqrt(5))
        assert SLOPE_BOOST_D2 == pytest.approx(2 * threshold, rel=1e-12)
        assert SLOPE_BOOST_D2 > threshold

    def test_d1_slope_boost_exceeds_threshold(self):
        assert SLOPE_BOOST_D1 > (1 + 0.5) / (1 - 0.5)
