"""Ternary subdivision: the cell radius, and the exact cell oracles of oracles.py
(centers, lineage, partition identities)."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipquant.grid import center_child_digits, half_radius

from oracles import (
    MultiIndex,
    canonical_center_key,
    cell_box_fraction,
    center,
    center_fraction,
    center_point,
    child_digits,
    children,
    parent_l,
)


class TestCenter:
    def test_level0(self):
        assert center(MultiIndex(0, (0,))).tolist() == [0.5]

    def test_level1(self):
        assert center(MultiIndex(1, (2,))).tolist() == [5 / 6]

    def test_level1_d2(self):
        assert center(MultiIndex(1, (0, 2))).tolist() == [1 / 6, 5 / 6]

    def test_exact_fraction(self):
        assert center_fraction(MultiIndex(2, (7,))) == (Fraction(15, 18),)

    def test_huge_level_is_finite(self):
        # 3^400 overflows floats; int/int division must still work
        (c,) = center_point(400, (0,))
        assert c == 0.0 or c > 0.0
        assert math.isfinite(c)


class TestHalfRadius:
    def test_examples(self):
        assert half_radius(0, 1) == 0.5
        assert half_radius(1, 2) == pytest.approx(math.sqrt(2) / 6, abs=1e-15)
        assert half_radius(3, 1) == pytest.approx(1 / 54, abs=1e-18)

    def test_halving_law(self):
        for k in range(6):
            for d in (1, 2, 3):
                assert half_radius(k + 1, d) == pytest.approx(half_radius(k, d) / 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            half_radius(-1, 1)


class TestLineage:
    def test_children_d1(self):
        kids = children(MultiIndex(0, (0,)))
        assert sorted(k.digits for k in kids) == [(0,), (1,), (2,)]
        assert all(k.level == 1 for k in kids)

    def test_children_level1(self):
        kids = children(MultiIndex(1, (2,)))
        assert sorted(k.digits for k in kids) == [(6,), (7,), (8,)]

    def test_center_child_preserves_center(self):
        idx = MultiIndex(2, (4, 7))
        cc = MultiIndex(3, center_child_digits(idx.digits))
        assert center_fraction(cc) == center_fraction(idx)

    def test_parent_examples(self):
        assert parent_l(MultiIndex(2, (7,)), 1) == MultiIndex(1, (2,))
        assert parent_l(MultiIndex(2, (7, 0)), 2) == MultiIndex(0, (0, 0))
        assert parent_l(MultiIndex(1, (2,)), 0) == MultiIndex(1, (2,))

    def test_parent_rejects_too_many_steps(self):
        with pytest.raises(ValueError):
            parent_l(MultiIndex(1, (2,)), 2)

    @given(
        st.integers(0, 5),
        st.integers(1, 3),
        st.data(),
    )
    def test_parent_of_child_roundtrip(self, level, dim, data):
        digits = tuple(
            data.draw(st.integers(0, 3 ** level - 1)) for _ in range(dim)
        )
        idx = MultiIndex(level, digits)
        for kid in children(idx):
            assert parent_l(kid, 1) == idx


class TestPartition:
    @pytest.mark.parametrize("dim,max_level", [(1, 5), (2, 3), (3, 2)])
    def test_cells_tile_the_cube_exactly(self, dim, max_level):
        # exact rational endpoints: per axis the cells [b/3^k, (b+1)/3^k]
        # are contiguous and cover [0,1]; the product structure lifts this
        for k in range(max_level + 1):
            den = 3 ** k
            edges = [Fraction(b, den) for b in range(den + 1)]
            assert edges[0] == 0 and edges[-1] == 1
            assert all(b - a == Fraction(1, den) for a, b in zip(edges, edges[1:]))
            # spot-check the boxes of a full (small) enumeration
            cells = list(itertools.product(range(den), repeat=dim))
            assert len(cells) == den ** dim
            for digits in cells[:: max(1, len(cells) // 64)]:
                lo, hi = cell_box_fraction(MultiIndex(k, digits))
                assert all(h - l == Fraction(1, den) for l, h in zip(lo, hi))

    def test_children_tile_parent(self):
        parent = MultiIndex(1, (2, 0))
        plo, phi = cell_box_fraction(parent)
        kids = children(parent)
        assert len(kids) == 9
        total = sum(
            (lambda b: (b[1][0] - b[0][0]) * (b[1][1] - b[0][1]))(cell_box_fraction(k))
            for k in kids
        )
        assert total == (phi[0] - plo[0]) * (phi[1] - plo[1])
        for kid in kids:
            klo, khi = cell_box_fraction(kid)
            assert all(pl <= kl and kh <= ph for pl, kl, kh, ph in zip(plo, klo, khi, phi))


class TestCanonicalKey:
    def test_center_child_collapses_to_parent(self):
        assert canonical_center_key(1, (1,)) == (0, (0,))
        # center (27/54, 9/54) = (1/2, 1/6): strips twice, to level 1
        assert canonical_center_key(3, (13, 4)) == (1, (1, 0))

    def test_non_center_child_keeps_level(self):
        assert canonical_center_key(2, (3, 4)) == (2, (3, 4))

    @given(st.integers(0, 4), st.integers(1, 3), st.data())
    def test_key_equality_matches_center_equality(self, level, dim, data):
        digits = tuple(data.draw(st.integers(0, 3 ** level - 1)) for _ in range(dim))
        idx = MultiIndex(level, digits)
        cc = MultiIndex(level + 1, center_child_digits(digits))
        assert canonical_center_key(cc.level, cc.digits) == canonical_center_key(
            idx.level, idx.digits
        )
        for kid in children(idx):
            if kid.digits != cc.digits:
                assert canonical_center_key(kid.level, kid.digits) != canonical_center_key(
                    idx.level, idx.digits
                )


class TestValidation:
    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            MultiIndex(1, (3,))
        with pytest.raises(ValueError):
            MultiIndex(0, (1,))

    def test_negative_level(self):
        with pytest.raises(ValueError):
            MultiIndex(-1, (0,))


class TestChildDigits:
    def test_child_digits_matches_children(self):
        idx = MultiIndex(1, (2, 1))
        assert sorted(child_digits(idx.digits)) == sorted(k.digits for k in children(idx))
