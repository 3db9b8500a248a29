"""Weighted quantiles over (value, mass) tables, sup and inf forms."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lipquant.wquantile import (
    ValueMassTable,
    weighted_quantile_inf,
    weighted_quantile_sup,
)


def stable_reference(values, masses, eligible):
    """The constructor's (values, masses, eligible) by a stable argsort.

    A stable sort keeps tied rows in row order, so each tie's mass is summed
    in row order and the first row's value (and sign of zero) represents it.
    """
    values, masses, eligible = (np.asarray(a, dtype=t) for a, t in
                                ((values, float), (masses, float), (eligible, bool)))
    order = np.argsort(values, kind="stable")
    values, masses, eligible = values[order], masses[order], eligible[order]
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    group = np.cumsum(keep) - 1
    return (values[keep], np.bincount(group, weights=masses),
            np.bincount(group, weights=eligible) > 0)


def table(points):
    """The table of (value, mass, eligible) triples."""
    values, masses, eligible = zip(*points)
    return ValueMassTable(values, masses, eligible)


class TestSup:
    def test_two_point_tie_at_alpha(self):
        # both candidates qualify (tail masses 0.5 and 1.0 >= 0.5); sup is 1
        t = table([(0.0, 0.5, True), (1.0, 0.5, True)])
        assert weighted_quantile_sup(t, 0.5) == 1.0

    def test_single_point(self):
        t = table([(3.0, 1.0, True)])
        for alpha in (0.01, 0.5, 0.999):
            assert weighted_quantile_sup(t, alpha) == 3.0

    def test_tail_quantile(self):
        t = table([(0.0, 0.9, True), (1.0, 0.1, True)])
        assert weighted_quantile_sup(t, 0.999) == 1.0

    def test_sup_empty_convention(self):
        # no eligible value has enough tail mass: fall back to min eligible
        t = table([(5.0, 0.001, True), (0.0, 0.999, False)])
        assert weighted_quantile_sup(t, 0.5) == 5.0

    def test_frozen_mass_counts_in_sums(self):
        # the frozen point cannot be returned but its mass moves the answer
        t = table([(0.0, 0.3, True), (0.5, 0.5, False), (1.0, 0.2, True)])
        # tail(1.0)=0.2 < 0.25, tail(0.0)=1.0 >= 0.25 -> sup of qualifiers is 0
        assert weighted_quantile_sup(t, 0.75) == 0.0

    def test_invalid_alpha(self):
        t = table([(0.0, 1.0, True)])
        with pytest.raises(ValueError):
            weighted_quantile_sup(t, 0.0)
        with pytest.raises(ValueError):
            weighted_quantile_sup(t, 1.0)

    def test_no_eligible_point(self):
        t = table([(0.0, 1.0, False)])
        with pytest.raises(ValueError):
            weighted_quantile_sup(t, 0.5)


class TestInf:
    def test_two_point_tie_at_alpha(self):
        # head mass at 0 is exactly 0.5 >= 0.5, so inf is 0 (differs from sup
        # on this exact-tie table; the two forms agree on full-level tables)
        t = table([(0.0, 0.5, True), (1.0, 0.5, True)])
        assert weighted_quantile_inf(t, 0.5) == 0.0

    def test_single_point(self):
        assert weighted_quantile_inf(table([(3.0, 1.0, True)]), 0.5) == 3.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=20)
        m = rng.random(20)
        m /= m.sum()
        t = ValueMassTable(v, m, np.ones(20, dtype=bool))
        alphas = np.linspace(0.01, 0.99, 50)
        vals = [weighted_quantile_inf(t, a) for a in alphas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestAgreement:
    def test_random_all_eligible_tables(self):
        # 1000 random tables with continuous values: sup == inf exactly
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            v = rng.normal(size=n)
            m = rng.random(n)
            m /= m.sum()
            t = ValueMassTable(v, m, np.ones(n, dtype=bool))
            alpha = float(rng.uniform(0.01, 0.99))
            assert weighted_quantile_sup(t, alpha) == weighted_quantile_inf(t, alpha)

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(0.01, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        ),
        st.floats(0.01, 0.99),
    )
    def test_sup_result_is_a_table_value(self, pairs, alpha):
        v = np.array([p[0] for p in pairs])
        m = np.array([p[1] for p in pairs])
        t = ValueMassTable(v, m / m.sum(), np.ones(len(pairs), dtype=bool))
        q = weighted_quantile_sup(t, alpha)
        assert q in t.values


class TestTableMechanics:
    def test_tie_merging(self):
        t = table([(1.0, 0.25, True), (1.0, 0.25, False), (0.0, 0.5, True)])
        assert t.values.tolist() == [0.0, 1.0]
        assert t.masses.tolist() == [0.5, 0.5]
        assert t.eligible.tolist() == [True, True]  # eligibility or-ed

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ValueMassTable([], [], [])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="masses must be >= 0"):
            table([(1.0, 0.5, True), (0.0, -0.1, True)])

    def test_nan_mass_rejected(self):
        # masses.min() < 0 is False for NaN: the table was built and its sup
        # quantile was 3.0
        with pytest.raises(ValueError, match="masses must be >= 0, got nan"):
            ValueMassTable([1.0, 2.0, 3.0], [np.nan, 0.5, 0.5], [True] * 3)


class TestAgainstStableSort:
    """The constructor equals the stable-sort reference exactly, bit for bit."""

    @staticmethod
    def assert_same(values, masses, eligible):
        t = ValueMassTable(values, masses, eligible)
        want = stable_reference(values, masses, eligible)
        for got, ref in zip((t.values, t.masses, t.eligible), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(t.values), np.signbit(want[0]))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1 / 3, 2.0, 7.0]),  # heavy ties
                st.floats(0.0, 1.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_heavy_ties(self, points):
        values, masses, eligible = zip(*points)
        self.assert_same(values, masses, eligible)

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200, unique=True),
        st.data(),
    )
    def test_all_distinct(self, values, data):
        n = len(values)
        masses = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        eligible = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        self.assert_same(values, masses, eligible)

    @pytest.mark.parametrize("distinct", [24, 100_000])
    def test_large_tables(self, distinct):
        # the default argsort leaves most tied rows out of row order here
        rng = np.random.default_rng(distinct)
        values = rng.integers(0, distinct, 100_000) / 7
        self.assert_same(values, rng.random(100_000) ** 4, rng.random(100_000) < 0.5)

    def test_first_zero_keeps_its_sign(self):
        for first in (-0.0, 0.0):
            values = [first, 1.0, -first, 5.0, -first]
            t = ValueMassTable(values, [0.25] * 5, [True] * 5)
            assert t.values[0] == 0.0 and np.signbit(t.values[0]) == np.signbit(first)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            ValueMassTable([0.5, np.nan, 1.0], [0.3, 0.3, 0.4], [True] * 3)

    @pytest.mark.parametrize("masses, eligible", [([0.5], [True, True]),
                                                  ([0.5, 0.5], [True]),
                                                  ([[0.5, 0.5]], [True, True])])
    def test_mismatched_shapes_rejected(self, masses, eligible):
        with pytest.raises(ValueError, match="1-D of one length"):
            ValueMassTable([0.0, 1.0], masses, eligible)


class TestMerge:
    """Merging sorted, tie-merged parts equals building the table at once."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),  # few distinct values: heavy ties
                st.floats(0.01, 1.0, allow_nan=False),
                st.booleans(),
                st.integers(0, 3),  # the part holding the point
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(0.01, 0.99),
    )
    def test_merged_parts_equal_whole_table(self, points, alpha):
        v = np.array([p[0] / 7 for p in points])
        m = np.array([p[1] for p in points])
        m /= m.sum()
        e = np.array([p[2] for p in points])
        part = np.array([p[3] for p in points])
        whole = ValueMassTable(v, m, e)
        parts = [ValueMassTable(v[part == i], m[part == i], e[part == i])
                 for i in np.unique(part)]
        merged = parts[0]
        for t in parts[1:]:
            merged = merged.merge(t)
        np.testing.assert_array_equal(merged.values, whole.values)
        np.testing.assert_array_equal(merged.eligible, whole.eligible)
        np.testing.assert_allclose(merged.masses, whole.masses, rtol=1e-13, atol=0)
        if not whole.eligible.any():
            return
        # away from the cumulative masses, rounding cannot move a quantile
        cum = np.concatenate([np.cumsum(whole.masses), 1.0 - np.cumsum(whole.masses[::-1])])
        assume(np.all(np.abs(cum - alpha) > 1e-12))
        assert weighted_quantile_sup(merged, alpha) == weighted_quantile_sup(whole, alpha)
        assert weighted_quantile_inf(merged, alpha) == weighted_quantile_inf(whole, alpha)

    def test_disjoint_and_tied_rows(self):
        a = table([(0.0, 0.1, False), (2.0, 0.2, False)])
        b = table([(1.0, 0.3, True), (2.0, 0.4, True), (3.0, 0.0, True)])
        t = a.merge(b)
        assert t.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert t.masses.tolist() == [0.1, 0.3, 0.2 + 0.4, 0.0]
        assert t.eligible.tolist() == [False, True, True, True]


class TestTake:
    """The table of some rows, built from the groups of the table of all
    rows, equals the table built from those rows alone, bit for bit."""

    @staticmethod
    def assert_take(values, rows, masses, eligible):
        """Take `rows` of `values` with `masses` and their flags of `eligible`,
        from a table of all rows in which every row is eligible."""
        values = np.asarray(values, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)
        eligible = np.asarray(eligible, dtype=bool)
        whole = ValueMassTable(values, np.ones(len(values)), np.ones(len(values), dtype=bool))
        got = whole.take(rows, masses, eligible[rows])
        want = ValueMassTable(values[rows], masses, eligible[rows])
        for a, b in ((got.values, want.values), (got.masses, want.masses),
                     (got.eligible, want.eligible)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
        return got

    def test_ties_and_a_zero_mass_row(self):
        values = [2.0, 1.0, 2.0, 3.0, 1.0, 2.0]
        got = self.assert_take(values, [0, 2, 3, 4, 5], [0.125, 0.0, 0.25, 0.5, 0.125],
                               [False, True, False, True, False, True])
        assert got.values.tolist() == [1.0, 2.0, 3.0]
        assert got.masses.tolist() == [0.5, 0.25, 0.25]
        # a group is eligible iff one of its rows taken is
        assert got.eligible.tolist() == [False, True, True]

    def test_zero_takes_the_sign_of_the_first_row_taken(self):
        # -0.0 comes first in the whole table, but is not taken
        values = [-0.0, 1.0, 0.0, -0.0, 0.0]
        assert np.signbit(ValueMassTable(values, [0.2] * 5, [True] * 5).values[0])
        got = self.assert_take(values, [1, 2, 3], [0.25, 0.25, 0.5], [True] * 5)
        assert got.values[0] == 0.0 and not np.signbit(got.values[0])
        got = self.assert_take(values, [0, 4], [0.5, 0.5], [True, False, False, False, False])
        assert np.signbit(got.values[0]) and got.eligible.tolist() == [True]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1 / 3, 2.0, 7.0]),  # heavy ties
                st.booleans(),  # eligible if taken
                st.booleans(),  # taken
                st.sampled_from([0.0, 0.1, 1 / 3, 0.7]),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_random_tables(self, points):
        values, eligible, taken, masses = map(np.array, zip(*points))
        assume(taken.any())
        rows = np.flatnonzero(taken)
        self.assert_take(values, rows, masses[rows], eligible)

    @pytest.mark.parametrize("distinct", [24, 100_000])
    def test_large_tables(self, distinct):
        rng = np.random.default_rng(distinct)
        values = (rng.integers(0, distinct, 100_000) - distinct // 2) / 7
        values[rng.random(100_000) < 0.01] = -0.0
        rows = np.flatnonzero(rng.random(100_000) < 0.3)
        self.assert_take(values, rows, rng.random(len(rows)) ** 4, rng.random(100_000) < 0.1)

    def test_refuses_bad_masses(self):
        t = ValueMassTable([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], [True] * 3)
        with pytest.raises(ValueError, match="masses must be >= 0, got nan"):
            t.take(np.array([0, 2]), [0.5, np.nan], [False, False])
        with pytest.raises(ValueError, match="masses must be >= 0, got -0.5"):
            t.take(np.array([1]), [-0.5], [False])
        with pytest.raises(ValueError, match="empty table"):
            t.take(np.array([], dtype=np.int64), [], [])
