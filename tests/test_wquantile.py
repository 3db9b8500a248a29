"""Weighted quantiles over (value, mass) tables, sup and inf forms."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lipquant import wquantile
from lipquant.wquantile import WINDOW_FLOOR, ValueMassTable, joined, level_quantiles

from oracles import weighted_quantile_inf, weighted_quantile_sup


def stable_reference(values, masses, eligible):
    """The constructor's (values, masses, eligible) by a stable argsort.

    A stable sort keeps tied rows in row order, so each tie's mass is summed
    in row order and the first row's value represents it; a zero is +0.0.
    """
    values, masses, eligible = (np.asarray(a, dtype=t) for a, t in
                                ((values, float), (masses, float), (eligible, bool)))
    order = np.argsort(values, kind="stable")
    values, masses, eligible = values[order], masses[order], eligible[order]
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    group = np.cumsum(keep) - 1
    return (values[keep] + 0.0, np.bincount(group, weights=masses),
            np.bincount(group, weights=eligible) > 0)


def assert_stable(t, values, masses, eligible):
    """`t` is the stable-sort reference's table of the rows, bit for bit."""
    want = stable_reference(values, masses, eligible)
    for got, ref in zip((t.values, t.masses, t.eligible), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(t.values), np.signbit(want[0]))


def join(rows, values, masses, eligible, frozen):
    """The table of the `rows` (a mask or a slice) joined to `frozen`,
    checked bit for bit against the stable-sort reference of the rows
    followed by the frozen groups."""
    t = ValueMassTable(*joined(rows, values, masses, eligible, frozen))
    parts = [np.asarray(c)[rows] for c in (values, masses, eligible)]
    if frozen is not None:
        parts = [np.concatenate(p) for p in
                 zip(parts, (frozen.values, frozen.masses, frozen.eligible))]
    assert_stable(t, *parts)
    return t


def table(points):
    """The table of (value, mass, eligible) triples."""
    values, masses, eligible = zip(*points)
    return ValueMassTable(values, masses, eligible)


def quantiles(points, alpha):
    """The (sup, inf) pair of the oracles on the table of `points`, which
    `level_quantiles` must give too, with the ineligible points as the
    frozen table and the eligible ones as the level's rows."""
    t = table(points)
    want = weighted_quantile_sup(t, alpha), weighted_quantile_inf(t, alpha)
    frozen = [p for p in points if not p[2]]
    level = np.array([p[:2] for p in points if p[2]]).reshape(-1, 2)
    got = level_quantiles(table(frozen) if frozen else None, level[:, 0], level[:, 1], alpha)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    return want


class TestSup:
    def test_two_point_tie_at_alpha(self):
        # both candidates qualify (tail masses 0.5 and 1.0 >= 0.5); sup is 1
        assert quantiles([(0.0, 0.5, True), (1.0, 0.5, True)], 0.5)[0] == 1.0

    def test_single_point(self):
        for alpha in (0.01, 0.5, 0.999):
            assert quantiles([(3.0, 1.0, True)], alpha)[0] == 3.0

    def test_tail_quantile(self):
        assert quantiles([(0.0, 0.9, True), (1.0, 0.1, True)], 0.999)[0] == 1.0

    def test_sup_empty_convention(self):
        # no eligible value has enough tail mass: fall back to min eligible
        assert quantiles([(5.0, 0.001, True), (0.0, 0.999, False)], 0.5)[0] == 5.0

    def test_frozen_mass_counts_in_sums(self):
        # the frozen point cannot be returned but its mass moves the answer
        points = [(0.0, 0.3, True), (0.5, 0.5, False), (1.0, 0.2, True)]
        # tail(1.0)=0.2 < 0.25, tail(0.0)=1.0 >= 0.25 -> sup of qualifiers is 0
        assert quantiles(points, 0.75)[0] == 0.0

    def test_invalid_alpha(self):
        # the oracle's refusal; the engine refuses such an alpha in `Frontier`
        # before `level_quantiles` reads a level
        t = table([(0.0, 1.0, True)])
        with pytest.raises(ValueError):
            weighted_quantile_sup(t, 0.0)
        with pytest.raises(ValueError):
            weighted_quantile_sup(t, 1.0)

    def test_no_eligible_point(self):
        t = table([(0.0, 1.0, False)])
        with pytest.raises(ValueError):
            weighted_quantile_sup(t, 0.5)
        with pytest.raises(ValueError, match="table has no eligible point"):
            level_quantiles(t, np.empty(0), np.empty(0), 0.5)


class TestInf:
    def test_two_point_tie_at_alpha(self):
        # head mass at 0 is exactly 0.5 >= 0.5, so inf is 0 (differs from sup
        # on this exact-tie table; the two forms agree on full-level tables)
        assert quantiles([(0.0, 0.5, True), (1.0, 0.5, True)], 0.5)[1] == 0.0

    def test_single_point(self):
        assert quantiles([(3.0, 1.0, True)], 0.5)[1] == 3.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=20)
        m = rng.random(20)
        m /= m.sum()
        points = list(zip(v, m, [True] * 20))
        alphas = np.linspace(0.01, 0.99, 50)
        vals = [quantiles(points, a)[1] for a in alphas]
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
        assert_stable(ValueMassTable(values, masses, eligible), values, masses, eligible)

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
        # whichever zero comes first, the table stores +0.0
        for first in (-0.0, 0.0):
            values = [first, 1.0, -first, 5.0, -first]
            t = ValueMassTable(values, [0.25] * 5, [True] * 5)
            assert t.values[0] == 0.0 and not np.signbit(t.values[0])

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
    """Joining each part's rows to the table of the parts before it equals
    building the table at once; each join is its rows, then the table's
    groups, summed in that order."""

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
        merged = None
        for i in np.unique(part):
            merged = join(part == i, v, m, e, merged)
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

    def test_a_tied_zero_keeps_the_first_tables_sign(self):
        # a -0.0 row in the first table: the joined table, as the table of all
        # rows, stores +0.0
        first = ValueMassTable([-0.0, 1.0], [0.25, 0.25], [True, True])
        merged = join(slice(None), np.array([0.0, 2.0]), np.array([0.25, 0.25]),
                      np.array([True, True]), first)
        whole = ValueMassTable([-0.0, 1.0, 0.0, 2.0], [0.25] * 4, [True] * 4)
        assert np.signbit(whole.values).tolist() == [False, False, False]
        assert np.signbit(merged.values).tolist() == [False, False, False]

    def test_disjoint_and_tied_rows(self):
        a = table([(0.0, 0.1, False), (2.0, 0.2, False)])
        t = join(slice(None), np.array([1.0, 2.0, 3.0]), np.array([0.3, 0.4, 0.0]),
                 np.ones(3, dtype=bool), a)
        assert t.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert t.masses.tolist() == [0.1, 0.3, 0.2 + 0.4, 0.0]
        assert t.eligible.tolist() == [False, True, True, True]

    def test_a_ties_rows_are_summed_before_its_frozen_group(self):
        # (2^-53 + 2^-53) + 1 is 1 + 2^-52; with the frozen group first, each
        # 1 + 2^-53 rounds to 1
        frozen = ValueMassTable([0.5], [1.0], [False])
        for eligible in (None, np.ones(2, dtype=bool)):
            t = ValueMassTable(*joined(slice(None), np.full(2, 0.5), np.full(2, 2.0 ** -53),
                                       eligible, frozen))
            assert [m.hex() for m in t.masses] == ["0x1.0000000000001p+0"]


def full_table_quantiles(frozen, values, masses, alpha):
    """(sup, inf) over the table of every row joined to `frozen`."""
    table = ValueMassTable(*joined(slice(None), values, masses, None, frozen))
    return weighted_quantile_sup(table, alpha), weighted_quantile_inf(table, alpha)


def level(rng, n, distinct, total=0.9):
    """n rows over `distinct` values (all distinct for None), with -0.0 and
    +0.0 both among them, and masses of several scales summing to about
    `total`."""
    if distinct is None:
        values = rng.normal(size=n)
    else:
        values = (rng.integers(0, distinct, n) - distinct // 2) / 7
    values[rng.random(n) < 0.01] = -0.0
    values[rng.random(n) < 0.01] = 0.0
    masses = rng.random(n) ** 4
    masses[rng.random(n) < 0.05] = 0.0
    masses[0] += not masses.any()  # a row of mass 0 alone
    masses *= total / masses.sum()
    return values, masses


def frozen_table(rng, values, n_frozen, eligible=0.3):
    """`n_frozen` groups inside and outside the range of `values`, a third
    as many tied with them, of mass 0.2 in all, each eligible with
    probability `eligible`; None for none."""
    if not n_frozen:
        return None
    fv = np.concatenate([rng.normal(0.0, 2.0, n_frozen), rng.choice(values, n_frozen // 3)])
    return ValueMassTable(fv, rng.random(len(fv)) * 0.2 / len(fv), rng.random(len(fv)) < eligible)


class TestLevelQuantiles:
    """`level_quantiles` is the oracles' pair, bit for bit, on every input."""

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.one_of(st.integers(1, 50), st.integers(WINDOW_FLOOR, 2 * WINDOW_FLOOR)),
        st.sampled_from([1, 2, 5, 24, 300, None]),  # 1 and 2: heavy ties, with the zeros
        st.integers(0, 300),  # frozen groups
        st.sampled_from([0.0, 0.3, 1.0]),  # the chance that a frozen group is eligible
        st.sampled_from([0.2, 0.9]),  # the level's mass: totals below alpha or 1 - alpha
        st.floats(0.001, 0.999),
    )
    def test_equals_the_oracles(self, seed, n, distinct, n_frozen, eligible, total, alpha):
        rng = np.random.default_rng(seed)
        values, masses = level(rng, n, distinct, total)
        frozen = frozen_table(rng, values, n_frozen, eligible)
        got = level_quantiles(frozen, values, masses, alpha)
        want = full_table_quantiles(frozen, values, masses, alpha)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_no_eligible_point_at_or_past_a_crossing(self, windowed_answers):
        # ineligible frozen mass 0.9 below the level holds the sup crossing of
        # alpha = 0.05, so the sup is the least eligible value; alone, the
        # level's mass 0.1 reaches neither crossing of alpha = 0.5, so the sup
        # is the least eligible value and the inf the greatest
        values, masses = level(np.random.default_rng(0), 2 * WINDOW_FLOOR, None, 0.1)
        below = ValueMassTable(np.linspace(-9.0, -8.0, 100), np.full(100, 0.009),
                               np.zeros(100, dtype=bool))
        for frozen, alpha, want in ((below, 0.05, (values.min(), values.min())),
                                    (None, 0.5, (values.min(), values.max()))):
            got = level_quantiles(frozen, values, masses, alpha)
            assert got == full_table_quantiles(frozen, values, masses, alpha) == want
        assert windowed_answers == [False, False]


class TestWindowed:
    """The window read `_windowed` is None or the full table's pair, bit for bit."""

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.integers(WINDOW_FLOOR, 3 * WINDOW_FLOOR),
        st.sampled_from([2, 5, 24, 300, None]),
        st.integers(0, 300),  # frozen groups
        st.floats(0.001, 0.999),
    )
    def test_none_or_the_full_tables_pair(self, seed, n, distinct, n_frozen, alpha):
        rng = np.random.default_rng(seed)
        values, masses = level(rng, n, distinct)
        frozen = frozen_table(rng, values, n_frozen)
        got = wquantile._windowed(frozen, values, masses, alpha)
        if got is not None:
            want = full_table_quantiles(frozen, values, masses, alpha)
            assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("distinct", [24, None])
    def test_a_large_level_is_answered(self, distinct, windowed_answers):
        rng = np.random.default_rng(3)
        values, masses = level(rng, 100_000, distinct)
        # frozen groups inside the level's range, so that it holds both crossings
        frozen = ValueMassTable(rng.uniform(-1.0, 1.0, 50), np.full(50, 0.002),
                                rng.random(50) < 0.5)
        for alpha in (0.01, 0.3, 0.999):
            got = level_quantiles(frozen, values, masses, alpha)
            assert got == full_table_quantiles(frozen, values, masses, alpha)
        assert windowed_answers == [True] * 3

    # masses of 2^-12 and a frozen group on either side: every sum is exact,
    # and one tail or head is 1/2, within the error bound of the sum that
    # alpha = 1/2 -/+ 1e-13 compares with it
    @pytest.mark.parametrize("above, below, alpha", [
        (1 / 8, 2 ** -13, 0.5 + 1e-13),  # the tail of the sup crossing
        (1 / 8, 2 ** -13, 0.5 - 1e-13),  # the tail of the group past it
        (2 ** -13, 1 / 8, 0.5 - 1e-13),  # the head of the inf crossing
        (2 ** -13, 1 / 8, 0.5 + 1e-13),  # the head of the group before it
    ])
    def test_a_sum_within_the_error_bound_is_not_certified(self, above, below, alpha):
        values, masses = np.arange(4096.0), np.full(4096, 2.0 ** -12)
        frozen = ValueMassTable([-1.0, 5000.0], [below, above], [False, False])
        assert wquantile._windowed(frozen, values, masses, alpha) is None
        assert level_quantiles(frozen, values, masses, alpha) == \
            full_table_quantiles(frozen, values, masses, alpha)
        # with the sums clear of the bound, the pair is certified
        for alpha in (0.5 - 2 ** -14, 0.5 + 2 ** -14):
            got = wquantile._windowed(frozen, values, masses, alpha)
            assert got == full_table_quantiles(frozen, values, masses, alpha)

    def test_none_below_the_floor_and_on_a_range_it_cannot_bin(self, windowed_answers):
        values, masses = np.arange(4095.0), np.full(4095, 1 / 4095)
        assert level_quantiles(None, values, masses, 0.5) == \
            full_table_quantiles(None, values, masses, 0.5)
        assert windowed_answers == []  # below the floor, no window is tried
        masses = np.full(5000, 2e-4)
        # one value, and a width past the float range or below it; none may warn
        for values in (np.ones(5000), np.repeat([-1e308, 1e308], 2500),
                       np.repeat([0.0, 5e-324], 2500)):
            assert level_quantiles(None, values, masses, 0.5) == \
                full_table_quantiles(None, values, masses, 0.5)
        assert windowed_answers == [False] * 3
