"""Weighted quantiles over (value, mass) tables, sup and inf forms."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lipquant import wquantile
from lipquant.wquantile import WINDOW_FLOOR, ValueMassTable, level_quantiles

from oracles import frozen_store, weighted_quantile_inf, weighted_quantile_sup, weighted_quantiles

NO_ROWS = (np.empty(0), np.empty(0), np.empty(0, dtype=bool))


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


def chunk(points):
    """The (values, masses, eligible) columns of (value, mass, eligible) triples."""
    if not points:
        return NO_ROWS
    return tuple(np.array(c, dtype=t) for c, t in zip(zip(*points), (float, float, bool)))


def table(points):
    """The table of (value, mass, eligible) triples."""
    return ValueMassTable(*chunk(points))


def exact_pair(frozen, values, masses, alpha):
    """The oracles' (sup, inf) over the level's rows, all eligible, and the
    frozen rows, every mass summed exactly."""
    rows = (np.concatenate((values, frozen[0])), np.concatenate((masses, frozen[1])),
            np.concatenate((np.ones(len(values), dtype=bool), frozen[2])))
    return weighted_quantiles(*rows, alpha)


def hexes(pair):
    return [x.hex() for x in pair]


def assert_mass_between_iff_sup_below_inf(pair, *rows):
    """The lemma of the `wquantile` docstring on a table's (sup, inf)
    `pair`: the table's real rows, (values, masses) chunks, hold positive
    mass strictly between the pair's values iff sup < inf."""
    lo, hi = sorted(pair)
    between = any(((v > lo) & (v < hi) & (m > 0)).any() for v, m in rows)
    assert between == (pair[0] < pair[1]), pair


def quantiles(points, alpha):
    """The (sup, inf) pair of the oracles on `points`, which
    `level_quantiles` must give too, with the ineligible points as the
    frozen rows and the eligible ones as the level's rows."""
    level = chunk([p for p in points if p[2]])
    want = exact_pair(chunk([p for p in points if not p[2]]), *level[:2], alpha)
    got = level_quantiles(frozen_store(chunk([p for p in points if not p[2]])), *level[:2], alpha)
    assert hexes(got) == hexes(want)
    return want


class TestSup:
    def test_two_point_tie_at_alpha(self):
        # both candidates qualify (head masses 0 and 0.5 <= 0.5); sup is 1
        assert quantiles([(0.0, 0.5, True), (1.0, 0.5, True)], 0.5)[0] == 1.0

    def test_single_point(self):
        for alpha in (0.01, 0.5, 0.999):
            assert quantiles([(3.0, 1.0, True)], alpha)[0] == 3.0

    def test_tail_quantile(self):
        assert quantiles([(0.0, 0.9, True), (1.0, 0.1, True)], 0.999)[0] == 1.0

    def test_sup_empty_convention(self):
        # every eligible value has too much mass below: fall back to min eligible
        assert quantiles([(5.0, 0.001, True), (0.0, 0.999, False)], 0.5)[0] == 5.0

    def test_frozen_mass_counts_in_sums(self):
        # the frozen point cannot be returned but its mass moves the answer
        points = [(0.0, 0.3, True), (0.5, 0.5, False), (1.0, 0.2, True)]
        # head(1.0)=0.8 > 0.75, head(0.0)=0 <= 0.75 -> sup of qualifiers is 0
        assert quantiles(points, 0.75)[0] == 0.0

    def test_invalid_alpha(self):
        # the oracle's refusal; the engine refuses such an alpha in `Frontier`
        # before `level_quantiles` reads a level
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                weighted_quantile_sup([0.0], [1.0], [True], alpha)

    def test_no_eligible_point(self):
        frozen = chunk([(0.0, 1.0, False)])
        with pytest.raises(ValueError):
            weighted_quantile_sup(*frozen, 0.5)
        with pytest.raises(ValueError, match="table has no eligible point"):
            level_quantiles(frozen_store(frozen), np.empty(0), np.empty(0), 0.5)


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
            alpha = float(rng.uniform(0.01, 0.99))
            e = np.ones(n, dtype=bool)
            assert weighted_quantile_sup(v, m, e, alpha) == weighted_quantile_inf(v, m, e, alpha)

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
        q = weighted_quantile_sup(v, m / m.sum(), np.ones(len(pairs), dtype=bool), alpha)
        assert q in v


class TestTableMechanics:
    def test_tie_merging(self):
        t = table([(1.0, 0.25, True), (1.0, 0.25, False), (0.0, 0.5, True)])
        assert t.values.tolist() == [0.0, 1.0]
        assert t.masses.tolist() == [0.5, 0.5]
        assert t.eligible.tolist() == [True, True]  # eligibility or-ed


class TestAgainstStableSort:
    """The constructor equals the stable-sort reference exactly, bit for bit."""

    @staticmethod
    def assert_same(values, masses, eligible):
        columns = (np.array(values, dtype=float), np.array(masses, dtype=float),
                   np.array(eligible, dtype=bool))
        assert_stable(ValueMassTable(*columns), *columns)

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
            values = np.array([first, 1.0, -first, 5.0, -first])
            t = ValueMassTable(values, np.full(5, 0.25), np.ones(5, dtype=bool))
            assert t.values[0] == 0.0 and not np.signbit(t.values[0])



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


def frozen_rows(rng, values, n_frozen, eligible=0.3):
    """`n_frozen` rows inside and outside the range of `values`, a third as
    many tied with them, of mass 0.2 in all, each eligible with probability
    `eligible`."""
    fv = np.concatenate([rng.normal(0.0, 2.0, n_frozen), rng.choice(values, n_frozen // 3)])
    return fv, rng.random(len(fv)) * 0.2 / max(len(fv), 1), rng.random(len(fv)) < eligible


class TestLevelQuantiles:
    """`level_quantiles` is the exact oracles' pair, bit for bit, on every input."""

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.one_of(st.integers(1, 50), st.integers(WINDOW_FLOOR, 2 * WINDOW_FLOOR)),
        st.sampled_from([1, 2, 5, 24, 300, None]),  # 1 and 2: heavy ties, with the zeros
        st.integers(0, 300),  # frozen rows
        st.sampled_from([0.0, 0.3, 1.0]),  # the chance that a frozen row is eligible
        st.sampled_from([0.2, 0.9]),  # the level's mass: totals below alpha or 1 - alpha
        st.floats(0.001, 0.999),
    )
    def test_equals_the_oracles(self, seed, n, distinct, n_frozen, eligible, total, alpha):
        rng = np.random.default_rng(seed)
        values, masses = level(rng, n, distinct, total)
        frozen = frozen_rows(rng, values, n_frozen, eligible)
        got = level_quantiles(frozen_store(frozen), values, masses, alpha)
        assert hexes(got) == hexes(exact_pair(frozen, values, masses, alpha))

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.one_of(st.integers(1, 60), st.integers(WINDOW_FLOOR, WINDOW_FLOOR + 500)),
        st.integers(0, 200),  # frozen rows
        st.integers(-3, 3),  # alpha's ulps from a head
    )
    @example(19, 5, 5, 0)  # a crossing on an ineligible frozen value: sup < inf
    @example(20, 5, 5, 0)  # a flat CDF: inf < sup
    def test_no_row_order_moves_a_crossing(self, seed, n, n_frozen, nudge):
        # heavy ties with both zeros, masses scaled to a total that is off 1
        # by a few ulps, and alpha within ulps of the float sum of the masses
        # below a value
        rng = np.random.default_rng(seed)
        values = rng.choice([-1.5, -0.0, 0.0, 1 / 7, 2 / 7, 1 / 3, 2.0], n + n_frozen)
        masses = rng.random(n + n_frozen) ** 4
        masses[rng.random(n + n_frozen) < 0.05] = 0.0
        masses[0] += not masses.any()
        masses /= masses.sum()
        order = np.argsort(values, kind="stable")
        ends = np.append(values[order][1:] != values[order][:-1], True)  # each value's last row
        alpha = float(np.cumsum(masses[order])[ends][rng.integers(ends.sum())])
        for _ in range(abs(nudge)):
            alpha = float(np.nextafter(alpha, np.sign(nudge)))
        if not 0.0 < alpha < 1.0:
            return
        frozen = values[n:], masses[n:], rng.random(n_frozen) < 0.5
        got = level_quantiles(frozen_store(frozen), values[:n], masses[:n], alpha)
        assert hexes(got) == hexes(exact_pair(frozen, values[:n], masses[:n], alpha))
        # nudge 0 puts alpha on a float head, where the forms can differ
        assert_mass_between_iff_sup_below_inf(got, (values, masses))
        # any order of the level's rows, and of the frozen rows, as any split
        # of them into chunks joined in any order would give
        rows, frows = rng.permutation(n), rng.permutation(n_frozen)
        frozen = tuple(c[frows] for c in frozen)
        got_again = level_quantiles(frozen_store(frozen), values[:n][rows], masses[:n][rows], alpha)
        assert hexes(got_again) == hexes(got)

    def test_no_eligible_point_at_or_past_a_crossing(self, windowed_answers):
        # ineligible frozen mass 0.9 below the level holds both crossings of
        # alpha = 0.05, so both forms are the least eligible value; alone, the
        # level's mass 0.1 keeps every head below alpha = 0.5, so both forms
        # are the greatest, at the last group, whose mass ends the table
        values, masses = level(np.random.default_rng(0), 2 * WINDOW_FLOOR, None, 0.1)
        below = np.linspace(-9.0, -8.0, 100), np.full(100, 0.009), np.zeros(100, dtype=bool)
        for frozen, alpha, want in ((below, 0.05, (values.min(), values.min())),
                                    (NO_ROWS, 0.5, (values.max(), values.max()))):
            got = level_quantiles(frozen_store(frozen), values, masses, alpha)
            assert got == exact_pair(frozen, values, masses, alpha) == want
        assert windowed_answers == [False, False]


def sides_of(rng, fv, fm, cut, n_chunks):
    """The rows (fv, fm), all ineligible, as the `sides` that
    `frozen_store` takes: the rows below `cut` and the others, their float
    masses and extremes, and the rows shuffled into `n_chunks` chunks."""
    low = fv < cut
    chunks = [(fv[c], fm[c]) for c in np.array_split(rng.permutation(len(fv)), n_chunks)]
    return ((float(fm[low].sum()), float(fv.max(where=low, initial=-np.inf))),
            (float(fm[~low].sum()), float(fv.min(where=~low, initial=np.inf))), chunks)


class TestSummarized:
    """`level_quantiles` of frozen rows with side chunks is the exact
    oracles' pair over every row, bit for bit, whether the summary rows
    answer or not."""

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.one_of(st.integers(1, 50), st.integers(WINDOW_FLOOR, 2 * WINDOW_FLOOR)),
        st.sampled_from([1, 2, 5, 24, 300, None]),
        st.integers(0, 100),  # eligible frozen rows
        st.integers(1, 300),  # rows of the sides
        st.sampled_from([0.0, 0.5, 1.0]),  # where the sides split, as a quantile of the level
        st.integers(1, 5),  # chunks of the sides
        st.floats(0.001, 0.999),
    )
    @example(13, 20, None, 10, 30, 0.5, 2, 0.5)  # a crossing on a side's row: sup < inf
    def test_equals_the_oracles(self, seed, n, distinct, n_frozen, n_side, split, n_chunks, alpha):
        rng = np.random.default_rng(seed)
        values, masses = level(rng, n, distinct)
        frozen = frozen_rows(rng, values, n_frozen, eligible=1.0)
        fv, fm, _ = frozen_rows(rng, values, n_side, eligible=0.0)
        sides = sides_of(rng, fv, fm, float(np.quantile(values, split)), n_chunks)
        got = level_quantiles(frozen_store(frozen, sides), values, masses, alpha)
        everything = tuple(map(np.concatenate, zip(frozen, (fv, fm, np.zeros(len(fv), dtype=bool)))))
        assert hexes(got) == hexes(exact_pair(everything, values, masses, alpha))
        assert_mass_between_iff_sup_below_inf(got, (values, masses), everything[:2])

    @pytest.mark.parametrize("n", [100, 2 * WINDOW_FLOOR])
    def test_a_crossing_outside_the_span_reads_every_row(self, n, summarized_answers):
        # ineligible masses 1/4 below the level and 1/4 above it, at -3..-1
        # and 5001..5003: alpha 1/2 crosses in the level and is read from the
        # summary; alphas 0.1 and 0.9 cross among the rows of a side, where
        # the summary declines and every row is read
        values, masses = np.linspace(0.0, 1.0, n), np.full(n, 0.5 / n)
        fv, fm = np.array([-3.0, -2.0, -1.0, 5001.0, 5002.0, 5003.0]), np.full(6, 1 / 12)
        sides = sides_of(np.random.default_rng(0), fv, fm, 0.5, 2)
        everything = fv, fm, np.zeros(6, dtype=bool)
        # the level's own values are answers, as no frozen row is eligible
        for alpha in (0.5, 0.1, 0.9):
            got = level_quantiles(frozen_store(NO_ROWS, sides), values, masses, alpha)
            assert hexes(got) == hexes(exact_pair(everything, values, masses, alpha))
        assert summarized_answers == [True, False, False]


    def test_an_answer_in_the_span_is_not_enough(self, summarized_answers):
        # the rows above, at 1 and 3, are one summary row of mass 5/8 at 1,
        # so the summary's answers are both 1, the eligible level row of
        # mass 0 there, inside the span (0, 1]; but its first head > alpha is
        # at 2, past the span, and over every row the head at 2 is
        # 3/8 = alpha: the sup is 2
        values, masses = np.array([0.5, 1.0, 2.0]), np.array([1 / 8, 0.0, 1 / 8])
        fv, fm = np.array([0.0, 1.0, 3.0]), np.array([1 / 8, 1 / 8, 1 / 2])
        sides = ((1 / 8, 0.0), (5 / 8, 1.0), [(fv, fm)])
        got = level_quantiles(frozen_store(NO_ROWS, sides), values, masses, 3 / 8)
        assert got == exact_pair((fv, fm, np.zeros(3, dtype=bool)), values, masses, 3 / 8) == (2.0, 1.0)
        assert summarized_answers == [False]


def windowed(frozen, values, masses, alpha):
    """The window read `_windowed` of the level's rows with the frozen rows,
    all of them real rows."""
    return wquantile._windowed([frozen], values, masses, alpha, ((values, masses), frozen[:2]), None)


class TestWindowed:
    """The window read `_windowed` is None or the exact pair, bit for bit."""

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.integers(WINDOW_FLOOR, 3 * WINDOW_FLOOR),
        st.sampled_from([2, 5, 24, 300, None]),
        st.integers(0, 300),  # frozen rows
        st.floats(0.001, 0.999),
    )
    def test_none_or_the_exact_pair(self, seed, n, distinct, n_frozen, alpha):
        rng = np.random.default_rng(seed)
        values, masses = level(rng, n, distinct)
        frozen = frozen_rows(rng, values, n_frozen)
        got = windowed(frozen, values, masses, alpha)
        if got is not None:
            assert hexes(got) == hexes(exact_pair(frozen, values, masses, alpha))

    @pytest.mark.parametrize("distinct", [24, None])
    def test_a_large_level_is_answered(self, distinct, windowed_answers):
        rng = np.random.default_rng(3)
        values, masses = level(rng, 100_000, distinct)
        # frozen rows inside the level's range, so that it holds both crossings
        frozen = rng.uniform(-1.0, 1.0, 50), np.full(50, 0.002), rng.random(50) < 0.5
        for alpha in (0.01, 0.3, 0.999):
            got = level_quantiles(frozen_store(frozen), values, masses, alpha)
            assert got == exact_pair(frozen, values, masses, alpha)
        assert windowed_answers == [True] * 3

    @pytest.mark.parametrize("distinct", [24, None])
    def test_a_window_reads_a_large_frozen_chunk_in_place(self, distinct, windowed_answers):
        rng = np.random.default_rng(4)
        values, masses = level(rng, 100_000, distinct, 0.3)
        # frozen rows over the level's values (tied with them for 24), and
        # some mostly outside them; half of them eligible
        parts = [level(rng, 20_000, spread, total)
                 for spread, total in ((distinct, 0.25), (distinct, 0.25), (300, 0.2))]
        frozen = (*map(np.concatenate, zip(*parts)), rng.random(60_000) < 0.5)
        alphas = np.linspace(0.2, 0.8, 7)  # past the frozen mass outside the level's range
        for alpha in alphas:
            got = level_quantiles(frozen_store(frozen), values, masses, alpha)
            assert hexes(got) == hexes(exact_pair(frozen, values, masses, alpha))
        assert windowed_answers == [True] * len(alphas)

    # masses of 2^-12 and a frozen row on either side: a head meets 1/2 or
    # 1/2 + 2^-13 exactly, and alpha 1e-13 away from it on either side is
    # within the sums' error bound, so the heads near it are summed exactly
    @pytest.mark.parametrize("below, above, head", [(1 / 8, 2 ** -13, 0.5),
                                                    (2 ** -13, 1 / 8, 0.5 + 2 ** -13)])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_a_sum_within_the_error_bound_is_summed_exactly(self, below, above, head, side,
                                                            monkeypatch):
        values, masses = np.arange(4096.0), np.full(4096, 2.0 ** -12)
        frozen = np.array([-1.0, 5000.0]), np.array([below, above]), np.zeros(2, dtype=bool)
        settled, settle = [], wquantile._settle
        monkeypatch.setattr(wquantile, "_settle", lambda *a: settled.append(1) or settle(*a))
        alpha = head + side * 1e-13
        got = windowed(frozen, values, masses, alpha)
        assert got == exact_pair(frozen, values, masses, alpha) and got[0] == got[1]
        assert settled == [1]
        # at alpha on the head, the forms differ: a flat CDF
        got = windowed(frozen, values, masses, head)
        assert got == exact_pair(frozen, values, masses, head)
        assert got[1] == got[0] - 1.0 and settled == [1, 1]
        # with the sums clear of the bound, the filter alone decides
        for alpha in (0.5 - 2 ** -14, 0.5 + 2 ** -14):
            assert windowed(frozen, values, masses, alpha) == \
                exact_pair(frozen, values, masses, alpha)
        assert settled == [1, 1]

    def test_a_crossing_at_the_windows_end(self, windowed_answers):
        # masses of 2^-13 between ineligible frozen masses 1/4 on either side:
        # the window of the last two bins ends at the head 3/4, within the
        # sums' error bound of these alphas and summed exactly.  Below it the
        # crossing is the window's last value; at or past it, the crossing is
        # the frozen value above the window, which declines
        values, masses = np.arange(4096.0), np.full(4096, 2.0 ** -13)
        frozen = np.array([-1.0, 5000.0]), np.array([0.25, 0.25]), np.zeros(2, dtype=bool)
        for alpha in (0.75 - 1e-13, 0.75, 0.75 + 1e-13):
            got = level_quantiles(frozen_store(frozen), values, masses, alpha)
            assert got == exact_pair(frozen, values, masses, alpha) == (4095.0, 4095.0)
        assert windowed_answers == [True, False, False]

    def test_none_below_the_floor_and_on_a_range_it_cannot_bin(self, windowed_answers):
        values, masses = np.arange(4095.0), np.full(4095, 1 / 4095)
        assert level_quantiles(frozen_store(NO_ROWS), values, masses, 0.5) == \
            exact_pair(NO_ROWS, values, masses, 0.5)
        assert windowed_answers == []  # below the floor, no window is tried
        masses = np.full(5000, 2e-4)
        # one value, and a width past the float range or below it; none may warn
        for values in (np.ones(5000), np.repeat([-1e308, 1e308], 2500),
                       np.repeat([0.0, 5e-324], 2500)):
            assert level_quantiles(frozen_store(NO_ROWS), values, masses, 0.5) == \
                exact_pair(NO_ROWS, values, masses, 0.5)
        assert windowed_answers == [False] * 3
