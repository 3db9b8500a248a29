"""The array subdivision engine against per-cell oracles built from oracles.py.

The oracles redo each level with exact digit tuples: `children_by_offset` for
children, `center_point` for centers and, for the unknown-constant
algorithm, a per-cell loop with a center memo (`canonical_center_key`)
that walks the cells in the engine's order.
"""

import ast
import math
from fractions import Fraction

import numpy as np
import pytest

import lipquant as lq
from lipquant import wquantile
from lipquant.cli import ConfigError, ExperimentConfig
from lipquant.grid import center_child_digits, half_radius
from lipquant.known import K_MAX, Frontier, run_known
from lipquant.unknown import run_unknown
from lipquant.wquantile import ValueMassTable

from conftest import random_lipschitz_problem, summary_off
from oracles import (
    canonical_center_key,
    candidate_budget,
    center_point,
    child_digits,
    children_by_offset,
    frontier_sets,
    frozen_parts,
    funded_candidates,
    weighted_quantile_sup,
)

CASES = [(1, 300), (2, 2000), (3, 5000)]


def recorded(f):
    """f, plus the list of the point arrays it was called with."""
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        return f(x)

    return g, calls


def assert_distinct_points(calls):
    points = np.concatenate(calls)
    assert len(np.unique(points, axis=0)) == len(points)
    return len(points)


def joined(parts):
    """One (values, masses, eligible) chunk of the rows of `parts`, in order."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def every_row(fr):
    """Every row of the frontier `fr`'s table as one (values, masses,
    eligible) chunk: its level's, all eligible, then its frozen rows."""
    level = fr.values, fr.masses, np.ones(len(fr.values), dtype=bool)
    return joined([level, *frozen_parts(fr.frozen)])


def measure_for(dim):
    return lq.product_measure(
        [lq.truncated_normal_marginal(0.3, 0.25)] + [lq.uniform_marginal()] * (dim - 1)
    )


def reference_unknown(f, measure, alpha, budget, max_level, walk=False):
    """run_unknown as a per-cell loop over tuple cells with a center memo.

    `cells` is the frontier in the engine's order: the children of every cell
    that a live band keeps, child-major (`children_by_offset`).  A cell
    that no live band keeps leaves it with its own mass, as an eligible
    frozen point if a retired band holds it.  With `walk` such a held cell
    instead goes on as its center child (which shares its center), after the
    kept cells' children, and its other children freeze at its value: in
    exact arithmetic the same table, since merged on that value they form
    one eligible point with the cell's mass.
    """
    d = measure.dim
    n_kids = 3 ** d
    cells = [(0,) * d]
    sets = {j: cells for j in funded_candidates(budget)}
    ledgers = dict.fromkeys(sets, 1)
    live = list(sets)
    retired: dict[int, int] = {}
    cache: dict = {}
    frozen: list[tuple[float, float, bool]] = []  # (value, mass, eligible)
    frozen_mass = 0.0  # running total, one row-order sum per level, as the engine keeps it
    levels = []  # (estimate, active mass, frozen mass), summed in table order
    frontiers = []  # the cells of each level
    tables = []  # the merged table of each level: its cells and the frozen points
    k = 0
    while True:
        keys = [canonical_center_key(k, c) for c in cells]
        missing = sorted(set(keys) - set(cache))
        if missing:
            cache.update(zip(missing, f(np.array([center_point(*key) for key in missing]))))
        values = np.array([cache[key] for key in keys])
        masses = measure.cell_probabilities(k, cells)
        rows = (np.concatenate([values, [v for v, _, _ in frozen]]),
                np.concatenate([masses, [m for _, m, _ in frozen]]),
                [True] * len(cells) + [e for _, _, e in frozen])
        estimate = weighted_quantile_sup(*rows, alpha)
        levels.append((estimate, float(np.sum(masses)), frozen_mass))
        frontiers.append(cells)
        tables.append(ValueMassTable(*rows))
        if k >= max_level:
            break
        value_of = dict(zip(cells, values))
        mass_of = dict(zip(cells, masses))
        delta = half_radius(k, d)
        nxt = {}
        full = set()  # cells that a band still live after this level keeps
        for j in list(live):
            kept = [c for c in sets[j] if abs(value_of[c] - estimate) <= 2.0 * 3.0 ** j * delta]
            ledgers[j] += (n_kids - 1) * len(kept)
            if ledgers[j] > candidate_budget(j, budget):
                live.remove(j)
                retired[j] = k
            else:
                nxt[j] = children_by_offset(kept)
                full.update(kept)
        for j in sets:
            nxt.setdefault(j, [center_child_digits(c) for c in sets[j] if walk or c in full])
        if not live:
            break
        held = set().union(*(sets[j] for j in retired))
        next_cells = children_by_offset([c for c in cells if c in full])
        next_cells += [center_child_digits(c) for c in cells if walk and c not in full and c in held]
        next_union = set(next_cells)
        assert len(next_union) == len(next_cells)
        assert next_union == set().union(*nxt.values())
        leaving = []  # the mass each cell leaves, in frontier order
        for c in cells:
            if c in full:
                continue
            if walk and c in held:
                gone = [kid for kid in child_digits(c) if kid != center_child_digits(c)]
                gone_masses = measure.cell_probabilities(k + 1, gone)
                frozen.extend((value_of[c], m, False) for m in gone_masses)
                leaving.append(float(np.sum(gone_masses)))
            else:
                frozen.append((value_of[c], mass_of[c], c in held))
                leaving.append(mass_of[c])
        if leaving:
            frozen_mass += float(np.sum(leaving))
        sets, cells = nxt, next_cells
        k += 1
    return levels, ledgers, retired, len(cache), frontiers, tables


# a one-band level is pruned in chunks of rows, and a level of at least
# `WINDOW_FLOOR` rows is binned by `_windowed` in chunks of rows: chunks of 7
# rows, not a multiple of 3^d, split the children of some parents across the
# chunk edges, and with the floor lowered to 28 rows the window reads each
# level of 28 rows or more, which five of the six runs reach
CHUNKS = [wquantile.CHUNK, 7]
WINDOW_FLOORS = {wquantile.CHUNK: wquantile.WINDOW_FLOOR, 7: 28}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim,budget", CASES)
def test_known_frontier_matches_oracle(dim, budget, chunk, monkeypatch):
    monkeypatch.setattr(wquantile, "CHUNK", chunk)
    monkeypatch.setattr(wquantile, "WINDOW_FLOOR", WINDOW_FLOORS[chunk])
    f, lip = random_lipschitz_problem(np.random.default_rng(dim), dim)
    g, calls = recorded(f)
    m = measure_for(dim)
    run = run_known(g, lip, m, 0.8, budget)
    assert run.stop_reason == "budget"
    assert len(run.history) >= 3
    sets = frontier_sets(f, lip, m, 0.8, budget)
    assert len(sets) == len(run.history)
    frozen = ([], [])  # the values and masses of the cells that left, all ineligible
    for rec, cells, nxt in zip(run.history, sets, sets[1:] + [None]):
        values = f(np.array([center_point(rec.level, c) for c in cells]))
        masses = m.cell_probabilities(rec.level, cells)
        eligible = [True] * len(cells) + [False] * len(frozen[0])
        assert rec.estimate == weighted_quantile_sup([*values, *frozen[0]], [*masses, *frozen[1]],
                                                     eligible, 0.8)
        if nxt is None:
            break
        band = 2.0 * lip * half_radius(rec.level, dim)
        survivors = [c for c, v in zip(cells, values) if abs(v - rec.estimate) <= band]
        assert nxt == children_by_offset(survivors)
        kept = set(survivors)
        for v, mass, c in zip(values, masses, cells):
            if c not in kept:
                frozen[0].append(v)
                frozen[1].append(mass)
    assert len(calls) == len(run.history)  # one call per level
    assert assert_distinct_points(calls) == run.bracket.evaluations


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim,budget", CASES)
def test_unknown_frontier_matches_oracle(dim, budget, chunk, monkeypatch):
    # the last levels of each run have one live band, so they are pruned in
    # chunks of rows, and the levels past the floor are read through the window
    monkeypatch.setattr(wquantile, "CHUNK", chunk)
    monkeypatch.setattr(wquantile, "WINDOW_FLOOR", WINDOW_FLOORS[chunk])
    f, _ = random_lipschitz_problem(np.random.default_rng(10 + dim), dim)
    g, calls = recorded(f)
    m = measure_for(dim)
    max_level = 12 // dim
    run = run_unknown(g, m, 0.8, budget, max_level=max_level)
    levels, ledgers, retired, evaluations, *_ = reference_unknown(f, m, 0.8, budget, max_level)
    # exact sums pin the frontier to the engine's order, as in the loop
    assert [(r.estimate, r.active_mass, r.frozen_mass) for r in run.history] == levels
    assert run.ledgers == ledgers
    assert run.retirement_level == retired
    # candidates retire at different levels, so cells that only retired
    # bands hold leave the frontier while live bands still refine
    assert len(set(retired.values())) > 1
    assert assert_distinct_points(calls) == run.evaluations == evaluations


@pytest.mark.parametrize("dim,budget", CASES)
def test_settled_cells_change_no_estimate(dim, budget):
    # the walk keeps each cell that only retired bands hold in the frontier
    # as its center child; leaving it once as an eligible frozen point gives
    # the same estimate at every level
    f, _ = random_lipschitz_problem(np.random.default_rng(10 + dim), dim)
    m = measure_for(dim)
    max_level = 12 // dim
    run = run_unknown(f, m, 0.8, budget, max_level=max_level)
    levels, ledgers, retired, evaluations, frontiers, _ = reference_unknown(
        f, m, 0.8, budget, max_level, walk=True)
    assert [r.estimate for r in run.history] == [estimate for estimate, _, _ in levels]
    assert run.ledgers == ledgers
    assert run.retirement_level == retired
    assert run.evaluations == evaluations
    # the walk carries cells that the engine has settled
    assert any(len(cells) > r.active_cells for cells, r in zip(frontiers, run.history))


@pytest.mark.parametrize("dim,budget", CASES)
def test_frontier_and_frozen_points_match_the_oracle(dim, budget):
    # the digits are derived from the parents' at every level, the root's
    # included; merged on values, the level's rows and frozen points are the
    # oracle's table bit for bit, eligible where a retired band holds a cell,
    # also through the center child of a kept cell, whose value the level of
    # its band's retirement froze as an eligible point of mass 0
    f, _ = random_lipschitz_problem(np.random.default_rng(10 + dim), dim)
    m = measure_for(dim)
    max_level = 12 // dim
    *_, frontiers, tables = reference_unknown(f, m, 0.8, budget, max_level)
    bands = funded_candidates(budget)
    fr = Frontier(f, m, 0.8, [3.0 ** j for j in bands], [candidate_budget(j, budget) for j in bands])
    settled = 0  # levels with eligible frozen points
    parts = frozen_parts(fr.frozen)  # the frozen rows in the order they were frozen, as the oracle's
    for cells, ref in zip(frontiers, tables):
        assert list(map(tuple, fr.digits(np.ones(len(fr.values), dtype=bool)).tolist())) == cells
        fv, fm, fe = joined(parts)
        got = ValueMassTable(np.concatenate((fr.values, fv)), np.concatenate((fr.masses, fm)),
                             np.concatenate((np.ones(len(fr.values), dtype=bool), fe)))
        for column in ("values", "masses", "eligible"):
            assert getattr(got, column).tobytes() == getattr(ref, column).tobytes()
        settled += bool(fe.any())
        if fr.level == len(frontiers) - 1:
            break
        eligible, *sides = frozen_parts(fr.frozen)
        n_eligible, n_sides = len(eligible[0]), len(sides)
        assert fr.step()
        # a step freezes the rows that leave into one side chunk, or every
        # row of a retirement level into the eligible chunk
        eligible, *sides = frozen_parts(fr.frozen)
        parts += sides[n_sides:]
        parts.append(tuple(column[n_eligible:] for column in eligible))
        # the invariant that lets a one-band level skip the lowest bands
        assert fr.lowest.max(initial=0) <= fr.live_bands[-1]
    assert fr.level == len(frontiers) - 1
    assert settled > 0


@pytest.mark.parametrize("seed, budget", [(13, 50), (169, 400), (547, 120)])
def test_a_retired_bands_value_stays_a_candidate(seed, budget):
    # in these runs (all d = 2) a live band keeps rows that a retiring band
    # holds, and later prunes their center children: each such value stays
    # eligible through the point of mass 0 that the retirement level froze
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 3
    f, _ = random_lipschitz_problem(rng, dim)
    m = lq.product_measure([lq.truncated_normal_marginal(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.5))
                            for _ in range(dim)])
    alpha = rng.uniform(0.05, 0.95)
    run = run_unknown(f, m, alpha, budget)
    levels, *_ = reference_unknown(f, m, alpha, budget, run.level)
    assert [r.estimate for r in run.history] == [estimate for estimate, _, _ in levels]


@pytest.mark.parametrize("budget", [50, 2000])
def test_bands_retire_from_the_top(budget):
    # the bands' sets are nested and their slices shrink as j grows, so a
    # wider band's ledger is never below a narrower one's: the live bands
    # are 0..n_live-1, and a wider band retires no later than a narrower one
    runs = [run_unknown(p.f, p.measure, p.alpha, budget)
            for p in (lq.paper_f_d1(), lq.paper_f_d2(), lq.linear_d1())]
    for seed in range(12):
        f, _ = random_lipschitz_problem(np.random.default_rng(seed), 1 + seed % 3)
        runs.append(run_unknown(f, measure_for(1 + seed % 3), 0.8, budget))
    for run in runs:
        assert all(r.live == tuple(range(len(r.live))) for r in run.history)
        n_bands, retired = len(run.ledgers), run.retirement_level
        assert sorted(retired) == list(range(n_bands - len(retired), n_bands))
        assert all(retired[j] >= retired[j + 1] for j in range(n_bands - len(retired), n_bands - 1))


def test_windowed_quantiles_answer_the_deep_levels(windowed_answers, monkeypatch):
    # levels 9 to 12 of this run hold 10,566 to 356,490 rows, above the
    # floor, and only they try the window
    p = lq.paper_f_d2()
    run = run_known(p.f, p.lipschitz, p.measure, p.alpha, 10 ** 6)
    assert [r.level for r in run.history] == list(range(13))
    assert windowed_answers == [True] * 4
    # the full table of every level gives the same run, bit for bit
    monkeypatch.setattr(wquantile, "_windowed", lambda *args: None)
    full = run_known(p.f, p.lipschitz, p.measure, p.alpha, 10 ** 6)
    assert [r.estimate.hex() for r in run.history] == [r.estimate.hex() for r in full.history]
    assert run.history == full.history


def test_windows_read_the_frozen_rows_in_place(windowed_answers, monkeypatch):
    # levels 8 to 10 of this run are read from windows, beside 6,726 to
    # 19,935 frozen rows, 3,304 to 11,242 of them eligible, in the order
    # they were frozen; the eligible ones include the points of mass 0 that
    # the retirement levels froze for the rows they kept, and the windows
    # read the ineligible ones as two summary rows
    p, eligible = lq.paper_f_d2(), []
    counted = wquantile._windowed

    def spy(parts, *args):
        eligible.append(sum(int(part[2].sum()) for part in parts))
        return counted(parts, *args)

    monkeypatch.setattr(wquantile, "_windowed", spy)
    run = run_unknown(p.f, p.measure, p.alpha, 10 ** 5)
    assert windowed_answers == [True] * 3
    assert eligible == [3304, 11242, 11242]
    # the full table of every level gives the same run, bit for bit
    monkeypatch.setattr(wquantile, "_windowed", lambda *args: None)
    full = run_unknown(p.f, p.measure, p.alpha, 10 ** 5)
    assert [r.estimate.hex() for r in run.history] == [r.estimate.hex() for r in full.history]
    assert (run.history, run.ledgers, run.retirement_level) == \
        (full.history, full.ledgers, full.retirement_level)


@pytest.mark.parametrize("alpha, rows", [(0.99, 105_948), (0.999, 100_512)])
def test_tie_free_levels_are_read_from_windows(alpha, rows, windowed_answers, monkeypatch):
    # f = x1 + phi*x2 ties no two centers; its quantile is exact for
    # alpha >= 1 - 1/(2*phi).  Every window answers, the last one beside a
    # third as many frozen rows (read as two summary rows), though a cell's
    # mass there is below the sums' error bound: the heads within it are
    # summed exactly, over every row
    phi = (1 + math.sqrt(5)) / 2
    q = 1 + phi - math.sqrt(2 * phi * (1 - alpha))

    def run():
        return run_known(lambda x: x[:, 0] + phi * x[:, 1], math.sqrt(1 + phi ** 2),
                         lq.uniform_cube(2), alpha, 3 * 10 ** 5)

    windowed = run()
    assert windowed.history[-1].active_cells == rows
    assert windowed_answers == [True, True, True]
    for r in windowed.history:
        b = windowed.bracket_for_budget(r.evaluations)
        assert b.level == r.level and b.lower <= q <= b.upper
    monkeypatch.setattr(wquantile, "_windowed", lambda *args: None)
    assert run().history == windowed.history


def outcome(run):
    """Everything a run gives, the exception it raises included, with each
    estimate as its hex string."""
    try:
        r = run()
    except (ArithmeticError, AssertionError, ValueError) as e:
        return type(e), str(e)
    return ([r.estimate.hex() for r in r.history], r.history, r.ledgers, r.retirement_level,
            r.stop_reason)


@pytest.mark.parametrize("algo, budget, levels", [("known", 10 ** 6, 11), ("unknown", 10 ** 5, 6)])
def test_summarized_levels_match_the_full_read_on_paper_d2(algo, budget, levels,
                                                            summarized_answers, monkeypatch):
    # every level with ineligible frozen rows is read with them as two
    # summary rows; reading every frozen row instead gives the same run
    p = lq.paper_f_d2()

    def run():
        if algo == "known":
            return run_known(p.f, p.lipschitz, p.measure, p.alpha, budget)
        return run_unknown(p.f, p.measure, p.alpha, budget)

    summarized = outcome(run)
    assert summarized_answers == [True] * levels
    summary_off(monkeypatch)
    assert outcome(run) == summarized


@pytest.mark.parametrize("seed", range(9))
def test_summarized_levels_match_the_full_read_on_random_problems(seed, summarized_answers,
                                                                  monkeypatch):
    # the known constant, constants that the data may refute, and the
    # candidates of an unknown one, under truncated normal laws
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 3
    f, lip = random_lipschitz_problem(rng, dim)
    m = lq.product_measure([lq.truncated_normal_marginal(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.5))
                            for _ in range(dim)])
    alpha, budget = rng.uniform(0.05, 0.95), (2000, 5000, 20000)[dim - 1]
    runs = [lambda c=c: run_known(f, c * lip, m, alpha, budget) for c in (1.0, 0.2, 0.05)]
    runs.append(lambda: run_unknown(f, m, alpha, budget))
    summarized = [outcome(run) for run in runs]
    assert summarized_answers and any(summarized_answers)
    summary_off(monkeypatch)
    assert [outcome(run) for run in runs] == summarized


def test_a_summary_that_cannot_answer_falls_back_to_every_row(summarized_answers):
    # f = 1000 + x under the uniform law: from level 27 on, its values are
    # coarser than its cells, and at some levels a crossing lies at or past
    # the greatest value that left below an estimate, outside the span the
    # summary can read; those levels are read from every row
    m, f = lq.uniform_cube(1), lambda x: 1000.0 + x[:, 0]
    fell_back = 0
    for alpha in np.random.default_rng(0).uniform(0.01, 0.99, 100).tolist():
        summarized_answers.clear()
        run = run_known(f, 1.0, m, alpha, 10 ** 4)
        if all(summarized_answers):
            continue
        fell_back += 1
        fr, want = Frontier(f, m, alpha, [1.0], [10 ** 4]), []
        while True:
            want.append(weighted_quantile_sup(*every_row(fr), alpha))
            if fr.level >= K_MAX or not fr.step():
                break
        assert [r.estimate.hex() for r in run.history] == [x.hex() for x in want]
    assert fell_back == 14


def test_every_level_of_a_deep_d1_run_is_the_exact_quantile():
    # f = x at alpha 0.3 reaches level 32, where a float cumulative sum of
    # the table crossed alpha at 0x1.333333333333fp-2, the table's next value
    # past the crossing of the exact sums
    p, m = lq.linear_d1(0.3), lq.uniform_cube(1)
    run = run_known(p.f, 1.0, m, 0.3, 10 ** 4)
    fr, want = Frontier(p.f, m, 0.3, [1.0], [10 ** 4]), []
    while True:
        want.append(weighted_quantile_sup(*every_row(fr), 0.3))
        if fr.level >= K_MAX or not fr.step():
            break
    assert run.level == K_MAX == len(want) - 1
    assert [r.estimate.hex() for r in run.history] == [x.hex() for x in want]
    assert run.estimate.hex() == "0x1.3333333333335p-2"


def test_empty_frontier_goes_on_without_f():
    # band 0 stays live but keeps no cell after level 3: the frontier is
    # empty at level 4, whose estimate the frozen table alone gives, and no
    # later level could differ, so the run stops there as settled
    rng = np.random.default_rng(1093)
    f, _ = random_lipschitz_problem(rng, 1)
    m = lq.product_measure([lq.truncated_normal_marginal(rng.uniform(0.1, 0.9),
                                                         rng.uniform(0.05, 0.4))])
    alpha = rng.uniform(0.05, 0.95)
    g, calls = recorded(f)
    run = run_unknown(g, m, alpha, 50)
    assert run.stop_reason == "settled"
    assert run.level == 4
    assert [len(c) for c in calls] == [1, 2, 4, 2]
    assert run.evaluations == 9
    assert [r.active_cells for r in run.history[4:]] == [0]
    assert {r.live for r in run.history[4:]} == {(0,)}
    assert {r.estimate for r in run.history[3:]} == {run.estimate}
    _, ledgers, retired, evaluations, *_ = reference_unknown(f, m, alpha, 50, K_MAX, walk=True)
    assert run.ledgers == ledgers
    assert run.retirement_level == retired
    assert run.evaluations == evaluations


def test_precision_floor():
    # f(x) = x refines only the cells next to the median, so the budget alone
    # would carry the run to level 339, far past float64 resolution
    p = lq.linear_d1(0.5)
    g, calls = recorded(p.f)
    run = run_known(g, p.lipschitz, p.measure, p.alpha, 10 ** 5)
    assert run.stop_reason == "precision"
    assert run.bracket.level == K_MAX
    assert run.bracket.lower <= 0.5 <= run.bracket.upper
    assert assert_distinct_points(calls) == run.bracket.evaluations
    g, calls = recorded(p.f)
    run = run_unknown(g, p.measure, p.alpha, 10 ** 5)
    assert run.stop_reason == "precision"
    assert run.level == K_MAX
    assert assert_distinct_points(calls) == run.evaluations


def test_deep_tail_masses_keep_sup_equal_inf():
    # at level 32 the masses of paper_d1's cells near x = 1 were cdf
    # differences rounded to 0 or one ulp of 1, and the run raised "sup/inf
    # estimator mismatch at level 32" (1.350338690032967 vs 1.350342377166704)
    p = lq.paper_f_d1()
    run = run_unknown(p.f, p.measure, p.alpha, 2 * 10 ** 4)
    assert run.stop_reason == "precision"
    assert run.level == K_MAX
    for r in run.history:
        assert r.active_mass + r.frozen_mass == pytest.approx(1.0, abs=1e-12)


def test_stop_reasons(paper_d2):
    args = (paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha)
    assert run_known(*args, 1000).stop_reason == "budget"
    assert run_known(*args, 10 ** 9, max_level=3).stop_reason == "max_level"
    assert run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, 1000,
                       max_level=2).stop_reason == "max_level"


@pytest.mark.parametrize("budget", [np.inf, np.nan, 2.5])
def test_budget_must_be_a_whole_number(paper_d2, budget):
    # inf raised OverflowError, NaN numpy's "cannot convert float NaN to
    # integer", and run_unknown ran 2.5 as a budget with one candidate
    with pytest.raises(ValueError, match=r"budget must be a whole number >= 1, got"):
        run_known(paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, budget)
    with pytest.raises(ValueError, match=r"budget must be a whole number >= 2, got"):
        run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, budget)


def test_negative_max_level_is_refused(paper_d2):
    # it returned a one-level run that stopped at "max_level"
    with pytest.raises(ValueError, match=r"max_level must be >= 0, got -1"):
        run_known(paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 1000,
                  max_level=-1)
    with pytest.raises(ValueError, match=r"max_level must be >= 0, got -1"):
        run_unknown(paper_d2.f, paper_d2.measure, paper_d2.alpha, 1000, max_level=-1)


def never(x):
    raise AssertionError("f called before the inputs were checked")


# a bool is a numbers.Integral; each of these was accepted, e.g. a run with
# lipschitz True, a budget of one call or a 1-d cube
@pytest.mark.parametrize("make, message", [
    (lambda: run_known(never, True, lq.uniform_cube(2), 0.5, 100), "lipschitz must be finite"),
    (lambda: run_known(never, 2.0, lq.uniform_cube(2), 0.5, True), "budget must be a whole number"),
    (lambda: run_known(never, 2.0, lq.uniform_cube(2), 0.5, 100, max_level=True), "max_level must"),
    (lambda: run_unknown(never, lq.uniform_cube(2), 0.5, 100, max_level=True), "max_level must"),
    (lambda: lq.uniform_cube(True), "dim must be an integer >= 1"),
    (lambda: lq.ProblemConstants(True, 1.0, 1.0, 0.5), "dim must be an integer >= 1"),
    (lambda: lq.ProblemConstants(2, True, 1.0, 0.5), "lipschitz must be finite"),
    (lambda: ExperimentConfig(problem="paper_d2", seed=True), "seed must be an integer >= 0"),
    (lambda: ExperimentConfig(problem="paper_d2", budgets=[True, 5]), "budget True: budget must"),
    (lambda: ExperimentConfig(problem="paper_d2", lipschitz=True), "lipschitz must be finite"),
], ids=["lipschitz", "budget", "max_level", "unknown-max_level", "uniform_cube", "constants-dim",
        "constants-lipschitz", "config-seed", "config-budgets", "config-lipschitz"])
def test_a_bool_is_not_a_number(make, message):
    with pytest.raises((ValueError, ConfigError), match=f"^{message}"):
        make()


@pytest.mark.parametrize("name, lipschitz, measure, alpha, max_level, budget", [
    ("lipschitz", "2", lq.uniform_cube(2), 0.5, None, 100),  # a TypeError from np.isfinite
    ("alpha", 2.0, lq.uniform_cube(2), "0.5", None, 100),  # a TypeError from <
    ("measure", 2.0, None, 0.5, None, 100),  # an AttributeError on .dim
    ("max_level", 2.0, lq.uniform_cube(2), 0.5, "3", 100),  # a TypeError from <
    ("max_level", 2.0, lq.uniform_cube(2), 0.5, 2.5, 100),  # a run that stopped at level 3
    # ignored: the run went on to the budget
    ("max_level", 2.0, lq.uniform_cube(2), 0.5, np.nan, 100),
    # a TypeError from np.isfinite
    ("lipschitz", Fraction(-3, 2), lq.uniform_cube(2), 0.5, None, 100),
    # an OverflowError from math.isfinite
    ("lipschitz", 10 ** 400, lq.uniform_cube(2), 0.5, None, 100),
    # an OverflowError where the int64 budget slices were built
    ("budget", 2.0, lq.uniform_cube(2), 0.5, None, 10 ** 400),
    ("budget", 2.0, lq.uniform_cube(2), 0.5, None, 2 ** 63),
    ("budget", 2.0, lq.uniform_cube(2), 0.5, None, 1e300),
    # as a float, which the engine reads, it is 0.0
    ("alpha", 2.0, lq.uniform_cube(2), Fraction(1, 10 ** 400), None, 100),
], ids=["lipschitz-str", "alpha-str", "measure-none", "max_level-str", "max_level-2.5",
        "max_level-nan", "lipschitz-fraction", "lipschitz-huge-int", "budget-huge-int",
        "budget-2**63", "budget-1e300", "alpha-tiny-fraction"])
def test_bad_input_is_refused_by_name_before_f(name, lipschitz, measure, alpha, max_level,
                                               budget):
    with pytest.raises(ValueError, match=f"^{name} must "):
        run_known(never, lipschitz, measure, alpha, budget, max_level)
    if name != "lipschitz":
        with pytest.raises(ValueError, match=f"^{name} must "):
            run_unknown(never, measure, alpha, budget, max_level)


def test_numpy_scalars_are_real_inputs(paper_d2):
    p = paper_d2
    want = run_known(p.f, float(p.lipschitz), p.measure, 0.5, 1000).estimate
    assert run_known(p.f, np.float64(p.lipschitz), p.measure, np.float64(0.5),
                     np.int64(1000)).estimate == want
    assert run_known(p.f, np.int64(2), p.measure, 0.5, 1000).stop_reason == "budget"
    want = run_unknown(p.f, p.measure, 0.5, 1000).estimate
    assert run_unknown(p.f, p.measure, np.float64(0.5), 1000).estimate == want


def test_fractions_are_real_inputs(paper_d2):
    # np.isfinite raised a TypeError on a Fraction
    p = paper_d2
    want = run_known(p.f, 1.5, p.measure, 0.5, 1000).bracket
    assert run_known(p.f, Fraction(3, 2), p.measure, Fraction(1, 2), 1000).bracket == want
    # the other checks of a finite real took it already
    lq.ProblemConstants(2, Fraction(3, 2), Fraction(1), Fraction(1, 2))
    ExperimentConfig(problem="paper_d2", alpha=Fraction(1, 2), lipschitz=Fraction(3, 2))


def test_a_fraction_alpha_is_read_as_a_float(paper_d2, monkeypatch):
    # the quantile tables compared their sums with the Fraction itself,
    # through object arrays, at about 1.3 times the time of a float alpha
    p, seen = paper_d2, []

    read = wquantile.level_quantiles

    def spy(frozen, values, masses, alpha):
        seen.append(type(alpha))
        return read(frozen, values, masses, alpha)

    want = run_known(p.f, p.lipschitz, p.measure, 0.5, 10 ** 5)
    monkeypatch.setattr(wquantile, "level_quantiles", spy)
    got = run_known(p.f, p.lipschitz, p.measure, Fraction(1, 2), 10 ** 5)
    assert got.history == want.history and got.bracket == want.bracket
    assert seen and set(seen) == {float}


# the reduced k/3^j, j <= 4: on paper_d2 a level's cumulative mass meets 20
# of them exactly, where the run raised "sup/inf estimator mismatch at level
# 1: 1.0 vs 0.6666666666666666" (alpha 1/3)
FLAT_ALPHAS = [k / 3 ** j for j in range(1, 5) for k in range(1, 3 ** j) if k % 3]


def test_a_flat_level_cdf_is_not_a_mismatch():
    # both forms are then quantiles of the table, the table holds no mass
    # between them, and the estimate is the sup form
    assert len(FLAT_ALPHAS) == 80
    for alpha in FLAT_ALPHAS:
        p = lq.paper_f_d2(alpha)
        run = run_known(p.f, p.lipschitz, p.measure, alpha, 10 ** 4)
        for r in run.history:
            b = run.bracket_for_budget(r.evaluations)
            assert b.lower <= p.true_quantile <= b.upper, (alpha, r.level)
        run_unknown(p.f, p.measure, alpha, 10 ** 4)


def test_a_crossing_on_a_pruned_point_is_a_mismatch():
    # with 5% of the constant of sin(5x), the cell of the quantile is pruned
    # at level 1, and at level 2 the crossing falls on its frozen value,
    # which is not eligible: mass lies between the two forms
    with pytest.raises(AssertionError, match="sup/inf estimator mismatch at level 2: "):
        run_known(lambda x: np.sin(5.0 * x[:, 0]), 0.25, lq.uniform_cube(1), 0.7, 1000)


def test_f_returning_nan_is_refused(paper_d2):
    # NaN used to be frozen silently: a "certified" bracket at level 32 with
    # stop reason "precision"
    def f(x):
        return np.where(x.max(axis=1) > 0.9, np.nan, paper_d2.f(x))

    for run in (lambda: run_known(f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 10 ** 5),
                lambda: run_unknown(f, paper_d2.measure, paper_d2.alpha, 10 ** 5)):
        with pytest.raises(ValueError, match=r"finite, got nan at the point \[") as exc:
            run()
        point = ast.literal_eval(str(exc.value).split("at the point ")[1])
        assert len(point) == 2 and max(point) > 0.9


def test_f_returning_wrong_shape_is_refused(paper_d2):
    # an (n, 1) column used to surface as numpy's concatenate dimension error
    def f(x):
        return paper_d2.f(x)[:, None]

    with pytest.raises(ValueError, match=r"shape \(1,\), got shape \(1, 1\)"):
        run_known(f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 1000)
    with pytest.raises(ValueError, match=r"shape \(1,\), got shape \(1, 1\)"):
        run_unknown(f, paper_d2.measure, paper_d2.alpha, 1000)


def test_f_returning_complex_values_is_refused(paper_d2):
    # the imaginary part was dropped with a ComplexWarning, and the bracket
    # certified the real part
    def f(x):
        return x[:, 0] + 1j * x[:, 1]

    def g(x):  # real on the root, complex on level 1
        values = paper_d2.f(x)
        return values + 1j * (x[:, 0] > 0.8) if len(x) > 1 else values

    for h, value, point in ((f, "(0.5+0.5j)", "[0.5, 0.5]"),
                            (g, "(1+1j)", "[0.8333333333333334, 0.16666666666666666]")):
        for run in (lambda: run_known(h, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 1000),
                    lambda: run_unknown(h, paper_d2.measure, paper_d2.alpha, 1000)):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == f"f must be real and finite, got {value} at the point {point}"
    # a complex array whose imaginary parts are all 0 holds real values
    args = (paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 1000)
    assert (run_known(lambda x: paper_d2.f(x) + 0j, *args).history
            == run_known(paper_d2.f, *args).history)


@pytest.mark.parametrize("dim,budget", CASES)
def test_f_gets_fresh_arrays_it_may_overwrite(dim, budget):
    # the centers are written in place into one array per level: f must get
    # a C-contiguous float64 (n, d) array that no earlier call got, and
    # scribbling over it must change nothing the run reports
    f, lip = random_lipschitz_problem(np.random.default_rng(20 + dim), dim)
    m = measure_for(dim)
    seen = []

    def scribbling(x):
        assert type(x) is np.ndarray and x.dtype == np.float64
        assert x.ndim == 2 and x.shape[1] == dim and x.flags.c_contiguous
        assert not any(np.shares_memory(x, y) for y in seen)
        seen.append(x)  # held, so that its memory cannot be handed out again
        values = f(x)
        x[:] = np.nan
        return values

    known = [run_known(g, lip, m, 0.8, budget) for g in (f, scribbling)]
    assert known[0].history == known[1].history
    assert known[0].bracket == known[1].bracket
    assert sum(map(len, seen)) == known[0].history[-1].evaluations
    seen.clear()
    sets = [frontier_sets(g, lip, m, 0.8, budget) for g in (f, scribbling)]
    assert sets[0] == sets[1]
    assert sum(map(len, seen)) == known[0].history[-1].evaluations
    seen.clear()
    unknown = [run_unknown(g, m, 0.8, budget, max_level=12 // dim) for g in (f, scribbling)]
    assert unknown[0] == unknown[1]
    assert sum(map(len, seen)) == unknown[0].evaluations


@pytest.mark.parametrize("dim,budget", [*CASES, (2, 10 ** 6)])
def test_f_gets_c_contiguous_float64_points(dim, budget):
    # under both algorithms every call of f gets a C-contiguous float64
    # (m, d) array, under the uniform law, so with NumPy alone.  The layout
    # is part of the outputs: handed the same points in an F-ordered buffer,
    # the f of the random problems, cos(x @ w + p), moved the estimates of 79
    # of the 957 parity-panel runs, as BLAS rounds x @ w by memory layout
    f, lip = random_lipschitz_problem(np.random.default_rng(dim), dim)
    m = lq.uniform_cube(dim)

    def checked(x):
        assert type(x) is np.ndarray and x.dtype == np.float64
        assert x.ndim == 2 and x.shape[1] == dim and x.flags.c_contiguous
        return f(x)

    run = run_known(checked, lip, m, 0.8, budget)
    run_unknown(checked, m, 0.8, budget)
    if budget == 10 ** 6:  # a level of several chunks of rows
        assert run.history[-1].active_cells > 3 * wquantile.CHUNK
