"""The array subdivision engine against per-cell oracles built from oracles.py.

The oracles redo each level with exact digit tuples: `child_digits` for
children, `center_point` for centers and, for the unknown-constant
algorithm, a per-cell loop with a center memo (`canonical_center_key`)
that walks the cells in the engine's order.
"""

import ast

import numpy as np
import pytest

import lipquant as lq
from lipquant.grid import center_child_digits, half_radius
from lipquant.known import K_MAX, Frontier, run_known
from lipquant.unknown import candidate_budget, j_max, run_unknown
from lipquant.wquantile import ValueMassTable, weighted_quantile_sup

from conftest import random_lipschitz_problem
from oracles import canonical_center_key, center_point, child_digits

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


def measure_for(dim):
    return lq.product_measure(
        [lq.truncated_normal_marginal(0.3, 0.25)] + [lq.uniform_marginal()] * (dim - 1)
    )


def reference_unknown(f, measure, alpha, budget, max_level):
    """run_unknown as a per-cell loop over tuple cells with a center memo.

    `cells` is the frontier in the engine's order: the children of every cell
    that a live band keeps, in parent and `itertools.product` order, then the
    center children of the cells that only retired bands hold.
    """
    d = measure.dim
    n_kids = 3 ** d
    cells = [(0,) * d]
    sets = {j: cells for j in range(j_max(budget) + 1)}
    ledgers = dict.fromkeys(sets, 1)
    live = list(sets)
    retired: dict[int, int] = {}
    cache: dict = {}
    frozen_values: list[float] = []
    frozen_masses: list[float] = []
    frozen_mass = 0.0  # running total, one row-order sum per level, as the engine keeps it
    levels = []  # (estimate, active mass, frozen mass), summed in table order
    frontiers = []  # the cells of each level
    k = 0
    while True:
        keys = [canonical_center_key(k, c) for c in cells]
        missing = sorted(set(keys) - set(cache))
        if missing:
            cache.update(zip(missing, f(np.array([center_point(*key) for key in missing]))))
        values = np.array([cache[key] for key in keys])
        masses = measure.cell_probabilities(k, cells)
        table = ValueMassTable(
            np.concatenate([values, frozen_values]),
            np.concatenate([masses, frozen_masses]),
            [True] * len(cells) + [False] * len(frozen_values),
        )
        estimate = weighted_quantile_sup(table, alpha)
        levels.append((estimate, float(np.sum(masses)), frozen_mass))
        frontiers.append(cells)
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
                nxt[j] = [kid for c in kept for kid in child_digits(c)]
                full.update(kept)
        for j in sets:
            nxt.setdefault(j, [center_child_digits(c) for c in sets[j]])
        if not live:
            break
        held = set().union(*(sets[j] for j in retired))
        next_cells = [kid for c in cells if c in full for kid in child_digits(c)]
        next_cells += [center_child_digits(c) for c in cells if c not in full and c in held]
        next_union = set(next_cells)
        assert len(next_union) == len(next_cells)
        assert next_union == set().union(*nxt.values())
        leaving = []  # the mass each cell leaves, in frontier order
        for c in cells:
            gone = [kid for kid in child_digits(c) if kid not in next_union]
            if len(gone) == n_kids:
                frozen_values.append(value_of[c])
                frozen_masses.append(mass_of[c])
                leaving.append(mass_of[c])
            elif gone:
                gone_masses = measure.cell_probabilities(k + 1, gone)
                frozen_values.extend([value_of[c]] * len(gone))
                frozen_masses.extend(gone_masses)
                leaving.append(float(np.sum(gone_masses)))
        if leaving:
            frozen_mass += float(np.sum(leaving))
        sets, cells = nxt, next_cells
        k += 1
    return levels, ledgers, retired, len(cache), frontiers


@pytest.mark.parametrize("dim,budget", CASES)
def test_known_frontier_matches_oracle(dim, budget):
    f, lip = random_lipschitz_problem(np.random.default_rng(dim), dim)
    g, calls = recorded(f)
    m = measure_for(dim)
    run = run_known(g, lip, m, 0.8, budget, keep_active_sets=True)
    assert run.stop_reason == "budget"
    assert len(run.history) >= 3
    for rec, cells, nxt in zip(run.history, run.active_sets, run.active_sets[1:]):
        values = f(np.array([center_point(rec.level, c) for c in cells]))
        band = 2.0 * lip * half_radius(rec.level, dim)
        survivors = [c for c, v in zip(cells, values) if abs(v - rec.estimate) <= band]
        assert nxt == [kid for c in survivors for kid in child_digits(c)]
    assert len(calls) == len(run.history)  # one call per level
    assert assert_distinct_points(calls) == run.bracket.evaluations


@pytest.mark.parametrize("dim,budget", CASES)
def test_unknown_frontier_matches_oracle(dim, budget):
    f, _ = random_lipschitz_problem(np.random.default_rng(10 + dim), dim)
    g, calls = recorded(f)
    m = measure_for(dim)
    max_level = 12 // dim
    run = run_unknown(g, m, 0.8, budget, max_level=max_level)
    levels, ledgers, retired, evaluations, _ = reference_unknown(f, m, 0.8, budget, max_level)
    # exact sums pin the frontier to the engine's order, as in the loop
    assert [(r.estimate, r.active_mass, r.frozen_mass) for r in run.history] == levels
    assert run.ledgers == ledgers
    assert run.retirement_level == retired
    # candidates retire at different levels, so retired bands advance by
    # center children while live ones still refine
    assert len(set(retired.values())) > 1
    assert assert_distinct_points(calls) == run.evaluations == evaluations


@pytest.mark.parametrize("dim,budget", CASES)
def test_frontier_digits_on_the_solo_path(dim, budget):
    # the digits are derived from the full rows' parents and the solo rows'
    # own; after a retirement both kinds of row share the frontier
    f, _ = random_lipschitz_problem(np.random.default_rng(10 + dim), dim)
    m = measure_for(dim)
    max_level = 12 // dim
    *_, frontiers = reference_unknown(f, m, 0.8, budget, max_level)
    bands = range(j_max(budget) + 1)
    fr = Frontier(f, m, 0.8, [3.0 ** j for j in bands], [candidate_budget(j, budget) for j in bands])
    mixed = 0  # levels with both full-block and solo rows
    for cells in frontiers:
        assert list(map(tuple, fr.digits().tolist())) == cells
        mixed += len(fr.block) > 0 and len(fr.solo) > 0
        if fr.level == len(frontiers) - 1:
            break
        assert fr.step()
    assert fr.level == len(frontiers) - 1
    assert mixed > 0


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
