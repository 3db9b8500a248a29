"""Budgeted adaptive quantile bracketing with a known Lipschitz constant.

Starting from the whole cube, each level evaluates f at the centers of the
surviving cells, takes the weighted quantile of the resulting table, prunes
every cell whose value is farther than 2*L*delta_k from the estimate, and
refines the survivors threefold per axis.  Pruned subtrees keep contributing
their inherited value and probability mass ("frozen" points), so the table
always represents the full partition.

`Frontier` is the subdivision engine shared with the unknown-constant
algorithm: one frontier of cells held as integer digit arrays and scanned
under several Lipschitz constants ("bands") at once, as DIRECT scans one
partition under every constant.  `run_known` is its single-band case, whose
retirement (the budget running out) ends the run.

The refinement path does not depend on the budget: the budget only decides
how deep the run goes.  `run_known_sweep` exploits this to answer many
budgets from a single deep run.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bounds import bracket_halfwidth
from .grid import half_radius
from .measure import ProductMeasure
from .wquantile import ValueMassTable, weighted_quantile_inf, weighted_quantile_sup

#: Deepest level refined: the largest k with 2*3^k < 2^53.  Up to it digits,
#: 3^k and 2*3^k are exact in int64 and float64, so centers (2b+1)/(2*3^k) and
#: cell edges b/3^k are correctly rounded and distinct centers stay distinct.
K_MAX = 32


@dataclass(frozen=True)
class QuantileBracket:
    """Deterministic bracket [lower, upper] around the alpha-quantile."""

    estimate: float
    lower: float
    upper: float
    level: int
    evaluations: int  # f calls spent up to `level`, each at a distinct center


@dataclass(frozen=True)
class LevelRecord:
    """One level of a run of either algorithm, taken before it is pruned."""

    level: int
    estimate: float
    evaluations: int      # f calls spent to reach and evaluate this level
    active_cells: int     # the frontier: cells kept by a live band at the level before
    active_mass: float    # their probability
    frozen_mass: float    # the probability of the cells that left the frontier
    live: tuple[int, ...]  # the bands not yet retired


@dataclass
class KnownRun:
    history: list[LevelRecord]
    budget: int
    lipschitz: float
    dim: int
    active_sets: list[list[tuple[int, ...]]] = field(default_factory=list)
    stop_reason: str = "budget"  # budget | max_level | precision

    @property
    def bracket(self) -> QuantileBracket:
        """The bracket of the last level, which the budget always affords."""
        return self.bracket_for_budget(self.budget)

    def bracket_for_budget(self, budget: int) -> QuantileBracket:
        """Deepest completed level affordable within `budget` calls."""
        fits = [r for r in self.history if r.evaluations <= budget]  # a prefix
        if not fits:
            raise ValueError("budget smaller than the first level's cost")
        rec = fits[-1]
        halfwidth = bracket_halfwidth(self.lipschitz, rec.level, self.dim)
        return QuantileBracket(rec.estimate, rec.estimate - halfwidth, rec.estimate + halfwidth,
                               rec.level, rec.evaluations)


def _last(mask: np.ndarray) -> int:
    """Index of the last True entry, -1 if there is none."""
    idx = np.flatnonzero(mask)
    return int(idx[-1]) if len(idx) else -1


class Frontier:
    """The cells under refinement, scanned under J Lipschitz constants at once.

    `run` is the level loop of both algorithms (`run_known` is its
    single-band case): it records each level as a `LevelRecord` and calls
    `step`, which prunes the level and, while a band stays live, refines it.

    Row i is a cell of level `level`; `values[i]` is f at its center and
    `masses[i]` its probability.  Band j has constant `lipschitz[j]`
    (increasing in j) and budget slice `slices[j]`.  A live band keeps the
    cells of its set whose value lies within 2*L_j*delta_k of the pooled
    estimate; all 3^d children of a kept cell join the next level.  A band
    whose ledger overruns its slice retires: it refines nothing more, and the
    cells of its set, whose centers were evaluated, stay quantile candidates.

    A row that no live band keeps leaves the frontier once, with its own
    mass, as a frozen point: eligible iff a retired band holds it (as DIRECT
    leaves a box that no constant selects in its partition), else a pruned
    cell that only adds its mass.  The frozen points are kept as one table,
    `frozen`, sorted by value and merged on ties, into which each level merges
    the rows that leave once; `frozen_mass` is their running total.  Each
    level is sorted once: `_freeze` builds the table of the rows that leave
    from the groups of the level's table, `table` (`ValueMassTable.take`).
    If no live band keeps a row, the frontier is empty: the run goes on to
    its stop with no f call, and the estimate comes from `frozen` alone.

    Every level lists the children of the rows kept at the level before, in
    parent order and each row's in `itertools.product` order; the order fixes
    how the quantile table sums tied masses.  So digits are not stored per
    row: row r is the child 3*block[r // fan] + offsets[r % fan] of the
    parent digits `block`, with `fan` = 3^d rows per parent (1 at the root,
    whose parent digits are 0), and `digits` derives them, once per level for
    the kept rows.  Masses come from the parents too: each refinement makes
    one `ProductMeasure.child_probabilities` call on the kept rows.  On the
    3^d axis of the children the level loop uses slices and integer indices
    only.

    The sets of the live bands are nested, since a wider band keeps every
    cell a narrower one keeps.  So the live bands holding a row are the live
    j >= its lowest band, and one flag says whether a retired band holds it.
    These band columns are kept per parent, `lowest` and `held`, and read
    through (len(block), fan) views: a row has its parent's lowest band, and
    a retired band holds the center child of each row it held.
    """

    def __init__(self, f, measure: ProductMeasure, alpha: float, lipschitz, slices):
        d = measure.dim
        self.f, self.measure, self.alpha = f, measure, alpha
        self.lipschitz = np.array(lipschitz, dtype=float)
        self.slices = np.asarray(slices, dtype=np.int64)
        self.offsets = np.array(list(itertools.product((0, 1, 2), repeat=d)), dtype=np.int64)
        self.center = (3 ** d - 1) // 2  # row of the all-ones offset
        # 2*o + 1 for the non-center offsets o
        self.odd = 2 * np.delete(self.offsets, self.center, axis=0) + 1
        self.level = 0
        self.evaluations = 0
        self.block, self.fan = np.zeros((1, d), dtype=np.int64), 1
        self.lowest = np.zeros(1, dtype=np.int64)
        self.held = np.zeros(1, dtype=bool)
        self.live = np.ones(len(self.lipschitz), dtype=bool)
        self.ledgers = np.ones(len(self.lipschitz), dtype=np.int64)
        self.retired: dict[int, int] = {}
        self.frozen: ValueMassTable | None = None
        self.frozen_mass = 0.0
        self.values = self._evaluate(np.full((1, d), 0.5))
        self.masses = measure.cell_probabilities(0, self.block)
        self._estimate()

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        self.evaluations += len(points)
        values = np.asarray(self.f(points), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(f"f must map {len(points)} points to an array of shape "
                             f"({len(points)},), got shape {values.shape}")
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise ValueError(f"f must be finite, got {values[bad[0]]} at the point "
                             f"{points[bad[0]].tolist()}")
        return values

    def digits(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The (len(rows), d) digits of the frontier rows `rows`, of every row
        by default."""
        if rows is None:
            rows = np.arange(len(self.values))
        parent, kid = np.divmod(rows, self.fan)
        # np.take gathers rows of a 2-D array several times faster than
        # fancy indexing does
        digits = np.take(self.block, parent, axis=0)
        digits *= 3
        digits += np.take(self.offsets, kid, axis=0)
        return digits

    def _estimate(self) -> None:
        # every frontier cell is a genuinely evaluated center (a center child
        # shares its parent's), so the whole frontier is eligible
        table = self.frozen
        if len(self.values):
            self.table = ValueMassTable(self.values, self.masses,
                                        np.ones(len(self.values), dtype=bool))
            table = self.table if table is None else table.merge(self.table)
        self.estimate = weighted_quantile_sup(table, self.alpha)
        est_inf = weighted_quantile_inf(table, self.alpha)
        # equal in exact arithmetic; cumulative-sum rounding can flip one
        # index when the alpha boundary falls between two near-equal values
        if abs(self.estimate - est_inf) > 1e-9 * (1.0 + abs(self.estimate)):
            raise AssertionError(
                f"sup/inf estimator mismatch at level {self.level}: {self.estimate} vs {est_inf}"
            )

    def run(self, max_level: int | None, keep_active_sets: bool = False):
        """Record each level and step to the next until the run stops.

        Returns the level records, the frontier digits of each level (if
        `keep_active_sets`) and why the run stopped: `max_level`, `precision`
        at K_MAX, or `all_retired` once no band is live.
        """
        history: list[LevelRecord] = []
        active_sets: list[list[tuple[int, ...]]] = []
        while True:
            history.append(LevelRecord(self.level, self.estimate, self.evaluations,
                                       len(self.values), float(np.sum(self.masses)),
                                       self.frozen_mass, tuple(np.flatnonzero(self.live).tolist())))
            if keep_active_sets:
                active_sets.append(list(map(tuple, self.digits().tolist())))
            if max_level is not None and self.level >= max_level:
                return history, active_sets, "max_level"
            if self.level >= K_MAX:
                return history, active_sets, "precision"
            if not self.step():
                return history, active_sets, "all_retired"

    def step(self) -> bool:
        """Prune this level under the live bands and, while one stays live,
        refine to the next; returns whether the frontier advanced.

        Row i is kept by the live bands j >= first[i] (J means by none) and
        held by a retired or retiring band iff hold[i].
        """
        n_bands, fan = len(self.lipschitz), self.fan
        delta = half_radius(self.level, self.measure.dim)
        bands = 2.0 * self.lipschitz * delta
        # band j keeps row i iff j >= lowest[i] and |v_i - estimate| <= bands[j],
        # where a row has its parent's lowest
        gap = np.subtract(self.values, self.estimate)
        np.abs(gap, out=gap)
        if n_bands == 1:  # one comparison per row beats a binary search
            first = np.greater(gap, bands[0]).astype(np.int64)
        else:
            first = np.searchsorted(bands, gap)
        del gap
        kids = first.reshape(-1, fan)
        np.maximum(kids, self.lowest[:, None], out=kids)
        kept_by = np.cumsum(np.bincount(first, minlength=n_bands + 1))[:n_bands]
        self.ledgers[self.live] += (len(self.offsets) - 1) * kept_by[self.live]
        retiring = self.live & (self.ledgers > self.slices)
        for j in np.flatnonzero(retiring):
            self.retired[int(j)] = self.level
        self.live &= ~retiring
        if not self.live.any():
            return False
        # a band retiring now holds the rows whose lowest band is at or below
        # it; bands retired before hold the center child of each row they held
        hold = np.empty(len(first), dtype=bool)
        hold.reshape(-1, fan)[:] = (self.lowest <= _last(retiring))[:, None]
        hold[fan // 2::fan] |= self.held
        self._refine(first, hold)
        return True

    def _refine(self, first: np.ndarray, hold: np.ndarray) -> None:
        """Replace the frontier by the children of the rows that a live band
        keeps, freeze the other rows, and estimate the next level.

        The next level's columns are built one step at a time, so that one
        step's temporaries are released before the next step allocates.
        """
        kept = first <= _last(self.live)  # a band that goes on keeps the row
        parents = np.flatnonzero(kept)
        level = self.level + 1
        block = self.digits(parents)
        values = self._children(level, parents, block)
        # row-major: each parent's children in `itertools.product` order
        masses = self.measure.child_probabilities(level, block).ravel()
        self._freeze(~kept, hold)
        self.block, self.fan = block, len(self.offsets)
        self.values, self.masses = values, masses
        self.lowest, self.held = first[parents], hold[parents]
        self.level = level
        self._estimate()

    def _children(self, level: int, parents: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Values of the next frontier, from the digits `block` of the rows
        `parents`; f runs on the new centers."""
        n_kids, d = self.offsets.shape
        c = self.center
        points = np.empty((len(parents), n_kids - 1, d))
        for a in range(d):
            # centers (2*(3b+o)+1)/(2*3^k) of the non-center children: every
            # term is an integer below 2^53, so only the division rounds
            np.divide(6 * block[:, a, None] + self.odd[:, a], 2 * 3 ** level, out=points[:, :, a])
        values = np.empty((len(parents), n_kids))
        values[:, c] = self.values[parents]  # the center child's is its parent's
        if len(parents):
            fresh = self._evaluate(points.reshape(-1, d)).reshape(-1, n_kids - 1)
            values[:, :c], values[:, c + 1:] = fresh[:, :c], fresh[:, c:]
        return values.reshape(-1)

    def _freeze(self, leaving: np.ndarray, hold: np.ndarray) -> None:
        """Merge the rows `leaving` into `frozen`, each with its own mass and
        eligible iff a retired band holds it."""
        rows = np.flatnonzero(leaving)
        table, self.table = self.table, None
        if len(rows):
            lost = self.masses[rows]
            table = table.take(rows, lost, hold[rows])
            self.frozen = table if self.frozen is None else self.frozen.merge(table)
            self.frozen_mass += float(lost.sum())


def check_limits(budget, least: int, max_level: int | None = None) -> None:
    """Refuse a budget that is not a whole number >= `least`, and a negative
    `max_level`."""
    whole = isinstance(budget, numbers.Integral) or isinstance(budget, float) and budget.is_integer()
    if not (whole and budget >= least):
        raise ValueError(f"budget must be a whole number >= {least}, got {budget!r}")
    if max_level is not None and max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level!r}")


def run_known(
    f,
    lipschitz: float,
    measure: ProductMeasure,
    alpha: float,
    budget: int,
    max_level: int | None = None,
    keep_active_sets: bool = False,
) -> KnownRun:
    """Run the known-constant algorithm with at most `budget` calls to f.

    f maps an (n, d) array of points to an (n,) array of values and must be
    pure.  Returns the bracket of the deepest fully affordable level together
    with the per-level history.  Refinement stops at level K_MAX.
    """
    if not (np.isfinite(lipschitz) and lipschitz > 0):
        raise ValueError(f"lipschitz must be finite and positive, got {lipschitz}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    check_limits(budget, 1, max_level)

    fr = Frontier(f, measure, alpha, [lipschitz], [budget])
    history, active_sets, stop = fr.run(max_level, keep_active_sets)
    # the one band retires when the budget cannot pay for the next level
    return KnownRun(history, budget, lipschitz, measure.dim, active_sets,
                    "budget" if stop == "all_retired" else stop)


def run_known_sweep(
    f,
    lipschitz: float,
    measure: ProductMeasure,
    alpha: float,
    budgets: list[int],
) -> dict[int, QuantileBracket]:
    """Brackets for many budgets from one deep run.

    Valid because the per-level estimates and active sets never depend on the
    budget; each budget just truncates the same run at a different level.
    """
    if len(budgets) == 0:
        raise ValueError("budgets must name at least one budget, got none")
    run = run_known(f, lipschitz, measure, alpha, max(budgets))
    return {n: run.bracket_for_budget(n) for n in budgets}

