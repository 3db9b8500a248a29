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
    active_cells: int
    active_mass: float
    frozen_mass: float
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
    whose ledger overruns its slice retires: it then advances through center
    children only, which share their parent's center and so cost no call.
    Cells that leave the frontier are frozen: their value and mass stay in
    every later table as ineligible points.  They are kept as one table,
    `frozen`, sorted by value and merged on ties, into which each level
    merges its frozen cells once, the frozen children of one row (which share
    its value) as one point; `frozen_mass` is their running total.  Each
    level is sorted once: `_freeze` builds the table of the cells that leave
    from the groups of the level's table, `table` (`ValueMassTable.take`).

    Every level lists first the children of the full rows, in parent order
    and each row's in `itertools.product` order, then the center children of
    the solo rows (see `_refine`); the order fixes how the quantile table sums
    tied masses.  So digits are not stored per row: row r < 3^d * len(block)
    is the child 3*block[r // 3^d] + offsets[r % 3^d] of a full row, the rows
    after them have the digits `solo`, and `digits` derives them, once per
    level for the rows that keep children.

    Masses come from the parents: each refinement makes one
    `ProductMeasure.child_probabilities` call on the rows that keep children,
    which gives both the next frontier's masses and those of the children
    that freeze.  On the 3^d axis of the children the level loop uses slices
    and integer indices only.

    The sets of the live bands are nested, since a wider band keeps every
    cell a narrower one keeps.  So the live bands holding a row are the live
    j >= its lowest band, and one flag says whether a retired band holds it.
    These band columns are kept per full row, `lowest` and `held`, and read
    through (len(block), 3^d) views: a full row's children have its lowest
    band, and a retired band holds its center child iff one held the row.
    The solo rows share `solo_lowest` and `solo_held`.
    """

    def __init__(self, f, measure: ProductMeasure, alpha: float, lipschitz, slices):
        d = measure.dim
        self.f, self.measure, self.alpha = f, measure, alpha
        self.lipschitz = np.array(lipschitz, dtype=float)
        self.slices = np.asarray(slices, dtype=np.int64)
        self.offsets = np.array(list(itertools.product((0, 1, 2), repeat=d)), dtype=np.int64)
        self.center = (3 ** d - 1) // 2  # row of the all-ones offset
        self.others = np.delete(np.arange(3 ** d), self.center)  # non-center offset rows
        self.odd = 2 * self.offsets[self.others] + 1  # 2*o + 1 for those offsets o
        self.level = 0
        self.evaluations = 0
        self.block = np.zeros((0, d), dtype=np.int64)
        self.solo = np.zeros((1, d), dtype=np.int64)
        self.lowest = np.zeros(0, dtype=np.int64)
        self.held = np.zeros(0, dtype=bool)
        self.solo_lowest, self.solo_held = 0, False
        self.live = np.ones(len(self.lipschitz), dtype=bool)
        self.ledgers = np.ones(len(self.lipschitz), dtype=np.int64)
        self.retired: dict[int, int] = {}
        self.frozen: ValueMassTable | None = None
        self.frozen_mass = 0.0
        self.values = self._evaluate(np.full((1, d), 0.5))
        self.masses = measure.cell_probabilities(0, self.solo)
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
        """The (len(rows), d) digits of the ascending frontier rows `rows`,
        of every row by default."""
        n = len(self.block) * len(self.offsets)
        if rows is None:
            rows = np.arange(n + len(self.solo))
        split = np.searchsorted(rows, n)
        parent, kid = np.divmod(rows[:split], len(self.offsets))
        # np.take gathers rows of a 2-D array several times faster than
        # fancy indexing does
        full = np.take(self.block, parent, axis=0)
        full *= 3
        full += np.take(self.offsets, kid, axis=0)
        return np.concatenate([full, np.take(self.solo, rows[split:] - n, axis=0)])

    def _estimate(self) -> None:
        # every frontier cell is a genuinely evaluated center (a center child
        # shares its parent's), so the whole frontier is eligible; only
        # frozen values are not
        self.table = table = ValueMassTable(self.values, self.masses,
                                            np.ones(len(self.values), dtype=bool))
        if self.frozen is not None:
            table = self.frozen.merge(table)
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
        n_bands, n_kids = len(self.lipschitz), len(self.offsets)
        n = len(self.block) * n_kids  # rows of the full rows' children
        delta = half_radius(self.level, self.measure.dim)
        bands = 2.0 * self.lipschitz * delta
        # band j keeps row i iff j >= lowest[i] and |v_i - estimate| <= bands[j],
        # where a child of a full row has its parent's lowest
        gap = np.subtract(self.values, self.estimate)
        np.abs(gap, out=gap)
        if n_bands == 1:  # one comparison per row beats a binary search
            first = np.greater(gap, bands[0]).astype(np.int64)
        else:
            first = np.searchsorted(bands, gap)
        del gap
        kids = first[:n].reshape(-1, n_kids)
        np.maximum(kids, self.lowest[:, None], out=kids)
        np.maximum(first[n:], self.solo_lowest, out=first[n:])
        kept_by = np.cumsum(np.bincount(first, minlength=n_bands + 1))[:n_bands]
        self.ledgers[self.live] += (n_kids - 1) * kept_by[self.live]
        retiring = self.live & (self.ledgers > self.slices)
        for j in np.flatnonzero(retiring):
            self.retired[int(j)] = self.level
        self.live &= ~retiring
        if not self.live.any():
            return False
        # a band retiring now holds the rows whose lowest band is at or below
        # it; bands retired before hold the solo rows and the center child of
        # each full row they held
        last = _last(retiring)
        hold = np.empty(len(first), dtype=bool)
        hold[:n].reshape(-1, n_kids)[:] = (self.lowest <= last)[:, None]
        hold[self.center:n:n_kids] |= self.held
        hold[n:] = self.solo_held or self.solo_lowest <= last
        self._refine(first, hold)
        return True

    def _refine(self, first: np.ndarray, hold: np.ndarray) -> None:
        """Replace the frontier by the next level's cells, freeze the rest, and
        estimate the next level.

        The next frontier is the children of the full rows (kept by a live
        band), in parent order, then the center children of the solo rows
        (held only by retired bands).  Its columns are built one step at a
        time, each step in its own method, so that one step's temporaries
        are released before the next step allocates.
        """
        full = first <= _last(self.live)  # a band that goes on keeps the row
        solo = hold & ~full                # only retired bands hold the row
        gone = ~full & ~hold
        parents, solos = np.flatnonzero(full), np.flatnonzero(solo)
        if len(parents) + len(solos) == 0:
            raise AssertionError("no survivor: the estimate must lie in its own band")
        level = self.level + 1
        # the digits of the rows that keep children, full rows first
        digits = np.concatenate([self.digits(parents), self.digits(solos)])
        block = digits[:len(parents)]

        values = self._children(level, parents, block, solos)
        masses, siblings = self._child_masses(level, digits, len(parents))
        self._freeze(solo, gone, siblings)
        self.block, self.solo = block, 3 * digits[len(parents):] + 1
        self.values, self.masses = values, masses
        # a solo row's center child is held by retired bands only
        self.lowest, self.held = first[parents], hold[parents]
        self.solo_lowest, self.solo_held = len(self.lipschitz), True
        self.level = level
        self._estimate()

    def _children(self, level: int, parents: np.ndarray, block: np.ndarray, solos: np.ndarray):
        """Values of the next frontier, from the digits `block` of the full
        rows `parents`; f runs on the new centers."""
        n_kids, d = self.offsets.shape
        c, n = self.center, len(parents) * n_kids
        points = np.empty((len(parents), n_kids - 1, d))
        for a in range(d):
            # centers (2*(3b+o)+1)/(2*3^k) of the non-center children: every
            # term is an integer below 2^53, so only the division rounds
            np.divide(6 * block[:, a, None] + self.odd[:, a], 2 * 3 ** level, out=points[:, :, a])
        values = np.empty(n + len(solos))
        kid_values = values[:n].reshape(-1, n_kids)
        kid_values[:, c] = self.values[parents]  # the center child's is its parent's
        if len(parents):
            fresh = self._evaluate(points.reshape(-1, d)).reshape(-1, n_kids - 1)
            kid_values[:, :c], kid_values[:, c + 1:] = fresh[:, :c], fresh[:, c:]
        values[n:] = self.values[solos]
        return values

    def _child_masses(self, level: int, digits: np.ndarray, n_full: int):
        """Masses of the next frontier, and of the solo rows' other children.

        One mass call serves every row that keeps children (`digits`, the
        `n_full` full rows first): a full row's children join the frontier,
        a solo row's center child joins it and the others freeze.
        """
        n_kids = len(self.offsets)
        child = self.measure.child_probabilities(level, digits)
        masses = np.empty(n_full * n_kids + len(digits) - n_full)
        masses[:n_full * n_kids].reshape(-1, n_kids)[:] = child[:n_full]
        masses[n_full * n_kids:] = child[n_full:, self.center]
        # in C order, since the rounding of _freeze's row sums depends on the
        # layout; copying the transpose is the fast way there
        return masses, child.T[self.others, n_full:].T.copy()

    def _freeze(self, solo: np.ndarray, gone: np.ndarray, siblings: np.ndarray) -> None:
        """Merge the cells that leave the frontier into `frozen`.

        A row outside every band leaves with its own mass; a solo row leaves
        its non-center children, `siblings`, with the sum of their masses.
        """
        rows = np.flatnonzero(solo | gone)
        table, self.table = self.table, None
        if len(rows):
            lost = self.masses[rows]  # the mass each row leaves, all at its value
            if len(siblings):
                lost[solo[rows]] = siblings.sum(axis=1)
            table = table.take(rows, lost)
            self.frozen = table if self.frozen is None else self.frozen.merge(table)
            self.frozen_mass += float(lost.sum())


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
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

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

