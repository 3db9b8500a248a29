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

from .grid import center_point, half_radius
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
    calls_used: int
    evaluations: int


@dataclass(frozen=True)
class LevelRecord:
    level: int
    estimate: float
    lower: float
    upper: float
    calls_used: int       # ledger value needed to reach and evaluate this level
    evaluations: int      # distinct f evaluations after this level
    active_cells: int
    active_mass: float
    frozen_mass: float


@dataclass
class KnownRun:
    bracket: QuantileBracket
    history: list[LevelRecord]
    budget: int
    active_sets: list[list[tuple[int, ...]]] = field(default_factory=list)
    stop_reason: str = "budget"  # budget | max_level | precision

    def bracket_for_budget(self, budget: int) -> QuantileBracket:
        """Deepest completed level affordable within `budget` calls."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        rec = None
        for r in self.history:
            if r.calls_used <= budget:
                rec = r
            else:
                break
        if rec is None:
            raise ValueError("budget smaller than the first level's cost")
        return QuantileBracket(
            rec.estimate, rec.lower, rec.upper, rec.level, rec.calls_used, rec.evaluations
        )


def _last(mask: np.ndarray) -> int:
    """Index of the last True entry, -1 if there is none."""
    idx = np.flatnonzero(mask)
    return int(idx[-1]) if len(idx) else -1


class Frontier:
    """The cells under refinement, scanned under J Lipschitz constants at once.

    Row i of `digits` (n, d) addresses a cell of level `level`; `values[i]` is
    f at its center and `masses[i]` its probability.  Band j has constant
    `lipschitz[j]` (increasing in j) and budget slice `slices[j]`.  A live band
    keeps the cells of its set whose value lies within 2*L_j*delta_k of the
    pooled estimate; all 3^d children of a kept cell join the next level.  A
    band whose ledger overruns its slice retires: it then advances through
    center children only, which share their parent's center and so cost no
    call.  Cells that leave the frontier are frozen: their value and mass stay
    in every later table as ineligible points.  They are kept as one table,
    `frozen`, sorted by value and merged on ties.  Each level merges its
    frozen cells into it once, the frozen children of one row (which share
    its value) as one point, and its quantile table is the active cells
    merged into `frozen`.  `frozen_masses` keeps every frozen cell's own
    mass, in freezing order, for the mass ledger.

    The sets of the live bands are nested, since a wider band keeps every
    cell a narrower one keeps.  So the live bands holding row i are the live
    j >= `lowest[i]`, and one flag, `held[i]`, says whether a retired band
    holds it.

    With `lexicographic`, every level is kept in lexicographic digit order;
    otherwise children follow their parents in `itertools.product` order.
    The order fixes how the quantile table merges tied values.
    """

    def __init__(self, f, measure: ProductMeasure, alpha: float, lipschitz, slices,
                 lexicographic: bool = False):
        d = measure.dim
        self.f, self.measure, self.alpha = f, measure, alpha
        self.lipschitz = [float(c) for c in lipschitz]
        self.slices = np.asarray(slices, dtype=np.int64)
        self.lexicographic = lexicographic
        self.offsets = np.array(list(itertools.product((0, 1, 2), repeat=d)), dtype=np.int64)
        self.center = (3 ** d - 1) // 2  # row of the all-ones offset
        self.level = 0
        self.evaluations = 0
        self.digits = np.zeros((1, d), dtype=np.int64)
        self.lowest = np.zeros(1, dtype=np.int64)
        self.held = np.zeros(1, dtype=bool)
        self.live = np.ones(len(self.lipschitz), dtype=bool)
        self.ledgers = np.ones(len(self.lipschitz), dtype=np.int64)
        self.retired: dict[int, int] = {}
        self.frozen: ValueMassTable | None = None
        self.frozen_masses = np.zeros(0)
        self.values = self._evaluate(0, self.digits)
        self._estimate()

    def _evaluate(self, level: int, digits: np.ndarray) -> np.ndarray:
        points = (2 * digits + 1) / (2 * 3 ** level)
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

    def _estimate(self) -> None:
        self.masses = self.measure.cell_probabilities(self.level, self.digits)
        # every frontier cell is a genuinely evaluated center (a center child
        # shares its parent's), so the whole frontier is eligible; only
        # frozen values are not
        table = ValueMassTable(self.values, self.masses, np.ones(len(self.values), dtype=bool))
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

    def stop_reason(self, max_level: int | None) -> str | None:
        """Why the run may not refine past this level, if it may not."""
        if max_level is not None and self.level >= max_level:
            return "max_level"
        if self.level >= K_MAX:
            return "precision"
        return None

    def prune(self) -> None:
        """Band tests of the live bands, their ledgers, and retirements.

        Sets `first` (row i is kept by the live bands j >= first[i]; J
        means by none), `kept` (rows some live band keeps) and `hold` (rows
        a retired or retiring band holds).
        """
        n_bands = len(self.lipschitz)
        delta = half_radius(self.level, self.measure.dim)
        bands = np.array([2.0 * c * delta for c in self.lipschitz])
        # band j keeps row i iff j >= lowest[i] and |v_i - estimate| <= bands[j]
        gap = np.abs(self.values - self.estimate)
        self.first = np.maximum(self.lowest, np.searchsorted(bands, gap))
        kept_by = np.cumsum(np.bincount(self.first, minlength=n_bands + 1))[:n_bands]
        self.ledgers[self.live] += (len(self.offsets) - 1) * kept_by[self.live]
        self.kept = self.first <= _last(self.live)
        retiring = self.live & (self.ledgers > self.slices)
        for j in np.flatnonzero(retiring):
            self.retired[int(j)] = self.level
        self.hold = self.held | (self.lowest <= _last(retiring))
        self.live &= ~retiring

    def refine(self) -> None:
        """Replace the frontier by the next level's cells and freeze the rest."""
        n_kids, d = self.offsets.shape
        c = self.center
        full = self.first <= _last(self.live)  # a band that goes on keeps the row
        solo = self.hold & ~full                # only retired bands hold the row
        gone = ~full & ~self.hold
        level = self.level + 1

        parents = np.flatnonzero(full)
        kids = 3 * self.digits[parents, None, :] + self.offsets
        values = np.empty((len(parents), n_kids))
        values[:, c] = self.values[parents]
        others = np.arange(n_kids) != c
        if len(parents):
            fresh = self._evaluate(level, kids[:, others].reshape(-1, d))
            values[:, others] = fresh.reshape(len(parents), n_kids - 1)
        held = np.zeros((len(parents), n_kids), dtype=bool)
        held[:, c] = self.hold[parents]

        # frozen entries in row order: a row outside every band leaves with
        # its own mass, a row held only by retired bands leaves its
        # non-center children with their masses
        count = np.where(solo, n_kids - 1, gone)
        start = np.cumsum(count) - count
        frozen_masses = np.empty(int(count.sum()))
        frozen_masses[start[gone]] = self.masses[gone]
        leaving = self.masses * gone  # the mass each row leaves, all at its value
        if solo.any():
            siblings = 3 * self.digits[solo, None, :] + self.offsets[others]
            sub = self.measure.cell_probabilities(level, siblings.reshape(-1, d))
            sub = sub.reshape(-1, n_kids - 1)
            frozen_masses[start[solo][:, None] + np.arange(n_kids - 1)] = sub
            leaving[solo] = sub.sum(axis=1)
        out = solo | gone
        if out.any():
            table = ValueMassTable(self.values[out], leaving[out], np.zeros(int(out.sum()), dtype=bool))
            self.frozen = table if self.frozen is None else self.frozen.merge(table)
        self.frozen_masses = np.concatenate([self.frozen_masses, frozen_masses])

        n_solo = int(solo.sum())
        self.digits = np.concatenate([kids.reshape(-1, d), 3 * self.digits[solo] + 1])
        self.values = np.concatenate([values.ravel(), self.values[solo]])
        self.lowest = np.concatenate([np.repeat(self.first[parents], n_kids),
                                      np.full(n_solo, len(self.lipschitz))])
        self.held = np.concatenate([held.ravel(), np.ones(n_solo, dtype=bool)])
        if self.lexicographic:
            order = np.lexsort(self.digits.T[::-1])
            self.digits, self.values = self.digits[order], self.values[order]
            self.lowest, self.held = self.lowest[order], self.held[order]
        self.level = level
        self._estimate()


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
    if lipschitz <= 0:
        raise ValueError(f"lipschitz must be positive, got {lipschitz}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    fr = Frontier(f, measure, alpha, [lipschitz], [budget])
    history: list[LevelRecord] = []
    active_sets: list[list[tuple[int, ...]]] = []
    while True:
        delta = half_radius(fr.level, measure.dim)
        history.append(
            LevelRecord(
                level=fr.level,
                estimate=fr.estimate,
                lower=fr.estimate - lipschitz * delta,
                upper=fr.estimate + lipschitz * delta,
                calls_used=int(fr.ledgers[0]),
                evaluations=fr.evaluations,
                active_cells=len(fr.digits),
                active_mass=float(np.sum(fr.masses)),
                frozen_mass=float(np.sum(fr.frozen_masses)),
            )
        )
        if keep_active_sets:
            active_sets.append(list(map(tuple, fr.digits.tolist())))
        stop = fr.stop_reason(max_level)
        if stop:
            break
        fr.prune()
        if not fr.kept.any():
            raise AssertionError("no survivor: the estimate must lie in its own band")
        if not fr.live[0]:
            stop = "budget"
            break
        fr.refine()

    last = history[-1]
    bracket = QuantileBracket(
        last.estimate, last.lower, last.upper, last.level, last.calls_used, last.evaluations
    )
    return KnownRun(bracket=bracket, history=history, budget=budget,
                    active_sets=active_sets, stop_reason=stop)


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
    run = run_known(f, lipschitz, measure, alpha, max(budgets))
    return {n: run.bracket_for_budget(n) for n in budgets}


def full_grid_estimate(f, measure: ProductMeasure, alpha: float, level: int) -> float:
    """Level-k estimator computed on the complete grid (test oracle only)."""
    d = measure.dim
    n_cells = 3 ** (level * d)
    if n_cells > 10 ** 6:
        raise ValueError(f"refusing to enumerate {n_cells} cells")
    cells = [tuple(c) for c in itertools.product(range(3 ** level), repeat=d)]
    pts = np.array([center_point(level, c) for c in cells])
    values = np.asarray(f(pts), dtype=float)
    masses = measure.cell_probabilities(level, cells)
    table = ValueMassTable(values, masses, np.ones(len(cells), dtype=bool))
    return weighted_quantile_sup(table, alpha)
