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
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import bracket_halfwidth, check_limits, finite_real
from .grid import half_radius
from .measure import ProductMeasure
from .wquantile import ValueMassTable, joined, level_quantiles

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
class Run:
    """A run of either algorithm.  `lipschitz` is the known constant, None
    for `run_unknown`, whose run has no bracket."""

    history: list[LevelRecord]
    budget: int
    dim: int
    ledgers: dict[int, int]  # band j -> the f calls charged to it
    retirement_level: dict[int, int]  # band j -> the level at which it retired
    stop_reason: str  # budget | all_retired | max_level | precision | settled
    lipschitz: float | None = None

    # the last record's: the frontier does not move after it
    @property
    def estimate(self) -> float:
        return self.history[-1].estimate

    @property
    def level(self) -> int:
        return self.history[-1].level

    @property
    def evaluations(self) -> int:
        return self.history[-1].evaluations

    @property
    def enumerated_j_max(self) -> int:
        # the largest candidate id; bench/layers.py reads it by this name
        return len(self.ledgers) - 1

    @property
    def bracket(self) -> QuantileBracket:
        """The bracket of the last level, which the budget always affords."""
        return self.bracket_for_budget(self.budget)

    def bracket_for_budget(self, budget: int) -> QuantileBracket:
        """Deepest completed level affordable within `budget` calls.  The
        refinement path does not depend on the budget, which only decides how
        deep the run goes, so one run answers every smaller budget."""
        if self.lipschitz is None:
            raise ValueError("a run without a known Lipschitz constant has no bracket")
        check_limits(budget, 1)
        fits = [r for r in self.history if r.evaluations <= budget]  # a prefix
        rec = fits[-1]
        halfwidth = bracket_halfwidth(self.lipschitz, rec.level, self.dim)
        return QuantileBracket(rec.estimate, rec.estimate - halfwidth, rec.estimate + halfwidth,
                               rec.level, rec.evaluations)


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
    cell that only adds its mass.  The frozen points are one table, `frozen`,
    sorted by value and merged on ties; `frozen_mass` is their running total.
    A level's estimate is the sup form of `level_quantiles` over the level's
    rows and `frozen`; `_freeze` sorts the rows that leave, placed first, with
    the frozen groups into the next `frozen`.  If no live band keeps a row,
    the frontier is empty and the run stops as `settled`: with no row to
    refine, no later level could differ.

    Every level lists the children of the rows kept at the level before, in
    parent order and each row's in `itertools.product` order; the order fixes
    how the quantile table sums tied masses.  So row r is the child
    3*block[r // fan] + offsets[r % fan] of the parent digits `block`, with
    `fan` = 3^d rows per parent (1 at the root, whose parent digits are 0),
    and `digits` derives the digits once per level for the kept rows.  Masses
    come from one `ProductMeasure.child_probabilities` call on the kept rows.
    Each level costs a fixed number of whole-array NumPy calls: no Python loop
    runs over rows or bands.

    The sets of the live bands are nested, since a wider band keeps every
    cell a narrower one keeps.  So the live bands holding a row are the live
    j >= its lowest band, and one flag says whether a retired band holds it.
    These band columns are kept per parent, `lowest` and `held`, and read
    through (len(block), fan) views: a row has its parent's lowest band, and
    a retired band holds the center child of each row it held.
    """

    def __init__(self, f, measure: ProductMeasure, alpha: float, lipschitz, slices):
        if not isinstance(measure, ProductMeasure):
            raise ValueError(f"measure must be a ProductMeasure, got {measure!r}")
        if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {alpha!r}")
        d = measure.dim
        self.f, self.measure, self.alpha = f, measure, alpha
        self.lipschitz = np.array(lipschitz, dtype=float)
        self.slices = np.asarray(slices, dtype=np.int64)
        self.offsets = np.array(list(itertools.product((0, 1, 2), repeat=d)), dtype=np.int64)
        # 2*o + 1 for the offsets o but the all-ones one, row fan // 2 of fan
        self.odd = 2.0 * np.delete(self.offsets, len(self.offsets) // 2, axis=0) + 1.0
        self.level = self.evaluations = 0
        self.block, self.fan = np.zeros((1, d), dtype=np.int64), 1
        self.lowest, self.held = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool)
        self.live_bands = tuple(range(len(self.lipschitz)))  # where ledgers <= slices
        self.ledgers = np.ones(len(self.lipschitz), dtype=np.int64)
        self.retired: dict[int, int] = {}
        self.frozen: ValueMassTable | None = None
        self.frozen_mass = 0.0
        self.values = self._evaluate(np.full((1, d), 0.5))
        self.masses = measure.cell_probabilities(0, self.block)
        self._estimate()

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        self.evaluations += len(points)
        out = np.asarray(self.f(points))
        if out.shape != (len(points),):
            raise ValueError(f"f must map {len(points)} points to an array of shape "
                             f"({len(points)},), got shape {out.shape}")
        values = out.real.astype(float, copy=False)
        # a cast to float would drop imaginary parts
        if not np.isfinite(values).all() or out.dtype.kind == "c" and out.imag.any():
            bad = (~np.isfinite(values) | (out.imag != 0)).argmax()
            raise ValueError(f"f must be real and finite, got {out[bad]} at the point "
                             f"{points[bad].tolist()}")
        return values

    def digits(self, kept: np.ndarray | None = None) -> np.ndarray:
        """The (n, d) digits of the frontier rows where the mask `kept` is
        True, of every row by default."""
        kept = np.ones(len(self.values), dtype=bool) if kept is None else kept
        parent, kid = kept.reshape(-1, self.fan).nonzero()
        # take gathers rows of a 2-D array several times faster than fancy
        # indexing does
        digits = self.block.take(parent, axis=0)
        digits *= 3
        digits += self.offsets.take(kid, axis=0)
        return digits

    def _estimate(self) -> None:
        # every frontier cell is a genuinely evaluated center (a center child
        # shares its parent's), so the whole frontier is eligible
        self.estimate, est_inf = level_quantiles(self.frozen, self.values, self.masses, self.alpha)
        # equal in exact arithmetic; cumulative-sum rounding can flip one
        # index when the alpha boundary falls between two near-equal values
        if abs(self.estimate - est_inf) > 1e-9 * (1.0 + abs(self.estimate)):
            raise AssertionError(f"sup/inf estimator mismatch at level {self.level}: "
                                 f"{self.estimate} vs {est_inf}")

    def run(self, budget: int, max_level: int | None, lipschitz: float | None = None) -> Run:
        """Record each level and step to the next until the run stops: at
        `max_level`, at `precision` (K_MAX), as `settled` once the frontier is
        empty, or once no band is live, as `budget` for a known constant
        `lipschitz` and as `all_retired` for the candidates of an unknown one."""
        history: list[LevelRecord] = []
        while True:
            history.append(LevelRecord(self.level, self.estimate, self.evaluations,
                                       len(self.values), float(self.masses.sum()),
                                       self.frozen_mass, self.live_bands))
            if max_level is not None and self.level >= max_level:
                stop = "max_level"
            elif self.level >= K_MAX:
                stop = "precision"
            elif not len(self.values):
                stop = "settled"
            elif not self.step():
                stop = "all_retired" if lipschitz is None else "budget"
            else:
                continue
            return Run(history, budget, self.measure.dim, dict(enumerate(self.ledgers.tolist())),
                       dict(self.retired), stop, lipschitz)

    def step(self) -> bool:
        """Prune this level under the live bands and, while one stays live,
        refine to the next; returns whether the frontier advanced.

        Row i is kept by the live bands j >= first[i] (none if first[i] is
        above the top live band) and held by a retired or retiring band iff
        hold[i].
        """
        n_bands, fan, top = len(self.lipschitz), self.fan, self.live_bands[-1]
        # band j keeps row i iff j >= lowest[i] and |v_i - estimate| <= bands[j],
        # where a row has its parent's lowest; no band above `top` keeps a row
        # a width past the float range is inf, which keeps every row
        with np.errstate(over="ignore"):
            bands = 2.0 * self.lipschitz[:top + 1] * half_radius(self.level, self.measure.dim)
        gap = np.subtract(self.values, self.estimate)
        np.abs(gap, out=gap)
        if top == 0:  # one comparison per row beats a binary search
            first = np.greater(gap, bands[0])
        else:
            first = bands.searchsorted(gap)
        del gap  # before the comparison widens to int64
        first = first.astype(np.int64, copy=False)
        kids = first.reshape(-1, fan)
        np.maximum(kids, self.lowest[:, None], out=kids)
        # band j keeps the rows whose first band is at most j, and pays for
        # the 3^d - 1 new centers of each
        kept_by = np.bincount(first, minlength=n_bands)[:n_bands].cumsum()
        # a ledger starts at 1, at most any slice, and only a live band's
        # grows: a band is live while its ledger is within its slice
        live = self.ledgers <= self.slices
        np.add(self.ledgers, (len(self.offsets) - 1) * kept_by, out=self.ledgers, where=live)
        retiring = live & (self.ledgers > self.slices)
        gone = retiring.nonzero()[0].tolist()
        if gone:
            self.retired.update(dict.fromkeys(gone, self.level))
            live ^= retiring
            self.live_bands = tuple(live.nonzero()[0].tolist())
            if not self.live_bands:
                return False
        # a band retiring now holds the rows whose lowest band is at or below
        # it; bands retired before hold the center child of each row they held
        hold = (self.lowest <= (gone[-1] if gone else -1)).repeat(fan)
        hold[fan // 2::fan] |= self.held
        self._refine(first, hold)
        del first, kids, hold  # the old level's columns, before the new table
        self._estimate()
        return True

    def _refine(self, first: np.ndarray, hold: np.ndarray) -> None:
        """Replace the frontier by the children of the rows that a live band
        keeps and freeze the other rows; `step` then estimates the next
        level, once this level's columns are released.

        The next level's columns are built one step at a time, and each
        step's temporaries are released before the next step allocates.
        """
        kept = first <= self.live_bands[-1]  # a band that goes on keeps the row
        level, (n_kids, d), c = self.level + 1, self.offsets.shape, len(self.offsets) // 2
        block = self.digits(kept)
        # centers (2*(3b+o)+1)/(2*3^k) of the non-center children: every term
        # is an integer below 2^53, so only the division rounds
        points = (6.0 * block).repeat(n_kids - 1, axis=0).reshape(-1, n_kids - 1, d)
        points += self.odd
        points /= 2 * 3 ** level
        # f runs on the new centers, if any
        fresh = self._evaluate(points.reshape(-1, d)) if len(block) else np.empty(0)
        fresh = fresh.reshape(-1, n_kids - 1)
        del points  # before the next level's values are allocated
        values = np.empty((len(block), n_kids))
        values[:, c] = self.values[kept]  # the center child's is its parent's
        values[:, :c], values[:, c + 1:] = fresh[:, :c], fresh[:, c:]
        del fresh
        # row-major: each parent's children in `itertools.product` order
        masses = self.measure.child_probabilities(level, block).ravel()
        self._freeze(~kept, hold)
        self.block, self.fan = block, n_kids
        self.values, self.masses = values.reshape(-1), masses
        self.lowest, self.held = first[kept], hold[kept]
        self.level = level

    def _freeze(self, leaving: np.ndarray, hold: np.ndarray) -> None:
        """Join the rows `leaving` to `frozen` by one sort, each with its own
        mass and eligible iff a retired band holds it."""
        if leaving.any():
            values, masses, eligible = joined(leaving, self.values, self.masses, hold, self.frozen)
            self.frozen_mass += float(masses[:leaving.sum()].sum())  # the rows come first
            self.frozen = ValueMassTable(values, masses, eligible)


def run_known(
    f,
    lipschitz: float,
    measure: ProductMeasure,
    alpha: float,
    budget: int,
    max_level: int | None = None,
) -> Run:
    """Run the known-constant algorithm with at most `budget` calls to f.

    f maps an (n, d) array of points to an (n,) array of values and must be
    pure.  The returned `Run` holds the per-level history and the bracket of
    the deepest fully affordable level.  Refinement stops at level K_MAX.
    """
    if not (finite_real(lipschitz) and lipschitz > 0):
        raise ValueError(f"lipschitz must be finite and positive, got {lipschitz!r}")
    check_limits(budget, 1, max_level)
    # the one band retires when the budget cannot pay for the next level
    return Frontier(f, measure, alpha, [lipschitz], [budget]).run(budget, max_level, lipschitz)
