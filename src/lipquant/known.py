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
import math
from dataclasses import dataclass

import numpy as np

from .bounds import bracket_halfwidth, check_alpha, check_limits, check_positive
from .grid import half_radius
from .measure import ProductMeasure
from . import wquantile

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
    `masses[i]` its probability.  Band j has constant `lipschitz[j]`,
    increasing in j, and budget slice `slices[j]`, nonincreasing in j (as
    `schedule` and `run_known` give them).  A live band keeps the cells of
    its set whose value lies within 2*L_j*delta_k of the pooled estimate and
    pays for their 3^d children, which join the next level.  A wider band
    keeps every cell a narrower one keeps, so its ledger is never below a
    narrower one's while its slice is never above it: bands retire from the
    top, and the live bands are 0..n_live-1.  A retired band refines nothing
    more; the cells of its set, whose centers were evaluated, stay quantile
    candidates.

    A row that no live band keeps leaves the frontier once, with its mass,
    and `frozen_mass` sums those masses.  At a level where bands retire,
    every row is in the top one's set, so every row is frozen as an eligible
    point into one unsorted chunk `frozen` = (values, masses, eligible), a
    kept one with mass 0, since its center child carries its value and mass
    on.  At any other level the rows that leave are ineligible: they are
    filed in `sides` = ((below, greatest), (above, least), chunks) by their
    side of the estimate they left at, each level's rows as one (values,
    masses) chunk that is never joined to another, with the float mass of
    each side and its value nearest the estimates.  Merged on values, a
    frozen cell is so eligible iff it is in a retired band's set (as DIRECT
    leaves a box that no constant selects).  A level's estimate is the sup
    form of `wquantile.level_quantiles` over its rows, `frozen` and `sides`:
    one loop that reads each side as one summary row, then, where that table
    cannot give the full table's pair, every row.  Its
    pair alone tells a sup/inf mismatch, as sup < inf (the lemma in the
    `wquantile` docstring), so only `_freeze` reads a frozen row.  If
    no live band keeps a row, the frontier is empty and the run stops as
    `settled`: with no row to refine, no later level could differ.

    Every level lists the children of the rows kept at the level before, in
    parent order and each row's in `itertools.product` order: row r is the
    child 3*block[r // fan] + offsets[r % fan] of the parent digits `block`,
    with `fan` = 3^d rows per parent (1 at the root, whose parent digits are
    0), and `digits` derives the digits once per level for the kept rows.
    Masses come from `ProductMeasure.child_probabilities` on the kept rows,
    written into the level's column one chunk of parents at a time.  Each
    level costs a fixed number of whole-array NumPy calls, but for the passes
    over `wquantile.CHUNK`-row chunks: the masses, and a one-band prune, with
    no int64 column.

    The live bands keeping a row, as their sets are nested, are the j >= its
    lowest band, kept per parent in `lowest` and read through a
    (len(block), fan) view; it is never above the top live band.
    """

    def __init__(self, f, measure: ProductMeasure, alpha: float, lipschitz, slices):
        if not isinstance(measure, ProductMeasure):
            raise ValueError(f"measure must be a ProductMeasure, got {measure!r}")
        check_alpha(alpha)
        d = measure.dim
        # read as a float once: a Fraction would make every comparison of the
        # quantile tables go through object arrays, and may round to 0 or 1
        self.f, self.measure, self.alpha = f, measure, float(alpha)
        self.lipschitz = np.array(lipschitz, dtype=float)
        self.slices = np.asarray(slices, dtype=np.int64)
        self.offsets = np.array(list(itertools.product((0, 1, 2), repeat=d)), dtype=np.int64)
        # 2*o + 1 for the offsets o but the all-ones one, row fan // 2 of fan
        self.odd = 2.0 * np.delete(self.offsets, len(self.offsets) // 2, axis=0) + 1.0
        self.level = self.evaluations = 0
        self.block, self.fan = np.zeros((1, d), dtype=np.int64), 1
        self.lowest = np.zeros(1, dtype=np.int64)
        self.live_bands = tuple(range(len(self.lipschitz)))  # where ledgers <= slices
        self.ledgers = np.ones(len(self.lipschitz), dtype=np.int64)
        self.retired: dict[int, int] = {}
        self.frozen = (np.empty(0), np.empty(0), np.empty(0, dtype=bool))
        self.sides = ((0.0, -math.inf), (0.0, math.inf), [])
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
        self.estimate, est_inf = wquantile.level_quantiles(self.frozen, self.values, self.masses,
                                                           self.alpha, self.sides)
        # sup < inf iff the table holds positive mass strictly between them,
        # where the crossing fell on an ineligible point (the lemma in the
        # `wquantile` docstring); a flat CDF gives inf <= sup
        if self.estimate < est_inf:
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
        above the top live band); the live bands pay for the rows they keep,
        and the ones that then overrun their slices, the top ones, retire.

        `_refine` keeps only the rows whose first band is at most the top
        live band, so a row's lowest band is never above the top live band,
        and it is 0 while band 0 alone is live.  Such a level's `first` (and
        so the next level's `lowest`) is the bool column |v_i - estimate| >
        bands[0], compared over chunks of `wquantile.CHUNK` rows, so that no
        level-sized temporary is made.
        """
        n, fan, top = len(self.values), self.fan, self.live_bands[-1]
        # band j keeps row i iff j >= lowest[i] and |v_i - estimate| <= bands[j],
        # where a row has its parent's lowest; no band above `top` keeps a row
        # a width past the float range is inf, which keeps every row
        with np.errstate(over="ignore"):
            bands = 2.0 * self.lipschitz[:top + 1] * half_radius(self.level, self.measure.dim)
        if top == 0:  # one comparison per row beats a binary search
            chunk = wquantile.CHUNK
            first, gap = np.empty(n, dtype=bool), np.empty(min(n, chunk))
            for i in range(0, n, chunk):
                g = gap[:min(n - i, chunk)]
                np.abs(np.subtract(self.values[i:i + len(g)], self.estimate, out=g), out=g)
                np.greater(g, bands[0], out=first[i:i + len(g)])
            kept_by = n - np.count_nonzero(first)  # band 0's kept rows
        else:
            gap = np.subtract(self.values, self.estimate)
            np.abs(gap, out=gap)
            first = bands.searchsorted(gap)
            np.maximum(first.reshape(-1, fan), self.lowest[:, None], out=first.reshape(-1, fan))
            # band j keeps the rows whose first band is at most j, and pays for
            # the 3^d - 1 new centers of each
            kept_by = np.bincount(first, minlength=top + 1)[:top + 1].cumsum()
        del gap  # before the next level is built
        # a band is live while its ledger, which starts at 1, is within its slice
        self.ledgers[:top + 1] += (len(self.offsets) - 1) * kept_by
        n_live = int(np.count_nonzero(self.ledgers[:top + 1] <= self.slices[:top + 1]))
        if retiring := n_live <= top:
            self.retired.update(dict.fromkeys(range(n_live, top + 1), self.level))
            self.live_bands = tuple(range(n_live))
            if not n_live:
                return False
        self._refine(first, retiring)
        del first  # the old level's column, before the new table
        self._estimate()
        return True

    def _refine(self, first: np.ndarray, retiring: bool) -> None:
        """Replace the frontier by the children of the rows that a live band
        keeps and freeze the other rows; `step` then estimates the next
        level, once this level's columns are released.

        The rows that leave are frozen, and the old level's columns are
        released, before the next level's are built.  Those are built one
        step at a time, each step's temporaries released before the next
        step allocates, and its masses one chunk of parents at a time.
        """
        kept = first <= self.live_bands[-1]  # a band that goes on keeps the row
        level, (n_kids, d), c = self.level + 1, self.offsets.shape, len(self.offsets) // 2
        block, lowest, centers = self.digits(kept), first[kept], self.values[kept]
        self._freeze(kept, retiring)
        del kept
        self.values = self.masses = None  # the old level's, before the next one's
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
        values[:, c] = centers  # the center child's is its parent's
        values[:, :c], values[:, c + 1:] = fresh[:, :c], fresh[:, c:]
        del fresh, centers
        # row-major: each parent's children in `itertools.product` order
        masses, step = np.empty((len(block), n_kids)), max(1, wquantile.CHUNK // n_kids)
        for i in range(0, len(block), step):
            masses[i:i + step] = self.measure.child_probabilities(level, block[i:i + step])
        self.block, self.fan = block, n_kids
        self.values, self.masses = values.reshape(-1), masses.reshape(-1)
        self.lowest, self.level = lowest, level

    def _freeze(self, kept: np.ndarray, retiring: bool) -> None:
        """Freeze this level's rows: if bands are `retiring`, every row into
        `frozen` as an eligible point, with mass 0 where `kept`, else the rows
        that leave into `sides`, as one chunk, by their side of the estimate.
        `frozen_mass` gains the leaving rows' masses, summed over those rows
        alone: zeros between them could move the bits of the pairwise sum."""
        leaving = ~kept
        masses = self.masses[leaving]
        self.frozen_mass += float(masses.sum())
        if retiring:
            rows = (self.values, np.where(kept, 0.0, self.masses), np.ones(len(kept), dtype=bool))
            self.frozen = tuple(map(np.concatenate, zip(self.frozen, rows)))
        elif len(masses):
            values = self.values[leaving]
            (below, greatest), (above, least), chunks = self.sides
            low = values < self.estimate
            below += float(masses.sum(where=low))
            greatest = max(greatest, float(values.max(where=low, initial=-math.inf)))
            above += float(masses.sum(where=~low))
            least = min(least, float(values.min(where=~low, initial=math.inf)))
            chunks.append((values, masses))
            self.sides = ((below, greatest), (above, least), chunks)


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
    check_positive("lipschitz", lipschitz)
    check_limits(budget, 1, max_level)
    # the one band retires when the budget cannot pay for the next level
    return Frontier(f, measure, alpha, [lipschitz], [budget]).run(budget, max_level, lipschitz)
