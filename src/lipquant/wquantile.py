"""Weighted quantiles over (value, mass) multisets.

The level-k estimator is a quantile of a discrete table: one point per
partition cell, carrying the cell's probability mass and either a freshly
evaluated value (eligible as a quantile candidate) or a value inherited from
a pruned ancestor (mass contributor only).  A point may also be eligible
with mass 0: it adds no mass and makes its value a candidate, since ties
merge into one group, eligible if any of its points is.  With head(v) the
exact mass of the points of value < v, the sup form is the greatest
eligible v with head(v) <= alpha, else the least eligible v, and the inf
form the first eligible v at or past the last value with head(v) < alpha,
else the greatest.  On a table of total mass 1 these are
sup{v : mass of {value >= v} >= 1 - alpha} and
inf{v : mass of {value <= v} >= alpha}.  A head is a float cumulative sum
where that decides it, and an exact sum where it cannot (filter, then exact:
Shewchuk, "Adaptive Precision Floating-Point Arithmetic", 1997), so no
summation order moves a quantile.

The table holds positive mass strictly between the two forms iff
sup < inf, so the pair alone tells where a crossing fell on an ineligible
value.  Let u be the last group with head < alpha (the first group's head
is 0) and t the last with head <= alpha, so u <= t and every group after u
up to t has head exactly alpha.  Where a group follows t, u holds positive
mass: the head after u is alpha if t > u, and above alpha if t = u.
  - Flat CDF: an eligible group lies in [u, t].  The sup form is the
    greatest eligible one up to t and the inf form the least from u on, both
    in [u, t], so inf <= sup; each group strictly between them lies strictly
    after u and before t, between two heads equal to alpha, and holds mass 0.
  - Crossing on an ineligible value: no eligible group lies in [u, t], but
    one lies before u and one after t.  The sup form is the greatest before
    u and the inf form the least after t, so sup < inf, and u, which is not
    the last group, lies strictly between them with exact mass > 0.
  - Otherwise every eligible group lies after t, or every one before u, and
    both forms are the same extreme eligible value: the least, where the
    sup form falls back to it, or the greatest, where the inf form does.
A group's mass is the exact sum of its rows' masses, so "positive mass" is
"a row of mass > 0", over every real row of the table.

`level_quantiles` reads a level in one loop over the tables it may try,
each with the span of values where its heads are the full table's: a
summary table under (greatest, least], then every row, which always
answers.  The engine files the ineligible frozen rows by side: each row
below is at most `greatest`, each row above at least `least`.  In the
summary table the rows below are one ineligible row of their mass at
`greatest` and the rows above one at `least`.  A value v in
the span (greatest, least] has every row below under it and none of the
rows above, so its head is the one over the full table, and so is its float
head, a float sum of the same rows.  Let u be the summary's last group with
head < alpha and w its first with head > alpha (the end of the table if
none).  If both lie in the span, so does every group between them, and the
full table has the same groups from u to w, with the same heads, as its
other rows lie below u or at or past w.  As heads grow with v, its last
head < alpha is at u and its first head > alpha at w too.  The sup form is the greatest
eligible value below w, else the least eligible one, and the inf form the
least eligible value at or past u, else the greatest; the summary rows are
ineligible, so both tables have the same eligible values and the same
(sup, inf).  Where u or w lies outside the span, the summary declines and
the loop reads every row.  The tolerance and the exact pass count and read
every real row, never the summary rows, so they decide each head in the
span as the full table would.  On a level of `WINDOW_FLOOR` rows or more,
each table is first read from a window of its rows near the crossings,
which declines where it cannot give that table's pair.
"""

from __future__ import annotations

import bisect
import math

import numpy as np


class ValueMassTable:
    """The reader's table: rows sorted by value and merged on ties.  The
    reader builds it from 1-D columns of one length, never empty, whose
    values and masses the engine checked where they entered
    (`Frontier._evaluate`, `measure._steps`): finite values, masses >= 0."""

    def __init__(self, values: np.ndarray, masses: np.ndarray, eligible: np.ndarray):
        order = values.argsort()
        ordered = values.take(order)
        # merge ties: mass sums, eligibility is or-ed
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        starts = keep.nonzero()[0]
        keep[0] = False  # so that its cumsum numbers the groups from 0
        self.values = ordered.take(starts)
        del ordered
        # ties are bitwise equal but for a zero's sign; -0.0 + 0.0 is +0.0
        self.values += 0.0
        ranks = keep.cumsum()
        del keep
        group = np.empty_like(ranks)
        group[order] = ranks
        del order, ranks
        self.masses = np.bincount(group, weights=masses)
        self.eligible = np.bincount(group, weights=eligible) > 0


WINDOW_FLOOR = 4096  # fewer rows cost less to sort than the window's NumPy calls
N_BINS = 1024  # value bins over a level's range
#: Rows per chunk of the passes over a level that would otherwise make a
#: temporary of its size: the engine's one-band prune and masses, and the bins.
CHUNK = 1 << 16


def level_quantiles(frozen: tuple[np.ndarray, ...], values: np.ndarray, masses: np.ndarray,
                    alpha: float, sides=None) -> tuple[float, float]:
    """The (sup, inf) quantiles of the rows (`values`, `masses`), all
    eligible, with the frozen rows `frozen`, a (values, masses, eligible)
    chunk in any order, and those of `sides`, if given.

    `sides` = ((below, greatest), (above, least), chunks) holds more frozen
    rows, all ineligible, in (values, masses) `chunks`: each row is at most
    `greatest` or at least `least`, and `below` and `above` are float sums
    of the masses of the two kinds.  The level is read first with them as
    two summary rows under the span (greatest, least], which answers where
    that gives the full table's pair, then with every frozen row, which
    always answers.  Each read of a level of `WINDOW_FLOOR` rows or more
    tries the rows near its crossings (`_windowed`) before its whole table;
    every read counts and settles every real row, never a summary row."""
    chunks, spans = ((values, masses), frozen[:2]), [None]
    if sides and sides[2]:
        (below, greatest), (above, least), side_chunks = sides
        ends = [(x, m) for x, m in ((greatest, below), (least, above)) if math.isfinite(x)]
        summary = (np.array([x for x, _ in ends]), np.array([m for _, m in ends]),
                   np.zeros(len(ends), dtype=bool))
        chunks, spans = chunks + tuple(side_chunks), [(greatest, least), None]
    for span in spans:
        # the side chunks as parts only where the summary declines: a deep
        # level has one for each level before it
        parts = [frozen, summary] if span else \
            [frozen, *((v, m, np.broadcast_to(False, len(v))) for v, m in chunks[2:])]
        both = None
        if len(values) >= WINDOW_FLOOR:
            both = _windowed(parts, values, masses, alpha, chunks, span)
        if both is None:
            fv, fm, fe = zip(*parts)
            table = ValueMassTable(np.concatenate((values, *fv)), np.concatenate((masses, *fm)),
                                   np.concatenate((np.ones(len(values), dtype=bool), *fe)))
            if not table.eligible.any():
                raise ValueError("table has no eligible point")
            both = _read(table, alpha, chunks, span=span)
        if both is not None:
            return both


def _read(table: ValueMassTable, alpha: float, chunks,
          window: tuple[float, float] | None = None,
          span: tuple[float, float] | None = None) -> tuple[float, float] | None:
    """(sup, inf) over `table`: the groups of all the rows of `chunks`, or
    of a `window` (below, total) of them, the rows in one range of values
    with the float mass `below` under it and `total` in all, which gives None
    unless both crossings and both answers lie in it.  With a `span`
    (greatest, least], the table is a summary one (see the module
    docstring), which gives None unless the last group with head < alpha and
    the first with head > alpha lie in the span.  The group after the
    table's last value v, the end of the table or the first value past a
    window, is then taken at the double after v, which lies in the span iff
    v < least: `least`, if finite, is a value of the summary table.

    head[i], the mass below group i, is a float sum of N rows >= 0, within
    γ_N·S of the exact sum, S the total (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 4); within twice that of alpha it is
    summed exactly."""
    v, e, n = table.values, table.eligible, len(table.values)
    head = np.cumsum(np.append(window[0] if window else 0.0, table.masses))
    tol = sum(len(m) for _, m in chunks) * 2.0 ** -52 * (window[1] if window else head[-1])
    lo, hi = head.searchsorted(alpha - tol), head.searchsorted(alpha + tol, "right")
    n_le = n_lt = lo  # the heads <= alpha and < alpha
    past = np.nextafter(v[-1], np.inf)  # where the head past the last group is taken
    if hi > lo:
        edges = v[lo:hi] if hi <= n else np.append(v[lo:], past)
        le, lt = _settle(chunks, edges, alpha)
        n_le, n_lt = n_le + le, n_lt + lt
    sup, inf = n_le - 1, n_lt - 1  # the last group with head <= alpha, and < alpha
    if not window:
        sup, inf = min(sup, n - 1), min(inf, n - 1)
    elif not (0 <= inf and sup < n):
        return None
    if span and not (v[inf] > span[0] and (v[sup + 1] if sup + 1 < n else past) <= span[1]):
        return None
    sup_in, inf_in = e[:sup + 1].any(), e[inf:].any()  # an eligible point at or past each
    if window and not (sup_in and inf_in):
        return None
    return (float(v[sup - e[sup::-1].argmax()] if sup_in else v[e.argmax()]),
            float(v[inf + e[inf:].argmax()] if inf_in else v[n - 1 - e[::-1].argmax()]))


def _settle(chunks, edges: np.ndarray, alpha: float) -> tuple[int, int]:
    """How many of the exact masses of the rows of `chunks` below each of
    the increasing `edges` are <= alpha, and how many are < alpha.  A mass
    is m·2^(x - 53), m an integer whose halves are below 2^27: per slot
    between two edges and exponent x, bincount and cumsum sum each half
    exactly for fewer than 2^26 rows, and an edge's head is then one integer
    in units of 2^-1126."""
    slots, parts = [], []
    for values, masses in chunks:
        below = values < edges[-1]
        slots.append(edges.searchsorted(values[below], "right"))  # slot j: edges[j-1] <= value
        parts.append(masses[below])
    frac, x = np.frexp(np.concatenate(parts))
    mant = (frac * 2.0 ** 53).astype(np.int64)
    x -= (x0 := int(x.min(initial=0)))
    present = np.bincount(x) > 0  # one column for each exponent that occurs
    n_x = int(present.sum())
    cells = np.concatenate(slots) * n_x + (present.cumsum() - 1)[x]
    hi, lo = (np.bincount(cells, weights=half, minlength=len(edges) * n_x)
              .reshape(len(edges), n_x).cumsum(axis=0) for half in (mant >> 26, mant & 2 ** 26 - 1))
    shifts = (present.nonzero()[0] + (x0 + 1073)).tolist()

    def head(j: int) -> int:
        return sum(((int(a) << 26) + int(b)) << s for a, b, s in zip(hi[j], lo[j], shifts))

    num, den = alpha.as_integer_ratio()
    threshold = (num << 1126) // den
    return (bisect.bisect_right(range(len(edges)), threshold, key=head),
            bisect.bisect_left(range(len(edges)), threshold, key=head))


def _bin(x: np.ndarray, lo: float, scale: float, out: np.ndarray, tmp: np.ndarray) -> None:
    """Write the bins of the values x >= lo into the int16 `out`, through
    the float `tmp` of their length (x itself if it may be overwritten): one
    monotone map, so tied values share one."""
    np.subtract(x, lo, out=tmp)
    tmp *= scale
    out[...] = np.minimum(tmp, N_BINS - 1, out=tmp)  # truncates toward 0


def _windowed(parts, values: np.ndarray, masses: np.ndarray, alpha: float, chunks,
              span: tuple[float, float] | None) -> tuple[float, float] | None:
    """(sup, inf) of the level's rows with the frozen rows of `parts`, each
    a (values, masses, eligible) chunk, from the rows of the value bins
    around the crossings, or None where they do not hold both answers or
    the level's range cannot be binned; `chunks` are the real rows, and
    `span` is as `_read` takes it.  The level is binned one `CHUNK` of rows at a time into its
    int16 column, and the frozen rows in place."""
    lo, hi = float(values.min()), float(values.max())
    scale = N_BINS / (hi - lo) if hi > lo else math.inf
    if not 0.0 < scale < math.inf:  # a range past the float range gives 0
        return None
    cuts = range(0, len(values), CHUNK)
    bins, tmp = np.empty(len(values), dtype=np.int16), np.empty(min(len(values), CHUNK))
    for i in cuts:
        j = min(i + CHUNK, len(values))
        _bin(values[i:j], lo, scale, bins[i:j], tmp[:j - i])
    del tmp  # before bincount casts each chunk of bins to intp
    mass = sum(np.bincount(bins[i:i + CHUNK], weights=masses[i:i + CHUNK], minlength=N_BINS)
               for i in cuts)
    below = above = 0.0  # the frozen mass outside [lo, hi]
    inside = []  # per part, its rows in [lo, hi] and their bins
    for fv, fm, _ in parts:
        rows = ((fv >= lo) & (fv <= hi)).nonzero()[0]
        x = fv[rows]
        fbins = np.empty(len(x), dtype=np.int16)
        _bin(x, lo, scale, fbins, x)
        mass += np.bincount(fbins, weights=fm[rows], minlength=N_BINS)
        below, above = below + fm[fv < lo].sum(), above + fm[fv > hi].sum()
        inside.append((rows, fbins))
    head = np.cumsum(np.append(below, mass))  # the mass below each bin
    # the bins of the inf and sup crossings, and one bin on either side
    b0 = max(head[:N_BINS].searchsorted(alpha) - 2, 0)
    b1 = min(head[:N_BINS].searchsorted(alpha, "right"), N_BINS - 1)
    rows = np.concatenate([((bins[i:i + CHUNK] >= b0) & (bins[i:i + CHUNK] <= b1)).nonzero()[0] + i
                           for i in cuts])
    picked = [r[(b >= b0) & (b <= b1)] for r, b in inside]
    fv, fm, fe = zip(*([c[r] for c in part] for part, r in zip(parts, picked)))
    window = ValueMassTable(np.concatenate((values[rows], *fv)),
                            np.concatenate((masses[rows], *fm)),
                            np.concatenate((np.ones(len(rows), dtype=bool), *fe)))
    return _read(window, alpha, chunks, (head[b0], head[N_BINS] + above), span)
