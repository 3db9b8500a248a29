"""Per-layer timing of lipquant, measured from outside the package.

`LayerTrace` replaces, for the duration of one operation, the public names
that the engine modules (`known`, `unknown`, `cli`) call, and restores them
afterwards.  There are two kinds of wrapper:

* spans (`run_known`, `run_unknown`, `cli.main`) open a frame on a stack;
  their self time is their wall time minus the time of the wrapped calls they
  make, nested spans included;
* leaves (the grid helpers, `cell_probabilities`, `ValueMassTable`, the
  weighted quantiles, `reference_quantile` and the user function `f`) only add
  to one counter slot `[calls, seconds, work]` per function.  The grid helpers
  run about 10^6 times per operation, so a leaf call does nothing but time
  itself and bump its slot.

Leaf work is attributed to the span that was open while it ran: at every span
boundary the slot increments since the previous boundary are settled onto the
(parent, function) pair.  Span boundaries are rare (one per engine run), so
memory stays bounded and the per-call cost stays that of the bare wrapper.

A name that the package no longer defines is skipped: its layer reports zero
calls.
"""

from __future__ import annotations

import importlib
from time import perf_counter

GRID_HELPERS = ("child_digits", "center_point", "canonical_center_key", "center_child_digits")
WQUANTILE_FNS = ("weighted_quantile_sup", "weighted_quantile_inf")
BENCH = "bench"  # parent name for leaf calls made outside any span


def _leaf(fn, slot):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        slot[1] += perf_counter() - t0
        slot[0] += 1
        return out

    return wrapper


def _leaf_sized(fn, slot, arg_index):
    """A leaf whose work is len() of one positional argument."""

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        slot[1] += perf_counter() - t0
        slot[0] += 1
        slot[2] += len(args[arg_index]) if len(args) > arg_index else 0
        return out

    return wrapper


class LayerTrace:
    """Counters and self times of lipquant's layers over one traced operation.

    Use as a context manager around the operation.  `f_slot` is the slot of
    the benchmark's own wrapper around the user function, so time in `f` is
    subtracted from its caller like any other leaf.
    """

    def __init__(self, f_slot: list):
        self.slots: dict[str, list] = {"f.f": f_slot}
        self._snap: dict[str, list] = {}
        self.by_parent: dict[tuple[str, str], list] = {}
        self.spans: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [layer, nested_span_s, leaf_s]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        mods = {m: importlib.import_module(f"lipquant.{m}")
                for m in ("cli", "grid", "known", "measure", "unknown")}
        for owner in (mods["grid"], mods["known"], mods["unknown"]):
            for name in GRID_HELPERS:
                self._patch_leaf(owner, name, f"grid.{name}")
        for owner in (mods["known"], mods["unknown"]):
            self._patch_leaf(owner, "ValueMassTable", "wquantile.ValueMassTable", sized=0)
            for name in WQUANTILE_FNS:
                self._patch_leaf(owner, name, f"wquantile.{name}")
        product = getattr(mods["measure"], "ProductMeasure", None)
        if product is not None:
            self._patch_leaf(product, "cell_probabilities", "measure.cell_probabilities", sized=2)
        self._patch_leaf(mods["cli"], "reference_quantile", "problems.reference_quantile")
        for owner, name, layer in (
            (mods["known"], "run_known", "known"),
            (mods["unknown"], "run_unknown", "unknown"),
            (mods["cli"], "run_known", "known"),
            (mods["cli"], "run_unknown", "unknown"),
            (mods["cli"], "main", "cli"),
        ):
            self._patch(owner, name, lambda fn, layer=layer: self._span(layer, fn))
        self._snap = {k: list(v) for k, v in self.slots.items()}
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._settle()

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name, None)
        if original is None:
            return
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def _patch_leaf(self, owner, name: str, key: str, sized: int | None = None) -> None:
        slot = self.slots.setdefault(key, [0, 0.0, 0])
        if sized is None:
            self._patch(owner, name, lambda fn: _leaf(fn, slot))
        else:
            self._patch(owner, name, lambda fn: _leaf_sized(fn, slot, sized))

    # -- accounting -------------------------------------------------------

    def _settle(self) -> None:
        """Attribute leaf work since the last span boundary to the open span."""
        top = self._stack[-1] if self._stack else None
        parent = top[0] if top else BENCH
        for key, slot in self.slots.items():
            snap = self._snap.setdefault(key, [0, 0.0, 0])
            if slot == snap:
                continue
            acc = self.by_parent.setdefault((parent, key), [0, 0.0, 0])
            for i in range(3):
                acc[i] += slot[i] - snap[i]
            if top is not None:
                top[2] += slot[1] - snap[1]
            snap[:] = slot

    def _span(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            self._settle()
            if self._stack and self._stack[-1][0] == "cli" and layer in ("known", "unknown"):
                self._count("cli.engine_runs", 1)
            frame = [layer, 0.0, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                total = perf_counter() - t0
                self._settle()
                self._stack.pop()
                span = self.spans.setdefault(layer, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += total
                span[2] += total - frame[1] - frame[2]
                if self._stack:
                    self._stack[-1][1] += total
            self._observe(layer, args, kwargs, out)
            return out

        return wrapper

    def _count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _observe(self, layer: str, args, kwargs, out) -> None:
        """Engine counters read off the returned run objects."""
        history = getattr(out, "history", None)
        if history is None:
            return
        if layer == "known":
            measure = args[2] if len(args) > 2 else kwargs.get("measure")
            fanout = 3 ** measure.dim
            active = [getattr(r, "active_cells", 0) for r in history]
            self._count("known.levels", len(history))
            self._count("known.active_cells", sum(active))
            self._count("known.survivors", sum(active[1:]) / fanout)
            self._count("known.expandable_cells", sum(active[:-1]))
        elif layer == "unknown":
            self._count("unknown.levels", len(history))
            self._count("unknown.candidates", getattr(out, "enumerated_j_max", -1) + 1)
            # a candidate still live at the last level retires there as the run ends
            retired = getattr(out, "retirement_level", {})
            self._count("unknown.retired", sum(1 for lv in retired.values() if lv < out.level))

    # -- report -----------------------------------------------------------

    def layer_totals(self, prefix: str) -> tuple[int, float, int]:
        """Summed [calls, seconds, work] of every leaf slot of one layer."""
        calls, secs, work = 0, 0.0, 0
        for key, slot in self.slots.items():
            if key.startswith(prefix + "."):
                calls += slot[0]
                secs += slot[1]
                work += slot[2]
        return calls, secs, work

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the traced operation, as (value, unit)."""
        c = self.counts.get
        f_calls, f_s, f_points = self.layer_totals("f")
        grid_calls, grid_s, _ = self.layer_totals("grid")
        m_calls, m_s, m_cells = self.layer_totals("measure")
        wq_s = self.layer_totals("wquantile")[1]
        tables = self.slots.get("wquantile.ValueMassTable", [0, 0.0, 0])
        active = c("known.active_cells", 0)
        expandable = c("known.expandable_cells", 0)

        def self_s(layer: str) -> float:
            return self.spans.get(layer, [0, 0.0, 0.0])[2]

        return {
            "f.calls": (f_calls, "count"),
            "f.points": (f_points, "count"),
            "f.s": (f_s, "s"),
            "f.points_per_cell": (f_points / active if active else 0.0, "ratio"),
            "grid.calls": (grid_calls, "count"),
            "grid.self_s": (grid_s, "s"),
            "measure.calls": (m_calls, "count"),
            "measure.cells": (m_cells, "count"),
            "measure.cells_per_call": (m_cells / m_calls if m_calls else 0.0, "count"),
            "measure.self_s": (m_s, "s"),
            "wquantile.tables": (tables[0], "count"),
            "wquantile.rows": (tables[2], "count"),
            "wquantile.self_s": (wq_s, "s"),
            "known.self_s": (self_s("known"), "s"),
            "known.levels": (c("known.levels", 0), "count"),
            "known.active_cells": (active, "count"),
            "known.survivor_ratio": (c("known.survivors", 0) / expandable if expandable else 0.0, "ratio"),
            "unknown.self_s": (self_s("unknown"), "s"),
            "unknown.levels": (c("unknown.levels", 0), "count"),
            "unknown.candidates": (c("unknown.candidates", 0), "count"),
            "unknown.retired": (c("unknown.retired", 0), "count"),
            "cli.self_s": (self_s("cli"), "s"),
            "cli.engine_runs": (c("cli.engine_runs", 0), "count"),
            "problems.s": (self.layer_totals("problems")[1], "s"),
        }

    def breakdown(self) -> dict[str, list]:
        """[calls, seconds, work] per 'parent>function', for the metadata line."""
        return {f"{p}>{k}": [v[0], round(v[1], 6), v[2]] for (p, k), v in sorted(self.by_parent.items())}
