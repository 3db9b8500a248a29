"""Benchmark of lipquant on three paper workloads, with per-layer timings.

    python3 bench/run.py --workload known_d2 --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` next to this
directory, never from an installed copy.  One process runs one workload, one
operation at a time, on one thread, until the next operation is expected to end
past `--seconds` (at least one operation runs).  Every operation's output is
checked; a failed check or a raised exception counts in `failed`.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced operations and reports the per-layer metrics (see layers.py).
The last line of standard output is the result object; the line before it
holds the run's metadata (seed, alpha, sample counts, host and versions).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 7

# Host speed.  On a shared host the CPU's speed drifts by up to 40% in spells
# of 30 s to minutes, long enough to hold a whole run at one speed.  A fixed
# pure-Python loop, timed REF_SAMPLES times before every operation and every
# set-up sample, drifts with it.  Every end-to-end time is reported at the
# reference speed: multiplied by REF_S / (the loop's median time over the same
# phase of the run, set-up or operations).
REF_LOOP = 300_000
REF_S = 0.030  # the loop's time at the reference speed
REF_SAMPLES = 5

# set-up as a user pays it: a fresh interpreter imports the package and
# builds the problem
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import lipquant
lipquant.paper_f_d2(float(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""

sys.path.insert(0, str(HERE))
from layers import LayerTrace  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    FCounter,
    Inputs,
    abs_error,
    count_diffs,
    golden_view,
    halfwidth,
    panel,
)


def import_lipquant():
    """The package under src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import lipquant

    for module in ("cli", "grid", "known", "measure", "problems", "unknown"):
        importlib.import_module(f"lipquant.{module}")
    if not Path(lipquant.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported lipquant from {lipquant.__file__}, not {SRC}")
    return lipquant


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch lipquant."""
    t0 = perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return perf_counter() - t0


def sample_reference(ref: list[float]) -> None:
    ref.extend(reference_loop() for _ in range(REF_SAMPLES))


def measure_setup(alpha: float, ref: list[float]) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        sample_reference(ref)
        res = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, repr(alpha)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(res.stdout.split()[-1]))
    return times


def one_op(lq, wl, inputs: Inputs, tmpdir: str, traced: bool) -> dict:
    counter = FCounter()
    rec: dict = {"inputs": inputs, "traced": traced, "layers": None}
    # every operation starts with the previous one's garbage collected, so
    # that none pays for a collection the one before it left pending
    gc.collect()
    t0 = perf_counter()
    try:
        if traced:
            with LayerTrace(counter.slot) as trace:
                wall, out = wl.op(lq, inputs, counter, tmpdir)
            rec["layers"] = trace.metrics()
            rec["breakdown"] = trace.breakdown()
        else:
            wall, out = wl.op(lq, inputs, counter, tmpdir)
        problems = wl.check(out, inputs)
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        wall, out, problems = perf_counter() - t0, None, ["raised"]
    rec.update(wall=wall, f_s=counter.slot[1], f_points=counter.slot[2], out=out, problems=problems)
    return rec


def run_ops(lq, wl, inputs: list[Inputs], seconds: float, trace: bool, ref: list[float]) -> list[dict]:
    """Operations until the next one is expected to end past `seconds`.

    Untraced, the operations cycle through the panel in order.  Traced, they
    alternate an untraced and a traced operation on the panel's first alpha,
    and the run stops only after a traced one.  At least one unit runs.
    The reference loop is sampled into `ref` before every operation.
    """
    if trace:
        units = [[(inputs[0], False), (inputs[0], True)]]
    else:
        units = [[(i, False)] for i in inputs]
    records: list[dict] = []
    tmpdir = tempfile.mkdtemp(prefix=".tmp-", dir=HERE)
    try:
        start = perf_counter()
        for unit in itertools.cycle(units):
            for i, traced in unit:
                sample_reference(ref)
                records.append(one_op(lq, wl, i, tmpdir, traced))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(records) * len(unit) > seconds:
                return records
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def mark_failures(records: list[dict]) -> int:
    """Failed operations: a failed check, or an output unlike the first one.

    Operations on the same inputs must return identical outputs, whether
    traced or not.
    """
    first: dict = {}
    for i, r in enumerate(records):
        if not r["problems"]:
            reference = first.setdefault(r["inputs"], r["out"])
            if r["out"] != reference:
                r["problems"] = ["output differs from the first output on the same inputs"]
        for p in r["problems"]:
            print(f"bench: operation {i} failed: {p}", file=sys.stderr)
    return sum(1 for r in records if r["problems"])


def end_to_end(wl, records: list[dict], ref: list[float], setup: list[float], setup_ref: list[float]) -> dict:
    """The end-to-end metrics; times are at the reference speed (see REF_S)."""
    scale = REF_S / statistics.median(ref)
    passed = [r for r in records if not r["problems"]]
    return {
        "run_s": (statistics.median(r["wall"] for r in records) * scale, "s"),
        "overhead_us_per_eval": (statistics.median(
            (r["wall"] - r["f_s"]) / max(r["f_points"], 1) for r in records) * scale * 1e6, "us"),
        "bracket_halfwidth": (
            statistics.median(halfwidth(wl.name, r["out"]) for r in passed) if passed else 0.0, "value"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup) * REF_S / statistics.median(setup_ref), "s"),
        "pass_ratio": (len(passed) / len(records), "ratio"),
    }


def per_layer(wl, records: list[dict]) -> dict:
    traced = [r for r in records if r["layers"] is not None]
    plain = [r for r in records if not r["traced"]]
    # with no traced operation to read, every layer reports zero
    metrics = LayerTrace([0, 0.0, 0]).metrics()
    if traced:
        metrics = {k: (statistics.median(r["layers"][k][0] for r in traced), unit)
                   for k, (_, unit) in metrics.items()}
    passed = [r for r in records if not r["problems"]]
    out = passed[0]["out"] if passed else None
    inputs = records[0]["inputs"]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    expected = golden.get(wl.name, {}).get(str(inputs.step))
    metrics.update({
        "cli.rows": (len(out["rows"]) if out and "rows" in out else 0, "count"),
        "check.golden_diffs": (count_diffs(golden_view(wl.name, out), expected) if out else -1, "count"),
        "check.abs_error": (abs_error(wl.name, out, inputs.q) if out else -1.0, "value"),
        "trace.overhead_ratio": (
            statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in plain)
            if traced and plain else 0.0, "ratio"),
    })
    return metrics


def host_info(lq) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lipquant": getattr(lq, "__version__", None),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    wl = WORKLOADS[args.workload]
    inputs = panel(args.seed, wl.size, wl.alphas_per_run)
    if not (SRC / "lipquant" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/lipquant; run from a full checkout", file=sys.stderr)
        return 2
    ref: list[float] = []
    setup_ref: list[float] = []
    setup = [] if args.trace else measure_setup(inputs[0].alpha, setup_ref)
    lq = import_lipquant()

    records = run_ops(lq, wl, inputs, args.seconds, bool(args.trace), ref)
    failed = mark_failures(records)
    metrics = per_layer(wl, records) if args.trace else end_to_end(wl, records, ref, setup, setup_ref)

    meta = {
        "workload": wl.name, "seed": args.seed, "alphas": [i.alpha for i in inputs],
        "size": wl.size, "seconds": args.seconds, "trace": args.trace,
        "samples": {"untraced": sum(not r["traced"] for r in records),
                    "traced": sum(r["traced"] for r in records), "setup": len(setup)},
        "walls_s": [r["wall"] for r in records], "setup_s": setup,
        "ref_s": {"at_reference_speed": REF_S, "median": statistics.median(ref), "samples": len(ref),
                  "setup_median": statistics.median(setup_ref) if setup_ref else None,
                  "setup_samples": len(setup_ref)},
        "host": host_info(lq),
    }
    if args.trace:
        meta["by_parent"] = next((r["breakdown"] for r in records if r["layers"]), None)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
