"""Record golden outputs for every workload and every alpha a seed can draw.

    python3 bench/record_golden.py            # rewrites bench/golden.json

`run.py --trace 1` reports the number of fields that differ from these
outputs as `check.golden_diffs`.  Re-record only when a change is meant to
alter the outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import GOLDEN, HERE, import_lipquant
from workloads import ALPHA_STEPS, WORKLOADS, FCounter, Inputs, golden_view


def main() -> int:
    lq = import_lipquant()
    golden: dict = {}
    tmpdir = tempfile.mkdtemp(prefix=".tmp-", dir=HERE)
    try:
        for wl in WORKLOADS.values():
            for step in range(-ALPHA_STEPS, ALPHA_STEPS + 1):
                inputs = Inputs.at_step(step, wl.size)
                _, out = wl.op(lq, inputs, FCounter(), tmpdir)
                problems = wl.check(out, inputs)
                if problems:
                    print(f"{wl.name} step {step}: {problems}", file=sys.stderr)
                    return 1
                golden.setdefault(wl.name, {})[str(step)] = golden_view(wl.name, out)
                print(f"{wl.name} step {step} alpha {inputs.alpha!r}: ok", file=sys.stderr)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
