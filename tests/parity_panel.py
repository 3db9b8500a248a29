"""A panel of 957 runs of both algorithms, each hashed to one SHA-256.

Each line it prints is `key sha256`: the run's key, and a digest over every
`LevelRecord` field (floats as `float.hex`), the ledgers, the retirement
levels and the stop reason, or over the type and message of the exception
the run raised.  A change meant to keep outputs identical keeps every line.

The panel:
  - the builtins paper_d1, paper_d2 and linear_d1 at 5 alpha and N in
    {50, 2000, 20000}, both algorithms (90 runs);
  - 60 random problems of `tests/conftest.py` at d = 1..3 under truncated
    normals, with L, 0.2 L, 0.05 L and unknown L at the same N (720);
  - f = s + x for s in {0, 10, 1000} at 15 alpha, both algorithms at 1e4 (90);
  - paper_d2 at the benchmark's 17 alpha, known at 1e6 and 96,000 and
    unknown at 1e5 (51);
  - f = x1 + phi*x2 at 3 alpha under L and 0.2 L, N = 3e5 (6).

A key starts with its law.  The `uniform/` runs use IEEE + - * / alone, as
the golden runs do, so every host computes them alike; the `normal/` runs
call erfc and cos, whose last bits depend on the host.

    PYTHONPATH=src python tests/parity_panel.py > digests.txt
    PYTHONPATH=src python tests/parity_panel.py --check digests.txt

`--check FILE` runs the runs FILE lists, prints the key of each run whose
digest moved or that the panel no longer has, and exits 1 if there is one.
`parity_uniform.txt` holds the digests of the `uniform/` runs, recorded with
    PYTHONPATH=src python tests/parity_panel.py | grep '^uniform/' > tests/parity_uniform.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for conftest

import lipquant as lq  # noqa: E402
from conftest import random_lipschitz_problem  # noqa: E402

BUILTIN_ALPHAS = (0.01, 1 / 3, 0.5, 0.9, 0.999)
BUDGETS = (50, 2000, 20000)
SHIFT_ALPHAS = tuple(np.linspace(0.03, 0.97, 15).tolist())
BENCH_ALPHAS = tuple(0.999 + step * 2e-6 for step in range(-8, 9))  # as bench/workloads.py
PHI = (1 + math.sqrt(5)) / 2


def _shift(s):
    return lambda x: s + x[:, 0]


def _tie_free(x):
    return x[:, 0] + PHI * x[:, 1]


def _random(seed):
    """Seed's problem: d = 1 + seed % 3, `random_lipschitz_problem`, then
    per axis a truncated normal with mu ~ U(0.2, 0.8) and sigma ~ U(0.1,
    0.5), then alpha ~ U(0.05, 0.95)."""
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 3
    f, lipschitz = random_lipschitz_problem(rng, dim)
    laws = [lq.truncated_normal_marginal(rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.5))
            for _ in range(dim)]
    return f, lipschitz, lq.product_measure(laws), float(rng.uniform(0.05, 0.95))


def panel():
    """(key, thunk) per run, the thunk giving (f, L or None, measure, alpha,
    budget); a problem is built only when its run is."""
    runs = []

    def add(key, build, lipschitz_scale, budget):
        def thunk():
            f, lipschitz, measure, alpha = build()
            scaled = None if lipschitz_scale is None else lipschitz * lipschitz_scale
            return f, scaled, measure, alpha, budget
        runs.append((key, thunk))

    def builtin(name, alpha):
        p = lq.problems.BUILTIN_PROBLEMS[name](alpha)
        return p.f, p.lipschitz, p.measure, p.alpha

    for name, law in (("paper_d1", "normal"), ("paper_d2", "uniform"), ("linear_d1", "uniform")):
        for alpha in BUILTIN_ALPHAS:
            for n in BUDGETS:
                for algo, scale in (("known", 1.0), ("unknown", None)):
                    add(f"{law}/{name}/{algo}/{alpha!r}/{n}",
                        lambda name=name, alpha=alpha: builtin(name, alpha), scale, n)
    for seed in range(60):
        for algo, scale in (("L", 1.0), ("0.2L", 0.2), ("0.05L", 0.05), ("unknown", None)):
            for n in BUDGETS:
                add(f"normal/random_{seed}/{algo}/{n}", lambda seed=seed: _random(seed), scale, n)
    for s in (0, 10, 1000):
        for alpha in SHIFT_ALPHAS:
            for algo, scale in (("known", 1.0), ("unknown", None)):
                add(f"uniform/{s}+x/{algo}/{alpha!r}/10000",
                    lambda s=s, alpha=alpha: (_shift(s), 1.0, lq.uniform_cube(1), alpha), scale, 10 ** 4)
    for alpha in BENCH_ALPHAS:
        for algo, scale, n in (("known", 1.0, 10 ** 6), ("known", 1.0, 96_000), ("unknown", None, 10 ** 5)):
            add(f"uniform/paper_d2/{algo}/{alpha!r}/{n}",
                lambda alpha=alpha: builtin("paper_d2", alpha), scale, n)
    for alpha in (0.5, 0.9, 0.999):
        for algo, scale in (("L", 1.0), ("0.2L", 0.2)):
            add(f"uniform/tie_free_d2/{algo}/{alpha!r}/300000",
                lambda alpha=alpha: (_tie_free, math.sqrt(1 + PHI ** 2), lq.uniform_cube(2), alpha),
                scale, 3 * 10 ** 5)
    return runs


def digest(thunk) -> str:
    """The SHA-256 of the outputs of one run, or of the exception it raised."""
    try:
        f, lipschitz, measure, alpha, budget = thunk()
        if lipschitz is None:
            run = lq.run_unknown(f, measure, alpha, budget)
        else:
            run = lq.run_known(f, lipschitz, measure, alpha, budget)
    except Exception as e:  # a raised exception is an output too
        text = repr(("raised", type(e).__name__, str(e)))
    else:
        records = [[float.hex(v) if isinstance(v, float) else v
                    for v in (getattr(r, field.name) for field in dataclasses.fields(r))]
                   for r in run.history]
        text = repr((records, sorted(run.ledgers.items()), sorted(run.retirement_level.items()),
                     run.stop_reason))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE", help="compare with the digests FILE lists")
    args = parser.parse_args(argv)
    runs = panel()
    if len({k for k, _ in runs}) != len(runs):
        raise AssertionError("two runs share a key")
    if not args.check:
        for key, thunk in runs:
            print(key, digest(thunk), flush=True)
        return 0
    want = dict(line.split() for line in Path(args.check).read_text().splitlines() if line)
    thunks = dict(runs)
    moved = [k for k, d in want.items() if k not in thunks or digest(thunks[k]) != d]
    for key in moved:
        print("moved:", key)
    print(f"{len(want) - len(moved)} of {len(want)} runs unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
