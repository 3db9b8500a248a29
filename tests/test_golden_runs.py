"""Exact outputs of both algorithms on problems that every host computes
alike.

Each case's `f`, law and engine arithmetic use only IEEE + - * / (no exp,
cos or erfc, whose last bits depend on the host's libm or SIMD), so every
level record must match `golden_runs.json` to the last bit: floats are
compared as `float.hex`.  The digest of the points handed to `f` pins every
call's batch, in order.

To record the file again, after a change that is meant to move outputs:
    PYTHONPATH=src python tests/test_golden_runs.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lipquant as lq
from lipquant.known import run_known
from lipquant.unknown import run_unknown

GOLDEN = Path(__file__).with_name("golden_runs.json")


def _poly_d3(x):
    # |grad| <= sqrt(3) on the cube
    return x[:, 0] + x[:, 1] * x[:, 2] - 0.5 * x[:, 2] * x[:, 2]


def _smoothstep_cube():
    return lq.product_measure([lq.user_marginal(lambda x: x * x * (3.0 - 2.0 * x))] * 3)


def _case(name):
    """(f, L or None, measure, alpha, budget) of the named case, whose name
    ends in its budget."""
    budget = int(float(name.rsplit("_", 1)[1]))
    if name == "linear_d1_known_1e3":
        p = lq.problems.linear_d1()
        return p.f, p.lipschitz, p.measure, p.alpha, budget
    if name.startswith("paper_d2_"):
        p = lq.problems.paper_f_d2()
        return p.f, p.lipschitz if "_known_" in name else None, p.measure, p.alpha, budget
    if name.startswith("poly_d3_smoothstep_"):
        return _poly_d3, math.sqrt(3.0) if "_known_" in name else None, _smoothstep_cube(), 0.7, budget
    raise KeyError(name)


# the last levels of the 1e6 run hold 118,845 and 356,490 rows, which the
# prune reads in several chunks; the 1e5 run ends on two one-band levels
CASES = ["linear_d1_known_1e3", "paper_d2_known_1e4", "paper_d2_unknown_1e4",
         "paper_d2_known_1e6", "paper_d2_unknown_1e5",
         "poly_d3_smoothstep_known_2000", "poly_d3_smoothstep_unknown_2000"]


def _observe(name):
    """The run of case `name` as plain JSON data."""
    f, lipschitz, measure, alpha, budget = _case(name)
    digest, sizes = hashlib.sha256(), []

    def traced(x):
        digest.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
        sizes.append(len(x))
        return f(x)

    if lipschitz is None:
        run = run_unknown(traced, measure, alpha, budget)
    else:
        run = run_known(traced, lipschitz, measure, alpha, budget)
    return {
        "history": [{"level": r.level, "estimate": r.estimate.hex(), "evaluations": r.evaluations,
                     "active_cells": r.active_cells, "active_mass": r.active_mass.hex(),
                     "frozen_mass": r.frozen_mass.hex(), "live": list(r.live)}
                    for r in run.history],
        "ledgers": {str(j): n for j, n in run.ledgers.items()},
        "retirement_level": {str(j): k for j, k in run.retirement_level.items()},
        "stop_reason": run.stop_reason,
        "f_sizes": sizes,
        "f_points_sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("name", CASES)
def test_run_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = _observe(name)
    for key in ("stop_reason", "ledgers", "retirement_level", "f_sizes", "f_points_sha256"):
        assert got[key] == want[key], key
    assert len(got["history"]) == len(want["history"])
    for g, w in zip(got["history"], want["history"]):
        assert g == w, f"level {w['level']}"


def test_linear_d1_pins_the_full_table_quantile(windowed_answers):
    # no d=1 level reaches the window's floor, so this case pins the
    # quantile of the whole table at every level, down to level 32
    got = _observe("linear_d1_known_1e3")
    assert got["history"][-1]["level"] == 32
    assert windowed_answers == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _observe(name) for name in CASES}, indent=1) + "\n")
