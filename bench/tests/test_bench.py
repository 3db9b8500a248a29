"""Tests of the benchmark itself, at tiny budgets.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTrace  # noqa: E402

lq = run.import_lipquant()

TINY = {"known_d2": 2000, "unknown_d2": 500, "cli_sweep_d2": "100:1000:100"}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], size=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_check(name, trace):
    wl = tiny(name)
    ref: list[float] = []
    records = run.run_ops(lq, wl, workloads.panel(5, wl.size, 2), 0.0, trace, ref)
    # with no time left the run stops after its first unit: one operation,
    # or an untraced and a traced one
    assert [r["traced"] for r in records] == ([False, True] if trace else [False])
    assert run.mark_failures(records) == 0
    assert len(ref) == run.REF_SAMPLES * len(records)
    metrics = run.per_layer(wl, records) if trace else run.end_to_end(wl, records, ref, [0.5], ref)
    assert all(isinstance(v, (int, float)) for v, _unit in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_reference_quantile_is_a_failure(name, tmp_path):
    wl = tiny(name)
    inputs = workloads.Inputs.at_step(0, wl.size)
    wrong = dataclasses.replace(inputs, q=inputs.q + 10.0)
    records = [run.one_op(lq, wl, wrong, str(tmp_path), traced=False)]
    assert records[0]["problems"]
    assert run.mark_failures(records) == 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    wl = tiny(name)
    inputs = workloads.Inputs.at_step(-3, wl.size)
    plain = run.one_op(lq, wl, inputs, str(tmp_path), traced=False)
    traced = run.one_op(lq, wl, inputs, str(tmp_path), traced=True)
    assert plain["out"] == traced["out"]
    assert traced["layers"]["f.points"][0] == plain["f_points"] > 0
    if name == "unknown_d2":
        # the run ends when the last live candidate retires, at its last level
        layers = traced["layers"]
        assert 0 <= layers["unknown.retired"][0] < layers["unknown.candidates"][0]
    # the tracer puts every name back
    assert lq.known.run_known.__module__ == "lipquant.known"
    assert lq.measure.ProductMeasure.cell_probabilities.__qualname__ == "ProductMeasure.cell_probabilities"


def test_missing_name_counts_as_zero_calls(monkeypatch):
    monkeypatch.delattr(lq.unknown, "center_child_digits")
    counter = workloads.FCounter()
    with LayerTrace(counter.slot) as trace:
        pass
    assert trace.slots["grid.center_child_digits"] == [0, 0.0, 0]
    assert not hasattr(lq.unknown, "center_child_digits")


def test_a_raised_exception_is_a_failure(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(lq.known, "run_known", broken)
    records = [run.one_op(lq, tiny("known_d2"), workloads.Inputs.at_step(0, 2000), str(tmp_path), False)]
    assert run.mark_failures(records) == 1


def test_seed_draws_alphas_near_the_paper_value():
    assert [i.alpha for i in workloads.panel(0, None, 3)] == [0.999] * 3
    for seed in range(1, 50):
        steps = workloads.alpha_steps_for_seed(seed, 8)
        assert steps == workloads.alpha_steps_for_seed(seed, 8)
        assert len(set(steps)) == 8 and 0 not in steps
        assert all(abs(s) <= workloads.ALPHA_STEPS for s in steps)
    i = workloads.panel(11, None, 1)[0]
    assert i.q == lq.paper_f_d2(i.alpha).true_quantile


def test_times_are_reported_at_the_reference_speed():
    records = [{"wall": 2.0, "f_s": 0.5, "f_points": 1000, "problems": [], "out": {"estimate": 0.0, "upper": 0.1}}]
    at_speed = run.end_to_end(tiny("known_d2"), records, [run.REF_S], [0.4], [run.REF_S])
    # set-up is scaled by the loop's speed during set-up, operations by its
    # speed during the operations
    slow = run.end_to_end(tiny("known_d2"), records, [2 * run.REF_S] * 3, [0.4], [4 * run.REF_S])
    assert at_speed["run_s"][0] == 2.0 and at_speed["setup_s"][0] == 0.4
    assert at_speed["overhead_us_per_eval"][0] == pytest.approx(1500.0)
    assert slow["run_s"][0] == 1.0 and slow["setup_s"][0] == 0.1


def test_count_diffs():
    assert workloads.count_diffs({"a": [1, 2.0], "b": 3}, {"a": [1, 2.0], "b": 3}) == 0
    assert workloads.count_diffs({"a": [1, 2.5], "b": 3}, {"a": [1, 2.0, 7]}) == 3
    assert workloads.count_diffs({"a": 1}, None) == 1


def test_golden_covers_every_workload_and_alpha():
    golden = json.loads(run.GOLDEN.read_text())
    steps = {str(s) for s in range(-workloads.ALPHA_STEPS, workloads.ALPHA_STEPS + 1)}
    assert set(golden) == set(workloads.WORKLOADS)
    assert all(set(g) == steps for g in golden.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "known_d2", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
