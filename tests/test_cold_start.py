"""Cold start: the package, the uniform law and both algorithms load NumPy only.

SciPy is imported by `truncated_normal_marginal` alone (and by the tests'
d=1 root-refined oracle), so a process that never builds a truncated normal
never pays for it.  Likewise `fractions` is imported by `verify_separation`
alone.  Each check runs in a fresh interpreter, since this test process
has SciPy loaded already.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lipquant

SRC = str(Path(lipquant.__file__).resolve().parents[1])

NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises

import lipquant as lq
from lipquant.cli import main

p = lq.paper_f_d2()
known = lq.run_known(p.f, p.lipschitz, p.measure, p.alpha, budget=5000)
assert known.bracket.lower <= p.true_quantile <= known.bracket.upper
unknown = lq.run_unknown(p.f, p.measure, p.alpha, budget=5000)
assert abs(unknown.estimate - p.true_quantile) < 0.1
argv = ["run", "--problem", "paper_d2", "--budgets", "1000:20000:1000", "--out", sys.argv[1]]
assert main(argv) == 0
print("ok")
"""

TRUNCATED_NORMAL = """
import sys
import lipquant as lq

assert "scipy.special" not in sys.modules
lq.truncated_normal_marginal(0.2, 0.2)
assert "scipy.special" in sys.modules
print("ok")
"""

FRACTIONS = """
import sys
import lipquant as lq

assert "fractions" not in sys.modules and "decimal" not in sys.modules
assert lq.verify_separation(lq.build_adversary_d1([0.1, 0.9])).passed
assert "fractions" in sys.modules
print("ok")
"""


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_uniform_path_runs_without_scipy(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_fresh(NO_SCIPY, str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ok"]
    assert len(out.read_text().splitlines()) == 21  # header + 20 budgets


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="scipy not installed")
def test_truncated_normal_imports_scipy_special():
    res = run_fresh(TRUNCATED_NORMAL)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ok"]


def test_only_the_optimality_check_imports_fractions():
    res = run_fresh(FRACTIONS)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ok"]
