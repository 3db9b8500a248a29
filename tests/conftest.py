"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import lipquant as lq
from lipquant import wquantile


def random_lipschitz_problem(rng: np.random.Generator, dim: int):
    """A random smooth function on the cube with a certified Lipschitz bound.

    Sum of a few cosine waves; the bound is the sum of |coef| * |frequency|.
    """
    k = int(rng.integers(2, 5))
    coefs = rng.normal(size=k)
    freqs = rng.uniform(0.5, 6.0, size=(k, dim))
    phases = rng.uniform(0, 2 * np.pi, size=k)

    def f(x, coefs=coefs, freqs=freqs, phases=phases):
        x = np.asarray(x, dtype=float)
        return sum(c * np.cos(x @ w + p) for c, w, p in zip(coefs, freqs, phases))

    lip = float(sum(abs(c) * np.linalg.norm(w) for c, w in zip(coefs, freqs)))
    return f, max(lip, 1e-3)


@pytest.fixture(scope="session")
def paper_d1():
    return lq.paper_f_d1()


@pytest.fixture(scope="session")
def paper_d2():
    return lq.paper_f_d2()


@pytest.fixture(scope="session")
def paper_d1_quantile(paper_d1):
    """Root-refined reference quantile, accurate to ~1e-13."""
    from oracles import refined_quantile_d1

    return refined_quantile_d1(paper_d1)


@pytest.fixture(scope="session")
def paper_d1_deep_run(paper_d1):
    """One deep known-constant run reused by every budget-sweep test."""
    return lq.run_known(
        paper_d1.f, paper_d1.lipschitz, paper_d1.measure, paper_d1.alpha, 2000
    )


@pytest.fixture(scope="session")
def paper_d2_deep_run(paper_d2):
    return lq.run_known(
        paper_d2.f, paper_d2.lipschitz, paper_d2.measure, paper_d2.alpha, 2000
    )


@pytest.fixture
def windowed_answers(monkeypatch):
    """Whether each window read of `wquantile.level_quantiles` answered, in
    call order: one call per level of at least `WINDOW_FLOOR` rows."""
    windowed, answered = wquantile._windowed, []

    def counted(*args):
        out = windowed(*args)
        answered.append(out is not None)
        return out

    monkeypatch.setattr(wquantile, "_windowed", counted)
    return answered


@pytest.fixture
def summarized_answers(monkeypatch):
    """Whether each summary read of `wquantile.level_quantiles` answered, in
    call order: one per level with ineligible frozen rows.  A summary read
    is a `_read` with a `span`, of a window, which the whole summary table
    follows where it declines, or of that table, which ends it."""
    read, answered = wquantile._read, []

    def counted(table, alpha, chunks, window=None, span=None):
        out = read(table, alpha, chunks, window, span)
        if span is not None and (out is not None or window is None):
            answered.append(out is not None)
        return out

    monkeypatch.setattr(wquantile, "_read", counted)
    return answered


def summary_off(monkeypatch):
    """Make every summary read of `wquantile.level_quantiles` decline, so
    that each level is read with every frozen row."""
    read = wquantile._read
    monkeypatch.setattr(wquantile, "_read", lambda table, alpha, chunks, window=None, span=None:
                        None if span else read(table, alpha, chunks, window))
