"""Product measures: CDFs, cell probabilities, mass conservation."""

import itertools

import numpy as np
import pytest
from scipy.stats import truncnorm

from lipquant.measure import (
    Marginal,
    product_measure,
    truncated_normal_marginal,
    uniform_cube,
    uniform_marginal,
    user_marginal,
)

from oracles import MultiIndex, cell_probability, child_digits


def scipy_truncnorm_cdf(x, mu, sigma):
    """Independent oracle for the truncated normal CDF."""
    a, b = (0.0 - mu) / sigma, (1.0 - mu) / sigma
    return truncnorm.cdf(x, a, b, loc=mu, scale=sigma)


class TestUniform:
    def test_examples(self):
        m = uniform_marginal()
        assert m.cdf(np.array(0.0)) == 0.0
        assert m.cdf(np.array(0.25)) == 0.25
        assert m.cdf(np.array(1.0)) == 1.0


class TestTruncatedNormal:
    def test_normalization(self):
        m = truncated_normal_marginal(0.2, 0.2)
        assert float(m.cdf(np.array(0.0))) == pytest.approx(0.0, abs=1e-15)
        assert float(m.cdf(np.array(1.0))) == pytest.approx(1.0, abs=1e-15)

    def test_golden_value_at_mean(self):
        # (Phi(0) - Phi(-1)) / (Phi(4) - Phi(-1)), cross-checked with scipy
        m = truncated_normal_marginal(0.2, 0.2)
        got = float(m.cdf(np.array(0.2)))
        assert got == pytest.approx(0.40572856440968985, abs=1e-12)
        assert got == pytest.approx(scipy_truncnorm_cdf(0.2, 0.2, 0.2), abs=1e-12)

    def test_symmetric_truncation(self):
        m = truncated_normal_marginal(0.5, 0.1)
        assert float(m.cdf(np.array(0.5))) == pytest.approx(0.5, abs=1e-12)

    def test_matches_scipy_on_grid(self):
        m = truncated_normal_marginal(0.2, 0.2)
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(m.cdf(x), scipy_truncnorm_cdf(x, 0.2, 0.2), atol=1e-12)

    def test_nondecreasing(self):
        m = truncated_normal_marginal(0.2, 0.2)
        v = np.asarray(m.cdf(np.linspace(0, 1, 1000)))
        assert np.all(np.diff(v) >= 0)

    def test_survival_function(self):
        m = truncated_normal_marginal(0.2, 0.2)
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(m.sf(x), 1.0 - scipy_truncnorm_cdf(x, 0.2, 0.2), atol=1e-12)
        # near 1, where 1 - cdf(x) cancels, sf keeps its relative accuracy
        x = 1.0 - np.array([1e-6, 1e-9])
        want = truncnorm.sf(x, -1.0, 4.0, loc=0.2, scale=0.2)
        np.testing.assert_allclose(m.sf(x), want, rtol=1e-7)
        assert m.sf(np.array(1.0)) == 0.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            truncated_normal_marginal(0.2, 0.0)

    @pytest.mark.parametrize("mu, sigma", [(np.nan, 0.2), (np.inf, 0.2), (-np.inf, 0.2),
                                           (0.2, np.nan), (0.2, np.inf)])
    def test_rejects_non_finite_parameters(self, mu, sigma):
        with pytest.raises(ValueError, match=r"mu and sigma must be finite, got "
                                             rf"mu={mu}, sigma={sigma}"):
            truncated_normal_marginal(mu, sigma)

    @pytest.mark.parametrize("mu", [40.0, -40.0])
    def test_rejects_a_law_without_mass_on_the_cube(self, mu):
        # before the check, a run on such a law failed late, with a
        # RuntimeWarning and "masses must be >= 0, got nan"
        with pytest.raises(ValueError, match=rf"mu={mu}, sigma=0.5 put a mass on \[0,1\] "
                                             "that rounds to 0"):
            truncated_normal_marginal(mu, 0.5)


class TestCellProbability:
    def test_uniform_d2_level1(self):
        m = uniform_cube(2)
        assert cell_probability(m, MultiIndex(1, (0, 2))) == pytest.approx(1 / 9, abs=1e-15)

    def test_uniform_d1_level2(self):
        m = uniform_cube(1)
        assert cell_probability(m, MultiIndex(2, (5,))) == pytest.approx(1 / 9, abs=1e-15)

    def test_truncated_normal_first_cell(self):
        m = product_measure([truncated_normal_marginal(0.2, 0.2)])
        got = cell_probability(m, MultiIndex(1, (0,)))
        # P(X in [0, 1/3)) = cdf(1/3); golden value from the scipy oracle
        assert got == pytest.approx(0.6999204293156972, abs=1e-12)
        assert got == pytest.approx(scipy_truncnorm_cdf(1 / 3, 0.2, 0.2), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        m = product_measure(
            [truncated_normal_marginal(0.2, 0.2), uniform_marginal()]
        )
        cells = [(0, 0), (1, 2), (2, 1)]
        vec = m.cell_probabilities(1, cells)
        for c, p in zip(cells, vec):
            assert p == pytest.approx(cell_probability(m, MultiIndex(1, c)), abs=1e-15)


MEASURES = [
    uniform_cube(1),
    product_measure([truncated_normal_marginal(0.2, 0.2)]),
    uniform_cube(2),
    product_measure([truncated_normal_marginal(0.2, 0.2), uniform_marginal()]),
]


class TestMassConservation:
    @pytest.mark.parametrize("m", MEASURES, ids=lambda m: f"d{m.dim}")
    def test_full_level_sums_to_one(self, m):
        max_k = 6 if m.dim == 1 else 4
        for k in range(max_k + 1):
            cells = list(itertools.product(range(3 ** k), repeat=m.dim))
            total = float(np.sum(m.cell_probabilities(k, cells)))
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", MEASURES, ids=lambda m: f"d{m.dim}")
    def test_refinement_consistency(self, m):
        rng = np.random.default_rng(7)
        for k in range(4):
            digits = tuple(int(rng.integers(0, 3 ** k)) for _ in range(m.dim))
            parent = cell_probability(m, MultiIndex(k, digits))
            kids = child_digits(digits)
            total = float(np.sum(m.cell_probabilities(k + 1, kids)))
            assert total == pytest.approx(parent, abs=1e-12)

    @pytest.mark.parametrize("level, rtol", [(20, 1e-5), (25, 1e-3)])
    def test_deep_cells_near_one(self, level, rtol):
        # cdf(b) - cdf(a) near x = 1 is a multiple of the ulp of 1, 18% off
        # at level 25 (and 0 or 250 times the mass at level 32); the upper
        # tail takes sf(a) - sf(b) instead
        m = product_measure([truncated_normal_marginal(0.2, 0.2)])
        digits = 3 ** level - 1 - np.arange(0, 3 ** (level - 12), 3 ** (level - 15))
        got = m.cell_probabilities(level, digits[:, None])
        mid = (digits + 0.5) / 3 ** level
        want = truncnorm.pdf(mid, -1.0, 4.0, loc=0.2, scale=0.2) / 3 ** level
        np.testing.assert_allclose(got, want, rtol=rtol)

    def test_monotone_in_box(self):
        m = truncated_normal_marginal(0.2, 0.2)
        # enlarging an interval never decreases its probability
        lo, hi = 0.3, 0.5
        base = float(m.cdf(np.array(hi)) - m.cdf(np.array(lo)))
        wider = float(m.cdf(np.array(hi + 0.2)) - m.cdf(np.array(lo - 0.2)))
        assert wider >= base


def _square_cdf(x):
    """A user CDF for scalars and 1-D arrays, the input user_marginal probes."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ValueError(f"1-D input only, got shape {x.shape}")
    return x ** 2


MARGINALS = {
    "uniform": uniform_marginal,
    "user": lambda: user_marginal(_square_cdf),
    "truncated_normal": lambda: truncated_normal_marginal(0.3, 0.25),
}


def _edge_parents(level, median):
    """Level-`level` digits next to 0, next to 1 and on both sides of `median`."""
    top = 3 ** level
    mid = int(median * top)
    return sorted({b for b in (0, 1, 2, mid - 1, mid, mid + 1, top - 3, top - 2, top - 1)
                   if 0 <= b < top})


class TestChildProbabilities:
    """child_probabilities(k, P) is cell_probabilities(k, children of P), bit for bit."""

    @pytest.mark.parametrize("kind", sorted(MARGINALS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("level", [1, 13, 20, 32])
    def test_equals_cell_probabilities_of_children(self, kind, dim, level):
        marginal = MARGINALS[kind]()
        m = product_measure([marginal] * dim)
        median = float(m.marginal_quantile(0, np.array(0.5)))
        axis = _edge_parents(level - 1, median)
        parents = np.array(list(itertools.product(axis, repeat=dim)), dtype=np.int64)
        kids = [child_digits(tuple(b)) for b in parents.tolist()]
        want = m.cell_probabilities(level, np.array(kids).reshape(-1, dim))
        got = m.child_probabilities(level, parents)
        assert got.shape == (len(parents), 3 ** dim)
        assert np.array_equal(got, want.reshape(len(parents), 3 ** dim))
        if kind == "truncated_normal" and level > 1:
            # children on both sides of cdf = 1/2: both branches of the steps
            lower_edges = marginal.cdf(np.array(kids).ravel() / 3 ** level)
            assert (lower_edges > 0.5).any() and (lower_edges <= 0.5).any()

    def test_mixed_marginals(self):
        m = product_measure([truncated_normal_marginal(0.6, 0.1), uniform_marginal(),
                             user_marginal(_square_cdf)])
        rng = np.random.default_rng(3)
        parents = rng.integers(0, 3 ** 7, (50, 3))
        kids = np.array([child_digits(tuple(b)) for b in parents.tolist()]).reshape(-1, 3)
        want = m.cell_probabilities(8, kids).reshape(50, 27)
        assert np.array_equal(m.child_probabilities(8, parents), want)

    def test_no_parents(self):
        m = uniform_cube(2)
        assert m.child_probabilities(3, np.zeros((0, 2), dtype=np.int64)).shape == (0, 9)


class TestInverseAndSampling:
    def test_marginal_quantile_roundtrip(self):
        m = product_measure([truncated_normal_marginal(0.2, 0.2)])
        u = np.array([0.1, 0.4057285644, 0.9])
        x = m.marginal_quantile(0, u)
        np.testing.assert_allclose(m.marginals[0].cdf(x), u, atol=1e-10)

    def test_default_tol_keeps_its_forty_halvings(self):
        # the loop that stops on an unsplittable bracket gives the old loop's
        # results bit for bit at the default tol
        m = product_measure([truncated_normal_marginal(0.2, 0.2)])
        u = np.random.default_rng(5).random(200)
        lo, hi = np.zeros_like(u), np.ones_like(u)
        for _ in range(40):  # 2^-40 is the first width <= 1e-12
            mid = 0.5 * (lo + hi)
            below = m.marginals[0].cdf(mid) < u
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        assert np.array_equal(m.marginal_quantile(0, u), 0.5 * (lo + hi))

    def test_tol_below_float_spacing_terminates(self):
        # the bracket cannot shrink below one ulp, so tol = 1e-300 used to
        # bisect forever; the CDF refuses to be called that often
        calls = []

        def cdf(x):
            calls.append(1)
            assert len(calls) < 200, "bisection does not terminate"
            return np.asarray(x, dtype=float)

        m = product_measure([Marginal(cdf=cdf, kind="uniform")])
        u = np.array([0.1, 0.7, 0.999])
        x = m.marginal_quantile(0, u, tol=1e-300)
        assert np.all(np.abs(x - u) <= np.spacing(u))

    @pytest.mark.parametrize("tol", [0.0, -1e-12, np.nan, np.inf])
    def test_invalid_tol_rejected(self, tol):
        m = uniform_cube(1)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            m.marginal_quantile(0, np.array(0.5), tol=tol)

    def test_sampling_deterministic(self):
        m = product_measure([truncated_normal_marginal(0.2, 0.2), uniform_marginal()])
        a = m.sample(50, np.random.default_rng(3))
        b = m.sample(50, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (50, 2)
        assert np.all((a >= 0) & (a <= 1))

    def test_user_marginal(self):
        m = user_marginal(lambda x: np.asarray(x) ** 2)  # law of sqrt(U)
        assert m.kind == "user_cdf"
        pm = product_measure([m])
        assert cell_probability(pm, MultiIndex(1, (2,))) == pytest.approx(1 - 4 / 9, abs=1e-15)


class TestUserMarginalContract:
    # a CDF that is not one used to surface as "sup/inf estimator mismatch"
    @pytest.mark.parametrize("cdf, message", [
        (lambda x: 2 * np.asarray(x), r"cdf\(1\) = 1"),
        (lambda x: np.asarray(x) + 0.5, r"cdf\(0\) = 0"),
        (lambda x: np.where(np.asarray(x) < 0.5, np.asarray(x), 1.5 * np.asarray(x) - 0.5),
         r"non-decreasing"),
        (lambda x: 0.5, r"same shape"),
    ])
    def test_rejects_non_cdf(self, cdf, message):
        with pytest.raises(ValueError, match=message):
            user_marginal(cdf)

    def test_reports_first_decrease(self):
        # increasing except for a dip on (0.5, 0.6); 0.5 lies between the
        # probe points 364/729 and 365/729
        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.5) & (x < 0.6), x - 0.2, x)

        with pytest.raises(ValueError, match=r"but cdf\(0\.49931\d*\) = 0\.49931\d* "
                                             r"and cdf\(0\.50068\d*\) = 0\.30068"):
            user_marginal(cdf)

