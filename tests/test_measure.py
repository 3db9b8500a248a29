"""Product measures: CDFs, cell probabilities, mass conservation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import truncnorm

from lipquant.known import run_known
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

    @pytest.mark.parametrize("build, name", [(lambda: product_measure([]), "marginals"),
                                             (lambda: uniform_cube(0), "dim"),
                                             (lambda: product_measure([0.5]), "marginals")],
                             ids=["product-of-none", "cube-of-dim-0", "product-of-a-float"])
    def test_a_cube_of_no_axes_is_refused(self, build, name):
        # accepted, and a run on it died in "cannot reshape array of size 0",
        # or on a float axis in "'float' object has no attribute 'cdf'"
        with pytest.raises(ValueError, match=f"^{name} must "):
            build()


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

    def test_fractions_are_real_parameters(self):
        # np.isfinite raised a TypeError on a Fraction
        x = np.linspace(0, 1, 11)
        m = truncated_normal_marginal(Fraction(1, 5), Fraction(1, 5))
        assert np.array_equal(m.cdf(x), truncated_normal_marginal(0.2, 0.2).cdf(x))
        with pytest.raises(ValueError, match="sigma must be positive"):
            truncated_normal_marginal(Fraction(1, 5), Fraction(-1, 5))

    # a string raised a TypeError from np.isfinite, sigma True was 1, and an
    # int past the float range raised an OverflowError from math.isfinite
    @pytest.mark.parametrize("mu, sigma", [(np.nan, 0.2), (np.inf, 0.2), (-np.inf, 0.2),
                                           (0.2, np.nan), (0.2, np.inf), ("0.2", 0.2),
                                           (0.2, True),
                                           pytest.param(10 ** 400, 0.2, id="huge-int-mu"),
                                           pytest.param(0.2, -10 ** 400, id="huge-int-sigma")])
    def test_rejects_non_finite_parameters(self, mu, sigma):
        with pytest.raises(ValueError, match=r"mu and sigma must be finite, got "
                                             rf"mu={mu!r}, sigma={sigma!r}"):
            truncated_normal_marginal(mu, sigma)

    @pytest.mark.parametrize("mu", [40.0, -40.0])
    def test_rejects_a_law_without_mass_on_the_cube(self, mu):
        # before the check, a run on such a law failed late, with a
        # RuntimeWarning and "masses must be >= 0, got nan"
        with pytest.raises(ValueError, match=rf"mu={mu}, sigma=0.5 put a mass on \[0,1\] "
                                             "that rounds to 0"):
            truncated_normal_marginal(mu, 0.5)

    @pytest.mark.parametrize("mu", [11.0, 5.0, -4.0, -10.0])
    def test_law_centred_off_the_cube(self, mu):
        # the cdf and sf took their differences in the tail near 1, where
        # they cancel: at (11, 0.5) the level-6 masses summed to 0.5165, at
        # (5, 0.5) the level-3 ones to 1.0819, at (-4, 0.5) the level-1 ones
        # to 1.0033, and (-10, 0.5) was refused although its mass is 2.75e-89
        m = product_measure([truncated_normal_marginal(mu, 0.5)])
        law = truncnorm((0.0 - mu) / 0.5, (1.0 - mu) / 0.5, loc=mu, scale=0.5)
        for level in (1, 3, 6):
            edges = np.arange(3 ** level + 1) / 3 ** level
            cdf, sf = law.cdf(edges), law.sf(edges)
            want = np.where(cdf[:-1] <= 0.5, cdf[1:] - cdf[:-1], sf[:-1] - sf[1:])
            got = m.cell_probabilities(level, np.arange(3 ** level)[:, None])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
            assert abs(got.sum() - 1.0) <= 1e-12


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
        # the 40 halvings that tol = 1e-12 used to stop after, bit for bit
        m = product_measure([truncated_normal_marginal(0.2, 0.2)])
        u = np.random.default_rng(5).random(200)
        lo, hi = np.zeros_like(u), np.ones_like(u)
        for _ in range(40):  # 2^-40 is the first width <= 1e-12
            mid = 0.5 * (lo + hi)
            below = m.marginals[0].cdf(mid) < u
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        assert np.array_equal(m.marginal_quantile(0, u), 0.5 * (lo + hi))

    def test_sampling_deterministic(self):
        m = product_measure([truncated_normal_marginal(0.2, 0.2), uniform_marginal()])
        a = m.sample(50, np.random.default_rng(3))
        b = m.sample(50, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (50, 2)
        assert np.all((a >= 0) & (a <= 1))

    def test_user_marginal(self):
        m = user_marginal(lambda x: np.asarray(x) ** 2)  # law of sqrt(U)
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
        (0.5, r"^cdf must be callable"),  # a TypeError
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


def wavy_cdf(x):
    """A CDF that user_marginal's probe accepts: the sine is 0 at every probe
    edge b/3^6, but it decreases between them."""
    return np.asarray(x) + 1e-3 * np.sin(2 * np.pi * 729 * np.asarray(x))


class TestStepsAreChecked:
    """A negative or NaN step of a CDF is refused where the masses are made,
    naming its axis; it used to reach the quantile table, which named none."""

    @pytest.mark.parametrize("marginal", [
        user_marginal(wavy_cdf),
        Marginal(cdf=lambda x: np.where(np.asarray(x) > 0, np.nan, 0.0)),
    ], ids=["decreasing", "nan"])
    def test_child_probabilities(self, marginal):
        m = product_measure([uniform_marginal(), marginal])
        with pytest.raises(ValueError, match=r"^the CDF of axis 1 must be non-decreasing, "
                                             r"but cdf\(0\.0\d*\) = "):
            m.child_probabilities(7, np.array([[0, 0]]))

    def test_run_known(self):
        m = product_measure([user_marginal(wavy_cdf), uniform_marginal()])
        with pytest.raises(ValueError, match=r"^the CDF of axis 0 must be non-decreasing"):
            run_known(lambda x: x[:, 0] + x[:, 1], 2.0, m, 0.5, 10 ** 5)
