import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as sp_integrate

from circsym.asymptotics import (
    SINGULARITY_GAP_THRESHOLD,
    central_sequence,
    cross_corr,
    efficient_central_sequence,
    fisher_matrix,
    local_power,
)
from circsym.distributions import (
    Cardioid,
    Uniform,
    VonMises,
    VonMisesMixture,
    WrappedCauchy,
)
from circsym.errors import DegenerateInformationError, UnsupportedBaseError

BASES = [VonMises(0.5), VonMises(1.0), VonMises(10.0),
         Cardioid(0.5), WrappedCauchy(0.5), Uniform()]


class TestScoreLocation:
    @pytest.mark.parametrize("base", BASES[:-1], ids=lambda b: b.label)
    def test_matches_log_density_derivative(self, base):
        # central finite difference of -log f0, away from the endpoints
        x = np.linspace(-3.0, 3.0, 256)
        h = 1e-6
        numeric = -(np.log(base.pdf(x + h)) - np.log(base.pdf(x - h))) / (2 * h)
        assert_allclose(base.score(x), numeric, atol=1e-5)

    def test_uniform_score_vanishes(self):
        assert_allclose(Uniform().score(np.linspace(-3, 3, 7)), 0.0)

    def test_von_mises_closed_form(self):
        x = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        assert_allclose(VonMises(2.0).score(x), 2.0 * np.sin(x), rtol=1e-14)

    def test_mixture_unsupported(self):
        with pytest.raises(UnsupportedBaseError):
            VonMisesMixture(1.0).score(0.1)


class TestFisherMatrix:
    def test_uniform_entries(self):
        m = fisher_matrix(Uniform(), 1)
        assert m.g11 == pytest.approx(0.0, abs=1e-12)
        assert m.g12 == pytest.approx(0.0, abs=1e-12)
        assert m.g22 == pytest.approx(0.5, abs=1e-12)

    def test_von_mises_skewness_entry(self):
        # pinned from an independent adaptive-quadrature oracle
        assert fisher_matrix(VonMises(1.0), 2).g22 == pytest.approx(
            0.49891904510296614, abs=1e-12
        )

    @pytest.mark.parametrize("base", BASES[:-1], ids=lambda b: b.label)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_scipy_quad(self, base, k):
        g11, _ = sp_integrate.quad(
            lambda x: base.score(x) ** 2 * base.pdf(x), -np.pi, np.pi
        )
        g12, _ = sp_integrate.quad(
            lambda x: np.sin(k * x) * base.score(x) * base.pdf(x),
            -np.pi, np.pi,
        )
        g22, _ = sp_integrate.quad(
            lambda x: np.sin(k * x) ** 2 * base.pdf(x), -np.pi, np.pi
        )
        m = fisher_matrix(base, k)
        assert m.g11 == pytest.approx(g11, abs=1e-9)
        assert m.g12 == pytest.approx(g12, abs=1e-9)
        assert m.g22 == pytest.approx(g22, abs=1e-9)

    def test_integration_by_parts_identity(self):
        # int sin(kx) phi(x) f0 = -int sin(kx) f0' = k int cos(kx) f0
        from circsym.quadrature import integrate_periodic

        for kappa in (0.5, 1.0, 10.0):
            base = VonMises(kappa)
            for k in (1, 2, 3):
                direct = fisher_matrix(base, k).g12
                parts = k * integrate_periodic(lambda x: np.cos(k * x) * base.pdf(x))
                assert direct == pytest.approx(parts, abs=1e-8)

    @pytest.mark.parametrize("base", BASES, ids=lambda b: b.label)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cauchy_schwarz(self, base, k):
        m = fisher_matrix(base, k)
        assert m.g12**2 <= m.g11 * m.g22 + 1e-12

    def test_cardioid_exact_k1(self):
        # closed forms at ell = 1/2: g11 = 1 - sqrt(3)/2, g12 = ell/2, g22 = 1/2
        m = fisher_matrix(Cardioid(0.5), 1)
        assert m.g11 == pytest.approx(1.0 - math.sqrt(3) / 2.0, abs=1e-10)
        assert m.g12 == pytest.approx(0.25, abs=1e-10)
        assert m.g22 == pytest.approx(0.5, abs=1e-10)

    def test_wrapped_cauchy_exact_k1(self):
        m = fisher_matrix(WrappedCauchy(0.5), 1)
        assert m.g11 == pytest.approx(8.0 / 9.0, abs=1e-10)
        assert m.g12 == pytest.approx(0.5, abs=1e-10)
        assert m.g22 == pytest.approx(3.0 / 8.0, abs=1e-10)

    def test_frequency_validated(self):
        with pytest.raises(ValueError, match="frequency"):
            fisher_matrix(VonMises(1.0), 0)

    def test_skewed_model_rejected(self):
        from circsym.distributions import SineSkewed

        with pytest.raises(UnsupportedBaseError):
            fisher_matrix(SineSkewed(VonMises(1.0), 0.2), 1)


ORACLE_BASES = (
    [VonMises(float(kappa)) for kappa in np.geomspace(0.05, 700.0, 12)]
    + [WrappedCauchy(rho) for rho in (0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.975)]
    + [Cardioid(ell) for ell in (0.05, 0.3, 0.5, 0.8, 0.95)]
)


def _short_id(base):
    """Test id of an oracle base, its parameter to six significant digits."""
    family, _, value = base.label.partition(":")
    return f"{family}:{float(value):g}"


def _close(value, oracle):
    return abs(value - oracle) <= 1e-11 * abs(oracle) + 1e-14


class TestClosedFormsAgainstQuadrature:
    """The cosine-moment closed forms against periodic quadrature of the
    defining integrals."""

    @pytest.mark.parametrize("base", ORACLE_BASES, ids=_short_id)
    def test_fisher_matrix(self, base):
        from circsym.quadrature import integrate_periodic

        g11 = integrate_periodic(lambda x: base.score(x) ** 2 * base.pdf(x))
        assert _close(fisher_matrix(base, 1).g11, g11)
        for k in (1, 2, 3):
            m = fisher_matrix(base, k)
            g12 = integrate_periodic(lambda x: np.sin(k * x) * base.score(x) * base.pdf(x))
            g22 = integrate_periodic(lambda x: np.sin(k * x) ** 2 * base.pdf(x))
            assert m.g11 == fisher_matrix(base, 1).g11
            assert _close(m.g12, g12), (k, m.g12, g12)
            assert _close(m.g22, g22), (k, m.g22, g22)

    @pytest.mark.parametrize("base", ORACLE_BASES, ids=_short_id)
    def test_cross_corr(self, base):
        from circsym.quadrature import integrate_periodic

        for k in (1, 2, 3):
            for kp in (1, 2, 3):
                oracle = integrate_periodic(
                    lambda x: np.sin(k * x) * np.sin(kp * x) * base.pdf(x)
                )
                assert _close(cross_corr(base, k, kp), oracle), (k, kp)


class TestCrossCorr:
    def test_equal_frequencies_recover_g22(self):
        for base in (VonMises(1.0), Cardioid(0.5)):
            for k in (1, 2, 3):
                assert cross_corr(base, k, k) == pytest.approx(
                    fisher_matrix(base, k).g22, abs=1e-12
                )

    def test_uniform_orthogonality(self):
        assert cross_corr(Uniform(), 1, 2) == pytest.approx(0.0, abs=1e-12)
        assert cross_corr(Uniform(), 2, 3) == pytest.approx(0.0, abs=1e-12)

    def test_pinned_von_mises_value(self):
        assert cross_corr(VonMises(1.0), 2, 1) == pytest.approx(
            0.21444013641386173, abs=1e-12
        )

    def test_symmetric_in_frequencies(self):
        assert cross_corr(VonMises(1.0), 2, 3) == cross_corr(VonMises(1.0), 3, 2)

    def test_against_scipy_quad(self):
        base = WrappedCauchy(0.5)
        oracle, _ = sp_integrate.quad(
            lambda x: np.sin(2 * x) * np.sin(3 * x) * base.pdf(x), -np.pi, np.pi
        )
        assert cross_corr(base, 2, 3) == pytest.approx(oracle, abs=1e-9)


class TestLocalPower:
    def test_zero_drift_gives_level(self):
        for alpha in (0.01, 0.05, 0.1):
            assert local_power(VonMises(1.0), 2, 2, 0.0, alpha) == pytest.approx(
                alpha, abs=1e-12
            )

    def test_pinned_value(self):
        assert local_power(VonMises(1.0), 2, 2, 3.0, 0.05) == pytest.approx(
            0.5632126288688897, abs=1e-12
        )

    def test_large_drift_saturates(self):
        assert local_power(VonMises(1.0), 2, 2, 80.0, 0.05) == pytest.approx(1.0, abs=1e-12)

    def test_even_in_drift_sign(self):
        up = local_power(VonMises(1.0), 2, 1, 2.5, 0.05)
        down = local_power(VonMises(1.0), 2, 1, -2.5, 0.05)
        assert up == pytest.approx(down, abs=1e-13)

    def test_monotone_in_absolute_drift(self):
        values = [local_power(VonMises(1.0), 2, 2, t, 0.05) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            local_power(VonMises(1.0), 1, 1, 1.0, alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.05, 1e-10, 1e-20, 1e-300])
    def test_zero_drift_gives_small_level(self, alpha):
        from circsym.special import upper_quantile

        # 1e-14 relative, widened by the conditioning of the tail: z is a
        # double, and a relative error e in z moves Phi(-z) by about z^2 e
        z = upper_quantile(alpha / 2.0)
        rel = max(1e-14, 4.0 * z * z * np.finfo(float).eps)
        power = local_power(VonMises(1.0), 2, 2, 0.0, alpha)
        assert power == pytest.approx(alpha, rel=rel, abs=0.0)

    def test_matches_direct_formula(self):
        from circsym.special import norm_cdf, upper_quantile

        base, k, kp, tau2, alpha = VonMises(1.0), 2, 3, 1.7, 0.05
        shift = cross_corr(base, k, kp) * tau2 / math.sqrt(fisher_matrix(base, k).g22)
        z = upper_quantile(alpha / 2.0)
        expected = 1.0 - norm_cdf(z - shift) + norm_cdf(-z - shift)
        assert local_power(base, k, kp, tau2, alpha) == pytest.approx(expected, abs=1e-14)


class TestSingularity:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 10.0])
    def test_von_mises_k1_singular(self, kappa):
        matrix = fisher_matrix(VonMises(kappa), 1)
        assert matrix.singular
        assert matrix.normalized_gap < SINGULARITY_GAP_THRESHOLD

    @pytest.mark.parametrize("base,k", [
        (VonMises(1.0), 2), (VonMises(1.0), 3),
        (Cardioid(0.5), 1), (WrappedCauchy(0.5), 1),
    ], ids=str)
    def test_nonsingular_cases(self, base, k):
        matrix = fisher_matrix(base, k)
        assert not matrix.singular
        assert matrix.normalized_gap > 1e-3

    def test_von_mises_k1_gap_up_to_large_kappa(self):
        for kappa in np.geomspace(0.05, 1e4, 60):
            matrix = fisher_matrix(VonMises(float(kappa)), 1)
            assert abs(matrix.normalized_gap) < 1e-11, kappa
            assert matrix.singular

    def test_von_mises_k1_gap_at_rounding_size_up_to_huge_kappa(self):
        # g22 and C(k, k') sum positive terms, so nothing cancels as rho_m -> 1
        for kappa in np.geomspace(1.0, 1e300, 61):
            matrix = fisher_matrix(VonMises(float(kappa)), 1)
            assert abs(matrix.normalized_gap) < 1e-15, kappa
            assert matrix.singular

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_von_mises_g22_limit_at_huge_kappa(self, k):
        # g22 = (1 - rho_2k)/2 ~ k^2 / kappa as kappa -> infinity
        kappa = 1e300
        assert fisher_matrix(VonMises(kappa), k).g22 * kappa == pytest.approx(
            k * k, rel=1e-14, abs=0.0)
        assert cross_corr(VonMises(kappa), k, k) * kappa == pytest.approx(
            k * k, rel=1e-14, abs=0.0)
        assert cross_corr(VonMises(kappa), k, k + 1) * kappa == pytest.approx(
            k * (k + 1), rel=1e-14, abs=0.0)

    def test_von_mises_g22_at_subnormal_kappa(self):
        # the moments vanish there, so g22 = (1 - rho_2k)/2 is its uniform value
        assert fisher_matrix(VonMises(1e-310), 1).g22 == 0.5

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_wrapped_cauchy_near_one_against_exact_arithmetic(self, k):
        rho = 1.0 - 1e-12
        exact = Fraction(rho)
        g22 = (1 - exact ** (2 * k)) / 2
        assert fisher_matrix(WrappedCauchy(rho), k).g22 == pytest.approx(
            float(g22), rel=1e-14, abs=0.0)
        cross = (exact - exact ** (2 * k + 1)) / 2
        assert cross_corr(WrappedCauchy(rho), k, k + 1) == pytest.approx(
            float(cross), rel=1e-14, abs=0.0)

    def test_wrapped_cauchy_gap_value(self):
        # det 1/12 over g11*g22 = 1/3 for rho = 0.5, k = 1
        matrix = fisher_matrix(WrappedCauchy(0.5), 1)
        assert matrix.normalized_gap == pytest.approx(0.25, abs=1e-9)

    def test_uniform_base_degenerate(self):
        matrix = fisher_matrix(Uniform(), 1)
        for name in ("normalized_gap", "singular"):
            with pytest.raises(DegenerateInformationError):
                getattr(matrix, name)


class TestCentralSequences:
    def test_symmetric_pair_cancels(self):
        theta = 0.5
        seq = central_sequence(VonMises(1.0), 2, [theta + 0.9, theta - 0.9], theta)
        assert seq.location == pytest.approx(0.0, abs=1e-14)
        assert seq.skewness == pytest.approx(0.0, abs=1e-14)

    def test_root_n_scaling(self):
        sample = np.full(25, 1.2)
        seq = central_sequence(VonMises(1.0), 1, sample, 0.0)
        assert seq.skewness == pytest.approx(5.0 * np.sin(1.2), rel=1e-13, abs=0.0)
        assert seq.location == pytest.approx(5.0 * np.sin(1.2), rel=1e-13, abs=0.0)

    def test_efficient_sequence_symmetric_pair(self):
        theta = -0.3
        value = efficient_central_sequence(
            Cardioid(0.5), 2, [theta + 1.0, theta - 1.0], theta
        )
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_von_mises_k1_collinearity(self):
        # the efficient skewness score is identically zero when k = 1
        rng = np.random.default_rng(11)
        for kappa in (0.5, 1.0, 10.0):
            base = VonMises(kappa)
            for _ in range(20):
                sample = rng.uniform(-np.pi, np.pi, size=rng.integers(5, 200))
                value = efficient_central_sequence(base, 1, sample, 0.1)
                assert abs(value) < 1e-10

    def test_cardioid_k2_single_observation(self):
        # g12 vanishes for the cardioid at k = 2, so the projection is the raw sine
        value = efficient_central_sequence(Cardioid(0.5), 2, [np.pi / 4], 0.0)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_uniform_degenerate(self):
        with pytest.raises(DegenerateInformationError):
            efficient_central_sequence(Uniform(), 1, [0.1, 0.2], 0.0)
