import hashlib
import math
import re
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circsym import distributions
from circsym.distributions import (
    Cardioid,
    MoebiusSkewed,
    SineSkewed,
    SkewedMixture,
    Uniform,
    VonMises,
    VonMisesMixture,
    WrappedCauchy,
    parse_base,
    parse_model,
)
from circsym.errors import UnsupportedBaseError
from circsym.quadrature import integrate_periodic

TWO_PI = 2.0 * np.pi

BASE_GRID = [
    Uniform(),
    VonMises(0.5), VonMises(1.0), VonMises(10.0),
    Cardioid(0.1), Cardioid(0.5), Cardioid(0.9),
    WrappedCauchy(0.1), WrappedCauchy(0.5), WrappedCauchy(0.9),
    VonMisesMixture(1.0), VonMisesMixture(10.0),
]


# SHA-256 of 1000 Best-Fisher draws from Philox(7), re-recorded when the
# sampler moved to two uniforms per proposal, the first also giving the sign
# of the angle, and to batches sized by its closed-form acceptance rate
VON_MISES_DIGESTS = {
    1e-3: "bc79b373513dcce9e23f02310c4722201aba37011d2599636af1b71b1a71e18d",
    1.0: "af774a9ed7f614eb85efd9b11bc6c8421ed2ee1ea9c2efd38064cb999e81273f",
    700.0: "448aefc0ba27127f5ed7368b81fc7def834586078be5bb1c7eca643e6e19db87",
    1e8: "5258df603a371c61b9892b4a1cb83d1e4249fbcb82c6b62352acc00850bdd291",
    1e14: "9d28a513858b59d945806c09330f43420ec5ff0bd38ad3f27b4e4d338931bf84",
}


def _grid(n=1024):
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


class TestPdfValues:
    def test_cardioid_at_mode(self):
        assert Cardioid(0.5).pdf(0.0) == pytest.approx(1.5 / TWO_PI, rel=1e-15)

    def test_von_mises_at_mode(self):
        # exp(1) / (2*pi*I0(1)), pinned from an independent Bessel evaluation
        assert VonMises(1.0).pdf(0.0) == pytest.approx(0.34171048862346315, rel=1e-13)

    @pytest.mark.parametrize("kappa", np.geomspace(1e-3, 1e8, 45))
    def test_von_mises_matches_scipy_at_any_kappa(self, kappa):
        from scipy import special as sp_special
        from scipy import stats as sp_stats

        tail = np.geomspace(1e-9, 1.0, 30)
        x = np.concatenate((_grid(101), tail, -tail, [0.0]))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = VonMises(kappa).pdf(x)
        expected = sp_stats.vonmises.pdf(x, kappa)
        # 1e-13 relative, widened by the condition number of exp at the
        # exponent kappa*(cos x - 1): a rounding of that exponent alone
        # moves the density by |exponent| ulps in the far tail
        exponent = np.abs(kappa * sp_special.cosm1(x))
        tolerance = (1e-13 + 4.0 * np.finfo(float).eps * exponent) * expected
        assert np.all(np.abs(got - expected) <= tolerance)
        assert got[-1] == pytest.approx(expected[-1], rel=1e-13)  # the mode

    def test_large_kappa_densities_are_finite(self):
        x = _grid(257)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for model in (VonMises(800.0), VonMisesMixture(800.0),
                          SkewedMixture(800.0, 0.1)):
                values = model.pdf(x)
                assert np.all(np.isfinite(values)) and values.max() > 1.0

    def test_wrapped_cauchy_closed_form(self):
        rho = 0.5
        x = 1.3
        expected = (1 - rho**2) / (TWO_PI * (1 + rho**2 - 2 * rho * np.cos(x)))
        assert WrappedCauchy(rho).pdf(x) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("bits", [20, 27, 34])
    def test_wrapped_cauchy_mode_as_rho_nears_one(self, bits):
        rho = 1.0 - 2.0**-bits  # 1 - rho is exact
        model = WrappedCauchy(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mode = model.pdf(0.0)
            scores = model.score(np.array([0.0, 2.0**-bits, 1.0]))
        assert mode == pytest.approx((1.0 + rho) / (TWO_PI * (1.0 - rho)), rel=1e-14, abs=0)
        # at x = 1 - rho the score is 2 rho / ((1 + rho) x) up to O(x^2)
        assert scores[1] == pytest.approx(2.0 * rho / ((1.0 + rho) * 2.0**-bits),
                                          rel=1e-11, abs=0)
        assert scores[0] == 0.0 and np.isfinite(scores[2])

    def test_skewed_density_at_center_equals_base_mode(self):
        base = VonMises(2.0)
        theta = 0.9
        model = SineSkewed(base, 0.7, k=3, theta=theta)
        assert model.pdf(theta) == pytest.approx(base.pdf(0.0), rel=1e-15)

    def test_skewed_uniform_is_cardioid_rotated(self):
        # (1 + 0.5 sin(x + pi/2)) / (2 pi) is the cardioid with ell = 0.5
        model = SineSkewed(Uniform(), 0.5, k=1, theta=-np.pi / 2)
        x = _grid(512)
        assert_allclose(model.pdf(x), Cardioid(0.5).pdf(x), rtol=1e-14)

    def test_zero_skewness_reduces_to_shifted_base(self):
        base = WrappedCauchy(0.3)
        theta = -2.0
        model = SineSkewed(base, 0.0, k=2, theta=theta)
        x = _grid(256)
        assert_allclose(model.pdf(x), base.pdf(x - theta), rtol=1e-14)

    def test_mixture_is_equal_weight_sum(self):
        mix = VonMisesMixture(1.0)
        comp = VonMises(1.0)
        x = _grid(128)
        expected = 0.5 * (comp.pdf(x + np.pi / 4) + comp.pdf(x - np.pi / 4))
        assert_allclose(mix.pdf(x), expected, rtol=1e-14)

    def test_moebius_omega(self):
        model = MoebiusSkewed(VonMises(1.0), 0.1, 0.5)
        assert model.omega == pytest.approx(1.0 / 3.0, rel=1e-15)


class TestNormalization:
    @pytest.mark.parametrize("base", BASE_GRID, ids=lambda b: b.label)
    def test_base_densities(self, base):
        assert integrate_periodic(base.pdf) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [-0.9, -0.5, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sine_skewed(self, lam, k):
        for base in (VonMises(1.0), Cardioid(0.5), WrappedCauchy(0.5)):
            model = SineSkewed(base, lam, k=k, theta=0.4)
            assert integrate_periodic(model.pdf) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.2])
    def test_moebius(self, lam):
        model = MoebiusSkewed(VonMises(1.0), lam, 0.5)
        assert integrate_periodic(model.pdf) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.2])
    def test_shifted_mixture(self, lam):
        model = SkewedMixture(10.0, lam)
        assert integrate_periodic(model.pdf) == pytest.approx(1.0, abs=1e-8)


class TestSymmetries:
    def test_base_reflection_symmetry(self):
        x = _grid(512)
        for base in BASE_GRID:
            assert_allclose(base.pdf(-x), base.pdf(x), rtol=1e-13)

    def test_skew_reflection_identity(self):
        # reflecting the argument about theta flips the sign of lambda
        x = np.linspace(0.0, np.pi, 1024, endpoint=False)
        theta = 0.8
        for base in (VonMises(1.0), Cardioid(0.5)):
            for k in (1, 2, 3):
                left = SineSkewed(base, 0.6, k=k, theta=theta).pdf(theta - x)
                right = SineSkewed(base, -0.6, k=k, theta=theta).pdf(theta + x)
                assert_allclose(left, right, rtol=1e-13)

    def test_endpoint_continuity(self):
        eps = 1e-9
        for model in (
            SineSkewed(VonMises(1.0), 0.6, k=2, theta=0.3),
            MoebiusSkewed(VonMises(1.0), 0.2, 0.5),
            SkewedMixture(10.0, 0.4),
        ):
            low = model.pdf(-np.pi + eps)
            high = model.pdf(np.pi - eps)
            assert low == pytest.approx(high, abs=1e-7)

    def test_moebius_zero_shift_is_symmetric(self):
        model = MoebiusSkewed(VonMises(1.0), 0.0, 0.5)
        x = _grid(256)
        assert_allclose(model.pdf(-x), model.pdf(x), rtol=1e-12)

    def test_mixture_zero_shift_is_symmetric(self):
        model = SkewedMixture(2.0, 0.0)
        x = _grid(256)
        assert_allclose(model.pdf(-x), model.pdf(x), rtol=1e-12)


def _moment_gap(model, rng, n=100_000, orders=(1, 2, 3, 4)):
    draws = model.sample(rng, n)
    assert draws.shape == (n,)
    assert np.all((draws >= -np.pi) & (draws < np.pi))
    worst = 0.0
    for m in orders:
        for trig in (np.sin, np.cos):
            empirical = float(np.mean(trig(m * draws)))
            exact = integrate_periodic(lambda x: trig(m * x) * model.pdf(x))
            worst = max(worst, abs(empirical - exact))
    return worst


class TestSamplers:
    @pytest.mark.parametrize(
        "model",
        [
            Uniform(), VonMises(1.0), VonMises(10.0), Cardioid(0.5),
            WrappedCauchy(0.5), VonMisesMixture(1.0),
            SineSkewed(VonMises(1.0), 0.6, k=2, theta=0.4),
            SineSkewed(Cardioid(0.5), -0.7, k=1),
            MoebiusSkewed(VonMises(1.0), 0.2, 0.5),
            SkewedMixture(10.0, 0.4),
        ],
        ids=lambda m: m.label,
    )
    def test_trig_moments_match_quadrature(self, model):
        rng = np.random.default_rng(20_08_08)
        assert _moment_gap(model, rng) < 0.015

    def test_wrapped_cauchy_first_cosine_moment(self):
        # E[cos X] = rho for the wrapped Cauchy
        rng = np.random.default_rng(5)
        draws = WrappedCauchy(0.5).sample(rng, 200_000)
        assert np.mean(np.cos(draws)) == pytest.approx(0.5, abs=0.01)

    def test_concentrated_von_mises_tail(self):
        rng = np.random.default_rng(6)
        draws = VonMises(10.0).sample(rng, 100_000)
        assert np.mean(np.abs(draws) > np.pi / 2) < 0.001

    def test_sine_skew_first_sine_moment(self):
        # quadrature oracle for E[sin X] under the 1-sine-skewed VM(1), lam 0.6
        rng = np.random.default_rng(7)
        draws = SineSkewed(VonMises(1.0), 0.6, k=1).sample(rng, 100_000)
        assert np.mean(np.sin(draws)) == pytest.approx(0.26783397953792065, abs=0.01)

    def test_skewed_uniform_matches_cardioid_sampler(self):
        # same distribution reached through two unrelated samplers
        rng = np.random.default_rng(8)
        a = SineSkewed(Uniform(), 0.5, k=1, theta=-np.pi / 2).sample(rng, 150_000)
        b = Cardioid(0.5).sample(rng, 150_000)
        for m in (1, 2):
            assert np.mean(np.cos(m * a)) == pytest.approx(np.mean(np.cos(m * b)), abs=0.012)
            assert np.mean(np.sin(m * a)) == pytest.approx(np.mean(np.sin(m * b)), abs=0.012)

    def test_reproducible_for_equal_seeds(self):
        model = SineSkewed(VonMises(1.0), 0.3, k=2)
        a = model.sample(np.random.default_rng(42), 64)
        b = model.sample(np.random.default_rng(42), 64)
        assert_allclose(a, b, rtol=0.0, atol=0.0)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            VonMises(1.0).sample(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("kappa", sorted(VON_MISES_DIGESTS))
    def test_von_mises_draws_pinned(self, kappa):
        draws = VonMises(kappa).sample(np.random.Generator(np.random.Philox(7)), 1000)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == VON_MISES_DIGESTS[kappa]

    def test_best_fisher_angles_are_not_quantized(self):
        # kappa = 1e14 is below the normal limit's threshold: Best-Fisher draws
        kappa = 1e14
        draws = VonMises(kappa).sample(np.random.default_rng(10), 100_000)
        assert np.count_nonzero(draws == 0.0) == 0
        assert np.unique(np.abs(draws)).size == draws.size
        assert np.std(draws) * math.sqrt(kappa) == pytest.approx(1.0, abs=0.03)

    @pytest.mark.parametrize("model", [
        SineSkewed(WrappedCauchy(0.5), 0.4, k=2, theta=1.0),
        MoebiusSkewed(VonMises(1.0), 0.3, 0.5),
        SkewedMixture(10.0, 0.4),
    ], ids=lambda model: model._form)
    def test_skewed_draws_are_wrapped_once(self, monkeypatch, model):
        calls = []
        real = distributions.wrap

        def counting(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(distributions, "wrap", counting)
        draws = model.sample(np.random.default_rng(11), 500)
        assert len(calls) == 1
        assert np.all((draws >= -np.pi) & (draws < np.pi))

    @pytest.mark.parametrize("kappa", [1e15, 1e16, 1e17, 1e20, 1e300])
    def test_huge_kappa_von_mises_is_prompt_and_normal(self, kappa):
        start = time.perf_counter()
        draws = VonMises(kappa).sample(np.random.default_rng(9), 20_000)
        assert time.perf_counter() - start < 1.0
        assert np.all(np.isfinite(draws))
        # N(0, 1/kappa) limit: unit spread after scaling, no pile-up at 0
        assert np.std(draws) * math.sqrt(kappa) == pytest.approx(1.0, abs=0.03)
        assert np.count_nonzero(draws == 0.0) == 0


    @pytest.mark.parametrize("kappa", [1e-3, 0.1, 1.0, 10.0, 700.0, 1e8, 1e14])
    def test_best_fisher_acceptance_rate_is_closed_form(self, kappa):
        model = VonMises(kappa)
        c0, rate = model._envelope()
        proposals = 400_000
        kept = model._best_fisher(np.random.default_rng(12), proposals, c0).size
        band = 5.0 * math.sqrt(rate * (1.0 - rate) / proposals) + 1.0 / proposals
        assert abs(kept / proposals - rate) <= band

    @pytest.mark.parametrize("kappa", [1e-8, 1e-3, 0.5, 1.0, 10.0, 700.0, 1e8])
    def test_von_mises_draws_follow_the_density(self, kappa):
        model = VonMises(kappa)
        draws = np.sort(model.sample(np.random.default_rng(13), 200_000))
        n = draws.size
        # Kolmogorov-Smirnov distance at 255 order statistics, against
        # P(X <= x) = 1/2 +- (mass between 0 and |x|) from the quadrature
        # oracle; 1.95 / sqrt(n) is the 0.001 critical value of the full sup
        index = np.arange(n // 256, n, n // 256)[:255]
        cdf = np.array([_symmetric_cdf(model, x) for x in draws[index]])
        distance = np.max(np.maximum(np.abs((index + 1) / n - cdf), np.abs(index / n - cdf)))
        assert distance < 1.95 / math.sqrt(n)

    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 1.0, 10.0, 700.0, 1e8])
    def test_von_mises_signs_are_fair_and_draws_canonical(self, kappa):
        n = 200_000
        draws = VonMises(kappa).sample(np.random.default_rng(14), n)
        # the sign comes from the same uniform as the proposal
        assert abs(np.count_nonzero(draws > 0.0) / n - 0.5) <= 5.0 * 0.5 / math.sqrt(n)
        assert np.all(draws < np.pi) and np.all(draws >= -np.pi)


def _symmetric_cdf(model, x):
    """P(X <= x) of a base symmetric about 0, from its density by the
    quadrature oracle on [0, |x|] mapped onto one period."""
    width = abs(x)
    mass = integrate_periodic(lambda s: model.pdf(width * (s + np.pi) / TWO_PI) * width / TWO_PI)
    return 0.5 + math.copysign(mass, x)


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match="kappa"):
            VonMises(0.0)
        with pytest.raises(ValueError, match="ell"):
            Cardioid(1.0)
        with pytest.raises(ValueError, match="rho"):
            WrappedCauchy(0.0)
        with pytest.raises(ValueError, match="lam"):
            SineSkewed(VonMises(1.0), 1.0)
        with pytest.raises(ValueError, match="frequency"):
            SineSkewed(VonMises(1.0), 0.5, k=0)
        with pytest.raises(ValueError, match="r must"):
            MoebiusSkewed(VonMises(1.0), 0.1, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: VonMises(np.inf),
        lambda: VonMises(np.nan),
        lambda: VonMisesMixture(np.inf),
        lambda: SkewedMixture(np.inf, 0.4),
        lambda: SkewedMixture(10.0, np.inf),
        lambda: SkewedMixture(10.0, np.nan),
        lambda: MoebiusSkewed(VonMises(1.0), np.nan, 0.5),
        lambda: MoebiusSkewed(VonMises(1.0), -np.inf, 0.5),
    ])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_mixture_has_no_location_score(self):
        with pytest.raises(UnsupportedBaseError):
            VonMisesMixture(1.0).score(0.3)

    def test_family_flags(self):
        assert Uniform().in_family
        assert VonMises(1.0).in_family
        assert Cardioid(0.5).in_family
        assert WrappedCauchy(0.5).in_family
        assert not VonMisesMixture(1.0).in_family


class TestParseBase:
    @pytest.mark.parametrize(
        "base",
        [Uniform(), VonMises(2.5), Cardioid(0.25), WrappedCauchy(0.75), VonMisesMixture(3.0)],
        ids=lambda b: b.label,
    )
    def test_label_round_trip(self, base):
        assert parse_base(base.label) == base

    @pytest.mark.parametrize("bad", ["vm", "vm:", "vm:abc", "gauss:1", "",
                                     "sineskew(vm:1,lam=0.1)", "mixshift(kappa=1,lam=0)"])
    def test_bad_labels_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_base(bad)


class TestParseModel:
    def test_labels_that_read_back_with_g_are_unchanged(self):
        assert SineSkewed(VonMises(1.0), 0.4, k=2).label == "sineskew(vm:1,k=2,lam=0.4,theta=0)"
        assert MoebiusSkewed(VonMises(10.0), 0.02, 0.5).label == "moebius(vm:10,r=0.5,lam=0.02)"
        assert SkewedMixture(1.0, 1.2).label == "mixshift(kappa=1,lam=1.2)"
        assert VonMises(1e300).label == "vm:1e+300"

    def test_lossy_g_labels_use_repr(self):
        model = MoebiusSkewed(VonMises(1.0), 0.2 / 3, 0.5)
        assert model.label == "moebius(vm:1,r=0.5,lam=0.06666666666666667)"
        assert parse_model(model.label) == model
        # two bases that print alike with :g no longer share a label
        assert VonMises(1.0).label != VonMises(1.0000001).label

    def test_optional_keywords_default(self):
        assert parse_model("sineskew(vm:1,lam=0.3)") == SineSkewed(VonMises(1.0), 0.3)
        assert parse_model(" sineskew( wcauchy:0.5 , k = 2.0 , lam=-0.4 ) ").k == 2

    @pytest.mark.parametrize("bad, message", [
        ("sineskew(vm:1,lam=0.3,foo=1)", "unknown keyword 'foo'"),
        ("sineskew(vm:1,lam=0.3,lam=0.2)", "repeated"),
        ("sineskew(vm:1,k=2)", "missing keyword 'lam'"),
        ("moebius(vm:1,lam=0.1)", "missing keyword 'r'"),
        ("sineskew(vm:1,lam=0.3,k=2.5)", "frequency k must be a positive integer"),
        ("sineskew(vm:1,lam=0.3,k=inf)", "frequency k must be a positive integer"),
        ("sineskew(lam=0.3)", "one base density, got 0"),
        ("sineskew(vm:1,vm:2,lam=0.3)", "one base density, got 2"),
        ("mixshift(vm:1,kappa=1,lam=0.1)", "keywords only, got 1"),
        ("sineskew(vm:1,,lam=0.3)", "empty argument"),
        ("sineskew(vm:1,lam=abc)", "bad number 'abc'"),
        ("sineskew(vm:1,lam=0.3,theta=nan)", "finite angle"),
        ("sineskew(sineskew(vm:1,lam=0.1),lam=0.1)", "not a nested model"),
        ("moebius(mixshift(kappa=1,lam=0),r=0.5,lam=0)", "not a nested model"),
        ("sineskew(uniform,lam=0.1)x", "closing parenthesis"),
        ("sineskew(vm:1,lam=0.3", "closing parenthesis"),
        ("banana(vm:1,lam=0.1)", "unknown model family 'banana'"),
        ("vm:abc", "bad number 'abc'"),
        ("warp:1", "unknown model 'warp:1'"),
    ])
    def test_strict(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_model(bad)
