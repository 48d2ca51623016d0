import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as sp_stats

from circsym.angles import wrap
from circsym.asymptotics import efficient_central_sequence
from circsym.distributions import Cardioid, SineSkewed, Uniform, VonMises, VonMisesMixture
from circsym.errors import DegenerateSampleError, EmptySampleError
from circsym.montecarlo import derive_stream
from circsym.symtests import (
    modified_runs_rows,
    modified_runs_test,
    parametric_statistic,
    parametric_test,
    rayleigh_cardioid_test,
    runs_count,
    runs_null_cdf,
    runs_subset_size,
    simulate_runs_null,
    studentized_rows,
    studentized_statistic,
    symmetry_test,
)
from circsym.workspace import using


class TestStudentizedStatistic:
    def test_symmetric_pair_gives_zero(self):
        theta = 0.6
        for k in (1, 2, 3):
            value = studentized_statistic([theta + 0.4, theta - 0.4], theta, k)
            assert value == pytest.approx(0.0, abs=1e-14)

    def test_all_sines_one_gives_root_n(self):
        for k, n in ((1, 9), (2, 16), (3, 25)):
            sample = np.full(n, 0.2 + np.pi / (2 * k))
            assert studentized_statistic(sample, 0.2, k) == pytest.approx(
                math.sqrt(n), rel=1e-13, abs=0.0)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(1)
        sample = rng.uniform(-np.pi, np.pi, 40)
        base_value = studentized_statistic(sample, 0.3, 2)
        for shift in (0.9, -2.5, np.pi):
            rotated = wrap(sample + shift)
            assert studentized_statistic(rotated, wrap(0.3 + shift), 2) == pytest.approx(
                base_value, abs=1e-10
            )

    def test_reflection_negates(self):
        rng = np.random.default_rng(2)
        theta = -0.7
        sample = rng.uniform(-np.pi, np.pi, 60)
        plain = studentized_statistic(sample, theta, 3)
        mirrored = studentized_statistic(wrap(2 * theta - sample), theta, 3)
        assert mirrored == pytest.approx(-plain, abs=1e-10)

    def test_b2star_form(self):
        # k = 2 statistic is the ratio of the mean of sin 2(x - theta)
        # to its root mean square, times sqrt(n)
        rng = np.random.default_rng(3)
        sample = rng.uniform(-np.pi, np.pi, 30)
        s = np.sin(2 * (sample - 0.1))
        expected = math.sqrt(30) * s.mean() / math.sqrt(np.mean(s**2))
        assert studentized_statistic(sample, 0.1, 2) == pytest.approx(
            expected, rel=1e-13, abs=0.0)

    def test_degenerate_sample_rejected(self):
        # every observation sits exactly at the centre, so sin(k(x - theta)) == 0
        sample = [0.0] * 6
        with pytest.raises(DegenerateSampleError):
            studentized_statistic(sample, 0.0, 2)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="two observations"):
            studentized_statistic([0.5], 0.0, 1)


class TestSymmetryTest:
    def test_symmetric_pair_p_one(self):
        result = symmetry_test([0.8, -0.8], 0.0, 1)
        assert result.p_value == pytest.approx(1.0)
        assert not result.reject

    def test_two_sided_p_value_formula(self):
        rng = np.random.default_rng(4)
        sample = rng.uniform(-np.pi, np.pi, 50)
        result = symmetry_test(sample, 0.4, 2)
        assert result.p_value == pytest.approx(
            2 * sp_stats.norm.sf(abs(result.statistic)), rel=1e-12, abs=0.0
        )

    def test_one_sided_alternatives(self):
        sample = np.full(16, 0.2 + np.pi / 4)  # positive sines about 0.2, k=2
        right = symmetry_test(sample, 0.2, 2, alternative="right")
        left = symmetry_test(sample, 0.2, 2, alternative="left")
        assert right.statistic == pytest.approx(4.0)
        assert right.p_value < 1e-4
        assert left.p_value == pytest.approx(1.0, abs=1e-4)
        assert right.p_value == pytest.approx(sp_stats.norm.sf(4.0), rel=1e-10, abs=0.0)

    def test_result_metadata(self):
        result = symmetry_test([0.5, -0.2, 0.9], 0.0, 3, alpha=0.1)
        assert result.n == 3
        assert result.k == 3
        assert result.reject_at == 0.1
        assert result.method == "sine-symmetry-studentized:k=3"
        payload = result.to_dict()
        assert payload["n"] == 3 and "reject" in payload

    def test_bad_alternative_rejected(self):
        with pytest.raises(ValueError, match="alternative"):
            symmetry_test([0.1, 0.2], 0.0, 1, alternative="both")


class TestParametricTest:
    def test_uniform_base_is_scaled_sine_mean(self):
        rng = np.random.default_rng(5)
        sample = rng.uniform(-np.pi, np.pi, 80)
        stat = parametric_statistic(sample, 0.3, 1, Uniform())
        direct = math.sqrt(2.0) * abs(
            math.sqrt(80) * np.mean(np.sin(sample - 0.3))
        )
        assert stat == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_symmetric_pair_gives_zero(self):
        assert parametric_statistic([1.0, -1.0], 0.0, 2, VonMises(1.0)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_agrees_with_studentized_under_true_base(self):
        # the two statistics differ by o_P(1) under the base itself
        base = VonMises(1.0)
        gaps = []
        for rep in range(1000):
            rng = derive_stream(99, "student-vs-parametric", rep)
            sample = base.sample(rng, 100)
            a = studentized_statistic(sample, 0.0, 2)
            b = parametric_statistic(sample, 0.0, 2, base)
            gaps.append(abs(abs(a) - b))
        assert np.mean(gaps) < 0.05

    def test_result_method_names_base(self):
        result = parametric_test([0.4, 0.5, -0.2], 0.0, 2, Cardioid(0.5))
        assert result.method == "sine-symmetry-parametric:cardioid:0.5:k=2"


class TestSampleValidatedOnce:
    """Each test validates its sample once; values pinned from the previous
    implementation, which validated it twice."""

    @pytest.fixture
    def as_sample_calls(self, monkeypatch):
        from circsym import asymptotics, symtests

        calls = []

        def counting(sample):
            calls.append(1)
            return original(sample)

        original = symtests.as_sample
        for module in (symtests, asymptotics):
            monkeypatch.setattr(module, "as_sample", counting)
        return calls

    @pytest.fixture
    def sample(self):
        return np.random.default_rng(5).uniform(-np.pi, np.pi, 40)

    def test_symmetry_test(self, as_sample_calls, sample):
        result = symmetry_test(sample, 0.3, 2)
        assert len(as_sample_calls) == 1
        assert (result.statistic, result.p_value) == (-1.1998880079641716, 0.23018283794933886)
        assert (result.n, result.theta) == (40, 0.3)

    @pytest.mark.parametrize("base, k, alternative, statistic, p", [
        (VonMises(1.0), 2, "two-sided", -1.1656628050357738, 0.24375080412191524),
        (Cardioid(0.5), 1, "right", 0.2783988893472358, 0.3903530859985374),
    ], ids=["vm", "cardioid"])
    def test_parametric_test(self, as_sample_calls, sample, base, k, alternative,
                             statistic, p):
        result = parametric_test(sample, 0.3, k, base, alternative=alternative)
        assert len(as_sample_calls) == 1
        assert result.statistic == pytest.approx(statistic, rel=1e-13, abs=0.0)
        assert result.p_value == pytest.approx(p, rel=1e-13, abs=0.0)
        assert result.n == 40

    def test_efficient_central_sequence(self, as_sample_calls, sample):
        # both components come from one central_sequence call
        efficient_central_sequence(VonMises(1.0), 2, sample, 0.3)
        assert len(as_sample_calls) == 1


class TestStatisticsAreTheirTests:
    """The statistic-only helpers return the statistics of their tests, bit for bit."""

    @pytest.mark.parametrize("theta", [0.0, -0.0, 0.3, -2.9, 7.5])
    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_same_bits(self, theta, k):
        sample = np.random.default_rng(8).uniform(-np.pi, np.pi, 30)
        assert (studentized_statistic(sample, theta, k)
                == symmetry_test(sample, theta, k).statistic)
        for base in (VonMises(1.0), Cardioid(0.4)):
            assert (parametric_statistic(sample, theta, k, base)
                    == abs(parametric_test(sample, theta, k, base).statistic))


class TestRayleighCardioid:
    def test_all_at_direction(self):
        sample = np.full(8, 1.1)
        result = rayleigh_cardioid_test(sample, 1.1)
        assert result.statistic == pytest.approx(4.0, rel=1e-13, abs=0.0)
        assert result.p_value == pytest.approx(sp_stats.norm.sf(4.0), rel=1e-10, abs=0.0)

    def test_antipodal_data_p_near_one(self):
        sample = np.full(50, wrap(1.1 + np.pi))
        result = rayleigh_cardioid_test(sample, 1.1)
        assert result.statistic == pytest.approx(-10.0, rel=1e-12, abs=0.0)
        assert result.p_value > 0.999999

    def test_equals_uniform_parametric_statistic(self):
        rng = np.random.default_rng(6)
        sample = rng.uniform(-np.pi, np.pi, 64)
        direction = 0.8
        rayleigh = rayleigh_cardioid_test(sample, direction)
        # the same statistic through the parametric route at theta = direction - pi/2
        parametric = parametric_statistic(sample, direction - np.pi / 2, 1, Uniform())
        assert abs(rayleigh.statistic) == pytest.approx(parametric, abs=1e-12)

    def test_null_size(self):
        hits = 0
        reps = 2000
        for rep in range(reps):
            rng = derive_stream(123, "rayleigh-null", rep)
            sample = Uniform().sample(rng, 100)
            hits += rayleigh_cardioid_test(sample, 0.4).reject
        assert hits / reps == pytest.approx(0.05, abs=0.02)


class TestLevelValidation:
    SAMPLE = np.linspace(-3.0, 3.0, 20)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_every_test_rejects_bad_alpha(self, alpha):
        calls = [
            lambda: symmetry_test(self.SAMPLE, 0.0, 1, alpha=alpha),
            lambda: parametric_test(self.SAMPLE, 0.0, 1, VonMises(1.0), alpha=alpha),
            lambda: rayleigh_cardioid_test(self.SAMPLE, 0.0, alpha=alpha),
            lambda: modified_runs_test(self.SAMPLE, 0.0, alpha=alpha),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="alpha"):
                call()


class TestDirectionAndAlternativeValidation:
    """theta and the alternative are checked before any arithmetic."""

    SAMPLE = np.linspace(-3.0, 3.0, 20)
    FLAT = np.zeros(20)  # every sine vanishes about 0

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_direction_rejected(self, theta):
        calls = [
            lambda: studentized_statistic(self.SAMPLE, theta, 1),
            lambda: symmetry_test(self.SAMPLE, theta, 1),
            lambda: parametric_statistic(self.SAMPLE, theta, 1, VonMises(1.0)),
            lambda: parametric_test(self.SAMPLE, theta, 1, VonMises(1.0)),
            lambda: rayleigh_cardioid_test(self.SAMPLE, theta),
            lambda: modified_runs_test(self.SAMPLE, theta),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="finite angle") as info:
                    call()
                assert not isinstance(info.value, DegenerateSampleError)

    def test_unknown_alternative_found_before_the_statistic(self):
        with pytest.raises(ValueError, match="alternative"):
            symmetry_test(self.FLAT, 0.0, 1, alternative="both")
        with pytest.raises(ValueError, match="alternative"):
            parametric_test(self.SAMPLE, 0.0, 1, VonMisesMixture(1.0), alternative="both")


class TestTooFewObservations:
    @pytest.mark.parametrize("call, message", [
        (lambda: studentized_statistic([0.5], 0.0, 1), "two observations"),
        (lambda: symmetry_test([0.5], 0.0, 1), "two observations"),
        (lambda: rayleigh_cardioid_test([0.5], 0.0), "two observations"),
        (lambda: modified_runs_test(np.linspace(-1, 1, 9), 0.0), "ten observations"),
    ])
    def test_is_an_empty_sample_error(self, call, message):
        with pytest.raises(EmptySampleError, match=message):
            call()


class TestRowKernels:
    def test_studentized_rows_match_single_samples(self):
        rng = np.random.default_rng(12)
        rows = rng.uniform(-np.pi, np.pi, size=(2, 3, 40))
        rows[1, 2] = 0.3  # every sine about 0.3 vanishes
        every_k = studentized_rows(rows, 0.3, (1, 2, 3))
        assert every_k.shape == (3, 2, 3)
        for k, multiple in zip((1, 2, 3), every_k):
            (signed,) = studentized_rows(rows, 0.3, (k,))
            assert signed.shape == (2, 3)
            assert np.isnan(signed[1, 2])
            assert np.count_nonzero(np.isnan(signed)) == 1
            for index in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]:
                assert signed[index] == studentized_statistic(rows[index], 0.3, k)
            with pytest.raises(DegenerateSampleError):
                studentized_statistic(rows[1, 2], 0.3, k)
            # one tangent pass for every k moves T_k by ulps at most
            assert np.array_equal(np.isnan(multiple), np.isnan(signed))
            assert_allclose(multiple, signed, rtol=1e-13, atol=1e-13)

    def test_zero_sines_take_coins_from_the_stream(self):
        rng = np.random.default_rng(13)
        sample = np.round(rng.uniform(-3.0, 3.0, 30) * 2.0) / 2.0  # several exact zeros
        zeros = int(np.count_nonzero(sample == 0.0))
        assert zeros >= 2
        used = np.random.Generator(np.random.Philox(21))
        result = modified_runs_test(sample, 0.0, p=0.6, rng=used)
        assert result.extra["zero_sines_randomized"] == zeros

        # the statistic by hand: coins fill the zero signs in order, then the
        # signs of the 18 closest observations (stable order) are counted
        fresh = np.random.Generator(np.random.Philox(21))
        signs = np.sign(np.sin(sample)).astype(np.int8)
        signs[signs == 0] = np.where(fresh.random(zeros) < 0.5, 1, -1)
        closest = signs[np.argsort(np.abs(sample), kind="stable")][:18]
        assert result.statistic == runs_count(closest)
        # exactly the coins were consumed from the stream
        assert used.random() == fresh.random()

    def test_runs_rows_match_single_samples(self):
        rng = np.random.default_rng(15)
        rows = np.round(rng.uniform(-3.0, 3.0, size=(3, 25)) * 2.0) / 2.0
        rows[2] = 0.0
        m = runs_subset_size(25, 0.6)
        calls = []
        shared = np.random.Generator(np.random.Philox(30))

        def coin_flips(count):
            calls.append(count)
            return shared.random(count) < 0.5

        counts = modified_runs_rows(rows, 0.0, m, coin_flips)
        assert calls == [np.count_nonzero(rows == 0.0)]  # one call, every zero
        # the coins fill the zeros in row order: each single-row test takes
        # its row's coins from the same stream in turn
        fresh = np.random.Generator(np.random.Philox(30))
        for i in range(3):
            single = modified_runs_test(rows[i], 0.0, rng=fresh)
            assert counts[i] == single.statistic
        assert shared.random() == fresh.random()


def _runs_by_argsort(x, theta, m, coins):
    """Modified runs counts by a stable argsort of the distances, the
    kernel's former implementation, kept as its reference."""
    centered = wrap(np.subtract(x, theta))
    signs = np.sign(centered).astype(np.int8)
    zeros = signs == 0
    signs[zeros] = np.where(coins[:np.count_nonzero(zeros)], 1, -1)
    order = np.argsort(np.abs(centered), axis=-1, kind="stable")[..., :m]
    return runs_count(np.take_along_axis(signs, order, axis=-1))


def _runs_cases(rng, n, m):
    """Rows of n centered angles that stress the runs kernel's order."""
    random = rng.uniform(-np.pi, np.pi, n)
    half = rng.uniform(0.0, np.pi, n // 2)
    mirrored = rng.permutation(np.concatenate([half, -half]))  # pairs +-d tie
    zeros = random.copy()
    zeros[rng.choice(n, 6, replace=False)] = [0.0, -0.0, 0.0, -0.0, 0.0, 0.0]
    single_zero = random.copy()
    single_zero[n // 3] = -0.0
    minus_pi = random.copy()
    minus_pi[::7] = -np.pi
    # distances that tie exactly at sorted positions j - 1 and j, the - one at
    # the lower index, so index order keeps it among the j closest
    j = min(m, n - 1)
    distances = np.sort(rng.uniform(0.1, 3.0, n))
    distances[j] = distances[j - 1]
    straddle = distances * rng.choice([-1.0, 1.0], n)
    straddle[j - 1], straddle[j] = distances[j], -distances[j]
    straddle = straddle[rng.permutation(n)]
    minus = np.flatnonzero(straddle == -distances[j])[0]
    plus = np.flatnonzero(straddle == distances[j])[0]
    if minus > plus:
        straddle[[minus, plus]] = straddle[[plus, minus]]
    return np.array([random, mirrored, zeros, single_zero, minus_pi, straddle,
                     np.zeros(n), rng.uniform(-np.pi, np.pi, n)])


class TestRunsKernel:
    @pytest.mark.parametrize("theta", [0.0, 2.5])
    @pytest.mark.parametrize("m", [1, 2, 30, 50])
    def test_runs_rows_match_a_stable_argsort(self, theta, m):
        n = 50
        rng = np.random.default_rng(41 + m)
        rows = wrap(_runs_cases(rng, n, m) + theta)
        coins = rng.random(rows.size) < 0.5
        expected = _runs_by_argsort(rows, theta, m, coins)
        # kept arrays that earlier rows have left their values in
        with using():
            for i, row in enumerate(rows):
                left = np.count_nonzero(rows[:i] == theta)
                count = modified_runs_rows(row, theta, m, lambda z: coins[left:left + z])
                assert count.shape == () and count == expected[i]
            block = rows.reshape(2, 4, n)
            counts = modified_runs_rows(block, theta, m, lambda z: coins[:z])
            assert np.array_equal(counts, expected.reshape(2, 4))


class TestRunsMachinery:
    def test_runs_count_examples(self):
        assert runs_count([1, 1, 1]) == 1
        assert runs_count([1, -1, 1, -1]) == 4
        assert runs_count([1, 1, -1, -1, 1]) == 3
        assert runs_count([]) == 0

    @staticmethod
    def _exact_cdf(count, m):
        """P(R <= count) from R - 1 ~ Binomial(m - 1, 1/2), in exact arithmetic."""
        below = sum(math.comb(m - 1, j) for j in range(max(0, min(count, m))))
        return Fraction(below, 2 ** (m - 1))

    @pytest.mark.parametrize("m", [2, 3, 10, 60, 200, 300])
    def test_null_cdf_matches_exact_arithmetic(self, m):
        counts = np.arange(0, m + 2)
        cdf = runs_null_cdf(counts, m)
        for count, value in zip(counts, cdf):
            exact = float(self._exact_cdf(int(count), m))
            assert value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_null_cdf_for_a_million_signs(self):
        # 2^-(m - 1) underflows long before m = 10^6; the law must not
        m = 10**6
        cdf = runs_null_cdf(np.arange(0, m + 2), m)
        assert np.isfinite(cdf).all()
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf.min() == 0.0 and cdf.max() == 1.0
        # R - 1 is symmetric about (m - 1) / 2, so P(R <= m / 2) = 1/2
        assert cdf[m // 2] == pytest.approx(0.5, abs=1e-9)

    def test_simulated_null_matches_exact_law(self):
        m = 60
        counts = simulate_runs_null(m, 200_000, np.random.default_rng(17))
        grid = np.arange(1, m + 1)
        empirical = np.searchsorted(np.sort(counts), grid, side="right") / counts.size
        assert np.max(np.abs(empirical - runs_null_cdf(grid, m))) < 0.005

    def test_null_simulation_moments(self):
        # runs among m fair coins: mean 1 + (m-1)/2, variance (m-1)/4
        rng = np.random.default_rng(7)
        counts = simulate_runs_null(41, 40_000, rng)
        assert counts.mean() == pytest.approx(21.0, abs=0.1)
        assert counts.var() == pytest.approx(10.0, abs=0.35)


class TestModifiedRuns:
    def test_alternating_signs_large_p(self):
        # maximally alternating signs: run count at the top of the null range
        n = 40
        eps = np.where(np.arange(n) % 2 == 0, 0.01, -0.01)
        sample = wrap(0.5 + eps * (1 + np.arange(n)))
        result = modified_runs_test(sample, 0.5, p=0.6)
        assert result.p_value > 0.999

    def test_single_run_tiny_p(self):
        rng = np.random.default_rng(8)
        sample = wrap(0.5 + np.abs(rng.uniform(0.1, 2.9, size=60)))
        result = modified_runs_test(sample, 0.5, p=0.6)
        m = result.extra["subset_size"]
        assert m == 36
        assert result.statistic == 1.0
        # one run means no sign change among m - 1 fair pairs
        assert result.p_value == pytest.approx(2.0 ** -(m - 1), rel=1e-12, abs=0)

    def test_p_value_is_the_exact_null_cdf(self):
        rng = np.random.default_rng(9)
        sample = VonMises(1.0).sample(rng, 50)
        a = modified_runs_test(sample, 0.0)
        b = modified_runs_test(sample, 0.0)
        assert a.p_value == b.p_value
        assert a.extra["subset_size"] == 30
        exact = TestRunsMachinery._exact_cdf(int(a.statistic), 30)
        assert a.p_value == pytest.approx(float(exact), rel=1e-12, abs=0.0)
        assert "calibration_reps" not in a.extra

    def test_metadata_fields(self):
        rng = np.random.default_rng(11)
        sample = SineSkewed(VonMises(1.0), 0.5, k=1).sample(rng, 100)
        result = modified_runs_test(sample, 0.0, p=0.6)
        assert result.extra["subset_size"] == 60
        assert result.alternative == "left"
        assert 0.0 < result.p_value <= 1.0

    def test_needs_ten_observations(self):
        with pytest.raises(ValueError, match="ten"):
            modified_runs_test(np.linspace(-1, 1, 9), 0.0)

    def test_percentile_validated(self):
        with pytest.raises(ValueError, match="percentile"):
            modified_runs_test(np.linspace(-1, 1, 20), 0.0, p=1.5)

    def test_valid_but_conservative_and_consistent(self):
        # the discrete runs count keeps the exact test below nominal level,
        # while strong skewness still multiplies the rejection rate
        model = SineSkewed(VonMises(1.0), 0.8, k=1)
        reps = 600
        null_rejections = skew_rejections = 0
        for i in range(reps):
            rng = derive_stream(50, "modrun-size", i)
            flat = modified_runs_test(rng.uniform(-np.pi, np.pi, 100), 0.0)
            null_rejections += flat.p_value < 0.05
            rng = derive_stream(51, "modrun-power", i)
            skewed = modified_runs_test(model.sample(rng, 100), 0.0)
            skew_rejections += skewed.p_value < 0.05
        size = null_rejections / reps
        power = skew_rejections / reps
        assert 0.005 <= size <= 0.07
        assert power > 0.2
        assert power > 3 * size
