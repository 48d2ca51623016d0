import hashlib
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sp_special
from scipy import stats as sp_stats

from circsym.special import (
    bessel_i,
    bessel_i0e,
    bessel_ratio,
    check_integer,
    norm_cdf,
    norm_sf,
    upper_quantile,
)


class TestBesselI:
    # the series holds its accuracy up to where it overflows, near 713
    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 10.0, 50.0, 100.0, 700.0])
    def test_against_scipy(self, z):
        assert bessel_i(z) == pytest.approx(sp_special.i0(z), rel=1e-13, abs=0.0)

    def test_zero_argument(self):
        assert bessel_i(0.0) == 1.0

    def test_integral_representation(self):
        # I_0(z) = (1/pi) * int_0^pi exp(z cos t) dt
        t = np.linspace(0.0, np.pi, 20001)
        oracle = np.trapezoid(np.exp(np.cos(t)), t) / np.pi
        assert bessel_i(1.0) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="argument must be nonnegative"):
            bessel_i(-1.0)


class TestBesselI0e:
    # both sides of the switch from the series to the large-argument expansion
    # at kappa = 50, and past where the series alone would overflow
    @pytest.mark.parametrize("kappa", [
        0.0, 1e-8, 0.1, 1.0, 10.0, 30.0, 49.999, 50.0, 50.001, 100.0, 700.0,
        713.0, 1e3, 1e6, 1e12, 1e300,
    ])
    def test_against_scipy(self, kappa):
        assert bessel_i0e(kappa) == pytest.approx(sp_special.i0e(kappa), rel=1e-14, abs=0.0)


class TestBesselRatio:
    def test_against_scipy(self):
        # both sides of the switch between recurrence and large-argument expansion
        kappas = np.geomspace(1e-3, 1e8, 221)
        for m in range(13):
            ours = np.array([bessel_ratio(m, kappa) for kappa in kappas])
            oracle = sp_special.ive(m, kappas) / sp_special.ive(0, kappas)
            assert_allclose(ours, oracle, rtol=1e-13, atol=0.0)

    def test_large_order_against_scipy(self):
        # m^2 > kappa takes the recurrence even for large kappa
        for m, kappa in ((40, 1e3), (120, 1e4), (40, 1e8)):
            oracle = sp_special.ive(m, kappa) / sp_special.ive(0, kappa)
            assert bessel_ratio(m, kappa) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_bits_pinned(self):
        # SHA-256 of the packed doubles, recorded while each order ran its own
        # recurrence: the one-pass sum may not move a single moment by one bit
        points = [(m, float(kappa)) for kappa in np.geomspace(1e-3, 1e8, 221)
                  for m in range(13)]
        points += [(40, 1e3), (120, 1e4), (40, 1e8), (140, 1.0)]
        values = [bessel_ratio(m, kappa) for m, kappa in points]
        assert hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest() == \
            "7b8628d4e485ace361f60a5df331bb7419daefadf4dd35b6271c903cd68dc267"

    def test_bounded_cost_at_huge_kappa(self):
        import time

        start = time.perf_counter()
        for kappa in (1e12, 1e20, 1e300, np.finfo(float).max):
            for m in (1, 2, 6, 1000):
                assert 0.0 < bessel_ratio(m, kappa) <= 1.0
        assert time.perf_counter() - start < 1.0

    def test_underflow_is_zero_without_recurrence(self):
        import time

        start = time.perf_counter()
        assert bessel_ratio(10**9, 1.0) == 0.0
        assert time.perf_counter() - start < 0.1
        # a tiny ratio above the cut still comes from the recurrence
        assert bessel_ratio(140, 1.0) == pytest.approx(
            sp_special.ive(140, 1.0) / sp_special.ive(0, 1.0), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("kappa", [1e-300, 1e-310, 1e-320])
    def test_tiny_and_subnormal_kappa(self, kappa):
        assert bessel_ratio(1, kappa) == pytest.approx(kappa / 2.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_smallest_kappa(self, m):
        # (kappa/2)^m / m! rounds to 0 for kappa = 5e-324: kappa/2 itself does
        assert bessel_ratio(m, 5e-324) == 0.0

    def test_order_zero_is_one(self):
        assert bessel_ratio(0, 3.0) == 1.0

    @pytest.mark.parametrize("m, kappa", [
        (-1, 1.0), (1.5, 1.0), (1, 0.0), (1, -2.0), (1, np.inf), (1, np.nan),
    ])
    def test_domain_enforced(self, m, kappa):
        with pytest.raises(ValueError):
            bessel_ratio(m, kappa)


class TestNormalCdf:
    def test_against_scipy(self):
        x = np.linspace(-8.0, 8.0, 1601)
        ours = np.array([norm_cdf(v) for v in x])
        assert_allclose(ours, sp_stats.norm.cdf(x), atol=1e-14, rtol=1e-12)

    def test_sf_complements(self):
        for v in (-3.0, -0.5, 0.0, 1.7, 6.0):
            assert norm_sf(v) == pytest.approx(1.0 - norm_cdf(v), abs=1e-15)
            assert norm_sf(v) == pytest.approx(sp_stats.norm.sf(v), rel=1e-12, abs=0.0)


class TestUpperQuantile:
    def test_against_scipy(self):
        p = np.concatenate([
            np.linspace(1e-10, 1e-3, 50),
            np.linspace(1e-3, 1 - 1e-3, 500),
            np.linspace(1 - 1e-3, 1 - 1e-10, 50),
        ])
        ours = np.array([upper_quantile(v) for v in p])
        assert_allclose(ours, -sp_stats.norm.ppf(p), atol=1e-12, rtol=1e-12)

    def test_round_trip(self):
        for p in (0.001, 0.025, 0.5, 0.975, 0.999):
            assert norm_sf(upper_quantile(p)) == pytest.approx(p, abs=1e-14)

    def test_median(self):
        assert upper_quantile(0.5) == 0.0

    def test_two_sided_five_percent(self):
        assert upper_quantile(0.05) == pytest.approx(
            sp_stats.norm.ppf(0.95), rel=1e-13, abs=0.0)
        assert upper_quantile(0.025) == pytest.approx(1.959963984540054, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-10, 1e-13, 1e-17, 1e-20, 1e-300])
    def test_small_levels(self, alpha):
        # 1 - alpha rounds to 1 below about 1.1e-16; z_alpha must not depend on it
        assert upper_quantile(alpha) == pytest.approx(
            sp_stats.norm.isf(alpha), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValueError, match="requires alpha in"):
            upper_quantile(bad)


class TestCheckInteger:
    @pytest.mark.parametrize("value, least, expected", [
        (3, 1, 3), (3.0, 1, 3), (0, 0, 0), (10.0, 10, 10), (-7.0, None, -7),
        (np.int64(5), 1, 5),
    ])
    def test_integral_values_pass_as_int(self, value, least, expected):
        result = check_integer(value, "x", least)
        assert result == expected and type(result) is int

    @pytest.mark.parametrize("value, least, wanted", [
        (0, 1, "a positive integer"), (1.5, 1, "a positive integer"),
        (-1, 0, "a nonnegative integer"), (9, 10, "an integer of at least 10"),
        (2.5, None, "an integer"), (float("nan"), None, "an integer"),
        (float("inf"), 1, "a positive integer"), (-float("inf"), None, "an integer"),
    ])
    def test_others_rejected_by_name(self, value, least, wanted):
        with pytest.raises(ValueError, match=f"^widgets must be {wanted}, got"):
            check_integer(value, "widgets", least)
