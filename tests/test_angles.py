import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from circsym import workspace
from circsym.angles import _MAX_MULTIPLE, TWO_PI, as_sample, sine_sums, wrap
from circsym.errors import EmptySampleError

finite_angles = st.floats(
    min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False
)


class TestWrap:
    def test_identity_inside_range(self):
        assert wrap(0.0) == 0.0
        assert wrap(-np.pi / 4) == pytest.approx(-np.pi / 4)

    def test_three_pi_maps_to_minus_pi(self):
        assert wrap(3 * np.pi) == pytest.approx(-np.pi)

    def test_periodicity_example(self):
        assert wrap(-np.pi / 4 + TWO_PI) == pytest.approx(-np.pi / 4, abs=1e-15)

    def test_upper_endpoint_excluded(self):
        assert wrap(np.pi) == -np.pi
        assert wrap(-np.pi) == -np.pi

    def test_vectorized(self):
        x = np.array([0.0, 3 * np.pi, -np.pi / 4 + TWO_PI])
        assert_allclose(wrap(x), [0.0, -np.pi, -np.pi / 4], atol=1e-14)

    def test_scalar_in_scalar_out(self):
        assert np.isscalar(wrap(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            wrap(bad)

    @given(finite_angles)
    def test_idempotent(self, x):
        once = wrap(x)
        assert wrap(once) == once
        assert -np.pi <= once < np.pi

    @given(finite_angles, st.integers(min_value=-10, max_value=10))
    def test_two_pi_periodic(self, x, m):
        assert wrap(x + TWO_PI * m) == pytest.approx(wrap(x), abs=1e-9)


class TestAsSample:
    def test_wraps_and_flattens(self):
        out = as_sample([3 * np.pi, 0.5])
        assert out.dtype == np.float64
        assert_allclose(out, [-np.pi, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            as_sample([])


class TestSineSums:
    """The kernel's edges: stale scratch, repeated k, and k lists past the
    recurrence, which take one tangent pass per k."""

    ROWS = np.random.default_rng(36).uniform(-np.pi, np.pi, (5, 24))
    ROWS[1, :6] = [0.0, -0.0, 5e-324, -np.pi, np.nextafter(np.pi, 0.0), 0.3]

    @staticmethod
    def _sums(theta, ks):
        return sine_sums(TestSineSums.ROWS, theta, ks,
                         np.full((2, len(ks), len(TestSineSums.ROWS)), np.nan))

    @pytest.mark.parametrize("ks", [(1,), (2, 2), (3, 1, 3), (1, 2, 3, 1), (2, 6, 4, 6),
                                    (1, 2, 3, 4), (5, 1), (5, 1, 5), (17,)], ids=str)
    @pytest.mark.parametrize("theta", [0.0, -0.0, 0.3], ids=["plus_zero", "minus_zero", "0.3"])
    def test_sine_sums_on_stale_scratch_match_a_fresh_call(self, ks, theta):
        fresh = self._sums(theta, ks)

        def on_stale_scratch():
            with workspace.using():  # the thread's arrays, at four positions
                self._sums(theta, (1, 2, 3))
            for array in workspace._store.arrays.values():
                array.fill(np.nan)
            with workspace.using():
                return self._sums(theta, ks)

        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(on_stale_scratch).result().tobytes() == fresh.tobytes()
        for i, k in enumerate(ks):  # a repeated k reads the sums of its first
            assert fresh[:, i].tobytes() == fresh[:, ks.index(k)].tobytes()
        if max(ks) // math.gcd(*ks) > _MAX_MULTIPLE:  # a pass per k
            for i, k in enumerate(ks):
                assert fresh[:, i].tobytes() == self._sums(theta, (k,))[:, 0].tobytes()
