import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from circsym.angles import TWO_PI, as_sample, wrap
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

