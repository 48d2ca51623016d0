import numpy as np
import pytest

from circsym.distributions import VonMises
from circsym.errors import QuadratureConvergenceError
from circsym.quadrature import integrate_periodic

TWO_PI = 2.0 * np.pi


class TestIntegratePeriodic:
    def test_uniform_density(self):
        assert integrate_periodic(lambda x: np.full_like(x, 1.0 / TWO_PI)) == pytest.approx(1.0, abs=1e-12)

    def test_sine_squared(self):
        assert integrate_periodic(lambda x: np.sin(x) ** 2 / TWO_PI) == pytest.approx(0.5, abs=1e-12)

    def test_von_mises_normalization_vs_trapezoid(self):
        # independent oracle: dense trapezoid sum at 2^20 nodes
        pdf = VonMises(1.0).pdf
        grid = np.linspace(-np.pi, np.pi, 2**20 + 1)
        oracle = np.trapezoid(pdf(grid), grid)
        assert integrate_periodic(pdf) == pytest.approx(oracle, abs=1e-10)
        assert integrate_periodic(pdf) == pytest.approx(1.0, abs=1e-10)

    def test_non_finite_integrand_rejected(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="finite"):
                integrate_periodic(lambda x: 1.0 / x)

    def test_convergence_failure_carries_last_estimate(self):
        # fresh noise on every call: no two estimates ever agree
        rng = np.random.default_rng(0)
        noise = lambda x: rng.random(x.shape)
        with pytest.raises(QuadratureConvergenceError, match="refinements") as err:
            integrate_periodic(noise)
        assert np.isfinite(err.value.last_estimate)

    def test_integrand_must_be_vectorized(self):
        with pytest.raises(ValueError, match="one per grid node"):
            integrate_periodic(lambda x: 1.0)

    def test_wrapped_cauchy_near_one_converges(self):
        from circsym.distributions import WrappedCauchy

        assert integrate_periodic(WrappedCauchy(0.99).pdf) == pytest.approx(1.0, abs=1e-8)

