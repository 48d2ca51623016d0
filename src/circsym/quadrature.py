"""Composite Simpson quadrature over one period with panel doubling.

Serves the test suite as an independent oracle for the closed forms; no
runtime path integrates. For smooth periodic integrands equispaced rules
converge spectrally, so the doubling loop usually terminates after one
comparison; the refinement guard matters for sharply peaked densities
(wrapped Cauchy with rho close to 1).
"""

import numpy as np

from .errors import QuadratureConvergenceError

_INITIAL_PANELS = 64
_ABS_TOLERANCE = 1e-10
_MAX_REFINEMENTS = 16


def _simpson(f, panels):
    # panels is even; nodes include both endpoints of [-pi, pi]
    x = np.linspace(-np.pi, np.pi, panels + 1)
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape or not np.all(np.isfinite(y)):
        raise ValueError("integrand must return finite values, one per grid node")
    h = 2.0 * np.pi / panels
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def integrate_periodic(f):
    """Integral of a 2*pi-periodic function over [-pi, pi].

    ``f`` is vectorized: it maps an array of nodes to an array of values.
    Panels double from 64 until two successive composite-Simpson estimates
    differ by less than 1e-10; after 16 doublings without that a
    :class:`QuadratureConvergenceError` carrying the last estimate is
    raised. Deterministic.
    """
    panels = _INITIAL_PANELS
    estimate = _simpson(f, panels)
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        refined = _simpson(f, panels)
        if abs(refined - estimate) < _ABS_TOLERANCE:
            return float(refined)
        estimate = refined
    raise QuadratureConvergenceError(
        f"quadrature did not reach tolerance {_ABS_TOLERANCE} within "
        f"{_MAX_REFINEMENTS} refinements (last estimate {estimate})",
        last_estimate=float(estimate),
    )
