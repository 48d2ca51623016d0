"""Information matrices, central sequences and asymptotic power.

Everything here is driven by the location score phi(x) = -f0'(x)/f0(x) of
a symmetric base density (``base.score``) and by three integrals:

    g11 = int phi(x)^2 f0(x) dx          (location information)
    g12 = int sin(k x) phi(x) f0(x) dx   (cross information)
    g22 = int sin(k x)^2 f0(x) dx        (skewness information)

All are closed forms in the base's cosine moments rho_m = E[cos(m X)]:
integration by parts gives g12 = -int sin(k x) f0'(x) dx = k rho_k,
the cross constant is C(k, k') = (rho_|k-k'| - rho_(k+k'))/2, so
g22 = C(k, k) = (1 - rho_2k)/2, and each base states its own g11.
The differences of moments come from ``base.cos_moment_gap``, which forms
them without cancellation as the moments approach 1 (von Mises at large
kappa, wrapped Cauchy with rho near 1). The test suite checks every
identity against periodic quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .angles import as_sample, check_angle, sine_sums
from .errors import DegenerateInformationError, UnsupportedBaseError
from .special import check_alpha, check_frequency, norm_cdf, norm_sf, upper_quantile

# Separates exact Cauchy-Schwarz equality (sine-skewed von Mises with
# k = 1) from genuinely positive gaps: the closed forms leave a von Mises
# k = 1 gap of rounding size (at most a few 1e-16) at every kappa.
SINGULARITY_GAP_THRESHOLD = 1e-8


def _require_family(base):
    if not getattr(base, "in_family", False):
        raise UnsupportedBaseError(
            f"{getattr(base, 'label', base)!r} is outside the symmetric base "
            "class handled by the information machinery"
        )


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric 2x2 location-skewness information matrix at symmetry."""

    g11: float
    g12: float
    g22: float

    @property
    def determinant(self):
        return self.g11 * self.g22 - self.g12 * self.g12

    @property
    def normalized_gap(self):
        """determinant / (g11 * g22), in [0, 1] by Cauchy-Schwarz up to
        rounding: an exactly singular matrix can give about -4e-16."""
        denom = self.g11 * self.g22
        if denom <= 0.0:
            raise DegenerateInformationError(
                "normalized gap undefined when g11 * g22 is zero"
            )
        return self.determinant / denom

    @property
    def singular(self):
        """Whether the normalized gap is below ``SINGULARITY_GAP_THRESHOLD``,
        which separates exact Cauchy-Schwarz equality (sine-skewed von Mises
        with k = 1) from genuinely positive determinants."""
        return self.normalized_gap < SINGULARITY_GAP_THRESHOLD


@dataclass(frozen=True)
class CentralSequence:
    """Root-n scaled score components at a hypothesized direction.

    ``location`` depends on the base density through its score;
    ``skewness`` is n^{-1/2} * sum sin(k(x_i - theta)) and is base-free.
    """

    location: float
    skewness: float


def fisher_matrix(base, k):
    """Information matrix entries for (base, k), from the base's cosine moments."""
    _require_family(base)
    k = check_frequency(k)
    return FisherMatrix(
        g11=base.location_information,
        g12=k * base.cos_moment(k),
        g22=cross_corr(base, k, k),
    )


def cross_corr(base, k, k_prime):
    """Cross-frequency constant int sin(kx) sin(k'x) f0(x) dx, symmetric in (k, k')."""
    _require_family(base)
    lo, hi = sorted((check_frequency(k), check_frequency(k_prime)))
    return 0.5 * base.cos_moment_gap(hi - lo, hi + lo)


def local_power(base, k, k_prime, tau2, alpha=0.05):
    """Asymptotic power of the frequency-k test against contiguous
    k'-sine-skewed alternatives drifting at rate tau2 / sqrt(n).

    Evaluates 1 - Phi(z - s) + Phi(-z - s), the upper tail as a survival
    function so that it keeps full precision at small alpha, with z the
    alpha/2 upper normal quantile and shift s = g22^{-1/2} * C(k, k') * tau2.
    """
    (power,) = local_power_curve(base, k, k_prime, [tau2], alpha)
    return power


def local_power_curve(base, k, k_prime, tau2_grid, alpha=0.05):
    """``local_power`` at every drift of ``tau2_grid``, as a list.

    The information quantities are computed once for the whole grid.
    """
    alpha = check_alpha(alpha)
    g22 = cross_corr(base, k, k)
    if g22 <= 0.0:
        raise DegenerateInformationError(
            f"skewness information vanishes for {base.label!r}, k={k}"
        )
    z = upper_quantile(alpha / 2.0)
    slope = cross_corr(base, k, k_prime) / math.sqrt(g22)
    return [norm_sf(z - slope * t) + norm_cdf(-z - slope * t) for t in tau2_grid]


def central_sequence(base, k, sample, theta):
    """Both components of the root-n score vector at theta."""
    theta, k = check_angle(theta), check_frequency(k)
    arr = as_sample(sample)
    root_n = math.sqrt(arr.size)
    sine_sum = sine_sums(arr, theta, (k,), np.empty((2, 1)))[0, 0]
    return CentralSequence(
        location=root_n * float(np.mean(base.score(arr - theta))),
        skewness=root_n * float(sine_sum / arr.size),
    )


def efficient_central_sequence(base, k, sample, theta):
    """Skewness score projected orthogonally to the location score.

    n^{-1/2} * sum [ sin(k(x_i - theta)) - (g12/g11) * phi(x_i - theta) ].
    Zero up to rounding for von Mises bases with k = 1, where the two
    scores are collinear.
    """
    theta = check_angle(theta)
    matrix = fisher_matrix(base, k)
    if matrix.g11 <= 0.0:
        raise DegenerateInformationError(
            f"location information vanishes for {base.label!r}; "
            "the efficient sequence needs g11 > 0"
        )
    seq = central_sequence(base, k, sample, theta)
    return seq.skewness - (matrix.g12 / matrix.g11) * seq.location
