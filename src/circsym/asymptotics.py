"""Location scores, information matrices and asymptotic power machinery.

Everything here is driven by the location score phi(x) = -f0'(x)/f0(x) of
a symmetric base density and by three integrals:

    g11 = int phi(x)^2 f0(x) dx          (location information)
    g12 = int sin(k x) phi(x) f0(x) dx   (cross information)
    g22 = int sin(k x)^2 f0(x) dx        (skewness information)

g12 is computed in score form; integration by parts shows it equals the
derivative form -int sin(k x) f0'(x) dx, and the test suite checks that
identity. Matrices are memoized per (base, k) since bases are frozen and
hashable.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .angles import as_sample
from .errors import DegenerateInformationError, UnsupportedBaseError
from .quadrature import DEFAULT_QUADRATURE, integrate_periodic
from .special import check_alpha, norm_cdf, upper_quantile

SINGULARITY_GAP_THRESHOLD = 1e-8

_matrix_cache = {}
_cross_cache = {}
_cache_lock = threading.Lock()


def score_location(base, x):
    """Location score phi(x) = -f0'(x)/f0(x) of a symmetric base density."""
    return base.score(x)


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
    k: int
    base_label: str

    @property
    def determinant(self):
        return self.g11 * self.g22 - self.g12 * self.g12

    @property
    def normalized_gap(self):
        """determinant / (g11 * g22), in [0, 1] by Cauchy-Schwarz."""
        denom = self.g11 * self.g22
        if denom <= 0.0:
            raise DegenerateInformationError(
                "normalized gap undefined when g11 * g22 is zero"
            )
        return self.determinant / denom


@dataclass(frozen=True)
class SingularityReport:
    determinant: float
    normalized_gap: float
    singular: bool


@dataclass(frozen=True)
class CentralSequence:
    """Root-n scaled score components at a hypothesized direction.

    ``location`` depends on the base density through its score;
    ``skewness`` is n^{-1/2} * sum sin(k(x_i - theta)) and is base-free.
    """

    location: float
    skewness: float


def fisher_matrix(base, k, spec=DEFAULT_QUADRATURE):
    """Information matrix entries for (base, k), by periodic quadrature."""
    _require_family(base)
    if k < 1 or int(k) != k:
        raise ValueError(f"frequency k must be a positive integer, got {k!r}")
    k = int(k)
    key = (base, k, spec)
    with _cache_lock:
        cached = _matrix_cache.get(key)
    if cached is not None:
        return cached
    g11 = integrate_periodic(lambda x: base.score(x) ** 2 * base.pdf(x), spec)
    g12 = integrate_periodic(lambda x: np.sin(k * x) * base.score(x) * base.pdf(x), spec)
    g22 = integrate_periodic(lambda x: np.sin(k * x) ** 2 * base.pdf(x), spec)
    matrix = FisherMatrix(g11=g11, g12=g12, g22=g22, k=k, base_label=base.label)
    with _cache_lock:
        _matrix_cache[key] = matrix
    return matrix


def cross_corr(base, k, k_prime, spec=DEFAULT_QUADRATURE):
    """Cross-frequency constant int sin(kx) sin(k'x) f0(x) dx, symmetric in (k, k')."""
    _require_family(base)
    lo, hi = sorted((int(k), int(k_prime)))
    if lo < 1:
        raise ValueError("frequencies must be positive integers")
    key = (base, lo, hi, spec)
    with _cache_lock:
        cached = _cross_cache.get(key)
    if cached is not None:
        return cached
    value = integrate_periodic(lambda x: np.sin(lo * x) * np.sin(hi * x) * base.pdf(x), spec)
    with _cache_lock:
        _cross_cache[key] = value
    return value


def local_power(base, k, k_prime, tau2, alpha=0.05):
    """Asymptotic power of the frequency-k test against contiguous
    k'-sine-skewed alternatives drifting at rate tau2 / sqrt(n).

    Evaluates 1 - Phi(z - s) + Phi(-z - s) with z the alpha/2 upper normal
    quantile and shift s = g22^{-1/2} * C(k, k') * tau2.
    """
    alpha = check_alpha(alpha)
    matrix = fisher_matrix(base, k)
    if matrix.g22 <= 0.0:
        raise DegenerateInformationError(
            f"skewness information vanishes for {base.label!r}, k={k}"
        )
    z = upper_quantile(alpha / 2.0)
    shift = cross_corr(base, k, k_prime) / math.sqrt(matrix.g22) * tau2
    return (1.0 - norm_cdf(z - shift)) + norm_cdf(-z - shift)


def singularity_report(base, k):
    """Determinant, normalized gap and singularity flag of the information matrix.

    The gap threshold separates exact Cauchy-Schwarz equality (sine-skewed
    von Mises with k = 1) from genuinely positive determinants; quadrature
    noise sits around 1e-10, two orders below the threshold.
    """
    matrix = fisher_matrix(base, k)
    if matrix.g11 <= 0.0:
        raise DegenerateInformationError(
            f"location information vanishes for {base.label!r}; "
            "singularity analysis needs g11 > 0"
        )
    gap = matrix.normalized_gap
    return SingularityReport(
        determinant=matrix.determinant,
        normalized_gap=gap,
        singular=gap < SINGULARITY_GAP_THRESHOLD,
    )


def central_sequence(base, k, sample, theta):
    """Both components of the root-n score vector at theta."""
    arr = as_sample(sample)
    root_n = math.sqrt(arr.size)
    centered = arr - theta
    return CentralSequence(
        location=root_n * float(np.mean(base.score(centered))),
        skewness=root_n * float(np.mean(np.sin(k * centered))),
    )


def efficient_central_sequence(base, k, sample, theta):
    """Skewness score projected orthogonally to the location score.

    n^{-1/2} * sum [ sin(k(x_i - theta)) - (g12/g11) * phi(x_i - theta) ].
    Identically zero for von Mises bases with k = 1, where the two scores
    are collinear.
    """
    matrix = fisher_matrix(base, k)
    if matrix.g11 <= 0.0:
        raise DegenerateInformationError(
            f"location information vanishes for {base.label!r}; "
            "the efficient sequence needs g11 > 0"
        )
    ratio = matrix.g12 / matrix.g11
    arr = as_sample(sample)
    centered = arr - theta
    values = np.sin(k * centered) - ratio * base.score(centered)
    return math.sqrt(arr.size) * float(np.mean(values))
