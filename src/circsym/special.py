"""Modified Bessel functions, the standard normal cdf/quantile pair and the level check.

Kept dependency-free: the Bessel series is validated in the test suite
against the quadrature identity I_m(kappa) = (1/2pi) * integral of
cos(m x) exp(kappa cos x).
"""

import math

_BESSEL_RTOL = 1e-15
_BESSEL_MAX_TERMS = 500


def bessel_i(m, z):
    """Modified Bessel function of the first kind, integer order m >= 0.

    Truncated power series sum_j (z/2)^(m+2j) / (j! (m+j)!), stopped when
    the running term falls below 1e-15 of the partial sum. Accurate to
    better than 1e-14 relative error for the concentration range used here
    (z up to ~50); all terms are positive so truncation error is bounded by
    the first neglected term.
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"order must be a nonnegative integer, got {m!r}")
    if z < 0:
        raise ValueError(f"argument must be nonnegative, got {z!r}")
    m = int(m)
    half = z / 2.0
    # j = 0 term: half^m / m!
    term = half**m / math.factorial(m)
    total = term
    for j in range(1, _BESSEL_MAX_TERMS):
        term *= half * half / (j * (m + j))
        total += term
        if term <= _BESSEL_RTOL * total:
            return total
    raise RuntimeError(f"Bessel series did not converge for m={m}, z={z}")


def check_alpha(alpha):
    """The level ``alpha`` as a float; ValueError unless it lies in (0, 1)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def norm_cdf(x):
    """Standard normal cdf via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_sf(x):
    """Standard normal survival function 1 - Phi(x), accurate in the tail."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _norm_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# Acklam's rational approximation coefficients for the initial guess.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def norm_quantile(p):
    """Standard normal quantile Phi^{-1}(p) for p in (0, 1).

    Rational approximation (Acklam) polished by two Newton steps with the
    erfc-based cdf; absolute error well below 1e-12 across (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires p in (0, 1), got {p!r}")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((( _C[0]*q + _C[1])*q + _C[2])*q + _C[3])*q + _C[4])*q + _C[5]) / \
            (((( _D[0]*q + _D[1])*q + _D[2])*q + _D[3])*q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = ((((( _A[0]*r + _A[1])*r + _A[2])*r + _A[3])*r + _A[4])*r + _A[5])*q / \
            ((((( _B[0]*r + _B[1])*r + _B[2])*r + _B[3])*r + _B[4])*r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((( _C[0]*q + _C[1])*q + _C[2])*q + _C[3])*q + _C[4])*q + _C[5]) / \
            (((( _D[0]*q + _D[1])*q + _D[2])*q + _D[3])*q + 1.0)
    # Newton polish against whichever tail keeps full precision: the cdf
    # loses resolution near 1, the survival function near 0.
    q = 1.0 - p
    for _ in range(2):
        pdf = _norm_pdf(x)
        if pdf == 0.0:
            break
        if p <= 0.5:
            x -= (norm_cdf(x) - p) / pdf
        else:
            x += (norm_sf(x) - q) / pdf
    return x


def upper_quantile(alpha):
    """The alpha upper quantile z_alpha with Phi(z_alpha) = 1 - alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {alpha!r}")
    return norm_quantile(1.0 - alpha)
