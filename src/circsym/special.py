"""Modified Bessel functions, the standard normal cdf/quantile pair, and the
checks of a level, a frequency and an integer.

Kept dependency-free. ``bessel_ratio`` gives the von Mises cosine moments
I_m(kappa)/I_0(kappa) for every finite kappa > 0 without forming either
function; ``bessel_i0e`` gives I_0(kappa) e^-kappa for every kappa, from
the raw series ``bessel_i`` (which overflows above kappa ~ 700) or the
large-argument expansion. The normal cdf and survival function come from
``math.erfc``, which keeps both tails; the quantile is the standard
library's ``statistics.NormalDist().inv_cdf``. The test suite checks them
against SciPy.
"""

import math
import statistics

_BESSEL_RTOL = 1e-15
_BESSEL_MAX_TERMS = 500

_RATIO_RTOL = 1e-16
_RATIO_DOUBLINGS = 8
_LOG_TINY = math.log(math.ulp(0.0)) - 1.0
# Below this the leading term (kappa/2)^m / m! is the ratio to rounding (the
# next term is a relative kappa^2/4); the recurrence's 2j/kappa would
# overflow at subnormal kappa.
_SERIES_MAX_KAPPA = 1e-8
# From here on, and while m^2 <= kappa, the large-argument expansion is
# used: the backward recurrence needs a start order growing like sqrt(kappa).
_HANKEL_MIN_KAPPA = 1e3

_STANDARD_NORMAL = statistics.NormalDist()

# The largest sample size a scenario, an empirical power curve or
# ``circsym sample`` accepts: one sample of it is 80 MB of doubles.
MAX_SAMPLE_SIZE = 10_000_000


def bessel_i(m, z):
    """Modified Bessel function of the first kind, integer order m >= 0.

    Truncated power series sum_j (z/2)^(m+2j) / (j! (m+j)!), stopped when
    the running term falls below 1e-15 of the partial sum. Accurate to
    better than 1e-14 relative error for the concentration range used here
    (z up to ~50); all terms are positive so truncation error is bounded by
    the first neglected term.
    """
    m = check_integer(m, "order", least=0)
    if z < 0:
        raise ValueError(f"argument must be nonnegative, got {z!r}")
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


def bessel_i0e(kappa):
    """I_0(kappa) e^-kappa for kappa >= 0: the power series up to kappa = 50,
    the large-argument expansion above, which needs kappa of about 20 (at 50
    both agree with SciPy's i0e to 3e-16; the series overflows near 713)."""
    if kappa <= 50.0:
        return bessel_i(0, kappa) * math.exp(-kappa)
    return _hankel_series(0, kappa) / math.sqrt(2.0 * math.pi * kappa)


def bessel_ratio(m, kappa):
    """I_m(kappa) / I_0(kappa) for integer m >= 0 and finite kappa > 0.

    Below kappa = 1e-8 by the leading term (kappa/2)^m / m! of the power
    series. From there up to kappa = 1e3, or when m^2 > kappa, by Miller's
    backward recurrence r_j = I_j/I_{j-1} = 1/(2j/kappa + r_{j+1}) from
    r = 0 at a start order that doubles until the product r_1 ... r_m stops
    changing (Amos, ACM TOMS 1974). The first start order is below
    max(2m, 32) + 2 max(m, 32), so the cost grows with m but not with
    kappa. Otherwise as the quotient of the large-argument (Hankel)
    expansions of I_m and I_0, whose terms then shrink at least twofold
    each. Relative error about 1e-14 or better against SciPy for m <= 12
    over kappa in [1e-3, 1e8].
    """
    m = check_integer(m, "order", least=0)
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"argument must be finite and positive, got {kappa!r}")
    kappa = float(kappa)
    if m == 0:
        return 1.0
    # r_j < kappa/(2j), so the ratio is below (kappa/2)^m / m!, which is 0
    # to rounding when kappa/2 rounds to 0 (kappa = 5e-324) or its log is tiny
    half = 0.5 * kappa
    if half == 0.0 or m * math.log(half) - math.lgamma(m + 1) < _LOG_TINY:
        return 0.0
    if kappa < _SERIES_MAX_KAPPA:
        return half**m / math.factorial(m)
    if kappa >= _HANKEL_MIN_KAPPA and m * m <= kappa:
        return _hankel_series(m, kappa) / _hankel_series(0, kappa)
    top = max(2 * m, 32) + int(2.0 * math.sqrt(kappa))
    previous = math.nan
    for _ in range(_RATIO_DOUBLINGS):
        r = 0.0
        product = 1.0
        for j in range(top, 0, -1):
            r = 1.0 / (2.0 * j / kappa + r)
            if j <= m:
                product *= r
        if abs(product - previous) <= _RATIO_RTOL * product:
            return product
        previous = product
        top *= 2
    raise FloatingPointError(
        f"Bessel ratio recurrence did not settle for m={m}, kappa={kappa}"
    )


def _hankel_series(m, kappa):
    """sqrt(2 pi kappa) e^-kappa I_m(kappa) by its large-argument expansion,
    summed until a term falls below 1e-16 of the sum; the neglected
    e^(-2 kappa) part is below double precision for kappa >= 20."""
    mu = 4.0 * m * m
    term = 1.0
    total = 1.0
    j = 0
    while abs(term) > _RATIO_RTOL * abs(total):
        j += 1
        term *= -(mu - (2 * j - 1) ** 2) / (8.0 * j) / kappa
        total += term
    return total


def check_alpha(alpha):
    """The level ``alpha`` as a float; ValueError unless it lies in (0, 1)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def check_integer(value, name, least=1, most=None):
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer (an integral float too) of at least ``least``, or of any size
    when ``least`` is None, and of at most ``most`` when that is given."""
    if not (value >= (-math.inf if least is None else least)
            and value % 1 == 0):  # false for nan and inf too
        wanted = {None: "an integer", 0: "a nonnegative integer",
                  1: "a positive integer"}.get(least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def check_frequency(k):
    """The frequency ``k`` as an int; ValueError unless it is a positive integer."""
    return check_integer(k, "frequency k")


def norm_cdf(x):
    """Standard normal cdf via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_sf(x):
    """Standard normal survival function 1 - Phi(x), accurate in the tail."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def norm_quantile(p):
    """Standard normal quantile Phi^{-1}(p) for p in (0, 1), by the standard
    library's ``NormalDist.inv_cdf`` (Wichura's AS241, about 1e-16 relative)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires p in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def upper_quantile(alpha):
    """The alpha upper quantile z_alpha with Phi(z_alpha) = 1 - alpha, as
    -Phi^{-1}(alpha): 1 - alpha is never formed, so any alpha keeps full
    precision."""
    return -norm_quantile(alpha)
