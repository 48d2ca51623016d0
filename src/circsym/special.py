"""Modified Bessel functions, the standard normal cdf and upper quantile, and the
checks of a level, a frequency and an integer.

Kept dependency-free. ``bessel_ratio_sum`` gives a weighted sum of the von
Mises cosine moments I_j(kappa)/I_0(kappa) over a range of orders in one
moment pass, for every finite kappa > 0 and without forming either Bessel
function; ``bessel_ratio`` is one moment. ``bessel_i0e`` gives I_0(kappa)
e^-kappa for every kappa, from the raw order-0 series ``bessel_i`` (which
overflows above kappa ~ 700) or the large-argument expansion. The normal cdf and
survival function come from ``math.erfc``, which keeps both tails; z_alpha
is minus the standard library's ``statistics.NormalDist().inv_cdf``. The
test suite checks them against SciPy.
"""

import math
import statistics
import sys

_BESSEL_RTOL = 1e-15
_BESSEL_MAX_TERMS = 500

_RATIO_RTOL = 1e-16
_RATIO_DOUBLINGS = 8
# Below this (kappa/2)^m / m! is the ratio to rounding (the next term is a relative
# kappa^2/4), and the recurrence's 2j/kappa would overflow at subnormal kappa.
_SERIES_MAX_KAPPA = 1e-8
# From here on, while m^2 <= kappa, the large-argument expansion's terms shrink
# at least twofold each; the recurrence's start order grows like sqrt(kappa).
_HANKEL_MIN_KAPPA = 1e3

_STANDARD_NORMAL = statistics.NormalDist()

# The largest sample size a scenario, an empirical power curve or
# ``circsym sample`` accepts: one sample of it is 80 MB of doubles.
MAX_SAMPLE_SIZE = 10_000_000


def bessel_i(z):
    """I_0(z), the modified Bessel function of the first kind of order 0,
    for z >= 0 (the raw series overflows above z ~ 700).

    Truncated power series sum_j (z/2)^(2j) / (j!)^2, stopped when the
    running term falls below 1e-15 of the partial sum. Accurate to better
    than 1e-14 relative error for z up to ~50; all terms are positive so
    truncation error is bounded by the first neglected term.
    """
    if z < 0:
        raise ValueError(f"argument must be nonnegative, got {z!r}")
    half = z / 2.0
    quarter = half * half
    term = total = 1.0
    for j in range(1, _BESSEL_MAX_TERMS):
        term *= quarter / (j * j)
        total += term
        if term <= _BESSEL_RTOL * total:
            return total
    raise RuntimeError(f"Bessel series did not converge for z={z}")


def bessel_i0e(kappa):
    """I_0(kappa) e^-kappa for kappa >= 0: the power series up to kappa = 50,
    the large-argument expansion above, which needs kappa of about 20 (at 50
    both agree with SciPy's i0e to 3e-16; the series overflows near 713)."""
    if kappa <= 50.0:
        return bessel_i(kappa) * math.exp(-kappa)
    return _hankel_series(0, kappa) / math.sqrt(2.0 * math.pi * kappa)


def bessel_ratio(m, kappa):
    """I_m(kappa) / I_0(kappa), the one-term ``bessel_ratio_sum``: within about
    1e-14 of SciPy, relative, for m <= 12 over kappa in [1e-3, 1e8]."""
    m = check_integer(m, "order", least=0)
    return bessel_ratio_sum(range(m, m + 1), kappa, lambda j: 1.0)


def bessel_ratio_sum(orders, kappa, weight):
    """The sum of weight(j) I_j(kappa) / I_0(kappa) over ``orders``, a
    nonempty increasing range of orders >= 0, for finite kappa > 0.

    Below kappa = 1e-8 by the series' leading terms (kappa/2)^j / j!; from
    kappa = 1e3 on, while the last order's square is at most kappa, by
    quotients of large-argument (Hankel) expansions. Otherwise by one Miller
    pass of r_j = I_j/I_(j-1) = 1/(2j/kappa + r_(j+1)) from r = 0 (Amos, ACM
    TOMS 1974), summed in Horner form r_1 (w_1 + r_2 (w_2 + ...)): one order
    m of unit weight is the product r_m ... r_1. The pass reaches order
    R = min(last order, 32 + 40 sqrt(kappa)), doubled until r_1 ... r_R is
    below the smallest normal double (later terms are 0 to rounding), from
    a start order max(2R, 32) + 2 sqrt(kappa) doubled until the sum settles.
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"argument must be finite and positive, got {kappa!r}")
    kappa = float(kappa)
    last = orders[-1]
    if kappa < _SERIES_MAX_KAPPA:  # (kappa/2)^j is 0 from j = 40 on, before j! overflows
        return sum((weight(j) * ((0.5 * kappa)**j / math.factorial(j))
                    for j in orders[:40] if j < 40), 0.0)
    if kappa >= _HANKEL_MIN_KAPPA and last * last <= kappa:
        scale = _hankel_series(0, kappa)
        return sum(weight(j) * (_hankel_series(j, kappa) / scale) for j in orders)
    reach = min(last, 32 + int(40.0 * math.sqrt(kappa)))
    while True:
        top = max(2 * reach, 32) + int(2.0 * math.sqrt(kappa))
        previous = math.nan
        for _ in range(_RATIO_DOUBLINGS):
            r, total, product = 0.0, 0.0, 1.0
            for j in range(top, 0, -1):
                r = 1.0 / (2.0 * j / kappa + r)
                if j <= reach:
                    total = (total + weight(j) if j in orders else total) * r
                    product *= r
            if reach < last and product >= sys.float_info.min:
                break
            if abs(total - previous) <= _RATIO_RTOL * abs(total):
                return total + (weight(0) if 0 in orders else 0.0)
            previous = total
            top *= 2
        else:
            raise FloatingPointError(f"Bessel ratio sum did not settle for {orders}, {kappa=}")
        reach = min(2 * reach, last)


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
    when ``least`` is None, and of at most ``most`` when that is given. A
    value that is not a number, such as a string or None, is refused by
    the same message."""
    try:
        valid = (value >= (-math.inf if least is None else least)
                 and value % 1 == 0)  # false for nan and inf too
    except TypeError:  # no order or remainder: not a number
        valid = False
    if not valid:
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


def upper_quantile(alpha):
    """The alpha upper quantile z_alpha with Phi(z_alpha) = 1 - alpha, for
    alpha in (0, 1), as -Phi^{-1}(alpha) by the standard library's
    ``NormalDist.inv_cdf`` (Wichura's AS241, about 1e-16 relative): 1 -
    alpha is never formed, so any alpha keeps full precision."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"quantile requires alpha in (0, 1), got {alpha!r}")
    return -_STANDARD_NORMAL.inv_cdf(alpha)
