"""Closed-form references the benchmark checks circsym against.

Nothing here imports circsym. Every quantity follows from the cosine
moments rho_m = E[cos(m X)] of a symmetric base density:

    von Mises(kappa)      rho_m = I_m(kappa) / I_0(kappa)
    cardioid(ell)         rho_1 = ell / 2, rho_m = 0 for m >= 2
    wrapped Cauchy(rho)   rho_m = rho ** m

A base is a ``(family, parameter)`` pair with family ``vm``, ``cardioid``
or ``wcauchy``, the same spelling as circsym's base labels.
"""

import math
from statistics import NormalDist

import numpy as np

_STD_NORMAL = NormalDist()


def parse_base(label):
    """``"vm:1.5"`` -> ``("vm", 1.5)``."""
    family, _, value = label.partition(":")
    if family not in ("vm", "cardioid", "wcauchy"):
        raise ValueError(f"no closed form for base {label!r}")
    return family, float(value)


def bessel_ratio(m, kappa):
    """I_m(kappa) / I_0(kappa) by Miller's backward recurrence.

    r_j = I_j / I_{j-1} satisfies r_j = 1 / (2j/kappa + r_{j+1}); starting
    from r_top = 0 at a high order and doubling that order until the
    product stops changing gives the ratio without ever forming I_0, so
    it holds for any kappa > 0.
    """
    if m == 0:
        return 1.0
    top = max(2 * m, 32) + int(2 * math.sqrt(kappa))
    previous = None
    while True:
        r = 0.0
        product = 1.0
        for j in range(top, 0, -1):
            r = 1.0 / (2.0 * j / kappa + r)
            if j <= m:
                product *= r
        if previous is not None and abs(product - previous) <= 1e-16 * abs(product):
            return product
        previous = product
        top *= 2


def cos_moment(base, m):
    """rho_m = E[cos(m X)] for a base ``(family, parameter)``; rho_0 = 1."""
    family, value = base
    m = abs(int(m))
    if m == 0:
        return 1.0
    if family == "vm":
        return bessel_ratio(m, value)
    if family == "cardioid":
        return value / 2.0 if m == 1 else 0.0
    if family == "wcauchy":
        return value**m
    raise ValueError(f"no cosine moments for family {family!r}")


def sine_cross(base, k, k_prime):
    """E0[sin(kX) sin(k'X)] = (rho_{|k-k'|} - rho_{k+k'}) / 2."""
    return 0.5 * (cos_moment(base, k - k_prime) - cos_moment(base, k + k_prime))


def fisher_entries(base, k):
    """(g11, g12, g22) of the location-skewness information matrix."""
    family, value = base
    if family == "vm":
        g11 = value * cos_moment(base, 1)
    elif family == "cardioid":
        g11 = 1.0 - math.sqrt(1.0 - value * value)
    else:
        g11 = 2.0 * value**2 / (1.0 - value**2) ** 2
    g12 = k * cos_moment(base, k)
    g22 = 0.5 * (1.0 - cos_moment(base, 2 * k))
    return g11, g12, g22


def two_sided_rejection(shift, alpha):
    """P(|Z| > z_{alpha/2}) for Z ~ N(shift, 1): 1 - Phi(z - s) + Phi(-z - s)."""
    z = _STD_NORMAL.inv_cdf(1.0 - alpha / 2.0)
    return 1.0 - _STD_NORMAL.cdf(z - shift) + _STD_NORMAL.cdf(-z - shift)


def local_power(base, k, k_prime, tau2, alpha=0.05):
    """Limiting power against k'-sine skewness tau2 / sqrt(n), with
    shift s = C(k, k') tau2 / sqrt(g22) and C(k, k') = ``sine_cross``."""
    shift = sine_cross(base, k, k_prime) * tau2 / math.sqrt(fisher_entries(base, k)[2])
    return two_sided_rejection(shift, alpha)


def studentized_power(base, k, k_prime, lam, n, alpha=0.05):
    """Finite-n normal approximation to the power of the studentized k test.

    Under the k'-sine-skewed base, Y = sin(kX) has mean
    lam * (rho_{|k-k'|} - rho_{k+k'}) / 2 and second moment
    (1 - rho_{2k}) / 2, so T_k = sqrt(n) mean(Y) / sqrt(mean(Y^2)) is taken
    as N(sqrt(n) * mean / sqrt(second moment), 1). At lam = tau2 / sqrt(n)
    this is exactly ``local_power``.
    """
    mean = lam * sine_cross(base, k, k_prime)
    second = 0.5 * (1.0 - cos_moment(base, 2 * k))
    return two_sided_rejection(math.sqrt(n) * mean / math.sqrt(second), alpha)


def studentized_statistic(angles, theta, k):
    """Signed T_k = sqrt(n) mean(sin k(x - theta)) / sqrt(mean(sin^2 k(x - theta)))."""
    s = np.sin(k * (np.asarray(angles, dtype=float) - theta))
    return math.sqrt(s.size) * float(s.mean()) / math.sqrt(float(np.mean(s * s)))


def p_value(statistic, alternative="two-sided"):
    """Normal p-value of a signed statistic for circsym's three alternatives."""
    if alternative == "two-sided":
        return 2.0 * _STD_NORMAL.cdf(-abs(statistic))
    if alternative == "right":
        return _STD_NORMAL.cdf(-statistic)
    return _STD_NORMAL.cdf(statistic)


def rayleigh_statistic(angles, direction):
    """sqrt(2n) mean(cos(x - direction)); its one-sided p-value is 1 - Phi."""
    x = np.asarray(angles, dtype=float)
    return math.sqrt(2.0 * x.size) * float(np.mean(np.cos(x - direction)))


def binomial_se(p, reps):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / reps)
