"""Symmetry and uniformity tests about a known median direction.

The studentized statistic is kept in signed form internally; its absolute
value is the published two-sided statistic, while the sign carries the
direction needed for one-sided alternatives (positive skewness inflates
the sine moment). All asymptotic tests compare against the standard
normal. The modified runs test has an exact null law instead:
R - 1 ~ Binomial(m - 1, 1/2) (``runs_null_cdf``).

Each statistic has one implementation, a row-wise kernel over the last
axis of an array of canonical angles. T_k is built from two helpers:
``angles.sine_sums`` writes each row's moments, the sums of
sin(k(x - theta)) and of its square, and ``studentize`` forms the ratio
from them; the parametric test divides the same sine sum by sqrt(g22).
``modified_runs_rows`` gives the modified runs count. The single-sample
tests run on one row, on fresh temporaries. The Monte Carlo engine calls
``angles.sine_sums`` on each chunk of replications and ``studentize``
once per block of chunks, the same bits, and the kernels then take their
temporaries from the arrays the engine keeps for each thread
(``workspace.temporaries``). Both kernels stay on numpy's fast paths:
``angles.sine_sums`` scores every k of a chunk from one tangent of each
angle (``angles.sine_multiples``) and ``modified_runs_rows`` orders each
row by one sort of uint64 keys, not a stable argsort.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import _wrap_in_place, as_sample, check_angle, sine_sums, wrap
from .asymptotics import cross_corr
from .errors import DegenerateInformationError, DegenerateSampleError, EmptySampleError
from .special import check_alpha, check_frequency, norm_cdf, norm_sf
from .workspace import temporaries

ALTERNATIVES = ("two-sided", "left", "right")

_DEFAULT_RUNS_SEED = 0x5D3A7C1B


@dataclass
class TestResult:
    """Outcome of a single hypothesis test."""

    statistic: float
    p_value: float
    alternative: str
    method: str
    n: int
    theta: float
    k: int | None = None
    reject_at: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def reject(self):
        if self.reject_at is None:
            return None
        return self.p_value < self.reject_at

    def to_dict(self):
        out = {
            "method": self.method,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alternative": self.alternative,
            "n": self.n,
            "theta": self.theta,
        }
        if self.k is not None:
            out["k"] = self.k
        if self.reject_at is not None:
            out["reject_at"] = self.reject_at
            out["reject"] = self.reject
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


def check_alternative(alternative):
    """``alternative`` itself; ValueError unless it is one of ``ALTERNATIVES``."""
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")
    return alternative


def p_value(signed, alternative="two-sided"):
    """Standard normal p-value of a signed statistic; NaN stays NaN."""
    if alternative == "two-sided":
        return 2.0 * norm_sf(abs(signed))
    if alternative == "right":
        return norm_sf(signed)
    check_alternative(alternative)  # raises unless "left"
    return norm_cdf(signed)


def studentize(sums, n):
    """T_k from the row sums of ``sine_sums`` over rows of ``n`` observations.

    Returns an array of shape ``sums.shape[1:]``: sqrt(n) * (s / n) /
    sqrt(q / n) from the sum s of the sines and the sum q of their squares,
    NaN where q vanishes. Dividing a sum by n is what ``np.mean`` does
    after its reduction, so this gives the bits of the statistic formed
    from two means, however the rows were batched into ``sums``.
    """
    mean_sine, denom_sq = np.divide(sums, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom_sq == 0.0, np.nan,
                        math.sqrt(n) * mean_sine / np.sqrt(denom_sq))


def symmetry_test(sample, theta, k, alternative="two-sided", alpha=0.05):
    """Studentized test of reflective symmetry about theta.

    Asymptotically standard normal under any symmetric density, so the
    p-value is distribution-free.
    """
    alpha, alternative = check_alpha(alpha), check_alternative(alternative)
    theta, k = check_angle(theta), check_frequency(k)
    arr = as_sample(sample)
    if arr.size < 2:
        raise EmptySampleError("studentized statistic needs at least two observations")
    signed = float(studentize(sine_sums(arr, theta, (k,), np.empty((2, 1))), arr.size)[0])
    if math.isnan(signed):
        raise DegenerateSampleError(
            f"every sin({k}(x - theta)) vanishes; the studentized statistic is undefined"
        )
    return TestResult(
        statistic=signed,
        p_value=p_value(signed, alternative),
        alternative=alternative,
        method=f"sine-symmetry-studentized:k={k}",
        n=arr.size,
        theta=wrap(theta),
        k=k,
        reject_at=alpha,
    )


def parametric_test(sample, theta, k, base, alternative="two-sided", alpha=0.05):
    """Test of symmetry studentized by the base density's own g22.

    Valid (level alpha) only under the stated base; optimal against its
    k-sine-skewed alternatives.
    """
    alpha, alternative = check_alpha(alpha), check_alternative(alternative)
    theta, k = check_angle(theta), check_frequency(k)
    arr = as_sample(sample)
    g22 = cross_corr(base, k, k)
    if g22 <= 0.0:
        raise DegenerateInformationError(
            f"skewness information vanishes for {base.label!r}, k={k}"
        )
    mean_sine = float(sine_sums(arr, theta, (k,), np.empty((2, 1)))[0, 0] / arr.size)
    signed = math.sqrt(arr.size) * mean_sine / math.sqrt(g22)
    return TestResult(
        statistic=signed,
        p_value=p_value(signed, alternative),
        alternative=alternative,
        method=f"sine-symmetry-parametric:{base.label}:k={k}",
        n=arr.size,
        theta=wrap(theta),
        k=k,
        reject_at=alpha,
    )


def rayleigh_cardioid_test(sample, central_direction, alpha=0.05):
    """One-sided Rayleigh test of uniformity against a fixed central direction.

    Statistic sqrt(2) * sqrt(n) * mean(cos(x - central_direction)); large
    values indicate concentration toward the direction, so rejection is
    one-sided with p = 1 - Phi(statistic). Equals the parametric symmetry
    statistic under the uniform base with k = 1 evaluated at
    theta = central_direction - pi/2.
    """
    alpha = check_alpha(alpha)
    central_direction = check_angle(central_direction, "central direction")
    arr = as_sample(sample)
    if arr.size < 2:
        raise EmptySampleError("uniformity test needs at least two observations")
    statistic = math.sqrt(2.0 * arr.size) * float(
        np.mean(np.cos(arr - central_direction))
    )
    return TestResult(
        statistic=statistic,
        p_value=norm_sf(statistic),
        alternative="right",
        method="rayleigh-cardioid-uniformity",
        n=arr.size,
        theta=wrap(central_direction),
        reject_at=alpha,
    )


def runs_count(signs):
    """Number of runs in each sign sequence along the last axis (0 when empty)."""
    signs = np.asarray(signs)
    changes = np.count_nonzero(signs[..., 1:] != signs[..., :-1], axis=-1)
    return (signs.shape[-1] > 0) + changes


def simulate_runs_null(m, reps, rng):
    """Run counts of ``reps`` i.i.d. fair-coin sign vectors (length m): draws
    from the law ``runs_null_cdf`` gives exactly."""
    counts = np.empty(reps, dtype=np.int64)
    block = max(1, min(reps, 4_000_000 // max(m, 1)))
    done = 0
    while done < reps:
        take = min(block, reps - done)
        counts[done:done + take] = runs_count(rng.random((take, m)) < 0.5)
        done += take
    return counts


def runs_null_cdf(counts, m):
    """P(R <= count) for the runs R among m >= 1 i.i.d. fair-coin signs.

    The m - 1 neighbouring pairs change sign independently with probability
    1/2, so R - 1 ~ Binomial(N = m - 1, 1/2). Its pmf is built up from the
    mode by pmf(j + 1) / pmf(j) = (N - j) / (j + 1) and mirrored, so 2^-N is
    never formed: any m works, and tails below the smallest double read 0.
    """
    n = int(m) - 1
    j = np.arange((n + 1) // 2, n)
    upper = np.cumprod(np.concatenate(([1.0], (n - j) / (j + 1.0))))
    cdf = np.cumsum(np.concatenate(([0.0], upper[np.abs(2 * np.arange(n + 1) - n) // 2])))
    return cdf[np.clip(counts, 0, n + 1)] / cdf[-1]  # cdf[r] = P(R <= r) up to scale


def runs_subset_size(n, p):
    """Observations the modified runs test keeps: ceil(p n), within [2, n];
    ValueError unless the percentile p lies in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"runs percentile p must lie in (0, 1), got {p!r}")
    return min(n, max(2, math.ceil(p * n)))


def modified_runs_rows(x, theta, m, coin_flips):
    """Modified runs count of every row of ``x``.

    Observations lie along the last axis and must be canonical angles, and
    ``m`` is a positive integer. The signs of sin(x - theta) are ordered by
    circular distance |wrap(x - theta)| (stable sort) and the runs among
    the ``m`` closest are counted; on a canonical angle c = wrap(x - theta),
    sin(c) has the sign of c, zero included, so no sine is formed. A sine
    that vanishes exactly gets a fair-coin sign: ``coin_flips(count)`` is
    called once and returns ``count`` booleans (True for +1), one for each
    zero of ``x`` in row-major order.

    Each row sorts one uint64 key per observation: the bits of |c| shifted
    left once, with the low bit set where c is negative (a zero first takes
    the sign of its coin). A nonnegative double's bits order the same way
    as its value, so the sorted keys are in distance order and their low
    bits are the sign sequence. A row with a tie among its m + 1 smallest
    distances is ordered by a stable argsort of the distances instead, so
    ties are still broken by index; among continuous draws only a row with
    two or more exact zeros has one.
    """
    n = x.shape[-1]
    # the keys live in the second float64 scratch array, which
    # sine_sums holds at the same size (its w, then 2 cos), so they
    # add no block-sized array
    centered, keys = temporaries(x.size, 2)
    centered = _wrap_in_place(np.subtract(x, theta, out=centered.reshape(x.shape)))
    centered = centered.reshape(-1, n)
    zeros, negative = (a.reshape(centered.shape) for a in temporaries(x.size, 2, bool))
    np.equal(centered, 0.0, out=zeros)
    centered[zeros] = np.where(coin_flips(int(np.count_nonzero(zeros))), 0.0, -0.0)
    keys = np.left_shift(centered.view(np.uint64), 1,
                         out=keys.view(np.uint64).reshape(centered.shape))
    np.bitwise_or(keys, np.signbit(centered, out=negative), out=keys)
    keys.sort(axis=-1)
    # neighbouring keys differ in a bit above the sign bit unless their
    # distances tie; their low bits differ where the sign changes
    top = min(m + 1, n)
    (steps,) = temporaries(keys.shape[0] * (top - 1), 1, np.uint64)
    steps = np.bitwise_xor(keys[:, 1:top], keys[:, :top - 1],
                           out=steps.reshape(keys.shape[0], top - 1))
    tied = np.any(np.less(steps, 2, out=zeros[:, :top - 1]), axis=-1)
    np.bitwise_and(steps, 1, out=steps)
    counts = 1 + np.count_nonzero(steps[:, :m - 1], axis=-1)
    if np.any(tied):
        rows = centered[tied]
        order = np.argsort(np.abs(rows), axis=-1, kind="stable")[:, :m]
        counts[tied] = runs_count(np.take_along_axis(np.signbit(rows), order, axis=-1))
    return counts.reshape(x.shape[:-1])


def modified_runs_test(sample, theta, p=0.6, alpha=0.05, rng=None):
    """Percentile-modified runs test of symmetry about theta.

    Observations are ordered by circular distance |wrap(x - theta)|; the
    signs of sin(x - theta) for the ceil(p*n) closest observations form
    the sequence whose run count R is the statistic. Small run counts
    signal sign clustering, hence asymmetry. Under the null the signs are
    i.i.d. fair coins independent of the distances, so the one-sided
    p-value P(R <= observed) is exact (``runs_null_cdf``). A sine that
    vanishes exactly gets a fair-coin sign from ``rng`` (a fixed default
    stream when omitted).
    """
    theta, alpha = check_angle(theta), check_alpha(alpha)
    arr = as_sample(sample)
    if arr.size < 10:
        raise EmptySampleError("modified runs test needs at least ten observations")
    m = runs_subset_size(arr.size, p)
    if rng is None:
        rng = np.random.Generator(np.random.Philox(_DEFAULT_RUNS_SEED))
    observed = int(modified_runs_rows(arr, theta, m, lambda count: rng.random(count) < 0.5))
    centered = wrap(arr - theta)
    tie_pairs = int(np.count_nonzero(np.diff(np.sort(np.abs(centered))) == 0.0))
    return TestResult(
        statistic=float(observed),
        p_value=float(runs_null_cdf(observed, m)),
        alternative="left",
        method=f"modified-runs:p={p:g}",
        n=arr.size,
        theta=wrap(theta),
        reject_at=alpha,
        extra={
            "subset_size": m,
            "tied_distance_pairs": tie_pairs,
            "zero_sines_randomized": int(np.count_nonzero(centered == 0.0)),
        },
    )
