"""Angle wrapping, sample validation and empirical trigonometric moments.

Angles are plain floats (radians), samples are 1-D float64 arrays. The
canonical range is the half-open interval [-pi, pi); the endpoints of the
circle are identified by mapping +pi to -pi.
"""

import math

import numpy as np

from .errors import EmptySampleError
from .special import check_integer

TWO_PI = 2.0 * np.pi


def wrap(x):
    """Wrap angles to the canonical range [-pi, pi).

    Parameters
    ----------
    x : float or array_like
        Angle(s) in radians. Must be finite.

    Returns
    -------
    float or np.ndarray
        Value(s) congruent to ``x`` modulo 2*pi, in [-pi, pi). Scalar in,
        scalar out; an array comes back as a new array, never as ``x``.
    """
    arr = np.array(x, dtype=float)  # a copy: callers keep the arrays they pass
    # canonical values are returned as they are, so the mod arithmetic, which
    # perturbs them by an ulp, runs only when some value is outside; the
    # comparisons are false for nan and +-inf
    canonical = (arr >= -np.pi) & (arr < np.pi)
    if not np.all(canonical):
        if not np.all(np.isfinite(arr)):
            raise ValueError("cannot wrap non-finite angle")
        wrapped = np.mod(arr + np.pi, TWO_PI) - np.pi
        # mod can return exactly 2*pi for inputs just below -pi due to rounding
        wrapped = np.where(wrapped >= np.pi, wrapped - TWO_PI, wrapped)
        arr = np.where(canonical, arr, wrapped)
    if np.ndim(x) == 0 and not isinstance(x, np.ndarray):
        return float(arr)
    return arr


def check_angle(value, name="theta"):
    """The angle ``value`` as a float; ValueError unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite angle, got {value!r}")
    return value


def as_sample(angles):
    """Validate and canonicalize a collection of angles into a sample array.

    Parameters
    ----------
    angles : array_like
        Observations in radians, at least one.

    Returns
    -------
    np.ndarray
        1-D float64 array with every entry wrapped to [-pi, pi).
    """
    arr = np.atleast_1d(np.asarray(angles, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"sample must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptySampleError("sample must contain at least one observation")
    return wrap(arr)


def trig_moment(sample, theta, m, kind="sin"):
    """Empirical trigonometric moment about a direction.

    Computes ``mean(trig(m * (x_i - theta)))`` where ``trig`` is sin or cos.
    Callers that need the root-n scaled version multiply by sqrt(n).

    Parameters
    ----------
    sample : array_like
        Angular observations in radians.
    theta : float
        Reference direction in radians.
    m : int
        Moment order, >= 1.
    kind : {"sin", "cos"}
        Which trigonometric function to average.

    Returns
    -------
    float
        The empirical moment, always in [-1, 1].
    """
    theta = check_angle(theta)
    m = check_integer(m, "moment order")
    arr = as_sample(sample)
    centered = m * (arr - theta)
    if kind == "sin":
        return float(np.mean(np.sin(centered)))
    if kind == "cos":
        return float(np.mean(np.cos(centered)))
    raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")
