"""Angle wrapping, sample validation and the tangent-based sine kernels.

Angles are plain floats (radians), samples are 1-D float64 arrays. The
canonical range is the half-open interval [-pi, pi); the endpoints of the
circle are identified by mapping +pi to -pi.
"""

import math

import numpy as np

from .errors import EmptySampleError
from .workspace import temporaries

TWO_PI = 2.0 * np.pi
_MAX_MULTIPLE = 3  # the largest k / gcd(ks) sine_sums reaches by recurrence, in 4 arrays


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
    arr = _wrap_in_place(np.array(x, dtype=float))  # a copy: callers keep their arrays
    if np.ndim(x) == 0 and not isinstance(x, np.ndarray):
        return float(arr)
    return arr


def _wrap_in_place(arr):
    """Wrap the C-contiguous float64 array ``arr`` to [-pi, pi) in place;
    returns ``arr``."""
    # canonical values are left as they are: the mod arithmetic, which
    # perturbs them by an ulp, runs only on the values outside; a nan or an
    # infinity makes the min or the max non-finite
    if arr.size == 0:
        return arr
    lo, hi = arr.min(), arr.max()
    if lo >= -np.pi and hi < np.pi:
        return arr
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("cannot wrap non-finite angle")
    flat = arr.reshape(-1)  # a view, as arr is contiguous
    outside = np.flatnonzero((flat < -np.pi) | (flat >= np.pi))
    wrapped = np.mod(flat[outside] + np.pi, TWO_PI) - np.pi
    # mod can return exactly 2*pi for inputs just below -pi due to rounding
    wrapped[wrapped >= np.pi] -= TWO_PI
    flat[outside] = wrapped
    return arr


def half_tangent(x, t, w, scale=1):
    """t = tan(scale x / 2) and w = 1/(1 + t^2) of the angles ``x``, written
    into the caller's float64 arrays ``t`` and ``w`` of the shape of ``x``;
    ``x`` may be ``t`` itself. Returns (t, w).

    The sines and cosines of a = scale x follow without forming either:

        sin a = 2 t w,  cos a = 2 w - 1,  sin^2(a/2) = t^2 w,  cos^2(a/2) = w.

    The argument scale x / 2 is one multiply by scale / 2. Halving is exact
    while scale |x| / 2 is at least 2^-1022, so t has the bits it would have
    from the angles scale x formed first; for an integer scale that holds
    below the bound too, where scale x is exact (``tests/test_properties.py``).

    On x86-64 numpy runs its float64 ``tan`` as SIMD code several times
    faster than its ``sin`` and ``cos``, in which the replication path
    would otherwise spend most of its time. tan(a/2) stays finite for every
    finite double, so t^2 cannot overflow. On canonical angles times
    scale <= 3 the sine and cosine are within 2 eps (absolute) of ``np.sin``
    and ``np.cos`` (``tests/test_properties.py``).
    """
    np.multiply(0.5 * scale, x, out=t)
    np.tan(t, out=t)
    np.square(t, out=w)
    np.add(1.0, w, out=w)
    np.divide(1.0, w, out=w)
    return t, w


def sine_multiples(x, sines, w, scale=1):
    """Fill the list ``sines`` with sin(j a) for a = scale x and j = 1, ...,
    len(sines), from one tangent pass; returns ``sines``.

    ``x`` holds the angles and is only read; the sines and ``w`` are float64
    arrays of its shape, and ``sines[0]`` may be ``x`` itself. sin a = 2 t w
    comes from ``half_tangent``, then sin((j + 1) a) = 2 cos a sin(j a) -
    sin((j - 1) a), the Chebyshev recurrence, with 2 cos a = 4 w - 2 left in
    ``w``. Its error grows like j^2 eps; on canonical angles it stays within
    2 j^2 eps (absolute) of ``np.sin`` for j <= 16
    (``tests/test_properties.py``).
    """
    first = sines[0]
    half_tangent(x, first, w, scale)
    np.multiply(first, w, out=first)
    np.multiply(2.0, first, out=first)
    if len(sines) > 1:
        twocos = np.multiply(4.0, w, out=w)
        np.subtract(twocos, 2.0, out=twocos)
        np.multiply(twocos, first, out=sines[1])  # sin 2a = sin a 2cos a
        for prev, cur, following in zip(sines, sines[1:], sines[2:]):
            np.multiply(twocos, cur, out=following)
            np.subtract(following, prev, out=following)
    return sines


def sine_sums(x, theta, ks, out):
    """Row sums of sin(k(x - theta)) and of its square, for each k in ``ks``.

    ``x`` holds canonical angles along its last axis, ``ks`` is a non-empty
    tuple of positive integers. The sums are written to ``out``, a float64
    array of shape ``(2, len(ks)) + x.shape[:-1]`` (a view will do), and it
    is returned: ``out[0, i]`` holds the row sums of the sines at ``ks[i]``
    and ``out[1, i]`` those of their squares. Each is one ``np.add.reduce``
    over the last axis, the reduction that ``np.mean`` divides by n.

    Every k comes from one tangent pass (``sine_multiples``): with
    g = gcd(ks), sin(g(x - theta)) = 2 t w from t = tan(g(x - theta)/2),
    which is several times faster than ``np.sin``, and sin(jg(x - theta))
    follows by the Chebyshev recurrence. A single k runs no recurrence.
    The tangent pass takes g/2 as its scale (``half_tangent``), so
    g(x - theta) is never formed, and at theta = +0.0 it reads ``x``
    itself; either way the bits are those of the scaled difference.
    The kernel takes max(ks)/g + 1 scratch arrays of the size of ``x``: w,
    which ends up holding the squares, then the sines of j = 1, ...,
    max(ks)/g, so a k given twice reads the same sines. Past max(ks) =
    ``_MAX_MULTIPLE`` g each k gets its own pass, which keeps the scratch
    at four arrays; its sums are those of ``ks = (k,)``.
    """
    ks = tuple(ks)
    g = math.gcd(*ks)
    top = max(ks) // g
    if top > _MAX_MULTIPLE:
        for i, k in enumerate(ks):
            sine_sums(x, theta, (k,), out[:, i:i + 1])
        return out
    w, *sines = (a.reshape(x.shape) for a in temporaries(x.size, top + 1))
    # x - (+0.0) is x bit for bit, so theta = +0.0 reads x itself; x - (-0.0)
    # would turn -0.0 into +0.0
    plus_zero = theta == 0.0 and math.copysign(1.0, theta) == 1.0
    angles = x if plus_zero else np.subtract(x, theta, out=sines[0])
    sine_multiples(angles, sines, w, g)
    for i, k in enumerate(ks):  # out[0, i, ...] is an array even for one row
        sine = sines[k // g - 1]
        np.add.reduce(sine, axis=-1, out=out[0, i, ...])
        np.add.reduce(np.square(sine, out=w), axis=-1, out=out[1, i, ...])
    return out


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

