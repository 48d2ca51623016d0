"""Circular density families and exact samplers.

The symmetric bases (von Mises, cardioid, wrapped Cauchy, uniform) are
reflectively symmetric about 0; :class:`SineSkewed` multiplies a shifted
base by ``1 + lam * sin(k * (x - theta))``. :class:`MoebiusSkewed` and
:class:`SkewedMixture` are the additional simulation alternatives.

Every model keeps one contract, held by their common base class: ``pdf``
(and ``score`` where the model has one) is an exact formula that takes a
scalar or an array and returns a float for a scalar, an array for an
array; ``sample(rng, n, out=None)`` draws n >= 1 angles from a
``numpy.random.Generator`` into ``out`` (a new array when it is None) and
returns them canonical, in [-pi, pi); and ``label`` is a descriptor that
``parse_model``, the one parser of model descriptors, reads back to an
equal model. Each symmetric base also states its cosine moments
rho_m = E[cos(m X)] (``cos_moment``) and its location information
g11 = E[phi(X)^2] (``location_information``) in closed form; the
information machinery in ``asymptotics`` is built from these.

A model draws through one method, ``_draw(rng, out)``, which fills ``out``
in place and takes its temporaries from ``workspace``: inside the
replication engine those are arrays reused from chunk to chunk, elsewhere
fresh ones, and the draws are the same either way. Every sampler is exact:
the von Mises (Best-Fisher) and cardioid (uniform envelope) rejection
samplers share one batch loop, ``_rejection_draw``; the wrapped Cauchy
wraps a linear Cauchy draw, and the skewed forms transform or reflect
their base's draws.

A skewed form's draw is two steps, ``_draw(rng, out) = _apply(_inputs(rng,
out.size), out)``: ``_inputs`` draws random inputs whose law does not
depend on the skewness lam (the base draw, and the reflection's or the
mixture's uniforms), and ``_apply`` maps them to the model's draws at its
lam. Forms that differ only in lam have the same ``_draw_key``, the form at
lam = 0, so the replication engine draws the inputs once for all of them
and each model's draws are still exactly its own law. A symmetric base has
no draw key: its inputs are the generator itself, and ``_apply`` draws.
"""

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property

import numpy as np

from .angles import TWO_PI, _wrap_in_place, check_angle, half_tangent, wrap
from .errors import UnsupportedBaseError
from .special import bessel_i0e, bessel_ratio, bessel_ratio_sum, check_frequency, check_integer
from .workspace import temporaries

# Best-Fisher is exact for any envelope r > 1, and its envelope is formed
# without cancellation, but 4 kappa^2 overflows from about kappa = 1e154.
# Above 2^47 ~ 1.4e14 the normal limit N(0, 1/kappa) is used instead, whose
# error O(1/kappa) is below 1e-14 there.
_BEST_FISHER_MAX_KAPPA = 2.0**47


def _check_kappa(kappa):
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa!r}")


def _number(x):
    """``x`` for a label: ``:g`` when that reads back exactly, else ``repr``."""
    x = float(x)
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


class _Model:
    """The contract every model keeps; a model states only its own math.

    A model is a frozen dataclass with ``_pdf`` (and ``_score``) on float
    arrays and ``_draw(rng, out)``, which fills the float array ``out`` with
    draws that need not be canonical. A symmetric base names its label
    ``_prefix``; a skewed form names its ``_form`` and the order ``_keys`` of
    its label's keywords.
    """

    in_family = False
    _form = None
    _draw_key = None  # a model whose inputs no other model shares

    def _inputs(self, rng, size):
        """The random inputs of ``size`` draws: with no draw key, the
        generator itself, from which ``_apply`` draws."""
        return rng

    def _apply(self, inputs, out):
        """Fill ``out`` with this model's draws from ``inputs``, which it
        only reads."""
        self._draw(inputs, out)

    def _evaluate(self, formula, x):
        value = np.asarray(formula(np.asarray(x, dtype=float)), dtype=float)
        return float(value) if value.ndim == 0 else value

    def pdf(self, x):
        return self._evaluate(self._pdf, x)

    def score(self, x):
        """Location score -f'(x)/f(x)."""
        return self._evaluate(self._score, x)

    def _score(self, x):
        raise UnsupportedBaseError(
            f"{self.label} has no location score; only the symmetric bases "
            "with a single mode have one"
        )

    def sample(self, rng, n, out=None):
        """``n`` draws from ``rng``, canonical angles in [-pi, pi), written to
        ``out`` and returned; ``out`` is a new array when None, else a
        C-contiguous float64 array of shape (n,)."""
        n = check_integer(n, "sample size")
        if out is None:
            out = np.empty(n)
        elif out.shape != (n,) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of shape ({n},)")
        self._draw(rng, out)
        return _wrap_in_place(out)

    def cos_moment_gap(self, a, b):
        """rho_a - rho_b of a symmetric base, for a < b with b - a even: the
        direct difference, exact where the moments are (uniform, cardioid)."""
        return self.cos_moment(a) - self.cos_moment(b)

    @property
    def label(self):
        text = {}
        for f in fields(self):
            value = getattr(self, f.name)
            text[f.name] = (value.label if f.name == "base"
                            else str(value) if f.type is int else _number(value))
        if self._form is None:
            return ":".join([self._prefix, *text.values()])
        args = [text["base"]] if "base" in text else []
        args += [f"{key}={text[key]}" for key in self._keys]
        return f"{self._form}({','.join(args)})"


@dataclass(frozen=True)
class Uniform(_Model):
    """Circular uniform density 1/(2*pi)."""

    in_family = True
    _prefix = "uniform"

    def _pdf(self, x):
        return np.full_like(x, 1.0 / TWO_PI)

    def _score(self, x):
        return np.zeros_like(x)

    def cos_moment(self, m):
        return 1.0 if m == 0 else 0.0

    @property
    def location_information(self):
        return 0.0

    def _draw(self, rng, out):
        _uniform_draw(rng, out)


def _uniform_draw(rng, out):
    rng.random(out=out)
    out *= TWO_PI
    out -= np.pi


def _rejection_draw(rng, out, rate, accepted, *args):
    """Fill ``out`` with the angles that ``accepted(rng, proposals, *args)``
    keeps, batch by batch, where ``rate`` is its acceptance rate. A batch
    for ``todo`` more draws holds todo / rate + 4 sqrt(todo) + 16 proposals,
    some four standard deviations more than needed, so one batch nearly
    always suffices."""
    n = out.size
    filled = 0
    while filled < n:
        todo = n - filled
        angles = accepted(rng, int(todo / rate + 4.0 * math.sqrt(todo) + 16.0), *args)
        take = min(todo, angles.size)
        out[filled:filled + take] = angles[:take]
        filled += take


def _kept(accept, values, out):
    """The entries of ``values`` where the bool array ``accept`` holds,
    written to the front of ``out`` and returned.

    ``np.compress`` with ``out`` fills a private copy and copies it back, so
    that a bad index leaves ``out`` untouched; ``take`` in clip mode writes
    in place, and the indices of ``flatnonzero`` are in range, so clipping
    changes nothing. That spares a pass and an array of the batch's size."""
    indices = np.flatnonzero(accept)
    return np.take(values, indices, out=out[:indices.size], mode="clip")


@dataclass(frozen=True)
class VonMises(_Model):
    """Von Mises density exp(kappa*(cos(x) - 1)) / (2*pi*I0(kappa)*e^-kappa)."""

    kappa: float

    in_family = True
    _prefix = "vm"

    def __post_init__(self):
        _check_kappa(self.kappa)

    def _pdf(self, x):
        cosm1 = -2.0 * np.sin(0.5 * x) ** 2  # cos(x) - 1 without cancellation
        return np.exp(self.kappa * cosm1) / (TWO_PI * bessel_i0e(self.kappa))

    def _score(self, x):
        return self.kappa * np.sin(x)

    def cos_moment(self, m):
        """I_m(kappa) / I_0(kappa)."""
        return bessel_ratio(m, self.kappa)

    def cos_moment_gap(self, a, b):
        """rho_a - rho_b as one ``bessel_ratio_sum`` of 2j rho_j over j = a+1,
        a+3, ..., b-1, over kappa, from I_(j-1) - I_(j+1) = (2j/kappa) I_j:
        its terms are positive, so nothing cancels as the moments near 1 at
        large kappa. Below kappa = 1 the direct difference loses nothing."""
        if self.kappa < 1.0:
            return super().cos_moment_gap(a, b)
        return bessel_ratio_sum(range(a + 1, b, 2), self.kappa, lambda j: 2.0 * j) / self.kappa

    @property
    def location_information(self):
        """g11 = kappa * rho_1."""
        return self.kappa * bessel_ratio(1, self.kappa)

    def _draw(self, rng, out):
        """Best-Fisher rejection sampler from a wrapped Cauchy envelope,
        vectorized in batches; the normal limit N(0, 1/kappa) above
        ``_BEST_FISHER_MAX_KAPPA``.

        The envelope's rho = (tau - sqrt(2 tau)) / (2 kappa), tau = 1 + q,
        q = sqrt(1 + 4 kappa^2), enters only through
        r = (1 + rho^2) / (2 rho) = (1 + q) / (2 kappa), so
        c0 = kappa (r - 1) = (1 + 1/(q + 2 kappa)) / 2 is formed without
        cancellation (rho as written rounds to 0 below kappa ~ 1e-8), and so
        is omega = sqrt((r - 1) / (r + 1)) = sqrt(c0 / (2 kappa + c0)), the
        factor of the half-angle form (``_best_fisher``). The acceptance
        rate 1/M of the envelope is

            p(kappa) = kappa I0e(kappa) (1 - rho^2) e^(1 - kappa (r - 1)) / (2 rho)
                     = I0e(kappa) sqrt((1 + q) / 2) e^(1 - c0),

        from 1 at kappa = 0 down to e^(1/2) / sqrt(2 pi) ~ 0.658 as kappa
        grows; ``_rejection_draw`` sizes the batches from it.
        """
        kappa = self.kappa
        if kappa < 1e-9:
            _uniform_draw(rng, out)
            return
        if kappa > _BEST_FISHER_MAX_KAPPA:
            rng.standard_normal(out=out)
            out /= math.sqrt(kappa)
            return
        c0, omega, rate = self._envelope
        _rejection_draw(rng, out, rate, self._best_fisher, c0, omega)

    @cached_property
    def _envelope(self):
        """c0 = kappa (r - 1), omega = sqrt((r - 1) / (r + 1)) and the
        acceptance rate p(kappa) of ``_draw``, formed once per model: the
        ``bessel_i0e`` series is not summed again for every chunk."""
        kappa = self.kappa
        q = math.sqrt(1.0 + 4.0 * kappa * kappa)
        c0 = 0.5 + 0.5 / (q + 2.0 * kappa)
        omega = math.sqrt(c0 / (2.0 * kappa + c0))
        rate = bessel_i0e(kappa) * math.sqrt(0.5 + 0.5 * q) * math.exp(1.0 - c0)
        return c0, omega, min(1.0, rate)

    def _best_fisher(self, rng, proposals, c0, omega):
        """The angles accepted among ``proposals`` Best-Fisher proposals, in
        half-angle form.

        Two uniforms per proposal: u1 gives y = pi (u1 - 1/2), and u2 is the
        acceptance uniform. Best and Fisher's proposal z = cos(2y),
        f = (1 + r z) / (r + z) = cos x is a wrapped Cauchy angle x with

            tan^2(x/2) = (1 - f) / (1 + f) = ((r - 1) / (r + 1)) tan^2 y,

        so t = tan(x/2) = omega tan(y), the sign of y giving the sign of x.
        With v = t^2, c = kappa (r - f) = c0 + kappa (1 - f)
        = c0 + 2 kappa v / (1 + v): every term is positive, so nothing
        cancels, and the proposal is kept when u2 <= c e^(1 - c). That exact
        test runs over the whole batch: Best and Fisher's squeeze c (2 - c)
        only spares the exponential on the entries it decides, and picking
        those out costs more than the exponential. The angle x = 2 arctan(t)
        is formed on the kept entries only; it keeps full relative precision
        near 0 and stays well conditioned near +-pi, where an arcsin of
        sqrt((1 - f) / 2) is not. u1 - 1/2 is exact on numpy's uniforms
        (multiples of 2^-53), so y is pi u / 2 rounded once, for Best and
        Fisher's uniform u = 2 u1 - 1 on [-1, 1).

        The angles are a temporary array: read them before the next draw.
        """
        kappa = self.kappa
        t, v, bound = temporaries(proposals, 3)
        rng.random(out=t)
        np.subtract(t, 0.5, out=t)
        np.multiply(np.pi, t, out=t)
        np.tan(t, out=t)
        np.multiply(omega, t, out=t)
        np.square(t, out=v)
        np.add(1.0, v, out=bound)
        np.divide(v, bound, out=v)
        c = np.multiply(2.0 * kappa, v, out=v)
        np.add(c0, c, out=c)
        np.subtract(1.0, c, out=bound)
        np.exp(bound, out=bound)
        np.multiply(c, bound, out=bound)
        # u2 reuses the array of c, which is done with; no draw comes between
        # u1 and u2, so the stream is read in the same order
        u2 = rng.random(out=c)
        (accept,) = temporaries(proposals, 1, bool)
        np.greater_equal(bound, u2, out=accept)
        kept = _kept(accept, t, u2)
        np.arctan(kept, out=kept)
        return np.multiply(2.0, kept, out=kept)


@dataclass(frozen=True)
class Cardioid(_Model):
    """Cardioid density (1 + ell*cos(x)) / (2*pi), drawn exactly by
    rejection from the uniform envelope."""

    ell: float

    in_family = True
    _prefix = "cardioid"

    def __post_init__(self):
        if not 0.0 < self.ell < 1.0:
            raise ValueError(f"ell must lie in (0, 1), got {self.ell!r}")

    def _pdf(self, x):
        return (1.0 + self.ell * np.cos(x)) / TWO_PI

    def _score(self, x):
        return self.ell * np.sin(x) / (1.0 + self.ell * np.cos(x))

    def cos_moment(self, m):
        """1 at m = 0, ell/2 at m = 1, then 0."""
        if m == 0:
            return 1.0
        return 0.5 * self.ell if m == 1 else 0.0

    @property
    def location_information(self):
        """g11 = 1 - sqrt(1 - ell^2), written without cancellation."""
        ell = self.ell
        return ell * ell / (1.0 + math.sqrt((1.0 - ell) * (1.0 + ell)))

    def _draw(self, rng, out):
        """Rejection from the uniform envelope, exact; it accepts
        1/(1 + ell) >= 1/2 of the proposals."""
        _rejection_draw(rng, out, 1.0 / (1.0 + self.ell), self._accepted)

    def _accepted(self, rng, proposals):
        """The angles accepted among ``proposals`` uniform proposals.

        A proposal x ~ U[-pi, pi) is kept when u (1 + ell) <= 1 + ell cos x
        = (1 - ell) + 2 ell w, with w = cos^2(x/2) from one tangent
        (``angles.half_tangent``). Both terms are positive, so the bound
        does not cancel as ell nears 1. The angles are a temporary array: read
        them before the next draw.
        """
        ell = self.ell
        x, t, bound = temporaries(proposals, 3)
        (accept,) = temporaries(proposals, 1, bool)
        _uniform_draw(rng, x)
        half_tangent(x, t, bound)
        np.multiply(2.0 * ell, bound, out=bound)
        np.add(1.0 - ell, bound, out=bound)
        u = rng.random(out=t)
        np.multiply(1.0 + ell, u, out=u)
        np.less_equal(u, bound, out=accept)
        return _kept(accept, x, t)


@dataclass(frozen=True)
class WrappedCauchy(_Model):
    """Wrapped Cauchy density with concentration rho in (0, 1)."""

    rho: float

    in_family = True
    _prefix = "wcauchy"

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho!r}")

    def _denominator(self, x):
        """1 + rho^2 - 2 rho cos x, written without cancellation near the
        mode as rho nears 1."""
        rho = self.rho
        return (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * x) ** 2

    def _pdf(self, x):
        rho = self.rho
        return (1.0 - rho) * (1.0 + rho) / (TWO_PI * self._denominator(x))

    def _score(self, x):
        # -d/dx log pdf = -2*rho*sin(x) / (1 + rho^2 - 2*rho*cos(x)), negated
        return 2.0 * self.rho * np.sin(x) / self._denominator(x)

    def cos_moment(self, m):
        """rho^m."""
        return self.rho**m

    def cos_moment_gap(self, a, b):
        """rho^a - rho^b = -rho^a expm1((b - a) log rho), which keeps full
        relative precision as rho nears 1."""
        return -self.rho**a * math.expm1((b - a) * math.log(self.rho))

    @property
    def location_information(self):
        """g11 = 2 rho^2 / (1 - rho^2)^2."""
        rho = self.rho
        return 2.0 * rho * rho / ((1.0 - rho) * (1.0 + rho)) ** 2

    def _draw(self, rng, out):
        """Wrap a linear Cauchy draw with scale -log(rho); exact."""
        rng.random(out=out)
        out -= 0.5
        out *= np.pi
        np.tan(out, out=out)
        out *= -math.log(self.rho)


def _add_centres(draws, coins, out, heads, tails, centres):
    """out = draws + ``heads`` where the uniform coin is below 1/2, draws +
    ``tails`` elsewhere, with the centres formed in ``centres``, which may
    be ``coins`` itself. Each centre is picked from the two-entry table
    (tails, heads) by its coin as a 0/1 index: one full ``take`` pass, about
    three times faster than a fill and a masked ``copyto``. A mixture draws
    its von Mises angles first, then the coins, and keeps its component,
    so the component's envelope is formed once per model."""
    (to_heads,) = temporaries(out.size, 1, bool)
    np.less(coins, 0.5, out=to_heads)
    np.take(np.array([tails, heads]), to_heads.view(np.int8), out=centres)
    np.add(draws, centres, out=out)


@dataclass(frozen=True)
class VonMisesMixture(_Model):
    """Equal-weight mixture of VM(kappa) at -pi/4 and +pi/4.

    Symmetric about 0 but bimodal, so it sits outside the single-mode base
    class; Fisher-matrix operations reject it and it has no location score.
    """

    kappa: float

    _prefix = "vmmix"

    def __post_init__(self):
        _check_kappa(self.kappa)

    def _pdf(self, x):
        comp = self._component
        return 0.5 * (comp.pdf(x + np.pi / 4) + comp.pdf(x - np.pi / 4))

    def _draw(self, rng, out):
        self._component._draw(rng, out)
        (coins,) = temporaries(out.size, 1)
        rng.random(out=coins)
        _add_centres(out, coins, out, -np.pi / 4, np.pi / 4, coins)

    @cached_property
    def _component(self):
        return VonMises(self.kappa)


BASE_FAMILIES = (Uniform, VonMises, Cardioid, WrappedCauchy, VonMisesMixture)


class _Skewed(_Model):
    """A skewed form: a map, set by its skewness ``lam``, of random inputs
    whose law does not depend on ``lam``.

    ``_inputs(rng, size)`` draws the inputs of ``size`` draws into held
    ``workspace`` arrays, since the engine keeps them while other models
    map them and the kernels score each sample; its base, a symmetric
    base, draws into the first of them and takes only scratch arrays.
    ``_apply(inputs, out)`` maps the inputs to this model's draws."""

    @cached_property
    def _draw_key(self):
        """The form at lam = 0, which draws the same inputs."""
        return replace(self, lam=0.0)

    def _draw(self, rng, out):
        self._apply(self._inputs(rng, out.size), out)


@dataclass(frozen=True)
class SineSkewed(_Skewed):
    """Sine-skewed perturbation base(x - theta) * (1 + lam*sin(k*(x - theta)))."""

    base: object
    lam: float
    k: int = 1
    theta: float = 0.0

    _form = "sineskew"
    _keys = ("k", "lam", "theta")

    def __post_init__(self):
        if not -1.0 < self.lam < 1.0:
            raise ValueError(f"skewness lam must lie in (-1, 1), got {self.lam!r}")
        object.__setattr__(self, "k", check_frequency(self.k))
        object.__setattr__(self, "theta", wrap(check_angle(self.theta)))

    def _pdf(self, x):
        u = x - self.theta
        return self.base.pdf(u) * (1.0 + self.lam * np.sin(self.k * u))

    def _inputs(self, rng, size):
        """The base draws y, then as many uniforms u."""
        y, u = temporaries(size, 2, held=True)
        self.base._draw(rng, y)
        rng.random(out=u)
        return y, u

    def _apply(self, inputs, out):
        """Exact reflection sampler: keep a base draw y with probability
        (1 + lam*sin(k*y))/2, otherwise emit -y; symmetry of the base makes
        the output density exactly the sine-skewed one. The probability is
        formed as 1/2 + lam t w from one tangent t = tan(k y / 2),
        w = 1/(1 + t^2) (``angles.half_tangent`` with scale k: one multiply
        by k/2, the bits of k y halved).

        y is kept where u <= p = 1/2 + lam t w. The sign is applied as a
        factor s = copysign(1, p - u) and y * s: full passes, about five
        times faster than a masked ``negative`` of the flipped entries. It
        is the same rule bit for bit: the rounded difference of two finite
        doubles has the sign of the exact one and is +0 only when they are
        equal, so s = +1 exactly where u <= p; and y * -1 is -y, signed zero
        included.

        At lam = 0 the tangent is skipped: t w is finite, so p = 1/2 + 0 t w
        is exactly 1/2 and s = copysign(1, 1/2 - u), the same bits.
        """
        y, u = inputs
        sign, w = temporaries(out.size, 2)
        if self.lam == 0.0:
            np.subtract(0.5, u, out=sign)
        else:
            half_tangent(y, sign, w, self.k)
            np.multiply(sign, w, out=sign)
            np.multiply(self.lam, sign, out=sign)
            np.add(0.5, sign, out=sign)
            np.subtract(sign, u, out=sign)
        np.copysign(1.0, sign, out=sign)
        np.multiply(y, sign, out=out)
        out += self.theta


@dataclass(frozen=True)
class MoebiusSkewed(_Skewed):
    """Moebius-transformed base: x -> lam + 2*atan(omega*tan((x - lam)/2)).

    omega = (1 - r)/(1 + r); r in (0, 1). lam = 0 preserves symmetry
    about 0.
    """

    base: object
    lam: float
    r: float

    _form = "moebius"
    _keys = ("r", "lam")

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {self.r!r}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")

    @property
    def omega(self):
        return (1.0 - self.r) / (1.0 + self.r)

    def _pdf(self, x):
        # change of variables through the inverse transform
        omega = self.omega
        u = 0.5 * (x - self.lam)
        inverse = self.lam + 2.0 * np.arctan(np.tan(u) / omega)
        jacobian = omega / (omega**2 * np.cos(u) ** 2 + np.sin(u) ** 2)
        return self.base.pdf(wrap(inverse)) * jacobian

    def _inputs(self, rng, size):
        """The base draws."""
        (y,) = temporaries(size, 1, held=True)
        self.base._draw(rng, y)
        return y

    def _apply(self, y, out):
        np.subtract(y, self.lam, out=out)
        out *= 0.5
        np.tan(out, out=out)
        out *= self.omega
        np.arctan(out, out=out)
        out *= 2.0
        out += self.lam


@dataclass(frozen=True)
class SkewedMixture(_Skewed):
    """VM(kappa) mixture with centers -pi/4 and pi/4 + lam, weights 1/2.

    lam = 0 recovers the symmetric bimodal mixture; lam shifts only the
    second center.
    """

    kappa: float
    lam: float

    _form = "mixshift"
    _keys = ("kappa", "lam")

    def __post_init__(self):
        _check_kappa(self.kappa)
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")

    def _pdf(self, x):
        comp = self._component
        return 0.5 * (comp.pdf(x + np.pi / 4) + comp.pdf(x - np.pi / 4 - self.lam))

    def _inputs(self, rng, size):
        """The component's draws, then as many coin uniforms."""
        draws, coins = temporaries(size, 2, held=True)
        self._component._draw(rng, draws)
        rng.random(out=coins)
        return draws, coins

    def _apply(self, inputs, out):
        draws, coins = inputs
        (centres,) = temporaries(out.size, 1)
        _add_centres(draws, coins, out, np.pi / 4 + self.lam, -np.pi / 4, centres)

    @cached_property
    def _component(self):
        return VonMises(self.kappa)


_BASE_PREFIXES = {family._prefix: family for family in BASE_FAMILIES}
_SKEWED_FORMS = {family._form: family for family in (SineSkewed, MoebiusSkewed, SkewedMixture)}
_BASE_SYNTAX = ", ".join(
    family._prefix + "".join(f":<{f.name}>" for f in fields(family))
    for family in BASE_FAMILIES
)


def parse_base(label):
    """Symmetric base density from its label: ``parse_model`` restricted to
    ``BASE_FAMILIES``."""
    model = parse_model(label)
    if not isinstance(model, BASE_FAMILIES):
        raise ValueError(f"{label!r} is not a base density; expected {_BASE_SYNTAX}")
    return model


def parse_model(text):
    """Model from its descriptor, the inverse of every ``label`` property.

    A bare base label is the symmetric density itself: ``uniform``,
    ``vm:<kappa>``, ``cardioid:<ell>``, ``wcauchy:<rho>``, ``vmmix:<kappa>``.
    The skewed forms take a base label and keywords, or keywords only:
    ``sineskew(<base>,lam=,k=1,theta=0)``, ``moebius(<base>,lam=,r=)`` and
    ``mixshift(kappa=,lam=)``; a keyword with a default may be left out.
    Angles are radians. ValueError for an unknown family, an unknown,
    repeated or missing keyword, a bad number or a parameter the model
    rejects.
    """
    raw = str(text).strip()
    head, paren, inner = raw.partition("(")
    if not paren:
        prefix, colon, value = raw.partition(":")
        family = _BASE_PREFIXES.get(prefix)
        if family is None or bool(colon) != bool(fields(family)):
            raise ValueError(f"unknown model {text!r}; expected {_BASE_SYNTAX} "
                             "or a skewed form such as sineskew(...)")
        return family(*([_parameter(value, text)] if colon else []))
    head = head.strip()
    if head not in _SKEWED_FORMS:
        raise ValueError(
            f"unknown model family {head!r} in {text!r}; expected a base label or "
            + ", ".join(f"{form}(...)" for form in _SKEWED_FORMS)
        )
    if not inner.endswith(")"):
        raise ValueError(f"missing closing parenthesis in {text!r}")
    inner = inner[:-1]
    if "(" in inner:
        raise ValueError(f"{head} takes a base label, not a nested model, in {text!r}")
    family = _SKEWED_FORMS[head]
    params = [f for f in fields(family) if f.name != "base"]
    names = [f.name for f in params]
    takes_base = len(params) < len(fields(family))
    positional, keywords = [], {}
    for part in inner.split(","):
        key, eq, value = (piece.strip() for piece in part.partition("="))
        if not key:
            raise ValueError(f"empty argument in {text!r}")
        if not eq:
            positional.append(key)
        elif key not in names:
            raise ValueError(
                f"unknown keyword {key!r} in {text!r}; {head} takes "
                + ", ".join(f"{name}=" for name in names)
            )
        elif key in keywords:
            raise ValueError(f"keyword {key!r} repeated in {text!r}")
        else:
            keywords[key] = _parameter(value, text)
    if len(positional) != takes_base:
        wanted = "one base density" if takes_base else "keywords only"
        raise ValueError(
            f"{head} takes {wanted}, got {len(positional)} positional "
            f"argument(s) in {text!r}"
        )
    missing = [f.name for f in params if f.default is MISSING and f.name not in keywords]
    if missing:
        raise ValueError(f"missing keyword {missing[0]!r} in {text!r}")
    if takes_base:
        keywords["base"] = parse_base(positional[0])
    return family(**keywords)


def _parameter(value, text):
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"bad number {value!r} in {text!r}") from None
