"""Circular density families and exact samplers.

The symmetric bases (von Mises, cardioid, wrapped Cauchy, uniform) are
reflectively symmetric about 0; :class:`SineSkewed` multiplies a shifted
base by ``1 + lam * sin(k * (x - theta))``. :class:`MoebiusSkewed` and
:class:`SkewedMixture` are the additional simulation alternatives.

Every model keeps one contract, held by their common base class: ``pdf``
(and ``score`` where the model has one) is an exact formula that takes a
scalar or an array and returns a float for a scalar, an array for an
array; ``sample(rng, n)`` draws n >= 1 angles from a
``numpy.random.Generator`` and returns them canonical, in [-pi, pi); and
``label`` is a descriptor that ``parse_model``, the one parser of model
descriptors, reads back to an equal model. Each symmetric base also states
its cosine moments rho_m = E[cos(m X)] (``cos_moment``) and its location
information g11 = E[phi(X)^2] (``location_information``) in closed form;
the information machinery in ``asymptotics`` is built from these.
"""

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .angles import TWO_PI, check_angle, wrap
from .errors import UnsupportedBaseError
from .special import bessel_i0e, bessel_ratio, check_frequency, check_integer

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 64
_BISECT_ITER = 80
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
    arrays and ``_draw(rng, n)``, whose draws need not be canonical. A
    symmetric base names its label ``_prefix``; a skewed form names its
    ``_form`` and the order ``_keys`` of its label's keywords.
    """

    in_family = False
    _form = None

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

    def sample(self, rng, n):
        """``n`` draws from ``rng``, canonical angles in [-pi, pi)."""
        return wrap(self._draw(rng, check_integer(n, "sample size")))

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

    def _draw(self, rng, n):
        return rng.random(n) * TWO_PI - np.pi


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
        """rho_a - rho_b as the sum of 2j (rho_j / kappa) over j = a+1, a+3,
        ..., b-1, from I_(j-1) - I_(j+1) = (2j/kappa) I_j. Its terms are
        positive, so nothing cancels as the moments near 1 at large kappa.
        Below kappa = 1 the moments are far from 1 and the direct difference
        loses nothing."""
        kappa = self.kappa
        if kappa < 1.0:
            return super().cos_moment_gap(a, b)
        return sum(2.0 * j * (self.cos_moment(j) / kappa) for j in range(a + 1, b, 2))

    @property
    def location_information(self):
        """g11 = kappa * rho_1."""
        return self.kappa * bessel_ratio(1, self.kappa)

    def _draw(self, rng, n):
        """Best-Fisher rejection sampler from a wrapped Cauchy envelope,
        vectorized in batches; the normal limit N(0, 1/kappa) above
        ``_BEST_FISHER_MAX_KAPPA``.

        The envelope's rho = (tau - sqrt(2 tau)) / (2 kappa), tau = 1 + q,
        q = sqrt(1 + 4 kappa^2), enters only through
        r = (1 + rho^2) / (2 rho) = (1 + q) / (2 kappa), so
        c0 = kappa (r - 1) = (1 + 1/(q + 2 kappa)) / 2 is formed without
        cancellation (rho as written rounds to 0 below kappa ~ 1e-8). The
        acceptance rate 1/M of the envelope is

            p(kappa) = kappa I0e(kappa) (1 - rho^2) e^(1 - kappa (r - 1)) / (2 rho)
                     = I0e(kappa) sqrt((1 + q) / 2) e^(1 - c0),

        from 1 at kappa = 0 down to e^(1/2) / sqrt(2 pi) ~ 0.658 as kappa
        grows. A batch for ``todo`` more draws holds
        todo / p + 4 sqrt(todo) + 16 proposals, some four standard
        deviations more than needed, so one batch nearly always suffices.
        """
        kappa = self.kappa
        if kappa < 1e-9:
            return rng.random(n) * TWO_PI - np.pi
        if kappa > _BEST_FISHER_MAX_KAPPA:
            return rng.standard_normal(n) / math.sqrt(kappa)
        c0, rate = self._envelope()
        out = np.empty(n)
        filled = 0
        while filled < n:
            todo = n - filled
            batch = int(todo / rate + 4.0 * math.sqrt(todo) + 16.0)
            angles = self._best_fisher(rng, batch, c0)
            take = min(todo, angles.size)
            out[filled:filled + take] = angles[:take]
            filled += take
        return out

    def _envelope(self):
        """c0 = kappa (r - 1) and the acceptance rate p(kappa) of ``_draw``."""
        kappa = self.kappa
        q = math.sqrt(1.0 + 4.0 * kappa * kappa)
        c0 = 0.5 + 0.5 / (q + 2.0 * kappa)
        rate = bessel_i0e(kappa) * math.sqrt(0.5 + 0.5 * q) * math.exp(1.0 - c0)
        return c0, min(1.0, rate)

    def _best_fisher(self, rng, proposals, c0):
        """The angles accepted among ``proposals`` Best-Fisher proposals.

        Two uniforms per proposal: u1 = 2u - 1 on [-1, 1) gives the proposal
        z = cos(pi u1) through s^2 = sin^2(pi u1 / 2) alone, and its sign the
        sign of the angle; u2 is the acceptance uniform. The proposal
        f = (1 + r z) / (r + z) = cos(x) is kept as

            1 - f = (r - 1) (1 - z) / (r + z),  1 - z = 2 s^2,
            r + z = (r - 1) + 2 (1 - s^2),

        so x = 2 arcsin(sqrt((1 - f) / 2)) keeps full relative precision near
        0 instead of coming in steps of about 2^-26. With c = kappa (r - f)
        = c0 + kappa (1 - f) the proposal is kept when u2 <= c e^(1 - c).
        That exact test runs over the whole batch: Best and Fisher's squeeze
        c (2 - c) only spares the exponential on the entries it decides, and
        picking those out costs more than the exponential.
        """
        kappa = self.kappa
        r_minus_1 = c0 / kappa
        u1 = 2.0 * rng.random(proposals) - 1.0
        u2 = rng.random(proposals)
        s2 = np.sin(0.5 * np.pi * u1) ** 2
        one_minus_f = r_minus_1 * 2.0 * s2 / (r_minus_1 + 2.0 * (1.0 - s2))
        c = c0 + kappa * one_minus_f
        accept = c * np.exp(1.0 - c) >= u2
        half = np.sqrt(np.minimum(0.5 * one_minus_f[accept], 1.0))
        return np.copysign(2.0 * np.arcsin(half), u1[accept])


@dataclass(frozen=True)
class Cardioid(_Model):
    """Cardioid density (1 + ell*cos(x)) / (2*pi)."""

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

    def _draw(self, rng, n):
        """Invert F(x) = (x + pi + ell*sin(x)) / (2*pi) by Newton iteration."""
        ell = self.ell
        target = rng.random(n) * TWO_PI - np.pi  # solve x + ell*sin(x) = target
        x = target.copy()
        for _ in range(_NEWTON_MAX_ITER):
            g = x + ell * np.sin(x) - target
            if np.all(np.abs(g) < _NEWTON_TOL):
                break
            x -= g / (1.0 + ell * np.cos(x))
        bad = np.abs(x + ell * np.sin(x) - target) >= 1e-10
        if np.any(bad):
            x[bad] = _bisect_increasing(
                lambda v: v + ell * np.sin(v), target[bad], -np.pi, np.pi
            )
        return x


def _bisect_increasing(g, target, lo, hi):
    lo = np.full_like(target, lo)
    hi = np.full_like(target, hi)
    for _ in range(_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        below = g(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


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

    def _draw(self, rng, n):
        """Wrap a linear Cauchy draw with scale -log(rho); exact."""
        scale = -math.log(self.rho)
        u = rng.random(n)
        return scale * np.tan(np.pi * (u - 0.5))


def _mixture_draw(rng, n, kappa, heads, tails):
    """VM(kappa) draws about centre ``heads`` where a fair coin is below 1/2,
    about ``tails`` elsewhere; the coins are drawn first."""
    centers = np.where(rng.random(n) < 0.5, heads, tails)
    return centers + VonMises(kappa)._draw(rng, n)


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
        comp = VonMises(self.kappa)
        return 0.5 * (comp.pdf(x + np.pi / 4) + comp.pdf(x - np.pi / 4))

    def _draw(self, rng, n):
        return _mixture_draw(rng, n, self.kappa, -np.pi / 4, np.pi / 4)


BASE_FAMILIES = (Uniform, VonMises, Cardioid, WrappedCauchy, VonMisesMixture)


@dataclass(frozen=True)
class SineSkewed(_Model):
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

    def _draw(self, rng, n):
        """Exact reflection sampler: keep a base draw y with probability
        (1 + lam*sin(k*y))/2, otherwise emit -y; symmetry of the base makes
        the output density exactly the sine-skewed one."""
        y = self.base._draw(rng, n)
        u = rng.random(n)
        keep = u <= 0.5 * (1.0 + self.lam * np.sin(self.k * y))
        return self.theta + np.where(keep, y, -y)


@dataclass(frozen=True)
class MoebiusSkewed(_Model):
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

    def _draw(self, rng, n):
        x = self.base._draw(rng, n)
        return self.lam + 2.0 * np.arctan(self.omega * np.tan(0.5 * (x - self.lam)))


@dataclass(frozen=True)
class SkewedMixture(_Model):
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
        comp = VonMises(self.kappa)
        return 0.5 * (comp.pdf(x + np.pi / 4) + comp.pdf(x - np.pi / 4 - self.lam))

    def _draw(self, rng, n):
        return _mixture_draw(rng, n, self.kappa, np.pi / 4 + self.lam, -np.pi / 4)


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
