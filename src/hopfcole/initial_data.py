"""Initial-data families for the slow-decay Burgers/heat experiments.

Each family provides the pointwise value f0(y), first and second
derivatives, and the primitive P(y) = int_0^y f0(u) du.  The phase of the
exponential integrals evaluates the primitive millions of times.  It is a
closed form for PowerC0, PowerC1, SignFlipped, Asymmetric, Constant,
Gaussian and Zero data; PowerLog and Custom data without a primitive
callback are served from a cached adaptive quadrature (geometric blocks,
extended on demand).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import beta, betainc, erf

FAMILIES = (
    "PowerC0",
    "PowerC1",
    "PowerLog",
    "SignFlipped",
    "Asymmetric",
    "Constant",
    "Gaussian",
    "Zero",
    "Custom",
)

# families whose tail is kappa/|y|^alpha (possibly log-corrected / one-sided)
_ALPHA_FAMILIES = {"PowerC0", "PowerC1", "PowerLog", "SignFlipped", "Asymmetric"}


class UnsupportedOrderError(ValueError):
    """Raised when a derivative order beyond the supported range is requested."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one concrete initial condition.

    kappa is the tail amplitude, alpha in (0,1) the tail exponent.  beta is
    the log exponent (PowerLog, beta > 0) or the second power-law exponent
    (Asymmetric, alpha < beta < 1).  extra carries named reals such as the
    Constant level or the Gaussian amplitude/width.
    """

    family: str
    kappa: float = 1.0
    alpha: float = 0.5
    beta: float | None = None
    sign_at_plus: int = 1
    sign_at_minus: int = 1
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.family == "PowerLog":
            if self.beta is None or not self.beta > 0:
                raise ValueError("PowerLog requires a log exponent beta > 0")
        if self.family == "Asymmetric":
            if self.beta is None or not self.alpha < self.beta < 1.0:
                raise ValueError(
                    "Asymmetric requires alpha < beta < 1, got "
                    f"alpha={self.alpha}, beta={self.beta}"
                )
        # signs of the tail at +/- infinity are determined by the family
        if self.family == "SignFlipped":
            plus, minus = -1, 1
        elif self.family == "Constant":
            s = 1 if float(self.extra.get("level", 1.0)) >= 0 else -1
            plus, minus = s, s
        elif self.family == "Gaussian":
            s = 1 if float(self.extra.get("amplitude", 1.0)) >= 0 else -1
            plus, minus = s, s
        else:
            plus, minus = 1, 1
        object.__setattr__(self, "sign_at_plus", plus)
        object.__setattr__(self, "sign_at_minus", minus)

    def to_json(self) -> dict:
        """JSON object with the fixed field set."""
        return {
            "family": self.family,
            "kappa": self.kappa,
            "alpha": self.alpha,
            "beta": self.beta,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        return cls(
            family=obj["family"],
            kappa=float(obj.get("kappa", 1.0)),
            alpha=float(obj.get("alpha", 0.5)),
            beta=None if obj.get("beta") is None else float(obj["beta"]),
            extra=dict(obj.get("extra") or {}),
        )


_QUERY_CHUNK = 1024  # primitive-cache query points per vectorized batch


class _PrimitiveCache:
    """Cumulative int_0^y f over the blocks with edges 0, +-0.5, +-1, +-2, ...,
    extended lazily.

    Block sums are adaptive_quadrature values to 1e-12; a query adds the G21
    value of one partial panel from the nearest cached edge (_panel_eval), so
    each call costs one vectorized batch of f evaluations per _QUERY_CHUNK
    query points.  The state is one tuple (edges, cumulative sums at +edges,
    at -edges) of arrays of equal length, replaced whole by an extension, so
    a reader never sees the three of different lengths.
    """

    def __init__(self, fn):
        self._fn = fn
        self.error_bound = 0.0
        pos = self._block(0.0, 0.5)
        neg = self._block(0.0, -0.5)
        self._arrays = (np.asarray([0.0, 0.5]), np.asarray([0.0, pos]),
                        np.asarray([0.0, neg]))

    def _block(self, a, b):
        """int_a^b f; a block that misses its target raises NotConvergedError."""
        from .quadrature import NotConvergedError, adaptive_quadrature  # imports this module
        lo, hi = min(a, b), max(a, b)
        value, err, converged = adaptive_quadrature(self._fn, [lo, hi], rel_tol=1e-12)
        if not converged:
            raise NotConvergedError(
                f"primitive block [{lo:.6g}, {hi:.6g}] did not converge: error {err:.3g}")
        self.error_bound = max(self.error_bound, err)
        return value if b > a else -value

    def _extend_to(self, target):
        mags, cum_pos, cum_neg = (a.tolist() for a in self._arrays)
        while mags[-1] < target:
            lo = mags[-1]
            hi = 2.0 * lo
            mags.append(hi)
            cum_pos.append(cum_pos[-1] + self._block(lo, hi))
            cum_neg.append(cum_neg[-1] + self._block(-lo, -hi))
        self._arrays = (np.asarray(mags), np.asarray(cum_pos), np.asarray(cum_neg))

    def __call__(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        amax = float(np.max(np.abs(y))) if y.size else 0.0
        if amax > self._arrays[0][-1]:
            self._extend_to(amax)
        arrays = self._arrays
        flat = y.ravel()
        out = np.empty(flat.shape)
        # each query point costs a (31,) row of temporaries: chunk the query
        for lo in range(0, flat.size, _QUERY_CHUNK):
            out[lo:lo + _QUERY_CHUNK] = self._partial(flat[lo:lo + _QUERY_CHUNK], arrays)
        return out.reshape(y.shape)

    def _partial(self, y, arrays):
        from .quadrature import _panel_eval
        mags, cum_pos, cum_neg = arrays
        idx = np.searchsorted(mags, np.abs(y), side="right") - 1
        base = np.where(y >= 0.0, cum_pos[idx], cum_neg[idx])
        start = np.where(y >= 0.0, 1.0, -1.0) * mags[idx]
        return base + _panel_eval(self._fn, start, y)[1][0]


class InitialData:
    """A concrete initial condition with value, derivatives and primitive.

    Instances are immutable after construction, except for the primitive
    cache, which only grows.  All evaluators accept scalars or numpy
    arrays.
    """

    def __init__(self, spec, value_fn, d1_fn, d2_fn, primitive_fn=None, *,
                 sup_abs, parent=None):
        self.spec = spec
        self._v = value_fn
        self._d1 = d1_fn
        self._d2 = d2_fn
        self._parent = parent
        if primitive_fn is not None:
            self._p = primitive_fn
            self._cache = None
        else:
            self._cache = _PrimitiveCache(value_fn)
            self._p = self._cache
        self.sup_abs = float(sup_abs)
        self._growth = None

    # -- basic evaluators ----------------------------------------------------

    def _wrap(self, y, fn):
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        out = fn(np.atleast_1d(arr))
        return float(out[0]) if scalar else out

    def value(self, y):
        return self._wrap(y, self._v)

    def derivative(self, y, order=1):
        """order-th y derivative of f0; order 0 returns the value itself.

        At a kink (PowerC0 at y = 0) the right-hand limit is returned.
        """
        if order == 0:
            return self.value(y)
        if order == 1:
            return self._wrap(y, self._d1)
        if order == 2:
            return self._wrap(y, self._d2)
        raise UnsupportedOrderError(f"derivative order {order} not supported (max 2)")

    def primitive(self, y):
        """int_0^y f0(u) du, exact at y = 0."""
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        arr1 = np.atleast_1d(arr)
        out = np.where(arr1 == 0.0, 0.0, self._p(arr1))
        return float(out[0]) if scalar else out

    # -- metadata ------------------------------------------------------------

    @property
    def alpha(self):
        return self.spec.alpha if self.spec.family in _ALPHA_FAMILIES else None

    @property
    def kappa(self):
        return self.spec.kappa

    @property
    def primitive_error_bound(self):
        return self._cache.error_bound if self._cache is not None else 0.0

    def primitive_growth(self):
        """(K, p) with |primitive(y)| <= K (1 + |y|)^p for all y.

        For the power-tail families p = 1 - alpha; the bounded/linear
        families get their exact exponent.  Used for the Gaussian tail
        domination of the exponential integrals.
        """
        if self._growth is None:
            fam = self.spec.family
            kappa, alpha = self.spec.kappa, self.spec.alpha
            if fam in ("PowerC0", "SignFlipped"):
                self._growth = (kappa / (1.0 - alpha), 1.0 - alpha)
            elif fam in ("PowerC1", "PowerLog", "Asymmetric"):
                p = 1.0 - alpha
                probe = np.concatenate([np.geomspace(1e-3, 1e8, 60)])
                probe = np.concatenate([-probe[::-1], probe])
                ratio = np.abs(self.primitive(probe)) / (1.0 + np.abs(probe)) ** p
                k = 1.1 * max(float(np.max(ratio)), kappa / (1.0 - alpha))
                self._growth = (k, p)
            elif fam == "Constant":
                self._growth = (abs(self.spec.extra.get("level", 0.0)), 1.0)
            elif fam == "Gaussian":
                a = abs(self.spec.extra.get("amplitude", 1.0))
                s = self.spec.extra.get("sigma", 1.0)
                self._growth = (a * math.sqrt(math.pi * s), 0.0)
            elif fam == "Zero":
                self._growth = (0.0, 0.0)
            else:
                # bounded f0 always satisfies |P| <= sup|f0| (1 + |y|)
                self._growth = (self.sup_abs, 1.0)
        return self._growth


# -- concrete families -------------------------------------------------------


def _beta_half(e):
    """B(1/2, (e+1)/2)/2, the constant of _power_c1_primitive's tail."""
    return 0.5 * beta(0.5, 0.5 * (e + 1.0))


def _power_c1_primitive(k, e, c, y):
    """int_0^y k (1+u^2)^(-e/2) du for 0 < e < 1, with c = _beta_half(e).

    e and c may be arrays like y.

    With I_e(y) = int_0^y (1+u^2)^(-e/2) du, an integration by parts gives
    (1-e) I_e(y) = y (1+y^2)^(-e/2) - e I_(e+2)(y), and u = tan(theta)
    turns I_(e+2) into a regularized incomplete beta function with positive
    parameters (DLMF 8.17): I_(e+2)(y) = sign(y) B(1/2, (e+1)/2)/2 *
    betainc(1/2, (e+1)/2, y^2/(1+y^2)).  The bracket cancels by a factor
    1/(1-e), so the relative error grows like eps/(1-e).  hypot keeps every
    finite y free of overflow.
    """
    r = np.hypot(1.0, y)
    tail = c * betainc(0.5, 0.5 * (e + 1.0), (y / r) ** 2)
    return k * (y * r ** (-e) - e * np.copysign(tail, y)) / (1.0 - e)


def _power_c0(spec):
    k, a = spec.kappa, spec.alpha

    def v(y):
        return k * (1.0 + np.abs(y)) ** (-a)

    def d1(y):
        s = np.where(y >= 0.0, 1.0, -1.0)
        return -a * k * s * (1.0 + np.abs(y)) ** (-a - 1.0)

    def d2(y):
        return a * (a + 1.0) * k * (1.0 + np.abs(y)) ** (-a - 2.0)

    def p(y):
        s = np.where(y >= 0.0, 1.0, -1.0)
        return k * s * ((1.0 + np.abs(y)) ** (1.0 - a) - 1.0) / (1.0 - a)

    return InitialData(spec, v, d1, d2, p, sup_abs=k)


def _power_c1(spec):
    k, a = spec.kappa, spec.alpha

    def v(y):
        return k * (1.0 + y * y) ** (-0.5 * a)

    def d1(y):
        return -a * k * y * (1.0 + y * y) ** (-0.5 * (a + 2.0))

    def d2(y):
        q = 1.0 + y * y
        return -a * k * q ** (-0.5 * (a + 4.0)) * (1.0 - (a + 1.0) * y * y)

    c = _beta_half(a)

    def p(y):
        return _power_c1_primitive(k, a, c, y)

    return InitialData(spec, v, d1, d2, p, sup_abs=k)


def _power_log(spec):
    """kappa * u^-alpha * (ln u)^-beta with u = sqrt(e^2 + y^2).

    Smooth everywhere, ln u >= 1, and the tail matches
    kappa / (|y|^alpha ln^beta |y|)."""
    k, a, b = spec.kappa, spec.alpha, spec.beta
    e2 = math.e ** 2

    def v(y):
        u = np.sqrt(e2 + y * y)
        return k * u ** (-a) * np.log(u) ** (-b)

    def _w(u, L):
        return -k * u ** (-a - 2.0) * L ** (-b) * (a + b / L)

    def d1(y):
        u = np.sqrt(e2 + y * y)
        return y * _w(u, np.log(u))

    def d2(y):
        u = np.sqrt(e2 + y * y)
        L = np.log(u)
        w = _w(u, L)
        wprime = k * u ** (-a - 3.0) * L ** (-b) * (
            (a + 2.0) * (a + b / L) + (b / L) * (a + b / L) + b / (L * L)
        )
        return w + (y * y / u) * wprime

    return InitialData(spec, v, d1, d2, sup_abs=k * math.e ** (-a))


def _sign_flipped(spec):
    k, a = spec.kappa, spec.alpha

    def v(y):
        return -k * y * (1.0 + y * y) ** (-0.5 * (a + 1.0))

    def d1(y):
        return -k * (1.0 - a * y * y) * (1.0 + y * y) ** (-0.5 * (a + 3.0))

    def d2(y):
        return k * (a + 1.0) * y * (3.0 - a * y * y) * (1.0 + y * y) ** (-0.5 * (a + 5.0))

    def p(y):
        return k * ((1.0 + y * y) ** (0.5 * (1.0 - a)) - 1.0) / (a - 1.0)

    sup = k * a ** (0.5 * a) * (a + 1.0) ** (-0.5 * (a + 1.0))
    return InitialData(spec, v, d1, d2, p, sup_abs=sup)


def _asymmetric(spec):
    k, a, b = spec.kappa, spec.alpha, spec.beta

    def _exp(y):
        return np.where(y >= 0.0, a, b)

    def v(y):
        return k * (1.0 + y * y) ** (-0.5 * _exp(y))

    def d1(y):
        e = _exp(y)
        return -e * k * y * (1.0 + y * y) ** (-0.5 * (e + 2.0))

    def d2(y):
        e = _exp(y)
        q = 1.0 + y * y
        return -e * k * q ** (-0.5 * (e + 4.0)) * (1.0 - (e + 1.0) * y * y)

    ca, cb = _beta_half(a), _beta_half(b)

    def p(y):
        return _power_c1_primitive(k, _exp(y), np.where(y >= 0.0, ca, cb), y)

    return InitialData(spec, v, d1, d2, p, sup_abs=k)


def _constant(spec):
    c = float(spec.extra.get("level", 1.0))

    def v(y):
        return np.full_like(y, c)

    def zero(y):
        return np.zeros_like(y)

    def p(y):
        return c * y

    return InitialData(spec, v, zero, zero, p, sup_abs=abs(c))


def _gaussian(spec):
    a = float(spec.extra.get("amplitude", 1.0))
    s = float(spec.extra.get("sigma", 1.0))
    if s <= 0:
        raise ValueError("Gaussian sigma must be positive")

    def v(y):
        return a * np.exp(-y * y / (4.0 * s))

    def d1(y):
        return -a * y / (2.0 * s) * np.exp(-y * y / (4.0 * s))

    def d2(y):
        return a * (y * y / (4.0 * s * s) - 1.0 / (2.0 * s)) * np.exp(-y * y / (4.0 * s))

    c = a * math.sqrt(math.pi * s)

    def p(y):
        return c * erf(y / (2.0 * math.sqrt(s)))

    return InitialData(spec, v, d1, d2, p, sup_abs=abs(a))


def _zero(spec):
    def z(y):
        return np.zeros_like(y)

    return InitialData(spec, z, z, z, z, sup_abs=0.0)


_BUILDERS = {
    "PowerC0": _power_c0,
    "PowerC1": _power_c1,
    "PowerLog": _power_log,
    "SignFlipped": _sign_flipped,
    "Asymmetric": _asymmetric,
    "Constant": _constant,
    "Gaussian": _gaussian,
    "Zero": _zero,
}


def make_family(spec: FamilySpec) -> InitialData:
    """Build the concrete initial condition for a family spec.

    The representatives are: PowerC0 -> kappa (1+|y|)^-alpha;
    PowerC1 -> kappa (1+y^2)^(-alpha/2);
    PowerLog -> kappa u^-alpha (ln u)^-beta with u = sqrt(e^2+y^2);
    SignFlipped -> -kappa y (1+y^2)^(-(alpha+1)/2);
    Asymmetric -> PowerC1 tail with exponent alpha for y >= 0, beta for y < 0;
    Constant -> extra["level"]; Gaussian -> a exp(-y^2/(4 sigma)); Zero -> 0.
    Every primitive is a closed form except PowerLog's, which the cached
    quadrature serves.
    """
    if spec.family == "Custom":
        raise ValueError("Custom data takes callbacks; use make_custom()")
    return _BUILDERS[spec.family](spec)


def make_custom(value_fn: Callable, derivative_fn: Callable | None = None,
                primitive_fn: Callable | None = None, *, sup_abs: float,
                kappa: float = 1.0, alpha: float = 0.5) -> InitialData:
    """Custom data from vectorized callbacks (no expression parsing).

    derivative_fn(y, order) must cover orders 1 and 2; if omitted, central
    finite differences of value_fn are used.  The primitive falls back to
    the cached quadrature when no callback is given.  sup_abs = sup|f0| is
    required: it brackets every critical point of every phase
    (|G_t(y) - y| <= t sup|f0|), and no sampling of f0 can bound it.
    """
    spec = FamilySpec(family="Custom", kappa=kappa, alpha=alpha)

    def v(y):
        return np.asarray(value_fn(y), dtype=float)

    if derivative_fn is None:
        def d1(y, h=1e-6):
            return (v(y + h) - v(y - h)) / (2.0 * h)

        def d2(y, h=1e-5):
            return (v(y + h) - 2.0 * v(y) + v(y - h)) / (h * h)
    else:
        def d1(y):
            return np.asarray(derivative_fn(y, 1), dtype=float)

        def d2(y):
            return np.asarray(derivative_fn(y, 2), dtype=float)

    p = None
    if primitive_fn is not None:
        def p(y):
            return np.asarray(primitive_fn(y), dtype=float)

    return InitialData(spec, v, d1, d2, p, sup_abs=sup_abs)


def negate_reflect(data: InitialData) -> InitialData:
    """The image g0(y) = -f0(-y) of the Burgers symmetry f -> -f(-x, t).

    Applying it twice returns the original object, so the operation is an
    exact involution.
    """
    if data._parent is not None:
        return data._parent
    if data.spec.family == "Constant":
        c = float(data.spec.extra.get("level", 1.0))
        spec = FamilySpec(family="Constant", kappa=data.spec.kappa,
                          alpha=data.spec.alpha, extra={"level": -c})
        out = _constant(spec)
        out._parent = data
        return out

    spec = FamilySpec(
        family=data.spec.family,
        kappa=data.spec.kappa,
        alpha=data.spec.alpha,
        beta=data.spec.beta,
        extra=dict(data.spec.extra),
    )
    object.__setattr__(spec, "sign_at_plus", -data.spec.sign_at_minus)
    object.__setattr__(spec, "sign_at_minus", -data.spec.sign_at_plus)

    def v(y):
        return -data._v(-y)

    def d1(y):
        return data._d1(-y)

    def d2(y):
        return -data._d2(-y)

    def p(y):
        # int_0^y -f0(-u) du = int_0^{-y} f0(u) du
        return data.primitive(-np.asarray(y, dtype=float))

    return InitialData(spec, v, d1, d2, p, sup_abs=data.sup_abs, parent=data)
