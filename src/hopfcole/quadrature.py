"""Stabilized evaluation of exponential integrals int g(y) exp(Phi(y)) dy.

The phase Phi is the Hopf-Cole exponent in physical variables
(PhysicalPhase); its maximum can reach magnitude ~1e4, so every integral is
computed in max-subtracted form and stored as (log_scale, mantissa).  The
work flow is the classical Laplace-point one: locate all zeros of Phi',
integrate adaptively on peak-scaled panels between computable truncation
points, and bound the remaining tails by the Gaussian domination of the
phase.  The rescaled phase of the long-time analysis is this phase at
x = m z in units of y = m y~ (rescaled.rescaled_critical_points).

There is one critical-point locator.  The zeros of Phi' at (x, t) are the
roots of x = G_t(y) = y + t f0(y), and G_t does not depend on x: a table
of its monotone pieces (_piece_table) keeps G_t on a scan grid, and each
root is seeded in its grid cell by a searchsorted on stored values and
polished by safeguarded Newton (_batch_critical_points).  A point at a
piece end, x = G_t(p) at a bound p of the pieces, has p itself as its one
degenerate root there; a root that misses its checks raises
InternalConsistencyError.  The last table is kept for its (data, t) and
reach (_table), so locate_critical_points, which answers one x, and the
kernels of one scan share it.

There is one quadrature path.  The weights of a call are compiled once
(compile_weights) into a function that evaluates f0, f0' and f0'' once per
node array and every weight from them in one matrix product.  Its monomials
f0^a (f0')^b (f0'')^c are products of one power table of those rows, each
power one multiplication from the one below and a factor with exponent 1
the data row itself, written into one preallocated array.  The compiled
weights take each node's x too, for the one weight that depends on it: the
Hermite factor H_m((x - y) / (2 sqrt t)) of the heat derivatives
(HermiteWeight).  The non-nested 10- and 21-point Gauss-Legendre rules are
applied to arrays of panels in one call (_rules).

The phase is measured from its maximum.  From the root y0 where it is
largest, H(y) - H(y0) = -(y - y0)(y + y0 - 2x)/(4t) - int_{y0}^y f0 / 2.
Each panel carries its phase at its left end, from the integrals of f0
over the panels summed from y0 in extended precision, and a node adds the
phase from there, with int f0 from f0 at the panel's 31 nodes through one
fixed spectral-integration matrix (_SPECTRAL).  So no node subtracts two
numbers of the size of the phase, whatever t.  data.primitive runs only at
the roots and the truncation candidates, and f0 at the nodes is evaluated
once, for the phase and the weights (_integrate).

BatchKernel computes the quotients of the physical phase for many x at one
t: the critical points of all of them come from the piece table in one
call, and all panels of all points are refined level by level in one flat
array (_batch_refine); a point that misses a quadrature check raises
NotConvergedError.  What does not depend on x (the compiled weights and
the origin scale) is set up once per (weights, data, t), so a scan calls
one setup on each of its batches, and a single point is a batch of one.
integrate_moments is the same truncation, partition and refinement for one
phase with given critical points (or a window, for concentration ratios),
and adaptive_quadrature is that refinement with one plain function as its
only weight, for the block sums of the primitive cache of quadrature-only
data (initial_data).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.optimize import brentq
from scipy.special import erfc

from .initial_data import InitialData, UnsupportedOrderError

DROP = 40.0  # e-folds below the peak at which the integrand is truncated

KIND_MAX = "local_max"
KIND_MIN = "local_min"
KIND_DEGENERATE = "degenerate"

_GL10 = np.polynomial.legendre.leggauss(10)
_GL21 = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_GL10[0], _GL21[0]])  # both rules, 31 nodes a panel


def _spectral_rows():
    """The (34, 31) spectral-integration matrix of the panel [-1, 1]
    (Greengard, SIAM J. Numer. Anal. 28, 1991): f at the 31 nodes of _NODES
    to the integral from -1 of the polynomial of degree 30 through them, at
    those nodes and at the midpoint 0; then the G21 and the G10 rule over
    the whole panel."""
    leg = np.polynomial.legendre
    targets = np.concatenate([_NODES, [0.0]])
    integrals = leg.legval(targets, leg.legint(np.eye(31), lbnd=-1.0)).T
    rows = np.linalg.solve(leg.legvander(_NODES, 30).T, integrals.T).T
    return np.ascontiguousarray(np.vstack([rows, np.concatenate([np.zeros(10), _GL21[1]]),
                                           np.concatenate([_GL10[1], np.zeros(21)])]))


_SPECTRAL = _spectral_rows()


class NotConvergedError(RuntimeError):
    """Adaptive refinement exhausted its budget before reaching tolerance."""


class InternalConsistencyError(RuntimeError):
    """Critical points that miss their checks, or none that is a maximum."""


# ---------------------------------------------------------------------------
# weight algebra


class MomentWeight:
    """Weight of a moment integral: polynomial in (f0, f0', f0'') with
    coefficients polynomial in 1/t.

    The algebra is closed under the two derivation maps
        derive_x: g -> g' - g f0 / 2
        derive_t: g -> g/(2t) + g'' - g' f0 - g f0'/2 + g f0^2/4
    which express d/dx and d/dt of int g e^Phi as new moment integrals.
    Terms are keyed by (a, b, c, p) meaning f0^a (f0')^b (f0'')^c t^-p.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: float(v) for k, v in (terms or {}).items() if v != 0.0}

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def unit(cls):
        return cls.constant(1.0)

    @classmethod
    def f0(cls):
        return cls({(1, 0, 0, 0): 1.0})

    def _combine(self, other, sign):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + sign * v
        return MomentWeight(out)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __neg__(self):
        return MomentWeight({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MomentWeight):
            out = {}
            for (a1, b1, c1, p1), v1 in self.terms.items():
                for (a2, b2, c2, p2), v2 in other.terms.items():
                    k = (a1 + a2, b1 + b2, c1 + c2, p1 + p2)
                    out[k] = out.get(k, 0.0) + v1 * v2
            return MomentWeight(out)
        return MomentWeight({k: other * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, MomentWeight) and self.terms == other.terms

    def __repr__(self):
        return f"MomentWeight({self.terms!r})"

    def shift_inv_t(self, n=1):
        return MomentWeight({(a, b, c, p + n): v for (a, b, c, p), v in self.terms.items()})

    def diff_y(self):
        out = {}
        for (a, b, c, p), v in self.terms.items():
            if c:
                raise UnsupportedOrderError(
                    "differentiating this weight would require f0'''"
                )
            if a:
                k = (a - 1, b + 1, c, p)
                out[k] = out.get(k, 0.0) + v * a
            if b:
                k = (a, b - 1, c + 1, p)
                out[k] = out.get(k, 0.0) + v * b
        return MomentWeight(out)

    def evaluate(self, data: InitialData, y, t):
        """The weight at y (any shape, at least 1-d out) for data at time t."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return compile_weights([self], data, t)(y.ravel())[0].reshape(y.shape)


@dataclass(frozen=True)
class HermiteWeight:
    """The weight H_m(s) g(y), s = (x - y) / (2 sqrt t), with H_m the
    physicists' Hermite polynomial of degree m and x the point of the phase.

    By Rodrigues' formula d_x^m e^(-s^2) = (-2 sqrt t)^-m H_m(s) e^(-s^2),
    so under the Gaussian phase of the heat equation the quotient of
    H_m(s) f0(y) is (-2 sqrt t)^m times the m-th x derivative of the heat
    solution.  It is the one weight that depends on x: the compiled weights
    take each node's x for it."""

    m: int
    g: Callable


def compile_weights(gs, data: InitialData, t):
    """One function (y, x) -> array (len(gs), y.size) for a list of weights.

    Each MomentWeight term (a, b, c, p) is a monomial f0^a (f0')^b (f0'')^c
    with its coefficient times t^-p in a coefficient matrix; f0 and its
    derivatives are evaluated once per node array, up to the highest order
    any weight needs, and the moment rows are one matrix product.  The
    monomials are products of one power table: each power f_k^e is one
    multiplication from f_k^(e-1), a factor with exponent 1 is the data row
    itself (so the monomial f0 is data.value(y) bit for bit), and every
    monomial is written into one array of shape (n_monomials, y.size).
    None (unit weight), scalars and plain callables y -> g(y) fill their
    own rows, and so does a HermiteWeight, from s = (x - y) / (2 sqrt t)
    with each node's own x (a scalar or an array like y).  With x None that
    row is its x-independent factor g(y) alone.  A caller that already holds
    the data row data.value(y) passes it as f0, and it is not evaluated
    again."""
    monomials = {}  # (a, b, c) -> column of the coefficient matrix
    coef = []
    fixed = []
    hermite = []
    for i, g in enumerate(gs):
        if isinstance(g, MomentWeight):
            for (a, b, c, p), v in g.terms.items():
                col = monomials.setdefault((a, b, c), len(monomials))
                coef.append((i, col, v * t ** (-p)))
        elif isinstance(g, HermiteWeight):
            hermite.append((i, g.g, [0.0] * g.m + [1.0]))
        elif g is None:
            fixed.append((i, 1.0))
        elif np.isscalar(g):
            fixed.append((i, float(g)))
        else:
            fixed.append((i, g))
    # the factors (k, e), e > 0, of each monomial, and the highest power of
    # each f_k that one needs
    factors = [[(k, e) for k, e in enumerate(abc) if e] for abc in monomials]
    top = [max((abc[k] for abc in monomials), default=0) for k in range(3)]
    order = max((k for k in range(3) if top[k]), default=0)
    cmat = np.zeros((len(gs), len(monomials)))
    for i, col, v in coef:
        cmat[i, col] += v
    root_t2 = 2.0 * math.sqrt(t)

    def weights(y, x=None, f0=None):
        y = np.asarray(y, dtype=float)
        if monomials:
            power = {}  # (k, e) -> f_k^e
            for k in range(order + 1):
                if k:
                    power[k, 1] = data.derivative(y, k)
                else:
                    power[k, 1] = data.value(y) if f0 is None else f0
                for e in range(2, top[k] + 1):
                    power[k, e] = power[k, e - 1] * power[k, 1]
            rows = np.empty((len(monomials), y.size))
            for row, fac in zip(rows, factors):
                row[:] = power[fac[0]] if fac else 1.0
                for f in fac[1:]:
                    row *= power[f]
            out = cmat @ rows
        else:
            out = np.zeros((len(gs), y.size))  # a MomentWeight with no terms is 0
        for i, g in fixed:
            out[i] = g(y) if callable(g) else g
        for i, g, coeffs in hermite:
            out[i] = g(y) if x is None else hermval((x - y) / root_t2, coeffs) * g(y)
        return out

    return weights


def derive_x(g: MomentWeight) -> MomentWeight:
    """Weight of d/dx [int g e^H]: g' - g f0 / 2."""
    return g.diff_y() + (-0.5) * (g * MomentWeight.f0())


def derive_t(g: MomentWeight) -> MomentWeight:
    """Weight of d/dt [int g e^H]: g/(2t) + g'' - g' f0 - g f0'/2 + g f0^2/4.

    Algebraically this equals g/(2t) + derive_x(derive_x(g))."""
    return 0.5 * g.shift_inv_t() + derive_x(derive_x(g))


# ---------------------------------------------------------------------------
# phases


@dataclass(frozen=True)
class PhysicalPhase:
    """H(y) = -(x-y)^2/(4t) - P(y)/2 with P the primitive of f0."""

    data: InitialData
    x: float
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")

    def total(self, y):
        y = np.asarray(y, dtype=float)
        return -((self.x - y) ** 2) / (4.0 * self.t) - 0.5 * self.data.primitive(y)

    def dtotal(self, y):
        y = np.asarray(y, dtype=float)
        return (self.x - y) / (2.0 * self.t) - 0.5 * self.data.value(y)


# ---------------------------------------------------------------------------
# critical points


@dataclass(frozen=True)
class CriticalPoint:
    y: float
    phase_value: float  # total phase minus the global max (<= 0)
    kind: str
    residual: float
    is_global_max: bool = False


def locate_critical_points(phase) -> list:
    """The critical points of a PhysicalPhase, sorted by y: the roots of
    x = G_t(y), G_t(y) = y + t f0(y), one query of the piece table of
    (data, t) (_table, _batch_critical_points).

    A root on a rising piece of G_t is a maximum of the phase and one on a
    falling piece a minimum.  A root at a piece end, or where
    |G_t'| = |1 + t f0'| <= 1e-6 (|H''| <= 1e-6 / (2t)), is degenerate.
    The global maximum is flagged, phase values are relative to it, and a
    residual is |H'| at the point.  The critical points of the rescaled
    phase are these in units of the space scale
    (rescaled.rescaled_critical_points)."""
    x, t = float(phase.x), phase.t
    _pt, y, is_max, d1 = _batch_critical_points(
        _Phases(phase.data, t, None), np.asarray([x]), *_table(phase.data, t, abs(x)))
    order = np.argsort(y)
    y, is_max, d1 = y[order], is_max[order], d1[order]
    tots = phase.total(y)
    res = np.abs(phase.dtotal(y))
    top = int(np.argmax(tots))
    return [CriticalPoint(float(y[j]), float(tots[j] - tots[top]),
                          KIND_DEGENERATE if abs(d1[j]) <= 1e-6
                          else KIND_MAX if is_max[j] else KIND_MIN,
                          float(res[j]), j == top)
            for j in range(y.size)]


# ---------------------------------------------------------------------------
# stabilized integrals


@dataclass(frozen=True)
class StabilizedIntegral:
    """Value = mantissa * exp(log_scale), never materialized."""

    log_scale: float
    mantissa: float
    abs_error: float
    truncation: tuple
    converged: bool = True
    target: float = math.inf  # abs_error budget of the refinement


def _panel_nodes(a, b):
    """(nodes, half): the 31 nodes of each panel [a[j], b[j]], of shape
    (n_panels, 31), and the half widths."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _NODES, half


def _rules(gv, half):
    """(I10, I21), each of shape (n_weights, n_panels), from the values gv
    of shape (n_weights, n_panels, 31) at the nodes of the panels."""
    return half * (gv[:, :, :10] @ _GL10[1]), half * (gv[:, :, 10:] @ _GL21[1])


def _panel_eval(integrand, a, b):
    """(I10, I21), each of shape (n_weights, n_panels), for the panels
    [a[j], b[j]]; integrand maps a node array y to (n_weights, y.size)."""
    ys, half = _panel_nodes(a, b)
    gv = np.asarray(integrand(ys.ravel()), dtype=float)
    return _rules(gv.reshape(-1, a.size, _NODES.size), half)


def _chunks(n):
    """Slices of at most _EVAL_PANELS panels over n panels."""
    return [slice(j, j + _EVAL_PANELS) for j in range(0, n, _EVAL_PANELS)]


def integrate_moments(gs, phase, rel_tol=1e-8, cps=None, interval=None,
                      max_panels=4000):
    """Stabilized integrals int g(y) exp(Phi(y)) dy as (log_scale, mantissa)
    of several weights under one PhysicalPhase, on the truncation,
    partition and refinement of BatchKernel, from the critical points cps
    (by locate_critical_points when not given).

    With interval=(a, b) the integration is restricted to that window (its
    own max subtraction, no tail bound) -- used for concentration ratios.
    """
    if not isinstance(phase, PhysicalPhase):
        raise TypeError("integrals are taken under the physical phase only")
    if cps is None:
        cps = locate_critical_points(phase)
    weights = compile_weights(gs, phase.data, phase.t)
    ph = _Phases(phase.data, phase.t, weights)
    y = np.asarray([c.y for c in cps])
    total, err, tgt, conv, log_scale, a, b = _integrate(
        ph, np.asarray([float(phase.x)]), np.zeros(len(cps), dtype=int), y,
        np.asarray([c.kind != KIND_MIN for c in cps]), ph.slope(y),
        _origin_scale(weights, phase.data), rel_tol, max_panels, interval)
    return [StabilizedIntegral(float(log_scale[0]), float(total[i, 0]), float(err[i, 0]),
                               (float(a[0]), float(b[0])), bool(conv[i, 0]), float(tgt[i, 0]))
            for i in range(len(gs))]


def _quotients(t, x, total, err, tgt, conv):
    """total[:-1] / total[-1] at every point x, the last row being the
    denominator.  The first point where a weight missed its target, or the
    denominator is not positive, raises NotConvergedError naming the
    weight, x, t and the error against its target."""
    bad = ~np.all(conv, axis=0) | ~(total[-1] > 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        where = f"x={x[j]:.6g}, t={t:.6g}"
        if conv[:, j].all():
            raise NotConvergedError(f"denominator integral vanished at {where}")
        i = int(np.argmax(~conv[:, j]))
        name = "denominator" if i == total.shape[0] - 1 else f"weight {i}"
        raise NotConvergedError(
            f"{name} integral did not converge at {where}: error "
            f"{err[i, j]:.3g} against target {tgt[i, j]:.3g}")
    return total[:-1] / total[-1]


# ---------------------------------------------------------------------------
# batch quotients over x


BATCH_BLOCK = 256  # points refined together; bounds the kernel's memory
_EVAL_PANELS = 512  # panels per integrand call: bounds the temporaries of a level
_DOUBLINGS = 8  # truncation steps scored per call (_batch_truncation)
_ORIGIN_YS = np.geomspace(1e-3, 1e8, 1101)
_ORIGIN_YS = np.concatenate([-_ORIGIN_YS[::-1], [0.0], _ORIGIN_YS])  # the grid of _origin_scale


def _log_grid(t, reach):
    """(grid, r_min): 0 and +-r_min 10^(k/100), k >= 0, out to at least
    reach, with r_min = 1e-6 min(1, 1/t).  A wider reach only adds points,
    so nothing found on the grid depends on the reach."""
    r_min = 1e-6 * min(1.0, 1.0 / t)
    logs = r_min * 10.0 ** (np.arange(math.ceil(100.0 * math.log10(reach / r_min)) + 1) / 100.0)
    return np.concatenate([-logs[::-1], [0.0], logs]), r_min


def monotone_pieces(data: InitialData, t, reach):
    """Monotone pieces of G_t(y) = y + t f0(y) on |y| <= reach.

    The stationary points of the physical phase at (x, t) solve x = G_t(y),
    and G_t does not depend on x.  Returns (bounds, rising): the sign
    changes of G_t' = 1 + t f0' in increasing order, found on the scan grid
    _log_grid (geometric towards 0) and polished by Brent, and for each of
    the len(bounds) + 1 pieces between them whether G_t increases on it."""
    grid, r_min = _log_grid(t, reach)
    up = 1.0 + t * np.asarray(data.derivative(grid, 1)) > 0.0
    bounds = [brentq(lambda y: 1.0 + t * data.derivative(y, 1),
                     float(grid[i]), float(grid[i + 1]),
                     xtol=1e-3 * r_min, rtol=1e-15)
              for i in np.nonzero(up[:-1] != up[1:])[0]]
    rising = (np.arange(len(bounds) + 1) % 2 == 0) == bool(up[0])
    return np.asarray(bounds, dtype=float), rising


def _piece_table(data: InitialData, t, reach):
    """The root table on |y| <= reach: (nodes, rising, bounds, g_bounds),
    from monotone_pieces and its scan grid.

    For each monotone piece, nodes holds (y, sgn G_t(y)) at the ends of the
    piece (its bounds, or the ends of the grid) and at the grid points
    between them, with sgn = 1 on a rising piece and -1 on a falling one,
    so that sgn G_t increases along the nodes.  G_t is computed as the
    Newton iteration of _batch_critical_points computes it, y + t f0(y).
    bounds are those of monotone_pieces and g_bounds is G_t at them."""
    bounds, rising = monotone_pieces(data, t, reach)
    ys = np.sort(np.concatenate([_log_grid(t, reach)[0], bounds]))
    gs = ys + t * data.value(ys)
    ends = np.concatenate([[-np.inf], bounds, [np.inf]])
    nodes = []
    for j, up in enumerate(rising):
        on = (ys >= ends[j]) & (ys <= ends[j + 1])
        nodes.append((ys[on], gs[on] if up else -gs[on]))
    return nodes, rising, bounds, bounds + t * data.value(bounds)


_TABLE = (None, None, 0.0, None)  # the last piece table: (data, t, reach, table)


def _table(data: InitialData, t, x_max):
    """The piece table (_piece_table) of (data, t) that holds every root of
    x = G_t(y) for |x| <= x_max.

    Those roots lie in |y| <= x_max + t sup|f0|, so a table out to that
    plus 1 holds them.  The last table is kept, keyed on the identity of
    data and on t, and made again only for a call beyond its reach, then
    out to twice the reach that call needs, so a scan whose |x| grows does
    not tabulate at every step.  A wider table only adds grid points and
    pieces beyond the old reach (_log_grid), so no root depends on which
    table it came from.  The memo is one tuple, read and replaced whole:
    threads that race on it at worst build an equal table twice."""
    global _TABLE
    need = x_max + t * data.sup_abs + 1.0
    memo_data, memo_t, reach, table = _TABLE
    if memo_data is not data or memo_t != t or need > reach:
        reach = 2.0 * need
        table = _piece_table(data, t, reach)
        _TABLE = (data, t, reach, table)
    return table


def _log_gauss_tails(quad, dist):
    """log of int_dist^inf exp(-quad s^2) ds (one tail) for an array of
    distances."""
    xi = dist * math.sqrt(quad)
    with np.errstate(divide="ignore"):
        near = np.log(0.5 * math.sqrt(math.pi / quad) * erfc(np.minimum(xi, 25.0)))
    far = (-xi * xi - np.log(np.maximum(xi, 25.0) * math.sqrt(math.pi))
           - 0.5 * math.log(quad) + math.log(0.5) + 0.5 * math.log(math.pi))
    return np.where(xi < 25.0, near, far)


def _sums(pid, v, n):
    """Per-point sums of the rows of v over the panels of each point, in one
    bincount over (row, point) bins: each bin adds its weights in panel
    order, as a bincount of its row alone does."""
    k = v.shape[0]
    idx = (np.arange(k)[:, None] * n + pid).ravel()
    return np.bincount(idx, weights=v.ravel(), minlength=k * n).reshape(k, n)


class BatchKernel:
    """The setup of the batch quotients of the physical phase for one
    (weights, data, t), built once and called on each batch of x.

    It holds what does not depend on x: the compiled weights and the origin
    scale of their x-independent factors (_origin_scale).  The critical
    points come from the piece table of (data, t) (_table), the one that
    locate_critical_points queries: it keeps G_t on the scan grid of
    monotone_pieces (100 points a decade) and at the piece bounds, so each
    root starts in its grid cell with no new evaluation, and a scan's
    first call (its coarse grid spans the window) makes it for the whole
    scan."""

    def __init__(self, gs, data: InitialData, t):
        if not t > 0:
            raise ValueError("t must be positive")
        self.n_weights = len(gs)
        weights = compile_weights(list(gs) + [None], data, t)
        self._ph = _Phases(data, t, weights)
        self._origin_scale = _origin_scale(weights, data)

    def __call__(self, xs, rel_tol=1e-9, max_panels=4000):
        """The quotients at every x of xs, of shape (n_weights, xs.size).

        Every piece of G_t is inverted for all x at once: rising pieces give
        the maxima, falling ones the minima (_batch_critical_points).  The
        ends drop the phase DROP e-folds below its maximum
        (_batch_truncation), the initial partition is graded around each
        maximum and around y = 0 (_batch_edges), and blocks of BATCH_BLOCK
        points are refined level by level against each weight's target
        rel_tol * max(|I|, 1e-3 L1) (_batch_refine).

        A point that misses a target within max_panels panels, whose tail
        bound is not finite or whose denominator is not positive raises
        NotConvergedError (_quotients)."""
        xs = np.asarray(xs, dtype=float).ravel()
        table = _table(self._ph.data, self._ph.t, float(np.max(np.abs(xs), initial=0.0)))
        ratios = np.empty((self.n_weights, xs.size))
        for lo in range(0, xs.size, BATCH_BLOCK):
            x = xs[lo:lo + BATCH_BLOCK]
            rows = _batch_critical_points(self._ph, x, *table)
            res = _integrate(self._ph, x, *rows, self._origin_scale, rel_tol, max_panels)
            ratios[:, lo:lo + BATCH_BLOCK] = _quotients(self._ph.t, x, *res[:4])
        return ratios


def _origin_scale(weights, data):
    """Length scale sup|g| / sup|g'| of f0 of the phase and of the
    x-independent factors g of the weights over 1e-3 <= |y| <= 1e8, or 0.0
    if all are constant.

    The data families vary near y = 0 (the kink of PowerC0, the bump of
    Gaussian data) and decay as powers of |y| away from it; a panel much
    wider than its distance to y = 0 is blind to that, and its G10 and G21
    values agree on a wrong integral.  f0 is graded whatever the weights
    (a unit weight too), so that every panel resolves the f0 whose integral
    it passes outward (_integrate)."""
    g = np.vstack([weights(_ORIGIN_YS), data.value(_ORIGIN_YS)])
    slope = np.max(np.abs(np.diff(g, axis=1)) / np.diff(_ORIGIN_YS), axis=1)
    vary = slope > 0.0
    return float(np.max(np.abs(g[vary])) / np.max(slope)) if vary.any() else 0.0


class _Phases:
    """The physical phases H(y; x) = -(x-y)^2/(4t) - P(y)/2 of one t for
    arrays of x, with the compiled weights of a batch."""

    def __init__(self, data, t, weights):
        self.data, self.t, self.weights = data, t, weights
        self.char_width = math.sqrt(2.0 * t)

    def total(self, y, x):
        return -((x - y) ** 2) / (4.0 * self.t) - 0.5 * self.data.primitive(y)

    def slope(self, y):
        """G_t'(y) = 1 + t f0'(y) = -2t H''(y)."""
        return 1.0 + self.t * self.data.derivative(y, 1)

    def width(self, d1):
        """min(char_width, 1/sqrt(-H'')) where H'' < 0, else char_width, from
        the slope d1 = G_t' at the point."""
        d2 = -0.5 * d1 / self.t
        peak = d2 < 0.0
        return np.where(peak, np.minimum(self.char_width, 1.0 / np.sqrt(np.where(peak, -d2, 1.0))),
                        self.char_width)

    def weight_mag(self, y, x):
        return np.max(np.abs(self.weights(y, x)), axis=0)


def _batch_critical_points(ph, xs, nodes, rising, bounds, g_bounds):
    """Roots of G_t(y) = x on every piece whose range holds x, by
    safeguarded Newton from the root's grid cell in the table (_piece_table).

    A searchsorted per piece finds, from the stored values alone, the two
    adjacent nodes of the piece whose G_t bracket x: a node where G_t is x
    is the root, and otherwise Newton starts from the secant of the cell.
    A step that leaves the bracket is a bisection, and one that does not
    move y is the root.

    A point at a piece end, x = G_t(p) within 1e-12 (|x| + |G_t(p)| + 1)
    at a bound p, has p itself for the roots of the two pieces that meet
    there: one degenerate root, a maximum, with G_t' taken as 0 (it
    changes sign at p).  A root where |G_t'| <= 1e-6 is degenerate and a
    maximum too.  Every other root must have the sign of G_t' of its piece
    and lie within 1e-6 of its peak width, and every point must have a
    maximum; otherwise InternalConsistencyError names the point's x and t.

    Returns (pt, y, is_max, d1): for each root its point, its y, whether it
    is a maximum and G_t' there (0 at a piece end)."""
    t, data, n = ph.t, ph.data, xs.size
    sgn = np.where(rising, 1.0, -1.0)
    # (point, piece) rows: the cell [lo, hi] with h = sgn (G_t - x) at its
    # ends, h(lo) < 0 <= h(hi), where the piece's range holds x
    lo, hi, h_lo, h_hi = np.empty((4, n, rising.size))
    has = np.empty((n, rising.size), dtype=bool)
    for j, (ny, key) in enumerate(nodes):
        v = sgn[j] * xs
        i = np.searchsorted(key, v)
        has[:, j] = (i > 0) & (i < key.size)
        i = np.minimum(np.maximum(i, 1), key.size - 1)
        lo[:, j], hi[:, j] = ny[i - 1], ny[i]
        h_lo[:, j], h_hi[:, j] = key[i - 1] - v, key[i] - v
    has = has.ravel()
    pt = np.repeat(np.arange(n), rising.size)[has]
    piece = np.tile(np.arange(rising.size), n)[has]
    x, sgn = xs[pt], sgn[piece]
    lo, hi, h_lo, h_hi = (a.ravel()[has] for a in (lo, hi, h_lo, h_hi))

    def h(y, x, sgn):  # increasing on its piece, zero at the root
        return sgn * (y + t * data.value(y) - x)

    y = lo - h_lo * ((hi - lo) / (h_hi - h_lo))
    y = np.where(h_hi == 0.0, hi, np.where((y > lo) & (y < hi), y, 0.5 * (lo + hi)))
    # each root stops at its own last step, so it does not depend on the
    # other points of the batch: a single point is a batch of one
    live = h_hi != 0.0
    for _ in range(100):
        if not live.any():
            break
        g = h(y, x, sgn)
        lo = np.where(g <= 0.0, y, lo)
        hi = np.where(g >= 0.0, y, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = y - g / (sgn * ph.slope(y))
        # a step that lands on y itself is below its resolution: y is the root
        nxt = np.where(((step > lo) & (step < hi)) | (step == y), step, 0.5 * (lo + hi))
        moved = np.abs(nxt - y) > 1e-15 * np.abs(nxt) + 1e-300
        y = np.where(live, nxt, y)
        live &= moved
    d1 = ph.slope(y)
    res = np.abs(y + t * data.value(y) - x)
    flat = np.abs(d1) <= 1e-6
    bad = ~flat & ((sgn * d1 <= 0.0) | ~(res <= 1e-6 * np.sqrt(2.0 * t * np.abs(d1))))
    is_max = (sgn > 0.0) | flat
    at_end = (np.abs(xs[:, None] - g_bounds[None, :])
              <= 1e-12 * (np.abs(xs)[:, None] + np.abs(g_bounds)[None, :] + 1.0))
    end_pt, end_b = np.nonzero(at_end)
    if end_pt.size:
        near = np.zeros((n, bounds.size + 2), dtype=bool)
        near[:, 1:-1] = at_end  # the bounds of piece j: columns j and j + 1
        keep = ~(near[pt, piece] | near[pt, piece + 1])
        ends = end_pt.size
        pt, y, is_max, d1, bad = (np.concatenate([a[keep], b]) for a, b in (
            (pt, end_pt), (y, bounds[end_b]), (is_max, np.ones(ends, dtype=bool)),
            (d1, np.zeros(ends)), (bad, np.zeros(ends, dtype=bool))))
    miss = np.bincount(pt[bad], minlength=n) > 0
    fail = miss | (np.bincount(pt[is_max], minlength=n) == 0)
    if fail.any():
        i = int(np.argmax(fail))
        why = "a root misses its residual or slope check" if miss[i] else "no maximum"
        raise InternalConsistencyError(
            f"critical points at x={float(xs[i])!r}, t={float(t)!r}: {why}")
    return pt, y, is_max, d1


def _integrate(ph, x, pt, y, is_max, d1, origin_scale, rel_tol, max_panels,
               interval=None):
    """The integrals of the weights of ph at every point x, from the roots
    (pt, y, is_max, d1) of their phases, d1 being G_t' at each root.

    Over the whole line the log scale is the largest phase at a root, and
    the ends and tail bound are _batch_truncation's; over a window
    interval=(a, b) they are the window's ends, the log scale is the
    largest phase at those ends and at the roots inside, and there is no
    tail.

    The phase at the nodes is measured from the anchor y0 where the log
    scale is attained (_anchors), with no closed-form primitive:
    H(y) - H(y0) = -(y - y0)(y + y0 - 2x)/(4t) - int_{y0}^y f0 / 2.  Each
    panel [a, b] carries h = H(a) - H(y0) in extended precision, and a node
    y adds H(y) - H(a) = (a - y)(y + a - 2x)/(4t) - int_a^y f0 / 2, the
    integral by spectral integration of f0 at the panel's nodes
    (_SPECTRAL): no node subtracts numbers of the size of the offsets.  The
    initial panels are split until each resolves f0 (_resolved), and their
    h come from their G21 integrals of f0 summed from y0 (_offsets); a
    split panel passes its h to its left half, and its h plus the phase
    from a to its midpoint to its right half.  f0 at the nodes is
    evaluated once, for the phase and the weights, and the phase factor
    multiplies the weight rows in place.

    Returns (total, error, target, converged), each of shape
    (n_weights, x.size), then log_scale, a and b; the error includes the
    tail bound, and a weight has converged if it met its target and the
    tail bound is finite."""
    m = x.size
    if interval is None:
        log_scale, y0 = _anchors(ph, x, pt, y)
        a, b, log_tail = _batch_truncation(ph, x, log_scale, pt[is_max], y[is_max])
    else:
        a, b = np.full(m, float(interval[0])), np.full(m, float(interval[1]))
        inner = (y > a[pt]) & (y < b[pt])
        pt, y, is_max, d1 = pt[inner], y[inner], is_max[inner], d1[inner]
        ends = np.arange(m)
        log_scale, y0 = _anchors(ph, x, np.concatenate([ends, ends, pt]),
                                 np.concatenate([a, b, y]))
        log_tail = np.full(m, -np.inf)
    t = ph.t

    def quad(a, d, p):  # the quadratic part of H(a + d) - H(a) at the points p
        return d * (2.0 * (x[p] - a) - d) / (4.0 * t)

    def rules(pid, pa, ys, half, f0, ints, h):
        # the phase at the node a + half (1 + s) that the spectral rows
        # integrate to: the node ys in double is off it by up to ulp(y), and
        # f0 ulp(y) is far above the phase's rounding (1e-11 at y = 4e6)
        phase = (h.astype(float)[:, None]
                 + quad(pa[:, None], half[:, None] * (1.0 + _NODES), pid[:, None])
                 - 0.5 * ints[:, :31])
        gv = ph.weights(ys.ravel(), np.repeat(x[pid], _NODES.size), f0.ravel())
        gv *= np.exp(phase.ravel())
        return _rules(gv.reshape(gv.shape[0], -1, _NODES.size), half)

    def right_half(pid, pa, pb, f0, ints, h):
        # H(mid) - H(y0) at the double midpoint, which is off the middle
        # node a + half of the spectral rows by half the rounding of a + b
        s = pa + pb
        bb = s - pa
        mid = 0.5 * s
        return h + (quad(pa, mid - pa, pid)
                    - 0.5 * (ints[:, 31] - 0.5 * f0[:, 20] * ((pa - (s - bb)) + (pb - bb))))

    def evaluate(pid, pa, pb, h):
        # a level is both halves of each split panel, so every chunk holds an
        # even number of panels, two at least (_f0_rows)
        parts = []
        for s in _chunks(pid.size):
            ys, half = _panel_nodes(pa[s], pb[s])
            f0, ints = _f0_rows(ph.data, ys, half)
            parts.append((*rules(pid[s], pa[s], ys, half, f0, ints, h[s]),
                          right_half(pid[s], pa[s], pb[s], f0, ints, h[s])))
        return tuple(np.concatenate(q, axis=-1) for q in zip(*parts))

    # the first level by groups of whole points: a point's offsets need the
    # integrals of all its panels
    pid, pa, pb = _batch_edges(ph, a, b, pt, y, is_max, d1, origin_scale)
    several = np.bincount(pt[is_max], minlength=m) > 1
    level = []
    for s in _point_groups(pid):
        g_pid, g_pa, g_pb, ys, half, f0, ints = _resolved(ph.data, pid[s], pa[s], pb[s])
        h = (quad(y0[g_pid], g_pa.astype(np.longdouble) - y0[g_pid], g_pid)
             - 0.5 * _offsets(g_pid, g_pa, half, f0, ints, y0, several))
        level.append((g_pid, g_pa, g_pb, h, *rules(g_pid, g_pa, ys, half, f0, ints, h),
                      right_half(g_pid, g_pa, g_pb, f0, ints, h)))
    pid, pa, pb, h, i10, i21, h_right = (level[0] if len(level) == 1 else
                                        (np.concatenate(q, axis=-1) for q in zip(*level)))
    total, err, tgt = _batch_refine(evaluate, (i10, i21, h_right), pid, pa, pb, h, m,
                                    rel_tol, max_panels)
    tail = np.where(log_tail < 700.0, np.exp(np.minimum(log_tail, 700.0)), np.inf)
    return total, err + tail, tgt, (err <= tgt) & np.isfinite(tail), log_scale, a, b


_F0_RESOLUTION = 1e-10  # G10 against G21 of f0 on a panel that resolves it
_F0_SPLITS = 30  # halvings of a panel that does not


def _f0_rows(data, ys, half):
    """(f0, ints) at the nodes ys of panels of half widths half: f0 there,
    of shape (n_panels, 31), and its integrals from each panel's left end
    by the rows of _SPECTRAL, of shape (n_panels, 34).  A product of two
    panels or more gives each panel's row the same bits in any batch, so no
    panel depends on its batch; one panel alone is another BLAS call, and so
    is _SPECTRAL in Fortran order, whose rows can differ in the last bit."""
    f0 = data.value(ys.ravel()).reshape(ys.shape)
    if not f0.any():  # the heat phase: f0 = 0, and so are its integrals
        return f0, np.zeros((f0.shape[0], _SPECTRAL.shape[0]))
    return f0, half[:, None] * (f0 @ _SPECTRAL.T)


def _point_groups(pid):
    """Slices of the sorted panels of whole points, each of at most
    _EVAL_PANELS panels unless it is one point."""
    if pid.size <= _EVAL_PANELS:
        return [slice(0, pid.size)]
    groups, lo, end = [], 0, 0
    for nxt in np.append(np.flatnonzero(np.diff(pid)) + 1, pid.size).tolist():
        if nxt - lo > _EVAL_PANELS and end > lo:
            groups.append(slice(lo, end))
            lo = end
        end = nxt
    return groups + [slice(lo, pid.size)]


def _resolved(data, pid, pa, pb):
    """The panels of whole points, halved until each resolves f0: until
    its G10 and G21 integrals of f0 agree to _F0_RESOLUTION of the G21 one,
    or it was halved _F0_SPLITS times.  The polynomial of degree 30 through
    the 31 nodes then carries the integral of f0 to round-off: the G10
    error of y^-1/2 on [8, 32] is 8e-11, and its spectral integrals there
    are 4e-16 off.  Graded panels pass at once; the ones that split lie
    where f0 varies on a scale below the origin scale, as PowerC1 does on
    [0, 4.6] at alpha 1/2.

    Returns (pid, pa, pb, ys, half, f0, ints) sorted by point and left
    end, with the nodes of _panel_nodes and the rows of _f0_rows."""
    done = []
    for depth in range(_F0_SPLITS + 1):
        ys, half = _panel_nodes(pa, pb)
        f0, ints = _f0_rows(data, ys, half)
        ok = ((np.abs(ints[:, -2] - ints[:, -1]) <= _F0_RESOLUTION * np.abs(ints[:, -2]))
              | (depth == _F0_SPLITS))
        if ok.all():
            done.append((pid, pa, pb, ys, half, f0, ints))
            break
        done.append(tuple(v[ok] for v in (pid, pa, pb, ys, half, f0, ints)))
        mid = 0.5 * (pa[~ok] + pb[~ok])
        pid = np.concatenate([pid[~ok], pid[~ok]])
        pa, pb = np.concatenate([pa[~ok], mid]), np.concatenate([mid, pb[~ok]])
    if len(done) == 1:
        return done[0]
    rows = [np.concatenate(v) for v in zip(*done)]
    order = np.lexsort((rows[1], rows[0]))
    return tuple(v[order] for v in rows)


def _anchors(ph, x, pt, y):
    """(log_scale, y0): for every point the largest phase over its
    candidates (pt, y), by the closed-form primitive, and the first
    candidate where it is attained.  Only candidates (roots, window ends)
    call data.primitive, never the quadrature nodes."""
    h = ph.total(y, x[pt])
    log_scale = np.full(x.size, -np.inf)
    np.maximum.at(log_scale, pt, h)
    top = np.flatnonzero(h == log_scale[pt])
    first = np.full(x.size, y.size)
    np.minimum.at(first, pt[top], top)
    return log_scale, y[first]


_W21 = _GL21[1].astype(np.longdouble)


def _offsets(pid, pa, half, f0, ints, y0, several):
    """int_{y0}^{pa} f0 for every panel of the sorted (point, left end)
    arrays of the points, with f0 and its integrals (_f0_rows) at their
    nodes: the G21 integrals of the panels summed over each point's panels
    from its first one, less that sum at its anchor y0, an edge of its
    panels.  A point's sums run over its own panels alone, one row of a
    (point, panel) table each, so no point depends on its batch.

    The sums, and the integrals of the points with several maxima
    (several), are taken in extended precision (np.longdouble) and
    returned so: between two maxima far apart the sums grow to about |P|,
    and rounding them would lose the maxima's relative weight to eps |P|
    (odd data at x = 0, where the two weights cancel)."""
    if not f0.any():
        return np.zeros(pid.size, dtype=np.longdouble)
    full = ints[:, -2].astype(np.longdouble)
    far = several[pid]
    full[far] = half[far] * (f0[far, 10:].astype(np.longdouble) @ _W21)
    col = np.arange(pid.size) - np.searchsorted(pid, pid)
    table = np.zeros((several.size, int(col.max()) + 2), dtype=np.longdouble)
    table[pid, col + 1] = full
    np.cumsum(table, axis=1, out=table)
    at_y0 = np.bincount(pid, weights=pa < y0[pid], minlength=several.size).astype(int)
    return table[pid, col] - table[pid, at_y0[pid]]


def _batch_truncation(ph, x, log_scale, max_pt, max_y):
    """(a, b, log of the tail bound) for every point: from the outermost
    maxima, steps of 1, 2, 4, ... peak widths out to where the phase is
    DROP + 5 e-folds (and the log of the weights' size) below log_scale, and
    beyond the Gaussian domination threshold of the primitive's growth
    bound; the window doubles until the bound of the Gaussian tails beyond
    it is DROP / 2 e-folds below.

    The steps are scored _DOUBLINGS at a time, 2^k for k0 <= k < k0 +
    _DOUBLINGS in one call, and each end is the first that hits: the ends
    of one step at a time, with fewer calls."""
    m = x.size
    y_lo = np.full(m, np.inf)
    y_hi = np.full(m, -np.inf)
    np.minimum.at(y_lo, max_pt, max_y)
    np.maximum.at(y_hi, max_pt, max_y)
    y0 = np.concatenate([y_lo, y_hi])
    direction = np.repeat([-1.0, 1.0], m)
    x2, ls2 = np.tile(x, 2), np.tile(log_scale, 2)
    w = np.maximum(ph.width(ph.slope(y0)), 1e-12 * (1.0 + np.abs(y0)))
    edge = y0 + direction * w * 2.0 ** 60
    todo = np.arange(2 * m)
    for k0 in range(0, 200, _DOUBLINGS):
        cand = (y0[todo, None] + (direction[todo] * w[todo])[:, None]
                * 2.0 ** np.arange(k0, k0 + _DOUBLINGS))
        xc = np.repeat(x2[todo], _DOUBLINGS)
        hit = (ph.total(cand.ravel(), xc) - np.repeat(ls2[todo], _DOUBLINGS)
               <= -(DROP + 5.0 + np.log1p(ph.weight_mag(cand.ravel(), xc))))
        hit = hit.reshape(cand.shape)
        done = hit.any(axis=1)
        edge[todo[done]] = cand[done, np.argmax(hit[done], axis=1)]
        todo = todo[~done]
        if not todo.size:
            break
    k_growth, p = ph.data.primitive_growth()
    quad = 1.0 / (8.0 * ph.t)
    thr = 1.0 if k_growth == 0.0 else (32.0 * ph.t * k_growth) ** (1.0 / (2.0 - p)) * 2.0
    thr = np.maximum(np.maximum(thr, 2.0 * np.abs(x) + 1.0), 1.0)
    a = np.minimum(edge[:m], x - thr)
    b = np.maximum(edge[m:], x + thr)

    def tail_log(a, b):  # both ends in one call each
        gmax = np.maximum(ph.weight_mag(np.concatenate([a, b]), x2).reshape(2, m).max(axis=0),
                          1e-300)
        return (_log_gauss_tails(quad, np.concatenate([b - x, x - a])).reshape(2, m).max(axis=0)
                + np.log(8.0 * gmax) - log_scale)

    log_tail = tail_log(a, b)
    for _ in range(16):
        wide = log_tail > -0.5 * DROP
        if not wide.any():
            break
        a = np.where(wide, x - 2.0 * (x - a), a)
        b = np.where(wide, x + 2.0 * (b - x), b)
        log_tail = np.where(wide, tail_log(a, b), log_tail)
    return a, b, log_tail


def _batch_edges(ph, a, b, pt, y, is_max, d1, origin_scale):
    """Initial panels (point, left, right): the truncation ends, the
    critical points, and edges graded geometrically around each maximum
    (1, 3 and 8 peak widths, from G_t' = d1 there, then 4 times wider at
    each step) and around y = 0 (the same steps of origin_scale; y = 0
    alone if that is 0: the kink of PowerC0 data is in the phase whatever
    the weights).

    Where the phase flattens away from a narrow peak, or the data decay as
    a power of |y|, one panel out to the truncation end puts every node past
    the integrand's mass, and its G10 and G21 agree on a wrong value
    (Asymmetric data, t = 5.3e6: 8e-12 for a true 0.27)."""
    m = a.size
    steps = np.concatenate([[1.0, 3.0, 8.0], 8.0 * 4.0 ** np.arange(1, 13)])
    steps = np.concatenate([-steps[::-1], [0.0], steps])
    centers = np.concatenate([y[is_max], np.zeros(m)])
    widths = np.concatenate([np.minimum(ph.width(d1[is_max]), ph.char_width),
                             np.full(centers.size - is_max.sum(), origin_scale)])
    ept = np.concatenate([np.arange(m), np.arange(m), pt,
                          np.repeat(pt[is_max], steps.size),
                          np.repeat(np.arange(centers.size - is_max.sum()), steps.size)])
    ey = np.concatenate([a, b, y, (centers[:, None] + widths[:, None] * steps).ravel()])
    inside = (np.arange(ept.size) < 2 * m) | ((ey > a[ept]) & (ey < b[ept]))
    ept, ey = ept[inside], ey[inside]
    order = np.lexsort((ey, ept))
    ept, ey = ept[order], ey[order]
    new = np.ones(ept.size, dtype=bool)
    new[1:] = (ept[1:] != ept[:-1]) | (ey[1:] != ey[:-1])
    ept, ey = ept[new], ey[new]
    same = ept[1:] == ept[:-1]
    return ept[:-1][same], ey[:-1][same], ey[1:][same]


def _batch_refine(evaluate, first, pid, pa, pb, h, m, rel_tol, max_panels):
    """Level-by-level refinement of the flat (point, panel) arrays of m
    points, each panel carrying a value h (the phase at its left end, in
    _integrate).  evaluate(pid, pa, pb, h) gives (i10, i21, h_right) for
    panels of the points pid: the values of the two rules, each of shape
    (n_weights, n_panels), and the h of each panel's right half (its left
    half keeps h).  first is that of the given panels.  Every panel of an unconverged point whose error
    is above its share of the point's target is split, all of them in one
    evaluate call.  Returns the per-point totals, errors and targets
    rel_tol * max(|I|, 1e-3 L1), each of shape (n_weights, m); a point
    stops when every weight meets its target or it has max_panels
    panels."""
    i10, i21, h_right = first
    created = np.bincount(pid, minlength=m)
    while True:
        # rules that differ by a tenth of the panel's value do not bound its
        # error (a 2e5-wide tail panel read 1.0e-6 on G21, 1.7e-5 exact):
        # such an estimate counts up to tenfold
        e = np.abs(i21 - i10)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = e * np.fmin(10.0, np.fmax(1.0, 10.0 * e / np.abs(i21)))
        k = i21.shape[0]
        sums = _sums(pid, np.concatenate([i21, np.abs(i21), e]), m)
        total, l1, err = sums[:k], sums[k:2 * k], sums[2 * k:]
        tgt = np.maximum(rel_tol * np.abs(total), 1e-3 * rel_tol * l1 + 1e-300)
        conv = np.all(err <= tgt, axis=0)
        share = tgt / np.bincount(pid, minlength=m)
        split = ((~conv & (created < max_panels))[pid]
                 & np.any(e > share[:, pid], axis=0))
        if not split.any():
            return total, err, tgt
        s_pid, s_a, s_b = pid[split], pa[split], pb[split]
        mid = 0.5 * (s_a + s_b)
        c_pid = np.concatenate([s_pid, s_pid])
        c_a, c_b = np.concatenate([s_a, mid]), np.concatenate([mid, s_b])
        c_h = np.concatenate([h[split], h_right[split]])
        c10, c21, c_right = evaluate(c_pid, c_a, c_b, c_h)
        kept = ~split
        pid = np.concatenate([pid[kept], c_pid])
        pa = np.concatenate([pa[kept], c_a])
        pb = np.concatenate([pb[kept], c_b])
        h = np.concatenate([h[kept], c_h])
        h_right = np.concatenate([h_right[kept], c_right])
        i10 = np.concatenate([i10[:, kept], c10], axis=1)
        i21 = np.concatenate([i21[:, kept], c21], axis=1)
        created += 2 * np.bincount(s_pid, minlength=m)


def adaptive_quadrature(fn, edges, rel_tol=1e-9, max_panels=2000):
    """Adaptive Gauss-Legendre of one plain function over a fixed edge list,
    on the level-by-level refinement of the moment integrals.

    Returns (value, abs_error, converged)."""
    edges = np.asarray(edges, dtype=float)
    keep = edges[1:] > edges[:-1]
    pa, pb = edges[:-1][keep], edges[1:][keep]

    def evaluate(_pid, pa, pb, h):
        parts = [_panel_eval(lambda y: np.asarray(fn(y), dtype=float).reshape(1, -1),
                             pa[s], pb[s]) for s in _chunks(pa.size)]
        return (np.concatenate([q[0] for q in parts], axis=1),
                np.concatenate([q[1] for q in parts], axis=1), h)

    pid, h = np.zeros(pa.size, dtype=int), np.zeros(pa.size)
    total, err, tgt = _batch_refine(evaluate, evaluate(pid, pa, pb, h),
                                    pid, pa, pb, h, 1, rel_tol, max_panels)
    return float(total[0, 0]), float(err[0, 0]), bool(err[0, 0] <= tgt[0, 0])
