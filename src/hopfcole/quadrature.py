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
InternalConsistencyError.  The tables of the last query are kept for
their (data, t) and reach (_tables), so critical_points, which answers an
array of x, at one t or one t per x, in one query (locate_critical_points is
its one-x case), and the kernel of a sweep share them.

There is one quadrature path.  The weights of a call are compiled once
(compile_weights) into one function of a node array.  A MomentWeight is a
polynomial in f0, f0' and f0'' with a coefficient matrix per t (the factors
t^-p): its rows are one matrix product on one power table of the data rows,
and the Burgers value's weight f0 is the data row itself.  The two other
weights depend on the point of the phase, and take each node's own value
for it: its x for the Hermite factor H_m((x - y) / (2 sqrt t)) of the heat
derivatives (HermiteWeight), and its point's center c, the anchor y0 below,
for the powers (y - c)^j whose quotients are the centered moments behind
the Burgers derivative fields (CenteredWeight).  The nested Gauss-Kronrod
pair G10/K21 (QUADPACK's qk21) is applied to arrays of panels in one call
(_rules): K21 holds the 10 Gauss nodes, so a panel takes 21 nodes, the
value is its K21 and the error estimate its difference from G10.

The phase is measured from its maximum.  From the root y0 where it is
largest, H(y) - H(y0) = -(y - y0)(y + y0 - 2x)/(4t) - int_{y0}^y f0 / 2.
Each panel carries its phase at its left end, from the integrals of f0
over the panels summed from y0 in extended precision, and a node adds the
phase from there, with int f0 from f0 at the panel's 21 nodes through one
fixed spectral-integration matrix (_SPECTRAL).  So no node subtracts two
numbers of the size of the phase, whatever t.  data.primitive runs only at
the roots and the truncation candidates, and f0 at the nodes is evaluated
once, for the phase and the weights (_integrate).

BatchKernel computes the quotients of the physical phase for many (t, x)
pairs of a sweep of t: the critical points of all of them come from the
piece tables of their t in one call, and all panels of all points are
refined level by level in one flat array (_batch_refine); a point that
misses a quadrature check raises NotConvergedError.  Every step takes each
point at its own t, so a point gets the bits of its batch of one t (up to
the position of its panels in the gemv of _rules, within one t as across
t).  What does not depend on x (the compiled weights and the origin
scale) is set up once per (weights, data, sweep), so the lockstep scans
of a sweep (burgers.scan_max) call one setup on each of their steps, a
number t is a sweep of one, and a single point a batch of one.
log_partition is that path for the unit weight alone, over the whole line
or over a window given per point; integrate_moments, the same for one phase
with given critical points, has no caller in the package.  adaptive_quadrature
is that refinement with one plain function as its only weight, for the block
sums of the primitive cache of quadrature-only data (initial_data).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.special import erfc

from .initial_data import InitialData

DROP = 40.0  # e-folds below the peak at which the integrand is truncated

KIND_MAX = "local_max"
KIND_MIN = "local_min"
KIND_DEGENERATE = "degenerate"

# The nested Gauss-Kronrod pair G10/K21 of QUADPACK's qk21 (Kronrod 1965;
# Piessens et al. 1983) on [-1, 1]: the 11 nodes y >= 0 and their K21 and
# G10 weights, from 0 up.  The G10 nodes are every second K21 node, so in
# ascending order they sit at the odd indices of the 21 nodes a panel.
_XK = np.array([0.0,
                0.148874338981631210884826001129720, 0.294392862701460198131126603103866,
                0.433395394129247190799265943165784, 0.562757134668604683339000099272694,
                0.679409568299024406234327365114874, 0.780817726586416897063717578345042,
                0.865063366688984510732096688423493, 0.930157491355708226001207180059508,
                0.973906528517171720077964012084452, 0.995657163025808080735527280689003])
_WK = np.array([0.149445554002916905664936468389821,
                0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
                0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
                0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
                0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
                0.032558162307964727478818972459390, 0.011694638867371874278064396062192])
_WG = np.array([0.0,
                0.295524224714752870173892994651338, 0.0,
                0.269266719309996355091226921569469, 0.0,
                0.219086362515982043995534934228163, 0.0,
                0.149451349150580593145776339657697, 0.0,
                0.066671344308688137593568809893332, 0.0])
_NODES = np.concatenate([-_XK[:0:-1], _XK])  # 21 nodes a panel; node 10 is 0
_W21 = np.concatenate([_WK[:0:-1], _WK])  # K21
_W10 = np.concatenate([_WG[::-1], _WG[1:]])  # G10, 0 at the Kronrod nodes


def _spectral_rows():
    """The (23, 21) spectral-integration matrix of the panel [-1, 1]
    (Greengard, SIAM J. Numer. Anal. 28, 1991): f at the 21 nodes of _NODES
    to the integral from -1 of the polynomial of degree 20 through them, at
    those nodes (node 10 is the midpoint 0); then the K21 and the G10 rule
    over the whole panel."""
    leg = np.polynomial.legendre
    integrals = leg.legval(_NODES, leg.legint(np.eye(21), lbnd=-1.0)).T
    rows = np.linalg.solve(leg.legvander(_NODES, 20).T, integrals.T).T
    return np.ascontiguousarray(np.vstack([rows, _W21, _W10]))


_SPECTRAL = _spectral_rows()


class NotConvergedError(RuntimeError):
    """Adaptive refinement exhausted its budget before reaching tolerance."""


class InternalConsistencyError(RuntimeError):
    """Critical points that miss their checks, or none that is a maximum."""


# ---------------------------------------------------------------------------
# weights


class MomentWeight:
    """Weight of a moment integral: polynomial in (f0, f0', f0'') with
    coefficients polynomial in 1/t, the terms keyed by (a, b, c, p)
    meaning f0^a (f0')^b (f0'')^c t^-p.  The Burgers value is the quotient
    of f0 (MomentWeight.f0())."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: float(v) for k, v in (terms or {}).items() if v != 0.0}

    @classmethod
    def f0(cls):
        return cls({(1, 0, 0, 0): 1.0})

    def __eq__(self, other):
        return isinstance(other, MomentWeight) and self.terms == other.terms

    def __repr__(self):
        return f"MomentWeight({self.terms!r})"

    def evaluate(self, data: InitialData, y, t):
        """The weight at y (any shape, at least 1-d out) for data at time t."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return compile_weights([self], data, t)(y.ravel())[0].reshape(y.shape)


@dataclass(frozen=True)
class CenteredWeight:
    """The weight (y - c)^j, c the center of the point of the phase: the
    anchor y0 of each point's integrals (_anchors), which the compiled
    weights take for each node as they take its x.  The quotients of
    j = 1, 2, 3 are the moments of y about c under the measure
    e^H dy / int e^H, whose cumulants give the Burgers derivative fields
    (burgers.derivative_fields)."""

    j: int


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


def _runs(k):
    """(start, end) of each run of equal indices k: the points of one t of
    a sweep come in runs (a batch's points are sorted by t)."""
    ends = (np.flatnonzero(k[1:] != k[:-1]) + 1).tolist()
    return list(zip([0, *ends], [*ends, k.size]))


def compile_weights(gs, data: InitialData, t):
    """One function (y, x, f0, k, c) -> array (len(gs), y.size) for a list
    of weights at t, a number or a sweep of t (a 1-d array).

    Each MomentWeight term (a, b, c, p) is a monomial f0^a (f0')^b (f0'')^c
    with its coefficient times t^-p in a coefficient matrix; f0 and its
    derivatives are evaluated once per node array, up to the highest order
    any weight needs, and the moment rows are one matrix product.  The
    monomials are products of one power table: each power f_k^e is one
    multiplication from f_k^(e-1), a factor with exponent 1 is the data row
    itself (so the monomial f0 is data.value(y) bit for bit), and every
    monomial is written into one array of shape (n_monomials, y.size).
    None (unit weight), scalars and plain callables y -> g(y) fill their
    own rows.  So do the two weights that depend on the point of the phase,
    each from its nodes' own values (scalars or arrays like y): a
    HermiteWeight from s = (x - y) / (2 sqrt t) with each node's x, and a
    CenteredWeight (y - c)^j with each node's center c, its powers one
    multiplication apart.  With x None or c None such a row is its
    x-independent factor alone: g(y), or 1.  A caller that already holds
    the data row data.value(y) passes it as f0, and it is not evaluated
    again.

    k is the index in the sweep of each node's t (one index for all nodes,
    or an array like y; 0 at one t).  Each t has its own coefficient matrix
    and its own 2 sqrt t, and the product of a matrix takes the columns of
    its nodes alone, so a node gets the bits it gets at its t alone.  The
    function's groups maps each t of the sweep to its distinct matrix: t of
    one group give the same rows at x None; its centered is whether a
    weight takes the center."""
    ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
    monomials = {}  # (a, b, c) -> column of the coefficient matrix
    coef = []
    fixed = []
    hermite = []
    centered = []
    for i, g in enumerate(gs):
        if isinstance(g, MomentWeight):
            for (a, b, c, p), v in g.terms.items():
                col = monomials.setdefault((a, b, c), len(monomials))
                coef.append((i, col, v, p))
        elif isinstance(g, HermiteWeight):
            hermite.append((i, g.g, [0.0] * g.m + [1.0]))
        elif isinstance(g, CenteredWeight):
            centered.append((i, g.j))
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
    cmats, groups = {}, []
    for tk in ts:
        cmat = np.zeros((len(gs), len(monomials)))
        for i, col, v, p in coef:
            cmat[i, col] += v * tk ** (-p)
        groups.append(cmats.setdefault(cmat.tobytes(), (len(cmats), cmat))[0])
    cmats = [cmat for _j, cmat in cmats.values()]
    groups = np.asarray(groups, dtype=int)
    root_t2 = np.asarray([2.0 * math.sqrt(tk) for tk in ts])

    top_j = max((j for _i, j in centered), default=0)

    def weights(y, x=None, f0=None, k=0, c=None):
        y = np.asarray(y, dtype=float)
        if monomials:
            power = {}  # (k, e) -> f_k^e
            for kk in range(order + 1):
                if kk:
                    power[kk, 1] = data.derivative(y, kk)
                else:
                    power[kk, 1] = data.value(y) if f0 is None else f0
                for e in range(2, top[kk] + 1):
                    power[kk, e] = power[kk, e - 1] * power[kk, 1]
            rows = np.empty((len(monomials), y.size))
            for row, fac in zip(rows, factors):
                row[:] = power[fac[0]] if fac else 1.0
                for f in fac[1:]:
                    row *= power[f]
            group = np.atleast_1d(groups[k] if len(cmats) > 1 else 0)
            runs = _runs(group)  # one product a run of nodes of one matrix
            if len(runs) == 1:
                out = cmats[group[0]] @ rows
            else:
                out = np.empty((len(gs), y.size))
                for a, b in runs:
                    out[:, a:b] = cmats[group[a]] @ rows[:, a:b]
        else:
            out = np.zeros((len(gs), y.size))  # a MomentWeight with no terms is 0
        for i, g in fixed:
            out[i] = g(y) if callable(g) else g
        for i, g, coeffs in hermite:
            out[i] = g(y) if x is None else hermval((x - y) / root_t2[k], coeffs) * g(y)
        if centered:
            power = [1.0, 1.0 if c is None else y - c]  # (y - c)^j
            for _j in range(2, top_j + 1):
                power.append(power[-1] * power[1])
            for i, j in centered:
                out[i] = power[j]
        return out

    weights.groups = groups
    weights.centered = bool(centered)
    return weights


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


# ---------------------------------------------------------------------------
# critical points


@dataclass(frozen=True)
class CriticalPoint:
    y: float
    phase_value: float  # total phase minus the global max (<= 0)
    kind: str
    residual: float
    is_global_max: bool = False
    piece: int | None = None  # its monotone piece of G_t, from the left; None at a piece end
    pieces: int = 1  # the number of monotone pieces of G_t


def critical_points(data: InitialData, xs, t) -> list:
    """The critical points of the physical phase of (data, t) at every x of
    xs, one list for each x, sorted by y: the roots of x = G_t(y),
    G_t(y) = y + t f0(y).  t is a number, or an array like xs of one t per
    x; the x of all t are one query of the piece tables of their t (_tables,
    _batch_critical_points).

    A root on a rising piece of G_t is a maximum of the phase and one on a
    falling piece a minimum.  A root at a piece end, or where
    |G_t'| = |1 + t f0'| <= 1e-6 (|H''| <= 1e-6 / (2t)), is degenerate.
    Each root is labelled by the index of its piece, counted from the
    left among all pieces of G_t, and a root at a piece end by None.  The
    global maximum of each x is flagged, phase values are relative to it,
    and a residual is |H'| at the point.  Each root is found on its own, so
    the list of an x does not depend on the other x, or t, of the call.  The
    critical points of the rescaled phase are these in units of the space
    scale (rescaled.rescaled_critical_points)."""
    xs = np.asarray(xs, dtype=float).ravel()
    ts, k, tables = _sweep_tables(data, xs, t)
    ph = _Phases(data, ts, None)
    pt, y, is_max, d1 = _batch_critical_points(ph, xs, k, tables)
    order = np.lexsort((y, pt))
    pt, y, is_max, d1 = pt[order], y[order], is_max[order], d1[order]
    x, kr = xs[pt], k[pt]
    tots = ph.total(y, x, kr)
    res = np.abs((x - y) / (2.0 * ph.t[kr]) - 0.5 * data.value(y))
    # a root at a piece end is the bound itself; every other root lies
    # strictly inside its piece
    piece, inside, pieces = (np.empty(y.size, dtype=int) for _ in range(3))
    for j, (_nodes, _rising, bounds, _g) in enumerate(tables):
        on = kr == j
        piece[on] = np.searchsorted(bounds, y[on], "left")
        inside[on] = piece[on] == np.searchsorted(bounds, y[on], "right")
        pieces[on] = bounds.size + 1
    ends = np.searchsorted(pt, np.arange(xs.size + 1)).tolist()
    out = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        top = lo + int(np.argmax(tots[lo:hi]))
        out.append([CriticalPoint(float(y[j]), float(tots[j] - tots[top]),
                                  KIND_DEGENERATE if abs(d1[j]) <= 1e-6
                                  else KIND_MAX if is_max[j] else KIND_MIN,
                                  float(res[j]), j == top,
                                  int(piece[j]) if inside[j] else None, int(pieces[j]))
                    for j in range(lo, hi)])
    return out


def locate_critical_points(phase) -> list:
    """The critical points of a PhysicalPhase, sorted by y: critical_points
    at its one x."""
    return critical_points(phase.data, [phase.x], phase.t)[0]


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
    """(nodes, half): the 21 nodes of each panel [a[j], b[j]], of shape
    (n_panels, 21), and the half widths."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _NODES, half


def _rules(gv, half):
    """(I10, I21), the G10 and K21 values, each of shape (n_weights,
    n_panels), from the values gv of shape (n_weights, n_panels, 21) at the
    nodes of the panels."""
    return half * (gv @ _W10), half * (gv @ _W21)


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
    own max subtraction, no tail bound).
    """
    if not isinstance(phase, PhysicalPhase):
        raise TypeError("integrals are taken under the physical phase only")
    if cps is None:
        cps = locate_critical_points(phase)
    weights = compile_weights(gs, phase.data, phase.t)
    ph = _Phases(phase.data, [phase.t], weights)
    y = np.asarray([c.y for c in cps])
    total, err, tgt, conv, log_scale, a, b, _y0 = _integrate(
        ph, np.asarray([float(phase.x)]), np.zeros(1, dtype=int), np.zeros(len(cps), dtype=int),
        y, np.asarray([c.kind != KIND_MIN for c in cps]), ph.slope(y, 0),
        np.asarray([_origin_scale(weights, phase.data)]), rel_tol, max_panels, interval)
    return [StabilizedIntegral(float(log_scale[0]), float(total[i, 0]), float(err[i, 0]),
                               (float(a[0]), float(b[0])), bool(conv[i, 0]), float(tgt[i, 0]))
            for i in range(len(gs))]


def _quotients(t, x, total, err, tgt, conv):
    """total[:-1] / total[-1] at every point x at its t, the last row being
    the denominator.  The first point where a weight missed its target, or
    the denominator is not positive, raises NotConvergedError naming the
    weight, x, t and the error against its target."""
    bad = ~np.all(conv, axis=0) | ~(total[-1] > 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        where = f"x={x[j]:.6g}, t={t[j]:.6g}"
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
MAX_PANELS = 4000  # panels a point may refine to before NotConvergedError
_EVAL_PANELS = 512  # panels per integrand call: bounds the temporaries of a level
_DOUBLINGS = 8  # truncation steps scored per call (_batch_truncation)
_ORIGIN_YS = np.geomspace(1e-3, 1e8, 1101)
_ORIGIN_YS = np.concatenate([-_ORIGIN_YS[::-1], [0.0], _ORIGIN_YS])  # the grid of _origin_scale
_LADDER = np.concatenate([[1.0, 3.0, 8.0], 8.0 * 4.0 ** np.arange(1, 13)])
_LADDER = np.concatenate([-_LADDER[::-1], [0.0], _LADDER])  # edges of _batch_edges, in widths


def _log_grid(t, reach):
    """(grid, r_min): 0 and +-r_min 10^(k/100), k >= 0, out to at least
    reach, with r_min = 1e-6 min(1, 1/t).  A wider reach only adds points,
    so nothing found on the grid depends on the reach."""
    r_min = 1e-6 * min(1.0, 1.0 / t)
    logs = r_min * 10.0 ** (np.arange(math.ceil(100.0 * math.log10(reach / r_min)) + 1) / 100.0)
    return np.concatenate([-logs[::-1], [0.0], logs]), r_min


def _brentq(a, b, fa, fb, xtol, rtol, maxiter, where):
    """scipy's brentq (Brent 1973) on [a, b], given the values fa and fb at
    its ends, as a generator that yields each x to evaluate and is sent its
    value: scipy's C code step for step, with its stopping rule (xtol + rtol
    |x|) / 2 and cap of maxiter steps.  Ends without a sign change, or a nan
    value, raise ValueError, and the cap NotConvergedError; where ends each
    message."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa < 0.0) == (fb < 0.0) or math.isnan(fa) or math.isnan(fb):
        raise ValueError(f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} "
                         f"do not bracket a sign change{where}")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best value at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # a good short step, or bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
        if math.isnan(fcur):
            raise ValueError(f"f({xcur!r}) is nan{where}")
    raise NotConvergedError(f"brentq took {maxiter} steps on [{a!r}, {b!r}] "
                            f"without converging{where}")


def lockstep(runs, f, failure=()):
    """Run the generators runs in lockstep, each yielding the next x it
    needs and sent the answer there: f(j, xs) is given the indices j of the
    live runs and their x, both arrays, and answers each, so each step is
    one call.  Returns what each run returns, or the exception of the
    types failure that it raised; any other exception propagates."""
    out = [None] * len(runs)
    sent = dict.fromkeys(range(len(runs)))  # run -> value to send it, None to start
    while sent:
        xs = {}
        for j, value in sent.items():
            try:
                xs[j] = runs[j].send(value)
            except StopIteration as stop:
                out[j] = stop.value
            except failure as exc:
                out[j] = exc
        sent = dict(zip(xs, f(np.asarray(list(xs), dtype=int), np.asarray(list(xs.values())))
                        if xs else []))
    return out


def brentq_lockstep(f, a, b, fa, fb, xtol, rtol, maxiter=100, where=""):
    """The roots _brentq finds on the brackets [a[i], b[i]], given the values
    fa[i] and fb[i] at their ends, in lockstep: f maps an array of x to their
    values, and each step is one call on the next x of every live bracket."""
    runs = [_brentq(*ends, xtol, rtol, maxiter, where) for ends in zip(a, b, fa, fb)]
    return np.asarray(lockstep(runs, lambda _j, xs: np.asarray(f(xs), float).tolist()), dtype=float)


def monotone_pieces(data: InitialData, t, reach):
    """Monotone pieces of G_t(y) = y + t f0(y) on |y| <= reach.

    The stationary points of the physical phase at (x, t) solve x = G_t(y),
    and G_t does not depend on x.  Returns (bounds, rising): the sign
    changes of G_t' = 1 + t f0' in increasing order, bracketed on the scan
    grid _log_grid (geometric towards 0) and found by brentq_lockstep from
    the grid's values of G_t', one data.derivative call a step for all the
    brackets; and for each of the len(bounds) + 1 pieces between them
    whether G_t increases on it."""
    grid, r_min = _log_grid(t, reach)
    slope = 1.0 + t * np.asarray(data.derivative(grid, 1))
    up = slope > 0.0
    cut = np.nonzero(up[:-1] != up[1:])[0]
    ends = (v.tolist() for v in (grid[cut], grid[cut + 1], slope[cut], slope[cut + 1]))
    bounds = brentq_lockstep(lambda y: 1.0 + t * np.asarray(data.derivative(y, 1)), *ends,
                             1e-3 * r_min, 1e-15, where=f" in the table at t={t!r}")
    rising = (np.arange(len(bounds) + 1) % 2 == 0) == bool(up[0])
    return bounds, rising


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


_TABLES = {}  # the tables of the last query that made one: (id(data), t) -> (data, reach, table)


def _tables(data: InitialData, ts, x_max):
    """The piece tables (_piece_table) of (data, t) for every t of ts, each
    holding every root of x = G_t(y) for |x| <= its x_max.

    Those roots lie in |y| <= x_max + t sup|f0|, so a table out to that
    plus 1 holds them.  The tables of the last query that made one are
    kept, keyed on the identity of data and on t, and a table is made
    again only for a query beyond its reach, then out to twice the reach
    that query needs, so a scan whose |x| grows does not tabulate at every
    step.  A wider table only adds grid points and pieces beyond the old
    reach (_log_grid), so no root depends on which table it came from.  A
    kernel queries every t of its sweep, so the memo holds one table per t
    of the last sweep, which the one-t queries of its tie points share.
    The memo is one dict, read and replaced whole: threads that race on it
    at worst build an equal table twice."""
    global _TABLES
    memo, used, made = _TABLES, {}, False
    for t, x in zip(ts, x_max):
        key = (id(data), t)
        need = x + t * data.sup_abs + 1.0
        hit = used.get(key) or memo.get(key)
        if hit is None or hit[0] is not data or need > hit[1]:
            hit, made = (data, 2.0 * need, _piece_table(data, t, 2.0 * need)), True
        used[key] = hit
    if made:
        _TABLES = used
    return [used[id(data), t][2] for t in ts]


def _sweep_tables(data: InitialData, xs, t):
    """(ts, k, tables) for the points xs at t, a number or an array like xs:
    the distinct t, each point's index in ts, and the tables of ts (_tables)."""
    ts, k = (np.unique(np.asarray(t, dtype=float).ravel(), return_inverse=True) if np.ndim(t)
             else (np.asarray([float(t)]), np.zeros(xs.size, dtype=int)))
    x_max = [float(np.max(np.abs(xs[k == j]), initial=0.0)) for j in range(ts.size)]
    return ts.tolist(), k, _tables(data, ts.tolist(), x_max)


def _log_gauss_tails(quad, dist):
    """log of int_dist^inf exp(-quad s^2) ds (one tail) for arrays of
    distances and of their quad (or one quad for all)."""
    xi = dist * np.sqrt(quad)
    with np.errstate(divide="ignore"):
        near = np.log(0.5 * np.sqrt(math.pi / quad) * erfc(np.minimum(xi, 25.0)))
    far = (-xi * xi - np.log(np.maximum(xi, 25.0) * math.sqrt(math.pi))
           - 0.5 * np.log(quad) + math.log(0.5) + 0.5 * math.log(math.pi))
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
    (weights, data) and a sweep of t, built once and called on each batch
    of (t, x) pairs; a number t is a sweep of one.

    It holds what does not depend on x: the compiled weights, with one
    coefficient matrix per t (compile_weights), and the origin scale of
    their x-independent factors (_origin_scale), made once for each
    distinct matrix.  The critical points come from the piece tables of
    (data, t) (_tables), the ones that critical_points queries: each keeps
    G_t on the scan grid of monotone_pieces (100 points a decade) and at
    the piece bounds, so each root starts in its grid cell with no new
    evaluation, and a scan's first call (its coarse grids span the windows)
    makes them for the whole scan."""

    def __init__(self, gs, data: InitialData, t):
        self._sweep = np.ndim(t) > 0
        ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
        if not all(v > 0 for v in ts):
            raise ValueError("t must be positive")
        self.n_weights = len(gs)
        weights = compile_weights(list(gs) + [None], data, ts)
        self._centered = weights.centered
        self._ph = _Phases(data, ts, weights)
        groups = weights.groups.tolist()
        scales = {j: _origin_scale(weights, data, groups.index(j)) for j in dict.fromkeys(groups)}
        self._origin_scale = np.asarray([scales[j] for j in groups])

    def __call__(self, xs, rel_tol=1e-9, max_panels=MAX_PANELS):
        """The quotients at every x of xs, of shape (n_weights, xs.size),
        and with centered weights a last row of each point's center c; at a
        sweep of t, xs is a sequence of one array of x per t, and the
        quotients a list of one such array per t.

        Every piece of G_t is inverted for all x at once: rising pieces give
        the maxima, falling ones the minima (_batch_critical_points).  The
        ends drop the phase DROP e-folds below its maximum
        (_batch_truncation), the initial partition is graded around each
        maximum and around y = 0 (_batch_edges), and blocks of at most
        BATCH_BLOCK points, of any t and as equal as can be, are refined
        level by level against each weight's target
        rel_tol * max(|I|, 1e-3 L1) (_batch_refine).  Every step
        takes each point at its own t, so a point gets the bits of its
        batch of one.

        A point that misses a target within max_panels panels, whose tail
        bound is not finite or whose denominator is not positive raises
        NotConvergedError (_quotients)."""
        ph = self._ph
        if self._sweep:
            parts = [np.asarray(x, dtype=float).ravel() for x in xs]
            if len(parts) != ph.t.size:
                raise ValueError(f"{len(parts)} arrays of x for a sweep of {ph.t.size} t")
            k = np.repeat(np.arange(len(parts)), [x.size for x in parts])
            xs = np.concatenate(parts)
        else:
            xs = np.asarray(xs, dtype=float).ravel()
            k = np.zeros(xs.size, dtype=int)
        x_max = np.zeros(ph.t.size)
        np.maximum.at(x_max, k, np.abs(xs))
        tables = _tables(ph.data, ph.t.tolist(), x_max.tolist())
        ratios = np.empty((self.n_weights + self._centered, xs.size))
        n = -(-xs.size // BATCH_BLOCK)
        for i in range(n):
            block = slice(xs.size * i // n, xs.size * (i + 1) // n)
            x, kb = xs[block], k[block]
            rows = _batch_critical_points(ph, x, kb, tables)
            res = _integrate(ph, x, kb, *rows, self._origin_scale[kb], rel_tol, max_panels)
            ratios[:self.n_weights, block] = _quotients(ph.t[kb], x, *res[:4])
            if self._centered:
                ratios[-1, block] = res[-1]
        if self._sweep:
            return np.split(ratios, np.cumsum([x.size for x in parts])[:-1], axis=1)
        return ratios


def log_partition(data: InitialData, xs, t, rel_tol=1e-9, interval=None):
    """int e^H dy of the physical phase at every x of xs at its t (a number,
    or an array like xs), over the whole line or over interval=(a, b), its
    ends numbers or arrays like xs (_integrate): the arrays (log_scale,
    mantissa, error, target) of the integrals mantissa e^log_scale.  A sweep
    of t is one query of the piece tables, refined in BatchKernel's blocks."""
    xs = np.asarray(xs, dtype=float).ravel()
    ts, k, tables = _sweep_tables(data, xs, t)
    ph = _Phases(data, ts, compile_weights([None], data, ts))
    scale = np.full(xs.size, _origin_scale(ph.weights, data))
    ends = [np.broadcast_to(np.asarray(end, dtype=float), xs.shape) for end in interval or ()]
    out = np.empty((4, xs.size))
    n = -(-xs.size // BATCH_BLOCK)
    for block in (slice(xs.size * i // n, xs.size * (i + 1) // n) for i in range(n)):
        pt, y, is_max, d1 = _batch_critical_points(ph, xs[block], k[block], tables)
        order = np.lexsort((y, pt))  # the order of critical_points
        total, err, tgt, _conv, log_scale = _integrate(
            ph, xs[block], k[block], pt[order], y[order], is_max[order], d1[order], scale[block],
            rel_tol, MAX_PANELS, [end[block] for end in ends] or None)[:5]
        out[:, block] = log_scale, total[0], err[0], tgt[0]
    return tuple(out)


def _origin_scale(weights, data, k=0):
    """Length scale of the data and of the weights at y = 0, or 0.0 if all
    are constant: sup|g| / sup|g'| over f0 of the phase and the
    x-independent factors g of the weights (at the t of index k of their
    sweep) on y = 0 and 1e-3 <= |y| <= 1e8, or the smaller
    sup|f0'| / sup|f0''| there if the panels of _batch_edges at the first
    scale do not resolve f0.

    The data families vary near y = 0 (the kink of PowerC0, the bump of
    Gaussian data) and decay as powers of |y| away from it; a panel much
    wider than its distance to y = 0 is blind to that, and its G10 and K21
    values agree on a wrong integral.  f0 is graded whatever the weights
    (a unit weight too), so that every panel resolves the f0 whose integral
    it passes outward (_integrate).  f0'' measures the distance to the
    singularities of f0: PowerC1 has branch points at +-i, and at alpha 1/2
    its scales are 4.6 and 0.43; PowerC0 resolves at 2.0 and keeps it."""
    g = np.vstack([weights(_ORIGIN_YS, k=k), data.value(_ORIGIN_YS)])
    slope = np.max(np.abs(np.diff(g, axis=1)) / np.diff(_ORIGIN_YS), axis=1)
    vary = slope > 0.0
    scale = float(np.max(np.abs(g[vary])) / np.max(slope)) if vary.any() else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (np.max(np.abs(data.derivative(_ORIGIN_YS, 1)))
                 / np.max(np.abs(data.derivative(_ORIGIN_YS, 2))))
    if not 0.0 < ratio < scale:
        return scale
    ys, half = _panel_nodes(scale * _LADDER[:-1], scale * _LADDER[1:])
    return scale if _f0_resolves(data, half, _f0_rows(data, ys, half)[1]).all() else float(ratio)


class _Phases:
    """The physical phases H(y; x) = -(x-y)^2/(4t) - P(y)/2 of a sweep of t
    for arrays of x, with the compiled weights of a batch.  Each method
    takes k, the index in the sweep of the t of each element (an array
    like y, or one index for all)."""

    def __init__(self, data, ts, weights):
        self.data, self.weights = data, weights
        self.t = np.asarray(ts, dtype=float)
        self.char_width = np.asarray([math.sqrt(2.0 * t) for t in ts])

    def total(self, y, x, k):
        return -((x - y) ** 2) / (4.0 * self.t[k]) - 0.5 * self.data.primitive(y)

    def slope(self, y, k):
        """G_t'(y) = 1 + t f0'(y) = -2t H''(y)."""
        return 1.0 + self.t[k] * self.data.derivative(y, 1)

    def width(self, d1, k):
        """min(char_width, 1/sqrt(-H'')) where H'' < 0, else char_width, from
        the slope d1 = G_t' at the point."""
        d2 = -0.5 * d1 / self.t[k]
        peak = d2 < 0.0
        char_width = self.char_width[k]
        return np.where(peak, np.minimum(char_width, 1.0 / np.sqrt(np.where(peak, -d2, 1.0))),
                        char_width)

    def weight_mag(self, y, x, k, c):
        return np.max(np.abs(self.weights(y, x, k=k, c=c)), axis=0)


def _batch_critical_points(ph, xs, k, tables):
    """Roots of G_t(y) = x on every piece whose range holds x, for every
    point x at its t (the index k in the sweep of ph, whose piece table is
    tables[k]), by safeguarded Newton from the root's grid cell in the
    table (_piece_table).

    A searchsorted per piece of each table finds, from the stored values
    alone, the two adjacent nodes of the piece whose G_t bracket x: a node
    where G_t is x is the root, and otherwise Newton starts from the secant
    of the cell.  A step that leaves the bracket is a bisection, and one
    that does not move y is the root.

    A point at a piece end, x = G_t(p) within 1e-12 (|x| + |G_t(p)| + 1)
    at a bound p, has p itself for the roots of the two pieces that meet
    there: one degenerate root, a maximum, with G_t' taken as 0 (it
    changes sign at p).  A root where |G_t'| <= 1e-6 is degenerate and a
    maximum too.  Every other root must have the sign of G_t' of its piece
    and lie within 1e-6 of its peak width, and every point must have a
    maximum; otherwise InternalConsistencyError names the point's x and t.

    Returns (pt, y, is_max, d1): for each root its point, its y, whether it
    is a maximum and G_t' there (0 at a piece end); a point's roots are in
    the order of its pieces, and those at piece ends last."""
    data, n = ph.data, xs.size
    cells, ends = [], []
    for a, b in _runs(k):
        nodes, rising, bounds, g_bounds = tables[k[a]]
        x = xs[a:b]
        sgn = np.where(rising, 1.0, -1.0)
        # (point, piece) rows: the cell [lo, hi] with h = sgn (G_t - x) at
        # its ends, h(lo) < 0 <= h(hi), where the piece's range holds x
        lo, hi, h_lo, h_hi = np.empty((4, x.size, rising.size))
        has = np.empty((x.size, rising.size), dtype=bool)
        for i, (ny, key) in enumerate(nodes):
            v = sgn[i] * x
            c = np.searchsorted(key, v)
            has[:, i] = (c > 0) & (c < key.size)
            c = np.minimum(np.maximum(c, 1), key.size - 1)
            lo[:, i], hi[:, i] = ny[c - 1], ny[c]
            h_lo[:, i], h_hi[:, i] = key[c - 1] - v, key[c] - v
        at_end = (np.abs(x[:, None] - g_bounds[None, :])
                  <= 1e-12 * (np.abs(x)[:, None] + np.abs(g_bounds)[None, :] + 1.0))
        if at_end.any():
            # the bound is the root of the pieces that meet there: the
            # bounds of piece i are columns i and i + 1
            near = np.zeros((x.size, bounds.size + 2), dtype=bool)
            near[:, 1:-1] = at_end
            has &= ~(near[:, :-1] | near[:, 1:])
            end_pt, end_b = np.nonzero(at_end)
            ends.append((a + end_pt, bounds[end_b]))
        pt, piece = np.nonzero(has)
        cells.append((a + pt, sgn[piece], lo[has], hi[has], h_lo[has], h_hi[has]))
    pt, sgn, lo, hi, h_lo, h_hi = (cells[0] if len(cells) == 1 else
                                   (np.concatenate(c) for c in zip(*cells)))
    x, kr = xs[pt], k[pt]
    t = ph.t[kr]

    def h(y):  # increasing on its piece, zero at the root
        return sgn * (y + t * data.value(y) - x)

    y = lo - h_lo * ((hi - lo) / (h_hi - h_lo))
    y = np.where(h_hi == 0.0, hi, np.where((y > lo) & (y < hi), y, 0.5 * (lo + hi)))
    # each root stops at its own last step, so it does not depend on the
    # other points of the batch: a single point is a batch of one
    live = h_hi != 0.0
    for _ in range(100):
        if not live.any():
            break
        g = h(y)
        lo = np.where(g <= 0.0, y, lo)
        hi = np.where(g >= 0.0, y, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = y - g / (sgn * ph.slope(y, kr))
        # a step that lands on y itself is below its resolution: y is the root
        nxt = np.where(((step > lo) & (step < hi)) | (step == y), step, 0.5 * (lo + hi))
        moved = np.abs(nxt - y) > 1e-15 * np.abs(nxt) + 1e-300
        y = np.where(live, nxt, y)
        live &= moved
    d1 = ph.slope(y, kr)
    res = np.abs(y + t * data.value(y) - x)
    flat = np.abs(d1) <= 1e-6
    bad = ~flat & ((sgn * d1 <= 0.0) | ~(res <= 1e-6 * np.sqrt(2.0 * t * np.abs(d1))))
    is_max = (sgn > 0.0) | flat
    if ends:
        end_pt, end_y = (np.concatenate(c) for c in zip(*ends))
        pt, y, is_max, d1, bad = (np.concatenate([a, b]) for a, b in (
            (pt, end_pt), (y, end_y), (is_max, np.ones(end_pt.size, dtype=bool)),
            (d1, np.zeros(end_pt.size)), (bad, np.zeros(end_pt.size, dtype=bool))))
    miss = np.bincount(pt[bad], minlength=n) > 0
    fail = miss | (np.bincount(pt[is_max], minlength=n) == 0)
    if fail.any():
        i = int(np.argmax(fail))
        why = "a root misses its residual or slope check" if miss[i] else "no maximum"
        raise InternalConsistencyError(
            f"critical points at x={float(xs[i])!r}, t={float(ph.t[k[i]])!r}: {why}")
    return pt, y, is_max, d1


def _integrate(ph, x, k, pt, y, is_max, d1, origin_scale, rel_tol, max_panels,
               interval=None):
    """The integrals of the weights of ph at every point x at its t (the
    index k in the sweep of ph), from the roots (pt, y, is_max, d1) of
    their phases, d1 being G_t' at each root; origin_scale is per point.

    Over the whole line the log scale is the largest phase at a root, and
    the ends and tail bound are _batch_truncation's; over a window
    interval=(a, b), its ends numbers or one per point, they are the
    window's ends, the log scale is the largest phase at those ends and at
    the roots inside, and there is no tail.

    The phase at the nodes is measured from the anchor y0 where the log
    scale is attained (_anchors), with no closed-form primitive:
    H(y) - H(y0) = -(y - y0)(y + y0 - 2x)/(4t) - int_{y0}^y f0 / 2.  Each
    panel [a, b] carries h = H(a) - H(y0) in extended precision, and a node
    y adds H(y) - H(a) = (a - y)(y + a - 2x)/(4t) - int_a^y f0 / 2, the
    integral by spectral integration of f0 at the panel's nodes
    (_SPECTRAL): no node subtracts numbers of the size of the offsets.  The
    initial panels are split until each resolves f0 (_resolved), and their
    h come from their K21 integrals of f0 summed from y0 (_offsets); a
    split panel passes its h to its left half, and its h plus the phase
    from a to its midpoint, node 10, to its right half.  f0 at the nodes is
    evaluated once, for the phase and the weights, and the phase factor
    multiplies the weight rows in place.  The weights take each node's x
    and its point's anchor y0 as the center c (CenteredWeight).

    Returns (total, error, target, converged), each of shape
    (n_weights, x.size), then log_scale, a, b and y0; the error includes
    the tail bound, and a weight has converged if it met its target and
    the tail bound is finite."""
    m = x.size
    if interval is None:
        log_scale, y0 = _anchors(ph, x, k, pt, y)
        a, b, log_tail = _batch_truncation(ph, x, k, log_scale, pt[is_max], y[is_max], y0)
    else:
        a, b = (np.broadcast_to(np.asarray(end, dtype=float), (m,)) for end in interval)
        inner = (y > a[pt]) & (y < b[pt])
        pt, y, is_max, d1 = pt[inner], y[inner], is_max[inner], d1[inner]
        ends = np.arange(m)
        log_scale, y0 = _anchors(ph, x, k, np.concatenate([ends, ends, pt]),
                                 np.concatenate([a, b, y]))
        log_tail = np.full(m, -np.inf)
    t = ph.t[k]

    def quad(a, d, p):  # the quadratic part of H(a + d) - H(a) at the points p
        return d * (2.0 * (x[p] - a) - d) / (4.0 * t[p])

    def rules(pid, pa, ys, half, f0, ints, h):
        # the phase at the node a + half (1 + s) that the spectral rows
        # integrate to: the node ys in double is off it by up to ulp(y), and
        # f0 ulp(y) is far above the phase's rounding (1e-11 at y = 4e6)
        phase = (h.astype(float)[:, None]
                 + quad(pa[:, None], half[:, None] * (1.0 + _NODES), pid[:, None])
                 - 0.5 * ints[:, :21])
        kp = k[pid]  # one index for the nodes of panels of one t
        gv = ph.weights(ys.ravel(), np.repeat(x[pid], _NODES.size), f0.ravel(),
                        kp[0] if (kp == kp[0]).all() else np.repeat(kp, _NODES.size),
                        np.repeat(y0[pid], _NODES.size) if ph.weights.centered else None)
        gv *= np.exp(phase.ravel())
        return _rules(gv.reshape(gv.shape[0], -1, _NODES.size), half)

    def right_half(pid, pa, pb, f0, ints, h):
        # H(mid) - H(y0) at the double midpoint, which is off the middle
        # node a + half (node 10) by half the rounding of a + b
        s = pa + pb
        bb = s - pa
        mid = 0.5 * s
        return h + (quad(pa, mid - pa, pid)
                    - 0.5 * (ints[:, 10] - 0.5 * f0[:, 10] * ((pa - (s - bb)) + (pb - bb))))

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
    pid, pa, pb = _batch_edges(ph, a, b, k, pt, y, is_max, d1, origin_scale)
    several = np.bincount(pt[is_max], minlength=m) > 1
    level = []
    for s in _point_groups(pid):
        g_pid, g_pa, g_pb, ys, half, f0, ints = _resolved(ph.data, pid[s], pa[s], pb[s])
        h = (quad(y0[g_pid], g_pa.astype(np.longdouble) - y0[g_pid], g_pid)
             - 0.5 * _offsets(g_pid, g_pa, half, f0, ints, y0, several))
        level.append((g_pid, g_pa, g_pb, h, *rules(g_pid, g_pa, ys, half, f0, ints, h),
                      right_half(g_pid, g_pa, g_pb, f0, ints, h)))
    panels = list(level[0] if len(level) == 1 else
                  (np.concatenate(q, axis=-1) for q in zip(*level)))
    del level
    total, err, tgt = _batch_refine(evaluate, panels, m, rel_tol, max_panels)
    tail = np.where(log_tail < 700.0, np.exp(np.minimum(log_tail, 700.0)), np.inf)
    return total, err + tail, tgt, (err <= tgt) & np.isfinite(tail), log_scale, a, b, y0


_F0_RESOLUTION = 1e-10  # G10 against K21 of f0 on a panel that resolves it
_F0_SPLITS = 30  # halvings of a panel that does not
_EPS = np.finfo(float).eps


def _f0_rows(data, ys, half):
    """(f0, ints) at the nodes ys of panels of half widths half: f0 there,
    of shape (n_panels, 21), and its integrals from each panel's left end
    by the rows of _SPECTRAL, of shape (n_panels, 23).  A product of two
    panels or more gives each panel's row the same bits in any batch, so no
    panel depends on its batch; one panel alone is another BLAS call, and so
    is _SPECTRAL in Fortran order, whose rows can differ in the last bit."""
    f0 = data.value(ys.ravel()).reshape(ys.shape)
    if not f0.any():  # the heat phase: f0 = 0, and so are its integrals
        return f0, np.zeros((f0.shape[0], _SPECTRAL.shape[0]))
    return f0, half[:, None] * (f0 @ _SPECTRAL.T)


def _f0_resolves(data, half, ints):
    """Per panel of half width half: its G10 and K21 of f0 (_f0_rows) agree
    to _F0_RESOLUTION of the K21 one, or to eps sup|f0| times its width.
    That floor passes the panels where f0 is negligible, where a relative
    test cannot be met (the super-exponential tail of Gaussian data); f0
    there adds below round-off of sup|f0| to the integral it passes on."""
    diff = np.abs(ints[:, -2] - ints[:, -1])
    return ((diff <= _F0_RESOLUTION * np.abs(ints[:, -2]))
            | (diff <= _EPS * data.sup_abs * 2.0 * half))


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
    its G10 and K21 integrals of f0 agree (_f0_resolves), or it was halved
    _F0_SPLITS times.  The polynomial of degree 20 through the 21 nodes then
    carries the integral of f0 to about 1e-12 of the panel's, not to
    round-off: on the panel [8, 32] of the origin ladder, y^-1/2 has a G10
    error of 5.2e-11, and its spectral integrals at the nodes are up to
    5.7e-13 of the panel's integral off (4.7e-16 through the 31 nodes of
    two separate Gauss rules).
    Graded panels pass at once; the ones that split lie where f0 varies on
    a scale below the grading of _batch_edges.

    Returns (pid, pa, pb, ys, half, f0, ints) sorted by point and left
    end, with the nodes of _panel_nodes and the rows of _f0_rows."""
    done = []
    for depth in range(_F0_SPLITS + 1):
        ys, half = _panel_nodes(pa, pb)
        f0, ints = _f0_rows(data, ys, half)
        ok = _f0_resolves(data, half, ints) | (depth == _F0_SPLITS)
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


def _anchors(ph, x, k, pt, y):
    """(log_scale, y0): for every point the largest phase over its
    candidates (pt, y), by the closed-form primitive, and the first
    candidate where it is attained.  Only candidates (roots, window ends)
    call data.primitive, never the quadrature nodes."""
    h = ph.total(y, x[pt], k[pt])
    log_scale = np.full(x.size, -np.inf)
    np.maximum.at(log_scale, pt, h)
    top = np.flatnonzero(h == log_scale[pt])
    first = np.full(x.size, y.size)
    np.minimum.at(first, pt[top], top)
    return log_scale, y[first]


_W21_LONG = _W21.astype(np.longdouble)


def _offsets(pid, pa, half, f0, ints, y0, several):
    """int_{y0}^{pa} f0 for every panel of the sorted (point, left end)
    arrays of the points, with f0 and its integrals (_f0_rows) at their
    nodes: the K21 integrals of the panels summed over each point's panels
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
    full[far] = half[far] * (f0[far].astype(np.longdouble) @ _W21_LONG)
    col = np.arange(pid.size) - np.searchsorted(pid, pid)
    table = np.zeros((several.size, int(col.max()) + 2), dtype=np.longdouble)
    table[pid, col + 1] = full
    np.cumsum(table, axis=1, out=table)
    at_y0 = np.bincount(pid, weights=pa < y0[pid], minlength=several.size).astype(int)
    return table[pid, col] - table[pid, at_y0[pid]]


def _batch_truncation(ph, x, k, log_scale, max_pt, max_y, c):
    """(a, b, log of the tail bound) for every point at its t (the index k
    in the sweep of ph): from the outermost maxima, steps of 1, 2, 4, ...
    peak widths out to where the phase is DROP + 5 e-folds (and the log of
    the weights' size, at the point's center c) below log_scale, and beyond
    the Gaussian domination
    threshold of the primitive's growth bound; the window doubles until
    the bound of the Gaussian tails beyond it is DROP / 2 e-folds below.

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
    x2, k2, ls2, c2 = (np.tile(v, 2) for v in (x, k, log_scale, c))
    w = np.maximum(ph.width(ph.slope(y0, k2), k2), 1e-12 * (1.0 + np.abs(y0)))
    edge = y0 + direction * w * 2.0 ** 60
    todo = np.arange(2 * m)
    for k0 in range(0, 200, _DOUBLINGS):
        cand = (y0[todo, None] + (direction[todo] * w[todo])[:, None]
                * 2.0 ** np.arange(k0, k0 + _DOUBLINGS))
        xc, kc, cc = (np.repeat(v[todo], _DOUBLINGS) for v in (x2, k2, c2))
        hit = (ph.total(cand.ravel(), xc, kc) - np.repeat(ls2[todo], _DOUBLINGS)
               <= -(DROP + 5.0 + np.log1p(ph.weight_mag(cand.ravel(), xc, kc, cc))))
        hit = hit.reshape(cand.shape)
        done = hit.any(axis=1)
        edge[todo[done]] = cand[done, np.argmax(hit[done], axis=1)]
        todo = todo[~done]
        if not todo.size:
            break
    k_growth, p = ph.data.primitive_growth()
    ts = ph.t.tolist()
    thr = np.asarray([1.0 if k_growth == 0.0 else (32.0 * t * k_growth) ** (1.0 / (2.0 - p)) * 2.0
                      for t in ts])[k]
    thr = np.maximum(np.maximum(thr, 2.0 * np.abs(x) + 1.0), 1.0)
    a = np.minimum(edge[:m], x - thr)
    b = np.maximum(edge[m:], x + thr)
    quad = 1.0 / (8.0 * ph.t[k2])  # each end at its own t

    def tail_log(a, b):  # both ends in one call each
        gmax = np.maximum(ph.weight_mag(np.concatenate([a, b]), x2, k2, c2).reshape(2, m).max(axis=0),
                          1e-300)
        tails = _log_gauss_tails(quad, np.concatenate([b - x, x - a]))
        return tails.reshape(2, m).max(axis=0) + np.log(8.0 * gmax) - log_scale

    log_tail = tail_log(a, b)
    for _ in range(16):
        wide = log_tail > -0.5 * DROP
        if not wide.any():
            break
        a = np.where(wide, x - 2.0 * (x - a), a)
        b = np.where(wide, x + 2.0 * (b - x), b)
        log_tail = np.where(wide, tail_log(a, b), log_tail)
    return a, b, log_tail


def _batch_edges(ph, a, b, k, pt, y, is_max, d1, origin_scale):
    """Initial panels (point, left, right): the truncation ends, the
    critical points, and edges graded geometrically around each maximum
    (1, 3 and 8 peak widths, from G_t' = d1 there, then 4 times wider at
    each step) and around y = 0 (the same steps of origin_scale, per point
    the length on which f0 and the weights vary there, so that _resolved
    halves none of these panels on PowerC1 data; y = 0 alone if that is 0:
    the kink of PowerC0 data is in the phase whatever the weights).

    Where the phase flattens away from a narrow peak, or the data decay as
    a power of |y|, one panel out to the truncation end puts every node past
    the integrand's mass, and its G10 and K21 agree on a wrong value
    (Asymmetric data, t = 5.3e6: 8e-12 for a true 0.27)."""
    m = a.size
    centers = np.concatenate([y[is_max], np.zeros(m)])
    k_max = k[pt[is_max]]
    widths = np.concatenate([np.minimum(ph.width(d1[is_max], k_max), ph.char_width[k_max]),
                             origin_scale])
    ept = np.concatenate([np.arange(m), np.arange(m), pt,
                          np.repeat(pt[is_max], _LADDER.size),
                          np.repeat(np.arange(m), _LADDER.size)])
    ey = np.concatenate([a, b, y, (centers[:, None] + widths[:, None] * _LADDER).ravel()])
    inside = (np.arange(ept.size) < 2 * m) | ((ey > a[ept]) & (ey < b[ept]))
    ept, ey = ept[inside], ey[inside]
    order = np.lexsort((ey, ept))
    ept, ey = ept[order], ey[order]
    new = np.ones(ept.size, dtype=bool)
    new[1:] = (ept[1:] != ept[:-1]) | (ey[1:] != ey[:-1])
    ept, ey = ept[new], ey[new]
    same = ept[1:] == ept[:-1]
    return ept[:-1][same], ey[:-1][same], ey[1:][same]


def _batch_refine(evaluate, panels, m, rel_tol, max_panels):
    """Level-by-level refinement of the flat (point, panel) arrays of m
    points, each panel carrying a value h (the phase at its left end, in
    _integrate).  evaluate(pid, pa, pb, h) gives (i10, i21, h_right) for
    panels of the points pid: the values of the two rules, each of shape
    (n_weights, n_panels), and the h of each panel's right half (its left
    half keeps h).  panels is the list [pid, pa, pb, h, i10, i21, h_right]
    of the given panels, emptied here so that no level outlives the next.
    Every panel of an unconverged point whose error is above its share of
    the point's target is split, all of them in one evaluate call.  Returns the per-point totals, errors and targets
    rel_tol * max(|I|, 1e-3 L1), each of shape (n_weights, m); a point
    stops when every weight meets its target or it has max_panels
    panels."""
    pid, pa, pb, h, i10, i21, h_right = panels
    panels.clear()
    created = np.bincount(pid, minlength=m)
    while True:
        # rules that differ by a tenth of the panel's value do not bound its
        # error (a 2e5-wide tail panel read 1.0e-6 on its finer rule, 1.7e-5
        # exact): such an estimate counts up to tenfold
        e = np.abs(i21 - i10)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = e * np.fmin(10.0, np.fmax(1.0, 10.0 * e / np.abs(i21)))
        # one _sums call a quantity: the same sums as one call on the three
        # stacked, with a third of its temporaries
        total, l1, err = (_sums(pid, v, m) for v in (i21, np.abs(i21), e))
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
    """Adaptive G10/K21 quadrature of one plain function over a fixed edge
    list, on the level-by-level refinement of the moment integrals.

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
    total, err, tgt = _batch_refine(evaluate, [pid, pa, pb, h, *evaluate(pid, pa, pb, h)],
                                    1, rel_tol, max_panels)
    return float(total[0, 0]), float(err[0, 0]), bool(err[0, 0] <= tgt[0, 0])
