"""The viscous Burgers field f(x, t) through the Hopf-Cole quotient.

f(x,t) = int f0(y) e^{H(y)} dy / int e^{H(y)} dy with
H(y) = -(x-y)^2/(4t) - (1/2) int_0^y f0.  Space and time derivatives are
exact quotient-rule expansions over the weight algebra, so the PDE residual
d_t f - d_x^2 f + f d_x f is a strong end-to-end self test.

Every value comes from the one quadrature path, quadrature.BatchKernel.
An array of x at one t is one batch (eval_batch): its points share the
critical points of G_t(y) = y + t f0(y) and are integrated together, and a
single point (eval, derivative_fields) is a batch of one.  A sup-norm scan
(scan_max) scores its coarse grid as one batch.  A picked grid point that
is a grid peak has its bracket refined; picks on the shoulder of a peak
get sub-grids, all scored in one batch, and only a sub-grid peak above its
bracket ends is refined.  The refinements run in lockstep, each step one
batch of the next x of every live bracket.
The batches of one scan share one kernel setup (the compiled weights, the
table of the pieces of G_t and the origin scale), held by the scan's scorer
(_eval_scorer, derivative_fields_scorer); eval_batch and each single point
are one call of a fresh scorer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import InitialData
from .quadrature import BatchKernel, MomentWeight, derive_x, derive_t

_U = MomentWeight.unit()
_F0 = MomentWeight.f0()
_DX_F0 = derive_x(_F0)
_DT_F0 = derive_t(_F0)
_DX_U = derive_x(_U)
_DT_U = derive_t(_U)
_DX2_F0 = derive_x(_DX_F0)
_DX2_U = derive_x(_DX_U)
_FIELD_WEIGHTS = [_F0, _DX_F0, _DT_F0, _DX_U, _DT_U, _DX2_F0, _DX2_U]
# (n, k) of d_t^n d_x^k -> its key in derivative_fields
FIELD_OF_ORDER = {(0, 0): "f", (0, 1): "f_x", (1, 0): "f_t", (0, 2): "f_xx"}


def eval(data: InitialData, x: float, t: float, rel_tol: float = 1e-9) -> float:
    """Solution value f(x, t); t = 0 returns f0(x) directly."""
    return float(_eval_scorer(data, t, rel_tol)(np.asarray([x], dtype=float))[0])


def derivative_fields(data: InitialData, x: float, t: float,
                      rel_tol: float = 1e-10) -> dict:
    """f, f_x, f_t, f_xx at one point from a single shared quadrature.

    Uses d(A_g/A_1) = (A_{Dg} - (A_g/A_1) A_{D1}) / A_1 recursively with the
    x/t derivation maps of the weight algebra."""
    fields = derivative_fields_scorer(data, t, rel_tol)(np.asarray([x], dtype=float))
    return {name: float(v[0]) for name, v in fields.items()}


def _fields(r):
    """f, f_x, f_t, f_xx from the quotients of _FIELD_WEIGHTS (floats or
    arrays)."""
    f = r[0]
    fx = r[1] - f * r[3]
    ft = r[2] - f * r[4]
    fxx = r[5] - r[1] * r[3] - fx * r[3] - f * (r[6] - r[3] ** 2)
    return {"f": f, "f_x": fx, "f_t": ft, "f_xx": fxx}


def pde_residual(data: InitialData, x: float, t: float,
                 rel_tol: float = 1e-10) -> float:
    """d_t f - d_x^2 f + f d_x f with exact-mode derivatives.

    Analytically zero; numerically bounded by the quadrature budget."""
    fields = derivative_fields(data, x, t, rel_tol)
    return fields["f_t"] - fields["f_xx"] + fields["f"] * fields["f_x"]


# ---------------------------------------------------------------------------
# batch evaluation


def eval_batch(data: InitialData, xs, t: float, rel_tol: float = 1e-9):
    """f(x, t) for a 1-d array of x at one t.

    The points share one table of the monotone pieces of
    G_t(y) = y + t f0(y), whose inverses are the critical points of every
    phase, and are refined together (quadrature.BatchKernel)."""
    return _eval_scorer(data, t, rel_tol)(xs)


def _eval_scorer(data, t, rel_tol):
    """eval_batch at one t as a function of xs, on one kernel setup
    (quadrature.BatchKernel) for all its calls."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return lambda xs: data.value(np.asarray(xs, dtype=float))
    kernel = BatchKernel([_F0], data, t)

    return lambda xs: kernel(xs, rel_tol)[0]


def derivative_fields_scorer(data: InitialData, t: float, rel_tol: float = 1e-10):
    """derivative_fields for a 1-d array of x at one t > 0 as a function of
    xs: the seven weights on one kernel setup (quadrature.BatchKernel) for
    all its calls."""
    kernel = BatchKernel(_FIELD_WEIGHTS, data, t)

    return lambda xs: _fields(kernel(xs, rel_tol))


# ---------------------------------------------------------------------------
# sup norm


@dataclass(frozen=True)
class SupNormResult:
    value: float
    argmax_x: float
    t: float
    search_window: tuple  # (Z, n_coarse)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_brent(a, b, xatol, maxfun=500):
    """scipy's bounded Brent minimization (minimize_scalar with
    method="bounded") of one bracket [a, b] as a generator.

    It yields each x to score and is sent the value there, taking the same
    parabolic and golden steps in the same order, with the same stopping
    rule and cap of maxfun values; it returns (x, value) of the best point."""
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def scan_max(fn, lo: float, hi: float, n_coarse: int):
    """Max of fn on [lo, hi]: a coarse grid, then bounded Brent refinement
    where the 3 best separated grid points show a peak.

    fn maps an array of x to an array of scores; the scores of sup_norm,
    heat_sup_norm and the ddecay scans are batches on one kernel setup per
    scan (quadrature.BatchKernel).  The grid is one call.  A picked point
    that is >= both its grid neighbours (a peak or a plateau) refines its
    bracket, the cells on either side of it.  Any other pick is a shoulder:
    a neighbour outscores it, and refining its bracket would crawl to that
    neighbour.  Every shoulder bracket is cut into 8 equal cells and their
    7 interior points are scored, all shoulders in one call; a bracket is
    refined, on the two cells around its sub-grid maximum, only if that
    maximum beats both bracket ends.  Each refinement runs _bounded_brent
    on -fn with xatol = 1e-6 (b - a) + 1e-12 of its grid bracket [a, b],
    and the refinements run in lockstep: each step is one call on the next
    x of every live one.  Returns (value, x) of the best point scored, with
    the values fn gave."""
    grid = np.linspace(lo, hi, n_coarse)
    vals = np.asarray(fn(grid), dtype=float)
    order = np.argsort(vals)[::-1]
    picked = []
    for i in order:
        if all(abs(i - j) > 1 for j in picked):
            picked.append(int(i))
        if len(picked) == 3:
            break
    best = int(np.argmax(vals))
    best_v, best_x = float(vals[best]), float(grid[best])
    runs, shoulders = [], []
    for i in picked:
        ia, ib = max(i - 1, 0), min(i + 1, n_coarse - 1)
        a, b = grid[ia], grid[ib]
        if b <= a:
            continue
        xatol = 1e-6 * (b - a) + 1e-12
        if vals[i] >= vals[ia] and vals[i] >= vals[ib]:
            runs.append(_bounded_brent(a, b, xatol))
        else:
            shoulders.append((np.linspace(a, b, 9), max(vals[ia], vals[ib]), xatol))
    if shoulders:
        subs = np.concatenate([pts[1:-1] for pts, _edge, _xatol in shoulders])
        scores = np.asarray(fn(subs), dtype=float).reshape(len(shoulders), 7)
        for (pts, edge, xatol), row in zip(shoulders, scores):
            k = int(np.argmax(row))
            if row[k] > best_v:
                best_v, best_x = float(row[k]), float(pts[k + 1])
            if row[k] > edge:
                runs.append(_bounded_brent(pts[k], pts[k + 2], xatol))
    results = [None] * len(runs)
    pending = {j: next(run) for j, run in enumerate(runs)}  # bracket -> next x
    while pending:
        scores = np.asarray(fn(np.asarray(list(pending.values()))), dtype=float)
        for j, v in zip(list(pending), scores):
            try:
                pending[j] = runs[j].send(-v)
            except StopIteration as stop:
                results[j] = stop.value
                del pending[j]
    for x, fx in results:
        if -fx > best_v:
            best_v, best_x = float(-fx), float(x)
    return best_v, best_x


def sup_norm(data: InitialData, t: float, Z: float = 10.0, n_coarse: int = 129,
             rel_tol: float = 1e-9) -> SupNormResult:
    """sup over |x| <= Z * scale(t) of |f(x, t)|.

    scale(t) is t^{1/(1+alpha)} for the power-tail families (the maximum
    lives at x of that order) and sqrt(t) otherwise.  Every call of the scan
    is an eval_batch on one kernel setup."""
    if n_coarse < 64:
        raise ValueError("n_coarse must be at least 64")
    if Z <= 0:
        raise ValueError("Z must be positive")
    score = _eval_scorer(data, t, rel_tol)
    alpha = data.alpha
    m = t ** (1.0 / (1.0 + alpha)) if alpha is not None else math.sqrt(t)
    v, ax = scan_max(lambda xs: np.abs(score(xs)), -Z * m, Z * m, n_coarse)
    return SupNormResult(value=v, argmax_x=ax, t=t, search_window=(Z, n_coarse))
