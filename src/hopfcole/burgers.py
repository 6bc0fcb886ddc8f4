"""The viscous Burgers field f(x, t) through the Hopf-Cole quotient.

f(x,t) = int f0(y) e^{H(y)} dy / int e^{H(y)} dy with
H(y) = -(x-y)^2/(4t) - (1/2) int_0^y f0.  Its derivatives come from the
cumulants of y under the measure e^H dy / int e^H, with no derivative of f0
(derivative_fields_scorer).  They satisfy the PDE identically, so the
residual d_t f - d_x^2 f + f d_x f checks rounding only.

Every value comes from the one quadrature path, quadrature.BatchKernel.
An array of x at one t is one batch (eval_batch): its points share the
critical points of G_t(y) = y + t f0(y) and are integrated together, and a
single point (eval, derivative_fields) is a batch of one.  A sup-norm
sweep (sup_norm on an array of t) scans the windows of all its t in
lockstep (scan_max), each step one batch of the (t, x) pairs of every
window: the coarse grids are one batch.  A picked grid point that is a
grid peak has its bracket refined; picks on the shoulder of a peak get
sub-grids, all scored in one batch, and only a sub-grid peak above its
bracket ends is refined.  The refinements run in lockstep, each step one
batch of the next x of every live bracket of every window.  The batches
of one sweep share one kernel setup (the compiled weights, the tables of
the pieces of each G_t and the origin scale), held by the sweep's scorer
(_eval_scorer, derivative_fields_scorer, on a number t or an array);
eval_batch and each single point are one call of a fresh scorer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import InitialData
from .quadrature import BatchKernel, CenteredWeight, MomentWeight

_F0 = MomentWeight.f0()
_MOMENTS = [CenteredWeight(1), CenteredWeight(2), CenteredWeight(3)]
# (n, k) of d_t^n d_x^k -> its key in derivative_fields
FIELD_OF_ORDER = {(0, 0): "f", (0, 1): "f_x", (1, 0): "f_t", (0, 2): "f_xx"}


def eval(data: InitialData, x: float, t: float, rel_tol: float = 1e-9) -> float:
    """Solution value f(x, t); t = 0 returns f0(x) directly."""
    return float(_eval_scorer(data, t, rel_tol)(np.asarray([x], dtype=float))[0])


def derivative_fields(data: InitialData, x: float, t: float,
                      rel_tol: float = 1e-10) -> dict:
    """f, f_x, f_t, f_xx at one point, from the cumulants of y under the
    Hopf-Cole measure (derivative_fields_scorer, a batch of one)."""
    fields = derivative_fields_scorer(data, t, rel_tol)(np.asarray([x], dtype=float))
    return {name: float(v[0]) for name, v in fields.items()}


def pde_residual(data: InitialData, x: float, t: float,
                 rel_tol: float = 1e-10) -> float:
    """d_t f - d_x^2 f + f d_x f of derivative_fields.

    The cumulant forms of the fields satisfy the equation identically, for
    any measure of the Hopf-Cole form, so this is zero up to rounding: it
    checks the arithmetic, not the integrals.  Differences of eval_batch in
    x and t check the fields themselves."""
    fields = derivative_fields(data, x, t, rel_tol)
    return fields["f_t"] - fields["f_xx"] + fields["f"] * fields["f_x"]


# ---------------------------------------------------------------------------
# batch evaluation


def eval_batch(data: InitialData, xs, t: float, rel_tol: float = 1e-9):
    """f(x, t) for a 1-d array of x at one t, a number (f0 itself at t = 0;
    only a sweep's scorer, _eval_scorer, takes an array of t, all > 0).

    The points share one table of the monotone pieces of
    G_t(y) = y + t f0(y), whose inverses are the critical points of every
    phase, and are refined together (quadrature.BatchKernel)."""
    return _eval_scorer(data, t, rel_tol)(xs)


def _scorer(kernel, t, rel_tol, take):
    """The scores of a kernel: at one t a function of xs,
    take(quotients, xs, t); at a sweep of t (a 1-d array, kernel's sweep) a
    function of a list of one x array per t, the list of
    take(quotients at t, x array, t).  All calls run on the one kernel
    setup."""
    if np.ndim(t):
        ts = np.asarray(t, dtype=float).tolist()
        return lambda xs: [take(r, np.ravel(x), s) for r, x, s in zip(kernel(xs, rel_tol), xs, ts)]
    return lambda xs: take(kernel(xs, rel_tol), np.ravel(xs), t)


def _eval_scorer(data, t, rel_tol):
    """eval_batch at t, a number or a sweep (_scorer), on one kernel setup
    (quadrature.BatchKernel) for all its calls; f0 itself at t = 0."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    if np.ndim(t) and not np.all(np.asarray(t) > 0):
        raise ValueError("every t of a sweep must be positive; t = 0 is served only as a number")
    if np.ndim(t) == 0 and t == 0:
        return lambda xs: data.value(np.asarray(xs, dtype=float))
    return _scorer(BatchKernel([_F0], data, t), t, rel_tol, lambda r, _x, _t: r[0])


def derivative_fields_scorer(data: InitialData, t, rel_tol: float = 1e-10):
    """derivative_fields for a 1-d array of x at one t > 0 as a function of
    xs, or at a sweep of t > 0 (a 1-d array) as a function of a list of one
    x array per t that returns one dict of fields per t (_scorer).

    x enters the measure e^H dy / int e^H only through the tilt
    e^(xy/(2t)), so d/dx of its n-th cumulant kappa_n is
    kappa_(n+1) / (2t); and d/dt of its log density is (x - y)^2/(4t^2).
    Hence, with no derivative of f0,
        f = (x - kappa_1)/t,        f_x = 1/t - kappa_2/(2t^2),
        f_xx = -kappa_3/(4t^3),     f_t = -f/t - (kappa_3 - 2t f kappa_2)/(4t^3),
    and f_t = f_xx - f f_x.  The cumulants come from the moments m_j of
    y - c about each point's center c, the anchor of its integrals
    (quadrature.CenteredWeight), where they do not cancel as raw moments
    would: kappa_1 = c + m_1, kappa_2 = m_2 - m_1^2 and
    kappa_3 = m_3 - 3 m_1 m_2 + 2 m_1^3.  The four weights 1 and
    (y - c)^j, j = 1, 2, 3, run on one kernel setup
    (quadrature.BatchKernel) for all its calls."""
    return _scorer(BatchKernel(_MOMENTS, data, t), t, rel_tol, _cumulant_fields)


def _cumulant_fields(r, x, t):
    """The fields of derivative_fields_scorer at the points x at t, from the
    kernel's moments m_1, m_2, m_3 and centers c (the rows of r)."""
    m1, m2, m3, c = r
    k2 = m2 - m1 * m1
    k3 = m3 - m1 * (3.0 * m2 - 2.0 * m1 * m1)
    f = ((x - c) - m1) / t
    f_x = 1.0 / t - k2 / (2.0 * t * t)
    f_xx = -k3 / (4.0 * t ** 3)
    return {"f": f, "f_x": f_x, "f_t": f_xx - f * f_x, "f_xx": f_xx}


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


def scan_max(fn, lo, hi, n_coarse: int):
    """Max of fn on each window [lo, hi]: a coarse grid, then bounded Brent
    refinement where the 3 best separated grid points show a peak.

    lo and hi are numbers (one window; returns (value, x)) or 1-d arrays
    (one window each; returns one (value, x) per window).  The windows are
    scanned in lockstep: fn maps a list of one x array per window, empty
    where a window has nothing to score at that step, to a list of score
    arrays, and each step is one call.  The scores of sup_norm,
    heat_sup_norm and the ddecay scans are batches on one kernel setup per
    sweep (quadrature.BatchKernel), and a window's scores depend on its own
    x alone, so each window returns what its one-window scan returns.

    The grids are one call.  A picked point that is >= both its grid
    neighbours (a peak or a plateau) refines its bracket, the cells on
    either side of it.  Any other pick is a shoulder: a neighbour outscores
    it, and refining its bracket would crawl to that neighbour.  Every
    shoulder bracket is cut into 8 equal cells and their 7 interior points
    are scored, all shoulders in one call; a bracket is refined, on the two
    cells around its sub-grid maximum, only if that maximum beats both
    bracket ends.  Each refinement runs _bounded_brent on -fn with
    xatol = 1e-6 (b - a) + 1e-12 of its grid bracket [a, b], and the
    refinements of all windows run in lockstep: each step is one call on
    the next x of every live one.  Each window's (value, x) is its best
    point scored, with the values fn gave."""
    one = np.ndim(lo) == 0 and np.ndim(hi) == 0
    windows = list(zip(np.atleast_1d(np.asarray(lo, dtype=float)).tolist(),
                       np.atleast_1d(np.asarray(hi, dtype=float)).tolist()))
    grids = [np.linspace(a, b, n_coarse) for a, b in windows]
    best, runs, shoulders = [], [], []
    for grid, vals in zip(grids, fn(grids)):
        vals = np.asarray(vals, dtype=float)
        order = np.argsort(vals)[::-1]
        picked = []
        for i in order:
            if all(abs(i - j) > 1 for j in picked):
                picked.append(int(i))
            if len(picked) == 3:
                break
        top = int(np.argmax(vals))
        best.append([float(vals[top]), float(grid[top])])
        runs.append([])
        shoulders.append([])
        for i in picked:
            ia, ib = max(i - 1, 0), min(i + 1, n_coarse - 1)
            a, b = grid[ia], grid[ib]
            if b <= a:
                continue
            xatol = 1e-6 * (b - a) + 1e-12
            if vals[i] >= vals[ia] and vals[i] >= vals[ib]:
                runs[-1].append(_bounded_brent(a, b, xatol))
            else:
                shoulders[-1].append((np.linspace(a, b, 9), max(vals[ia], vals[ib]), xatol))
    if any(shoulders):
        subs = [np.concatenate([pts[1:-1] for pts, _edge, _xatol in sh]) if sh else np.empty(0)
                for sh in shoulders]
        for w, (sh, scores) in enumerate(zip(shoulders, fn(subs))):
            for (pts, edge, xatol), row in zip(sh, np.asarray(scores, dtype=float).reshape(-1, 7)):
                k = int(np.argmax(row))
                if row[k] > best[w][0]:
                    best[w] = [float(row[k]), float(pts[k + 1])]
                if row[k] > edge:
                    runs[w].append(_bounded_brent(pts[k], pts[k + 2], xatol))
    results = [[None] * len(rw) for rw in runs]
    pending = [{j: next(run) for j, run in enumerate(rw)} for rw in runs]  # bracket -> next x
    while any(pending):
        scores = fn([np.asarray(list(p.values()), dtype=float) for p in pending])
        for rw, res, p, vals in zip(runs, results, pending, scores):
            for j, v in zip(list(p), np.asarray(vals, dtype=float)):
                try:
                    p[j] = rw[j].send(-v)
                except StopIteration as stop:
                    res[j] = stop.value
                    del p[j]
    for b, res in zip(best, results):
        for x, fx in res:
            if -fx > b[0]:
                b[:] = float(-fx), float(x)
    out = [tuple(b) for b in best]
    return out[0] if one else out


def _sup_scans(score, t, m, Z, n_coarse):
    """The sup-norm scans of |score| on |x| <= Z m at every t, in lockstep
    (scan_max): score is a scorer at t, a number (one SupNormResult) or a
    1-d array (a list, one per t), and m the space scale of each t."""
    def fn(xs):
        return [np.abs(v) for v in score(xs)] if np.ndim(t) else [np.abs(score(xs[0]))]

    found = scan_max(fn, [-Z * s for s in m], [Z * s for s in m], n_coarse)
    out = [SupNormResult(value=v, argmax_x=ax, t=s, search_window=(Z, n_coarse))
           for (v, ax), s in zip(found, np.atleast_1d(t).tolist())]
    return out if np.ndim(t) else out[0]


def sup_norm(data: InitialData, t, Z: float = 10.0, n_coarse: int = 129,
             rel_tol: float = 1e-9):
    """sup over |x| <= Z * scale(t) of |f(x, t)|, for t a number (a
    SupNormResult) or a 1-d array of t > 0 (one SupNormResult per t); at
    the number t = 0 it is |f0(0)|, and a sweep with t = 0 raises.

    scale(t) is t^{1/(1+alpha)} for the power-tail families (the maximum
    lives at x of that order) and sqrt(t) otherwise.  The scans of all t
    run in lockstep on one kernel setup for the sweep (_sup_scans), each
    call one eval_batch of every t's points."""
    if n_coarse < 64:
        raise ValueError("n_coarse must be at least 64")
    if Z <= 0:
        raise ValueError("Z must be positive")
    score = _eval_scorer(data, t, rel_tol)
    alpha = data.alpha
    m = [s ** (1.0 / (1.0 + alpha)) if alpha is not None else math.sqrt(s)
         for s in np.atleast_1d(np.asarray(t, dtype=float)).tolist()]
    return _sup_scans(score, t, m, Z, n_coarse)
