"""The viscous Burgers field f(x, t) through the Hopf-Cole quotient.

f(x,t) = int f0(y) e^{H(y)} dy / int e^{H(y)} dy with
H(y) = -(x-y)^2/(4t) - (1/2) int_0^y f0.  Space and time derivatives are
exact quotient-rule expansions over the weight algebra, so the PDE residual
d_t f - d_x^2 f + f d_x f is a strong end-to-end self test.

An array of x at one t is one batch (eval_batch): its points share the
critical points of G_t(y) = y + t f0(y) and are integrated together, and
each point the batch cannot vouch for is evaluated by eval.  The coarse grid
of a sup-norm scan is one batch; its refinement runs on eval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.optimize import minimize_scalar

from .initial_data import InitialData, UnsupportedOrderError
from .quadrature import (
    MomentWeight,
    PhysicalPhase,
    derive_x,
    derive_t,
    ratio_moments,
    ratio_moments_batch,
)

_U = MomentWeight.unit()
_F0 = MomentWeight.f0()
_DX_F0 = derive_x(_F0)
_DT_F0 = derive_t(_F0)
_DX_U = derive_x(_U)
_DT_U = derive_t(_U)
_DX2_F0 = derive_x(_DX_F0)
_DX2_U = derive_x(_DX_U)


def eval(data: InitialData, x: float, t: float, rel_tol: float = 1e-9) -> float:
    """Solution value f(x, t); t = 0 returns f0(x) directly."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return float(data.value(x))
    return ratio_moments([_F0], PhysicalPhase(data, float(x), float(t)), rel_tol)[0]


def derivative_fields(data: InitialData, x: float, t: float,
                      rel_tol: float = 1e-10) -> dict:
    """f, f_x, f_t, f_xx at one point from a single shared quadrature.

    Uses d(A_g/A_1) = (A_{Dg} - (A_g/A_1) A_{D1}) / A_1 recursively with the
    x/t derivation maps of the weight algebra."""
    phase = PhysicalPhase(data, float(x), float(t))
    r = ratio_moments(
        [_F0, _DX_F0, _DT_F0, _DX_U, _DT_U, _DX2_F0, _DX2_U], phase, rel_tol
    )
    f = r[0]
    fx = r[1] - f * r[3]
    ft = r[2] - f * r[4]
    fxx = r[5] - r[1] * r[3] - fx * r[3] - f * (r[6] - r[3] ** 2)
    return {"f": f, "f_x": fx, "f_t": ft, "f_xx": fxx}


def _richardson_1(fn, v, h):
    def d(hh):
        return (fn(v + hh) - fn(v - hh)) / (2.0 * hh)

    return (4.0 * d(0.5 * h) - d(h)) / 3.0


def _richardson_2(fn, v, h):
    f0 = fn(v)

    def s(hh):
        return (fn(v + hh) - 2.0 * f0 + fn(v - hh)) / (hh * hh)

    return (4.0 * s(0.5 * h) - s(h)) / 3.0


def eval_derivative(data: InitialData, x: float, t: float, n: int, k: int,
                    rel_tol: float = 1e-10) -> float:
    """d_t^n d_x^k f(x, t).

    Orders 2n + k <= 2 are exact (weight algebra); 2n + k in {3, 4} fall
    back to Richardson finite differences of the exact lower fields."""
    if n < 0 or k < 0:
        raise ValueError("orders must be nonnegative")
    order = 2 * n + k
    if order > 4:
        raise UnsupportedOrderError(f"2n + k = {order} > 4 not supported")
    if order <= 2:
        fields = derivative_fields(data, x, t, rel_tol)
        return fields[{(0, 0): "f", (0, 1): "f_x", (1, 0): "f_t", (0, 2): "f_xx"}[(n, k)]]
    hx = 0.05 * max(1.0, math.sqrt(t))
    ht = 0.02 * t
    if (n, k) == (0, 3):
        return _richardson_1(lambda v: derivative_fields(data, v, t, rel_tol)["f_xx"], x, hx)
    if (n, k) == (0, 4):
        return _richardson_2(lambda v: derivative_fields(data, v, t, rel_tol)["f_xx"], x, hx)
    if (n, k) == (1, 1):
        return _richardson_1(lambda v: derivative_fields(data, x, v, rel_tol)["f_x"], t, ht)
    if (n, k) == (1, 2):
        return _richardson_1(lambda v: derivative_fields(data, x, v, rel_tol)["f_xx"], t, ht)
    if (n, k) == (2, 0):
        return _richardson_1(lambda v: derivative_fields(data, x, v, rel_tol)["f_t"], t, ht)
    raise UnsupportedOrderError(f"(n, k) = ({n}, {k}) not supported")


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
    phase, and are refined together (quadrature.ratio_moments_batch); each
    point that misses one of the kernel's checks is evaluated by eval."""
    xs = np.asarray(xs, dtype=float)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return data.value(xs)
    vals, ok = ratio_moments_batch([_F0], data, xs, t, rel_tol)
    out = vals[0]
    out[~ok] = [eval(data, float(x), t, rel_tol) for x in xs[~ok]]
    return out


# ---------------------------------------------------------------------------
# sup norm


@dataclass(frozen=True)
class SupNormResult:
    value: float
    argmax_x: float
    t: float
    search_window: tuple  # (Z, n_coarse)


def pointwise(fn):
    """A scan_max score from a function of one float: an array of x is
    scored point by point."""
    def score(x):
        if np.ndim(x):
            return np.asarray([fn(v) for v in x], dtype=float)
        return fn(x)
    return score


def scan_max(fn, lo: float, hi: float, n_coarse: int, threads: int = 1,
             n_refine: int = 3):
    """Max of fn on [lo, hi]: coarse grid, then bounded Brent refinement
    around the best brackets.  Deterministic for any thread count.

    fn maps an array of x to an array of scores and a float to a float; see
    pointwise.  The coarse grid is one call, or one call per thread chunk.
    The best coarse point is scored again as a float, so the value returned
    always comes from the float form, as do all refinement steps."""
    grid = np.linspace(lo, hi, n_coarse)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            vals = np.concatenate(list(ex.map(fn, np.array_split(grid, threads))))
    else:
        vals = np.asarray(fn(grid), dtype=float)
    order = np.argsort(vals)[::-1]
    picked = []
    for i in order:
        if all(abs(i - j) > 1 for j in picked):
            picked.append(int(i))
        if len(picked) == n_refine:
            break
    best_x = float(grid[int(np.argmax(vals))])
    best_v = float(fn(best_x))
    for i in picked:
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, n_coarse - 1)]
        if b <= a:
            continue
        res = minimize_scalar(lambda v: -fn(v), bounds=(a, b), method="bounded",
                              options={"xatol": 1e-6 * (b - a) + 1e-12})
        if -res.fun > best_v:
            best_v = float(-res.fun)
            best_x = float(res.x)
    return best_v, best_x


def sup_norm(data: InitialData, t: float, Z: float = 10.0, n_coarse: int = 129,
             rel_tol: float = 1e-9, threads: int = 1) -> SupNormResult:
    """sup over |x| <= Z * scale(t) of |f(x, t)|.

    scale(t) is t^{1/(1+alpha)} for the power-tail families (the maximum
    lives at x of that order) and sqrt(t) otherwise.  The coarse grid of the
    scan is one eval_batch call, the refinement runs on eval."""
    if n_coarse < 64:
        raise ValueError("n_coarse must be at least 64")
    if Z <= 0:
        raise ValueError("Z must be positive")
    alpha = data.alpha
    m = t ** (1.0 / (1.0 + alpha)) if alpha is not None else math.sqrt(t)

    def score(x):
        if np.ndim(x):
            return np.abs(eval_batch(data, x, t, rel_tol))
        return abs(eval(data, x, t, rel_tol))

    v, ax = scan_max(score, -Z * m, Z * m, n_coarse, threads)
    return SupNormResult(value=v, argmax_x=ax, t=t, search_window=(Z, n_coarse))
