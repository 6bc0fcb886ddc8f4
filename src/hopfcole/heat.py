"""Heat-equation counterpart: Gaussian convolution of the same initial data.

f(x,t) = (4 pi t)^{-1/2} int f0(y) exp(-(x-y)^2/4t) dy.  Every value comes
from the one quadrature path of the Burgers evaluator (quadrature.BatchKernel
under the pure Gaussian phase of Zero data); a single point is a batch of
one, and the scans of a sweep of t run in lockstep on one kernel setup
(heat_sup_norm on an array of t, heat_derivative_scorer).  The module
also provides the continuous long-time profile
(kappa/sqrt(4 pi)) int |y|^-alpha exp(-(z-y)^2/4) dy for comparison with
the discontinuous Burgers profile, in closed form through Kummer's
function.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, hyp1f1

from .initial_data import FamilySpec, InitialData, make_family, UnsupportedOrderError
from .quadrature import BatchKernel, HermiteWeight
from .burgers import _scorer, _sup_scans

_ZERO = make_family(FamilySpec("Zero"))


def heat_eval(data: InitialData, x: float, t: float, rel_tol: float = 1e-9) -> float:
    """Heat solution at (x, t); t = 0 returns f0(x)."""
    return float(_heat_eval_scorer(data, t, rel_tol)(np.asarray([x], dtype=float))[0])


def heat_eval_batch(data: InitialData, xs, t: float, rel_tol: float = 1e-9):
    """Heat solution for a 1-d array of x at one t, on the batch kernel of
    burgers.eval_batch with the pure Gaussian phase."""
    return _heat_eval_scorer(data, t, rel_tol)(xs)


def _heat_eval_scorer(data, t, rel_tol):
    """heat_eval_batch at t, a number or a sweep (burgers._scorer), on one
    kernel setup (quadrature.BatchKernel) for all its calls; f0 itself at
    t = 0."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    if np.ndim(t) and not np.all(np.asarray(t) > 0):
        raise ValueError("every t of a sweep must be positive; t = 0 is served only as a number")
    if np.ndim(t) == 0 and t == 0:
        return lambda xs: data.value(np.asarray(xs, dtype=float))
    return _scorer(BatchKernel([data.value], _ZERO, t), t, rel_tol, lambda r, _x, _t: r[0])


def _hermite_order(n, k):
    """The degree 2n + k of the Hermite factor of d_t^n d_x^k, n + k <= 3:
    every t derivative is two x derivatives of the kernel."""
    if n < 0 or k < 0:
        raise ValueError("orders must be nonnegative")
    if n + k > 3:
        raise UnsupportedOrderError(f"n + k = {n + k} > 3 not supported")
    return 2 * n + k


def heat_derivative(data: InitialData, x: float, t: float, n: int, k: int,
                    rel_tol: float = 1e-9) -> float:
    """d_t^n d_x^k of the heat solution, n + k <= 3: (-2 sqrt t)^-m times
    the quotient of the weight H_m(s) f0(y) (quadrature.HermiteWeight), with
    m = 2n + k and s = (x - y) / (2 sqrt t)."""
    return float(heat_derivative_scorer(data, t, n, k, rel_tol)(np.asarray([x], dtype=float))[0])


def heat_derivative_scorer(data: InitialData, t, n: int, k: int,
                           rel_tol: float = 1e-9):
    """heat_derivative for a 1-d array of x at one t > 0 as a function of
    xs, or at a sweep of t > 0 (a 1-d array) as a function of a list of one
    x array per t (burgers._scorer), on one kernel setup
    (quadrature.BatchKernel, whose weights take each node's x and t) for
    all its calls; order 0 is the heat solution itself (H_0 = 1), f0 at
    t = 0."""
    m = _hermite_order(n, k)
    if m == 0:
        return _heat_eval_scorer(data, t, rel_tol)
    return _scorer(BatchKernel([HermiteWeight(m, data.value)], _ZERO, t), t, rel_tol,
                   lambda r, _x, s: (-1.0 / (2.0 * math.sqrt(s))) ** m * r[0])


def heat_limit_profile(z: float, kappa: float, alpha: float) -> float:
    """(kappa / sqrt(4 pi)) int |y|^-alpha exp(-(z-y)^2/4) dy in closed form:
    the profile at z = 0 times Kummer's 1F1(alpha/2; 1/2; -z^2/4) (DLMF
    13.2), which decays like |z|^-alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    w = -z * z / 4
    # scipy's hyp1f1 returns inf or nan at |w| < 1e-170 for alpha < 0.1;
    # below |w| = 1e-9 the series 1 + alpha w + O(w^2) is exact in doubles
    kummer = 1.0 + alpha * w if w > -1e-9 else hyp1f1(alpha / 2, 0.5, w)
    return float(heat_profile_center_exact(kappa, alpha) * kummer)


def heat_profile_center_exact(kappa: float, alpha: float) -> float:
    """Closed form of the profile at z = 0 via the Gamma function."""
    return kappa * 2.0 ** (-alpha) * gamma((1.0 - alpha) / 2.0) / math.sqrt(math.pi)


def heat_sup_norm(data: InitialData, t, Z: float = 10.0,
                  n_coarse: int = 129, rel_tol: float = 1e-9):
    """sup over |x| <= Z sqrt(t) of |heat solution|, for t a number (a
    burgers.SupNormResult; |f0(0)| at t = 0) or a 1-d array of t > 0 (one
    per t; a sweep with t = 0 raises); the scans of all t run in lockstep
    (burgers._sup_scans), every call a heat_eval_batch of every t's points
    on one kernel setup."""
    if n_coarse < 64:
        raise ValueError("n_coarse must be at least 64")
    score = _heat_eval_scorer(data, t, rel_tol)
    m = [math.sqrt(s) for s in np.atleast_1d(np.asarray(t, dtype=float)).tolist()]
    return _sup_scans(score, t, m, Z, n_coarse)
