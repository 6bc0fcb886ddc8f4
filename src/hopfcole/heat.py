"""Heat-equation counterpart: Gaussian convolution of the same initial data.

f(x,t) = (4 pi t)^{-1/2} int f0(y) exp(-(x-y)^2/4t) dy.  Every value comes
from the one quadrature path of the Burgers evaluator (quadrature.BatchKernel
under the pure Gaussian phase of Zero data); a single point is a batch of
one.  The module also provides the continuous long-time profile
(kappa/sqrt(4 pi)) int |y|^-alpha exp(-(z-y)^2/4) dy for comparison with
the discontinuous Burgers profile.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma

from .initial_data import FamilySpec, InitialData, make_family, UnsupportedOrderError
from .quadrature import BatchKernel, HermiteWeight, NotConvergedError, adaptive_quadrature
from .burgers import SupNormResult, scan_max

_ZERO = make_family(FamilySpec("Zero"))


def heat_eval(data: InitialData, x: float, t: float, rel_tol: float = 1e-9) -> float:
    """Heat solution at (x, t); t = 0 returns f0(x)."""
    return float(_heat_eval_scorer(data, t, rel_tol)(np.asarray([x], dtype=float))[0])


def heat_eval_batch(data: InitialData, xs, t: float, rel_tol: float = 1e-9):
    """Heat solution for a 1-d array of x at one t, on the batch kernel of
    burgers.eval_batch with the pure Gaussian phase."""
    return _heat_eval_scorer(data, t, rel_tol)(xs)


def _heat_eval_scorer(data, t, rel_tol):
    """heat_eval_batch at one t as a function of xs, on one kernel setup
    (quadrature.BatchKernel) for all its calls."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return lambda xs: data.value(np.asarray(xs, dtype=float))
    kernel = BatchKernel([data.value], _ZERO, t)

    return lambda xs: kernel(xs, rel_tol)[0]


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


def heat_derivative_batch(data: InitialData, xs, t: float, n: int, k: int,
                          rel_tol: float = 1e-9):
    """heat_derivative for a 1-d array of x at one t > 0, on the batch
    kernel (quadrature.BatchKernel, whose weights take each node's x)."""
    return heat_derivative_scorer(data, t, n, k, rel_tol)(xs)


def heat_derivative_scorer(data: InitialData, t: float, n: int, k: int,
                           rel_tol: float = 1e-9):
    """heat_derivative_batch at one t > 0 as a function of xs, on one kernel
    setup (quadrature.BatchKernel) for all its calls; order 0 is the heat
    solution itself (H_0 = 1), f0 at t = 0."""
    m = _hermite_order(n, k)
    if m == 0:
        return _heat_eval_scorer(data, t, rel_tol)
    kernel = BatchKernel([HermiteWeight(m, data.value)], _ZERO, t)
    scale = (-1.0 / (2.0 * math.sqrt(t))) ** m

    return lambda xs: scale * kernel(xs, rel_tol)[0]


def heat_limit_profile(z: float, kappa: float, alpha: float,
                       rel_tol: float = 1e-9) -> float:
    """(kappa / sqrt(4 pi)) int |y|^-alpha exp(-(z-y)^2/4) dy.

    The integrable singularity at y = 0 is flattened exactly by the
    substitution u = |y|^{1-alpha} on the panels touching 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    z = float(z)
    reach = abs(z) + 14.0
    q = 1.0 / (1.0 - alpha)

    def outer(y):
        return np.abs(y) ** (-alpha) * np.exp(-((z - y) ** 2) / 4.0)

    def sing_pos(u):
        y = u ** q
        return np.exp(-((z - y) ** 2) / 4.0) * q

    def sing_neg(u):
        y = -(u ** q)
        return np.exp(-((z - y) ** 2) / 4.0) * q

    def edges_between(a, b):
        pts = {a, b}
        if a < z < b:
            pts.update([max(a, z - 2.0), min(b, z + 2.0), z])
        return sorted(pts)

    where = f"heat limit profile at z={z:.6g}, alpha={alpha:.6g}"
    total = 0.0
    for piece, fn, edges in (
        ("singular piece 0 < y < 1", sing_pos, np.linspace(0.0, 1.0, 5)),
        ("singular piece -1 < y < 0", sing_neg, np.linspace(0.0, 1.0, 5)),
        (f"outer piece 1 < y < {reach:.6g}", outer, edges_between(1.0, reach)),
        (f"outer piece {-reach:.6g} < y < -1", outer, edges_between(-reach, -1.0)),
    ):
        v, e, ok = adaptive_quadrature(fn, np.asarray(edges, dtype=float), rel_tol)
        if not ok:
            raise NotConvergedError(
                f"{where}: {piece} did not converge: error {e:.3g} at "
                f"value {v:.6g}, rel_tol {rel_tol:.3g}")
        total += v
    # beyond the truncation |y|^-alpha <= reach^-alpha, leaving a pure
    # Gaussian tail; it is far below the tolerance and only checked here
    tail = reach ** (-alpha) * math.sqrt(math.pi) * math.erfc((reach - abs(z)) / 2.0)
    if tail > rel_tol * max(total, 1e-300) + 1e-300:
        raise NotConvergedError(
            f"{where}: Gaussian tail beyond |y| = {reach:.6g} is {tail:.3g}, above "
            f"rel_tol {rel_tol:.3g} times the integral {total:.6g}")
    return kappa / math.sqrt(4.0 * math.pi) * total


def heat_profile_center_exact(kappa: float, alpha: float) -> float:
    """Closed form of the profile at z = 0 via the Gamma function."""
    return kappa * 2.0 ** (-alpha) * gamma((1.0 - alpha) / 2.0) / math.sqrt(math.pi)


def heat_sup_norm(data: InitialData, t: float, Z: float = 10.0,
                  n_coarse: int = 129, rel_tol: float = 1e-9) -> SupNormResult:
    """sup over |x| <= Z sqrt(t) of |heat solution|; every call of the scan
    (burgers.scan_max) is a heat_eval_batch on one kernel setup."""
    if n_coarse < 64:
        raise ValueError("n_coarse must be at least 64")
    score = _heat_eval_scorer(data, t, rel_tol)
    m = math.sqrt(t)
    v, ax = scan_max(lambda xs: np.abs(score(xs)), -Z * m, Z * m, n_coarse)
    return SupNormResult(value=v, argmax_x=ax, t=t, search_window=(Z, n_coarse))
