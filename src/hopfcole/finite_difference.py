"""Independent finite-difference integrator for d_t f = d_x^2 f - f d_x f.

Cross-validates the Hopf-Cole evaluator at moderate times on a truncated
domain with Dirichlet values pinned to f0(+-L).  Diffusion is second-order
central (explicit, or Crank-Nicolson by one LAPACK tridiagonal solve a
step: dpttrs on the LDL^T factor dpttrf computes once); the quadratic
flux f^2/2 is advanced with the first-order Godunov upwind flux (LeVeque,
Finite Volume Methods for Hyperbolic Problems, 2002), which handles
either sign of f unconditionally.  A step allocates nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .initial_data import InitialData
from . import burgers

SCHEME_EXPLICIT_UPWIND = "explicit_upwind"
SCHEME_CRANK_NICOLSON = "crank_nicolson_advection_explicit"
SCHEMES = (SCHEME_EXPLICIT_UPWIND, SCHEME_CRANK_NICOLSON)


@dataclass
class GridField:
    L: float
    n: int
    t: float
    values: np.ndarray
    scheme: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n - 1)


def _godunov_flux(fl, fr, up=None, down=None, out=None):
    """Exact Riemann flux of u^2/2 between left/right states, in LeVeque's
    closed form for a convex flux, max(f(max(fl, 0)), f(min(fr, 0))): 0 at
    a sonic rarefaction, else 0.5 (u u) of the state a Riemann case picks.
    up, down and out, if given, are its work arrays and its result."""
    up, down = np.maximum(fl, 0.0, out=up), np.minimum(fr, 0.0, out=down)
    out = np.maximum(np.multiply(up, up, out=up), np.multiply(down, down, out=down), out=out)
    return np.multiply(out, 0.5, out=out)


def integrate(data: InitialData, L: float, n: int, t_end: float,
              scheme: str = SCHEME_EXPLICIT_UPWIND, advection: bool = True,
              dt: float | None = None) -> GridField:
    """March the field to t_end on a uniform n-node grid over [-L, L].

    Requires t_end <= 0.01 L^2 so the pinned boundaries stay uninfluential
    (heat-kernel mass beyond L/2 is negligible).  The time step obeys the
    diffusive limit 0.4 dx^2 (explicit scheme) and the advective limit
    0.5 dx / max|f|; a manual dt violating either is rejected.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if n < 3:
        raise ValueError("need at least 3 nodes")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if t_end > 0.01 * L * L:
        raise ValueError(
            f"t_end = {t_end} exceeds the boundary-influence budget 0.01 L^2 = {0.01 * L * L}"
        )
    x = np.linspace(-L, L, n)
    dx = x[1] - x[0]
    f = np.asarray(data.value(x), dtype=float).copy()
    fmax = float(np.max(np.abs(f))) + 1e-30

    dt_adv = 0.5 * dx / fmax if advection else math.inf
    if scheme == SCHEME_EXPLICIT_UPWIND:
        dt_auto = min(0.4 * dx * dx, dt_adv)
    else:
        # implicit diffusion: only the advective limit binds; running at it
        # also minimizes the upwind viscosity (dx |f|/2)(1 - dt |f|/dx)
        dt_auto = dt_adv if advection else 0.4 * dx
    if dt is not None:
        if dt > dt_auto * (1.0 + 1e-12):
            raise ValueError(f"dt = {dt} violates the stability limit {dt_auto}")
        dt_auto = dt
    if t_end == 0:
        return GridField(L=L, n=n, t=0.0, values=f, scheme=scheme)

    n_steps = max(1, int(math.ceil(t_end / dt_auto)))
    step = t_end / n_steps

    left, right = f[0], f[-1]
    mass0 = dx * float(np.sum(f[1:-1]))
    boundary_flux = 0.0

    # the step's arrays; Crank-Nicolson builds its right-hand side in f's
    # interior, which dpttrs overwrites with the solution
    up, down, flux = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1)
    div, lap, inner = np.zeros(n - 2), np.empty(n - 2), f[1:-1]
    if scheme == SCHEME_CRANK_NICOLSON:
        r = step / (dx * dx)
        # (I - r/2 L) with Dirichlet rows removed: SPD tridiagonal LDL^T
        d, e, info = dpttrf(np.full(n - 2, 1.0 + r), np.full(n - 3, -0.5 * r))
        if info:
            raise ValueError(f"dpttrf failed with info = {info}")

    for _ in range(n_steps):
        if advection:
            flux = _godunov_flux(f[:-1], f[1:], up, down, flux)
            np.subtract(flux[1:], flux[:-1], out=div)
            div /= dx
            boundary_flux += step * (flux[0] - flux[-1])
        np.add(np.subtract(f[2:], np.multiply(inner, 2.0, out=lap), out=lap), f[:-2], out=lap)
        lap /= dx * dx
        edge = (f[1] - f[0]) - (f[-1] - f[-2])

        if scheme == SCHEME_EXPLICIT_UPWIND:
            boundary_flux -= step * edge / dx
            inner += np.multiply(np.subtract(lap, div, out=lap), step, out=lap)
        else:
            inner += np.multiply(lap, 0.5 * step, out=lap)
            inner -= np.multiply(div, step, out=div)
            inner[0] += 0.5 * r * left
            inner[-1] += 0.5 * r * right
            _, info = dpttrs(d, e, inner, overwrite_b=1)
            if info:
                raise ValueError(f"illegal value in argument {-info} of dpttrs")
            # diffusion is the mean of the old and new levels, so is its flux
            boundary_flux -= 0.5 * step * (edge + (f[1] - f[0]) - (f[-1] - f[-2])) / dx
    if not np.all(np.isfinite(f)):
        raise ValueError(f"field not finite at t_end = {t_end} (step {step:.6g})")

    mass1 = dx * float(np.sum(f[1:-1]))
    return GridField(
        L=L, n=n, t=t_end, values=f, scheme=scheme,
        diagnostics={
            "mass_initial": mass0,
            "mass_final": mass1,
            "mass_drift": mass1 - mass0,
            "boundary_flux_accum": boundary_flux,
            "n_steps": n_steps,
            "dt": step,
        },
    )


def compare_to_hopf_cole(data: InitialData, t: float, L: float, n: int,
                         scheme: str = SCHEME_CRANK_NICOLSON,
                         rel_tol: float = 1e-9) -> float:
    """Max over interior nodes (|x| <= L/2) of |grid value - Hopf-Cole value|."""
    fld = integrate(data, L, n, t, scheme=scheme)
    x = fld.x
    mask = np.abs(x) <= 0.5 * L
    exact = burgers.eval_batch(data, x[mask], t, rel_tol)
    return float(np.max(np.abs(fld.values[mask] - exact)))


def compare_halved_dx(data: InitialData, t: float, L: float, n: int,
                      scheme: str = SCHEME_CRANK_NICOLSON) -> tuple[float, float]:
    """compare_to_hopf_cole on n and 2n - 1 nodes, with one Hopf-Cole reference.

    The (2n - 1)-node grid halves the step 2L/(n - 1) exactly, so every node
    of the n-node grid is a node of the fine one, bit for bit; and a point's
    Hopf-Cole value does not depend on its batch, so the reference on the
    fine interior serves both grids.  Returns the (coarse, fine)
    discrepancies, each equal to compare_to_hopf_cole's at its default rel_tol.
    """
    coarse = integrate(data, L, n, t, scheme=scheme)
    fine = integrate(data, L, 2 * n - 1, t, scheme=scheme)
    mask = np.abs(fine.x) <= 0.5 * L
    exact = np.full(fine.n, np.nan)
    exact[mask] = burgers.eval_batch(data, fine.x[mask], t)
    cmask = mask[::2]  # coarse.x == fine.x[::2]
    return (float(np.max(np.abs(coarse.values[cmask] - exact[::2][cmask]))),
            float(np.max(np.abs(fine.values[mask] - exact[mask]))))
