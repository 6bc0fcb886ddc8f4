"""Finite-time analysis of the rescaled Hopf-Cole phase.

Everything here works on the reduced phase

    Ht(y, z) = -(z-y)^2/4 - (t / (2 m^2)) int_0^{m y} f0,

whose stationary points solve z = g_t(y) with the finite-time critical
curve g_t(y) = y + (t/m) f0(m y).  As t grows, g_t converges to the limit
curve of the profiles module away from y = 0, the three monotone branches
converge to their limit branches, and the z at which the global maximum
switches branch converges to the profile discontinuity.

The reduced phase is the physical one in other units: at x = m z and
y = m y~, H(m y~; m z) = (m^2 / t) Ht(y~, z).  So the rescaled critical
points are the physical ones in units of m (rescaled_critical_points):
quadrature.critical_points at x = m z, and an array of z of one t is
answered by one query of the piece table of (data, t), which every z of
that t shares.  g_t is G_t(y) = y + t f0(y) in those units, so its
monotone pieces are the table's, and the finite-time branches are the
pieces the points lie on (finite_branches), for one z or an array of z.
The property report (check_properties) makes one such call per z grid.  On
Asymmetric data right of the cusp the first piece holds the left maximum
near y = 0, whose limit value -z^2/4 the limit tie uses, so the
finite-time tie (phase_tie_point) converges to the jump for every case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .initial_data import InitialData, negate_reflect
from .quadrature import (KIND_MIN, PhysicalPhase, _table, critical_points, integrate_moments,
                         locate_critical_points)
from . import profiles
from .profiles import (
    BRANCH_MIDDLE,
    BRANCH_MINUS,
    BRANCH_PLUS,
    BranchSolution,
    CASE_ASYMMETRIC,
    CASE_LOG_CORRECTED,
    CASE_SIGN_FLIPPED,
    CASE_SYMMETRIC,
    ProfileCase,
    invert_branch,
    log_corrected_scale,
)


class TieWindowError(RuntimeError):
    """The Newton solve of the finite-time tie (phase_tie_point) failed."""


def case_for_data(data: InitialData) -> ProfileCase | None:
    """The asymptotic class of a data family, if it has one."""
    spec = data.spec
    if spec.family in ("PowerC0", "PowerC1") and spec.sign_at_plus > 0:
        return ProfileCase(CASE_SYMMETRIC, spec.kappa, spec.alpha)
    if spec.family == "PowerLog" and spec.sign_at_plus > 0:
        return ProfileCase(CASE_LOG_CORRECTED, spec.kappa, spec.alpha, spec.beta)
    if spec.family == "SignFlipped" and spec.sign_at_plus < 0:
        return ProfileCase(CASE_SIGN_FLIPPED, spec.kappa, spec.alpha)
    if spec.family == "Asymmetric" and spec.sign_at_plus > 0:
        return ProfileCase(CASE_ASYMMETRIC, spec.kappa, spec.alpha, spec.beta)
    return None


def default_space_scale(data: InitialData, t: float) -> float:
    """t^{1/(1+alpha)}, or the anomalous mu(t) for the log-corrected family."""
    spec = data.spec
    if spec.family == "PowerLog":
        return log_corrected_scale(spec.alpha, spec.beta, t)
    if data.alpha is not None:
        return t ** (1.0 / (1.0 + data.alpha))
    return math.sqrt(t)


def rescaled_phase(data: InitialData, y, z, t: float, dy_order: int = 0):
    """Ht(y, z) and its first two y derivatives (exact formulas), with
    m = default_space_scale(data, t); y and z broadcast.

    dy_order 0: -(z-y)^2/4 - (t/(2 m^2)) int_0^{m y} f0
    dy_order 1: (z - y - (t/m) f0(m y)) / 2
    dy_order 2: (-1 - t f0'(m y)) / 2
    """
    m = default_space_scale(data, t)
    y = np.asarray(y, dtype=float)
    if dy_order == 0:
        out = -((z - y) ** 2) / 4.0 - (t / (2.0 * m * m)) * data.primitive(m * y)
    elif dy_order == 1:
        out = 0.5 * (z - y - (t / m) * data.value(m * y))
    elif dy_order == 2:
        out = 0.5 * (-1.0 - t * data.derivative(m * y, 1))
    else:
        raise ValueError("dy_order must be 0, 1 or 2")
    return float(out) if np.ndim(out) == 0 else out


def critical_curve_finite(data: InitialData, y, t: float):
    """g_t(y) = y + (t/m) f0(m y); its zeros of z - g_t are the stationary
    points of the rescaled phase."""
    m = default_space_scale(data, t)
    y = np.asarray(y, dtype=float)
    out = y + (t / m) * data.value(m * y)
    return float(out) if np.ndim(out) == 0 else out


def rescaled_critical_points(data: InitialData, z, t: float) -> list:
    """The stationary points of Ht(., z): the critical points of the physical
    phase at x = m z with each y divided by m and each residual, |H'|, made
    |dHt/dy| = (t/m) |H'|.  The kinds and phase values carry over: the
    total phase is the same function, and both units call a point
    degenerate at a piece end of G_t or at |1 + t f0'| <= 1e-6.

    z is a number, or a 1-d array of z for one list per z from one call of
    quadrature.critical_points; element i is the list of z[i] alone."""
    m = default_space_scale(data, t)
    out = [[replace(c, y=c.y / m, residual=c.residual * (t / m)) for c in cps]
           for cps in critical_points(data, m * np.asarray(z, dtype=float).ravel(), float(t))]
    return out if np.ndim(z) else out[0]


@dataclass
class BranchSet:
    minus: BranchSolution | None = None
    plus: BranchSolution | None = None
    middle: BranchSolution | None = None
    extras: list = field(default_factory=list)

    def get(self, branch: str):
        return {BRANCH_MINUS: self.minus, BRANCH_PLUS: self.plus,
                BRANCH_MIDDLE: self.middle}[branch]


def _near_origin_halfwidth(data: InitialData, t: float) -> float:
    alpha = data.alpha
    if alpha is None:
        return math.sqrt(1.0 / t)
    return t ** (-1.0 / (1.0 + alpha) + 0.1)


def finite_branches(data: InitialData, z, t: float):
    """The stationary points of the rescaled phase by the monotone piece of
    g_t they lie on (CriticalPoint.piece): a BranchSet, or for a 1-d array
    of z one BranchSet per z (rescaled_critical_points).

    The root on the first piece is the minus branch and the root on the
    last piece the plus branch.  A minimum on a piece between them is the
    middle branch of a case with a cusp (every case but SignFlipped).
    Everything else lands in extras: a degenerate root at a piece end, the
    one root of a monotone g_t (a table of one piece), and every root of
    data with no asymptotic case.  So a branch is absent only where g_t
    has no root on its piece at z.
    """
    case = case_for_data(data)
    sets = []
    for cps in rescaled_critical_points(data, np.atleast_1d(z), t):
        out = BranchSet()
        for cp in cps:
            name = None
            if case is not None and cp.piece is not None and cp.pieces > 1:
                if cp.piece == 0:
                    name = BRANCH_MINUS
                elif cp.piece == cp.pieces - 1:
                    name = BRANCH_PLUS
                elif (cp.kind == KIND_MIN and case.case != CASE_SIGN_FLIPPED
                      and out.middle is None):
                    name = BRANCH_MIDDLE
            if name is None:
                out.extras.append(cp)
            else:
                # the residual |dHt/dy| is |z - g_t(y)| / 2
                setattr(out, name, BranchSolution(y=cp.y, branch=name,
                                                  residual=2.0 * cp.residual))
        sets.append(out)
    return sets if np.ndim(z) else sets[0]


def phase_tie_point(data: InitialData, t: float) -> float:
    """The z at which the two competing phase maxima have equal height at
    finite t (the finite-time location of the profile jump): the plus
    branch and the minus branch, the root on the first monotone piece of
    g_t, which on Asymmetric data right of the cusp is the left maximum
    near y = 0.

    Both branches exist exactly on the window (g_t(b_last), g_t(b_0)), b_0
    ending the first piece of g_t and b_last starting the last, from the
    piece table; an empty window raises TieWindowError at once.  Both are
    stationary points of Ht, so their phase difference has the slope
    (y_plus - y_minus)/2 in z: profiles.envelope_tie, one locator call a
    step from z = min(g(y0), window midpoint) by 1, halved back while a
    branch is missing (from z = 0 on SignFlipped data); a tie it does not
    find raises TieWindowError."""
    case = case_for_data(data)
    if case is None:
        raise ValueError("data family has no asymptotic profile case")
    g_bounds = _table(data, t, 0.0)[3] / default_space_scale(data, t)
    lo, hi = (g_bounds[-1], g_bounds[0]) if g_bounds.size else (math.inf, -math.inf)
    if not lo < hi:
        raise TieWindowError(f"both branches exist on no z at t = {t}: "
                             f"the window [{lo}, {hi}] is empty")

    def pair(z):
        bs = finite_branches(data, z, t)
        if bs.plus is None or bs.minus is None:
            return None
        yp, ym = bs.plus.y, bs.minus.y
        return yp, ym, rescaled_phase(data, yp, z, t) - rescaled_phase(data, ym, z, t)

    start = (0.0, 0.0) if case.case == CASE_SIGN_FLIPPED else (min(case.g_y0, 0.5 * (lo + hi)), 1.0)
    try:
        return profiles.envelope_tie(pair, *start)
    except profiles.TiePointError as exc:
        raise TieWindowError(f"{exc} at t = {t}") from exc


# ---------------------------------------------------------------------------
# property report


@dataclass
class PropertyReport:
    t: float
    degenerate: bool
    properties: dict

    def to_json(self) -> dict:
        out = {}
        for i in range(1, 10):
            key = f"property_{i}"
            entry = self.properties[key]
            out[key] = {"pass": bool(entry["pass"]),
                        "margin": float(entry["margin"]),
                        "details": entry["details"]}
        if self.degenerate:
            out["degenerate"] = True
        return out

    def all_pass(self) -> bool:
        return all(self.properties[f"property_{i}"]["pass"] for i in range(1, 10))


def check_properties(data: InitialData, t: float) -> PropertyReport:
    """Numeric verification, on probe grids, of the nine structural
    properties of the rescaled phase (curve convergence, branch convergence,
    derivative bounds and sign partition, branch membership per z regime,
    uniform concavity near the branches).  The critical points of each z
    grid come from one array call (rescaled_critical_points)."""
    case = case_for_data(data)
    props = {}

    if case is None:
        for i in range(1, 10):
            props[f"property_{i}"] = {
                "pass": True, "margin": 0.0,
                "details": {"note": "degenerate data"},
            }
        return PropertyReport(t=t, degenerate=True, properties=props)

    m = default_space_scale(data, t)
    eps = 0.2  # |y| cutoff away from the origin strip
    mu_w = 0.1  # z-window parameter
    y0 = case.y0 if case.y0 is not None else case.kappa ** (1.0 / (1.0 + case.alpha))
    g_y0 = case.g_y0 if case.g_y0 is not None else 0.0
    strip = _near_origin_halfwidth(data, t)
    glim = lambda y: profiles.critical_curve_limit(case, y)

    # 1: located critical points sit near the limit curve (reported only)
    w_max = 0.0
    w_arg = None
    z_grid = np.linspace(-5.0, 5.0, 21)
    for z, cps in zip(z_grid, rescaled_critical_points(data, z_grid, t)):
        for cp in cps:
            if abs(cp.y) >= eps:
                slope = profiles._curve_slope(case, cp.y)
                w = abs(float(z) - glim(cp.y)) / (1.0 + abs(float(slope)))
                if w > w_max:
                    w_max, w_arg = w, (float(z), cp.y)
    props["property_1"] = {
        "pass": True, "margin": -w_max,
        "details": {"max_distance": w_max, "at": w_arg, "thresholded": False},
    }

    # 2: branch sup-errors against the limit branches
    sups = {}
    grids = {BRANCH_MINUS: np.linspace(-5.0, 5.0, 21)}
    if case.case == CASE_SIGN_FLIPPED:
        grids[BRANCH_PLUS] = np.linspace(-5.0, 5.0, 21)
    else:
        grids[BRANCH_PLUS] = g_y0 + mu_w / 2.0 + np.linspace(0.0, 1.0 / mu_w, 21)
        grids[BRANCH_MIDDLE] = g_y0 + mu_w / 2.0 + np.linspace(0.0, 1.0 / mu_w - g_y0, 15)
    worst = 0.0
    for branch, zg in grids.items():
        if case.case == CASE_ASYMMETRIC and branch == BRANCH_MINUS:
            zg = zg[zg < 0]
        errs = []
        for z, bs in zip(zg, finite_branches(data, zg, t)):
            sol = bs.get(branch)
            if sol is None:
                continue
            try:
                ref = invert_branch(case, branch, float(z)).y
            except ValueError:
                continue
            errs.append(abs(sol.y - ref))
        sups[branch] = max(errs) if errs else None
        if errs:
            worst = max(worst, max(errs))
    props["property_2"] = {
        "pass": worst <= 0.05,
        "margin": 0.05 - worst,
        "details": {"sup_errors": sups},
    }

    # 3: derivative bound on the near-origin strip, one row per z
    zs = np.linspace(-5.0, 5.0, 11)
    dh = np.abs(rescaled_phase(data, np.linspace(-strip, strip, 31), zs[:, None], t, dy_order=1))
    bound_margin = float(np.min(1.0 + np.abs(zs) + (t / m) * data.sup_abs - np.max(dh, axis=1)))
    props["property_3"] = {
        "pass": bound_margin >= 0.0, "margin": bound_margin,
        "details": {"strip_halfwidth": strip},
    }

    # 4: dHt converges to (z - g(y))/2 locally uniformly away from the strip
    box_y = np.concatenate([np.linspace(-1.0 / eps, -eps, 25),
                            np.linspace(eps, 1.0 / eps, 25)])
    zs = np.linspace(-1.0 / eps, 1.0 / eps, 11)[:, None]
    dh = rescaled_phase(data, box_y, zs, t, dy_order=1)
    conv = float(np.max(np.abs(dh - 0.5 * (zs - glim(box_y)))))
    props["property_4"] = {
        "pass": conv <= 0.05,
        "margin": 0.05 - conv,
        "details": {"sup_error": conv},
    }

    # 5: the sign of dHt is sign(z - g_t(y)) on either side of the curve
    rng = np.random.default_rng(20240817)
    ptsy = rng.uniform(-3.0, 3.0, 200)
    ptsz = rng.uniform(-5.0, 5.0, 200)
    dh = rescaled_phase(data, ptsy, ptsz, t, dy_order=1)
    side = ptsz - critical_curve_finite(data, ptsy, t)
    mism = int(np.sum(np.sign(dh) * np.sign(side) < 0))
    props["property_5"] = {
        "pass": mism == 0, "margin": float(-mism),
        "details": {"mismatches": mism, "probes": len(ptsy)},
    }

    # 6-8: membership of critical points per z regime
    def membership(z, cp, branches_allowed, also_unit_ball=False):
        origin = max(2.0 * strip, 1e-3)
        if case.case == CASE_ASYMMETRIC and z > 0.0:
            # the left maximum on the first piece: z = g_t(y) at
            # |y| ~ (kappa t^((alpha-beta)/(1+alpha)) / z)^(1/beta), the
            # rescaled amplitude of the beta tail
            amp = case.kappa * t ** ((case.alpha - case.beta) / (1.0 + case.alpha))
            origin = max(origin, 2.0 * (amp / z) ** (1.0 / case.beta))
        if abs(cp.y) <= origin:
            return True
        if also_unit_ball and abs(cp.y) <= 1.0:
            return True
        for br in branches_allowed:
            try:
                ref = invert_branch(case, br, float(z)).y
            except ValueError:
                continue
            if abs(cp.y - ref) <= 0.1:
                return True
        # the tolerance ball around the cusp
        return case.case != CASE_SIGN_FLIPPED and math.hypot(z - g_y0, cp.y - y0) <= 0.5

    def regime_check(zs, branches_allowed, also_unit_ball=False):
        return [(float(z), cp.y) for z, cps in zip(zs, rescaled_critical_points(data, zs, t))
                for cp in cps if not membership(float(z), cp, branches_allowed, also_unit_ball)]

    if case.case == CASE_SIGN_FLIPPED:
        s6 = regime_check(np.linspace(-5.0, -1.0, 5), [BRANCH_MINUS, BRANCH_PLUS])
        s7 = regime_check(np.linspace(10.0, 12.0, 3), [BRANCH_MINUS, BRANCH_PLUS], True)
        s8 = regime_check(np.linspace(-1.0, 1.0, 5), [BRANCH_MINUS, BRANCH_PLUS])
    else:
        s6 = regime_check(np.linspace(-5.0, g_y0 + mu_w, 7), [BRANCH_MINUS])
        s7 = regime_check(np.linspace(1.0 / mu_w, 1.0 / mu_w + 2.0, 3),
                          [BRANCH_PLUS], also_unit_ball=True)
        s8 = regime_check(np.linspace(g_y0 + mu_w, 1.0 / mu_w, 7),
                          [BRANCH_MINUS, BRANCH_PLUS, BRANCH_MIDDLE])
    for i, strays in ((6, s6), (7, s7), (8, s8)):
        props[f"property_{i}"] = {
            "pass": len(strays) == 0, "margin": float(-len(strays)),
            "details": {"stray_points": strays},
        }

    # 9: uniform concavity near the branches between the two z thresholds
    delta = 0.2  # box margin
    ybox = np.concatenate([np.linspace(-1.0 / delta, -delta, 40),
                           np.linspace(y0 + delta, 1.0 / delta, 40)])
    d2 = rescaled_phase(data, ybox, 0.0, t, dy_order=2)
    c1 = float(np.min(-d2))
    c2 = float(np.max(-d2))
    props["property_9"] = {
        "pass": c1 > 0.0, "margin": c1,
        "details": {"C1": c1, "C2": c2, "delta": delta},
    }

    return PropertyReport(t=t, degenerate=False, properties=props)


# ---------------------------------------------------------------------------
# concentration diagnostic


@dataclass(frozen=True)
class ConcentrationResult:
    x: float
    t: float
    mu1: float
    mu2: float
    ratio: float
    log_ratio: float
    c0: float


def concentration_ratio(data: InitialData, x: float, t: float,
                        mu1: float, mu2: float,
                        rel_tol: float = 1e-9) -> ConcentrationResult:
    """Mass fraction of int e^H over the strip (mu1 T, mu2 T), T = t^{1/(1+alpha)}.

    The analysis orientation has negative data (mass escaping to y > 0);
    positive families are reflected internally, which mirrors the strip.
    c0 is the scaled maximum t^{-(1-alpha)/(1+alpha)} max H, bounded in t.
    """
    if not mu1 < 0.0 < mu2:
        raise ValueError("need mu1 < 0 < mu2")
    wdata, wx = data, float(x)
    if data.spec.sign_at_plus > 0 and data.spec.family != "Zero":
        wdata, wx = negate_reflect(data), -float(x)
    alpha = wdata.alpha
    T = t ** (1.0 / (1.0 + alpha)) if alpha is not None else math.sqrt(t)
    phase = PhysicalPhase(wdata, wx, float(t))
    cps = locate_critical_points(phase)
    full = integrate_moments([None], phase, rel_tol=rel_tol, cps=cps)[0]
    strip = integrate_moments([None], phase, rel_tol=rel_tol, cps=cps,
                              interval=(mu1 * T, mu2 * T))[0]
    log_ratio = (strip.log_scale - full.log_scale
                 + math.log(max(strip.mantissa, 1e-300))
                 - math.log(max(full.mantissa, 1e-300)))
    ratio = min(max(math.exp(log_ratio) if log_ratio < 0 else 1.0, 0.0), 1.0)
    expo = (1.0 - alpha) / (1.0 + alpha) if alpha is not None else 0.0
    c0 = full.log_scale * t ** (-expo)
    return ConcentrationResult(x=float(x), t=float(t), mu1=float(mu1),
                               mu2=float(mu2), ratio=ratio,
                               log_ratio=log_ratio, c0=float(c0))
