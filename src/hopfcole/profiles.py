"""Long-time limit objects of the rescaled Burgers solution.

The rescaled phase concentrates at zeros of z = g(y) where g is the
critical curve y + (signed tail)/|y|^alpha.  This module provides g and its
case variants, the cusp where g' = 0, the monotone inverse branches, the
limiting phase value along a branch, the location of the profile jump
(where the dominant branch switches), the log-corrected spatial scale
mu(t), and the piecewise limit profile itself.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

CASE_SYMMETRIC = "SymmetricPositive"
CASE_SIGN_FLIPPED = "SignFlipped"
CASE_LOG_CORRECTED = "LogCorrected"
CASE_ASYMMETRIC = "Asymmetric"
CASES = (CASE_SYMMETRIC, CASE_SIGN_FLIPPED, CASE_LOG_CORRECTED, CASE_ASYMMETRIC)

BRANCH_MINUS = "minus"
BRANCH_PLUS = "plus"
BRANCH_MIDDLE = "middle"

VARIANT_PRINTED = "printed"
VARIANT_LIMIT_DERIVED = "limit_derived"

_BRACKET_CAP = 2.0 ** 60


class DiscontinuityError(ValueError):
    """Profile requested exactly at a discontinuity; carries both one-sided
    limits so callers can still plot the jump."""

    def __init__(self, z, left, right):
        super().__init__(
            f"profile is discontinuous at z = {z}: left {left}, right {right}"
        )
        self.z = z
        self.left = left
        self.right = right


@dataclass(frozen=True)
class BranchSolution:
    y: float
    branch: str
    residual: float


def cusp(kappa: float, alpha: float):
    """(y0, g(y0)): the fold point of the critical curve on y > 0.

    y0 = (kappa alpha)^{1/(1+alpha)},
    g(y0) = kappa^{1/(1+alpha)} (alpha^{1/(1+alpha)} + alpha^{-alpha/(1+alpha)}).
    """
    y0 = (kappa * alpha) ** (1.0 / (1.0 + alpha))
    g_y0 = kappa ** (1.0 / (1.0 + alpha)) * (
        alpha ** (1.0 / (1.0 + alpha)) + alpha ** (-alpha / (1.0 + alpha))
    )
    return y0, g_y0


class ProfileCase:
    """One asymptotic class: case tag, tail parameters, and the cached limit
    objects (cusp and profile discontinuity location).  The discontinuity
    is solved lazily: the finite-time tie search and the branch inversions
    never read it.
    """

    def __init__(self, case: str, kappa: float, alpha: float, beta: float | None = None):
        if case not in CASES:
            raise ValueError(f"unknown profile case {case!r}")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not kappa > 0:
            raise ValueError("kappa must be positive")
        if case == CASE_LOG_CORRECTED and (beta is None or beta <= 0):
            raise ValueError("LogCorrected requires beta > 0")
        if case == CASE_ASYMMETRIC and (beta is None or not alpha < beta < 1.0):
            raise ValueError("Asymmetric requires alpha < beta < 1")
        self.case = case
        self.kappa = float(kappa)
        self.alpha = float(alpha)
        self.beta = None if beta is None else float(beta)
        if case == CASE_SIGN_FLIPPED:
            # the critical curve is strictly increasing on both half lines
            self.y0 = None
            self.g_y0 = None
        else:
            self.y0, self.g_y0 = cusp(kappa, alpha)

    @functools.cached_property
    def discontinuity_z(self) -> float:
        """The profile jump, the limit-derived tie, solved on first read (a
        TiePointError surfaces there)."""
        return profile_jump_location(self, VARIANT_LIMIT_DERIVED)

    def __repr__(self):
        return (f"ProfileCase({self.case}, kappa={self.kappa}, alpha={self.alpha}, "
                f"beta={self.beta}, jump={self.discontinuity_z:.6g})")


def critical_curve_limit(case: ProfileCase, y):
    """The limiting critical curve g(y): stationary points of the rescaled
    phase at z = g(y).  y = 0 is outside the domain."""
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0):
        raise ValueError("the critical curve is undefined at y = 0")
    k, a = case.kappa, case.alpha
    tail = k * np.abs(y) ** (-a)
    if case.case in (CASE_SYMMETRIC, CASE_LOG_CORRECTED):
        out = y + tail
    elif case.case == CASE_SIGN_FLIPPED:
        out = np.where(y > 0, y - tail, y + tail)
    else:  # Asymmetric: the slower beta tail scales away on y < 0
        out = np.where(y > 0, y + tail, y)
    return float(out) if out.ndim == 0 else out


def _curve_slope(case: ProfileCase, y):
    k, a = case.kappa, case.alpha
    d_tail = -a * k * np.sign(y) * np.abs(y) ** (-a - 1.0)
    if case.case in (CASE_SYMMETRIC, CASE_LOG_CORRECTED):
        return 1.0 + d_tail
    if case.case == CASE_SIGN_FLIPPED:
        return np.where(y > 0, 1.0 - d_tail, 1.0 + d_tail)
    return np.where(y > 0, 1.0 + d_tail, 1.0)


def _halve(bad, d: float, scale: float, branch: str) -> float:
    """Halve d while bad(d); a d below scale / 2^60 raises ValueError."""
    while bad(d):
        d *= 0.5
        if abs(d) * _BRACKET_CAP < scale:
            raise ValueError(f"bracket collapse on {branch} branch")
    return d


def _branch_interval(case: ProfileCase, branch: str, z: float):
    """A sign-changing bracket for g(y) = z on the monotone piece."""
    k, a = case.kappa, case.alpha
    kroot = k ** (1.0 / (1.0 + a))
    y0, g_y0 = case.y0, case.g_y0

    def g(y):
        return critical_curve_limit(case, y)

    # seed for the side of a branch that collapses toward 0 as |z| grows:
    # there y ~ +-(k/|z|)^{1/alpha}
    near0 = 0.5 * min(kroot, (k / (abs(z) + 1.0)) ** (1.0 / a))

    if branch == BRANCH_MINUS:
        if case.case == CASE_ASYMMETRIC:
            if z >= 0:
                raise ValueError(
                    f"minus branch of the Asymmetric case needs z < 0, got z = {z}"
                )
            return None  # identity branch; handled without root finding
        if case.case == CASE_SIGN_FLIPPED:
            hi = -near0
        else:
            hi = -min(near0, y0 / 2.0) if z > 0 else -y0 / 2.0
        return -(abs(z) + kroot + 1.0), _halve(lambda y: g(y) < z, hi, 1.0, branch)

    if case.case == CASE_SIGN_FLIPPED:
        if branch == BRANCH_MIDDLE:
            raise ValueError("SignFlipped has no middle branch")
        # plus branch: y > 0, g = y - k y^-a increasing onto all of R
        return _halve(lambda y: g(y) > z, near0, 1.0, branch), max(1.0, z + k + 1.0)

    if z <= g_y0:
        raise ValueError(
            f"{branch} branch domain starts at g(y0) = {g_y0:.12g}, got z = {z}"
        )
    if branch == BRANCH_PLUS:
        return y0 + _halve(lambda dy: g(y0 + dy) > z, 0.5 * y0, y0, branch), z + 1.0
    if branch == BRANCH_MIDDLE:
        lo = min(y0 / 2.0, (k / (abs(z) + g_y0 + 1.0)) ** (1.0 / a))
        return lo, y0 - _halve(lambda dy: g(y0 - dy) > z, 0.25 * y0, y0, branch)
    raise ValueError(f"unknown branch {branch!r}")


def invert_branch(case: ProfileCase, branch: str, z: float) -> BranchSolution:
    """Solve z = g(y) on the requested monotone branch.

    Bracketed Brent plus a Newton polish; the residual |g(y) - z| is driven
    to ~1e-12 (1 + |z|)."""
    z = float(z)
    interval = _branch_interval(case, branch, z)
    if interval is None:  # Asymmetric identity branch
        return BranchSolution(y=z, branch=branch, residual=0.0)
    a, b = interval
    fn = lambda y: critical_curve_limit(case, y) - z
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        y = a
    elif fb == 0.0:
        y = b
    else:
        if fa * fb > 0:
            raise ValueError(
                f"no sign change for {branch} branch at z = {z} in [{a}, {b}]"
            )
        # xtol is effectively disabled so brentq iterates to relative
        # precision even when the root is tiny compared to the bracket
        y = brentq(fn, a, b, xtol=1e-300, rtol=1e-15, maxiter=300)
    for _ in range(8):
        r = fn(y)
        if abs(r) <= 1e-15 * (1.0 + abs(z)):
            break
        slope = float(_curve_slope(case, y))
        if slope == 0.0:
            break
        cand = y - r / slope
        if not a < cand < b:
            break
        y = cand
    return BranchSolution(y=float(y), branch=branch, residual=abs(float(fn(y))))


def branch_phase_limit(kappa: float, alpha: float, y: float,
                       variant: str = VARIANT_PRINTED) -> float:
    """Long-time limit of the rescaled phase along a branch point y, for the
    tail kappa |y|^-alpha on the wing of y (kappa < 0 on a negative wing).

    Two variants are kept side by side deliberately:
    - "printed": -kappa^2/(4 |y|^{2 alpha}) - kappa (1-alpha)/2 |y|^{1-alpha}
    - "limit_derived": -kappa^2/(4 |y|^{2 alpha})
                       - sign(y) kappa |y|^{1-alpha} / (2 (1-alpha)),
      the value obtained by taking t -> infinity in the rescaled phase at a
      stationary point (the primitive of the kappa |y|^-alpha tail).
    The two disagree; the finite-time tie point is the arbiter and the
    experiment drivers report all three."""
    if y == 0.0:
        raise ValueError("branch phase limit undefined at y = 0")
    ay = abs(y)
    lead = -kappa * kappa / (4.0 * ay ** (2.0 * alpha))
    if variant == VARIANT_PRINTED:
        return lead - 0.5 * kappa * (1.0 - alpha) * ay ** (1.0 - alpha)
    if variant == VARIANT_LIMIT_DERIVED:
        return lead - math.copysign(1.0, y) * kappa * ay ** (1.0 - alpha) / (2.0 * (1.0 - alpha))
    raise ValueError(f"unknown variant {variant!r}")


def _wing_sign(case: ProfileCase, y: float) -> float:
    """Signed tail amplitude factor of f0 on the wing containing y."""
    if case.case == CASE_SIGN_FLIPPED:
        return -1.0 if y > 0 else 1.0
    return 1.0


def _branch_phase_case(case: ProfileCase, y: float, variant: str) -> float:
    """Case-aware limiting phase value along a branch (wing-signed tails)."""
    return branch_phase_limit(_wing_sign(case, y) * case.kappa, case.alpha, y, variant)


class TiePointError(RuntimeError):
    """The equal-phase tie equation has no root on its admissible window;
    this signals an inconsistent phase-limit variant."""


def _first_sign_change(delta, anchor, step0):
    """Scan z = anchor + step0 * 2^k, up to 1e3 past the anchor, for a sign
    change of delta and polish the first one found by Brent."""
    z_prev = anchor + step0
    f_prev = delta(z_prev)
    if f_prev == 0.0:
        return z_prev
    for k in range(1, 80):
        z = anchor + step0 * 2.0 ** k
        f = delta(z)
        if f == 0.0:
            return z
        if f * f_prev < 0:
            return float(brentq(delta, z_prev, z, xtol=1e-12, rtol=1e-15))
        z_prev, f_prev = z, f
        if z - anchor > 1e3:
            break
    raise TiePointError(
        "no tie point on the admissible window; the phase-limit variant "
        "appears inconsistent"
    )


def profile_jump_location(case: ProfileCase, variant: str = VARIANT_LIMIT_DERIVED) -> float:
    """z at which the dominant phase maximum switches branches (the profile
    discontinuity).  Solves the equal-phase-value tie by bracketed root
    finding with geometric bracket growth."""
    if case.case == CASE_SIGN_FLIPPED and variant == VARIANT_PRINTED:
        raise ValueError(
            "no printed tie equation exists for the SignFlipped case; "
            "use the limit_derived variant or the finite-time tie"
        )

    def delta(z):
        yp = invert_branch(case, BRANCH_PLUS, z).y
        if case.case == CASE_ASYMMETRIC:
            # the left maximum value tends to -z^2/4
            return _branch_phase_case(case, yp, variant) + z * z / 4.0
        ym = invert_branch(case, BRANCH_MINUS, z).y
        return _branch_phase_case(case, yp, variant) - _branch_phase_case(case, ym, variant)

    if case.case != CASE_SIGN_FLIPPED:
        return _first_sign_change(delta, case.g_y0, 1e-6 * (1.0 + case.g_y0))
    hi = 1.0
    while delta(hi) * delta(-hi) > 0:
        hi *= 2.0
        if hi > 1e9:
            raise TiePointError("no tie point found for SignFlipped")
    return float(brentq(delta, -hi, hi, xtol=1e-12, rtol=1e-15))


def log_corrected_scale(alpha: float, beta: float, t: float) -> float:
    """The anomalous spatial scale mu(t) solving mu^{1+alpha} ln^beta mu = t.

    Newton iteration on ln mu; requires t >= e^{1+alpha} so that mu >= e.
    For beta = 0 this is exactly t^{1/(1+alpha)}."""
    if beta == 0.0:
        return t ** (1.0 / (1.0 + alpha))
    if t < math.exp(1.0 + alpha):
        raise ValueError(f"t must be at least e^(1+alpha) = {math.exp(1 + alpha):.6g}")
    target = math.log(t)
    lam = max(1.0, target / (1.0 + alpha))
    for _ in range(100):
        h = (1.0 + alpha) * lam + beta * math.log(lam) - target
        dh = (1.0 + alpha) + beta / lam
        step = h / dh
        lam -= step
        if abs(step) < 1e-15 * lam:
            break
    mu = math.exp(lam)
    if abs(mu ** (1.0 + alpha) * math.log(mu) ** beta - t) > 1e-10 * t:
        raise RuntimeError("scale iteration failed to converge")
    return mu


def profile_value(case: ProfileCase, z: float) -> float:
    """The limit profile p(z) of the rescaled solution.

    SymmetricPositive / LogCorrected:
        kappa |y_plus(z)|^-alpha right of the jump,
        kappa |y_minus(z)|^-alpha left of it.
    SignFlipped: +kappa |y|^-alpha on the negative-y branch (left of the
        jump), -kappa |y|^-alpha on the positive-y branch (right of it).
    Asymmetric: 0 for z < 0, z for 0 < z < jump, kappa |y_plus|^-alpha after.
    At a discontinuity a DiscontinuityError carries both one-sided limits.
    """
    z = float(z)
    zc = case.discontinuity_z

    def wing(branch):
        y = invert_branch(case, branch, z).y
        return _wing_sign(case, y) * case.kappa * abs(y) ** (-case.alpha)

    if case.case == CASE_ASYMMETRIC and z <= zc:
        if z == 0.0:
            raise DiscontinuityError(0.0, 0.0, 0.0)
        if z == zc:
            raise DiscontinuityError(z, zc, wing(BRANCH_PLUS))
        return z if z > 0.0 else 0.0
    if z == zc:
        raise DiscontinuityError(z, wing(BRANCH_MINUS), wing(BRANCH_PLUS))
    return wing(BRANCH_PLUS if z > zc else BRANCH_MINUS)
