"""Long-time limit objects of the rescaled Burgers solution.

The rescaled phase concentrates at zeros of z = g(y) where g is the
critical curve y + (signed tail)/|y|^alpha.  This module provides g and its
case variants, the cusp where g' = 0, the monotone inverse branches, the
limiting phase value along a branch, the location of the profile jump
(where the dominant branch switches), the log-corrected spatial scale
mu(t), and the piecewise limit profile itself.  A branch is inverted by
safeguarded Newton inside a bracket in closed form (invert_branch).  The
SignFlipped and Asymmetric jumps are closed forms, and the Symmetric and
LogCorrected ties are solved by Newton on the envelope slope (envelope_tie).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import brentq_lockstep

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


def _curve_tail(case: ProfileCase, y):
    """g(y) - y: the tail kappa |y|^-alpha with the sign of its wing."""
    tail = case.kappa * np.abs(y) ** (-case.alpha)
    if case.case == CASE_SIGN_FLIPPED:
        return np.where(y > 0, -tail, tail)
    if case.case == CASE_ASYMMETRIC:  # the slower beta tail scales away on y < 0
        return np.where(y > 0, tail, 0.0)
    return tail


def critical_curve_limit(case: ProfileCase, y):
    """The limiting critical curve g(y): stationary points of the rescaled
    phase at z = g(y).  y = 0 is outside the domain."""
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0):
        raise ValueError("the critical curve is undefined at y = 0")
    out = y + _curve_tail(case, y)
    return float(out) if out.ndim == 0 else out


def _curve_slope(case: ProfileCase, y):
    return 1.0 - case.alpha * _curve_tail(case, y) / y  # tail' = -alpha tail / y


def _branch_interval(case: ProfileCase, branch: str, z: float):
    """The closed-form bracket [lo, hi] of the root of g(y) = z on the
    branch (invert_branch); None on the Asymmetric identity branch."""
    k, a = case.kappa, case.alpha
    kroot = k ** (1.0 / (1.0 + a))
    near0 = min(0.5 * kroot, (k / (abs(z) + kroot)) ** (1.0 / a))

    if branch == BRANCH_MINUS:
        if case.case == CASE_ASYMMETRIC:
            if z >= 0:
                raise ValueError(
                    f"minus branch of the Asymmetric case needs z < 0, got z = {z}"
                )
            return None  # identity branch; handled without root finding
        return -(abs(z) + kroot + 1.0), -near0

    if case.case == CASE_SIGN_FLIPPED:
        if branch == BRANCH_MIDDLE:
            raise ValueError("SignFlipped has no middle branch")
        return near0, max(z, 0.0) + kroot + 1.0

    if z <= case.g_y0:
        raise ValueError(
            f"{branch} branch domain starts at g(y0) = {case.g_y0:.12g}, got z = {z}"
        )
    if branch == BRANCH_PLUS:
        return case.y0, z
    if branch == BRANCH_MIDDLE:
        return (k / (z + case.y0)) ** (1.0 / a), case.y0
    raise ValueError(f"unknown branch {branch!r}")


def _split(lo: float, hi: float) -> float:
    """The bisection point of a bracket of one sign: the geometric mean
    while its ends differ by more than a factor of 4, else the midpoint."""
    if abs(hi) > 4.0 * abs(lo) or abs(lo) > 4.0 * abs(hi):
        return math.copysign(math.sqrt(abs(lo)) * math.sqrt(abs(hi)), lo)
    return 0.5 * (lo + hi)


def invert_branch(case: ProfileCase, branch: str, z: float) -> BranchSolution:
    """Solve z = g(y) on the requested monotone branch.

    The bracket needs no evaluation of g.  With kroot = kappa^{1/(1+alpha)},
    the tail kappa |y|^-alpha is below kroot where |y| > kroot and at least
    |z| + kroot where |y| <= near0 = min(kroot/2, (kappa/(|z| + kroot))^{1/alpha}):
    - minus (g = y + tail increasing on y < 0), [-(|z| + kroot + 1), -near0]:
      g(lo) < -|z| - 1 and g(hi) >= |z| + kroot/2;
    - plus on the cusp cases (g increasing on y > y0), [y0, z]:
      g(y0) < z by the domain check and g(z) = z + tail;
    - middle (g decreasing on 0 < y < y0), [(kappa/(z + y0))^{1/alpha}, y0]:
      g(lo) = lo + z + y0 and g(y0) < z (lo < y0 as z > g(y0));
    - SignFlipped plus (g = y - tail increasing on y > 0),
      [near0, max(z, 0) + kroot + 1]: g(lo) <= -|z| - kroot/2 and
      g(hi) > max(z, 0) + 1.
    Newton starts at the bisection point.  Each evaluation of the tail gives
    the residual and the slope and moves one end of the bracket to y; a
    step that leaves the bracket is a bisection (_split), and the loop
    stops at a step that moves y by at most 1e-15 |y|.  The residual is
    (y - z) + tail, which carries the rounding of the tail and not that of
    g; above 1e-12 (1 + |z|) it raises ValueError naming the case, branch
    and z."""
    z = float(z)
    interval = _branch_interval(case, branch, z)
    if interval is None:  # Asymmetric identity branch
        return BranchSolution(y=z, branch=branch, residual=0.0)
    lo, hi = interval
    sgn = -1.0 if branch == BRANCH_MIDDLE else 1.0  # g - z has it at hi
    y = _split(lo, hi)
    for _ in range(100):
        tail = float(_curve_tail(case, y))
        r = (y - z) + tail
        if sgn * r <= 0.0:
            lo = y
        if sgn * r >= 0.0:
            hi = y
        slope = 1.0 - case.alpha * tail / y  # _curve_slope from this tail
        nxt = y - r / slope if slope != 0.0 else math.nan
        if not (lo < nxt < hi or nxt == y):
            nxt = _split(lo, hi)
        done = abs(nxt - y) <= 1e-15 * abs(y)
        y = nxt
        if done:
            break
    res = abs(float((y - z) + _curve_tail(case, y)))
    if not res <= 1e-12 * (1.0 + abs(z)):
        raise ValueError(
            f"{case.case} {branch} branch: residual {res:.3g} at z = {z} "
            f"is above 1e-12 (1 + |z|)"
        )
    return BranchSolution(y=y, branch=branch, residual=res)


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
    """No root of the equal-phase tie was found: envelope_tie did not converge,
    or the printed variant's scan saw no sign change (an inconsistent variant)."""


def envelope_tie(pair, z: float, step: float) -> float:
    """The root of a tie delta(z) = Ht(y+, z) - Ht(y-, z) between stationary
    points y+ > y- of a phase with dHt/dz = -(z - y)/2: as dHt/dy = 0 there,
    delta' = (y+ - y-)/2 > 0 exactly, and Newton takes it from the roots in
    hand.  pair(z) gives (y+, y-, delta), or None where a branch is missing.
    The first step goes from z by step, and a step to a z with no pair (the
    first one too) is halved back.  It stops at a step of at most
    1e-15 (1 + |z|), taking it, and raises TiePointError after 60 pair calls."""
    for _ in range(60):
        got = pair(z + step)
        if got is None:
            if step == 0.0:
                break
            step *= 0.5
            continue
        z += step
        y_plus, y_minus, delta = got
        step = -2.0 * delta / (y_plus - y_minus)
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            return float(z + step)
    raise TiePointError(f"no root of the tie difference near z = {z}")


def _first_sign_change(delta, anchor, step0):
    """Scan z = anchor + step0 * 2^k, up to 1e3 past the anchor, for a sign
    change of delta, and solve the first one found as a bracket of one of
    quadrature.brentq_lockstep, from the scan's values at its ends."""
    for k in range(80):
        z = anchor + step0 * 2.0 ** k
        f = delta(z)
        if k and f * f_prev <= 0:  # an end where delta is 0 is the root
            return float(brentq_lockstep(lambda zs: [delta(v) for v in zs.tolist()],
                                         [z_prev], [z], [f_prev], [f], 1e-12, 1e-15)[0])
        if z - anchor > 1e3:
            break
        z_prev, f_prev = z, f
    raise TiePointError(
        "no tie point on the admissible window; the phase-limit variant "
        "appears inconsistent"
    )


def profile_jump_location(case: ProfileCase, variant: str = VARIANT_LIMIT_DERIVED) -> float:
    """z at which the dominant phase maximum switches branches (the profile
    discontinuity), the root of delta(z) = phase(y_plus(z)) - phase(y_minus(z)).
    Symmetric and LogCorrected: envelope_tie, first step g(y0) -> g(y0) + 1
    (the printed phase is not the limit of Ht at a stationary point: a scan).
    SignFlipped: 0, as g is odd and the branch phase even in y, so delta is
    odd.  Asymmetric: the left maximum value tends to -z^2/4, and on the plus
    branch phase(y) + g(y)^2/4 = y^2/4 - kappa alpha y^{1-alpha} / (2 (1-alpha))
    (printed: y^2/4 + kappa alpha y^{1-alpha} / 2 > 0, no root), so z = g(y)
    at y^{1+alpha} = 2 kappa alpha / (1 - alpha)."""
    if variant not in (VARIANT_PRINTED, VARIANT_LIMIT_DERIVED):
        raise ValueError(f"unknown variant {variant!r}")
    if case.case == CASE_SIGN_FLIPPED:
        if variant == VARIANT_PRINTED:
            raise ValueError(
                "no printed tie equation exists for the SignFlipped case; "
                "use the limit_derived variant or the finite-time tie"
            )
        return 0.0
    if case.case == CASE_ASYMMETRIC:
        if variant == VARIANT_PRINTED:
            raise TiePointError("the printed Asymmetric tie has no root")
        k, a = case.kappa, case.alpha
        return critical_curve_limit(case, (2.0 * k * a / (1.0 - a)) ** (1.0 / (1.0 + a)))

    def pair(z):
        if z <= case.g_y0:
            return None
        yp = invert_branch(case, BRANCH_PLUS, z).y
        ym = invert_branch(case, BRANCH_MINUS, z).y
        hp, hm = (_branch_phase_case(case, y, variant) for y in (yp, ym))
        return yp, ym, hp - hm

    if variant == VARIANT_LIMIT_DERIVED:
        return envelope_tie(pair, case.g_y0, 1.0)
    return _first_sign_change(lambda z: pair(z)[2], case.g_y0, 1e-6 * (1.0 + case.g_y0))


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
