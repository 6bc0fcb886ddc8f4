import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfcole.profiles import (
    BRANCH_MIDDLE,
    BRANCH_MINUS,
    BRANCH_PLUS,
    CASE_ASYMMETRIC,
    CASE_LOG_CORRECTED,
    CASE_SIGN_FLIPPED,
    CASE_SYMMETRIC,
    CASES,
    DiscontinuityError,
    ProfileCase,
    TiePointError,
    VARIANT_LIMIT_DERIVED,
    VARIANT_PRINTED,
    _branch_interval,
    branch_phase_limit,
    critical_curve_limit,
    cusp,
    invert_branch,
    log_corrected_scale,
    profile_jump_location,
    profile_value,
)


@pytest.fixture(scope="module")
def sym_third():
    return ProfileCase(CASE_SYMMETRIC, 1.0, 1.0 / 3.0)


# -- curve and cusp ----------------------------------------------------------


def test_curve_values(sym_third):
    assert critical_curve_limit(sym_third, 1.0) == pytest.approx(2.0)
    case2 = ProfileCase(CASE_SYMMETRIC, 2.0, 0.5)
    assert critical_curve_limit(case2, 4.0) == pytest.approx(5.0)
    sf = ProfileCase(CASE_SIGN_FLIPPED, 1.0, 0.5)
    assert critical_curve_limit(sf, 1.0) == pytest.approx(0.0)


def test_curve_rejects_origin(sym_third):
    with pytest.raises(ValueError):
        critical_curve_limit(sym_third, 0.0)


def test_cusp_closed_form():
    y0, g_y0 = cusp(1.0, 1.0 / 3.0)
    assert y0 == pytest.approx(3.0 ** -0.75, rel=1e-12)
    assert y0 == pytest.approx(0.438691, abs=1e-6)
    assert g_y0 == pytest.approx(1.754765, abs=1e-6)
    # alpha -> 1: y0 -> kappa^(1/2)
    assert cusp(1.0, 0.999999)[0] == pytest.approx(1.0, abs=1e-5)


def test_cusp_is_stationary(sym_third):
    # g'(y0) = 0 by finite difference
    y0 = sym_third.y0
    h = 1e-6 * y0
    slope = (critical_curve_limit(sym_third, y0 + h)
             - critical_curve_limit(sym_third, y0 - h)) / (2 * h)
    assert abs(slope) <= 1e-8


def test_cusp_homogeneity():
    # cusp(lambda^{1+alpha} kappa, alpha).y0 = lambda cusp(kappa, alpha).y0
    rng = np.random.default_rng(3)
    for _ in range(20):
        kappa = rng.uniform(0.2, 5.0)
        alpha = rng.uniform(0.05, 0.95)
        lam = rng.uniform(0.1, 10.0)
        left = cusp(lam ** (1 + alpha) * kappa, alpha)[0]
        right = lam * cusp(kappa, alpha)[0]
        assert left == pytest.approx(right, rel=1e-12)


# -- branches ----------------------------------------------------------------


def test_minus_branch_at_zero(sym_third):
    assert invert_branch(sym_third, BRANCH_MINUS, 0.0).y == pytest.approx(-1.0, abs=1e-12)
    case = ProfileCase(CASE_SYMMETRIC, 2.0, 0.5)
    assert invert_branch(case, BRANCH_MINUS, 0.0).y == pytest.approx(
        -(2.0 ** (2.0 / 3.0)), abs=1e-12)


def test_plus_branch_endpoint(sym_third):
    sol = invert_branch(sym_third, BRANCH_PLUS, sym_third.g_y0 + 1e-9)
    assert abs(sol.y - sym_third.y0) <= 1e-3


def test_plus_branch_far_field(sym_third):
    # y_plus(z) - z -> 0 as z grows, monotonically
    prev_gap = None
    for z in (1e3, 1e4, 1e5, 1e6):
        sol = invert_branch(sym_third, BRANCH_PLUS, z)
        gap = abs(sol.y - z)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert gap <= 0.1  # at z = 1e6


def test_branch_residuals_bulk(sym_third):
    # 1e3 z samples per branch, residual <= 1e-12 (1 + |z|)
    zs_minus = np.concatenate([np.linspace(-100, 100, 500),
                               np.geomspace(1e-2, 1e4, 500)])
    for z in zs_minus:
        s = invert_branch(sym_third, BRANCH_MINUS, float(z))
        assert s.residual <= 1e-12 * (1 + abs(z))
        assert s.y < 0
    zs = sym_third.g_y0 + np.geomspace(1e-9, 1e4, 1000)
    for z in zs:
        p = invert_branch(sym_third, BRANCH_PLUS, float(z))
        m = invert_branch(sym_third, BRANCH_MIDDLE, float(z))
        assert p.residual <= 1e-12 * (1 + abs(z))
        assert m.residual <= 1e-12 * (1 + abs(z))
        assert p.y > sym_third.y0
        assert 0 < m.y < sym_third.y0


def test_branch_monotonicity(sym_third):
    zs = np.linspace(-30, 30, 301)
    ys = [invert_branch(sym_third, BRANCH_MINUS, float(z)).y for z in zs]
    assert np.all(np.diff(ys) > 0)
    zs = sym_third.g_y0 + np.geomspace(1e-6, 100, 200)
    yp = [invert_branch(sym_third, BRANCH_PLUS, float(z)).y for z in zs]
    ym = [invert_branch(sym_third, BRANCH_MIDDLE, float(z)).y for z in zs]
    assert np.all(np.diff(yp) > 0)
    assert np.all(np.diff(ym) < 0)


def test_branch_domain_errors(sym_third):
    with pytest.raises(ValueError):
        invert_branch(sym_third, BRANCH_PLUS, sym_third.g_y0 - 0.1)
    with pytest.raises(ValueError):
        invert_branch(sym_third, BRANCH_MIDDLE, 0.0)
    sf = ProfileCase(CASE_SIGN_FLIPPED, 1.0, 0.5)
    with pytest.raises(ValueError):
        invert_branch(sf, BRANCH_MIDDLE, 1.0)
    asym = ProfileCase(CASE_ASYMMETRIC, 1.0, 1 / 3, 2 / 3)
    with pytest.raises(ValueError):
        invert_branch(asym, BRANCH_MINUS, 1.0)  # identity branch needs z < 0


def test_asymmetric_identity_branch():
    asym = ProfileCase(CASE_ASYMMETRIC, 1.0, 1 / 3, 2 / 3)
    s = invert_branch(asym, BRANCH_MINUS, -3.0)
    assert s.y == -3.0 and s.residual == 0.0


@st.composite
def branch_problems(draw):
    """A case, one of its root-finding branches and a z on its domain: z over
    decades of either sign on the minus and SignFlipped plus branches, and
    1e-9 to 1e4 above the cusp on the others."""
    case_name = draw(st.sampled_from(CASES))
    kappa = draw(st.floats(0.5, 2.0))
    alpha = draw(st.floats(0.05, 0.95))
    beta = {CASE_LOG_CORRECTED: draw(st.floats(0.1, 3.0)),
            CASE_ASYMMETRIC: draw(st.floats(alpha, 1.0, exclude_min=True,
                                            exclude_max=True))}.get(case_name)
    case = ProfileCase(case_name, kappa, alpha, beta)
    branches = {CASE_SIGN_FLIPPED: [BRANCH_MINUS, BRANCH_PLUS],
                CASE_ASYMMETRIC: [BRANCH_PLUS, BRANCH_MIDDLE]}.get(
                    case_name, [BRANCH_MINUS, BRANCH_PLUS, BRANCH_MIDDLE])
    branch = draw(st.sampled_from(branches))
    if case.y0 is None or branch == BRANCH_MINUS:
        z = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, 4.0))
    else:
        z = case.g_y0 + 10.0 ** draw(st.floats(-9.0, 4.0))
    return case, branch, z


def _mp_curve(case, y):
    """g(y) in mpmath arithmetic, at the float kappa and alpha of the case."""
    tail = mpmath.mpf(case.kappa) * abs(y) ** (-mpmath.mpf(case.alpha))
    if case.case == CASE_SIGN_FLIPPED and y > 0:
        return y - tail
    return y + tail


@settings(max_examples=300, deadline=None)
@given(branch_problems())
def test_branch_inversion_matches_mpmath(problem):
    # the closed-form bracket straddles the root in exact arithmetic, the
    # Newton root has a small residual, lies on its branch and, away from
    # the fold, is the 30-digit root to 1e-12 relative
    case, branch, z = problem
    lo, hi = _branch_interval(case, branch, z)
    sol = invert_branch(case, branch, z)
    assert abs(critical_curve_limit(case, sol.y) - z) <= 1e-12 * (1.0 + abs(z))
    assert sol.residual <= 1e-12 * (1.0 + abs(z))
    if branch == BRANCH_MINUS:
        assert sol.y < 0.0
    elif branch == BRANCH_MIDDLE:
        assert 0.0 < sol.y < case.y0
    else:
        assert sol.y > (0.0 if case.y0 is None else case.y0)
    with mpmath.workdps(30):
        sgn = -1 if branch == BRANCH_MIDDLE else 1
        f = lambda y: _mp_curve(case, mpmath.mpf(y)) - mpmath.mpf(z)
        assert sgn * f(lo) < 0 < sgn * f(hi)
        if case.y0 is None or branch == BRANCH_MINUS or z - case.g_y0 >= 1e-6:
            ref = mpmath.findroot(f, (mpmath.mpf(sol.y), sol.y * (1.0 + 1e-9)))
            assert lo <= ref <= hi
            assert abs(sol.y - ref) <= 1e-12 * abs(ref)


def test_branch_residual_failure_names_the_problem(monkeypatch, sym_third):
    # a curve whose root left the bracket leaves a residual, which raises
    from hopfcole import profiles
    monkeypatch.setattr(profiles, "_curve_tail", lambda case, y: 10.0)
    with pytest.raises(ValueError, match=r"SymmetricPositive plus branch: .* z = 3.0"):
        invert_branch(sym_third, BRANCH_PLUS, 3.0)


# -- limiting phase values and jump ------------------------------------------


def test_branch_phase_printed_value():
    # printed formula at kappa=1, alpha=1/3, y=-1: -1/4 - 1/3
    got = branch_phase_limit(1.0, 1 / 3, -1.0, VARIANT_PRINTED)
    assert got == pytest.approx(-0.25 - 1.0 / 3.0, rel=1e-14)
    # depends on |y| only
    assert branch_phase_limit(1.0, 1 / 3, 2.0, VARIANT_PRINTED) == \
        branch_phase_limit(1.0, 1 / 3, -2.0, VARIANT_PRINTED)


def test_limit_derived_matches_rescaled_phase_limit(power_c1_third):
    # the t -> infinity limit of the reduced phase at a branch point equals
    # the limit-derived formula (re-derivation check against the evaluator)
    from hopfcole.rescaled import rescaled_phase, finite_branches
    case = ProfileCase(CASE_SYMMETRIC, 1.0, 1.0 / 3.0)
    t = 1e10
    for z in (1.0, 3.0):
        bs = finite_branches(power_c1_third, z, t)
        for branch, sol in (("minus", bs.minus), ("plus", bs.plus)):
            if sol is None:
                continue
            ht = rescaled_phase(power_c1_third, sol.y, z, t)
            ref_y = invert_branch(case, branch, z).y
            want = branch_phase_limit(1.0, 1 / 3, ref_y, VARIANT_LIMIT_DERIVED)
            assert ht == pytest.approx(want, abs=2e-3)
            printed = branch_phase_limit(1.0, 1 / 3, ref_y, VARIANT_PRINTED)
            if ref_y < 0:
                # the printed formula disagrees on the minus branch
                assert abs(ht - printed) > 0.1


def test_jump_location_positivity(sym_third):
    assert sym_third.discontinuity_z > sym_third.g_y0
    assert abs(sym_third.discontinuity_z - 2.1008116596919555) < 1e-9


@pytest.mark.parametrize("case, want", [
    # the envelope-slope Newton's jump, 4.0e-17 from the 40-digit root
    (ProfileCase(CASE_SYMMETRIC, 1.0, 1 / 3), 2.100811659691956),
    (ProfileCase(CASE_LOG_CORRECTED, 1.0, 1 / 3, 1.0), 2.100811659691956),
    (ProfileCase(CASE_SIGN_FLIPPED, 1.0, 0.5), 0.0),
    # the closed-form tie; the bracketed solve gave 1.9999999999999998, 1.8e-16
    # from the 40-digit root 1.99999999999999995837 against 4.2e-17
    (ProfileCase(CASE_ASYMMETRIC, 1.0, 1 / 3, 2 / 3), 2.0),
])
def test_lazy_jump_equals_the_eager_solve(case, want):
    # want: the jump the constructor solved eagerly before it became lazy
    assert "discontinuity_z" not in vars(case)
    assert case.discontinuity_z == want
    assert case.discontinuity_z == profile_jump_location(case, VARIANT_LIMIT_DERIVED)


def test_jump_delta_residual(sym_third):
    from hopfcole.profiles import _branch_phase_case
    zc = sym_third.discontinuity_z
    yp = invert_branch(sym_third, BRANCH_PLUS, zc).y
    ym = invert_branch(sym_third, BRANCH_MINUS, zc).y
    d = (_branch_phase_case(sym_third, yp, VARIANT_LIMIT_DERIVED)
         - _branch_phase_case(sym_third, ym, VARIANT_LIMIT_DERIVED))
    assert abs(d) <= 1e-10


def test_printed_variant_has_no_tie(sym_third):
    with pytest.raises(TiePointError):
        profile_jump_location(sym_third, VARIANT_PRINTED)


@pytest.mark.parametrize("case", [
    *(ProfileCase(CASE_SYMMETRIC, kappa, alpha)
      for kappa in (0.5, 2.0) for alpha in (0.1, 1 / 3, 0.5, 0.8, 0.95)),
    ProfileCase(CASE_LOG_CORRECTED, 1.0, 0.5, 1.0),
], ids=lambda case: f"{case.case}-{case.kappa}-{case.alpha:.3g}")
def test_printed_variant_has_no_tie_across_the_class(case):
    # the printed branch phase is not the limit of Ht at a stationary
    # point, so the envelope slope does not apply to it; its sign-change
    # scan is the one path left on _first_sign_change, and finds no root
    with pytest.raises(TiePointError):
        profile_jump_location(case, VARIANT_PRINTED)


@pytest.mark.parametrize("alpha", [0.2, 1 / 3, 0.5, 0.8])
def test_jump_gap(alpha):
    case = ProfileCase(CASE_SYMMETRIC, 1.0, alpha)
    with pytest.raises(DiscontinuityError) as err:
        profile_value(case, case.discontinuity_z)
    gap = abs(err.value.left - err.value.right)
    assert gap >= 1e-3


@pytest.mark.parametrize("case", [
    ProfileCase(CASE_SYMMETRIC, 1.0, 1 / 3),
    ProfileCase(CASE_LOG_CORRECTED, 1.0, 1 / 3, 1.0),
    ProfileCase(CASE_SIGN_FLIPPED, 1.0, 0.5),
    ProfileCase(CASE_ASYMMETRIC, 1.0, 1 / 3, 2 / 3),
], ids=lambda case: case.case)
def test_discontinuity_error_carries_the_one_sided_limits(case):
    # at each jump (and at z = 0 for Asymmetric) left and right are the
    # profile one float to either side
    jumps = [case.discontinuity_z] + ([0.0] if case.case == CASE_ASYMMETRIC else [])
    for zc in jumps:
        with pytest.raises(DiscontinuityError) as err:
            profile_value(case, zc)
        assert err.value.z == zc
        for got, side in ((err.value.left, -np.inf), (err.value.right, np.inf)):
            want = profile_value(case, np.nextafter(zc, side))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300), (zc, side)


@pytest.mark.parametrize("kappa", [0.95, 1.0, 1.03, 1.047])
@pytest.mark.parametrize("alpha", [0.2, 1 / 3, 0.5, 0.8])
def test_sign_flipped_jump_is_exactly_zero(kappa, alpha):
    # g is odd and the branch phase even in y, so the tie is odd in z
    assert ProfileCase(CASE_SIGN_FLIPPED, kappa, alpha).discontinuity_z == 0.0


def _mp_jump(case):
    """The limit-derived tie of a cusp case at 40 digits: the branch roots
    by mpmath's bracketing solver, the tie by its secant from the float
    jump."""
    k, a = mpmath.mpf(case.kappa), mpmath.mpf(case.alpha)

    def root(z, lo, hi):
        return mpmath.findroot(lambda y: _mp_curve(case, y) - z, (lo, hi),
                               solver="anderson")

    def phase(y):
        return (-k * k / (4 * abs(y) ** (2 * a))
                - mpmath.sign(y) * k * abs(y) ** (1 - a) / (2 * (1 - a)))

    def delta(z):
        yp = root(z, mpmath.mpf(case.y0), z)
        if case.case == CASE_ASYMMETRIC:
            return phase(yp) + z * z / 4
        return phase(yp) - phase(root(z, -(abs(z) + 10), -mpmath.mpf(10) ** -12))

    return mpmath.findroot(delta, mpmath.mpf(case.discontinuity_z))


@pytest.mark.parametrize("kappa, alpha", [(1.0, 1 / 3), (1.03, 0.5), (0.966, 1 / 3), (1.0, 0.8)])
@pytest.mark.parametrize("name, beta", [
    (CASE_SYMMETRIC, None), (CASE_LOG_CORRECTED, 1.0), (CASE_ASYMMETRIC, 0.9)])
def test_jump_matches_a_40_digit_tie(name, beta, kappa, alpha):
    # the envelope-slope Newton stops at a step of 1e-15 (1 + |z|), so the
    # jump is good to a few ulps wherever the branch roots are
    case = ProfileCase(name, kappa, alpha, beta)
    with mpmath.workdps(40):
        ref = _mp_jump(case)
        assert abs(case.discontinuity_z - ref) <= 1e-15 * (1.0 + abs(ref))


def test_sign_flipped_jump_at_zero():
    # equal tail amplitudes force the tie to z = 0 (odd data gives an odd
    # solution, so the single jump must sit at the origin)
    sf = ProfileCase(CASE_SIGN_FLIPPED, 1.0, 0.5)
    assert abs(sf.discontinuity_z) <= 1e-9
    assert profile_value(sf, -2.0) > 0 > profile_value(sf, 2.0)
    assert profile_value(sf, -2.0) == pytest.approx(-profile_value(sf, 2.0), rel=1e-10)


def test_asymmetric_jump_and_profile():
    asym = ProfileCase(CASE_ASYMMETRIC, 1.0, 1 / 3, 2 / 3)
    ze = asym.discontinuity_z
    assert ze > 0
    assert profile_value(asym, -3.0) == 0.0
    assert profile_value(asym, ze / 2) == pytest.approx(ze / 2, rel=1e-12)
    above = profile_value(asym, ze + 1e-6)
    assert above != pytest.approx(ze, abs=1e-4)  # jump at z_e
    with pytest.raises(DiscontinuityError):
        profile_value(asym, 0.0)


def test_profile_symmetric_values(sym_third):
    assert profile_value(sym_third, 0.0) == pytest.approx(1.0, rel=1e-12)
    # far field: p(z) ~ kappa |z|^-alpha on both sides
    for z in (1e4, -1e4):
        v = profile_value(sym_third, z)
        assert abs(v * abs(z) ** (1 / 3) - 1.0) <= 1e-3


def test_profile_log_corrected_same_as_symmetric(sym_third):
    lc = ProfileCase(CASE_LOG_CORRECTED, 1.0, 1 / 3, beta=1.0)
    assert lc.discontinuity_z == pytest.approx(sym_third.discontinuity_z, rel=1e-12)
    for z in (-2.0, 0.5, 4.0):
        assert profile_value(lc, z) == pytest.approx(profile_value(sym_third, z), rel=1e-12)


# -- anomalous scale ---------------------------------------------------------


def test_scale_at_domain_edge():
    alpha = 1 / 3
    for beta in (0.5, 1.0, 2.0):
        assert log_corrected_scale(alpha, beta, math.exp(1 + alpha)) == pytest.approx(
            math.e, rel=1e-12)


def test_scale_beta_zero_exact():
    assert log_corrected_scale(1 / 3, 0.0, 1e8) == pytest.approx(1e8 ** 0.75, rel=1e-14)


def test_scale_defining_equation():
    for (alpha, beta, t) in ((1 / 3, 1.0, 1e12), (0.5, 2.0, 1e6), (0.7, 0.3, 1e9)):
        mu = log_corrected_scale(alpha, beta, t)
        assert abs(mu ** (1 + alpha) * math.log(mu) ** beta - t) <= 1e-10 * t


def test_scale_domain_error():
    with pytest.raises(ValueError):
        log_corrected_scale(1 / 3, 1.0, 2.0)


def test_scale_approaches_closed_form_asymptotic():
    # mu ~ t^{1/(1+alpha)} ((1+alpha)/ln t)^{beta/(1+alpha)}: log-slow, so
    # check the frozen oracle value at 1e12 and monotone approach to 1
    alpha, beta = 1 / 3, 1.0

    def ratio(t):
        mu = log_corrected_scale(alpha, beta, t)
        return mu * t ** -0.75 * (math.log(t) / (1 + alpha)) ** 0.75

    r12 = ratio(1e12)
    assert r12 == pytest.approx(1.0874, abs=2e-3)  # frozen from the solver
    assert ratio(1e8) > ratio(1e12) > ratio(1e20) > 1.0
