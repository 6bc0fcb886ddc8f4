import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erf

from hopfcole import profiles, quadrature, rescaled
from hopfcole.initial_data import FamilySpec, make_family, negate_reflect
from hopfcole.profiles import BRANCH_MIDDLE, BRANCH_MINUS, BRANCH_PLUS, invert_branch
from hopfcole.quadrature import KIND_DEGENERATE, KIND_MAX, KIND_MIN, PhysicalPhase
from hopfcole.rescaled import (
    TieWindowError,
    case_for_data,
    check_properties,
    concentration_ratio,
    critical_curve_finite,
    finite_branches,
    phase_tie_point,
    rescaled_critical_points,
    rescaled_phase,
)


@pytest.fixture
def locator_calls(monkeypatch):
    """The quadrature._batch_critical_points calls made while a test runs."""
    calls = []
    batch = quadrature._batch_critical_points
    monkeypatch.setattr(quadrature, "_batch_critical_points",
                        lambda *args: calls.append(args) or batch(*args))
    return calls


# -- rescaled phase ----------------------------------------------------------


def test_phase_zero_data(zero_data):
    assert rescaled_phase(zero_data, 1.0, 3.0, 10.0, 0) == pytest.approx(-1.0)
    assert rescaled_phase(zero_data, 1.0, 3.0, 10.0, 1) == pytest.approx(1.0)
    assert rescaled_phase(zero_data, 1.0, 3.0, 10.0, 2) == pytest.approx(-0.5)
    assert rescaled_phase(zero_data, 2.0, 2.0, 10.0, 0) == 0.0


def test_phase_derivative_convergence(power_c1_third):
    # dHt(-1, 0) -> (0 - g(-1))/2 = (0 - (-1 + 1))/2 = 0
    v = rescaled_phase(power_c1_third, -1.0, 0.0, 1e8, 1)
    assert abs(v) <= 1e-2


def test_phase_orders(zero_data):
    with pytest.raises(ValueError):
        rescaled_phase(zero_data, 1.0, 0.0, 1.0, 3)


def test_finite_curve(zero_data, constant_07, power_c1_third):
    assert critical_curve_finite(zero_data, 1.3, 9.0) == pytest.approx(1.3)
    # y + c t^{alpha/(1+alpha)} with the default sqrt scaling: y + c sqrt(t)
    got = critical_curve_finite(constant_07, 1.0, 16.0)
    assert got == pytest.approx(1.0 + 0.7 * 4.0)
    assert critical_curve_finite(power_c1_third, 1.0, 1e8) == pytest.approx(2.0, abs=1e-2)


def test_phase_identity_with_physical(power_c1_third):
    # exact change of variables between the physical and rescaled phases:
    # H(m y; m z) = (m^2 / t) Ht(y, z)
    t, z = 1e4, 1.7
    m = t ** 0.75
    ph = PhysicalPhase(power_c1_third, z * m, t)
    ys = np.linspace(-2, 2, 11)
    lhs = ph.total(ys * m)
    rhs = (m * m / t) * np.asarray([rescaled_phase(power_c1_third, float(y), z, t) for y in ys])
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_rescaled_critical_points_randomized():
    # every point solves z = g_t(y), and a non-degenerate one is a maximum
    # exactly where the rescaled phase is concave
    rng = np.random.default_rng(20261018)
    families = ("PowerC1", "SignFlipped", "Asymmetric", "PowerC0", "PowerLog")
    for i in range(300):
        family = families[i % len(families)]
        alpha = float(rng.uniform(0.2, 0.8))
        beta = {"Asymmetric": float(rng.uniform(alpha, 1.0)),
                "PowerLog": float(rng.uniform(0.5, 1.5))}.get(family)
        spec = FamilySpec(family, kappa=float(rng.uniform(0.5, 2.0)), alpha=alpha, beta=beta)
        data = make_family(spec)
        t = 10.0 ** rng.uniform(2.0, 8.0)
        z = float(rng.uniform(-6.0, 8.0))
        cps = rescaled_critical_points(data, z, t)
        assert sum(c.is_global_max for c in cps) == 1
        for c in cps:
            assert abs(z - critical_curve_finite(data, c.y, t)) <= 1e-12 * (1.0 + abs(z)), \
                (spec, t, z, c)
            if c.kind != KIND_DEGENERATE:
                concave = rescaled_phase(data, c.y, z, t, dy_order=2) < 0.0
                assert (c.kind == KIND_MAX) == concave, (spec, t, z, c)


# -- finite branches ---------------------------------------------------------


ASYMMETRIC = FamilySpec("Asymmetric", kappa=1.0, alpha=1.0 / 3.0, beta=2.0 / 3.0)


def test_finite_branches_are_the_pieces_randomized():
    # the branches and extras partition the critical points; minus is the
    # leftmost root and plus the rightmost, both maxima, and middle is a
    # minimum of a case with a cusp; a monotone g_t has no branch
    rng = np.random.default_rng(20261019)
    families = ("PowerC1", "SignFlipped", "Asymmetric", "PowerC0", "PowerLog")
    for i in range(200):
        family = families[i % len(families)]
        alpha = float(rng.uniform(0.2, 0.8))
        beta = {"Asymmetric": float(rng.uniform(alpha, 1.0)),
                "PowerLog": float(rng.uniform(0.5, 1.5))}.get(family)
        spec = FamilySpec(family, kappa=float(rng.uniform(0.5, 2.0)), alpha=alpha, beta=beta)
        data = make_family(spec)
        t = 10.0 ** rng.uniform(3.0, 8.0)
        z = float(rng.uniform(-6.0, 12.0))
        cps = rescaled_critical_points(data, z, t)
        bs = finite_branches(data, z, t)
        named = [s for s in (bs.minus, bs.plus, bs.middle) if s is not None]
        assert sorted([s.y for s in named] + [c.y for c in bs.extras]) == [c.y for c in cps]
        kind = {c.y: c.kind for c in cps}
        if bs.minus is not None:
            assert kind[bs.minus.y] != KIND_MIN and bs.minus.y == cps[0].y, (spec, t, z)
        if bs.plus is not None:
            assert kind[bs.plus.y] != KIND_MIN and bs.plus.y == cps[-1].y, (spec, t, z)
        if bs.middle is not None:
            assert kind[bs.middle.y] == KIND_MIN, (spec, t, z)
        if family == "SignFlipped":
            assert bs.middle is None
        if family == "PowerLog":
            continue  # its space scale mu(t) needs t >= e^(1+alpha)
        # at small t, G_t = y + t f0 is monotone: one piece, one root
        bs = finite_branches(data, z, 1e-2)
        assert bs.minus is None and bs.plus is None and bs.middle is None
        assert len(bs.extras) == 1 and bs.extras[0].pieces == 1, (spec, z)


def test_arrays_of_z_are_batches_of_one():
    # element i of an array call is the scalar call at z[i], field for field
    # and bit for bit, on z arrays that hold piece ends of g_t; the scalar
    # calls run after the array call, on whatever table it left behind
    rng = np.random.default_rng(20261020)
    families = ("PowerC1", "SignFlipped", "Asymmetric", "PowerC0", "PowerLog")
    for i in range(40):
        family = families[i % len(families)]
        alpha = float(rng.uniform(0.2, 0.8))
        beta = {"Asymmetric": float(rng.uniform(alpha, 1.0)),
                "PowerLog": float(rng.uniform(0.5, 1.5))}.get(family)
        spec = FamilySpec(family, kappa=float(rng.uniform(0.5, 2.0)), alpha=alpha, beta=beta)
        data = make_family(spec)
        t = 10.0 ** rng.uniform(2.0, 8.0)
        ends = quadrature._table(data, t, 0.0)[3] / rescaled.default_space_scale(data, t)
        zs = rng.uniform(-6.0, 12.0, int(rng.integers(1, 31)))
        at_end = rng.choice(zs.size, min(ends.size, zs.size), replace=False)
        zs[at_end] = ends[:zs.size]
        cps = rescaled_critical_points(data, zs, t)
        sets = finite_branches(data, zs, t)
        assert len(cps) == len(sets) == zs.size
        for z, got, bs in zip(zs, cps, sets):
            assert repr(got) == repr(rescaled_critical_points(data, float(z), t)), (spec, t, z)
            assert repr(bs) == repr(finite_branches(data, float(z), t)), (spec, t, z)
        # a piece end is a root outside every piece
        assert all(any(c.piece is None for c in cps[j]) for j in at_end), (spec, t)


def test_check_properties_makes_one_locator_call_per_z_grid(locator_calls, power_c1_third):
    check_properties(power_c1_third, 1e6)
    assert len(locator_calls) <= 7


def test_zero_data_goes_to_extras(zero_data):
    bs = finite_branches(zero_data, 2.0, 10.0)
    assert bs.minus is None and bs.plus is None and bs.middle is None
    assert len(bs.extras) == 1
    assert bs.extras[0].y == pytest.approx(2.0, abs=1e-10)


def test_branches_near_limits(power_c1_third):
    case = case_for_data(power_c1_third)
    z = case.g_y0 + 1.0
    bs = finite_branches(power_c1_third, z, 1e8)
    for branch in (BRANCH_MINUS, BRANCH_PLUS, BRANCH_MIDDLE):
        sol = bs.get(branch)
        assert sol is not None
        assert sol.residual <= 1e-10
        assert abs(sol.y - invert_branch(case, branch, z).y) <= 1e-2
    assert bs.minus.y < 0


def test_branches_below_cusp(power_c1_third):
    case = case_for_data(power_c1_third)
    bs = finite_branches(power_c1_third, case.g_y0 - 0.5, 1e8)
    assert bs.minus is not None
    assert bs.plus is None and bs.middle is None


def test_branch_set_invariants(power_c1_third):
    for z in (-3.0, 0.0, 2.5, 4.0):
        bs = finite_branches(power_c1_third, z, 1e6)
        for branch in (BRANCH_MINUS, BRANCH_PLUS, BRANCH_MIDDLE):
            sol = bs.get(branch)
            if sol is not None:
                assert abs(critical_curve_finite(power_c1_third, sol.y, 1e6) - z) <= 1e-10


# -- tie point ---------------------------------------------------------------


def test_tie_point_window_and_convergence(power_c1_third):
    case = case_for_data(power_c1_third)
    z4 = phase_tie_point(power_c1_third, 1e4)
    z6 = phase_tie_point(power_c1_third, 1e6)
    assert case.g_y0 < z6 < 10.0
    # Cauchy behavior: the dyadic increments shrink toward the limit
    assert abs(z6 - case.discontinuity_z) < abs(z4 - case.discontinuity_z)
    assert abs(z6 - case.discontinuity_z) <= 0.05


def test_tie_point_never_solves_the_limit_jump(monkeypatch, power_c1_third):
    # the limit jump of a case is solved on first read only; the finite-time
    # tie search builds a case on every call and never reads it
    calls = []
    solve = profiles.profile_jump_location
    monkeypatch.setattr(profiles, "profile_jump_location",
                        lambda *args: calls.append(args) or solve(*args))
    phase_tie_point(power_c1_third, 1e4)
    assert calls == []
    case = case_for_data(power_c1_third)
    first = case.discontinuity_z
    assert case.discontinuity_z == first  # the second read is cached
    assert len(calls) == 1


@pytest.mark.parametrize("spec", [ASYMMETRIC, FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0)],
                         ids=lambda spec: spec.family)
def test_tie_difference_sign_structure(spec):
    # the branch phase difference changes sign across the tie and is
    # strictly monotone (increasing) on the window; on Asymmetric data the
    # minus branch right of the cusp is the left maximum near y = 0
    data = make_family(spec)
    t = 1e6
    zc = phase_tie_point(data, t)
    case = case_for_data(data)

    def diff(z):
        bs = finite_branches(data, z, t)
        return (rescaled_phase(data, bs.plus.y, z, t)
                - rescaled_phase(data, bs.minus.y, z, t))

    zs = np.linspace(case.g_y0 + 0.15, 6.0, 12)
    vals = [diff(float(z)) for z in zs]
    assert np.all(np.diff(vals) > 0)
    assert diff(zc - 0.1) < 0 < diff(zc + 0.1)


def test_asymmetric_tie_converges_to_the_jump():
    # the plus branch ties against the left maximum, which tends to y = 0;
    # the gap to the limit jump z_c = 2 was 1.55e-2, 9.6e-3, 5.0e-3, 2.4e-3
    # and 1.1e-3 at t = 1e4 ... 1e8, shrinking by a factor 1.6 to 2.2 a
    # decade (0.21 to 0.34 in log10)
    data = make_family(ASYMMETRIC)
    zc = case_for_data(data).discontinuity_z
    gaps = [abs(phase_tie_point(data, t) - zc) for t in (1e4, 1e5, 1e6, 1e7, 1e8)]
    assert all(a > 1.5 * b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[2] <= 0.01  # t = 1e6


def test_branch_phase_derivative_identity(power_c1_third):
    # d/dz of the branch phase value equals -(z - y_branch)/2: at finite t
    # (on Asymmetric data the minus branch is the left maximum near y = 0)
    # and for the limit-derived branch phase, so the tie difference has the
    # slope (y_plus - y_minus)/2 that envelope_tie steps by
    t = 1e6
    h = 1e-4
    for data in (power_c1_third, make_family(ASYMMETRIC)):
        for z in (2.5, 3.5):
            for branch in (BRANCH_MINUS, BRANCH_PLUS):
                def hval(zz):
                    bs = finite_branches(data, zz, t)
                    return rescaled_phase(data, bs.get(branch).y, zz, t)

                fd = (hval(z + h) - hval(z - h)) / (2 * h)
                yb = finite_branches(data, z, t).get(branch).y
                assert fd == pytest.approx(-0.5 * (z - yb), abs=1e-6), (data.spec, z, branch)
    for case in (profiles.ProfileCase(profiles.CASE_SYMMETRIC, 1.0, 1 / 3),
                 profiles.ProfileCase(profiles.CASE_LOG_CORRECTED, 1.0, 1 / 3, 1.0)):
        for z in (2.5, 3.5):
            for branch in (BRANCH_MINUS, BRANCH_PLUS):
                def hlim(zz):
                    y = invert_branch(case, branch, zz).y
                    return profiles._branch_phase_case(case, y, profiles.VARIANT_LIMIT_DERIVED)

                fd = (hlim(z + h) - hlim(z - h)) / (2 * h)
                yb = invert_branch(case, branch, z).y
                assert fd == pytest.approx(-0.5 * (z - yb), abs=1e-8), (case, z, branch)


@pytest.mark.parametrize("t", [1e4, 1e6])
@pytest.mark.parametrize("spec", [
    FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0),
    ASYMMETRIC,
    FamilySpec("PowerLog", kappa=1.0, alpha=1.0 / 3.0, beta=0.5),
    FamilySpec("PowerC0", kappa=1.0, alpha=0.5),
    FamilySpec("SignFlipped", kappa=1.0, alpha=0.5),
], ids=lambda spec: spec.family)
def test_tie_point_is_the_tight_root(locator_calls, spec, t):
    # the envelope-slope Newton lands within a few ulps of a Brent solve at
    # xtol 1e-15 and takes at most 8 locator calls (one a step)
    data = make_family(spec)
    zc = phase_tie_point(data, t)
    assert len(locator_calls) <= 8

    def diff(z):
        bs = finite_branches(data, z, t)
        return (rescaled_phase(data, bs.plus.y, z, t)
                - rescaled_phase(data, bs.minus.y, z, t))

    ref = brentq(diff, zc - 1e-3, zc + 1e-3, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert abs(zc - ref) <= 1e-14 * (1.0 + abs(zc)), (zc, ref)


@pytest.mark.parametrize("spec", [FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0), ASYMMETRIC],
                         ids=lambda spec: spec.family)
def test_tie_point_halves_a_first_step_past_the_minus_branch(spec):
    # at t = 30 the minus branch ends below g(y0) + 1, so the first step
    # from the cusp is halved back until both branches exist
    data = make_family(spec)
    t = 30.0
    g_y0 = case_for_data(data).g_y0
    assert finite_branches(data, g_y0 + 1.0, t).minus is None
    zc = phase_tie_point(data, t)
    assert g_y0 < zc < g_y0 + 1.0
    bs = finite_branches(data, zc, t)
    diff = rescaled_phase(data, bs.plus.y, zc, t) - rescaled_phase(data, bs.minus.y, zc, t)
    assert abs(diff) <= 1e-14, diff


def test_tie_point_starts_inside_a_window_left_of_the_cusp():
    # at t = 10.9 both branches exist only on a window left of g(y0), so
    # the Newton starts at the window midpoint
    data = make_family(FamilySpec("PowerC0", kappa=0.726, alpha=0.310))
    t = 10.9
    ends = quadrature._table(data, t, 0.0)[3] / rescaled.default_space_scale(data, t)
    assert ends[-1] < ends[0] < case_for_data(data).g_y0
    zc = phase_tie_point(data, t)
    assert ends[-1] < zc < ends[0]
    bs = finite_branches(data, zc, t)
    diff = rescaled_phase(data, bs.plus.y, zc, t) - rescaled_phase(data, bs.minus.y, zc, t)
    assert abs(diff) <= 1e-14, diff


def test_tie_point_raises_at_once_on_an_empty_window(locator_calls, power_c1_third):
    # at t = 1 g_t is monotone: no z has both branches, and no locator call is made
    with pytest.raises(TieWindowError, match=r"window \[.*\] is empty"):
        phase_tie_point(power_c1_third, 1.0)
    assert locator_calls == []


def test_tie_error_for_family_without_case(zero_data):
    with pytest.raises(ValueError):
        phase_tie_point(zero_data, 100.0)


# -- property report ---------------------------------------------------------


def test_properties_degenerate(zero_data):
    rep = check_properties(zero_data, 10.0)
    assert rep.degenerate
    assert rep.all_pass()
    blob = rep.to_json()
    assert set(blob) == {f"property_{i}" for i in range(1, 10)} | {"degenerate"}


def test_properties_power_c1(power_c1_third):
    rep = check_properties(power_c1_third, 1e6)
    assert not rep.degenerate
    assert rep.all_pass(), {k: v for k, v in rep.properties.items() if not v["pass"]}
    # property 9 measures a positive concavity floor
    assert rep.properties["property_9"]["details"]["C1"] > 0
    # property 3 bound holds with nonnegative margin
    assert rep.properties["property_3"]["margin"] >= 0
    blob = json.dumps(rep.to_json())
    assert "property_1" in blob


@pytest.mark.parametrize("t", [1e6, 1e8])
def test_properties_pass_on_asymmetric_data(t):
    # the left maximum on the first piece at z > 0 is within twice the
    # rescaled amplitude of the beta tail of y = 0
    rep = check_properties(make_family(ASYMMETRIC), t)
    assert rep.all_pass(), {k: v for k, v in rep.properties.items() if not v["pass"]}


def test_property_6_keeps_a_stray_off_the_identity_branch():
    # at t = 1e4 the root at z = -0.43 is 0.145 off the minus branch y = z
    rep = check_properties(make_family(ASYMMETRIC), 1e4)
    (z, y), = rep.properties["property_6"]["details"]["stray_points"]
    assert z < 0.0 and abs(y - z) == pytest.approx(0.145, abs=1e-3)


def test_properties_json_keys_fixed(power_c1_third):
    rep = check_properties(power_c1_third, 1e4)
    blob = rep.to_json()
    for i in range(1, 10):
        entry = blob[f"property_{i}"]
        assert set(entry) == {"pass", "margin", "details"}


# -- concentration -----------------------------------------------------------


def test_concentration_zero_data_closed_form(zero_data):
    # pure Gaussian: the strip mass is erf(mu / (2 sqrt(t)) ...) exactly
    r = concentration_ratio(zero_data, 0.0, 1.0, -1.0, 1.0)
    assert r.ratio == pytest.approx(float(erf(0.5)), abs=1e-8)
    r2 = concentration_ratio(zero_data, 0.0, 4.0, -1.0, 1.0)
    # T = sqrt(t) = 2, kernel variance 2t = 8: erf(2 / sqrt(8) / sqrt(2))
    assert r2.ratio == pytest.approx(float(erf(2.0 / (2.0 * 2.0))), abs=1e-8)


def test_concentration_bounds_and_monotonicity(power_c0):
    reflected = negate_reflect(power_c0)
    ratios = []
    c0s = []
    for t in (1e2, 1e3, 1e4, 1e5, 1e6):
        r = concentration_ratio(reflected, 0.0, t, -0.1, 0.1)
        assert 0.0 <= r.ratio <= 1.0
        ratios.append(r.ratio)
        c0s.append(r.c0)
    assert all(a > b for a, b in zip(ratios[:-1], ratios[1:]))
    # scaled maximum stays bounded in time
    assert max(map(abs, c0s)) < 10.0


def test_concentration_reflects_positive_data(power_c0):
    # positive families are reflected internally; both orientations give
    # the same ratio at x = 0 by symmetry
    a = concentration_ratio(power_c0, 0.0, 100.0, -0.1, 0.1)
    b = concentration_ratio(negate_reflect(power_c0), 0.0, 100.0, -0.1, 0.1)
    assert a.ratio == pytest.approx(b.ratio, rel=1e-9)


def test_concentration_far_below_the_peak(power_c0):
    # the strip lies about 98 e-folds below the peak of the phase, beyond
    # any full-line truncation: the window has its own max subtraction
    r = concentration_ratio(negate_reflect(power_c0), 0.0, 1e7, -0.1, 0.1)
    assert r.log_ratio == pytest.approx(-98.1780342861395, rel=1e-9)  # QUADPACK


def test_concentration_validation(zero_data):
    with pytest.raises(ValueError):
        concentration_ratio(zero_data, 0.0, 1.0, 0.1, 0.2)


def test_concentration_decay_law(power_c0):
    reflected = negate_reflect(power_c0)
    ts = 10.0 ** np.arange(2.0, 5.01, 0.5)
    logs = []
    for t in ts:
        logs.append(concentration_ratio(reflected, 0.0, float(t), -0.1, 0.1).log_ratio)
    xvar = ts ** ((1 - 0.5) / (1 + 0.5))
    corr = np.corrcoef(xvar, logs)[0, 1]
    assert corr <= -0.99


def test_tie_point_dyadic_cauchy(power_c1_third):
    # |tie(4t) - tie(t)| shrinks along a dyadic sweep
    ties = [phase_tie_point(power_c1_third, t) for t in (1e4, 4e4, 1.6e5, 6.4e5)]
    incs = [abs(b - a) for a, b in zip(ties[:-1], ties[1:])]
    assert incs[0] > incs[1] > incs[2]


def test_concentration_four_x_regimes(power_c0):
    # probe x in all four analysis regimes; the quadrature is regime
    # agnostic and the ratio stays a proper fraction
    reflected = negate_reflect(power_c0)
    t = 1e4
    T = t ** (2.0 / 3.0)
    eps = 0.05
    for x in (0.5 * eps * T, 2.0 * eps * T, -3.0 * eps * T, -T / eps):
        r = concentration_ratio(reflected, float(x), t, -0.1, 0.1)
        assert 0.0 <= r.ratio <= 1.0
        assert math.isfinite(r.c0)
