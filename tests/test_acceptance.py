"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantities.

The sweeps are shared through session fixtures where criteria overlap
(decay fits feed the enhanced-dissipation and max-principle checks).
"""
import math

import numpy as np
import pytest

from hopfcole import burgers, heat, finite_difference
from hopfcole.initial_data import FamilySpec, make_family, negate_reflect
from hopfcole.experiments import ExperimentConfig, fit_power_law, run_derivative_decay
from hopfcole.profiles import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    BRANCH_MIDDLE,
    CASE_SYMMETRIC,
    DiscontinuityError,
    ProfileCase,
    TiePointError,
    VARIANT_LIMIT_DERIVED,
    VARIANT_PRINTED,
    critical_curve_limit,
    cusp,
    invert_branch,
    log_corrected_scale,
    profile_jump_location,
    profile_value,
)
from hopfcole.rescaled import case_for_data, concentration_ratio, phase_tie_point


ACCEPTANCE_LINES = []


def _report(num, ok, detail):
    line = f"[acceptance {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)  # echoed by the terminal-summary hook
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def decay_sweeps():
    """sup-norm sweeps over t in [1e3, 1e7], 13 log-spaced points, for
    PowerC0 with alpha in {1/2, 1/3}, both equations."""
    ts = np.geomspace(1e3, 1e7, 13)
    out = {}
    for alpha in (0.5, 1.0 / 3.0):
        data = make_family(FamilySpec("PowerC0", kappa=1.0, alpha=alpha))
        for eq, fn in (("burgers", burgers.sup_norm), ("heat", heat.heat_sup_norm)):
            sups = [fn(data, float(t), n_coarse=65) for t in ts]
            out[(alpha, eq)] = (ts, [s.value for s in sups], data.sup_abs)
    return out


def _fit(ts, vals):
    return fit_power_law(list(zip(ts, vals))).exponent


def test_criterion_01_burgers_decay_exponent(decay_sweeps):
    msgs = []
    ok = True
    for alpha, want in ((0.5, 1.0 / 3.0), (1.0 / 3.0, 0.25)):
        ts, vals, _ = decay_sweeps[(alpha, "burgers")]
        got = _fit(ts, vals)
        ok = ok and abs(got - want) <= 0.02
        msgs.append(f"alpha={alpha:.3g}: fitted {got:.4f} vs {want:.4f}")
    _report(1, ok, "; ".join(msgs))


def test_criterion_02_heat_decay_exponent(decay_sweeps):
    msgs = []
    ok = True
    for alpha in (0.5, 1.0 / 3.0):
        ts, vals, _ = decay_sweeps[(alpha, "heat")]
        got = _fit(ts, vals)
        want = alpha / 2.0
        ok = ok and abs(got - want) <= 0.02
        msgs.append(f"alpha={alpha:.3g}: fitted {got:.4f} vs {want:.4f}")
    _report(2, ok, "; ".join(msgs))


def test_criterion_03_enhanced_dissipation(decay_sweeps):
    msgs = []
    ok = True
    for alpha in (1.0 / 3.0, 0.5):
        eb = _fit(*decay_sweeps[(alpha, "burgers")][:2])
        eh = _fit(*decay_sweeps[(alpha, "heat")][:2])
        gap = eb - eh
        ok = ok and gap >= 0.05
        msgs.append(f"alpha={alpha:.3g}: burgers {eb:.4f} - heat {eh:.4f} = {gap:.4f}")
    _report(3, ok, "; ".join(msgs))


def test_criterion_04_profile_convergence():
    data = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0))
    case = case_for_data(data)
    zc = case.discontinuity_z
    zs = [float(z) for z in np.arange(-5.0, 5.001, 0.25) if abs(z - zc) > 0.25]
    sups = {}
    for t in (1e6, 1e8):
        m, amp = t ** 0.75, t ** 0.25
        errs = [abs(amp * burgers.eval(data, z * m, t) - profile_value(case, z))
                for z in zs]
        sups[t] = max(errs)
    ok_sup = sups[1e8] <= 0.05
    measured = math.log(sups[1e6] / sups[1e8]) / math.log(100.0)
    # the known convergence rate (1-alpha)/(2(1+alpha)) = 0.25 is an upper bound on
    # the error, so the measured two-time exponent may only be checked
    # one-sidedly against it
    ok_rate = measured >= 0.25 - 0.1
    _report(4, ok_sup and ok_rate,
            f"sup err(1e8) = {sups[1e8]:.4g} (tol 0.05); "
            f"two-time exponent {measured:.3f} vs bound rate 0.25 - 0.1 "
            f"(faster is consistent)")


def test_criterion_05_jump_location_consistency():
    msgs = []
    ok = True
    for alpha in (1.0 / 3.0, 0.5):
        data = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=alpha))
        case = case_for_data(data)
        z_lim = profile_jump_location(case, VARIANT_LIMIT_DERIVED)
        z_fin = phase_tie_point(data, 1e6)
        ok = ok and abs(z_fin - z_lim) <= 0.05
        try:
            z_pr = profile_jump_location(case, VARIANT_PRINTED)
            printed = f"printed delta {z_pr - z_lim:+.4f}"
        except TiePointError:
            printed = "printed variant: no root (reported)"
        msgs.append(f"alpha={alpha:.3g}: |tie(1e6) - limit| = "
                    f"{abs(z_fin - z_lim):.4g}; {printed}")
    _report(5, ok, "; ".join(msgs))


def test_criterion_06_pde_residual():
    worst = 0.0
    ok = True
    for alpha in (1.0 / 3.0, 0.5, 0.8):
        data = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=alpha))
        for x in np.linspace(-10.0, 10.0, 5):
            for t in np.geomspace(1.0, 1e4, 5):
                f = burgers.derivative_fields(data, float(x), float(t))
                res = f["f_t"] - f["f_xx"] + f["f"] * f["f_x"]
                budget = 1e-6 * (1.0 + abs(f["f_t"]) + abs(f["f_xx"]))
                worst = max(worst, abs(res) / budget)
                ok = ok and abs(res) <= budget
    _report(6, ok, f"worst |residual|/budget = {worst:.3g} over 75 probes")


def test_criterion_07_fd_oracle_equivalence():
    data = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=0.5))
    # the acceptance spacing is dx = 0.0125 (16001 nodes across a width-200
    # domain); the module's L argument is the half-width
    d1, d2 = finite_difference.compare_halved_dx(data, 2.0, 100.0, 16001)
    ratio = d1 / d2
    ok = d1 <= 5e-4 and 1.4 <= ratio <= 2.6
    # the same comparison at dx = 0.025 is reported for completeness
    d_wide = finite_difference.compare_to_hopf_cole(data, 2.0, 200.0, 16001)
    _report(7, ok,
            f"dx=0.0125: max discrepancy {d1:.4g} (tol 5e-4), halving ratio "
            f"{ratio:.3f}; [dx=0.025 reading: {d_wide:.4g}, reported only]")


def test_criterion_08_max_principle_and_symmetry(decay_sweeps):
    ok = True
    worst = 0.0
    for key, (ts, vals, sup_abs) in decay_sweeps.items():
        bound = sup_abs * (1.0 + 1e-6)
        worst = max(worst, max(vals) / bound)
        ok = ok and all(v <= bound for v in vals)
    data = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=0.5))
    reflected = negate_reflect(data)
    rng = np.random.default_rng(20240511)
    worst_rel = 0.0
    for _ in range(50):
        x = rng.uniform(-50.0, 50.0)
        t = 10.0 ** rng.uniform(-1.0, 5.0)
        lhs = burgers.eval(reflected, x, t)
        rhs = -burgers.eval(data, -x, t)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        worst_rel = max(worst_rel, rel)
        ok = ok and rel <= 1e-8
    _report(8, ok, f"max sup/bound = {worst:.6f}; "
                   f"worst reflection mismatch = {worst_rel:.2e} (tol 1e-8)")


def test_criterion_09_concentration_law():
    data = negate_reflect(make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5)))
    ts = 10.0 ** np.arange(2.0, 5.001, 0.5)
    ratios, logs = [], []
    for t in ts:
        r = concentration_ratio(data, 0.0, float(t), -0.1, 0.1)
        ratios.append(r.ratio)
        logs.append(r.log_ratio)
    decreasing = all(a > b for a, b in zip(ratios[:-1], ratios[1:]))
    corr = float(np.corrcoef(ts ** ((1 - 0.5) / (1 + 0.5)), logs)[0, 1])
    ok = decreasing and corr <= -0.99
    _report(9, ok, f"strictly decreasing: {decreasing}; corr(log ratio, "
                   f"t^(1/3)) = {corr:.5f} (tol <= -0.99)")


def test_criterion_10_branch_and_limit_objects():
    case = ProfileCase(CASE_SYMMETRIC, 1.0, 1.0 / 3.0)
    # inversion residuals on 1e3 samples per branch
    worst = 0.0
    zs = np.concatenate([np.linspace(-100.0, 100.0, 500),
                         np.geomspace(1e-2, 1e4, 500)])
    for z in zs:
        worst = max(worst, invert_branch(case, BRANCH_MINUS, float(z)).residual
                    / (1.0 + abs(z)))
    zsp = case.g_y0 + np.geomspace(1e-9, 1e4, 1000)
    for z in zsp:
        worst = max(worst, invert_branch(case, BRANCH_PLUS, float(z)).residual
                    / (1.0 + abs(z)))
        worst = max(worst, invert_branch(case, BRANCH_MIDDLE, float(z)).residual
                    / (1.0 + abs(z)))
    ok = worst <= 1e-12
    # cusp stationarity by finite difference
    y0, _ = cusp(1.0, 1.0 / 3.0)
    h = 1e-6 * y0
    slope = (critical_curve_limit(case, y0 + h)
             - critical_curve_limit(case, y0 - h)) / (2.0 * h)
    ok = ok and abs(slope) <= 1e-8
    # y_minus(0) = -kappa^{1/(1+alpha)}
    y_minus_err = 0.0
    for kappa, alpha in ((1.0, 1.0 / 3.0), (2.0, 0.5), (0.7, 0.8)):
        c = ProfileCase(CASE_SYMMETRIC, kappa, alpha)
        want = -(kappa ** (1.0 / (1.0 + alpha)))
        y_minus_err = max(y_minus_err,
                          abs(invert_branch(c, BRANCH_MINUS, 0.0).y - want))
    ok = ok and y_minus_err <= 1e-12
    # jump gap for four alphas
    gaps = {}
    for alpha in (0.2, 1.0 / 3.0, 0.5, 0.8):
        c = ProfileCase(CASE_SYMMETRIC, 1.0, alpha)
        try:
            profile_value(c, c.discontinuity_z)
            gaps[alpha] = 0.0
        except DiscontinuityError as err:
            gaps[alpha] = abs(err.left - err.right)
    ok = ok and all(g >= 1e-3 for g in gaps.values())
    _report(10, ok,
            f"worst inversion residual {worst:.2e} (tol 1e-12); |g'(y0)| = "
            f"{abs(slope):.2e}; y_minus(0) err {y_minus_err:.2e}; jump gaps "
            + ", ".join(f"a={a:.3g}: {g:.4f}" for a, g in gaps.items()))


def test_criterion_11_variant_profiles():
    msgs = []
    ok = True
    # Asymmetric tails (alpha right, beta left)
    asym = make_family(FamilySpec("Asymmetric", kappa=1.0, alpha=1.0 / 3.0,
                                  beta=2.0 / 3.0))
    acase = case_for_data(asym)
    ze = acase.discontinuity_z
    t = 1e8
    m, amp = t ** 0.75, t ** 0.25
    v_neg = amp * burgers.eval(asym, -2.0 * m, t)
    v_mid = amp * burgers.eval(asym, 0.5 * ze * m, t)
    ok = ok and abs(v_neg) <= 0.02 and abs(v_mid - 0.5 * ze) <= 0.05
    msgs.append(f"asymmetric: |f~(-2)| = {abs(v_neg):.4g} (tol 0.02), "
                f"|f~(ze/2) - ze/2| = {abs(v_mid - 0.5 * ze):.4g} (tol 0.05)")
    # log-corrected scaling: monotone improvement only
    pl = make_family(FamilySpec("PowerLog", kappa=1.0, alpha=1.0 / 3.0, beta=1.0))
    pcase = case_for_data(pl)
    target = profile_value(pcase, -1.0)
    errs = []
    for tt in (1e6, 1e8, 1e10):
        mu = log_corrected_scale(1.0 / 3.0, 1.0, tt)
        errs.append(abs((tt / mu) * burgers.eval(pl, -mu, tt) - target))
    mono = errs[0] > errs[1] > errs[2]
    ok = ok and mono
    msgs.append(f"log-corrected errs {[f'{e:.4f}' for e in errs]} decreasing: {mono}")
    # sign-flipped tails: locate the jump, then match the profile outside it
    sf = make_family(FamilySpec("SignFlipped", kappa=1.0, alpha=1.0 / 3.0))
    scase = case_for_data(sf)
    zd = phase_tie_point(sf, 1e6)
    sup_err = 0.0
    for z in np.arange(-5.0, 5.001, 0.5):
        if abs(z - zd) <= 0.25:
            continue
        v = amp * burgers.eval(sf, float(z) * m, t)
        sup_err = max(sup_err, abs(v - profile_value(scase, float(z))))
    ok = ok and sup_err <= 0.05
    msgs.append(f"sign-flipped: jump at {zd:.4g} (limit {scase.discontinuity_z:.4g}), "
                f"sup err {sup_err:.4g} (tol 0.05)")
    _report(11, ok, "; ".join(msgs))


def test_criterion_12_derivative_decay(tmp_path):
    fam = FamilySpec("PowerC0", kappa=1.0, alpha=0.5)
    cfg = ExperimentConfig(experiment="ddecay", family=fam, equation="burgers",
                           t_min=1e3, t_max=1e7, t_count=13, n=0, k=1,
                           n_coarse=65, out_dir=str(tmp_path))
    out_b = run_derivative_decay(cfg)
    scaled = np.asarray(out_b["results"]["scaled_values"])
    bounded = scaled[-1] <= 2.0 * float(np.median(scaled))
    cfg_h = ExperimentConfig(experiment="ddecay", family=fam, equation="heat",
                             t_min=1e3, t_max=1e7, t_count=13, n=0, k=1,
                             n_coarse=65, out_dir=str(tmp_path))
    out_h = run_derivative_decay(cfg_h)
    exp_h = out_h["results"]["fit"].exponent
    ok = bounded and abs(exp_h - 0.75) <= 0.05
    _report(12, ok,
            f"burgers sup*t^(2/3): final {scaled[-1]:.4f} vs 2x median "
            f"{2 * np.median(scaled):.4f}; heat exponent {exp_h:.4f} vs 0.75 +- 0.05")


def test_criterion_13_heat_profile():
    data = make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5))
    zs = np.linspace(-4.0, 4.0, 33)
    prof = {float(z): heat.heat_limit_profile(float(z), 1.0, 0.5) for z in zs}
    sups = {}
    for t in (1e4, 1e6):
        sups[t] = max(abs(t ** 0.25 * heat.heat_eval(data, float(z) * math.sqrt(t), t)
                          - prof[float(z)]) for z in zs)
    from scipy.special import gamma
    center = heat.heat_limit_profile(0.0, 1.0, 0.5)
    closed = 2.0 ** -0.5 * gamma(0.25) / math.sqrt(math.pi)
    ok = sups[1e6] < sups[1e4] and abs(center - closed) <= 1e-6
    _report(13, ok,
            f"sup err: {sups[1e4]:.4g} (t=1e4) -> {sups[1e6]:.4g} (t=1e6); "
            f"profile(0) vs Gamma form: {abs(center - closed):.2e} (tol 1e-6)")
