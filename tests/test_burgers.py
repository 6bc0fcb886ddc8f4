import math

import numpy as np
import pytest

from hopfcole import burgers
from hopfcole.initial_data import FamilySpec, make_family, negate_reflect


def test_constant_is_stationary(constant_07):
    for (x, t) in ((0.0, 1.0), (5.0, 100.0), (-2.0, 1e4)):
        assert burgers.eval(constant_07, x, t) == pytest.approx(0.7, rel=1e-10)


def test_zero_stays_zero(zero_data):
    assert burgers.eval(zero_data, 1.0, 7.0) == pytest.approx(0.0, abs=1e-12)


def test_t_zero_returns_initial_data(power_c1_half):
    assert burgers.eval(power_c1_half, 2.0, 0.0) == power_c1_half.value(2.0)


def test_small_t_continuity(power_c1_half, gaussian_data):
    # t -> 0+: the field approaches the initial data
    for data in (power_c1_half, gaussian_data):
        for x in np.linspace(-5, 5, 20):
            v = burgers.eval(data, float(x), 1e-4)
            assert abs(v - data.value(float(x))) <= 1e-2


def test_max_principle(power_c1_half, power_c0):
    for data in (power_c1_half, power_c0):
        for t in (1.0, 100.0, 1e4):
            for x in (-30.0, 0.0, 2.0, 500.0):
                assert abs(burgers.eval(data, x, t)) <= data.sup_abs * (1 + 1e-9)


def test_reflection_symmetry(power_c1_half):
    # f solves the equation iff -f(-x, t) does; with reflected data the two
    # evaluations agree to quadrature accuracy
    r = negate_reflect(power_c1_half)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(-50, 50)
        t = 10.0 ** rng.uniform(-1, 5)
        lhs = burgers.eval(r, x, t)
        rhs = -burgers.eval(power_c1_half, -x, t)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-13)


def test_derivative_vs_finite_difference(power_c1_half):
    # exact-mode d_x f against a central difference of eval, h = 1e-2
    x, t = 0.0, 1e3
    fx = burgers.derivative_fields(power_c1_half, x, t)["f_x"]
    h = 1e-2
    fd = (burgers.eval(power_c1_half, x + h, t, rel_tol=1e-11)
          - burgers.eval(power_c1_half, x - h, t, rel_tol=1e-11)) / (2 * h)
    assert fx == pytest.approx(fd, abs=1e-6)


def test_time_derivative_vs_finite_difference(power_c1_third):
    x, t = 1.0, 100.0
    ft = burgers.derivative_fields(power_c1_third, x, t)["f_t"]
    h = 1e-3 * t
    fd = (burgers.eval(power_c1_third, x, t + h, rel_tol=1e-11)
          - burgers.eval(power_c1_third, x, t - h, rel_tol=1e-11)) / (2 * h)
    assert ft == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_constant_derivatives_vanish(constant_07):
    fields = burgers.derivative_fields(constant_07, 1.0, 5.0)
    assert fields["f_x"] == pytest.approx(0.0, abs=1e-10)
    assert fields["f_t"] == pytest.approx(0.0, abs=1e-10)


def test_pde_residual_constant_and_zero(constant_07, zero_data):
    assert abs(burgers.pde_residual(constant_07, 0.3, 2.0)) <= 1e-12
    assert abs(burgers.pde_residual(zero_data, 0.3, 2.0)) <= 1e-12


@pytest.mark.parametrize("alpha", [1 / 3, 1 / 2, 0.8])
def test_pde_residual_power_c1(alpha):
    data = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=alpha))
    for (x, t) in ((1.0, 100.0), (-3.0, 10.0), (0.0, 1.0)):
        fields = burgers.derivative_fields(data, x, t)
        res = fields["f_t"] - fields["f_xx"] + fields["f"] * fields["f_x"]
        budget = 1e-6 * (1.0 + abs(fields["f_t"]) + abs(fields["f_xx"]))
        assert abs(res) <= budget


def test_batch_matches_pointwise(power_c1_half):
    xs = np.linspace(-60, 60, 31)
    t = 2.0
    vb = burgers.eval_batch(power_c1_half, xs, t)
    vp = np.asarray([burgers.eval(power_c1_half, float(x), t) for x in xs])
    assert np.allclose(vb, vp, rtol=1e-8, atol=1e-13)


def test_batch_multi_peak_fallback(power_c1_third):
    # at large t the phase is multi-peaked; the batch kernel takes every
    # maximum into account and must agree with the adaptive evaluator
    xs = np.asarray([0.0, 1e4, 5e4])
    t = 1e6
    vb = burgers.eval_batch(power_c1_third, xs, t)
    vp = np.asarray([burgers.eval(power_c1_third, float(x), t) for x in xs])
    assert np.allclose(vb, vp, rtol=1e-8)


def test_sup_norm_trivial(constant_07, zero_data):
    r = burgers.sup_norm(constant_07, 10.0, n_coarse=65)
    assert r.value == pytest.approx(0.7, rel=1e-9)
    r = burgers.sup_norm(zero_data, 10.0, n_coarse=65)
    assert r.value == pytest.approx(0.0, abs=1e-12)


def test_sup_norm_bracket_power_c0(power_c0):
    # two-sided decay bound: sup |f| ~ t^{-1/3} for alpha = 1/2
    t = 1e4
    r = burgers.sup_norm(power_c0, t, n_coarse=65)
    assert 0.1 <= r.value * t ** (1.0 / 3.0) <= 10.0
    assert r.value <= power_c0.sup_abs * (1 + 1e-6)


def test_sup_norm_validation(power_c0):
    with pytest.raises(ValueError):
        burgers.sup_norm(power_c0, 10.0, n_coarse=32)
    with pytest.raises(ValueError):
        burgers.sup_norm(power_c0, 10.0, Z=-1.0)


def test_pde_residual_other_c1_families():
    specs = [FamilySpec("PowerLog", kappa=1.0, alpha=1 / 3, beta=1.0),
             FamilySpec("SignFlipped", kappa=1.0, alpha=0.5),
             FamilySpec("Asymmetric", kappa=1.0, alpha=1 / 3, beta=2 / 3)]
    for spec in specs:
        data = make_family(spec)
        for (x, t) in ((0.7, 10.0), (-2.0, 200.0)):
            f = burgers.derivative_fields(data, x, t)
            res = f["f_t"] - f["f_xx"] + f["f"] * f["f_x"]
            assert abs(res) <= 1e-6 * (1.0 + abs(f["f_t"]) + abs(f["f_xx"]))


@pytest.mark.parametrize("t", [1e2, 1e3, 1e4, 1e5])
def test_fields_match_differences_of_eval_batch(power_c0, t):
    # f, f_x, f_xx and f_t on PowerC0, whose kink at y = 0 put a point mass
    # in f0'' that the quotient-rule fields left out (at t = 1e3,
    # z = 2.055 they read f_xx = +4.444e-3), against 5-point differences
    # of eval_batch at rel_tol 1e-13, in x with step 0.025 t^(1/3) and in t
    # with step 1e-3 t.  Each field meets 1e-6 of its difference plus 1e-9
    # of its scale, |f| over powers of the space scale t^(2/3) and of t
    m = t ** (2.0 / 3.0)
    zs = np.asarray([-1.5, 0.4, 1.0, 2.055, 3.0])
    xs = zs * m
    h = 0.025 * t ** (1.0 / 3.0)
    u = burgers.eval_batch(power_c0, (xs[:, None] + h * np.arange(-2.0, 3.0)).ravel(), t,
                           1e-13).reshape(-1, 5)
    ht = 1e-3 * t
    ut = np.stack([burgers.eval_batch(power_c0, xs, t + j * ht, 1e-13) for j in (-2, -1, 1, 2)],
                  axis=1)
    want = {"f": u[:, 2],
            "f_x": (8.0 * (u[:, 3] - u[:, 1]) - (u[:, 4] - u[:, 0])) / (12.0 * h),
            "f_xx": (16.0 * (u[:, 1] + u[:, 3]) - (u[:, 0] + u[:, 4]) - 30.0 * u[:, 2])
            / (12.0 * h * h),
            "f_t": (8.0 * (ut[:, 2] - ut[:, 1]) - (ut[:, 3] - ut[:, 0])) / (12.0 * ht)}
    got = burgers.derivative_fields_scorer(power_c0, t)(xs)
    scale = {"f": 1.0, "f_x": 1.0 / m, "f_xx": 1.0 / (m * m), "f_t": 1.0 / t}
    for name, w in want.items():
        size = np.abs(u[:, 2]) * scale[name]
        assert np.all(np.abs(got[name] - w) <= 1e-6 * np.abs(w) + 1e-9 * size), (name, got[name], w)
    if t == 1e3:
        assert got["f_xx"][3] == pytest.approx(-9.5645e-5, rel=1e-4)
