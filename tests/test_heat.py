import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gamma

from hopfcole import heat
from hopfcole.initial_data import FamilySpec, UnsupportedOrderError, make_family

from conftest import brute_force_ratio


def test_constant(constant_07):
    for (x, t) in ((0.0, 1.0), (3.0, 50.0)):
        assert heat.heat_eval(constant_07, x, t) == pytest.approx(0.7, rel=1e-10)


def test_gaussian_closed_form(gaussian_data):
    # Gaussian-Gaussian convolution: sqrt(1/(1+t)) exp(-x^2/(4(1+t)))
    for (x, t) in ((0.0, 1.0), (0.5, 3.0), (2.0, 10.0), (-6.0, 100.0)):
        got = heat.heat_eval(gaussian_data, x, t)
        want = math.sqrt(1.0 / (1.0 + t)) * math.exp(-x * x / (4.0 * (1.0 + t)))
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("t", [2.0, 9.0])
def test_gaussian_closed_form_far_tail(gaussian_data, t):
    # at |x| = 30 the value is ~1e-33 of the heat kernel's mass; both the
    # adaptive and the batch path must keep relative accuracy there
    xs = np.linspace(-30.0, 30.0, 61)
    want = np.sqrt(1.0 / (1.0 + t)) * np.exp(-xs ** 2 / (4.0 * (1.0 + t)))
    got = np.asarray([heat.heat_eval(gaussian_data, float(x), t) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=0.0)
    got_batch = heat.heat_eval_batch(gaussian_data, xs, t)
    np.testing.assert_allclose(got_batch, want, rtol=1e-7, atol=0.0)


def test_power_c0_scaling_bracket(power_c0):
    t = 1e4
    v = heat.heat_eval(power_c0, 0.0, t)
    assert 0.2 <= v * t ** 0.25 <= 5.0


def test_heat_vs_brute_force(power_c0):
    zero = make_family(FamilySpec("Zero"))

    class _Mix:
        # oracle phase uses the zero data, weight is f0
        pass

    t = 50.0
    got = heat.heat_eval(power_c0, 1.0, t)
    # direct trapezoid on the Gaussian weight
    y = np.linspace(1.0 - 200.0, 1.0 + 200.0, 2_000_001)
    w = np.exp(-((1.0 - y) ** 2) / (4.0 * t))
    want = float(np.trapezoid(w * power_c0.value(y), y) / np.trapezoid(w, y))
    assert got == pytest.approx(want, rel=1e-8)


def test_derivative_trivial(constant_07, gaussian_data):
    assert heat.heat_derivative(constant_07, 1.0, 5.0, 0, 1) == pytest.approx(0.0, abs=1e-10)
    assert heat.heat_derivative(gaussian_data, 0.0, 3.0, 0, 1) == pytest.approx(0.0, abs=1e-10)


def test_derivative_vs_finite_difference(power_c1_half):
    x, t = 0.3, 50.0
    d = heat.heat_derivative(power_c1_half, x, t, 0, 1)
    h = 1e-3
    fd = (heat.heat_eval(power_c1_half, x + h, t) - heat.heat_eval(power_c1_half, x - h, t)) / (2 * h)
    assert d == pytest.approx(fd, abs=1e-6)
    dt = heat.heat_derivative(power_c1_half, x, t, 1, 0)
    ht = 1e-2
    fdt = (heat.heat_eval(power_c1_half, x, t + ht) - heat.heat_eval(power_c1_half, x, t - ht)) / (2 * ht)
    assert dt == pytest.approx(fdt, rel=1e-4, abs=1e-9)


def test_derivative_of_order_0_is_heat_eval(power_c1_half, gaussian_data):
    # order 0 is the heat solution itself, f0 at t = 0
    for data in (power_c1_half, gaussian_data):
        assert heat.heat_derivative(data, 0.7, 0.0, 0, 0) == float(data.value(0.7))
        assert heat.heat_derivative(data, 0.7, 20.0, 0, 0) == heat.heat_eval(data, 0.7, 20.0)
    with pytest.raises(ValueError):
        heat.heat_derivative(power_c1_half, 0.7, 0.0, 0, 1)


def test_derivative_order_cap(power_c1_half):
    with pytest.raises(UnsupportedOrderError):
        heat.heat_derivative(power_c1_half, 0.0, 1.0, 2, 2)


def test_profile_symmetry():
    for z in (0.5, 1.7, 3.0):
        assert heat.heat_limit_profile(z, 1.0, 1 / 3) == pytest.approx(
            heat.heat_limit_profile(-z, 1.0, 1 / 3), rel=1e-10)


def test_profile_center_gamma_closed_form():
    # z = 0, kappa = 1, alpha = 1/2: 2^{-1/2} Gamma(1/4) / sqrt(pi)
    got = heat.heat_limit_profile(0.0, 1.0, 0.5)
    want = 2.0 ** -0.5 * gamma(0.25) / math.sqrt(math.pi)
    assert got == pytest.approx(want, abs=1e-6)
    assert heat.heat_profile_center_exact(1.0, 0.5) == pytest.approx(want, rel=1e-14)


def profile_by_quadrature(z, kappa, alpha):
    """(kappa / sqrt(4 pi)) int |y|^-alpha exp(-(z-y)^2/4) dy by mpmath at 30
    digits.  On each half line y = +-u^q, q = 1/(1-alpha), takes the
    singularity out (dy / |y|^alpha = q du), and the u line is split where
    |y| is the Gaussian's centre and 10 and 40 away from it: plain tanh-sinh
    on |y|^-alpha is off by up to 5e-4 at alpha near 0.9."""
    with mpmath.workdps(30):
        z, alpha = mpmath.mpf(z), mpmath.mpf(alpha)
        q = 1 / (1 - alpha)
        total = 0
        for side in (1, -1):
            centre = side * z
            breaks = sorted(float(c) ** (1 - alpha) for c in
                            (centre - 40, centre - 10, centre, centre + 10, centre + 40)
                            if c > 0)
            total += mpmath.quad(lambda u: q * mpmath.exp(-(z - side * u ** q) ** 2 / 4),
                                 [0] + breaks + [mpmath.inf])
        return float(kappa * total / mpmath.sqrt(4 * mpmath.pi))


@settings(max_examples=40, deadline=None)
@given(z=st.floats(-20.0, 20.0), kappa=st.floats(0.5, 2.0), alpha=st.floats(0.05, 0.95))
@example(z=7.101575408946845e-129, kappa=1.0, alpha=0.0625)  # scipy's hyp1f1 gave inf
def test_profile_matches_its_defining_integral(z, kappa, alpha):
    got = heat.heat_limit_profile(z, kappa, alpha)
    assert type(got) is float  # not np.float64, whose repr reaches the CSVs
    assert got == pytest.approx(profile_by_quadrature(z, kappa, alpha), rel=1e-12)


def test_profile_rejects_alpha_outside_the_unit_interval():
    for alpha in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            heat.heat_limit_profile(0.0, 1.0, alpha)


def test_profile_far_field():
    got = heat.heat_limit_profile(1e3, 1.0, 1 / 3)
    assert abs(got * 1e3 ** (1 / 3) - 1.0) <= 1e-3


def test_profile_is_lipschitz_on_window():
    zs = np.linspace(-10, 10, 201)
    vals = np.asarray([heat.heat_limit_profile(float(z), 1.0, 0.5) for z in zs])
    slopes = np.abs(np.diff(vals) / np.diff(zs))
    assert np.max(slopes) < 2.0  # continuous, finite slope everywhere


def test_profile_convergence_improves(power_c0):
    # sup_z |t^{alpha/2} f(z sqrt(t), t) - profile(z)| shrinks from 1e4 to 1e6
    alpha = 0.5
    zs = np.linspace(-4, 4, 17)
    sups = []
    for t in (1e4, 1e6):
        errs = []
        for z in zs:
            v = t ** (alpha / 2) * heat.heat_eval(power_c0, float(z) * math.sqrt(t), t)
            p = heat.heat_limit_profile(float(z), 1.0, alpha)
            errs.append(abs(v - p))
        sups.append(max(errs))
    assert sups[1] < sups[0]


def test_heat_sup_norm(constant_07, gaussian_data):
    assert heat.heat_sup_norm(constant_07, 7.0, n_coarse=65).value == pytest.approx(0.7, rel=1e-9)
    r = heat.heat_sup_norm(gaussian_data, 9.0, n_coarse=65)
    assert r.value == pytest.approx(math.sqrt(1.0 / 10.0), rel=1e-7)
    assert abs(r.argmax_x) <= 1e-3


def test_heat_decay_exponent_prop(power_c0):
    # fitted exponent over a short sweep approaches alpha/2 = 1/4
    ts = np.geomspace(1e3, 1e7, 9)
    vals = [heat.heat_sup_norm(power_c0, float(t), n_coarse=65).value for t in ts]
    half = len(ts) // 2
    slope = np.polyfit(np.log(ts[half:]), np.log(vals[half:]), 1)[0]
    assert -slope == pytest.approx(0.25, abs=0.02)


def test_mixed_derivative_order3(power_c1_half):
    # (n, k) = (1, 1) exercises the degree-3 Hermite kernel factor
    x, t = 0.4, 30.0
    d = heat.heat_derivative(power_c1_half, x, t, 1, 1)
    h, ht = 1e-3, 1e-2
    fd = ((heat.heat_eval(power_c1_half, x + h, t + ht)
           - heat.heat_eval(power_c1_half, x - h, t + ht))
          - (heat.heat_eval(power_c1_half, x + h, t - ht)
             - heat.heat_eval(power_c1_half, x - h, t - ht))) / (4 * h * ht)
    assert d == pytest.approx(fd, rel=1e-3, abs=1e-8)
