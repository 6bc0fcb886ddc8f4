import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded

from hopfcole import finite_difference as fd
from hopfcole import burgers, heat
from hopfcole.initial_data import FamilySpec, make_family


def test_constant_steady_state(constant_07):
    # exact steady state of the discrete scheme over 1000 steps
    out = fd.integrate(constant_07, 20.0, 201, 1.0, dt=1e-3)
    assert out.diagnostics["n_steps"] >= 1000
    assert np.max(np.abs(out.values - 0.7)) <= 1e-12


def test_zero_stays_zero(zero_data):
    out = fd.integrate(zero_data, 10.0, 101, 0.5)
    assert np.max(np.abs(out.values)) == 0.0


def test_exact_discrete_mass_balance(power_c1_half):
    out = fd.integrate(power_c1_half, 30.0, 301, 2.0,
                       scheme=fd.SCHEME_EXPLICIT_UPWIND)
    drift = out.diagnostics["mass_drift"]
    flux = out.diagnostics["boundary_flux_accum"]
    assert drift == pytest.approx(flux, abs=1e-10)


def test_pure_heat_second_order(gaussian_data):
    errs = []
    for n in (201, 401, 801):
        out = fd.integrate(gaussian_data, 30.0, n, 2.0, advection=False)
        x = out.x[::20]
        exact = np.asarray([heat.heat_eval(gaussian_data, float(v), 2.0) for v in x])
        errs.append(float(np.max(np.abs(out.values[::20] - exact))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert abs(order - 2.0) <= 0.2


def test_upwind_first_order(power_c1_half):
    ds = fd.compare_halved_dx(power_c1_half, 2.0, 50.0, 1001,
                              scheme=fd.SCHEME_EXPLICIT_UPWIND)
    order = math.log2(ds[0] / ds[1])
    assert abs(order - 1.0) <= 0.2


def test_crank_nicolson_also_first_order_in_dx(power_c1_half):
    # advective-limit stepping ties dt to dx, so the total error is O(dx)
    ds = fd.compare_halved_dx(power_c1_half, 2.0, 50.0, 1001,
                              scheme=fd.SCHEME_CRANK_NICOLSON)
    order = math.log2(ds[0] / ds[1])
    assert abs(order - 1.0) <= 0.3


def test_compare_constant_tiny(constant_07):
    d = fd.compare_to_hopf_cole(constant_07, 1.0, 20.0, 401)
    assert d <= 1e-10


def test_halved_dx_matches_two_comparisons(power_c1_half, constant_07):
    # one Hopf-Cole reference serves both grids, bit for bit
    for data, t, L, n in ((power_c1_half, 2.0, 25.0, 401),
                          (power_c1_half, 2.0, 100.0, 1601),
                          (constant_07, 1.0, 20.0, 401)):
        got = fd.compare_halved_dx(data, t, L, n)
        assert got == (fd.compare_to_hopf_cole(data, t, L, n),
                       fd.compare_to_hopf_cole(data, t, L, 2 * n - 1))


def test_cfl_rejection(power_c1_half):
    with pytest.raises(ValueError):
        fd.integrate(power_c1_half, 10.0, 101, 0.5,
                     scheme=fd.SCHEME_EXPLICIT_UPWIND, dt=0.05)


def test_boundary_budget_rejection(power_c1_half):
    with pytest.raises(ValueError):
        fd.integrate(power_c1_half, 5.0, 101, 10.0)


def test_scheme_validation(power_c1_half):
    with pytest.raises(ValueError):
        fd.integrate(power_c1_half, 10.0, 101, 0.1, scheme="upwindish")
    with pytest.raises(ValueError):
        fd.integrate(power_c1_half, 10.0, 2, 0.1)


def test_discrete_max_principle(power_c1_half):
    out = fd.integrate(power_c1_half, 30.0, 301, 5.0)
    assert np.max(np.abs(out.values)) <= power_c1_half.sup_abs + 1e-8


def where_flux(fl, fr):
    """The Godunov flux of u^2/2 as three np.where passes over the Riemann
    cases."""
    fmin = np.where((fl <= 0.0) & (0.0 <= fr), 0.0,
                    0.5 * np.minimum(fl * fl, fr * fr))
    fmax = 0.5 * np.maximum(fl * fl, fr * fr)
    return np.where(fl <= fr, fmin, fmax)


def reference_integrate(data, L, n, t_end, scheme, advection):
    """(values, diagnostics) of fd.integrate by the step it replaced: the
    three-np.where flux, full-size zero arrays for div and lap every step,
    and cho_solve_banded.  That step raised IndexError on Crank-Nicolson
    without advection (it sliced the scalar div = 0.0); here div is a zero
    array there, which changes no bit."""
    x = np.linspace(-L, L, n)
    dx = x[1] - x[0]
    f = np.asarray(data.value(x), dtype=float).copy()
    fmax = float(np.max(np.abs(f))) + 1e-30
    dt_adv = 0.5 * dx / fmax if advection else math.inf
    if scheme == fd.SCHEME_EXPLICIT_UPWIND:
        dt_auto = min(0.4 * dx * dx, dt_adv)
    else:
        dt_auto = dt_adv if advection else 0.4 * dx
    n_steps = max(1, int(math.ceil(t_end / dt_auto)))
    step = t_end / n_steps
    left, right = f[0], f[-1]
    mass0 = dx * float(np.sum(f[1:-1]))
    boundary_flux = 0.0
    r = step / (dx * dx)
    ab = np.zeros((2, n - 2))
    ab[0, 1:] = -0.5 * r
    ab[1, :] = 1.0 + r
    factor = cholesky_banded(ab, lower=False)
    for _ in range(n_steps):
        div = np.zeros_like(f)
        if advection:
            flux = where_flux(f[:-1], f[1:])
            div[1:-1] = (flux[1:] - flux[:-1]) / dx
            boundary_flux += step * (flux[0] - flux[-1])
        lap = np.zeros_like(f)
        lap[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dx * dx)
        boundary_flux += step * ((f[1] - f[0]) - (f[-1] - f[-2])) / dx * (-1.0)
        if scheme == fd.SCHEME_EXPLICIT_UPWIND:
            f = f + step * (lap - div)
        else:
            rhs = f[1:-1] + 0.5 * step * lap[1:-1] - step * div[1:-1]
            rhs[0] += 0.5 * r * left
            rhs[-1] += 0.5 * r * right
            f = f.copy()
            f[1:-1] = cho_solve_banded((factor, False), rhs)
        f[0], f[-1] = left, right
    mass1 = dx * float(np.sum(f[1:-1]))
    return f, {"mass_initial": mass0, "mass_final": mass1, "mass_drift": mass1 - mass0,
               "boundary_flux_accum": boundary_flux, "n_steps": n_steps, "dt": step}


@pytest.mark.parametrize("scheme", fd.SCHEMES)
@pytest.mark.parametrize("advection", [True, False])
def test_integrate_equals_the_reference_step_bit_for_bit(scheme, advection,
                                                         power_c1_half, gaussian_data):
    for data in (power_c1_half, gaussian_data):
        got = fd.integrate(data, 25.0, 401, 2.0, scheme=scheme, advection=advection)
        values, diagnostics = reference_integrate(data, 25.0, 401, 2.0, scheme, advection)
        assert np.array_equal(got.values, values)
        assert got.diagnostics.keys() == diagnostics.keys()
        for key, want in diagnostics.items():
            assert got.diagnostics[key] == want, key


def test_a_field_that_is_not_finite_raises(power_c1_half, monkeypatch):
    # a NaN stays a NaN through the step, so one check at the end names it
    monkeypatch.setattr(fd, "_godunov_flux", lambda fl, fr: np.full(fl.shape, np.nan))
    for scheme in fd.SCHEMES:
        with pytest.raises(ValueError, match=r"not finite at t_end = 2\.0 \(step "):
            fd.integrate(power_c1_half, 25.0, 201, 2.0, scheme=scheme)


states = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.one_of(st.tuples(states, states), states.map(lambda v: (v, v)),
                          st.tuples(states.map(lambda v: -abs(v)), states.map(abs))),
                min_size=1, max_size=16))
@example([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.5, 1.5), (-2.0, -2.0),
          (-1.0, 2.0), (-3.0, 1.0), (-1e-300, 1e-300), (2.0, -1.0), (-1.0, -3.0),
          (1e200, -1e201)])
def test_godunov_flux_is_the_riemann_case_split(pairs):
    # fl <= 0 <= fr: sonic rarefaction, 0; fl <= fr otherwise: rarefaction,
    # the smaller f; fl > fr: shock, the larger f
    fl, fr = (np.asarray(v, dtype=float) for v in zip(*pairs))
    want = [0.0 if a <= 0.0 <= b else 0.5 * (min(a * a, b * b) if a <= b else max(a * a, b * b))
            for a, b in pairs]
    with np.errstate(over="ignore"):  # a square past 1.3e154 is inf on every path
        got, where = fd._godunov_flux(fl, fr), where_flux(fl, fr)
    assert got.tobytes() == np.asarray(want, dtype=float).tobytes()
    assert where.tobytes() == got.tobytes()
