import math

import numpy as np
import pytest

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
