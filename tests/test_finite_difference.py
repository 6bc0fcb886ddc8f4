import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
    # Crank-Nicolson's boundary flux is the mean of its old and new levels
    for scheme in fd.SCHEMES:
        out = fd.integrate(power_c1_half, 30.0, 301, 2.0, scheme=scheme)
        drift = out.diagnostics["mass_drift"]
        flux = out.diagnostics["boundary_flux_accum"]
        assert drift == pytest.approx(flux, abs=1e-10), scheme


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


def ldlt_factor(d, e):
    """dpttrf's LDL^T factor of the SPD tridiagonal matrix with diagonal d
    and off-diagonal e, in its arithmetic: (d of D, e of L) as lists."""
    d, e = [float(v) for v in d], [float(v) for v in e]
    for i, ei in enumerate(e):
        e[i] = ei / d[i]
        d[i + 1] -= e[i] * ei
    return d, e


def ldlt_solve(d, e, b):
    """dpttrs's solve on the factor (d, e) of ldlt_factor, in its arithmetic
    (LAPACK's dptts2 for one right-hand side)."""
    b = [float(v) for v in b]
    for i in range(1, len(b)):
        b[i] -= b[i - 1] * e[i - 1]
    b[-1] /= d[-1]
    for i in range(len(b) - 2, -1, -1):
        b[i] = b[i] / d[i] - b[i + 1] * e[i]
    return np.asarray(b)


def reference_integrate(data, L, n, t_end, scheme, advection):
    """(values, diagnostics) of fd.integrate by a step written out plainly:
    the three-np.where flux, new full-size arrays for div and lap every
    step, the Crank-Nicolson solve by the LDL^T recurrence in Python, and
    the diffusive boundary flux at the old level (explicit) or the mean of
    the old and new levels (Crank-Nicolson)."""
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
    factor = ldlt_factor(np.full(n - 2, 1.0 + r), np.full(n - 3, -0.5 * r))
    for _ in range(n_steps):
        div = np.zeros_like(f)
        if advection:
            flux = where_flux(f[:-1], f[1:])
            div[1:-1] = (flux[1:] - flux[:-1]) / dx
            boundary_flux += step * (flux[0] - flux[-1])
        lap = np.zeros_like(f)
        lap[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dx * dx)
        if scheme == fd.SCHEME_EXPLICIT_UPWIND:
            boundary_flux += step * ((f[1] - f[0]) - (f[-1] - f[-2])) / dx * (-1.0)
            f = f + step * (lap - div)
        else:
            rhs = f[1:-1] + 0.5 * step * lap[1:-1] - step * div[1:-1]
            rhs[0] += 0.5 * r * left
            rhs[-1] += 0.5 * r * right
            edge = (f[1] - f[0]) - (f[-1] - f[-2])
            f = f.copy()
            f[1:-1] = ldlt_solve(*factor, rhs)
            boundary_flux += 0.5 * step * (edge + (f[1] - f[0]) - (f[-1] - f[-2])) / dx * (-1.0)
        f[0], f[-1] = left, right
    mass1 = dx * float(np.sum(f[1:-1]))
    return f, {"mass_initial": mass0, "mass_final": mass1, "mass_drift": mass1 - mass0,
               "boundary_flux_accum": boundary_flux, "n_steps": n_steps, "dt": step}


def toeplitz_system(rng, n, r):
    """Diagonal 1 + r, off-diagonal -r/2 (the Crank-Nicolson matrix on n
    unknowns) and a right-hand side of mixed scales."""
    return (np.full(n, 1.0 + r), np.full(n - 1, -0.5 * r),
            rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n))


@pytest.mark.parametrize("n", [5, 399, 7999])
def test_ldlt_recurrence_is_dpttrf_dpttrs_bit_for_bit(n):
    # the reference step's solve is LAPACK's, bit for bit, so a build that
    # fuses its multiply-adds fails here and not in the step test
    rng = np.random.default_rng(n)
    for r in (1e-3, 0.7, 10.0 ** rng.uniform(0.0, 3.0)):
        d, e, b = toeplitz_system(rng, n, r)
        fd_d, fd_e, info = fd.dpttrf(d, e)
        assert info == 0
        x, info = fd.dpttrs(fd_d, fd_e, b)
        assert info == 0
        ref_d, ref_e = ldlt_factor(d, e)
        assert np.array_equal(fd_d, ref_d) and np.array_equal(fd_e, ref_e)
        assert np.array_equal(x, ldlt_solve(ref_d, ref_e, b))


def test_ldlt_solve_against_a_dense_solve():
    # the eigenvalues of the matrix lie in [1, 1 + 2r], so both solves are
    # within a few eps (1 + 2r) ||x|| of the solution and of each other
    rng = np.random.default_rng(20261020)
    eps = np.finfo(float).eps
    for _ in range(40):
        n, r = int(rng.integers(2, 300)), 10.0 ** rng.uniform(-4.0, 4.0)
        d, e, b = toeplitz_system(rng, n, r)
        x = fd.dpttrs(*fd.dpttrf(d, e)[:2], b)[0]
        dense = np.linalg.solve(np.diag(d) + np.diag(e, 1) + np.diag(e, -1), b)
        assert np.max(np.abs(x - dense)) <= 4.0 * eps * (1.0 + 2.0 * r) * np.max(np.abs(x))


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
    monkeypatch.setattr(fd, "_godunov_flux", lambda fl, fr, *work: np.full(fl.shape, np.nan))
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
