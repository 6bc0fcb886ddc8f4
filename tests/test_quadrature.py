import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from hopfcole import burgers, quadrature
from hopfcole.initial_data import FamilySpec, make_family
from hopfcole.quadrature import (
    KIND_MAX,
    KIND_MIN,
    BatchKernel,
    HermiteWeight,
    MomentWeight,
    NotConvergedError,
    _panel_eval,
    compile_weights,
    PhysicalPhase,
    integrate_moments,
    locate_critical_points,
    adaptive_quadrature,
    monotone_pieces,
)
from hopfcole.profiles import ProfileCase, CASE_SYMMETRIC, invert_branch
from hopfcole.rescaled import rescaled_critical_points

from conftest import brute_force_ratio
from test_batch import RTOL, quadpack_moments


# -- weights -----------------------------------------------------------------


def test_weight_evaluation(power_c1_half):
    g = MomentWeight({(0, 1, 0, 0): 1.0, (2, 0, 0, 0): -0.5})  # f0' - f0^2/2
    y = np.asarray([0.3, -2.0])
    want = power_c1_half.derivative(y, 1) - 0.5 * power_c1_half.value(y) ** 2
    got = g.evaluate(power_c1_half, y, t=7.0)
    assert np.allclose(got, want, rtol=1e-14)


def reference_evaluate(g, data, y, t):
    """Term-by-term evaluation of a MomentWeight (the loop the compiled
    weights replaced); returns the weight and the sum of |term|."""
    y = np.asarray(y, dtype=float)
    f = [data.value(y), data.derivative(y, 1), data.derivative(y, 2)]
    out = np.zeros_like(y)
    scale = np.zeros_like(y)
    for (a, b, c, p), v in g.terms.items():
        term = np.full_like(out, v * t ** (-p))
        if a:
            term = term * f[0] ** a
        if b:
            term = term * f[1] ** b
        if c:
            term = term * f[2] ** c
        out += term
        scale += np.abs(term)
    return out, scale


_KERNEL_DATA = {
    "PowerC0": make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5)),
    "PowerC1": make_family(FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0)),
    "Gaussian": make_family(FamilySpec("Gaussian", extra={"amplitude": 1.0, "sigma": 1.0})),
}


@st.composite
def moment_weights(draw):
    """Sums of 1 to 6 terms f0^a (f0')^b (f0'')^c t^-p with a <= 4, b <= 2,
    c <= 2 and p <= 3, at coefficients in [-10, 10]."""
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2),
                                   st.integers(0, 3)), min_size=1, max_size=6))
    return MomentWeight({key: draw(st.floats(-10.0, 10.0)) for key in keys})


@settings(max_examples=150, deadline=None)
@given(g=moment_weights(),
       family=st.sampled_from(sorted(_KERNEL_DATA)),
       ys=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8),
       log_t=st.floats(-2.0, 8.0))
# subnormal coefficients: one ulp of 5e-324 is above 1e-13 of the scale
@example(g=MomentWeight({(0, 0, 0, 1): 1.11253692926e-313, (0, 1, 0, 0): -1.11253692926e-313,
                         (2, 0, 0, 0): 5.562684646e-314}),
         family="PowerC0", ys=[0.0], log_t=0.0)
def test_compiled_weights_match_term_by_term(g, family, ys, log_t):
    data = _KERNEL_DATA[family]
    y = np.asarray(ys)
    t = 10.0 ** log_t
    want, scale = reference_evaluate(g, data, y, t)
    got = compile_weights([g, None, 2.5, data.value], data, t)(y)
    assert got.shape == (4, y.size)
    assert np.all(np.abs(got[0] - want) <= 1e-13 * scale + 1e-300)
    assert np.all(np.abs(g.evaluate(data, y, t) - want) <= 1e-13 * scale + 1e-300)
    assert np.all(got[1] == 1.0) and np.all(got[2] == 2.5)
    assert np.array_equal(got[3], data.value(y))


def spread_nodes(n, seed=3):
    """n nodes of both signs with |y| from 1e-3 to 1e8, the reach of the
    kernel's panels at t up to 1e8."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 8.0, n)


@pytest.mark.parametrize("family", sorted(_KERNEL_DATA))
@pytest.mark.parametrize("t", [1e6, 1e7, 1e8])
def test_compiled_field_weights_on_large_node_arrays(family, t):
    # the field weights (y - c)^j, j = 1, 2, 3, about each node's own
    # center c, a few widths sqrt(2t) from it, beside the data row and the
    # unit weight; with no center each is its x-independent factor 1.
    # 20,000 nodes is above numpy's 8,192-element buffer, where elementwise
    # loops run in chunks
    data = _KERNEL_DATA[family]
    y = spread_nodes(20000)
    c = y + math.sqrt(2.0 * t) * np.random.default_rng(4).uniform(-5.0, 5.0, y.size)
    weights = compile_weights([burgers._F0] + burgers._MOMENTS + [None], data, t)
    got = weights(y, c=c)
    assert weights.centered and got.shape == (5, y.size)
    assert np.array_equal(got[0], data.value(y))
    for j, row in zip((1, 2, 3), got[1:]):
        want = (y - c) ** j
        assert np.all(np.abs(row - want) <= 1e-15 * np.abs(want)), j
    assert np.all(got[-1] == 1.0)
    assert np.all(weights(y)[1:] == 1.0)


@pytest.mark.parametrize("family", sorted(_KERNEL_DATA))
@pytest.mark.parametrize("n", [1, 248, 20000])
def test_compiled_f0_row_is_the_data_row(family, n):
    # a factor with exponent 1 is the data row itself: the one monomial of
    # the sup-norm and field weights is data.value bit for bit
    data = _KERNEL_DATA[family]
    y = spread_nodes(n)
    got = compile_weights([MomentWeight.f0(), None], data, 1e6)(y)
    assert np.array_equal(got[0], data.value(y))


def test_rule_constants_are_the_nested_gauss_kronrod_pair():
    # G10 sits on the odd nodes of K21 with Gauss-Legendre's nodes and
    # weights; K21 is exact through degree 31 and G10 through degree 19
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.all(np.abs(quadrature._NODES[1::2] - nodes) <= 2e-16)
    assert np.all(np.abs(quadrature._W10[1::2] - weights) <= 2e-16)
    assert not quadrature._W10[::2].any()
    assert np.all(np.diff(quadrature._NODES) > 0.0) and quadrature._NODES[10] == 0.0
    for deg in range(32):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert abs(quadrature._W21 @ quadrature._NODES ** deg - exact) <= 2e-15, deg
        if deg <= 19:
            assert abs(quadrature._W10 @ quadrature._NODES ** deg - exact) <= 2e-15, deg


def test_spectral_rows_integrate_polynomials_of_degree_20():
    # the rows of _SPECTRAL take a polynomial of degree <= 20 at the 21
    # nodes of a panel to its integrals from -1 at those nodes (node 10 is
    # the midpoint 0); the last two rows are the K21 and G10 rules over the
    # panel
    for deg in range(21):
        exact = (quadrature._NODES ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        got = quadrature._SPECTRAL @ quadrature._NODES ** deg
        assert np.all(np.abs(got[:21] - exact) <= 2e-15), deg
    assert np.array_equal(quadrature._SPECTRAL[21], quadrature._W21)
    assert np.array_equal(quadrature._SPECTRAL[22], quadrature._W10)


def test_spectral_integrals_of_an_origin_ladder_panel():
    # degree-20 spectral integrals are not exact to round-off: f0 = y^-1/2
    # on the panel [8, 32] of the origin ladder gets integrals at its nodes
    # up to 5.7e-13 of the panel's integral off (4.7e-16 through 31 nodes),
    # while its G10 is 5.2e-11 off and the panel still resolves f0
    ys, half = quadrature._panel_nodes(np.array([8.0]), np.array([32.0]))
    ints = half[:, None] * (ys ** -0.5 @ quadrature._SPECTRAL.T)
    whole = 2.0 * (math.sqrt(32.0) - math.sqrt(8.0))
    exact = 2.0 * (np.sqrt(ys) - math.sqrt(8.0))
    assert np.all(np.abs(ints[:, :21] - exact) <= 1e-12 * whole)
    assert abs(ints[0, 21] - whole) <= 1e-15 * whole
    assert abs(ints[0, 22] - whole) <= quadrature._F0_RESOLUTION * whole


@pytest.mark.parametrize("n", [2, 3, 17, 512])
def test_f0_rows_do_not_depend_on_their_batch(power_c1_half, n):
    # a panel's spectral integrals are the same bits in any product of two
    # panels or more, so a point's phase does not depend on its batch
    a = np.sort(np.random.default_rng(5).uniform(-1e4, 1e4, 600))
    ys, half = quadrature._panel_nodes(a[:-1], a[1:])
    _, whole = quadrature._f0_rows(power_c1_half, ys, half)
    for lo in (0, 1, 7, 300):
        _, part = quadrature._f0_rows(power_c1_half, ys[lo:lo + n], half[lo:lo + n])
        assert np.array_equal(part, whole[lo:lo + n])


def test_panel_eval_batch_matches_single_panels(power_c1_half):
    # k panels in one call equal k one-panel calls, per weight and panel,
    # relative to the panel's L1
    gs = [burgers._F0, MomentWeight({(0, 1, 0, 0): 1.0, (2, 0, 0, 0): -0.5}),
          MomentWeight({(0, 0, 1, 0): 1.0, (1, 1, 0, 0): -1.5, (1, 0, 0, 1): 0.5}),
          power_c1_half.value, lambda y: np.abs(power_c1_half.value(y)) ** 3, None]
    phase = PhysicalPhase(power_c1_half, 3.0, 40.0)
    weights = compile_weights(gs, power_c1_half, phase.t)
    peak = next(c.y for c in locate_critical_points(phase) if c.is_global_max)
    log_scale = float(phase.total(peak))

    def integrand(y):
        return weights(y) * np.exp(phase.total(y) - log_scale)

    edges = np.sort(peak + np.random.default_rng(7).uniform(-60.0, 60.0, 12))
    a, b = edges[:-1], edges[1:]
    i10, i21 = _panel_eval(integrand, a, b)
    assert i10.shape == i21.shape == (len(gs), a.size)
    for j in range(a.size):
        s10, s21 = _panel_eval(integrand, a[j:j + 1], b[j:j + 1])
        _, l1 = _panel_eval(lambda y: np.abs(integrand(y)), a[j:j + 1], b[j:j + 1])
        assert np.all(np.abs(i10[:, j] - s10[:, 0]) <= 1e-14 * l1[:, 0])
        assert np.all(np.abs(i21[:, j] - s21[:, 0]) <= 1e-14 * l1[:, 0])


# -- critical points ---------------------------------------------------------


def test_zero_data_rescaled_single_max(zero_data):
    cps = rescaled_critical_points(zero_data, z=2.0, t=10.0)
    assert len(cps) == 1
    assert cps[0].kind == KIND_MAX
    assert cps[0].y == pytest.approx(2.0, abs=1e-12)
    assert cps[0].is_global_max


def test_constant_data_physical_max(constant_07):
    cps = locate_critical_points(PhysicalPhase(constant_07, x=0.0, t=1.0))
    assert len(cps) == 1
    assert cps[0].kind == KIND_MAX
    assert cps[0].y == pytest.approx(-0.7, abs=1e-12)


def test_three_branches_near_limits(power_c1_third):
    # at large t the three stationary points sit on the limit branches
    case = ProfileCase(CASE_SYMMETRIC, 1.0, 1.0 / 3.0)
    cps = rescaled_critical_points(power_c1_third, z=3.0, t=1e6)
    maxima = [c for c in cps if c.kind == KIND_MAX]
    minima = [c for c in cps if c.kind == KIND_MIN]
    assert len(maxima) == 2 and len(minima) == 1
    for branch, found in (("minus", maxima[0]), ("middle", minima[0]),
                          ("plus", maxima[1])):
        ref = invert_branch(case, branch, 3.0).y
        assert abs(found.y - ref) <= 1e-2


def test_residual_tolerances(power_c1_third):
    for cp in locate_critical_points(PhysicalPhase(power_c1_third, x=3.0, t=50.0)):
        assert cp.residual <= 1e-10 * (1.0 + abs(cp.y) / 50.0)
        assert cp.phase_value <= 0.0
    for cp in rescaled_critical_points(power_c1_third, z=3.0, t=1e6):
        assert cp.residual <= 1e-10
        assert cp.phase_value <= 0.0


@st.composite
def locator_cases(draw):
    """(data, x, t): random family, kappa and alpha, log-uniform t in
    [1e-1, 1e8] and x up to 20 max(t^(1/(1+alpha)), sqrt t)."""
    family = draw(st.sampled_from(["PowerC0", "PowerC1", "SignFlipped", "Asymmetric",
                                   "PowerLog", "Gaussian", "Constant"]))
    alpha = draw(st.floats(0.2, 0.8))
    beta, extra = None, {}
    if family == "Asymmetric":
        beta = draw(st.floats(alpha + 0.05, 0.95))
    elif family == "PowerLog":
        beta = draw(st.floats(0.2, 2.0))
    elif family == "Gaussian":
        extra = {"amplitude": draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0)),
                 "sigma": draw(st.floats(0.2, 5.0))}
    elif family == "Constant":
        extra = {"level": draw(st.floats(-2.0, 2.0))}
    spec = FamilySpec(family, kappa=draw(st.floats(0.5, 2.0)), alpha=alpha,
                      beta=beta, extra=extra)
    t = 10.0 ** draw(st.floats(-1.0, 8.0))
    x = draw(st.floats(-20.0, 20.0)) * max(t ** (1.0 / (1.0 + alpha)), math.sqrt(t))
    return make_family(spec), x, t


def bracketed_roots(data, x, t):
    """(roots, brackets, conditioning) of x = G_t(y), G_t(y) = y + t f0(y),
    by a dense scan of |y| <= |x| + t sup|f0| + 1 and brentq in each cell
    where x - G_t changes sign.

    The scan is geometric towards y = 0 and towards x, uniform across the
    range, and holds the sign changes of G_t' (by brentq on G_t'), so that
    G_t is monotone on every cell and a root at a fold has its own cell.
    conditioning is, for each root, the error in y that the rounding of
    G_t there allows, relative to 1 + |y|."""
    reach = abs(x) + t * data.sup_abs + 1.0
    logs = np.geomspace(1e-9 * min(1.0, 1.0 / t), reach, 3000)
    grid = np.unique(np.concatenate([[0.0], logs, -logs, x + logs, x - logs,
                                     np.linspace(-reach, reach, 3001)]))
    grid = grid[np.abs(grid) <= reach]

    def slope(y):
        return 1.0 + t * float(data.derivative(y, 1))

    up = 1.0 + t * data.derivative(grid, 1) > 0.0
    folds = [brentq(slope, grid[i], grid[i + 1], xtol=1e-16 * (1.0 + abs(grid[i])), rtol=1e-15)
             for i in np.nonzero(up[:-1] != up[1:])[0]]
    grid = np.unique(np.concatenate([grid, folds]))
    v = x - (grid + t * data.value(grid))
    roots, brackets = [], []
    for i in np.nonzero(v == 0.0)[0]:
        roots.append(grid[i])
        brackets.append((grid[i], grid[i]))
    for i in np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)[0]:  # no underflow
        a, b = grid[i], grid[i + 1]
        roots.append(brentq(lambda y: x - (y + t * float(data.value(y))), a, b,
                            xtol=1e-16 * (1.0 + abs(a)), rtol=1e-15))
        brackets.append((a, b))
    roots = np.asarray(roots)
    rounding = 4.0 * np.finfo(float).eps * (np.abs(roots) + t * np.abs(data.value(roots))
                                            + abs(x))
    with np.errstate(divide="ignore"):
        cond = rounding / np.abs(1.0 + t * data.derivative(roots, 1)) / (1.0 + np.abs(roots))
    return roots, brackets, cond


@settings(max_examples=80, deadline=None)
@given(locator_cases())
@example((make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5)), 1000.0, 1e3))
def test_locator_against_a_bracketing_scan(case):
    # every root of a dense bracketing scan away from a fold is a critical
    # point to 1e-12 (1 + |y|); every critical point lies in a bracket of
    # the scan or at a piece end; one is the global maximum
    data, x, t = case
    roots, brackets, cond = bracketed_roots(data, x, t)
    cps = locate_critical_points(PhysicalPhase(data, x, t))
    ys = np.asarray([c.y for c in cps])
    for r, c in zip(roots, cond):
        if c <= 1e-14:  # a fold leaves the root ill-posed in y
            assert np.min(np.abs(ys - r)) <= 1e-12 * (1.0 + abs(r)), (data.spec, x, t, r, ys)
    bounds = quadrature._tables(data, [t], [abs(x)])[0][2]
    for y in ys:
        slack = 1e-12 * (1.0 + abs(y))
        assert (np.any(y == bounds)
                or any(a - slack <= y <= b + slack for a, b in brackets)), \
            (data.spec, x, t, y, brackets)
    assert sum(c.is_global_max for c in cps) == 1


def test_the_table_finds_the_pair_born_at_a_fold(power_c1_half):
    # just inside the range of G_t at a fold p (a local minimum of G_t) a
    # maximum and a minimum of the phase are born near p; a scan grid of
    # H' misses such a pair, the pieces of G_t hold one root each
    t = 1e3
    bounds, rising = monotone_pieces(power_c1_half, t, 1e4)
    assert rising.tolist() == [True, False, True]
    p = bounds[1]
    g = p + t * float(power_c1_half.value(p))
    cps = locate_critical_points(PhysicalPhase(power_c1_half, g + 1e-8 * abs(g), t))
    near = [c for c in cps if abs(c.y - p) <= 1e-2 * p]
    assert sorted(c.kind for c in near) == [KIND_MAX, KIND_MIN]


DELTAS = [0.0, 1e-14, -1e-14, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8, 1e-6, -1e-6]


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("family", ["PowerC1", "PowerC0"])
def test_eval_near_a_piece_end(family, delta):
    # x = G_t(p) (1 + delta) at every bound p of the pieces of G_t: the
    # table's roots (one at p within 1e-12 of G_t(p), the pair born at a
    # fold) give QUADPACK's value, and nothing warns or raises
    data = make_family(FamilySpec(family, kappa=1.0, alpha=0.5))
    t = 1e3
    for p in monotone_pieces(data, t, 1e4)[0]:
        x = (p + t * float(data.value(p))) * (1.0 + delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = burgers.eval(data, x, t)
        want = quadpack_moments(data, x, t, [burgers._F0])[0]
        assert got == pytest.approx(want, rel=2.0 * RTOL), (p, x)


# -- the table bounds: scipy's brentq in lockstep ----------------------------


def on_arrays(f):
    """f of one x through a one-element array, as brentq_lockstep calls f:
    numpy's array and scalar powers may round differently."""
    return lambda x: float(f(np.array([x]))[0])


def family_draw(rng, family):
    kappa, alpha = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.1, 0.9))
    beta = {"PowerLog": float(rng.uniform(0.5, 2.0)),
            "Asymmetric": float(rng.uniform(alpha, 1.0))}.get(family)
    return make_family(FamilySpec(family, kappa=kappa, alpha=alpha, beta=beta))


def test_table_bounds_are_scipys_brentq_bits():
    # every bound of 100 random tables is the root scipy's brentq returns on
    # its grid bracket, at the table's xtol = 1e-3 r_min and rtol = 1e-15
    rng = np.random.default_rng(26)
    for family in ("PowerC0", "PowerC1", "SignFlipped", "Asymmetric", "PowerLog"):
        for _ in range(20):
            data, t = family_draw(rng, family), float(10.0 ** rng.uniform(-1.0, 9.0))
            reach = 10.0 * (1.0 + t)
            grid, r_min = quadrature._log_grid(t, reach)
            slope = on_arrays(lambda y: 1.0 + t * data.derivative(y, 1))
            up = np.array([slope(y) > 0.0 for y in grid.tolist()])
            want = [brentq(slope, grid[i], grid[i + 1], xtol=1e-3 * r_min, rtol=1e-15)
                    for i in np.nonzero(up[:-1] != up[1:])[0]]
            bounds, rising = monotone_pieces(data, t, reach)
            assert np.array_equal(bounds, want), (data.spec, t)
            assert rising.tolist() == [bool(up[0]) == (j % 2 == 0) for j in range(len(want) + 1)]


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_power_c0_kink_is_a_bound_at_exactly_0(power_c0, t):
    # G_t' jumps across 0 at the kink of f0; brentq takes 11 steps on the
    # jump at t = 1e3 and 1e6 and lands on 0.0 itself
    bounds, rising = monotone_pieces(power_c0, t, 10.0 * t)
    assert bounds[0] == 0.0 and len(bounds) == 2
    assert rising.tolist() == [True, False, True]


def test_sign_flipped_bounds_at_an_exact_zero_of_the_slope():
    # at kappa = 1, alpha = 1/2, t = 1, G_t' is exactly 0 at the grid point
    # 0, the end of both brackets around it, and both bounds are that end
    data = make_family(FamilySpec("SignFlipped", kappa=1.0, alpha=0.5))
    bounds, rising = monotone_pieces(data, 1.0, 1e4)
    assert bounds.tolist() == [0.0, 0.0]
    assert rising.tolist() == [True, False, True]


@st.composite
def brackets(draw, center):
    """(f, a, b) with a sign change of f on [a, b], within 2e3 of center:
    a smooth monotone f, a jump, or an exact zero at either end.  f maps
    arrays to arrays."""
    a = center + draw(st.floats(-1e3, 1e3))
    b = a + draw(st.floats(1e-6, 1e3))
    r = a + draw(st.floats(1e-3, 1.0)) * (b - a)  # a < r <= b
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["smooth", "jump", "zero at a", "zero at b"]))
    if kind == "smooth":
        s, c = draw(st.floats(1e-3, 1e2)), draw(st.floats(0.0, 1e-3))
        return (lambda x: sign * (np.tanh(s * (x - r)) + c * (x - r) ** 3)), a, b
    if kind == "jump":
        lo, hi = draw(st.floats(-1e3, -1e-300)), draw(st.floats(1e-300, 1e3))
        return (lambda x: sign * np.where(x < r, lo, hi)), a, b
    end = a if kind == "zero at a" else b
    return (lambda x: sign * (x - end) * (2.0 + np.sin(x))), a, b


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(brackets(1e4 * j) for j in range(n)))),
       st.floats(1e-15, 1e-3), st.sampled_from([1e-15, 4 * np.finfo(float).eps, 1e-9]))
def test_lockstep_brentq_is_scipys_brentq(cases, xtol, rtol):
    # brackets solved in lockstep, bracket j on its own function near
    # x = 1e4 j, give the roots brentq gives each alone
    def f(xs):
        return np.array([cases[round(x / 1e4)][0](np.array([x]))[0] for x in xs.tolist()])

    a, b = [c[1] for c in cases], [c[2] for c in cases]
    fa, fb = f(np.array(a)).tolist(), f(np.array(b)).tolist()
    got = quadrature.brentq_lockstep(f, a, b, fa, fb, xtol, rtol)
    want = [brentq(on_arrays(g), lo, hi, xtol=xtol, rtol=rtol) for g, lo, hi in cases]
    assert got.tolist() == want


def test_ends_that_do_not_bracket_raise_like_brentq():
    f = np.exp  # positive at both ends
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^f\(0\.0\) = 1\.0 and f\(1\.0\) = 2\.718281828459045 "
                                         r"do not bracket a sign change$"):
        quadrature.brentq_lockstep(f, [0.0], [1.0], [1.0], [math.e], 1e-12, 1e-15)
    with pytest.raises(ValueError, match=r"^f\(0\.5\) is nan in here$"):
        quadrature.brentq_lockstep(lambda x: np.full_like(x, np.nan), [0.0], [1.0], [-1.0], [1.0],
                                   1e-12, 1e-15, where=" in here")


def test_running_out_of_steps_raises_not_converged_like_brentq():
    with pytest.raises(RuntimeError):
        brentq(np.sin, 3.0, 4.0, maxiter=3)
    with pytest.raises(NotConvergedError,
                       match=r"^brentq took 3 steps on \[3\.0, 4\.0\] without converging$"):
        quadrature.brentq_lockstep(np.sin, [3.0], [4.0], [math.sin(3.0)], [math.sin(4.0)],
                                   1e-12, 1e-15, maxiter=3)


def test_a_table_that_runs_out_of_steps_names_its_bracket_and_t(monkeypatch, power_c1_half):
    lockstep = quadrature.brentq_lockstep
    monkeypatch.setattr(quadrature, "brentq_lockstep",
                        lambda *args, **kw: lockstep(*args, maxiter=2, **kw))
    with pytest.raises(NotConvergedError,
                       match=r"^brentq took 2 steps on \[\S+, \S+\] without converging "
                             r"in the table at t=1000\.0$"):
        monotone_pieces(power_c1_half, 1e3, 1e4)


# -- the memo of the piece table ---------------------------------------------


def counted_tables(monkeypatch):
    """Empty the memo of the last piece table and count the tables made
    (monotone_pieces calls) from then on."""
    monkeypatch.setattr(quadrature, "_TABLES", {})
    made = []
    monkeypatch.setattr(quadrature, "monotone_pieces",
                        lambda *args: made.append(args) or monotone_pieces(*args))
    return made


def test_table_memo_hits_within_its_reach(monkeypatch, power_c1_third):
    made = counted_tables(monkeypatch)
    t = 1e4
    first = locate_critical_points(PhysicalPhase(power_c1_third, 50.0, t))
    for x in (-50.0, 3.0, 0.5 * t):  # t / 2 is within twice the first reach
        locate_critical_points(PhysicalPhase(power_c1_third, x, t))
    assert len(made) == 1
    assert locate_critical_points(PhysicalPhase(power_c1_third, 50.0, t)) == first


def test_table_memo_rebuilds_once_beyond_its_reach(monkeypatch, power_c1_third):
    made = counted_tables(monkeypatch)
    t = 1e4
    locate_critical_points(PhysicalPhase(power_c1_third, 50.0, t))
    far = locate_critical_points(PhysicalPhase(power_c1_third, 1e6, t))
    locate_critical_points(PhysicalPhase(power_c1_third, -1e6, t))
    assert len(made) == 2 and made[1][2] == 2.0 * (1e6 + t + 1.0)
    # a table made for the far point alone finds the same points
    monkeypatch.setattr(quadrature, "_TABLES", {})
    assert locate_critical_points(PhysicalPhase(power_c1_third, 1e6, t)) == far


def test_table_memo_rebuilds_for_another_t_or_data(monkeypatch, power_c1_third):
    made = counted_tables(monkeypatch)
    other = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0))
    locate_critical_points(PhysicalPhase(power_c1_third, 5.0, 1e4))
    locate_critical_points(PhysicalPhase(power_c1_third, 5.0, 2e4))
    locate_critical_points(PhysicalPhase(other, 5.0, 2e4))
    locate_critical_points(PhysicalPhase(other, 5.0, 2e4))
    assert [(m[0], m[1]) for m in made] == [(power_c1_third, 1e4), (power_c1_third, 2e4),
                                          (other, 2e4)]


def test_table_memo_under_threads(monkeypatch):
    # threads that share the one-entry memo, each on its own (data, t) and
    # with a growing |x|, make tables for one another all the time; every
    # answer is still that of a table made for its own call alone
    cases = [(make_family(FamilySpec(family, kappa=1.0, alpha=1.0 / 3.0)), t)
             for family in ("PowerC1", "SignFlipped") for t in (1e3, 1e5)]
    zs = (0.5, 3.0, 40.0, 900.0)
    want = {}
    for i, (data, t) in enumerate(cases):
        for z in zs:
            monkeypatch.setattr(quadrature, "_TABLES", {})
            want[i, z] = locate_critical_points(PhysicalPhase(data, z * t ** 0.75, t))
    wrong = []

    def work(i):
        data, t = cases[i]
        for _ in range(10):
            for z in zs:
                if locate_critical_points(PhysicalPhase(data, z * t ** 0.75, t)) != want[i, z]:
                    wrong.append((i, z))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_sweep_memo_under_threads():
    # four threads run sweeps on two data objects and different t grids:
    # the memo holds the tables of one sweep, at most 4 of their 14
    # (data, t), so they replace one another's tables all the time; the
    # memo never holds more, and every sweep equals the serial one
    datas = [make_family(FamilySpec(family, kappa=1.0, alpha=1.0 / 3.0))
             for family in ("PowerC1", "SignFlipped")]
    jobs = [(data, ts) for data in datas
            for ts in (np.geomspace(1e3, 1e5, 3), np.geomspace(2e3, 2e6, 4))]
    want = [burgers.sup_norm(data, ts, n_coarse=65) for data, ts in jobs]
    wrong, sizes = [], []

    def work(i):
        data, ts = jobs[i]
        for _ in range(3):
            sizes.append(len(quadrature._TABLES))
            if burgers.sup_norm(data, ts, n_coarse=65) != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
    assert max(sizes + [len(quadrature._TABLES)]) <= 4


# -- stabilized integrals ----------------------------------------------------


def test_pure_gaussian_integral(zero_data):
    res = integrate_moments([None], PhysicalPhase(zero_data, x=0.0, t=1.0))[0]
    assert res.converged
    val = res.mantissa * math.exp(res.log_scale)
    assert val == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-10)
    assert res.abs_error <= 1e-8 * abs(res.mantissa) + 1e-300


def test_constant_closed_form(constant_07):
    # complete the square: A_1 = sqrt(4 pi t) exp(c^2 t/4 - c x/2)
    c = 0.7
    for (x, t) in ((0.0, 1.0), (2.3, 5.7), (-4.0, 40.0)):
        res = integrate_moments([None], PhysicalPhase(constant_07, x, t))[0]
        got = math.log(res.mantissa) + res.log_scale
        want = 0.5 * math.log(4 * math.pi * t) + c * c * t / 4.0 - c * x / 2.0
        assert got == pytest.approx(want, abs=1e-8)


def test_zero_weight_zero_integral(zero_data):
    res = integrate_moments([MomentWeight.f0()], PhysicalPhase(zero_data, 0.0, 1.0))[0]
    assert res.mantissa == pytest.approx(0.0, abs=1e-12)


def ratio(g, data, x, t, rel_tol=1e-9, max_panels=4000):
    """The quotient int g e^Phi / int e^Phi at (x, t): a batch of one on the
    kernel."""
    return BatchKernel([g], data, t)([x], rel_tol, max_panels)[0, 0]


def test_ratio_trivial(constant_07, power_c1_half):
    for data, x, t in ((constant_07, 1.0, 3.0), (power_c1_half, -2.0, 17.0)):
        assert ratio(None, data, x, t) == pytest.approx(1.0, rel=1e-12)
    assert ratio(MomentWeight.f0(), constant_07, 1.0, 3.0) == pytest.approx(0.7, rel=1e-10)


def test_linearity(power_c1_half):
    phase = PhysicalPhase(power_c1_half, 1.5, 25.0)
    g1 = MomentWeight.f0()
    g2 = MomentWeight({(0, 1, 0, 0): 1.0, (2, 0, 0, 0): -0.5})
    combo = MomentWeight({(1, 0, 0, 0): 2.0, (0, 1, 0, 0): -3.0, (2, 0, 0, 0): 1.5})
    r = integrate_moments([g1, g2, combo], phase)
    lhs = r[2].mantissa
    rhs = 2.0 * r[0].mantissa - 3.0 * r[1].mantissa
    assert lhs == pytest.approx(rhs, abs=2.0 * (r[0].abs_error + r[1].abs_error + r[2].abs_error))


def test_integrals_take_the_physical_phase_only(power_c1_third):
    # any other object with the same fields is refused
    class OtherPhase:
        data, x, t = power_c1_third, 1.0, 1e3

    with pytest.raises(TypeError):
        integrate_moments([None], OtherPhase())


def test_brute_force_oracle_power_c1(power_c1_half):
    got = ratio(MomentWeight.f0(), power_c1_half, 1.0, 50.0)
    want = brute_force_ratio(power_c1_half, 1.0, 50.0, half_width=2000.0,
                             nodes=2_000_001)
    assert got == pytest.approx(want, rel=1e-6)


def test_brute_force_oracle_power_c0_bracket(power_c0):
    # the full-size oracle on [-1e5, 1e5] with 1e7 nodes; the quotient at
    # x = 0, t = 1e4 must bracket like t^{-1/3}
    t = 1e4
    got = ratio(MomentWeight.f0(), power_c0, 0.0, t)
    want = brute_force_ratio(power_c0, 0.0, t)
    assert got == pytest.approx(want, rel=1e-6)
    scaled = got * t ** (1.0 / 3.0)
    assert 0.1 <= scaled <= 10.0


def test_edge_at_the_power_c0_kink(power_c0):
    # the initial partition has an edge at y = 0: without it the kink of
    # f0 inside one panel left this quotient 1.06e-7 high at rel_tol 1e-9
    got = ratio(MomentWeight.f0(), power_c0, 195.01761326249866, 1e3)
    assert got == pytest.approx(0.211246920761458, rel=1e-12)  # mpmath tanh-sinh


def test_dominated_tail(power_c1_half):
    # enlarging the truncation window twofold moves the result by less
    # than the reported error
    phase = PhysicalPhase(power_c1_half, 0.5, 20.0)
    base = integrate_moments([None], phase)[0]
    a, b = base.truncation
    mid = 0.5 * (a + b)
    wide = integrate_moments([None], phase,
                             interval=(mid - 2 * (mid - a), mid + 2 * (b - mid)))[0]
    val_base = base.mantissa * math.exp(base.log_scale - wide.log_scale)
    assert abs(val_base - wide.mantissa) <= base.abs_error * math.exp(
        base.log_scale - wide.log_scale) + wide.abs_error + 1e-13 * abs(wide.mantissa)


def test_huge_phase_stays_finite(power_c1_third):
    # |H| ~ 1e4 at t = 1e8: must not overflow and the quotient obeys the
    # max principle
    res = integrate_moments([MomentWeight.f0(), None],
                            PhysicalPhase(power_c1_third, 0.0, 1e8))
    assert res[0].converged and res[1].converged
    assert res[0].log_scale > 700.0  # genuinely unrepresentable unscaled
    q = res[0].mantissa / res[1].mantissa
    assert 0.0 < q <= 1.0


def test_adaptive_quadrature_helper():
    val, err, ok = adaptive_quadrature(np.sin, np.asarray([0.0, 1.0, math.pi]))
    assert ok
    assert val == pytest.approx(2.0, rel=1e-10)


def test_non_convergence_is_flagged(power_c1_half):
    # starving the refinement budget must yield an honestly large error and
    # a not-converged flag, not a silent wrong answer
    phase = PhysicalPhase(power_c1_half, 0.5, 100.0)
    res = integrate_moments([None], phase, rel_tol=1e-13, max_panels=4)[0]
    assert not res.converged
    good = integrate_moments([None], phase)[0]
    assert abs(res.mantissa * math.exp(res.log_scale - good.log_scale)
               - good.mantissa) <= res.abs_error * math.exp(res.log_scale - good.log_scale)


def test_each_weight_meets_its_own_target(gaussian_data, zero_data):
    # a heat numerator ~1e-33 of its denominator is refined to its own
    # relative target; the denominator's larger absolute errors must not
    # take the panel budget
    res = integrate_moments([gaussian_data.value, None],
                            PhysicalPhase(zero_data, 30.0, 2.0))
    assert res[0].mantissa < 1e-30 * res[1].mantissa
    for r in res:
        assert r.converged
        assert r.abs_error <= r.target
        assert r.abs_error <= 1e-8 * abs(r.mantissa)


def test_non_convergence_names_the_weight(gaussian_data, zero_data):
    # with a starved budget only the numerator misses its target; the
    # flags and the error must say so, not blame the denominator
    phase = PhysicalPhase(zero_data, 30.0, 2.0)
    num, den = integrate_moments([gaussian_data.value, None], phase, max_panels=10)
    assert not num.converged and den.converged
    with pytest.raises(NotConvergedError, match=r"^weight 0 .* at x=30, t=2: error "):
        ratio(gaussian_data.value, zero_data, 30.0, 2.0, max_panels=10)


def test_ratio_propagates_non_convergence(power_c1_half):
    with pytest.raises(NotConvergedError):
        ratio(MomentWeight.f0(), power_c1_half, 0.5, 100.0, rel_tol=1e-13, max_panels=4)


def slope_scale(weights, data, k=0):
    """sup|g| / sup|g'| of the weights (at the t of index k of their sweep)
    and of f0 on the origin grid, by differences: the origin scale before
    sup|f0'| / sup|f0''| bounded it."""
    ys = quadrature._ORIGIN_YS
    g = np.vstack([weights(ys, k=k), data.value(ys)])
    slope = np.max(np.abs(np.diff(g, axis=1)) / np.diff(ys), axis=1)
    vary = slope > 0.0
    return float(np.max(np.abs(g[vary])) / np.max(slope)) if vary.any() else 0.0


@pytest.mark.parametrize("spec, keeps", [
    (FamilySpec("PowerC0", alpha=0.5), True), (FamilySpec("PowerC0", alpha=1 / 3), True),
    (FamilySpec("PowerC0", alpha=0.1), False),
    (FamilySpec("PowerC1", alpha=0.5), False), (FamilySpec("PowerC1", alpha=0.1), False),
    (FamilySpec("PowerLog", alpha=1 / 3, beta=0.5), False),
    (FamilySpec("SignFlipped", alpha=0.2), True),
    (FamilySpec("Asymmetric", alpha=1 / 3, beta=2 / 3), False),
    (FamilySpec("Gaussian", extra={"amplitude": 1.0, "sigma": 1.0}), False),
], ids=lambda v: f"{v.family}-{v.alpha:.3g}" if isinstance(v, FamilySpec) else str(v))
def test_origin_scale_shrinks_only_where_f0_is_not_resolved(spec, keeps):
    # sup|f0'| / sup|f0''| can only make the origin panels near y = 0
    # narrower (the ladder's outer reach shrinks with them), and only where
    # the panels of _batch_edges at sup|g| / sup|g'| do not resolve f0:
    # PowerC0 at alpha 1/2 and 1/3 keeps 2.0 and 3.0, SignFlipped has no
    # smaller f0'' scale, and the others split at the coarser scale
    data = make_family(spec)
    for gs in ([None], [burgers._F0, None]):
        weights = compile_weights(gs, data, 2.0)
        got, before = quadrature._origin_scale(weights, data), slope_scale(weights, data)
        assert 0.0 < got <= before
        edges = before * quadrature._LADDER
        ys, half = quadrature._panel_nodes(edges[:-1], edges[1:])
        ints = quadrature._f0_rows(data, ys, half)[1]
        resolves = quadrature._f0_resolves(data, half, ints).all()
        assert resolves == keeps
        assert (got == before) == keeps
        if spec.family == "PowerC1":
            # branch points at +-i: 0.43 to 0.48 against 4.6 to 20.7
            assert got < 0.1 * before


def test_power_c0_keeps_its_grading(monkeypatch, power_c0):
    # its panels at sup|g| / sup|g'| = 2 resolve f0, so its values are
    # those of that grading bit for bit
    x = np.linspace(-40.0, 40.0, 33)
    got = burgers.eval_batch(power_c0, x, 1e3)
    monkeypatch.setattr(quadrature, "_origin_scale", slope_scale)
    assert np.array_equal(got, burgers.eval_batch(power_c0, x, 1e3))


def test_origin_scale_of_heat_kernels_is_unchanged(power_c1_half, gaussian_data):
    # the heat phase data is Zero, whose f0' and f0'' vanish
    zero = make_family(FamilySpec("Zero"))
    for data in (power_c1_half, gaussian_data):
        for gs in ([data.value, None], [HermiteWeight(2, data.value), None]):
            weights = compile_weights(gs, zero, 2.0)
            assert quadrature._origin_scale(weights, zero) == slope_scale(weights, zero)
    assert quadrature._origin_scale(compile_weights([None], zero, 2.0), zero) == 0.0


def test_origin_grading_splits_no_panel_of_the_fd_reference(monkeypatch, power_c1_half):
    # the Hopf-Cole reference of fd_compare (4,001 points, |x| <= L/2 = 12.5,
    # t = 2) starts resolved; graded by sup|f0| / sup|f0'| = 4.6, _resolved
    # halved its 60,293 initial panels into 67,918 at kappa 1 (7,625 more)
    grown = []
    real = quadrature._resolved

    def counted(data, pid, pa, pb):
        out = real(data, pid, pa, pb)
        grown.append(out[1].size - pa.size)
        return out

    monkeypatch.setattr(quadrature, "_resolved", counted)
    burgers.eval_batch(power_c1_half, np.linspace(-12.5, 12.5, 4001), 2.0)
    assert grown and not any(grown)


def resolved_panels(monkeypatch):
    """[panels in, panels out] of every quadrature._resolved call from now on."""
    count = [0, 0]
    real = quadrature._resolved

    def counted(data, pid, pa, pb):
        out = real(data, pid, pa, pb)
        count[0] += pa.size
        count[1] += out[1].size
        return out

    monkeypatch.setattr(quadrature, "_resolved", counted)
    return count


def gaussian_batch(t):
    """Gaussian data (amplitude 1, sigma 1) and 201 x in |x| <= 5 t^0.6."""
    data = make_family(FamilySpec("Gaussian", extra={"amplitude": 1.0, "sigma": 1.0}))
    return data, np.linspace(-5.0, 5.0, 201) * t ** 0.6


def test_negligible_gaussian_panels_are_not_split(monkeypatch):
    # a relative test of G10 against K21 cannot pass where the super-
    # exponential tail leaves f0 negligible, and those panels were halved
    # _F0_SPLITS times: 5,739 panels grew into 41,718 at t = 1e4.  The
    # floor of eps sup|f0| times the width passes them
    data, xs = gaussian_batch(1e4)
    count = resolved_panels(monkeypatch)
    burgers.eval_batch(data, xs, 1e4)
    assert count == [5739, 6579]


@pytest.mark.parametrize("t", [1e4, 1e8])
def test_gaussian_values_without_the_splits(t):
    # the panels the floor passes add nothing the values need: within
    # 1e-14 of an evaluation at rel_tol 1e-12 (2.0e-15 at most, measured)
    data, xs = gaussian_batch(t)
    got = burgers.eval_batch(data, xs, t)
    want = burgers.eval_batch(data, xs, t, 1e-12)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
