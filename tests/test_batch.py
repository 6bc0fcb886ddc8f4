"""The batch quotient kernel (quadrature.ratio_moments_batch) against the
scalar path: randomized oracles for eval_batch, heat_eval_batch,
derivative_fields_batch and heat_derivative_batch, their fallbacks, the
reuse of one kernel setup (quadrature.BatchKernel) and the sup-norm scans
that run on them."""
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from numpy.polynomial.hermite import hermval
from scipy.optimize import minimize_scalar

from hopfcole import burgers, heat, quadrature
from hopfcole.initial_data import FamilySpec, make_family
from hopfcole.quadrature import (BatchKernel, HermiteWeight, NotConvergedError, PhysicalPhase,
                                 locate_critical_points, monotone_pieces, ratio_moments_batch)

RTOL = 1e-9  # default rel_tol of eval, eval_batch, heat_eval and heat_eval_batch
ZERO = make_family(FamilySpec("Zero"))


@st.composite
def batch_cases(draw):
    """(data, t, xs): random family, kappa, alpha and log-uniform t, with an
    x-grid symmetric about 0 scaled to where the solution lives."""
    family = draw(st.sampled_from(
        ["PowerC0", "PowerC1", "SignFlipped", "Asymmetric", "Gaussian", "Constant"]))
    alpha = draw(st.floats(0.2, 0.8))
    beta, extra = None, {}
    if family == "Asymmetric":
        beta = draw(st.floats(alpha + 0.05, 0.95))
    elif family == "Gaussian":
        extra = {"amplitude": draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0)),
                 "sigma": draw(st.floats(0.2, 5.0))}
    elif family == "Constant":
        extra = {"level": draw(st.floats(-2.0, 2.0))}
    spec = FamilySpec(family, kappa=draw(st.floats(0.5, 2.0)), alpha=alpha,
                      beta=beta, extra=extra)
    t = 10.0 ** draw(st.floats(-1.0, 8.0))
    half = draw(st.floats(0.05, 20.0)) * max(t ** (1.0 / (1.0 + alpha)), math.sqrt(t))
    xs = np.linspace(-half, half, 2 * draw(st.integers(2, 6)) + 1)
    return make_family(spec), t, xs


def _budget(data, want):
    """Both paths meet rel_tol * max(|I|, 1e-3 L1) on numerator and
    denominator; a relative bound alone fails at the zeros of odd data."""
    return 4.0 * RTOL * (np.abs(want) + 1e-3 * data.sup_abs)


def oracle_breaks(phase):
    """(top, breaks): the maximum of the phase, and breaks at its critical
    points, at y = 0 and at the unit scale of the data."""
    cps = [c.y for c in locate_critical_points(phase)]
    w = math.sqrt(2.0 * phase.t)
    breaks = {0.0, -1.0, 1.0, -8.0, 8.0}
    breaks.update(c + s * w for c in cps for s in (-3.0, -1.0, 0.0, 1.0, 3.0))
    return max(float(phase.total(c)) for c in cps), sorted(breaks)


def tanh_sinh_quotient(data, x, t, heat_eq):
    """int f0 e^H / int e^H by mpmath's tanh-sinh rule between the breaks of
    oracle_breaks."""
    phase = PhysicalPhase(ZERO if heat_eq else data, x, t)
    top, breaks = oracle_breaks(phase)
    breaks = [-mpmath.inf] + breaks + [mpmath.inf]

    def e(y):
        return mpmath.exp(float(phase.total(float(y))) - top)

    num = mpmath.quad(lambda y: float(data.value(float(y))) * e(y), breaks)
    return float(num / mpmath.quad(e, breaks))


def check_against_scalar(batch, scalar, data, t, xs, pick, heat_eq):
    """batch(data, xs, t) against scalar(data, x, t) at every x.

    Values agree within both paths' budgets.  Where they are further apart,
    the scalar value must be the wrong one, by tanh-sinh: the scalar
    partition is not graded around its edge at y = 0, so at large t it
    misses most of the bump of Gaussian data (heat_eval at x = 5000,
    t = 1e6 returns half the closed form); and one panel spans 8 peak
    widths to the truncation end, which misses the slow tail beyond a
    narrow peak (Asymmetric data, 7e-5 at t = 1e6).
    Where the scalar path raises NotConvergedError, the batch either meets
    its budget or raises that same error from its fallback."""
    want = []
    for x in xs:
        try:
            want.append(scalar(data, float(x), t))
        except NotConvergedError as exc:
            want.append(exc)
    try:
        got = batch(data, xs, t)
    except NotConvergedError as exc:
        assert str(exc) in [str(w) for w in want if isinstance(w, NotConvergedError)]
        return
    for i, w in enumerate(want):
        if not isinstance(w, NotConvergedError) and abs(got[i] - w) <= _budget(data, w):
            continue
        truth = tanh_sinh_quotient(data, float(xs[i]), t, heat_eq)
        budget = 2.0 * RTOL * (abs(truth) + 1e-3 * data.sup_abs)
        assert abs(got[i] - truth) <= budget, (data.spec, t, xs[i], got[i], w, truth)
        assert isinstance(w, NotConvergedError) or abs(w - truth) > budget
    # a point's value does not depend on the other points of its call, up
    # to round-off of the numerator, whose L1 scale is sup|f0| times the
    # denominator: at the zeros of odd data the values are that round-off
    i = pick % xs.size
    alone = batch(data, xs[i:i + 1], t)[0]
    assert abs(alone - got[i]) <= 1e-14 * (abs(got[i]) + data.sup_abs)


@settings(max_examples=40, deadline=None)
@given(case=batch_cases(), pick=st.integers(0, 12))
def test_eval_batch_matches_eval(case, pick):
    data, t, xs = case
    check_against_scalar(burgers.eval_batch, burgers.eval, data, t, xs, pick, heat_eq=False)


@settings(max_examples=40, deadline=None)
@given(case=batch_cases(), pick=st.integers(0, 12))
def test_heat_eval_batch_matches_heat_eval(case, pick):
    data, t, xs = case
    check_against_scalar(heat.heat_eval_batch, heat.heat_eval, data, t, xs, pick, heat_eq=True)


@pytest.mark.parametrize("family", ["PowerC0", "PowerC1"])
def test_point_at_a_piece_end_falls_back(family):
    # x = G_t(p) at an end p of a monotone piece of G_t: a degenerate
    # critical point (PowerC1) or one at the kink of f0 (PowerC0)
    data = make_family(FamilySpec(family, kappa=1.0, alpha=0.5))
    t = 1e3
    bounds, rising = monotone_pieces(data, t, 1e4)
    assert rising.tolist() == [True, False, True]
    for p in bounds:
        xs = np.asarray([p + t * data.value(p), 0.0])
        vals, ok = ratio_moments_batch([burgers._F0], data, xs, t)
        assert ok.tolist() == [False, True] and np.isnan(vals[0, 0])
        assert burgers.eval_batch(data, xs, t)[0] == burgers.eval(data, float(xs[0]), t)


def starved_kernel(budget):
    """BatchKernel whose calls get budget panels a point."""
    class Starved(BatchKernel):
        def __call__(self, xs, rel_tol=1e-9, max_panels=4000):
            return super().__call__(xs, rel_tol, budget)
    return Starved


def test_starved_panel_budget_falls_back(monkeypatch, power_c1_half):
    xs = np.asarray([-3.0, 0.0, 5.0])
    t = 40.0
    vals, ok = starved_kernel(12)([burgers._F0], power_c1_half, t)(xs)
    assert not ok.any() and np.all(np.isnan(vals))
    # the kernel starved: eval_batch returns the scalar path's values
    monkeypatch.setattr(burgers, "BatchKernel", starved_kernel(12))
    got = burgers.eval_batch(power_c1_half, xs, t)
    assert got.tolist() == [burgers.eval(power_c1_half, float(x), t) for x in xs]
    # both starved: the scalar path's error, naming the point
    monkeypatch.setattr(burgers, "ratio_moments",
                        functools.partial(quadrature.ratio_moments, max_panels=12))
    with pytest.raises(NotConvergedError, match=r"weight 0 .* at x=-3, t=40"):
        burgers.eval_batch(power_c1_half, xs, t)


def pointwise(fn):
    """A scan_max score from a function of one float: the array of x is
    scored point by point."""
    def score(xs):
        return np.asarray([fn(v) for v in xs], dtype=float)
    return score


def reference_scan_max(fn, lo, hi, n_coarse, n_refine=3):
    """scan_max with its coarse grid scored point by point on fn."""
    grid = np.linspace(lo, hi, n_coarse)
    vals = np.asarray([fn(g) for g in grid])
    order = np.argsort(vals)[::-1]
    picked = []
    for i in order:
        if all(abs(i - j) > 1 for j in picked):
            picked.append(int(i))
        if len(picked) == n_refine:
            break
    best_v = float(np.max(vals))
    best_x = float(grid[int(np.argmax(vals))])
    for i in picked:
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, n_coarse - 1)]
        if b <= a:
            continue
        res = minimize_scalar(lambda v: -fn(v), bounds=(a, b), method="bounded",
                              options={"xatol": 1e-6 * (b - a) + 1e-12})
        if -res.fun > best_v:
            best_v = float(-res.fun)
            best_x = float(res.x)
    return best_v, best_x


@settings(max_examples=30, deadline=None)
@given(c=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
       hi=st.floats(0.5, 6.0), n=st.integers(5, 70))
def test_lockstep_brent_takes_scipys_steps(c, hi, n):
    # several local maxima, flat stretches and brackets at the grid ends
    def fn(x):
        return math.sin(c[0] * x + c[1]) + c[2] * math.cos(c[3] * x * x) + 0.1 * c[4] * x

    assert burgers.scan_max(pointwise(fn), -3.0, hi, n) == \
        reference_scan_max(fn, -3.0, hi, n)


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_lockstep_refinement_equals_scipy_scan(power_c0, t):
    # on pointwise scores the lockstep brackets take scipy's steps, so value
    # and argmax are bit for bit those of minimize_scalar per bracket
    m = t ** (1.0 / 1.5)

    def f(x):
        return abs(burgers.eval(power_c0, x, t))

    assert burgers.scan_max(pointwise(f), -10.0 * m, 10.0 * m, 65) == \
        reference_scan_max(f, -10.0 * m, 10.0 * m, 65)
    m = math.sqrt(t)

    def h(x):
        return abs(heat.heat_eval(power_c0, x, t))

    assert burgers.scan_max(pointwise(h), -10.0 * m, 10.0 * m, 65) == \
        reference_scan_max(h, -10.0 * m, 10.0 * m, 65)


@pytest.mark.parametrize("n_coarse", [65, 129])
def test_sup_norm_matches_mpmath_at_its_argmax(power_c0, n_coarse):
    # the value the scan ranked is the batch kernel's; the scalar scan it
    # replaces read 0.21124695603 at n_coarse 65, 2.6e-7 high from the
    # kink of f0 at y = 0
    t = 1e3
    got = burgers.sup_norm(power_c0, t, n_coarse=n_coarse)
    want = tanh_sinh_quotient(power_c0, got.argmax_x, t, heat_eq=False)
    assert got.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("t", [1e3, 1180.0, 1e6])
def test_heat_sup_norm_is_the_value_at_0(power_c0, t):
    # heat of even data decreasing in |y| peaks at x = 0; the scalar scan
    # this replaces refined to x = 0.0087 at t = 1e3 and read 1.5e-6 high
    got = heat.heat_sup_norm(power_c0, t, n_coarse=65)
    want = heat.heat_eval(power_c0, 0.0, t, 1e-13)
    assert got.value == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# derivative fields


FIELDS = ("f", "f_x", "f_t", "f_xx")


def moment_sizes(data, xs, t):
    """(r, a): the quotients r_i of burgers._FIELD_WEIGHTS at every x, and
    the size a_i = |r_i| + 1e-3 L1_i against which each meets rel_tol (the
    quadrature's target is rel_tol max(|I|, 1e-3 L1) per moment).  Both to
    rel_tol 1e-6, which is plenty for a budget."""
    n = len(burgers._FIELD_WEIGHTS)
    w = quadrature.compile_weights(burgers._FIELD_WEIGHTS, data, t)
    gs = burgers._FIELD_WEIGHTS + [lambda y, i=i: np.abs(w(y)[i]) for i in range(n)]
    q, ok = ratio_moments_batch(gs, data, xs, t, 1e-6)
    for i in np.nonzero(~ok)[0]:
        q[:, i] = quadrature.ratio_moments(gs, PhysicalPhase(data, float(xs[i]), t), 1e-6)
    return q[:n], np.abs(q[:n]) + 1e-3 * q[n:]


def field_scales(r, a):
    """First-order sizes of the errors of f, f_x, f_t and f_xx
    (burgers._fields) when each quotient r_i is off by a_i: the fields
    cancel far below the terms of their quotient-rule expansions."""
    f, fx = np.abs(r[0]), np.abs(r[1] - r[0] * r[3])
    s_fx = a[1] + f * a[3] + a[0] * np.abs(r[3])
    return {"f": a[0], "f_x": s_fx,
            "f_t": a[2] + f * a[4] + a[0] * np.abs(r[4]),
            "f_xx": (a[5] + a[1] * np.abs(r[3]) + np.abs(r[1]) * a[3] + s_fx * np.abs(r[3])
                     + fx * a[3] + a[0] * np.abs(r[6] - r[3] ** 2)
                     + f * (a[6] + 2.0 * np.abs(r[3]) * a[3]))}


def quadpack_moments(data, x, t, gs=None, heat_eq=False):
    """The quotients of the weights gs (default burgers._FIELD_WEIGHTS) under
    the phase of data (the Gaussian phase of the heat equation with
    heat_eq) by QUADPACK (scipy's quad, rel 1e-13 per piece) between the
    breaks of oracle_breaks and at +-2^k, k < 7.  Not tanh-sinh: it assumes
    an analytic integrand and stalls on the tabulated primitive of Gaussian
    data (5e-9 off at t = 3.7e6, x = -55340, with breaks at 1, 2, 4 and 8)."""
    gs = burgers._FIELD_WEIGHTS if gs is None else gs
    phase = PhysicalPhase(ZERO if heat_eq else data, x, t)
    top, breaks = oracle_breaks(phase)
    breaks = [-math.inf] + sorted(set(breaks) | {s * 2.0 ** k for k in range(7)
                                                 for s in (-1.0, 1.0)}) + [math.inf]
    w = quadrature.compile_weights(list(gs) + [None], phase.data, t)

    def moment(i):
        def g(y):
            return float(w(np.asarray([y]), x)[i, 0]) * math.exp(float(phase.total(y)) - top)
        return math.fsum(integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for a, b in zip(breaks[:-1], breaks[1:]))

    den = moment(len(gs))
    return [moment(i) / den for i in range(len(gs))]


def settled_fields(data, x, t, rel_tol):
    """derivative_fields at rel_tol, then at rel_tol 1e-12, then by QUADPACK:
    a generator of ever more expensive values, each None where its path
    raises NotConvergedError."""
    for tol in (rel_tol, 1e-12):
        try:
            yield burgers.derivative_fields(data, x, t, tol)
        except NotConvergedError:
            yield None
    yield burgers._fields(quadpack_moments(data, x, t))


@settings(max_examples=25, deadline=None)
@given(case=batch_cases(), rel_tol=st.sampled_from([1e-8, 1e-10]))
# at x = 396010.2 both scalar values are 5e-7 off in every moment, the
# batch is right: the case that needs QUADPACK
@example(case=(make_family(FamilySpec("Asymmetric", kappa=1.8342317515235003,
                                      alpha=0.38614512533537343, beta=0.6857939927555262)),
               25491280.014810264, np.linspace(-1584040.81614137, 1584040.81614137, 9)),
         rel_tol=1e-8)
def test_derivative_fields_batch_matches_derivative_fields(case, rel_tol):
    """derivative_fields_batch against derivative_fields at every x, each
    field within 10 rel_tol of its error size (field_scales of
    moment_sizes).  Where they are further apart
    the scalar value is settled at rel_tol 1e-12: the scalar path meets
    rel_tol per moment, and the cancellation in f_x, f_t and f_xx amplifies
    that.  Where the settled value is off too, QUADPACK settles it: the
    scalar partition misses the tail beyond a narrow peak, and the mass of
    Gaussian data at large t."""
    data, t, xs = case
    try:
        got = burgers.derivative_fields_batch(data, xs, t, rel_tol)
    except NotConvergedError:
        return  # its scalar fallback raised, as test_eval_batch_matches_eval settles
    scales = field_scales(*moment_sizes(data, xs, t))
    for i, x in enumerate(xs):
        budget = {name: 10.0 * rel_tol * scales[name][i] for name in FIELDS}
        for want in settled_fields(data, float(x), t, rel_tol):
            if want is not None and all(abs(got[name][i] - want[name]) <= budget[name]
                                        for name in FIELDS):
                break
        else:
            raise AssertionError((data.spec, t, x, {name: got[name][i] for name in FIELDS},
                                  want))


def test_derivative_fields_batch_falls_back_per_point(power_c0):
    # x = G_t(p) at the kink p = 0 of PowerC0 is a piece end: that point is
    # derivative_fields', the other is the kernel's
    t = 1e3
    xs = np.asarray([t * power_c0.value(0.0), 5.0])
    _vals, ok = ratio_moments_batch(burgers._FIELD_WEIGHTS, power_c0, xs, t)
    assert ok.tolist() == [False, True]
    got = burgers.derivative_fields_batch(power_c0, xs, t)
    want = burgers.derivative_fields(power_c0, float(xs[0]), t)
    assert {name: got[name][0] for name in FIELDS} == want


# ---------------------------------------------------------------------------
# heat derivatives


# every (n, k) with n + k <= 3 that heat_derivative takes: m = 2n + k from 0 to 6
HEAT_ORDERS = [(n, k) for n in range(4) for k in range(4 - n)]


def heat_derivative_and_size(data, x, t, m, exact=False):
    """(d, size, roundoff) at (x, t).

    d is the m-th x derivative of the heat solution, (-2 sqrt t)^-m r for
    the quotient r of the weight H_m(s) f0(y), s = (x - y) / (2 sqrt t).
    size = (|r| + 1e-3 L1) / (2 sqrt t)^m, with L1 the quotient of its
    modulus, is what heat_derivative meets rel_tol against (the
    quadrature's target is rel_tol max(|I|, 1e-3 L1) per moment).
    roundoff = 1e-15 |x| / (2 sqrt t) L1 / (2 sqrt t)^m bounds the error of
    any quadrature in y at |x| >> sqrt(t): a node y near x is off by
    eps |x|, so s is off by eps |x| / (2 sqrt t), and H_m(s) cancels to a
    small r there (PowerC0 alpha 1/4, m = 2, x = -3.5e7, t = 1e8: both
    paths and QUADPACK are 5e-6 relative off the convolution of f0'' by
    mpmath at 40 digits).

    The weight is written out here with numpy's hermval.  The quotients are
    taken on the scalar path to rel_tol 1e-6, which is plenty for a budget,
    or with exact by QUADPACK (quadpack_moments): the scalar path misses the
    bump of Gaussian data at large t."""
    coeffs = [0.0] * m + [1.0]

    def signed(y):
        return hermval((x - y) / (2.0 * math.sqrt(t)), coeffs) * data.value(y)

    gs = [signed, lambda y: np.abs(signed(y))]
    if exact:
        r, l1 = quadpack_moments(data, x, t, gs, heat_eq=True)
    else:
        r, l1 = quadrature.ratio_moments(gs, PhysicalPhase(ZERO, x, t), 1e-6)
    scale = (2.0 * math.sqrt(t)) ** -m
    return ((-1.0) ** m * scale * r, scale * (abs(r) + 1e-3 * l1),
            1e-15 * abs(x) / (2.0 * math.sqrt(t)) * scale * l1)


@settings(max_examples=30, deadline=None)
@given(case=batch_cases(), order=st.sampled_from(HEAT_ORDERS),
       rel_tol=st.sampled_from([1e-8, 1e-10]), pick=st.integers(0, 12))
def test_heat_derivative_batch_matches_heat_derivative(case, order, rel_tol, pick):
    """heat_derivative_batch against heat_derivative at every x, within both
    paths' budgets 4 rel_tol size + 2 roundoff (heat_derivative_and_size).
    Where they are further apart, QUADPACK settles it: the batch value is
    within 2 rel_tol size + 2 roundoff of it, and the scalar value is not.
    Where the scalar path raises NotConvergedError, the batch either meets
    its budget or raises that same error from its fallback."""
    data, t, xs = case
    n, k = order
    m = 2 * n + k
    want = []
    for x in xs:
        try:
            want.append(heat.heat_derivative(data, float(x), t, n, k, rel_tol))
        except NotConvergedError as exc:
            want.append(exc)
    try:
        got = heat.heat_derivative_batch(data, xs, t, n, k, rel_tol)
    except NotConvergedError as exc:
        assert str(exc) in [str(w) for w in want if isinstance(w, NotConvergedError)]
        return
    sizes = [heat_derivative_and_size(data, float(x), t, m)[1:] for x in xs]
    for i, w in enumerate(want):
        size, roundoff = sizes[i]
        if (not isinstance(w, NotConvergedError)
                and abs(got[i] - w) <= 4.0 * rel_tol * size + 2.0 * roundoff):
            continue
        truth, size, roundoff = heat_derivative_and_size(data, float(xs[i]), t, m, exact=True)
        budget = 2.0 * rel_tol * size + 2.0 * roundoff
        assert abs(got[i] - truth) <= budget, (data.spec, t, xs[i], order, got[i], w, truth)
        assert isinstance(w, NotConvergedError) or abs(w - truth) > budget
    # a point's value does not depend on the other points of its call, up
    # to round-off of the numerator on its L1 scale, at most 1e3 times the size
    i = pick % xs.size
    alone = heat.heat_derivative_batch(data, xs[i:i + 1], t, n, k, rel_tol)[0]
    assert abs(alone - got[i]) <= 1e-11 * sizes[i][0]


def test_heat_derivative_at_a_ddecay_argmax():
    # a ddecay_heat scan argmax at t = 1.131e8, where heat_derivative at
    # rel_tol 1e-8 was once 1.4e-8 off; both paths now agree with QUADPACK
    # (and its hermval weight) to 1.7e-16
    data = make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5))
    x, t = -16915.32, 1.131e8
    want = heat_derivative_and_size(data, x, t, 1, exact=True)[0]
    assert heat.heat_derivative(data, x, t, 0, 1, 1e-8) == pytest.approx(want, rel=1e-12)
    got = heat.heat_derivative_batch(data, np.asarray([x]), t, 0, 1, 1e-8)
    assert got[0] == pytest.approx(want, rel=1e-12)


def test_heat_derivative_batch_falls_back_per_point(monkeypatch, power_c1_half):
    # with 18 panels a point the kernel meets its targets at x = -3 and 5,
    # not at x = 0: that point is heat_derivative's
    xs = np.asarray([-3.0, 0.0, 5.0])
    t = 40.0
    monkeypatch.setattr(heat, "BatchKernel", starved_kernel(18))
    vals, ok = heat.BatchKernel([HermiteWeight(1, power_c1_half.value)], ZERO, t)(xs)
    assert ok.tolist() == [True, False, True]
    got = heat.heat_derivative_batch(power_c1_half, xs, t, 0, 1)
    assert got[1] == heat.heat_derivative(power_c1_half, 0.0, t, 0, 1)
    assert got[ok].tolist() == (-vals[0, ok] / (2.0 * math.sqrt(t))).tolist()


def test_starved_heat_derivative_raises_the_scalar_error(monkeypatch, power_c1_half):
    xs = np.asarray([-3.0, 0.0, 5.0])
    t = 40.0
    monkeypatch.setattr(heat, "BatchKernel", starved_kernel(12))
    monkeypatch.setattr(heat, "ratio_moment", lambda g, phase, rel_tol: quadrature.ratio_moments(
        [g], phase, rel_tol, max_panels=12)[0])
    with pytest.raises(NotConvergedError, match=r"weight 0 .* at x=-3, t=40"):
        heat.heat_derivative_batch(power_c1_half, xs, t, 1, 0)


# ---------------------------------------------------------------------------
# one kernel setup per scan


def test_sup_norm_sets_up_its_kernel_once(monkeypatch, power_c0):
    calls = {"monotone_pieces": 0, "_origin_scale": 0}
    for name in calls:
        def counted(*args, _fn=getattr(quadrature, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quadrature, name, counted)
    burgers.sup_norm(power_c0, 1e3, n_coarse=65)
    assert calls == {"monotone_pieces": 1, "_origin_scale": 1}


def test_sup_norms_at_t_0_are_the_initial_value_at_0(power_c0, gaussian_data):
    # the window |x| <= Z scale(0) is the point x = 0
    for data in (power_c0, gaussian_data):
        want = abs(float(data.value(0.0)))
        assert burgers.sup_norm(data, 0.0).value == want
        assert heat.heat_sup_norm(data, 0.0).value == want


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_reused_kernel_equals_a_fresh_one(power_c0, t):
    # the table of a window-wide setup has more pieces than that of one
    # call; no ratio depends on it
    m = t ** (1.0 / 1.5)
    kernel = BatchKernel(burgers._FIELD_WEIGHTS, power_c0, t)
    for xs in (np.linspace(-10.0 * m, 10.0 * m, 9), np.asarray([0.3 * m, 1.1 * m]),
               np.asarray([t * power_c0.value(0.0)])):
        got, ok = kernel(xs)
        want, want_ok = ratio_moments_batch(burgers._FIELD_WEIGHTS, power_c0, xs, t)
        assert ok.tolist() == want_ok.tolist()
        assert np.array_equal(got, want, equal_nan=True)


def test_kernel_tabulates_again_beyond_its_reach(monkeypatch, power_c1_third):
    # the table of a first call at |x| <= 10 need not hold the pieces of
    # G_t that the roots of x = 3e5 lie on: that call tabulates again, out
    # to 3e5, and gives the values of a fresh kernel; a call within the new
    # reach does not
    t = 1e6
    kernel = BatchKernel([burgers._F0], power_c1_third, t)
    kernel(np.asarray([-10.0, 5.0]))
    assert kernel.x_reach == 10.0
    xs = np.asarray([5.0, 3e5])
    want, want_ok = ratio_moments_batch([burgers._F0], power_c1_third, xs, t)
    tables = []
    monkeypatch.setattr(quadrature, "monotone_pieces",
                        lambda *args: tables.append(args) or monotone_pieces(*args))
    got, ok = kernel(xs)
    assert len(tables) == 1 and kernel.x_reach == 3e5
    assert ok.tolist() == want_ok.tolist() and np.array_equal(got, want, equal_nan=True)
    kernel(xs[:1])
    assert len(tables) == 1
