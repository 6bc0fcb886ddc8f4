"""The one quadrature path (quadrature.BatchKernel): randomized oracles
that hold every point of a batch to its batch of one up to round-off for
eval_batch, heat_eval_batch, derivative_fields_scorer and
heat_derivative_scorer, and both to QUADPACK and the closed forms; a point
that does not depend on its batch; points at the ends of the monotone
pieces of G_t; starved panel budgets; the reuse of one piece table; and the
sup-norm scans that run on it."""
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from numpy.polynomial.hermite import hermval
from scipy.optimize import minimize_scalar

from hopfcole import burgers, heat, quadrature
from hopfcole.initial_data import FamilySpec, make_family
from hopfcole.quadrature import (BatchKernel, NotConvergedError, PhysicalPhase,
                                 locate_critical_points, monotone_pieces)

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


# the grades of the kernel's initial panels (quadrature._batch_edges), in
# widths of a maximum or units of y around y = 0
GRADES = np.concatenate([[1.0, 3.0, 8.0], 8.0 * 4.0 ** np.arange(1, 13)])


def oracle_breaks(phase):
    """(top, breaks): the largest phase at a critical point, and breaks at
    the critical points and graded as the kernel's initial panels are
    (GRADES): around each maximum in its width min(sqrt(2t), 1/sqrt(-H''))
    and around y = 0, where the data vary, in units of y.  The graded
    breaks where the phase is 100 e-folds below top are dropped, except
    the nearest one on each side of the rest; where that one is the
    outermost break, the phase decreases beyond it (no maximum lies there)
    and the tail is below e^-100 of the peak, so it ends the breaks;
    otherwise they end at -inf or +inf.  The breaks at 0, +-3 and +-2^k,
    k < 7, stay whatever the phase there: a weight that vanishes near the
    peak (f0 of Gaussian data far from y = 0) lives where the phase is
    low."""
    t = phase.t
    cps = locate_critical_points(phase)
    top = max(float(phase.total(c.y)) for c in cps)
    graded = [GRADES, -GRADES]
    for c in cps:
        if c.kind != quadrature.KIND_MIN:
            d2 = -0.5 * (1.0 + t * float(phase.data.derivative(c.y, 1))) / t
            w = min(math.sqrt(2.0 * t), 1.0 / math.sqrt(-d2)) if d2 < 0.0 else math.sqrt(2.0 * t)
            graded += [c.y + w * GRADES, c.y - w * GRADES]
    graded = np.unique(np.concatenate(graded))
    live = np.flatnonzero(phase.total(graded) - top > -100.0)
    units = np.concatenate([[3.0], 2.0 ** np.arange(7)])
    breaks = np.unique(np.concatenate([graded[max(live[0] - 1, 0):live[-1] + 2],
                                       [0.0], units, -units, [c.y for c in cps]]))
    low = phase.total(breaks[[0, -1]]) - top <= -100.0
    return top, ([] if low[0] else [-math.inf]) + breaks.tolist() + ([] if low[1] else [math.inf])


def batch_and_singles(batch, single, data, xs, t):
    """(got, singles): batch(data, xs, t), and single(data, x, t) at every x
    or the NotConvergedError it raised.  A single point is a batch of one
    on the same kernel, so the two fail together: a batch that raises
    NotConvergedError raises that of the first of its points that raises
    alone, and got is None then; in a batch that does not raise, no point
    raises alone."""
    singles = []
    for x in xs:
        try:
            singles.append(single(data, float(x), t))
        except NotConvergedError as exc:
            singles.append(exc)
    try:
        got = batch(data, xs, t)
    except NotConvergedError as exc:
        first = next((w for w in singles if isinstance(w, NotConvergedError)), None)
        assert first is not None and str(exc) == str(first), (data.spec, t, exc, singles)
        return None, singles
    assert not any(isinstance(w, NotConvergedError) for w in singles), (data.spec, t, singles)
    return got, singles


def closed_form(data, x, t, heat_eq):
    """The solution where it has a closed form (Constant data, the heat
    equation of Gaussian data), else None."""
    spec = data.spec
    if spec.family == "Constant":
        return spec.extra["level"]
    if heat_eq and spec.family == "Gaussian":
        a, sigma = spec.extra["amplitude"], spec.extra["sigma"]
        return a * math.sqrt(sigma / (sigma + t)) * math.exp(-x * x / (4.0 * (sigma + t)))
    return None


def value_sizes(data, xs, t, heat_eq):
    """|r| + 1e-3 l1 at every x, for the quotient r of f0 and the quotient
    l1 of |f0|: the kernel's targets rel_tol max(|I|, 1e-3 L1) on the
    numerator and rel_tol |I| on the denominator put the quotient within
    2 rel_tol of this size.  Quotients on the kernel to rel_tol 1e-6,
    plenty for a budget."""
    g = burgers._F0 if not heat_eq else data.value
    phase_data = ZERO if heat_eq else data
    w = quadrature.compile_weights([g], phase_data, t)
    r, l1 = BatchKernel([g, lambda y: np.abs(w(y)[0])], phase_data, t)(xs, 1e-6)
    return np.abs(r) + 1e-3 * l1


def check_against_single(batch, single, data, t, xs, pick, heat_eq):
    """batch(data, xs, t) against single(data, x, t) at every x, and both
    against the truth.

    A point's value does not depend on the other points of its call: each
    single value is the batch's up to round-off of the numerator, whose L1
    scale is sup|f0| times the denominator (at the zeros of odd data the
    values are that round-off).  Both are within 2 RTOL of value_sizes of
    the closed form at every point that has one, and of QUADPACK
    (quadpack_moments) at the point pick of the others, or within one
    spacing of doubles at the truth where that is larger: a value of
    subnormal data cannot be nearer to it.  Failures as in
    batch_and_singles."""
    got, singles = batch_and_singles(batch, single, data, xs, t)
    if got is None:
        return
    for i, w in enumerate(singles):
        assert abs(got[i] - w) <= 1e-14 * (abs(got[i]) + data.sup_abs), (data.spec, t, xs[i])
    sizes = value_sizes(data, xs, t, heat_eq)
    for i, x in enumerate(xs):
        truth = closed_form(data, float(x), t, heat_eq)
        if truth is None and i == pick % xs.size:
            g = data.value if heat_eq else burgers._F0
            truth = quadpack_moments(data, float(x), t, [g], heat_eq)[0]
        if truth is not None:
            for v in (got[i], singles[i]):
                assert abs(v - truth) <= max(2.0 * RTOL * sizes[i], abs(np.spacing(truth))), \
                    (data.spec, t, x, v, truth)


@settings(max_examples=40, deadline=None)
@given(case=batch_cases(), pick=st.integers(0, 12))
# f of Constant data is its level 5e-324; both paths return 0.0, and
# 2 RTOL size underflows to 0, below the spacing of doubles there
@example(case=(make_family(FamilySpec("Constant", extra={"level": 5e-324})),
               1.0, np.linspace(-1.0, 1.0, 5)), pick=0)
# QUADPACK raised IntegrationWarning on the pieces near y = 0, 1e-322 of
# the peak, until the pieces 700 e-folds below the peak were left out
@example(case=(make_family(FamilySpec("PowerC0", kappa=0.90625, alpha=0.6195974116551339)),
               1e8, np.linspace(-478477.825715082, 478477.825715082, 5)), pick=0)
def test_eval_batch_matches_eval(case, pick):
    data, t, xs = case
    check_against_single(burgers.eval_batch, burgers.eval, data, t, xs, pick, heat_eq=False)


@settings(max_examples=40, deadline=None)
@given(case=batch_cases(), pick=st.integers(0, 12))
def test_heat_eval_batch_matches_heat_eval(case, pick):
    data, t, xs = case
    check_against_single(heat.heat_eval_batch, heat.heat_eval, data, t, xs, pick, heat_eq=True)


def test_mended_single_points():
    # the heap refinement this path replaced returned 9.68e-7 for the first
    # (no edge at the bump of the Gaussian) and 0.0140261570736 for the
    # second (one panel over the tail beyond the narrow peak)
    gauss = make_family(FamilySpec("Gaussian", extra={"amplitude": 1.0, "sigma": 1.0}))
    want = closed_form(gauss, 5000.0, 1e6, heat_eq=True)
    assert want == pytest.approx(1.930465236359e-6, rel=1e-12)
    assert heat.heat_eval(gauss, 5000.0, 1e6) == pytest.approx(want, rel=1e-9)
    asym = make_family(FamilySpec("Asymmetric", kappa=1.63, alpha=0.50, beta=0.925))
    assert burgers.eval(asym, 73839.6, 5.29e6) == pytest.approx(0.0140184594840589, abs=1e-9)


def test_a_point_does_not_depend_on_its_batch():
    # the zero of odd data: f(0, t) = 0 by symmetry, and the two maxima at
    # +-4.6e5 weigh the same.  With the phase as exp(H - log_scale) their
    # weights were off by eps |H|, and x = 0 missed its target (error
    # 4.56e-9 against 2.35e-9).  Measured from one maximum by integrals of
    # f0 in extended precision, x = 0 is a round-off of kappa; each root's
    # Newton iteration stops at its own last step, and every point of the
    # batch is its batch of one bit for bit
    data = make_family(FamilySpec("SignFlipped", kappa=1.875, alpha=0.2))
    t = 1e7
    xs = 340646.03452898 * np.arange(-2.0, 3.0)
    got = burgers.eval_batch(data, xs, t)
    assert got.tolist() == [burgers.eval(data, float(x), t) for x in xs]
    assert abs(got[2]) <= 1e-11 * data.kappa


def test_the_zero_of_odd_data_at_long_times():
    # once NotConvergedError: error 7.15e-9 against a target of 3e-9
    data = make_family(FamilySpec("SignFlipped", kappa=1.0, alpha=0.2))
    assert abs(burgers.eval(data, 0.0, 1e8)) <= 1e-11 * data.kappa


def test_a_long_time_point_meets_rel_tol_1e_10():
    # PowerC1 alpha 0.1 at t = 1e8: exp(H - log_scale) carried eps |H|, and
    # x = -5.62e7 missed rel_tol 1e-10 (error 6.06e-7 against 5.74e-7)
    data = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=0.1))
    x, t, rel_tol = -5.62e7, 1e8, 1e-10
    want = quadpack_moments(data, x, t, [burgers._F0])[0]
    assert burgers.eval(data, x, t, rel_tol) == pytest.approx(want, rel=2.0 * rel_tol)


@pytest.mark.parametrize("level", [0.55, 0.6])
def test_constant_data_at_a_large_phase_maximum(level):
    # the phase maximum is 6.6e6 here: exp(H - log_scale) carried 1e-9 at
    # every node, and rel_tol 1e-10 raised (error 3.49e-6 against 1.82e-6)
    data = make_family(FamilySpec("Constant", extra={"level": level}))
    assert burgers.eval(data, 0.0, 8.7e7, 1e-10) == pytest.approx(level, rel=1e-10)


@pytest.mark.parametrize("family", ["PowerC0", "PowerC1"])
def test_alpha_0_1_at_t_1e10_matches_the_40_digit_oracle(family):
    # 6 of these 7 points raised NotConvergedError on each family (error
    # 1.8e-4 against a target of 4.2e-5) while the phase carried eps |H|;
    # the oracle takes the phase at 40 digits here (phase_40)
    data = make_family(FamilySpec(family, kappa=1.0, alpha=0.1))
    t = 1e10
    xs = np.linspace(-3.0, 3.0, 7) * t ** (1.0 / 1.1)
    got = burgers.eval_batch(data, xs, t)
    for x, v in zip(xs, got):
        want = quadpack_moments(data, float(x), t, [burgers._F0])[0]
        assert v == pytest.approx(want, rel=2.0 * RTOL), x


def assert_one_root_at(data, x, t, p):
    """The critical points at (x, t) have exactly one root at p, and it is
    degenerate; no warning is raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cps = locate_critical_points(PhysicalPhase(data, float(x), t))
    at_p = [c for c in cps if abs(c.y - p) <= 1e-9 * (1.0 + abs(p))]
    assert [(c.y, c.kind) for c in at_p] == [(p, quadrature.KIND_DEGENERATE)], cps


@pytest.mark.parametrize("family", ["PowerC0", "PowerC1"])
def test_point_at_a_piece_end_is_one_degenerate_root(family):
    # x = G_t(p) at an end p of a monotone piece of G_t: a fold of G_t
    # (PowerC1) or the kink of f0 (PowerC0) is one degenerate root at p,
    # and the value there is QUADPACK's
    data = make_family(FamilySpec(family, kappa=1.0, alpha=0.5))
    t = 1e3
    bounds, rising = monotone_pieces(data, t, 1e4)
    assert rising.tolist() == [True, False, True]
    for p in bounds:
        xs = np.asarray([p + t * data.value(p), 0.0])
        assert_one_root_at(data, xs[0], t, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = burgers.eval_batch(data, xs, t)
        want = quadpack_moments(data, float(xs[0]), t, [burgers._F0])[0]
        assert got[0] == pytest.approx(want, rel=2.0 * RTOL)
        assert got[0] == pytest.approx(burgers.eval(data, float(xs[0]), t), rel=1e-14)


def test_a_root_that_misses_its_checks_raises(monkeypatch):
    # no root is replaced silently: one whose G_t' has the wrong sign for
    # its piece raises, naming the point (in a batch, the first that fails)
    monkeypatch.setattr(quadrature._Phases, "slope", lambda self, y, k: -np.ones_like(y))
    with pytest.raises(quadrature.InternalConsistencyError,
                       match=r"^critical points at x=2\.5, t=10\.0: a root misses "):
        locate_critical_points(PhysicalPhase(ZERO, 2.5, 10.0))
    with pytest.raises(quadrature.InternalConsistencyError, match=r"at x=-1\.0, t=10\.0"):
        burgers.eval_batch(ZERO, np.asarray([-1.0, 2.5]), 10.0)


def starved_kernel(budget):
    """BatchKernel whose calls get budget panels a point."""
    class Starved(BatchKernel):
        def __call__(self, xs, rel_tol=1e-9, max_panels=4000):
            return super().__call__(xs, rel_tol, budget)
    return Starved


def test_starved_panel_budget_raises(monkeypatch, power_c1_half):
    # a point that misses its target within the budget raises, naming the
    # weight, x and t; the kernel has no second path to hide it
    # (at rel_tol 1e-9 these points converge on their initial panels, which
    # resolve f0 near y = 0, so the budget is starved at rel_tol 1e-12;
    # x = -3 meets it on 12 panels, x = 0 is the first point to miss)
    xs = np.asarray([-3.0, 0.0, 5.0])
    t, rel_tol = 40.0, 1e-12
    assert np.all(np.isfinite(BatchKernel([burgers._F0], power_c1_half, t)(xs, rel_tol)))
    with pytest.raises(NotConvergedError, match=r"^weight 0 .* at x=0, t=40: error "):
        starved_kernel(12)([burgers._F0], power_c1_half, t)(xs, rel_tol)
    monkeypatch.setattr(burgers, "BatchKernel", starved_kernel(12))
    with pytest.raises(NotConvergedError, match=r"^weight 0 .* at x=0, t=40: error "):
        burgers.eval_batch(power_c1_half, xs, t, rel_tol)
    with pytest.raises(NotConvergedError, match=r"^weight 0 .* at x=5, t=40: error "):
        burgers.eval(power_c1_half, 5.0, t, rel_tol)


def pointwise(fn):
    """A scan_max score from a function of one float: the array of x of
    each window is scored point by point."""
    def score(xs):
        return [np.asarray([fn(v) for v in x], dtype=float) for x in xs]
    return score


def reference_scan_max(fn, lo, hi, n_coarse, n_refine=3):
    """scan_max with its coarse grid and its shoulder sub-grids scored point
    by point on fn, and each bracket refined by minimize_scalar."""
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
    peaks, shoulders = [], []
    for i in picked:
        ia, ib = max(i - 1, 0), min(i + 1, n_coarse - 1)
        a, b = grid[ia], grid[ib]
        if b <= a:
            continue
        xatol = 1e-6 * (b - a) + 1e-12
        if vals[i] >= vals[ia] and vals[i] >= vals[ib]:
            peaks.append((a, b, xatol))
            continue
        # a shoulder: 7 sub-grid points, and a bracket only around a
        # sub-grid maximum above both bracket ends
        pts = np.linspace(a, b, 9)
        sub = [fn(v) for v in pts[1:-1]]
        k = int(np.argmax(sub))
        if sub[k] > best_v:
            best_v, best_x = float(sub[k]), float(pts[k + 1])
        if sub[k] > max(vals[ia], vals[ib]):
            shoulders.append((pts[k], pts[k + 2], xatol))
    for a, b, xatol in peaks + shoulders:
        res = minimize_scalar(lambda v: -fn(v), bounds=(a, b), method="bounded",
                              options={"xatol": xatol})
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


def test_scan_finds_a_narrow_bump_in_a_shoulder_cell():
    # a broad peak at x = 1.8 and a bump of width 0.1 at x = 4.55 that no
    # grid point sees: the pick at x = 4 is a shoulder (x = 3 outscores
    # it), its sub-grid point 4.5 beats both bracket ends, and the bracket
    # [4.25, 4.75] refines to the top of the bump
    def fn(x):
        return math.exp(-(x - 1.8) ** 2 / 8) + math.exp(-(x - 4.55) ** 2 / 0.02)

    grid_top = max(fn(g) for g in np.linspace(0.0, 8.0, 9))
    want = minimize_scalar(lambda v: -fn(v), bounds=(4.4, 4.7), method="bounded",
                           options={"xatol": 1e-12})
    v, x = burgers.scan_max(pointwise(fn), 0.0, 8.0, 9)
    assert (v, x) == reference_scan_max(fn, 0.0, 8.0, 9)
    assert -want.fun > grid_top + 0.3
    assert v == pytest.approx(-want.fun, rel=1e-9)
    assert x == pytest.approx(want.x, abs=1e-5)


def test_monotone_shoulders_start_no_refinement():
    # on increasing scores the last grid point is the top pick, a peak of
    # the grid; the other picks are shoulders whose sub-grids rise to their
    # right ends, so the one sub-grid call is all they cost, and every
    # later call is a step of the top bracket
    grid = np.linspace(0.0, 1.0, 11)
    calls = []

    def fn(xs):
        calls.append(np.array(xs[0]))
        return [np.exp(xs[0])]

    v, x = burgers.scan_max(fn, 0.0, 1.0, 11)
    top = minimize_scalar(lambda u: -math.exp(u), bounds=(grid[9], grid[10]),
                          method="bounded",
                          options={"xatol": 1e-6 * (grid[10] - grid[9]) + 1e-12})
    assert [c.size for c in calls[:2]] == [11, 14]
    assert all(c.size == 1 and grid[9] <= c[0] <= grid[10] for c in calls[2:])
    assert len(calls) == 2 + top.nfev
    assert (v, x) == (math.exp(1.0), 1.0)


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
    # the value the scan ranked is the batch kernel's; a scan on the old
    # heap refinement read 0.21124695603 at n_coarse 65, 2.6e-7 high from
    # the kink of f0 at y = 0.  PowerC0 has a closed-form primitive, so
    # mpmath's tanh-sinh rule between the breaks of oracle_breaks holds here
    t = 1e3
    got = burgers.sup_norm(power_c0, t, n_coarse=n_coarse)
    phase = PhysicalPhase(power_c0, got.argmax_x, t)
    top, breaks = oracle_breaks(phase)

    def e(y):
        return mpmath.exp(float(phase.total(float(y))) - top)

    num = mpmath.quad(lambda y: float(power_c0.value(float(y))) * e(y), breaks)
    assert got.value == pytest.approx(float(num / mpmath.quad(e, breaks)), rel=1e-9)


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
    """(r, a): the kernel's rows of the derivative fields at every x (the
    moments m_j of y - c, j = 1, 2, 3, about the point's center c, and c;
    burgers._MOMENTS), and the size a_j = |m_j| + 1e-3 L1_j against which
    each moment meets rel_tol (the quadrature's target is
    rel_tol max(|I|, 1e-3 L1) per moment).  L1_2 is m_2, and L1_1 and L1_3
    are bounded by Cauchy-Schwarz, by sqrt(m_2) and sqrt(m_2 m_4).  All to
    rel_tol 1e-6, which is plenty for a budget."""
    m1, m2, m3, m4, c = BatchKernel(burgers._MOMENTS + [quadrature.CenteredWeight(4)],
                                    data, t)(xs, 1e-6)
    return (np.stack([m1, m2, m3, c]),
            np.stack([np.abs(m1) + 1e-3 * np.sqrt(m2), (1.0 + 1e-3) * m2,
                      np.abs(m3) + 1e-3 * np.sqrt(m2 * m4)]))


def field_scales(r, a, xs, t):
    """First-order sizes of the errors of f, f_x, f_t and f_xx at the points
    xs at t (burgers._cumulant_fields) when each moment m_j is off by a_j:
    through the cumulants kappa_2 = m_2 - m_1^2 and
    kappa_3 = m_3 - 3 m_1 m_2 + 2 m_1^3, and f_t = f_xx - f f_x."""
    m1, m2 = np.abs(r[0]), np.abs(r[1])
    fields = burgers._cumulant_fields(r, xs, t)
    s_f = a[0] / t
    s_fx = (a[1] + 2.0 * m1 * a[0]) / (2.0 * t * t)
    s_fxx = (a[2] + 3.0 * m1 * a[1] + (3.0 * m2 + 6.0 * m1 * m1) * a[0]) / (4.0 * t ** 3)
    return {"f": s_f, "f_x": s_fx, "f_xx": s_fxx,
            "f_t": s_fxx + np.abs(fields["f"]) * s_fx + np.abs(fields["f_x"]) * s_f}


# the zeros of the Hermite polynomials H_1 to H_6, where the weights of the
# heat derivatives change sign
HERMITE_ZEROS = np.concatenate([np.polynomial.hermite.hermroots([0.0] * m + [1.0])
                                for m in range(1, 7)])


def mp_primitive(data):
    """The primitive P(y) = int_0^y f0 of data in closed form at mpmath's
    working precision, y -> mpf, or None for data without one (PowerLog,
    Custom).  PowerC1 and each side of Asymmetric data are
    kappa y 2F1(1/2, e/2; 3/2; -y^2) (mpmath.hyp2f1)."""
    spec = data.spec
    k, a = mpmath.mpf(spec.kappa), mpmath.mpf(spec.alpha)
    half = mpmath.mpf(1) / 2
    if spec.family == "PowerC0":
        return lambda y: mpmath.sign(y) * k * ((1 + abs(y)) ** (1 - a) - 1) / (1 - a)
    if spec.family in ("PowerC1", "Asymmetric"):
        b = a if spec.beta is None else mpmath.mpf(spec.beta)
        plus, minus = mp_power_c1(a), mp_power_c1(b)
        return lambda y: k * (plus(y) if y >= 0 else minus(y))
    if spec.family == "SignFlipped":
        return lambda y: k * ((1 + y * y) ** ((1 - a) / 2) - 1) / (a - 1)
    if spec.family == "Constant":
        return lambda y: mpmath.mpf(spec.extra["level"]) * y
    if spec.family == "Gaussian":
        amp, sigma = mpmath.mpf(spec.extra["amplitude"]), mpmath.mpf(spec.extra["sigma"])
        return lambda y: amp * mpmath.sqrt(mpmath.pi * sigma) * mpmath.erf(y / (2 * mpmath.sqrt(sigma)))
    if spec.family == "Zero":
        return lambda y: mpmath.mpf(0)
    return None


def mp_power_c1(e):
    """y -> int_0^y (1 + u^2)^(-e/2) du at 40 digits: y 2F1(1/2, e/2; 3/2;
    -y^2) for |y| <= 4, and beyond, that at 4 plus the binomial series of
    u^-e (1 + u^-2)^(-e/2) integrated from 4, whose terms fall like
    (4/|y|)^2k: 2F1 costs 0.5 ms at large |y|, a few terms much less."""
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        four = mpmath.mpf(4)
        coef = [mpmath.binomial(-e / 2, j) / (1 - e - 2 * j) for j in range(40)]
        base = 4 * mpmath.hyp2f1(half, e / 2, 3 * half, -16) - mpmath.fsum(
            c * four ** (1 - e - 2 * j) for j, c in enumerate(coef))
        tiny = mpmath.mpf(10) ** -45

    def prim(y):
        with mpmath.workdps(40):
            if abs(y) <= 4:
                return y * mpmath.hyp2f1(half, e / 2, 3 * half, -y * y)
            u = abs(y)
            power, step, total = u ** (1 - e), 1 / (u * u), base
            for c in coef:
                total += c * power
                power *= step
                if abs(power) < tiny * abs(total):
                    break
            return mpmath.sign(y) * total
    return prim


def phase_40(data, x, t):
    """y -> the phase H(y) = -(x - y)^2/(4t) - P(y)/2 at (x, t) at 40 digits
    (mp_primitive), as an mpf; None for data without a closed form."""
    prim = mp_primitive(data)
    if prim is None:
        return None
    xm, tm = mpmath.mpf(x), mpmath.mpf(t)

    def phase(y):
        with mpmath.workdps(40):
            y = mpmath.mpf(y)
            return -(xm - y) ** 2 / (4 * tm) - prim(y) / 2
    return phase


def quadpack_moments(data, x, t, gs=None, heat_eq=False):
    """The quotients of the weights gs (default burgers._MOMENTS) under
    the phase of data (the Gaussian phase of the heat equation with
    heat_eq) by QUADPACK (scipy's quad) between the breaks of
    oracle_breaks, and with heat_eq at the zeros of the Hermite weights of
    the heat derivatives too (a break within 1e-9 of the one before it is
    dropped): a piece over which its weight changes sign can cancel to
    below 100 eps of its modulus, which QUADPACK takes for round-off.

    exp(H - top) is taken from the phase at 40 digits (phase_40) where the
    terms of H at the peak, (x - y)^2/(4t) and |P(y)|/2, add up to more than
    4: the rounding of a double phase, eps times those terms, would come
    near QUADPACK's tolerance.  A piece whose higher end lies more than 700
    e-folds below the top (the phase is monotone between breaks) is left
    out: e^(H - top) <= 1e-304 on it, so with weights below 1e27 on pieces
    below 1e9 wide it adds less than 1e-268 of the peak's scale, and its
    values are subnormal doubles, on which QUADPACK's relative tolerances
    fail to round-off (PowerC0 kappa 0.906, alpha 0.620 at t = 1e8,
    x = -4.78e5: the pieces between -64 and -8 are 1e-322 of the peak
    there, and their L1 raised IntegrationWarning).

    Each piece is taken to rel 1e-13, or where it is larger to abs 1e-15
    of the integral of |g| e^Phi over the line, or 3e-14 of it over the
    piece (each to rel 1e-3 first).  A piece far below the peak (1e-220 of
    it) cannot be taken to 1e-13 of itself, and QUADPACK's estimate for a
    piece never falls below 50 eps of its modulus, where a weight that
    changes sign cancels.  Over 40 pieces the absolute tolerances add up to
    7e-14 of the integral of |g| e^Phi, a third of the smallest budget of
    the tests that use this oracle (2 rel_tol 1e-3 of it at rel_tol
    1e-10).  A piece that misses its
    tolerance raises IntegrationWarning, which the test settings make an
    error.  Not tanh-sinh: it assumes an
    analytic integrand and stalls on the tabulated primitive of Gaussian
    data (6e-4 off at t = 3.73e6, x = -55339.67).

    A CenteredWeight (y - c)^j is taken about the global maximum of the
    phase, a break, so that no piece holds its sign change; with such
    weights that center follows the quotients, as the kernel's center row
    does."""
    gs = burgers._MOMENTS if gs is None else gs
    phase = PhysicalPhase(ZERO if heat_eq else data, x, t)
    top, breaks = oracle_breaks(phase)
    if heat_eq:
        near = sorted(breaks + (x - 2.0 * math.sqrt(t) * HERMITE_ZEROS).tolist())
        breaks = near[:1]
        for b in near[1:]:  # a piece of a few ulps is all round-off
            if b - breaks[-1] > 1e-9 * (1.0 + abs(b)):
                breaks.append(b)
    exact = phase_40(phase.data, x, t)
    peak = max((c.y for c in locate_critical_points(phase)), key=phase.total)
    if exact is None or (x - peak) ** 2 / (4.0 * t) + abs(phase.data.primitive(peak)) / 2.0 <= 4.0:
        @functools.lru_cache(maxsize=None)  # the moments share most of their nodes
        def rel(y):  # the phase less its top
            return float(phase.total(y)) - top
    else:
        top40 = exact(peak)

        @functools.lru_cache(maxsize=None)
        def rel(y):
            return exact(y) - top40

    # the pieces whose higher end lies within 700 e-folds of the top
    pieces = [(a, b) for a, b in zip(breaks[:-1], breaks[1:])
              if max(float(rel(v)) for v in (a, b) if math.isfinite(v)) > -700.0]

    def moment(g):
        w = quadrature.compile_weights([g], phase.data, t)

        def integrand(y):
            return float(w(np.asarray([y]), x, c=peak)[0, 0]) * math.exp(float(rel(y)))
        l1 = [integrate.quad(lambda y: abs(integrand(y)), a, b, epsabs=0.0, epsrel=1e-3,
                             limit=200)[0] for a, b in pieces]
        whole = math.fsum(l1)
        return math.fsum(integrate.quad(integrand, a, b, epsabs=max(1e-15 * whole, 3e-14 * m),
                                        epsrel=1e-13, limit=200)[0]
                         for (a, b), m in zip(pieces, l1))

    den = moment(None)
    centered = any(isinstance(g, quadrature.CenteredWeight) for g in gs)
    return [moment(g) / den for g in gs] + ([peak] if centered else [])


def quadpack_fields(data, x, t):
    """The derivative fields at (x, t) from QUADPACK's moments."""
    return burgers._cumulant_fields(np.asarray(quadpack_moments(data, x, t)), x, t)


def settled_fields(data, x, t):
    """derivative_fields at rel_tol 1e-12, then by QUADPACK: a generator of
    ever more expensive values, None where the first raises
    NotConvergedError."""
    try:
        yield burgers.derivative_fields(data, x, t, 1e-12)
    except NotConvergedError:
        yield None
    yield quadpack_fields(data, x, t)


@settings(max_examples=25, deadline=None)
@given(case=batch_cases(), rel_tol=st.sampled_from([1e-8, 1e-10]), pick=st.integers(0, 12))
# at x = 396010.2 the heap refinement this kernel replaced was 5e-7 off in
# every moment: a case that once needed QUADPACK
@example(case=(make_family(FamilySpec("Asymmetric", kappa=1.8342317515235003,
                                      alpha=0.38614512533537343, beta=0.6857939927555262)),
               25491280.014810264, np.linspace(-1584040.81614137, 1584040.81614137, 9)),
         rel_tol=1e-8, pick=5)
# tiny Constant data: f_xx was 1.5e-323 against 0 here, with a budget that
# underflowed; the cumulant fields are round-off of the moments' sizes
@example(case=(make_family(FamilySpec("Constant", extra={"level": 1.9171692939822443e-106})),
               1.0, np.linspace(-1.0, 1.0, 5)),
         rel_tol=1e-8, pick=0)
def test_derivative_fields_batch_matches_derivative_fields(case, rel_tol, pick):
    """derivative_fields_scorer against derivative_fields (a batch of one)
    at every x, and both against the settled value at the point pick.

    Each single field is the batch's up to round-off, 1e-11 of its error
    size (field_scales of moment_sizes).  At the point pick both are within
    10 rel_tol of that size of the fields at rel_tol 1e-12 or else of
    QUADPACK's (settled_fields): each moment meets rel_tol, and the
    cumulants and the fields amplify that (field_scales).  Failures as in
    batch_and_singles."""
    data, t, xs = case
    got, singles = batch_and_singles(
        lambda d, x, tt: burgers.derivative_fields_scorer(d, tt, rel_tol)(x),
        lambda d, x, tt: burgers.derivative_fields(d, x, tt, rel_tol), data, xs, t)
    if got is None:
        return
    scales = field_scales(*moment_sizes(data, xs, t), xs, t)
    for i, w in enumerate(singles):
        for name in FIELDS:
            assert abs(got[name][i] - w[name]) <= 1e-11 * scales[name][i], \
                (data.spec, t, xs[i], name, got[name][i], w[name])
    i = pick % xs.size
    budget = {name: 10.0 * rel_tol * scales[name][i] + 1e-300 for name in FIELDS}
    for want in settled_fields(data, float(xs[i]), t):
        if want is not None and all(abs(v - want[name]) <= budget[name]
                                    for name in FIELDS
                                    for v in (got[name][i], singles[i][name])):
            break
    else:
        raise AssertionError((data.spec, t, xs[i], {name: got[name][i] for name in FIELDS},
                              want))


def test_derivative_fields_batch_at_a_piece_end(power_c0):
    # x = G_t(p) at the kink p = 0 of PowerC0 is a piece end: one
    # degenerate root at 0, and the fields there are QUADPACK's
    t = 1e3
    xs = np.asarray([t * power_c0.value(0.0), 5.0])
    assert_one_root_at(power_c0, xs[0], t, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = burgers.derivative_fields_scorer(power_c0, t)(xs)
    want = quadpack_fields(power_c0, float(xs[0]), t)
    scales = field_scales(*moment_sizes(power_c0, xs[:1], t), xs[:1], t)
    for name in FIELDS:
        assert abs(got[name][0] - want[name]) <= 10.0 * 1e-10 * scales[name][0]


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
    mpmath at 40 digits).  It adds 16 spacings of doubles at 0 (2^-1074)
    times (2 sqrt t)^-m, the floor of that rounding on subnormal data: each
    node's integrand is then rounded to a multiple of 2^-1074, up to 2 such
    steps, over a window about 8 times the denominator sqrt(4 pi t) wide
    (Constant data at level 2.2e-313, t = 0.316, m = 2: -2e-323 for an
    exact 0).

    The weight is written out here with numpy's hermval.  The quotients are
    taken on the kernel (a batch of one) to rel_tol 1e-6, which is plenty for
    a budget, and with exact r is QUADPACK's (quadpack_moments), or 0 where
    it is exactly 0: every derivative of constant data (QUADPACK returns
    its round-off there, 1e-323 on subnormal data)."""
    coeffs = [0.0] * m + [1.0]

    def signed(y):
        return hermval((x - y) / (2.0 * math.sqrt(t)), coeffs) * data.value(y)

    r, l1 = BatchKernel([signed, lambda y: np.abs(signed(y))], ZERO, t)([x], 1e-6)[:, 0]
    if exact:
        r = (0.0 if m and data.spec.family == "Constant"
             else quadpack_moments(data, x, t, [signed], heat_eq=True)[0])
    scale = (2.0 * math.sqrt(t)) ** -m
    return ((-1.0) ** m * scale * r, scale * (abs(r) + 1e-3 * l1),
            scale * (1e-15 * abs(x) / (2.0 * math.sqrt(t)) * l1 + 16.0 * 2.0 ** -1074))


@settings(max_examples=30, deadline=None)
@given(case=batch_cases(), order=st.sampled_from(HEAT_ORDERS),
       rel_tol=st.sampled_from([1e-8, 1e-10]), pick=st.integers(0, 12))
# d_xx of Constant data is -5e-324 against 0 here: 2 rel_tol size is
# 2.2e-324, below the spacing of doubles at 0
@example(case=(make_family(FamilySpec("Constant", extra={"level": 2.2250738585e-313})),
               1.0, np.linspace(-1.0, 1.0, 5)),
         order=(0, 2), rel_tol=1e-8, pick=0)
# QUADPACK's round-off read -1e-323 for d_x here, against -0.0 on both
# paths: the truth of constant data is 0, and d_xx and d_t read -2e-323
@example(case=(make_family(FamilySpec("Constant", extra={"level": 2.2250738585e-313})),
               0.31622776601683794, np.linspace(-0.4217559938927618, 0.4217559938927618, 5)),
         order=(0, 1), rel_tol=1e-8, pick=0)
@example(case=(make_family(FamilySpec("Constant", extra={"level": 2.2250738585e-313})),
               0.31622776601683794, np.linspace(-0.4217559938927618, 0.4217559938927618, 5)),
         order=(0, 2), rel_tol=1e-8, pick=0)
@example(case=(make_family(FamilySpec("Constant", extra={"level": 2.2250738585e-313})),
               0.31622776601683794, np.linspace(-0.4217559938927618, 0.4217559938927618, 5)),
         order=(1, 0), rel_tol=1e-8, pick=0)
def test_heat_derivative_batch_matches_heat_derivative(case, order, rel_tol, pick):
    """heat_derivative_scorer against heat_derivative (a batch of one) at
    every x, and both against QUADPACK at the point pick (the exact 0 of
    constant data at every order >= 1).

    Each single value is the batch's up to round-off, 1e-11 of its size
    (heat_derivative_and_size).  At the point pick both are within
    2 rel_tol size + 2 roundoff of the truth, or within one spacing of
    doubles at the truth where that is larger: a value of subnormal data
    cannot be nearer to it.  Failures as in
    batch_and_singles."""
    data, t, xs = case
    n, k = order
    m = 2 * n + k
    got, want = batch_and_singles(
        lambda d, x, tt: heat.heat_derivative_scorer(d, tt, n, k, rel_tol)(x),
        lambda d, x, tt: heat.heat_derivative(d, x, tt, n, k, rel_tol), data, xs, t)
    if got is None:
        return
    for i, w in enumerate(want):
        size = heat_derivative_and_size(data, float(xs[i]), t, m)[1]
        assert abs(got[i] - w) <= 1e-11 * size, (data.spec, t, xs[i], order, got[i], w)
    i = pick % xs.size
    truth, size, roundoff = heat_derivative_and_size(data, float(xs[i]), t, m, exact=True)
    for v in (got[i], want[i]):
        assert abs(v - truth) <= max(2.0 * rel_tol * size + 2.0 * roundoff,
                                      abs(np.spacing(truth))), \
            (data.spec, t, xs[i], order, v, truth)


def test_heat_derivative_at_a_ddecay_argmax():
    # a ddecay_heat scan argmax at t = 1.131e8, where heat_derivative at
    # rel_tol 1e-8 was once 1.4e-8 off; both paths now agree with QUADPACK
    # (and its hermval weight) to 1.7e-16
    data = make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5))
    x, t = -16915.32, 1.131e8
    want = heat_derivative_and_size(data, x, t, 1, exact=True)[0]
    assert heat.heat_derivative(data, x, t, 0, 1, 1e-8) == pytest.approx(want, rel=1e-12)
    got = heat.heat_derivative_scorer(data, t, 0, 1, 1e-8)(np.asarray([x]))
    assert got[0] == pytest.approx(want, rel=1e-12)


def test_heat_derivative_batch_at_a_piece_end(monkeypatch, power_c1_half):
    # G_t(y) = y of the heat phase has one rising piece; split it at y = 0
    # and x = 0 lies at a piece end: one degenerate root at 0, and every
    # value is that of the unsplit table
    xs = np.asarray([-3.0, 0.0, 5.0])
    t = 40.0
    reset_table(monkeypatch)
    want = heat.heat_derivative_scorer(power_c1_half, t, 0, 1)(xs)
    reset_table(monkeypatch)
    monkeypatch.setattr(quadrature, "monotone_pieces",
                        lambda data, t, reach: (np.asarray([0.0]), np.asarray([True, True])))
    assert_one_root_at(ZERO, 0.0, t, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = heat.heat_derivative_scorer(power_c1_half, t, 0, 1)(xs)
    assert got == pytest.approx(want, rel=1e-12)


def test_starved_heat_derivative_raises_the_scalar_error(monkeypatch, power_c1_half):
    # with 18 panels a point the kernel meets its targets at x = -3 and 5,
    # not at x = 0: the batch raises, naming that point; with 12 it raises
    # at x = -3 the error of heat_derivative there, a batch of one
    xs = np.asarray([-3.0, 0.0, 5.0])
    t = 40.0
    monkeypatch.setattr(heat, "BatchKernel", starved_kernel(18))
    assert np.all(np.isfinite(heat.heat_derivative_scorer(power_c1_half, t, 0, 1)(xs[[0, 2]])))
    with pytest.raises(NotConvergedError, match=r"^weight 0 .* at x=0, t=40: error "):
        heat.heat_derivative_scorer(power_c1_half, t, 0, 1)(xs)
    monkeypatch.setattr(heat, "BatchKernel", starved_kernel(12))
    with pytest.raises(NotConvergedError, match=r"^weight 0 .* at x=-3, t=40: error ") as single:
        heat.heat_derivative(power_c1_half, -3.0, t, 1, 0)
    with pytest.raises(NotConvergedError, match=r"^weight 0 .* at x=-3, t=40: error ") as batch:
        heat.heat_derivative_scorer(power_c1_half, t, 1, 0)(xs)
    assert str(batch.value) == str(single.value)


# ---------------------------------------------------------------------------
# one kernel setup per scan


def reset_table(monkeypatch):
    """Empty the memo of the last piece tables (quadrature._tables), so
    that the next query of any (data, t) tabulates."""
    monkeypatch.setattr(quadrature, "_TABLES", {})


def table_reach(data, t):
    """The reach of the memo's piece table of (data, t)."""
    return quadrature._TABLES[id(data), t][1]


def test_sup_norm_sets_up_its_kernel_once(monkeypatch, power_c0):
    reset_table(monkeypatch)
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


def test_a_sweep_with_t_0_raises(power_c0):
    # t = 0 is served as a number only; a sweep names the rule, not the kernel
    for sup in (burgers.sup_norm, heat.heat_sup_norm):
        for ts in ([0.0, 10.0], np.asarray([10.0, 0.0])):
            with pytest.raises(ValueError, match="every t of a sweep must be positive"):
                sup(power_c0, ts)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            sup(power_c0, [-1.0, 10.0])


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_reused_kernel_equals_a_fresh_one(power_c0, t):
    # the table of a window-wide setup has more pieces than that of one
    # call; no ratio depends on it
    m = t ** (1.0 / 1.5)
    kernel = BatchKernel(burgers._MOMENTS, power_c0, t)
    for xs in (np.linspace(-10.0 * m, 10.0 * m, 9), np.asarray([0.3 * m, 1.1 * m]),
               np.asarray([t * power_c0.value(0.0)])):
        want = BatchKernel(burgers._MOMENTS, power_c0, t)(xs)
        assert np.array_equal(kernel(xs), want)


def test_kernel_tabulates_again_beyond_its_reach(monkeypatch, power_c1_third):
    # the table of a first call at |x| <= 10 reaches 2 (10 + t sup|f0| + 1)
    # and need not hold the pieces of G_t that the roots of x = 5e6 lie
    # on: that call tabulates again, out to twice what it needs, and gives
    # the values of a table made for it alone; a call within the new reach
    # does not tabulate
    t = 1e6
    xs = np.asarray([5.0, 5e6])
    reset_table(monkeypatch)
    want = BatchKernel([burgers._F0], power_c1_third, t)(xs)
    reset_table(monkeypatch)
    kernel = BatchKernel([burgers._F0], power_c1_third, t)
    kernel(np.asarray([-10.0, 5.0]))
    assert table_reach(power_c1_third, t) == 2.0 * (10.0 + t + 1.0)
    tables = []
    monkeypatch.setattr(quadrature, "monotone_pieces",
                        lambda *args: tables.append(args) or monotone_pieces(*args))
    got = kernel(xs)
    assert len(tables) == 1 and table_reach(power_c1_third, t) == 2.0 * (5e6 + t + 1.0)
    assert np.array_equal(got, want)
    kernel(xs[:1])
    assert len(tables) == 1


# ---------------------------------------------------------------------------
# the fixed work of one kernel call: roots from their grid cells, and the
# truncation's doublings in blocks


def counted_slopes(mp):
    """Count the evaluations of G_t' (_Phases.slope) that
    _batch_critical_points makes ("slopes") and those made anywhere else
    ("outside"), and its calls."""
    counts = {"calls": 0, "slopes": 0, "outside": 0, "inside": False}
    slope, critical = quadrature._Phases.slope, quadrature._batch_critical_points

    def counted_slope(self, y, k):
        counts["slopes"] += counts["inside"]
        counts["outside"] += not counts["inside"]
        return slope(self, y, k)

    def counted_critical(*args):
        counts["calls"] += 1
        counts["inside"] = True
        try:
            return critical(*args)
        finally:
            counts["inside"] = False

    mp.setattr(quadrature._Phases, "slope", counted_slope)
    mp.setattr(quadrature, "_batch_critical_points", counted_critical)
    return counts


def kernel_roots(mp, data, t, x):
    """(counts, (pt, y, is_max, d1)): the roots of _batch_critical_points at
    the one point x, on the piece table of (data, t) (quadrature._table),
    and the slope evaluations of that call (counted_slopes)."""
    kernel = BatchKernel([burgers._F0], data, t)
    table = quadrature._table(data, t, abs(x))
    counts = counted_slopes(mp)
    return counts, quadrature._batch_critical_points(kernel._ph, np.asarray([x]),
                                                     np.zeros(1, dtype=int), [table])


def test_newton_stops_at_a_step_that_does_not_move(monkeypatch):
    # a Newton step below the resolution of y lands on y, an end of the
    # bracket; it was taken as leaving the bracket and the iteration
    # bisected from the far end: 43 slope evaluations here (decay_sweep,
    # seed 1), of which 34 halvings after the root had converged
    data = make_family(FamilySpec("PowerC0", kappa=1.0108152693872443, alpha=0.5))
    t, x = 1176.59836401071, -34.828559709806996
    counts, (_pt, y, is_max, _d1) = kernel_roots(monkeypatch, data, t, x)
    assert counts["slopes"] <= 6
    assert is_max.tolist() == [True]
    assert abs(y[0] + t * data.value(y[0]) - x) <= 1e-12 * abs(x)


def test_a_grid_point_where_g_is_x_is_the_root(monkeypatch):
    # G_t(y) = y for the heat phase: x = 0 is the grid point y = 0, found
    # with the one slope evaluation of the checks and no Newton step; from
    # a cell with y = 0 at its end, Newton lands on that end and the
    # safeguard bisects towards it 100 times
    counts, (pt, y, is_max, _d1) = kernel_roots(monkeypatch, ZERO, 1e6, 0.0)
    assert counts["slopes"] == 1
    assert pt.tolist() == [0] and y.tolist() == [0.0] and is_max.tolist() == [True]


def test_kernel_calls_do_little_fixed_work(power_c0):
    # the counts of one sup_norm scan (15 kernel calls: the grid, the
    # shoulder sub-grids and 13 lockstep steps; 31 when every pick was
    # refined, the shoulders crawling 30 steps each): each root starts
    # in its grid cell (17.7 slope evaluations a call before, 4.3 now),
    # and the initial partition takes G_t' at the maxima from the roots:
    # the truncation's, at the outermost maxima, is the one evaluation a
    # call outside them (2 before).  A truncation that does not widen
    # scores its doublings in one weight_mag call and its tail bound in one
    # more (7 calls before).  A widening makes one _log_gauss_tails call
    # and one weight_mag call more
    truncations = []
    truncation, weight_mag = quadrature._batch_truncation, quadrature._Phases.weight_mag
    tails = quadrature._log_gauss_tails
    calls = {"weight_mag": 0, "tails": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def counted_truncation(*args):
        calls.update(weight_mag=0, tails=0)
        out = truncation(*args)
        truncations.append(dict(calls))
        return out

    with pytest.MonkeyPatch.context() as mp:
        counts = counted_slopes(mp)
        mp.setattr(quadrature._Phases, "weight_mag", counted("weight_mag", weight_mag))
        mp.setattr(quadrature, "_log_gauss_tails", counted("tails", tails))
        mp.setattr(quadrature, "_batch_truncation", counted_truncation)
        burgers.sup_norm(power_c0, 1e6)
    assert counts["calls"] == 15
    assert counts["slopes"] / counts["calls"] <= 5.0
    assert counts["outside"] == counts["calls"]
    assert len(truncations) == 15
    assert all(c["weight_mag"] == 1 + c["tails"] for c in truncations)
    assert [c["weight_mag"] for c in truncations if c["tails"] == 1] == [2] * 15


def test_heat_sup_norm_scan_makes_8_kernel_calls(power_c0):
    # heat of PowerC0 peaks at x = 0, a grid point: its bracket takes 6
    # lockstep steps, and the two shoulder picks beside it one sub-grid
    # call, after the grid (31 calls when the shoulders were refined too)
    with pytest.MonkeyPatch.context() as mp:
        counts = counted_slopes(mp)
        got = heat.heat_sup_norm(power_c0, 1e6)
    assert counts["calls"] == 8
    assert got.argmax_x == 0.0


def truncation_one_step(ph, x, k, log_scale, max_pt, max_y, c):
    """_batch_truncation with one doubling a call and one call a tail
    bound end: the reference of its blocks."""
    drop = quadrature.DROP
    m = x.size
    y_lo = np.full(m, np.inf)
    y_hi = np.full(m, -np.inf)
    np.minimum.at(y_lo, max_pt, max_y)
    np.maximum.at(y_hi, max_pt, max_y)
    y0 = np.concatenate([y_lo, y_hi])
    direction = np.repeat([-1.0, 1.0], m)
    x2, k2, ls2, c2 = np.tile(x, 2), np.tile(k, 2), np.tile(log_scale, 2), np.tile(c, 2)
    w = np.maximum(ph.width(ph.slope(y0, k2), k2), 1e-12 * (1.0 + np.abs(y0)))
    edge = y0 + direction * w * 2.0 ** 60
    todo = np.arange(2 * m)
    for j in range(200):
        cand = y0[todo] + direction[todo] * w[todo] * 2.0 ** j
        hit = (ph.total(cand, x2[todo], k2[todo]) - ls2[todo]
               <= -(drop + 5.0 + np.log1p(ph.weight_mag(cand, x2[todo], k2[todo], c2[todo]))))
        edge[todo[hit]] = cand[hit]
        todo = todo[~hit]
        if not todo.size:
            break
    k_growth, p = ph.data.primitive_growth()
    t = float(ph.t[k[0]])  # a batch of one t
    quad = 1.0 / (8.0 * t)
    thr = 1.0 if k_growth == 0.0 else (32.0 * t * k_growth) ** (1.0 / (2.0 - p)) * 2.0
    thr = np.maximum(np.maximum(thr, 2.0 * np.abs(x) + 1.0), 1.0)
    a = np.minimum(edge[:m], x - thr)
    b = np.maximum(edge[m:], x + thr)

    def tail_log(a, b):
        gmax = np.maximum(np.maximum(ph.weight_mag(a, x, k, c), ph.weight_mag(b, x, k, c)), 1e-300)
        return (np.maximum(quadrature._log_gauss_tails(quad, b - x),
                           quadrature._log_gauss_tails(quad, x - a))
                + np.log(8.0 * gmax) - log_scale)

    log_tail = tail_log(a, b)
    for _ in range(16):
        wide = log_tail > -0.5 * drop
        if not wide.any():
            break
        a = np.where(wide, x - 2.0 * (x - a), a)
        b = np.where(wide, x + 2.0 * (b - x), b)
        log_tail = np.where(wide, tail_log(a, b), log_tail)
    return a, b, log_tail


@settings(max_examples=25, deadline=None)
@given(case=batch_cases(), weights=st.sampled_from(["f0", "fields", "hermite"]),
       order=st.integers(0, 2), lower=st.sampled_from([0.0, 30.0, 1e3, 1e5]))
# with the log scale 1e5 e-folds low, both examples score a second block
# of doublings and widen their tail bound once
@example(case=(make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5)), 1e4,
               np.linspace(-900.0, 900.0, 5)), weights="fields", order=0, lower=1e5)
@example(case=(make_family(FamilySpec("Gaussian", extra={"amplitude": 1.0, "sigma": 1.0})),
               40.0, np.linspace(-60.0, 60.0, 5)), weights="hermite", order=2, lower=1e5)
def test_truncation_blocks_equal_one_doubling_at_a_time(case, weights, order, lower):
    # every truncation of a kernel call, at its own log scale and at one
    # `lower` e-folds below it (the phase then drops past it further out),
    # gives the ends and tail bound of the one-step reference bit for bit
    data, t, xs = case
    gs = {"f0": [burgers._F0], "fields": burgers._MOMENTS,
          "hermite": [quadrature.HermiteWeight(order, data.value)]}[weights]
    phase_data = ZERO if weights == "hermite" else data
    truncation = quadrature._batch_truncation
    seen = []

    def checked(ph, x, k, log_scale, max_pt, max_y, c):
        for ls in (log_scale, log_scale - lower):
            got = truncation(ph, x, k, ls, max_pt, max_y, c)
            want = truncation_one_step(ph, x, k, ls, max_pt, max_y, c)
            for u, v in zip(got, want):
                assert np.array_equal(u, v, equal_nan=True), (data.spec, t, x, ls)
        seen.append(x.size)
        return truncation(ph, x, k, log_scale, max_pt, max_y, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_batch_truncation", checked)
        try:
            BatchKernel(gs, phase_data, t)(xs)
        except NotConvergedError:
            pass
    assert sum(seen) == xs.size


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 24), m=st.integers(1, 8), n_panels=st.integers(0, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sums_equal_one_bincount_a_row(k, m, n_panels, seed):
    # one bincount over (row, point) bins adds each bin's weights in panel
    # order, as a bincount of each row alone does: the same sums bit for bit
    rng = np.random.default_rng(seed)
    pid = rng.integers(0, m, n_panels)
    v = (rng.standard_normal((k, n_panels))
         * 10.0 ** rng.integers(-200, 201, (k, n_panels)).astype(float))
    want = np.stack([np.bincount(pid, weights=row, minlength=m) for row in v])
    assert np.array_equal(quadrature._sums(pid, v, m), want)


# ---------------------------------------------------------------------------
# sweeps of t in lockstep


CLASSES = ("PowerC1", "SignFlipped", "Asymmetric", "PowerC0", "PowerLog")


def random_sweep(rng, i):
    """(data, ts, xs): data of the class i (mod 5) at random kappa, alpha
    (and beta), 1 to 6 distinct t in 1e2..1e8, and 1 to 5 x a t spread
    over |x| <= 3 scale(t)."""
    family = CLASSES[i % len(CLASSES)]
    alpha = float(rng.uniform(0.2, 0.8))
    beta = {"Asymmetric": float(rng.uniform(alpha, 1.0)),
            "PowerLog": float(rng.uniform(0.5, 1.5))}.get(family)
    data = make_family(FamilySpec(family, kappa=float(rng.uniform(0.5, 2.0)), alpha=alpha,
                                  beta=beta))
    ts = np.unique(10.0 ** rng.uniform(2.0, 8.0, int(rng.integers(1, 7))))
    xs = [rng.uniform(-3.0, 3.0, int(rng.integers(1, 6))) * t ** (1.0 / (1.0 + alpha))
          for t in ts]
    return data, ts, xs


def fixed_order_rules(gv, half):
    """quadrature._rules with each panel's sums in one fixed order
    (np.einsum), whatever its row in the product: OpenBLAS's gemv gives a
    row bits that depend on its position among the rows of the call."""
    return (half * np.einsum("wpn,n->wp", gv[:, :, :10], quadrature._GL10[1]),
            half * np.einsum("wpn,n->wp", gv[:, :, 10:], quadrature._GL21[1]))


def test_a_sweep_gives_each_t_its_batch_of_one(monkeypatch):
    # a kernel call on a sweep of t gives every point the bits of the call
    # of its t alone, for the weights of the Burgers value, of its
    # derivative fields and of a heat derivative (a HermiteWeight, which
    # takes each node's x and t).  The rule sums of quadrature._rules take
    # a last bit from a panel's position in their gemv, as between the
    # batches of one t: with them, 28 of 5,625 values of 60 such draws
    # moved, by at most 9.6e-15 of their row's size; with the sums in a
    # fixed order, none
    rng = np.random.default_rng(20261024)
    for i in range(15):
        data, ts, xs = random_sweep(rng, i)
        m = int(rng.integers(1, 4))
        for gs, phase_data in (([burgers._F0], data), (burgers._MOMENTS, data),
                               ([quadrature.HermiteWeight(m, data.value)], ZERO)):
            for fixed in (False, True):
                with monkeypatch.context() as mp:
                    if fixed:
                        mp.setattr(quadrature, "_rules", fixed_order_rules)
                    got = BatchKernel(gs, phase_data, ts)(xs)
                    assert len(got) == ts.size
                    for t, x, g in zip(ts, xs, got):
                        want = BatchKernel(gs, phase_data, float(t))(x)
                        where = (data.spec, t, len(gs))
                        if fixed:
                            assert repr(g.tolist()) == repr(want.tolist()), where
                        else:
                            size = np.max(np.abs(want), axis=1, keepdims=True)
                            assert np.all(np.abs(g - want) <= 1e-13 * size), where


def test_sup_norm_sweeps_equal_their_one_t_scans(monkeypatch):
    # the scans of a sweep run in lockstep, and each t's result is that of
    # its one-t scan, field for field (with the rule sums in a fixed order,
    # so that no score moves by the last bit of a gemv)
    monkeypatch.setattr(quadrature, "_rules", fixed_order_rules)
    rng = np.random.default_rng(20261025)
    for i in range(5):
        data, ts, _xs = random_sweep(rng, i)
        for sup in (burgers.sup_norm, heat.heat_sup_norm):
            got = sup(data, ts, n_coarse=65)
            assert [repr(r) for r in got] == [repr(sup(data, float(t), n_coarse=65))
                                              for t in ts], (data.spec, ts)


def kernel_calls(monkeypatch):
    """The number of BatchKernel calls made from now on, in a list."""
    calls = [0]
    real = BatchKernel.__call__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BatchKernel, "__call__", counted)
    return calls


def test_a_decay_sweep_makes_the_calls_of_its_longest_scan(monkeypatch, power_c0, tmp_path):
    # one kernel call a lockstep step: a 5-t decay grid makes at most one
    # call more than its longest one-t scan (the shoulder step), where one
    # scan per t made their sum (13, 14, 15, 18 and 20 calls here)
    from hopfcole.experiments import ExperimentConfig, run_decay
    cfg = ExperimentConfig(experiment="decay", family=power_c0.spec, t_min=1e3, t_max=1e7,
                           t_count=5, out_dir=str(tmp_path))
    calls = kernel_calls(monkeypatch)
    singles = []
    for t in cfg.t_grid():
        before = calls[0]
        burgers.sup_norm(power_c0, float(t), n_coarse=cfg.n_coarse)
        singles.append(calls[0] - before)
    before = calls[0]
    run_decay(cfg)
    assert calls[0] - before <= max(singles) + 1
