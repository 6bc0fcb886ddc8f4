"""The batch quotient kernel (quadrature.ratio_moments_batch) against the
scalar path: a randomized oracle, its fallbacks, and the sup-norm scans that
use it for their coarse grids."""
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from hopfcole import burgers, heat, quadrature
from hopfcole.initial_data import FamilySpec, make_family
from hopfcole.quadrature import (NotConvergedError, PhysicalPhase, locate_critical_points,
                                 monotone_pieces, ratio_moments_batch)

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


def tanh_sinh_quotient(data, x, t, heat_eq):
    """int f0 e^H / int e^H by mpmath's tanh-sinh rule, with breaks at the
    critical points, at y = 0 and at the unit scale of the data."""
    phase = PhysicalPhase(ZERO if heat_eq else data, x, t)
    cps = [c.y for c in locate_critical_points(phase)]
    top = max(float(phase.total(c)) for c in cps)
    w = math.sqrt(2.0 * t)
    breaks = {0.0, -1.0, 1.0, -8.0, 8.0}
    breaks.update(c + s * w for c in cps for s in (-3.0, -1.0, 0.0, 1.0, 3.0))
    breaks = [-mpmath.inf] + sorted(breaks) + [mpmath.inf]

    def e(y):
        return mpmath.exp(float(phase.total(float(y))) - top)

    num = mpmath.quad(lambda y: float(data.value(float(y))) * e(y), breaks)
    return float(num / mpmath.quad(e, breaks))


def check_against_scalar(batch, scalar, data, t, xs, pick, heat_eq):
    """batch(data, xs, t) against scalar(data, x, t) at every x.

    Values agree within both paths' budgets.  Where they are further apart,
    the scalar value must be the wrong one, by tanh-sinh: the scalar
    partition has no edge at y = 0, so it misses the kink of PowerC0 and,
    at large t, the whole bump of Gaussian data (heat_eval returns 0.0); and
    one panel spans 8 peak widths to the truncation end, which misses the
    slow tail beyond a narrow peak (Asymmetric data, 7e-5 at t = 1e6).
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


def test_starved_panel_budget_falls_back(monkeypatch, power_c1_half):
    xs = np.asarray([-3.0, 0.0, 5.0])
    t = 40.0
    starved = functools.partial(quadrature.ratio_moments_batch, max_panels=12)
    vals, ok = starved([burgers._F0], power_c1_half, xs, t)
    assert not ok.any() and np.all(np.isnan(vals))
    # the kernel starved: eval_batch returns the scalar path's values
    monkeypatch.setattr(burgers, "ratio_moments_batch", starved)
    got = burgers.eval_batch(power_c1_half, xs, t)
    assert got.tolist() == [burgers.eval(power_c1_half, float(x), t) for x in xs]
    # both starved: the scalar path's error, naming the point
    monkeypatch.setattr(burgers, "ratio_moments",
                        functools.partial(quadrature.ratio_moments, max_panels=12))
    with pytest.raises(NotConvergedError, match=r"weight 0 .* at x=-3, t=40"):
        burgers.eval_batch(power_c1_half, xs, t)


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


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_sup_norms_equal_a_scalar_scan(power_c0, t):
    # the coarse grid runs on the batch kernel, yet value and argmax are
    # those of a scan that scores every point on the scalar path
    m = t ** (1.0 / 1.5)
    want = reference_scan_max(lambda x: abs(burgers.eval(power_c0, x, t)),
                              -10.0 * m, 10.0 * m, 65)
    got = burgers.sup_norm(power_c0, t, n_coarse=65)
    assert (got.value, got.argmax_x) == want
    m = math.sqrt(t)
    want = reference_scan_max(lambda x: abs(heat.heat_eval(power_c0, x, t)),
                              -10.0 * m, 10.0 * m, 65)
    got = heat.heat_sup_norm(power_c0, t, n_coarse=65)
    assert (got.value, got.argmax_x) == want
