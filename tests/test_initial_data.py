import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy.special import erf, hyp2f1

from hopfcole.initial_data import (
    FamilySpec,
    UnsupportedOrderError,
    make_custom,
    make_family,
    negate_reflect,
)


def all_families():
    return [
        FamilySpec("PowerC0", kappa=1.0, alpha=0.5),
        FamilySpec("PowerC1", kappa=2.0, alpha=1 / 3),
        FamilySpec("PowerLog", kappa=1.0, alpha=1 / 3, beta=1.0),
        FamilySpec("SignFlipped", kappa=1.3, alpha=0.4),
        FamilySpec("Asymmetric", kappa=1.0, alpha=1 / 3, beta=2 / 3),
        FamilySpec("Constant", extra={"level": 0.7}),
        FamilySpec("Gaussian", extra={"amplitude": 1.0, "sigma": 2.0}),
        FamilySpec("Zero"),
    ]


def test_power_c0_values():
    d = make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5))
    assert d.value(3.0) == 0.5
    assert d.primitive(8.0) == pytest.approx(4.0, abs=1e-14)
    assert d.primitive(0.0) == 0.0


def test_constant_value():
    d = make_family(FamilySpec("Constant", extra={"level": 0.7}))
    for y in (-3.0, 0.0, 11.0):
        assert d.value(y) == 0.7
    assert d.primitive(3.0) == pytest.approx(0.7 * 3.0)


def test_power_c1_tail_limit():
    d = make_family(FamilySpec("PowerC1", kappa=2.0, alpha=1 / 3))
    assert d.value(1e6) * 1e6 ** (1 / 3) == pytest.approx(2.0, abs=1e-6)


def test_power_c1_derivative_asymptotics():
    # f0'(y) ~ -alpha kappa / (y |y|^alpha) at large |y|
    d = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3))
    for y in (1e4, 1e6, -1e6):
        ratio = d.derivative(y, 1) * y * abs(y) ** (1 / 3) / (-(1 / 3))
        assert abs(ratio - 1.0) < 1e-3
    assert d.derivative(0.0, 1) == 0.0


def test_value_asymptotics_at_1e6():
    d = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3))
    assert abs(d.value(1e6) * 1e6 ** (1 / 3) / 1.0 - 1.0) <= 1e-3
    assert abs(d.derivative(1e6, 1) * 1e6 * 1e6 ** (1 / 3) / (-1 / 3) - 1.0) <= 1e-3


def test_zero_everything():
    d = make_family(FamilySpec("Zero"))
    for order in (0, 1, 2):
        assert d.derivative(5.0, order) == 0.0
    assert d.primitive(11.0) == 0.0


@pytest.mark.parametrize("spec", all_families(), ids=lambda s: s.family)
def test_derivatives_match_finite_differences(spec):
    d = make_family(spec)
    ys = [-7.3, -0.9, 0.4, 2.2, 31.0]
    h = 1e-5
    for y in ys:
        fd1 = (d.value(y + h) - d.value(y - h)) / (2 * h)
        assert d.derivative(y, 1) == pytest.approx(fd1, abs=1e-7 + 1e-6 * abs(fd1))
        fd2 = (d.value(y + h) - 2 * d.value(y) + d.value(y - h)) / (h * h)
        assert d.derivative(y, 2) == pytest.approx(fd2, abs=1e-4 + 1e-3 * abs(fd2))


@pytest.mark.parametrize("spec", all_families(), ids=lambda s: s.family)
def test_primitive_derivative_is_value(spec):
    # central difference of the primitive at 200 log-spaced |y| points
    d = make_family(spec)
    y = np.geomspace(1e-3, 1e6, 100)
    y = np.concatenate([-y[::-1], y])
    h = np.maximum(1e-6, 1e-7 * np.abs(y))
    fd = (d.primitive(y + h) - d.primitive(y - h)) / (2 * h)
    v = d.value(y)
    assert np.all(np.abs(fd - v) <= np.maximum(1e-8, 1e-6 * np.abs(v)))


def _cached_power_c1(kappa, alpha):
    """PowerC1's values as Custom data, whose primitive the cache serves."""
    value = make_family(FamilySpec("PowerC1", kappa=kappa, alpha=alpha)).value
    return make_custom(value, sup_abs=kappa)


def test_primitive_cache_against_hypergeometric():
    # closed form for the PowerC1 primitive via 2F1
    d = _cached_power_c1(1.7, 0.4)
    for y in (-40.0, -2.0, 0.3, 5.0, 300.0):
        exact = 1.7 * y * hyp2f1(0.5, 0.2, 1.5, -y * y)
        assert d.primitive(y) == pytest.approx(exact, rel=1e-10)
    assert d.primitive_error_bound <= 1e-10


def test_primitive_cache_query_memory_is_bounded():
    # each query point takes a (21,) row of temporaries; a 2e5-point query
    # in one piece peaks near 104 MiB
    d = _cached_power_c1(1.0, 0.5)
    y = np.linspace(-1e6, 1e6, 200_000)
    d.primitive(y)  # extend the cache outside the measurement
    tracemalloc.start()
    try:
        got = d.primitive(y)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    cache = d._cache
    whole = np.where(y == 0.0, 0.0, cache._partial(y, cache._arrays))
    np.testing.assert_allclose(got, whole, rtol=1e-15, atol=0.0)


_ORACLE_ALPHAS = (0.1, 1 / 3, 0.5, 0.9, 0.99)
_ORACLE_Y = np.geomspace(1e-8, 1e12, 21)  # both signs of each


def _mp_value(spec):
    """The family's value at 30 digits, as an mpmath function."""
    k, a, b = (mpmath.mpf(v) if v is not None else None
               for v in (spec.kappa, spec.alpha, spec.beta))
    fam = spec.family
    if fam == "PowerC0":
        return lambda u: k * (1 + abs(u)) ** -a
    if fam == "PowerC1":
        return lambda u: k * (1 + u * u) ** (-a / 2)
    if fam == "PowerLog":
        return lambda u: (k * mpmath.sqrt(mpmath.e ** 2 + u * u) ** -a
                          * mpmath.log(mpmath.sqrt(mpmath.e ** 2 + u * u)) ** -b)
    if fam == "SignFlipped":
        return lambda u: -k * u * (1 + u * u) ** (-(a + 1) / 2)
    if fam == "Asymmetric":
        return lambda u: k * (1 + u * u) ** (-(a if u >= 0 else b) / 2)
    if fam == "Constant":
        return lambda u: mpmath.mpf(spec.extra["level"])
    amp, sigma = (mpmath.mpf(spec.extra[n]) for n in ("amplitude", "sigma"))
    return lambda u: amp * mpmath.exp(-u * u / (4 * sigma))


def _oracle_cases():
    for a in _ORACLE_ALPHAS:
        for fam in ("PowerC0", "PowerC1", "SignFlipped"):
            yield FamilySpec(fam, kappa=1.3, alpha=a)
        yield FamilySpec("PowerLog", kappa=1.3, alpha=a, beta=1.0)
    # Asymmetric with each side's exponent from the alphas above
    for a, b in zip(_ORACLE_ALPHAS, _ORACLE_ALPHAS[1:]):
        yield FamilySpec("Asymmetric", kappa=1.3, alpha=a, beta=b)
    yield FamilySpec("Constant", extra={"level": -0.7})
    yield FamilySpec("Gaussian", extra={"amplitude": 1.5, "sigma": 2.0})


@pytest.mark.parametrize("spec", list(_oracle_cases()),
                         ids=lambda s: f"{s.family}-{s.alpha:.3g}-{s.beta}")
def test_primitive_against_mpmath(spec):
    """Relative error against a 30-digit integral of the family's value.

    The bound is 4e-15/(1 - exponent) for the closed forms: the
    incomplete-beta form of PowerC1 and each side of Asymmetric, and the
    expm1/log1p forms of PowerC0 and SignFlipped, which are relative down to
    y = 0 (they subtract no 1 from a power near 1).  It is the cache's
    rel_tol 1e-12 elsewhere."""
    d = make_family(spec)
    f = _mp_value(spec)
    closed_c1 = spec.family in ("PowerC1", "Asymmetric")
    if closed_c1:
        assert d._cache is None and d.primitive_error_bound == 0.0
    closed = closed_c1 or spec.family in ("PowerC0", "SignFlipped")
    with mpmath.workdps(30):
        for sign in (1.0, -1.0):
            ys = sign * _ORACLE_Y
            # cumulative 30-digit integral over one decade at a time
            edges = [mpmath.mpf(0)] + [mpmath.mpf(float(y)) for y in ys]
            exact = np.cumsum([mpmath.quad(f, [lo, hi], method="gauss-legendre")
                               for lo, hi in zip(edges[:-1], edges[1:])])
            exact = np.asarray([float(v) for v in exact])
            if closed:
                e = spec.beta if sign < 0 and spec.beta is not None else spec.alpha
                rel = 4e-15 / (1.0 - e)
            else:
                rel = 1e-12
            err = np.abs(d.primitive(ys) - exact)
            assert np.all(err <= rel * np.abs(exact)), (
                sign, float(np.max(err / np.abs(exact))), rel)


def test_sign_flipped_primitive_closed_form():
    k, a = 1.3, 0.4
    d = make_family(FamilySpec("SignFlipped", kappa=k, alpha=a))
    for y in (-5.0, 0.0, 2.0, 40.0):
        exact = k * ((1 + y * y) ** ((1 - a) / 2) - 1.0) / (a - 1.0)
        assert d.primitive(y) == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_gaussian_primitive_closed_form():
    d = make_family(FamilySpec("Gaussian", extra={"amplitude": 2.0, "sigma": 3.0}))
    for y in (-1.0, 0.5, 7.0):
        exact = 2.0 * math.sqrt(math.pi * 3.0) * erf(y / (2.0 * math.sqrt(3.0)))
        assert d.primitive(y) == pytest.approx(exact, rel=1e-12)


def test_primitive_growth_bound():
    for spec in all_families():
        d = make_family(spec)
        k_growth, p = d.primitive_growth()
        y = np.concatenate([-np.geomspace(1e-2, 1e7, 50)[::-1],
                            np.geomspace(1e-2, 1e7, 50)])
        assert np.all(np.abs(d.primitive(y)) <= k_growth * (1 + np.abs(y)) ** p * (1 + 1e-12))


def test_power_c0_two_sided_sandwich():
    # with kappa1 = kappa2 = kappa the two-sided bound holds with equality
    d = make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5))
    y = np.linspace(-50, 50, 101)
    assert np.allclose(d.value(y), 1.0 / (1.0 + np.abs(y)) ** 0.5)


def test_unsupported_order():
    d = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=0.5))
    with pytest.raises(UnsupportedOrderError):
        d.derivative(1.0, 3)


def test_validation_errors():
    with pytest.raises(ValueError):
        FamilySpec("PowerC1", kappa=1.0, alpha=1.5)
    with pytest.raises(ValueError):
        FamilySpec("PowerC1", kappa=-1.0, alpha=0.5)
    with pytest.raises(ValueError):
        FamilySpec("Asymmetric", kappa=1.0, alpha=0.5, beta=0.4)
    with pytest.raises(ValueError):
        FamilySpec("Asymmetric", kappa=1.0, alpha=0.5, beta=1.2)
    with pytest.raises(ValueError):
        FamilySpec("PowerLog", kappa=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        FamilySpec("NoSuchFamily")


def test_negate_reflect_pointwise():
    d = make_family(FamilySpec("PowerC1", kappa=1.0, alpha=0.5))
    r = negate_reflect(d)
    y = np.linspace(-20, 20, 41)
    assert np.allclose(r.value(y), -d.value(-y), rtol=0, atol=0)
    assert np.allclose(r.derivative(y, 1), d.derivative(-y, 1))
    assert np.allclose(r.primitive(y), d.primitive(-y), rtol=1e-12)


def test_negate_reflect_constant():
    d = make_family(FamilySpec("Constant", extra={"level": 0.7}))
    r = negate_reflect(d)
    assert r.value(3.0) == -0.7
    assert r.spec.family == "Constant"


def test_negate_reflect_involution_exact():
    for spec in all_families():
        d = make_family(spec)
        rr = negate_reflect(negate_reflect(d))
        y = np.linspace(-9, 9, 37)
        # double application is the identity to the last ulp
        assert np.all(rr.value(y) == d.value(y))


def test_sign_flipped_is_odd_negation_of_reflection():
    d = make_family(FamilySpec("SignFlipped", kappa=1.0, alpha=0.5))
    r = negate_reflect(d)
    y = np.linspace(-5, 5, 21)
    assert np.allclose(r.value(y), d.value(y))


def test_json_round_trip():
    for spec in all_families():
        blob = json.dumps(spec.to_json())
        back = FamilySpec.from_json(json.loads(blob))
        assert back == spec
    obj = FamilySpec("PowerC1", kappa=1.0, alpha=0.5).to_json()
    assert set(obj) == {"family", "kappa", "alpha", "beta", "extra"}


def test_custom_data():
    d = make_custom(lambda y: np.exp(-np.abs(y)), sup_abs=1.0)
    assert d.value(0.0) == 1.0
    assert d.primitive(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)
    with pytest.raises(ValueError):
        make_family(FamilySpec("Custom"))


def test_custom_data_requires_its_sup():
    # sup|f0| brackets every critical point; sampling f0 cannot bound it
    # (here the sup 2.0 sits at y = 2e7)
    with pytest.raises(TypeError):
        make_custom(lambda y: 0.1 * np.exp(-y * y) + 2.0 * np.exp(-((y - 2e7) / 1e6) ** 2))


def test_primitive_cache_concurrent_extension():
    d = _cached_power_c1(1.0, 0.5)
    d.primitive(1.0)  # seed a small cache

    def worker(seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(-10 ** rng.integers(1, 7), 10 ** rng.integers(1, 7), 64)
        return d.primitive(y)

    with ThreadPoolExecutor(max_workers=8) as ex:
        list(ex.map(worker, range(16)))
    # values stay consistent with a closed-form spot check after the race
    y = 12345.6
    exact = 1.0 * y * hyp2f1(0.5, 0.25, 1.5, -y * y)
    assert d.primitive(y) == pytest.approx(exact, rel=1e-10)


def test_derivative_tail_bounds_hypothesis_constants():
    # |f0^(i)| <= lambda_i / (1 + |y|)^(alpha + i): the hypothesis constants
    # are verified empirically for the C1 representatives, not stored
    for spec in (FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3),
                 FamilySpec("PowerC1", kappa=2.0, alpha=0.7),
                 FamilySpec("PowerLog", kappa=1.0, alpha=1 / 3, beta=1.0)):
        d = make_family(spec)
        y = np.concatenate([np.geomspace(1e-3, 1e6, 80),
                            -np.geomspace(1e-3, 1e6, 80)])
        for i in (0, 1, 2):
            ratio = np.abs(d.derivative(y, i)) * (1 + np.abs(y)) ** (spec.alpha + i)
            assert np.max(ratio) < 20.0 * spec.kappa
