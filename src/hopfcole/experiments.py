"""Experiment drivers: decay-rate fits, profile convergence, jump-location
consistency, concentration law, property reports, heat-profile comparison,
finite-difference cross-check, and field dumps, with CSV/JSON emission.

Every run writes one CSV (RFC 4180, header row, shortest-round-trip floats)
plus a JSON sidecar carrying the config echo, library versions, wall time,
and all fitted quantities.  Identical configs produce byte-identical CSVs.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__ as _pkg_version
from . import burgers, heat, finite_difference, profiles
from .initial_data import FamilySpec, make_family
from .quadrature import KIND_MIN
from .profiles import (
    BRANCH_MINUS, BRANCH_PLUS, CASE_ASYMMETRIC, VARIANT_LIMIT_DERIVED, VARIANT_PRINTED,
    TiePointError, invert_branch, profile_jump_location, profile_value,
)
from .rescaled import (TieWindowError, case_for_data, phase_tie_point, check_properties,
                       concentration_ratio, default_space_scale, rescaled_critical_points)

EXPERIMENTS = ("decay", "ddecay", "profile", "zc", "concentration",
               "properties", "heat_profile", "fd_compare", "field")

_FIT_EXPERIMENTS = {"decay", "ddecay"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    family: FamilySpec
    equation: str = "burgers"
    t_min: float = 1e3
    t_max: float = 1e7
    t_count: int | None = None
    z_min: float = -5.0
    z_max: float = 5.0
    z_count: int = 41
    exclusion: float = 0.25
    out_dir: str = "out"
    n: int = 0
    k: int = 1
    fd_L: float = 100.0
    fd_nodes: int = 2001
    fd_t: float = 2.0
    fd_scheme: str = finite_difference.SCHEME_CRANK_NICOLSON
    mu1: float = -0.1
    mu2: float = 0.1
    x0: float = 0.0
    window_Z: float = 10.0
    n_coarse: int = 65
    check: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.equation not in ("burgers", "heat"):
            raise ConfigError(f"unknown equation {self.equation!r}")
        if not self.t_min > 0:
            raise ConfigError("t_min must be positive")
        if self.t_max < self.t_min:
            raise ConfigError("t_max must be >= t_min")
        if self.t_count is not None and self.t_count < 1:
            raise ConfigError("t_count must be at least 1")
        if self.z_count < 1:
            raise ConfigError("z_count must be at least 1")
        if self.t_count is not None and self.experiment in _FIT_EXPERIMENTS \
                and self.t_count < 4:
            raise ConfigError("fitting experiments need at least 4 time points")
        if self.experiment in _FIT_EXPERIMENTS and self.t_max == self.t_min:
            # t_grid is then the one point t_min
            raise ConfigError("fitting experiments need t_max > t_min")
        # sup_norm and heat_sup_norm scan at least 64 coarse points
        n_min = 64 if self.experiment == "decay" else 1
        if self.n_coarse < n_min:
            raise ConfigError(f"n_coarse must be at least {n_min} for {self.experiment}")
        if not self.window_Z > 0:
            raise ConfigError("window_Z must be positive")
        if self.experiment == "ddecay" and (self.n, self.k) not in burgers.FIELD_OF_ORDER:
            raise ConfigError("ddecay needs orders n, k >= 0 with 2n + k <= 2")
        if self.experiment == "concentration" and not self.mu1 < 0.0 < self.mu2:
            raise ConfigError("concentration needs mu1 < 0 < mu2")
        if self.experiment == "fd_compare":
            # the checks of finite_difference.integrate, named by field
            if self.fd_scheme not in finite_difference.SCHEMES:
                raise ConfigError(f"unknown fd_scheme {self.fd_scheme!r}")
            if self.fd_nodes < 3:
                raise ConfigError("fd_nodes must be at least 3")
            if not self.fd_L > 0:
                raise ConfigError("fd_L must be positive")
            if not 0.0 <= self.fd_t <= 0.01 * self.fd_L ** 2:
                raise ConfigError(
                    f"fd_t must lie in [0, 0.01 fd_L^2] = [0, {0.01 * self.fd_L ** 2}]")

    def t_grid(self):
        if self.t_count is not None:
            count = self.t_count
        else:
            decades = math.log10(self.t_max / self.t_min) if self.t_max > self.t_min else 0.0
            count = min(13, int(9 * decades) + 1)
            count = max(count, 4 if self.experiment in _FIT_EXPERIMENTS else 1)
        if self.t_max == self.t_min:
            return np.asarray([self.t_min])
        return np.geomspace(self.t_min, self.t_max, count)

    def to_json(self) -> dict:
        d = asdict(self)
        d["family"] = self.family.to_json()
        return d

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        obj = dict(obj)
        fam = obj.pop("family")
        spec = FamilySpec.from_json(fam) if isinstance(fam, dict) else fam
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(family=spec, **obj)


# ---------------------------------------------------------------------------
# power-law fitting


@dataclass
class DecayFitResult:
    exponent: float          # p in value ~ C t^-p, fitted on the largest-t half
    intercept: float
    r_squared: float
    residuals: list
    window: tuple            # (t_lo, t_hi) actually used for the headline fit
    exponent_full: float
    r_squared_full: float


def _loglog_fit(ts, vs):
    lt, lv = np.log(ts), np.log(vs)
    A = np.vstack([lt, np.ones_like(lt)]).T
    (slope, icept), res, _, _ = np.linalg.lstsq(A, lv, rcond=None)
    pred = A @ np.asarray([slope, icept])
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - np.mean(lv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -float(slope), float(icept), r2, (lv - pred).tolist()


def fit_power_law(samples) -> DecayFitResult:
    """Least squares on (ln t, ln value); the headline exponent uses only
    the largest-t half of the samples to suppress transient bias, the
    full-sample fit is reported alongside."""
    if len(samples) < 4:
        raise ValueError("need at least 4 samples to fit a power law")
    for i, (t, v) in enumerate(samples):
        if not v > 0:
            raise ValueError(f"sample {i} at t = {t} has non-positive value {v}")
    samples = sorted(samples)
    ts = np.asarray([s[0] for s in samples])
    vs = np.asarray([s[1] for s in samples])
    half = len(ts) // 2
    exp_tail, icept, r2, resid = _loglog_fit(ts[half:], vs[half:])
    exp_full, _, r2_full, _ = _loglog_fit(ts, vs)
    return DecayFitResult(
        exponent=exp_tail, intercept=icept, r_squared=r2, residuals=resid,
        window=(float(ts[half]), float(ts[-1])),
        exponent_full=exp_full, r_squared_full=r2_full,
    )


# ---------------------------------------------------------------------------
# emission


def _fmt(v):
    # np.float64 subclasses float, and its repr is "np.float64(...)"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit(cfg: ExperimentConfig, name: str, header, rows, results, checks,
          wall_time):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    meta = {
        "config": cfg.to_json(),
        "versions": {
            "hopfcole": _pkg_version,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": wall_time,
        "results": results,
        "checks": [{"name": n, "passed": bool(p), "detail": d}
                   for (n, p, d) in checks],
    }
    json_path = out / f"{name}.json"
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return {"csv": str(csv_path), "json": str(json_path),
            "results": results, "checks": checks, "rows": rows}


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, DecayFitResult):
        return asdict(obj)
    return str(obj)


def _scales(data, t):
    """(space scale, amplitude scale) of the long-time rescaling; the space
    scale is rescaled.default_space_scale."""
    m = default_space_scale(data, t)
    if data.spec.family == "PowerLog":
        return m, t / m
    alpha = data.alpha
    if alpha is None:
        return m, math.sqrt(t)
    return m, t ** (alpha / (1.0 + alpha))


# ---------------------------------------------------------------------------
# runners


def run_decay(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    ts = cfg.t_grid()
    sup = burgers.sup_norm if cfg.equation == "burgers" else heat.heat_sup_norm
    rows = [(float(t), r.value, r.argmax_x)
            for t, r in zip(ts, sup(data, ts, Z=cfg.window_Z, n_coarse=cfg.n_coarse))]
    fit = fit_power_law([(t, v) for (t, v, _x) in rows])
    sup_bound = data.sup_abs * (1.0 + 1e-6)
    max_principle_ok = all(v <= sup_bound for (_t, v, _x) in rows)
    checks = [("max_principle", max_principle_ok,
               f"max sup {max(v for (_t, v, _x) in rows):.6g} vs bound {sup_bound:.6g}")]
    alpha = data.alpha
    theory = None
    if alpha is not None:
        theory = alpha / (1.0 + alpha) if cfg.equation == "burgers" else alpha / 2.0
        tol = 0.02
        checks.append((
            "decay_exponent", abs(fit.exponent - theory) <= tol,
            f"fitted {fit.exponent:.4f} vs theory {theory:.4f} (tol {tol})",
        ))
    results = {"fit": fit, "theory_exponent": theory, "sup_abs": data.sup_abs}
    return _emit(cfg, f"decay_{cfg.equation}", ["t", "sup_norm", "argmax_x"],
                 rows, results, checks, time.time() - t0)


def _derivative_sup(data, ts, n, k, cfg):
    """sup over the scaled window of |d_t^n d_x^k f| at every t of ts,
    including a dense scan of the internal layer at the profile jump where
    the derivative peaks.

    Returns (found, tie_fallback): one (sup, argmax) per t, and per t
    whether the finite-time tie point was not found and the layer scan is
    centred on the limit jump case.discontinuity_z instead.  The wide scans
    of all t run in lockstep, then the tie points of each t, then the layer
    scans in lockstep (burgers.scan_max), all scored on one
    burgers.derivative_fields_scorer for the sweep."""
    ts = [float(t) for t in ts]
    ms = [_scales(data, t)[0] for t in ts]
    name = burgers.FIELD_OF_ORDER[(n, k)]
    fields = burgers.derivative_fields_scorer(data, np.asarray(ts), rel_tol=1e-8)

    def fn(xs):
        return [np.abs(f[name]) for f in fields(xs)]

    Z = cfg.window_Z
    wide = burgers.scan_max(fn, [-Z * m for m in ms], [Z * m for m in ms], cfg.n_coarse)
    case = case_for_data(data)
    if case is None or (n, k) == (0, 0):
        return wide, [False] * len(ts)
    lo, hi, fallback = [], [], []
    for t, m in zip(ts, ms):
        try:
            zc_t = phase_tie_point(data, t)
        except TieWindowError:
            zc_t = case.discontinuity_z
            fallback.append(True)
        else:
            fallback.append(False)
        yp = invert_branch(case, BRANCH_PLUS, zc_t).y
        # Asymmetric data have no minus branch at z > 0: the competing
        # maximum is the left one, which tends to y = 0
        ym = (0.0 if case.case == CASE_ASYMMETRIC
              else invert_branch(case, BRANCH_MINUS, zc_t).y)
        amp_phase = t ** ((1.0 - case.alpha) / (1.0 + case.alpha))
        dz = min(0.2, 8.0 / (amp_phase * 0.5 * (yp - ym)))
        lo.append((zc_t - dz) * m)
        hi.append((zc_t + dz) * m)
    layer = burgers.scan_max(fn, lo, hi, 41)
    return [(v2, x2) if v2 > v else (v, x) for (v, x), (v2, x2) in zip(wide, layer)], fallback


def run_derivative_decay(cfg: ExperimentConfig):
    t0 = time.time()
    n, k = cfg.n, cfg.k
    data = make_family(cfg.family)
    ts = cfg.t_grid()
    tie_fallback_t = []
    if cfg.equation == "burgers":
        found, fallback = _derivative_sup(data, ts, n, k, cfg)
        tie_fallback_t = [float(t) for t, fb in zip(ts, fallback) if fb]
    else:
        derivative = heat.heat_derivative_scorer(data, ts, n, k, rel_tol=1e-8)
        ms = [math.sqrt(t) for t in ts]
        found = burgers.scan_max(lambda xs: [np.abs(v) for v in derivative(xs)],
                                 [-cfg.window_Z * m for m in ms],
                                 [cfg.window_Z * m for m in ms], cfg.n_coarse)
    rows = [(float(t), v, ax) for t, (v, ax) in zip(ts, found)]
    fit = fit_power_law([(t, v) for (t, v, _x) in rows])
    alpha = data.alpha
    checks = []
    results = {"fit": fit, "n": n, "k": k}
    if cfg.equation == "burgers":
        # t-points whose layer scan is centred on the limit jump because the
        # finite-time tie point was not found
        results["tie_fallback_t"] = tie_fallback_t
    if alpha is not None:
        if cfg.equation == "burgers":
            rate = alpha / (1.0 + alpha) * (1.0 + 2 * n + k)
            scaled = np.asarray([v for (_t, v, _x) in rows]) * ts ** rate
            bounded = scaled[-1] <= 2.0 * float(np.median(scaled))
            results["bound_rate"] = rate
            results["scaled_values"] = scaled.tolist()
            checks.append(("scaled_sup_bounded", bounded,
                           f"final {scaled[-1]:.4g} vs 2x median {2 * np.median(scaled):.4g}"))
        else:
            rate = alpha / 2.0 + n + k / 2.0
            results["theory_exponent"] = rate
            checks.append(("derivative_exponent",
                           abs(fit.exponent - rate) <= 0.05,
                           f"fitted {fit.exponent:.4f} vs theory {rate:.4f}"))
    return _emit(cfg, f"ddecay_{cfg.equation}_{n}_{k}",
                 ["t", "sup_norm", "argmax_x"], rows, results, checks,
                 time.time() - t0)


def run_profile(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    case = case_for_data(data)
    if case is None:
        raise ConfigError(f"family {cfg.family.family} has no limit profile")
    zc = case.discontinuity_z
    ts = cfg.t_grid()
    zs_all = np.linspace(cfg.z_min, cfg.z_max, cfg.z_count)
    zs = [float(z) for z in zs_all
          if abs(z - zc) > cfg.exclusion
          and not (case.case == profiles.CASE_ASYMMETRIC and z == 0.0)]
    ps = [profile_value(case, z) for z in zs]  # p does not depend on t
    rows = []
    sups = []
    max_local_maxima = 0
    for t in ts:
        m, amp = _scales(data, float(t))
        errs = []
        vals = amp * burgers.eval_batch(data, np.asarray(zs) * m, float(t))
        for z, v, p in zip(zs, vals, ps):
            v = float(v)
            err = abs(v - p)
            errs.append(err)
            rows.append((float(t), z, v, p, err))
        sups.append(max(errs))
        # spurious stationary points near the cusp are possible at finite t;
        # runs with more than 3 local maxima get flagged for inspection
        for cps in rescaled_critical_points(data, np.asarray([zc - 0.5, zc + 0.5]), float(t)):
            max_local_maxima = max(
                max_local_maxima, sum(1 for c in cps if c.kind != KIND_MIN))
    results = {"jump_z": zc, "sup_errors": dict(zip(map(float, ts), sups)),
               "max_local_maxima": max_local_maxima,
               "spurious_maxima_flag": max_local_maxima > 3}
    checks = []
    tol = 0.05
    checks.append(("profile_sup_error", sups[-1] <= tol,
                   f"sup error {sups[-1]:.4g} at t={ts[-1]:g} (tol {tol})"))
    if len(ts) >= 2 and all(s > 0 for s in sups):
        slope = (math.log(sups[0]) - math.log(sups[-1])) / (
            math.log(ts[-1]) - math.log(ts[0]))
        results["error_exponent"] = slope
        theory = (1.0 - case.alpha) / (2.0 * (1.0 + case.alpha))
        results["theory_error_exponent"] = theory
        # the known convergence rate is an upper bound on the error, so the measured
        # decay may only be checked one-sidedly (at least that fast)
        checks.append(("error_rate_at_least", slope >= theory - 0.1,
                       f"measured {slope:.3f} vs bound rate {theory:.3f} - 0.1"))
    out = _emit(cfg, "profile", ["t", "z", "rescaled_f", "p_of_z", "abs_err"],
                rows, results, checks, time.time() - t0)
    _emit_profile_curve(cfg, case, zs, ps)
    return out


def _emit_profile_curve(cfg, case, zs, ps):
    rows = []
    for z, p in zip(zs, ps):
        if case.case in (profiles.CASE_SYMMETRIC, profiles.CASE_LOG_CORRECTED,
                         profiles.CASE_SIGN_FLIPPED):
            label = BRANCH_PLUS if z > case.discontinuity_z else BRANCH_MINUS
        else:
            label = (BRANCH_PLUS if z > case.discontinuity_z
                     else ("linear" if z > 0 else "zero"))
        rows.append((z, p, label, case.case, case.kappa, case.alpha,
                     "" if case.beta is None else case.beta))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "profile_curve.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(["z", "p_of_z", "branch_label", "case", "kappa", "alpha", "beta"])
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def run_critical_z(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    case = case_for_data(data)
    if case is None:
        raise ConfigError(f"family {cfg.family.family} has no limit profile")
    rows = []
    limit_val = profile_jump_location(case, VARIANT_LIMIT_DERIVED)
    rows.append(("limit_derived", "", limit_val))
    try:
        printed_val = profile_jump_location(case, VARIANT_PRINTED)
        rows.append(("printed", "", printed_val))
    except (TiePointError, ValueError) as exc:
        printed_val = None
        rows.append(("printed", "", "no_root"))
    finite_vals = {}
    for t in cfg.t_grid():
        zt = phase_tie_point(data, float(t))
        finite_vals[float(t)] = zt
        rows.append(("finite_tie", float(t), zt))
    t_last = max(finite_vals)
    results = {
        "limit_derived": limit_val,
        "printed": printed_val,
        "printed_delta": (None if printed_val is None
                          else printed_val - limit_val),
        "finite_ties": finite_vals,
        "finite_vs_limit_at_tmax": finite_vals[t_last] - limit_val,
    }
    ftimes = sorted(finite_vals)
    cauchy = [abs(finite_vals[a] - finite_vals[b])
              for a, b in zip(ftimes[:-1], ftimes[1:])]
    results["finite_tie_increments"] = cauchy
    checks = [("finite_vs_limit_derived",
               abs(results["finite_vs_limit_at_tmax"]) <= 0.05,
               f"|finite({t_last:g}) - limit| = {abs(results['finite_vs_limit_at_tmax']):.4g}"),
              ("printed_delta_reported", True,
               f"printed variant: {printed_val}")]
    return _emit(cfg, "zc", ["route", "t", "z_c"], rows, results, checks,
                 time.time() - t0)


def run_concentration(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    rows = []
    for t in cfg.t_grid():
        r = concentration_ratio(data, cfg.x0, float(t), cfg.mu1, cfg.mu2)
        rows.append((float(t), r.ratio, r.log_ratio, r.c0))
    ts = np.asarray([r[0] for r in rows])
    logs = np.asarray([r[2] for r in rows])
    alpha = data.alpha if data.alpha is not None else 1.0
    xvar = ts ** ((1.0 - alpha) / (1.0 + alpha))
    corr = float(np.corrcoef(xvar, logs)[0, 1]) if len(ts) > 2 else 0.0
    slope = float(np.polyfit(xvar, logs, 1)[0]) if len(ts) > 1 else 0.0
    decreasing = bool(np.all(np.diff([r[1] for r in rows]) < 0))
    results = {"pearson_corr": corr, "fitted_nu": -slope,
               "strictly_decreasing": decreasing,
               "c0_range": [min(r[3] for r in rows), max(r[3] for r in rows)]}
    checks = [
        ("ratio_strictly_decreasing", decreasing, f"{len(rows)} points"),
        ("log_ratio_correlation", corr <= -0.99, f"corr = {corr:.5f}"),
    ]
    return _emit(cfg, "concentration", ["t", "ratio", "log_ratio", "c0"],
                 rows, results, checks, time.time() - t0)


def run_properties(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    rows = []
    reports = {}
    all_ok = True
    for t in cfg.t_grid():
        rep = check_properties(data, float(t))
        reports[str(float(t))] = rep.to_json()
        for i in range(1, 10):
            entry = rep.properties[f"property_{i}"]
            rows.append((float(t), f"property_{i}", entry["pass"],
                         entry["margin"]))
            all_ok = all_ok and entry["pass"]
    results = {"reports": reports}
    checks = [("all_properties_pass", all_ok, "")]
    return _emit(cfg, "properties", ["t", "property", "passed", "margin"],
                 rows, results, checks, time.time() - t0)


def run_heat_profile(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    case = case_for_data(data)
    # the heat limit profile is that of a kappa |y|^-alpha tail on both sides
    if case is None or case.case != profiles.CASE_SYMMETRIC:
        raise ConfigError(f"family {cfg.family.family} has no symmetric "
                          "kappa |y|^-alpha tail, so no heat limit profile")
    ts = cfg.t_grid()
    if len(ts) < 2:
        raise ConfigError("heat_profile needs at least 2 time points to see "
                          "its error decrease")
    alpha, kappa = data.spec.alpha, data.spec.kappa
    zs = np.linspace(-4.0, 4.0, 33)
    prof = {float(z): heat.heat_limit_profile(float(z), kappa, alpha) for z in zs}
    rows = []
    sups = []
    for t in ts:
        errs = []
        vals = t ** (alpha / 2.0) * heat.heat_eval_batch(data, zs * math.sqrt(t), float(t))
        for z, v in zip(zs, vals):
            v = float(v)
            err = abs(v - prof[float(z)])
            errs.append(err)
            rows.append((float(t), float(z), v, prof[float(z)], err))
        sups.append(max(errs))
    results = {"sup_errors": dict(zip(map(float, ts), sups)),
               "profile_center": prof.get(0.0)}
    checks = [("sup_error_decreases",
               all(a > b for a, b in zip(sups[:-1], sups[1:])),
               f"sups {sups}")]
    return _emit(cfg, "heat_profile", ["t", "z", "rescaled", "profile", "abs_err"],
                 rows, results, checks, time.time() - t0)


def run_fd_compare(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    d1, d2 = finite_difference.compare_halved_dx(
        data, cfg.fd_t, cfg.fd_L, cfg.fd_nodes, scheme=cfg.fd_scheme)
    n2 = 2 * cfg.fd_nodes - 1
    dx1 = 2.0 * cfg.fd_L / (cfg.fd_nodes - 1)
    rows = [
        (cfg.fd_L, cfg.fd_nodes, dx1, cfg.fd_scheme, d1),
        (cfg.fd_L, n2, dx1 / 2.0, cfg.fd_scheme, d2),
    ]
    ratio = d1 / d2 if d2 > 0 else math.inf
    tol = 5e-4
    results = {"max_discrepancy": d1, "halved_dx_discrepancy": d2,
               "ratio": ratio}
    checks = [
        ("fd_discrepancy", d1 <= tol, f"{d1:.4g} vs tol {tol}"),
        ("first_order_halving", 1.4 <= ratio <= 2.6,
         f"ratio {ratio:.3f} (expect 2 +- 30%)"),
    ]
    return _emit(cfg, "fd_compare", ["L", "n", "dx", "scheme", "max_discrepancy"],
                 rows, results, checks, time.time() - t0)


def run_field(cfg: ExperimentConfig):
    t0 = time.time()
    data = make_family(cfg.family)
    rows = []
    for t in cfg.t_grid():
        m, _ = _scales(data, float(t))
        xs = np.linspace(cfg.z_min * m, cfg.z_max * m, cfg.z_count)
        if cfg.equation == "burgers":
            vals = burgers.eval_batch(data, xs, float(t))
        else:
            vals = heat.heat_eval_batch(data, xs, float(t))
        for x, v in zip(xs, vals):
            rows.append((float(t), float(x), float(v)))
    return _emit(cfg, f"field_{cfg.equation}", ["t", "x", "value"], rows,
                 {"points": len(rows)}, [], time.time() - t0)


RUNNERS = {
    "decay": run_decay,
    "ddecay": run_derivative_decay,
    "profile": run_profile,
    "zc": run_critical_z,
    "concentration": run_concentration,
    "properties": run_properties,
    "heat_profile": run_heat_profile,
    "fd_compare": run_fd_compare,
    "field": run_field,
}


def run(cfg: ExperimentConfig):
    return RUNNERS[cfg.experiment](cfg)
