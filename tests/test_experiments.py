import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hopfcole import burgers, finite_difference, quadrature
from hopfcole.cli import main
from hopfcole.experiments import (
    ConfigError,
    ExperimentConfig,
    _emit,
    _fmt,
    fit_power_law,
    run,
    run_concentration,
    run_critical_z,
    run_decay,
    run_fd_compare,
    run_field,
    run_heat_profile,
    run_properties,
)
from hopfcole.initial_data import FamilySpec, make_family


# -- fitting -----------------------------------------------------------------


def test_fit_exact_power_law():
    ts = np.geomspace(10, 1e5, 9)
    fit = fit_power_law([(t, 3.0 * t ** -0.25) for t in ts])
    assert fit.exponent == pytest.approx(0.25, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.exponent_full == pytest.approx(0.25, abs=1e-12)


def test_fit_constant_samples():
    ts = np.geomspace(10, 1e4, 8)
    fit = fit_power_law([(t, 2.0) for t in ts])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_log_perturbed():
    # value = 2 t^{-1/3} (1 + 0.1/ln t): tail fit within 0.02 of 1/3
    ts = np.geomspace(1e3, 1e7, 13)
    fit = fit_power_law([(t, 2.0 * t ** (-1 / 3) * (1 + 0.1 / math.log(t)))
                         for t in ts])
    assert abs(fit.exponent - 1 / 3) <= 0.02


def test_fit_window_is_largest_half():
    ts = np.geomspace(1e2, 1e6, 8)
    fit = fit_power_law([(t, t ** -0.5) for t in ts])
    assert fit.window[0] >= ts[len(ts) // 2] * 0.999
    assert fit.window[1] == pytest.approx(ts[-1])


def test_fit_rejects_bad_samples():
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
    with pytest.raises(ValueError, match="sample 2"):
        fit_power_law([(1.0, 1.0), (2.0, 1.0), (3.0, -1.0), (4.0, 1.0)])


# -- config ------------------------------------------------------------------


def test_config_round_trip():
    cfg = ExperimentConfig(
        experiment="decay",
        family=FamilySpec("PowerC0", kappa=1.0, alpha=0.5),
        t_min=1e3, t_max=1e5, t_count=5,
    )
    blob = json.dumps(cfg.to_json())
    back = ExperimentConfig.from_json(json.loads(blob))
    assert back == cfg


def test_config_validation():
    fam = FamilySpec("PowerC0", kappa=1.0, alpha=0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope", family=fam)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="decay", family=fam, t_min=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="decay", family=fam, t_count=2)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"experiment": "decay",
                                    "family": {"family": "Zero"},
                                    "bogus_field": 1})
    # the check thresholds are constants, not config fields
    with pytest.raises(ConfigError, match="tolerances"):
        ExperimentConfig.from_json({"experiment": "decay",
                                    "family": {"family": "Zero"},
                                    "tolerances": {"exponent": 0.1}})


def test_orders_above_two_raise():
    # only 2n + k <= 2 is exact through the weight algebra: other orders of
    # a ddecay sweep are config errors, before any work is done
    fam = FamilySpec("PowerC1", kappa=1.0, alpha=0.5)
    for n, k in ((0, 3), (1, 1), (2, 0), (2, 1), (-1, 1), (0, -1)):
        with pytest.raises(ConfigError, match=r"2n \+ k <= 2"):
            ExperimentConfig(experiment="ddecay", family=fam, n=n, k=k)
    for n, k in ((0, 0), (0, 1), (1, 0), (0, 2)):
        ExperimentConfig(experiment="ddecay", family=fam, n=n, k=k)


def test_cli_exit_code_unsupported_order(tmp_path):
    for n, k in (("1", "1"), ("-1", "1")):
        assert main(["ddecay", "--family", "PowerC1", "--n", n, "--k", k,
                     "--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


def test_default_t_grid_caps_nine_per_decade():
    fam = FamilySpec("PowerC0", kappa=1.0, alpha=0.5)
    cfg = ExperimentConfig(experiment="field", family=fam, t_min=10.0, t_max=100.0)
    assert len(cfg.t_grid()) <= 10


# -- runners -----------------------------------------------------------------


def test_field_constant_column(tmp_path):
    cfg = ExperimentConfig(
        experiment="field", family=FamilySpec("Constant", extra={"level": 0.5}),
        t_min=1.0, t_max=1.0, t_count=1, z_count=7, out_dir=str(tmp_path),
    )
    out = run_field(cfg)
    vals = {row[2] for row in out["rows"]}
    assert all(abs(v - 0.5) < 1e-10 for v in vals)
    assert Path(out["csv"]).exists()
    header = Path(out["csv"]).read_text().splitlines()[0]
    assert header == "t,x,value"


def test_csv_rfc4180_line_endings(tmp_path):
    cfg = ExperimentConfig(
        experiment="field", family=FamilySpec("Zero"),
        t_min=1.0, t_max=1.0, t_count=1, z_count=3, out_dir=str(tmp_path),
    )
    out = run_field(cfg)
    raw = Path(out["csv"]).read_bytes()
    assert b"\r\n" in raw


def test_numpy_floats_are_written_as_floats(tmp_path):
    assert _fmt(np.float64(0.52)) == "0.52"
    assert _fmt(np.float32(0.5)) == "0.5"
    assert _fmt(0.52) == "0.52" and _fmt(3) == "3"
    cfg = ExperimentConfig(experiment="field", family=FamilySpec("Zero"),
                           out_dir=str(tmp_path))
    row = (np.float64(1e6), np.float64(-0.1), np.float64(0.5228026818571667))
    out = _emit(cfg, "floats", ["t", "x", "value"], [row], {}, [], 0.0)
    with open(out["csv"], newline="") as fh:
        read = list(csv.reader(fh))
    assert [float(v) for v in read[1]] == list(row)


def test_json_sidecar_contents(tmp_path):
    cfg = ExperimentConfig(
        experiment="decay", family=FamilySpec("PowerC1", kappa=1.0, alpha=0.5),
        t_min=10.0, t_max=1e3, t_count=4, n_coarse=65, out_dir=str(tmp_path),
    )
    out = run_decay(cfg)
    meta = json.loads(Path(out["json"]).read_text())
    assert meta["config"]["family"]["family"] == "PowerC1"
    assert "numpy" in meta["versions"] and "hopfcole" in meta["versions"]
    assert meta["wall_time_s"] > 0
    assert "fit" in meta["results"]
    assert any(c["name"] == "max_principle" and c["passed"] for c in meta["checks"])


def test_zc_routes_and_deltas(tmp_path, power_c1_third):
    cfg = ExperimentConfig(
        experiment="zc", family=FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3),
        t_min=1e4, t_max=1e5, t_count=2, out_dir=str(tmp_path),
    )
    out = run_critical_z(cfg)
    routes = {row[0] for row in out["rows"]}
    assert routes == {"limit_derived", "printed", "finite_tie"}
    res = out["results"]
    assert abs(res["finite_vs_limit_at_tmax"]) <= 0.05
    # the printed variant has no root for this family: surfaced, not hidden
    assert res["printed"] is None


def test_concentration_runner(tmp_path):
    cfg = ExperimentConfig(
        experiment="concentration",
        family=FamilySpec("PowerC0", kappa=1.0, alpha=0.5),
        t_min=1e2, t_max=1e4, t_count=5, out_dir=str(tmp_path),
    )
    out = run_concentration(cfg)
    assert out["results"]["strictly_decreasing"]
    assert out["results"]["pearson_corr"] <= -0.99


def test_properties_runner(tmp_path):
    cfg = ExperimentConfig(
        experiment="properties",
        family=FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3),
        t_min=1e5, t_max=1e5, t_count=1, out_dir=str(tmp_path),
    )
    out = run_properties(cfg)
    assert all(passed for (_name, passed, _d) in out["checks"])
    rep = out["results"]["reports"]["100000.0"]
    assert set(rep) >= {f"property_{i}" for i in range(1, 10)}


def test_heat_profile_runner(tmp_path):
    cfg = ExperimentConfig(
        experiment="heat_profile",
        family=FamilySpec("PowerC0", kappa=1.0, alpha=0.5),
        t_min=1e4, t_max=1e6, t_count=2, out_dir=str(tmp_path),
    )
    out = run_heat_profile(cfg)
    assert all(passed for (_n, passed, _d) in out["checks"])


def test_profile_runner_and_curve_csv(tmp_path):
    cfg = ExperimentConfig(
        experiment="profile",
        family=FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3),
        t_min=1e5, t_max=1e6, t_count=2, z_min=-3.0, z_max=3.0, z_count=13,
        out_dir=str(tmp_path),
    )
    out = run(cfg)
    assert Path(out["csv"]).read_text().splitlines()[0] == "t,z,rescaled_f,p_of_z,abs_err"
    curve = Path(tmp_path, "profile_curve.csv").read_text().splitlines()
    assert curve[0] == "z,p_of_z,branch_label,case,kappa,alpha,beta"
    assert any(",minus," in line for line in curve[1:])


def test_profile_evaluates_p_once_per_z(monkeypatch, tmp_path):
    # p does not depend on t: every t and profile_curve.csv share one value a z
    from hopfcole import experiments
    calls = []
    real = experiments.profile_value

    def counted(case, z):
        calls.append(z)
        return real(case, z)

    monkeypatch.setattr(experiments, "profile_value", counted)
    cfg = ExperimentConfig(
        experiment="profile",
        family=FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3),
        t_min=1e5, t_max=1e6, t_count=3, z_min=-3.0, z_max=3.0, z_count=13,
        out_dir=str(tmp_path),
    )
    out = run(cfg)
    zs = sorted({row[1] for row in out["rows"]})
    assert len(out["rows"]) == 3 * len(zs)
    assert sorted(calls) == zs
    curve = Path(tmp_path, "profile_curve.csv").read_text().splitlines()
    assert len(curve) == 1 + len(zs)


# -- CLI ---------------------------------------------------------------------


def test_fd_compare_evaluates_one_reference(monkeypatch, tmp_path, power_c1_half):
    calls = []
    real = burgers.eval_batch

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(burgers, "eval_batch", counted)
    cfg = ExperimentConfig(
        experiment="fd_compare", family=FamilySpec("PowerC1", kappa=1.0, alpha=0.5),
        fd_t=2.0, fd_L=25.0, fd_nodes=401, out_dir=str(tmp_path),
    )
    out = run_fd_compare(cfg)
    assert calls == [401]  # the interior |x| <= L/2 of the 801-node grid
    assert [row[1] for row in out["rows"]] == [401, 801]
    assert out["rows"][0][4] == finite_difference.compare_to_hopf_cole(
        power_c1_half, 2.0, 25.0, 401)


def test_cli_field(tmp_path):
    rc = main(["field", "--family", "Constant", "--tmin", "1", "--tmax", "1",
               "--tcount", "1", "--zcount", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "field_burgers.csv").exists()


def test_cli_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "family": {"family": "PowerC1", "kappa": 1.0, "alpha": 0.5},
        "t_min": 1.0, "t_max": 1.0, "t_count": 1, "z_count": 3,
        "out_dir": str(tmp_path / "ignored"),
    }))
    rc = main(["field", "--config", str(cfg_path), "--out", str(tmp_path / "real")])
    assert rc == 0
    assert (tmp_path / "real" / "field_burgers.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_exit_code_config_error(tmp_path):
    assert main(["decay", "--family", "NoSuchFamily", "--out", str(tmp_path)]) == 2
    assert main(["decay", "--family", "PowerC1", "--alpha", "1.7",
                 "--out", str(tmp_path)]) == 2
    assert main(["decay", "--out", str(tmp_path)]) == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": {"family": "PowerC0", "kappa": 1.0, "alpha": 0.5},
                                    "tolerances": {"exponent": 0.1}}))
    assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2


def test_cli_exit_code_counts_below_one(tmp_path):
    assert main(["zc", "--family", "PowerC1", "--tcount", "0", "--tmin", "1e4",
                 "--tmax", "1e5", "--out", str(tmp_path)]) == 2
    assert main(["profile", "--family", "PowerC1", "--tcount", "0",
                 "--out", str(tmp_path)]) == 2
    assert main(["profile", "--family", "PowerC1", "--zcount", "0", "--tcount", "2",
                 "--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, scan", [
    ("decay", {"n_coarse": 9}),
    ("decay", {"window_Z": -1}),
    ("ddecay", {"n_coarse": 0}),
], ids=["decay-n_coarse", "decay-window_Z", "ddecay-n_coarse"])
def test_cli_exit_code_bad_scan_settings(tmp_path, command, scan):
    # sup_norm needs 64 coarse points, every scan at least one and Z > 0
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(
        {"family": {"family": "PowerC0", "kappa": 1.0, "alpha": 0.5}, **scan}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["decay", "ddecay"])
def test_cli_exit_code_one_point_fit(tmp_path, monkeypatch, command):
    # t_max == t_min is a grid of one point, which no power law fits: the
    # config is refused before any kernel call (it used to run the scan
    # and then fail in fit_power_law with a traceback)
    calls = []
    monkeypatch.setattr(quadrature.BatchKernel, "__call__",
                        lambda *args, **kw: calls.append(args))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(
        {"family": {"family": "PowerC0", "kappa": 1.0, "alpha": 0.5},
         "t_min": 1000, "t_max": 1000, "t_count": 4}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, family, fields", [
    ("concentration", {"family": "PowerC0", "kappa": 1.0, "alpha": 0.5},
     {"mu1": 0.1, "mu2": 0.2}),
    ("fd-compare", {"family": "PowerC1", "kappa": 1.0, "alpha": 0.5}, {"fd_nodes": 2}),
    ("fd-compare", {"family": "PowerC1", "kappa": 1.0, "alpha": 0.5}, {"fd_L": -5}),
    ("fd-compare", {"family": "PowerC1", "kappa": 1.0, "alpha": 0.5},
     {"fd_L": 5, "fd_t": 2.0}),
    ("zc", {"family": "Gaussian"}, {}),
    ("profile", {"family": "Gaussian"}, {}),
    ("heat-profile", {"family": "Gaussian"}, {"t_min": 100, "t_max": 1e4}),
    ("heat-profile", {"family": "Asymmetric", "alpha": 1 / 3, "beta": 2 / 3},
     {"t_min": 100, "t_max": 1e4}),
    ("heat-profile", {"family": "PowerC0", "kappa": 1.0, "alpha": 0.5},
     {"t_min": 100, "t_max": 100}),
], ids=["concentration-mu", "fd-nodes", "fd-L", "fd-budget", "zc-gaussian",
        "profile-gaussian", "heat-profile-gaussian", "heat-profile-asymmetric",
        "heat-profile-one-t"])
def test_cli_exit_code_bad_config_before_any_work(tmp_path, monkeypatch, command,
                                                   family, fields):
    # each of these exited 1 with a ValueError traceback from the library
    # (the strip of concentration_ratio, finite_difference.integrate, the
    # missing limit profile of Gaussian data); now they are config errors,
    # raised before any kernel call or FD step.  heat-profile compares with
    # the profile of a symmetric kappa |y|^-alpha tail and checks that its
    # error decreases in t: on other data, or at one t, it printed [PASS]
    calls = []
    monkeypatch.setattr(quadrature.BatchKernel, "__call__",
                        lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(quadrature, "_batch_critical_points",
                        lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(finite_difference, "integrate",
                        lambda *args, **kw: calls.append(args))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"family": family, **fields}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_check_failure(tmp_path):
    # a deliberately tiny sweep cannot match the asymptotic exponent, so
    # --check must exit 4
    rc = main(["decay", "--family", "PowerC0", "--alpha", "0.5",
               "--tmin", "1", "--tmax", "10", "--tcount", "4",
               "--equation", "heat", "--check", "--out", str(tmp_path)])
    assert rc == 4


def test_cli_exit_code_numerical(tmp_path):
    # the tie-point search fails for a family without branch structure
    rc = main(["zc", "--family", "PowerC1", "--alpha", "0.5",
               "--tmin", "0.001", "--tmax", "0.001", "--tcount", "1",
               "--out", str(tmp_path)])
    assert rc == 3


def test_profile_runner_reports_spurious_maxima_flag(tmp_path):
    cfg = ExperimentConfig(
        experiment="profile",
        family=FamilySpec("PowerC1", kappa=1.0, alpha=1 / 3),
        t_min=1e6, t_max=1e6, t_count=1, z_min=-2.0, z_max=2.0, z_count=5,
        out_dir=str(tmp_path),
    )
    out = run(cfg)
    assert out["results"]["max_local_maxima"] >= 1
    assert out["results"]["spurious_maxima_flag"] in (False, True)
    assert not out["results"]["spurious_maxima_flag"]


# -- ddecay tie-point fallback -----------------------------------------------


def _cheap_ddecay(monkeypatch, tmp_path, tie_error):
    """ddecay on PowerC0 with constant derivative fields and a tie-point
    search that fails with tie_error: only the fallback handling is
    exercised."""
    from hopfcole import burgers, experiments
    from hopfcole.rescaled import TieWindowError

    def tie(data, ts):  # the array form: a TieWindowError per t, other errors raised
        if isinstance(tie_error, TieWindowError):
            return [tie_error for _t in ts]
        raise tie_error

    def fields(data, t, rel_tol):  # a sweep scorer: one x array per t
        return lambda xs: [{name: np.ones(np.size(x)) for name in burgers.FIELD_OF_ORDER.values()}
                           for x in xs]

    monkeypatch.setattr(burgers, "derivative_fields_scorer", fields)
    monkeypatch.setattr(experiments, "phase_tie_point", tie)
    cfg = ExperimentConfig(experiment="ddecay",
                           family=FamilySpec("PowerC0", kappa=1.0, alpha=0.5),
                           t_min=1e4, t_max=1e7, t_count=4, n=0, k=1,
                           n_coarse=65, out_dir=str(tmp_path))
    return experiments.run_derivative_decay(cfg)


def test_ddecay_records_tie_point_fallback(monkeypatch, tmp_path):
    from hopfcole.rescaled import TieWindowError
    out = _cheap_ddecay(monkeypatch, tmp_path, TieWindowError("no sign change"))
    ts = [1e4, 1e5, 1e6, 1e7]
    assert out["results"]["tie_fallback_t"] == pytest.approx(ts)
    meta = json.loads(Path(out["json"]).read_text())
    assert meta["results"]["tie_fallback_t"] == pytest.approx(ts)


def test_a_t_without_a_tie_falls_back_alone(tmp_path):
    # the ties of all t run in lockstep: at t = 1 g_t is monotone and the
    # tie window is empty, so that t alone falls back to the limit jump in
    # ddecay, while zc raises naming it
    from hopfcole import experiments
    from hopfcole.rescaled import TieWindowError
    family = FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0)
    cfg = ExperimentConfig(experiment="ddecay", family=family, t_min=1.0, t_max=1e6,
                           t_count=4, n=0, k=1, out_dir=str(tmp_path))
    assert experiments.run_derivative_decay(cfg)["results"]["tie_fallback_t"] == [1.0]
    cfg = ExperimentConfig(experiment="zc", family=family, t_min=1.0, t_max=1e4, t_count=3,
                           out_dir=str(tmp_path))
    with pytest.raises(TieWindowError, match=r"at t = 1\.0: the window .* is empty"):
        experiments.run_critical_z(cfg)


def test_ddecay_on_asymmetric_data(tmp_path):
    # the layer scan was sized from the limit minus branch at the tie,
    # which Asymmetric data lack at z > 0, and raised ValueError; the
    # competing maximum is the left one, near y = 0
    from hopfcole import experiments
    cfg = ExperimentConfig(experiment="ddecay",
                           family=FamilySpec("Asymmetric", kappa=1.0, alpha=1.0 / 3.0,
                                             beta=2.0 / 3.0),
                           t_min=1e4, t_max=1e6, t_count=4, n=0, k=1,
                           n_coarse=65, out_dir=str(tmp_path))
    out = experiments.run_derivative_decay(cfg)
    assert out["results"]["tie_fallback_t"] == []
    assert [(name, bool(ok)) for name, ok, _detail in out["checks"]] == [
        ("scaled_sup_bounded", True)]


def test_ddecay_propagates_other_tie_point_errors(monkeypatch, tmp_path):
    from hopfcole.quadrature import NotConvergedError
    with pytest.raises(NotConvergedError, match="budget"):
        _cheap_ddecay(monkeypatch, tmp_path, NotConvergedError("budget"))


def five_point_fxx(data, t, h):
    """xs -> the 5-point difference of eval_batch at rel_tol 1e-13 for
    f_xx at every x of xs, step h."""
    def fxx(xs):
        pts = (np.asarray(xs, dtype=float)[:, None] + h * np.arange(-2.0, 3.0)).ravel()
        u = burgers.eval_batch(data, pts, t, 1e-13).reshape(-1, 5)
        return (16.0 * (u[:, 1] + u[:, 3]) - (u[:, 0] + u[:, 4]) - 30.0 * u[:, 2]) / (12.0 * h * h)
    return fxx


def test_ddecay_f_xx_sups_match_differences_of_f(tmp_path):
    # PowerC0 has a kink at y = 0, and the f0'' of the quotient-rule fields
    # missed its point mass: sup|f_xx| read 4.44e-3 at t = 1e3 and 2.13e-4
    # at t = 1e4, where differences of f give 1.24e-4 and 1.58e-5.  The
    # reference is a scan of 5-point differences of eval_batch (step
    # 0.025 t^(1/3)), over the experiment's window and, 513 points, over
    # 1 <= x / t^(2/3) <= 4, where the jump layer lies
    fam = FamilySpec("PowerC0", kappa=1.0, alpha=0.5)
    cfg = ExperimentConfig(experiment="ddecay", family=fam, equation="burgers",
                           t_min=1e3, t_max=1e6, t_count=4, n=0, k=2, out_dir=str(tmp_path))
    rows = run(cfg)["rows"]
    data = make_family(fam)
    for (t, v, argmax), want in zip(rows[:2], (1.24e-4, 1.58e-5)):
        m = t ** (2.0 / 3.0)
        fxx = five_point_fxx(data, t, 0.025 * t ** (1.0 / 3.0))
        scans = burgers.scan_max(lambda xs: [np.abs(fxx(x)) for x in xs],
                                 [-cfg.window_Z * m, m], [cfg.window_Z * m, 4.0 * m], 513)
        assert v == pytest.approx(max(scans)[0], rel=1e-6), t
        assert v == pytest.approx(abs(fxx([argmax])[0]), rel=1e-6), t
        assert v == pytest.approx(want, rel=0.01), t
