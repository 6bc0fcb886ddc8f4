"""The benchmark's four workloads, generated from a seed.

A workload is a fixed list of operations.  An operation is one experiment
run through the public driver ``hopfcole.experiments.run`` or one oracle
probe.  The seed perturbs the data amplitude kappa, the offset of the time
grid and the probe points, within ranges where every built-in check of the
seed code holds; the program only ever sees the generated configs.  One
experiment, ``zc`` on Asymmetric data, raises at the seed code whatever the
seed; it is kept and counted as a failed operation.

Importing this module imports ``hopfcole``, so ``run.py`` starts the
set-up clock before it imports this file.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from hopfcole import burgers, experiments
from hopfcole.experiments import ExperimentConfig
from hopfcole.initial_data import FamilySpec, make_family

KAPPA_SPREAD = 0.05        # kappa is drawn from [1 - s, 1 + s]
T_OFFSET_DECADES = 0.1     # every t in a grid is scaled by 10**u, u in [0, this]
PROBE_X = 10.0             # residual probes: x in [-PROBE_X, PROBE_X]
PROBE_LOG10_T = (0.0, 4.0)  # residual probes: log10 t in this range
RESIDUAL_BUDGET = 1e-6     # criterion 6: |res| <= 1e-6 (1 + |f_t| + |f_xx|)


@dataclass
class Experiment:
    """One call of experiments.run on a generated config."""

    label: str
    config: ExperimentConfig

    def run(self, out_dir: Path):
        """Run it; its output."""
        self.config.out_dir = str(out_dir)
        return experiments.run(self.config)

    def check(self, out):
        """The names of the checks that failed on an output of run()."""
        failed = [name for name, passed, _detail in out["checks"] if not passed]
        if self.config.experiment == "field":
            failed += _field_oracle(self.config, out["rows"])
        return failed


@dataclass
class ResidualProbe:
    """PDE residual of burgers.derivative_fields at one (x, t)."""

    label: str
    family: FamilySpec
    x: float
    t: float

    def execute(self):
        """Probe it; return the reasons it failed, if any."""
        data = make_family(self.family)
        f = burgers.derivative_fields(data, self.x, self.t)
        res = f["f_t"] - f["f_xx"] + f["f"] * f["f_x"]
        budget = RESIDUAL_BUDGET * (1.0 + abs(f["f_t"]) + abs(f["f_xx"]))
        return [] if abs(res) <= budget else [
            f"residual {abs(res):.3g} > budget {budget:.3g}"]


@dataclass
class Plan:
    name: str
    experiments: list
    probes: list = field(default_factory=list)


def _field_oracle(cfg, rows):
    """`field` has no built-in checks: require the requested row count,
    finite values and the maximum principle |f| <= sup |f0|."""
    bound = make_family(cfg.family).sup_abs * (1.0 + 1e-6)
    problems = []
    if len(rows) != cfg.z_count * len(cfg.t_grid()):
        problems.append(f"field rows {len(rows)}")
    if not all(math.isfinite(v) and abs(v) <= bound for _t, _x, v in rows):
        problems.append("field value not finite or above sup |f0|")
    return problems


def _experiment(label, **cfg):
    return Experiment(label, ExperimentConfig.from_json(cfg))


def _decay_sweep(rnd, kappa, shift, tiny):
    alphas = (0.5,) if tiny else (0.5, 1.0 / 3.0)
    count = 4 if tiny else 5
    return [
        _experiment(f"decay_{eq}_a{alpha:.3f}", experiment="decay",
                    family={"family": "PowerC0", "kappa": kappa, "alpha": alpha},
                    equation=eq, t_min=1e3 * shift, t_max=1e7 * shift,
                    t_count=count)
        for alpha in alphas for eq in ("burgers", "heat")
    ], []


def _ddecay_sweep(rnd, kappa, shift, tiny):
    family = {"family": "PowerC0", "kappa": kappa, "alpha": 0.5}
    # t >= 1e6, where a Burgers t-point costs about half of one at 1e3, so
    # that a run holds two reps; a fit needs 4 t-points, so the tiny variant
    # only takes a coarse first scan
    grid = {"t_min": 1e6 * shift, "t_max": 1e8 * shift, "t_count": 4}
    if tiny:
        grid["n_coarse"] = 9
    experiments = [
        _experiment(f"ddecay_{eq}", experiment="ddecay", family=family,
                    equation=eq, n=0, k=1, **grid)
        for eq in ("burgers", "heat")
    ]
    spec = FamilySpec.from_json(family)
    probes = [
        ResidualProbe(f"residual_{i}", spec,
                      rnd.uniform(-PROBE_X, PROBE_X),
                      10.0 ** rnd.uniform(*PROBE_LOG10_T))
        for i in range(2 if tiny else 16)
    ]
    return experiments, probes


def _batch_field(rnd, kappa, shift, tiny):
    family = {"family": "PowerC1", "kappa": kappa, "alpha": 0.5}
    # the criterion-7 spacing dx = 2 L / (nodes - 1) = 0.0125 on a quarter of
    # its domain (L = 100 there), so that a run holds several reps; the tiny
    # variant keeps the spacing on a tenth
    fd = {"fd_L": 10.0, "fd_nodes": 1601} if tiny else {"fd_L": 25.0, "fd_nodes": 4001}
    points = 17 if tiny else 257
    t_long = 1e3 * shift
    return [
        _experiment("fd_compare", experiment="fd_compare", family=family,
                    fd_t=1.0 if tiny else 2.0, **fd),
        _experiment("field_burgers_long_t", experiment="field", family=family,
                    t_min=t_long, t_max=t_long, z_count=points),
        _experiment("field_heat", experiment="field", family=family,
                    equation="heat", t_min=t_long, t_max=t_long,
                    z_count=points),
    ], []


def _structure(rnd, kappa, shift, tiny):
    c1 = {"family": "PowerC1", "kappa": kappa, "alpha": 1.0 / 3.0}
    flipped = {"family": "SignFlipped", "kappa": kappa, "alpha": 1.0 / 3.0}
    asym = {"family": "Asymmetric", "kappa": kappa, "alpha": 1.0 / 3.0,
            "beta": 2.0 / 3.0}
    c0 = {"family": "PowerC0", "kappa": kappa, "alpha": 0.5}
    zc_grid = {"t_min": 1e4 * shift, "t_max": 1e6 * shift, "t_count": 3}
    profile_grid = {"t_min": 1e6 * shift, "t_max": 1e8 * shift, "t_count": 2}
    if tiny:
        zc_grid = {"t_min": 1e6 * shift, "t_max": 1e6 * shift, "t_count": 1}
        profile_grid["z_count"] = 11
    return [
        _experiment("zc_powerc1", experiment="zc", family=c1, **zc_grid),
        _experiment("properties_powerc1", experiment="properties", family=c1,
                    t_min=1e6 * shift, t_max=1e6 * shift, t_count=1),
        _experiment("profile_powerc1", experiment="profile", family=c1,
                    **profile_grid),
        _experiment("profile_signflipped", experiment="profile",
                    family=flipped, **profile_grid),
        _experiment("zc_signflipped", experiment="zc", family=flipped, **zc_grid),
        _experiment("profile_asymmetric", experiment="profile", family=asym,
                    **profile_grid),
        # raises TieWindowError at the seed code: the tie-point search does
        # not reach the asymmetric jump; it is counted as a failed operation
        _experiment("zc_asymmetric", experiment="zc", family=asym, **zc_grid),
        _experiment("concentration_powerc0", experiment="concentration",
                    family=c0, t_min=1e2 * shift, t_max=1e5 * shift, t_count=7),
        _experiment("heat_profile_powerc0", experiment="heat_profile",
                    family=c0, t_min=1e4 * shift, t_max=1e6 * shift, t_count=2),
    ], []


_BUILDERS = {
    "decay_sweep": _decay_sweep,
    "ddecay_sweep": _ddecay_sweep,
    "batch_field": _batch_field,
    "structure": _structure,
}


def build(name: str, seed: int, tiny: bool = False) -> Plan:
    """The operations of workload `name` for `seed`; the same seed gives
    the same configs and probes."""
    rnd = random.Random(f"{name}:{seed}")
    kappa = 1.0 + rnd.uniform(-KAPPA_SPREAD, KAPPA_SPREAD)
    shift = 10.0 ** rnd.uniform(0.0, T_OFFSET_DECADES)
    experiments, probes = _BUILDERS[name](rnd, kappa, shift, tiny)
    return Plan(name, experiments, probes)
