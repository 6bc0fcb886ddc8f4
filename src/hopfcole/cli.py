"""Command-line interface.

One binary with a subcommand per experiment; flags override the JSON config
file.  Exit codes: 0 success, 2 configuration error, 3 numerical
non-convergence, 4 acceptance-check failure under --check.
"""
from __future__ import annotations

import argparse
import json
import sys

from .experiments import ConfigError, ExperimentConfig, run
from .quadrature import InternalConsistencyError, NotConvergedError
from .profiles import TiePointError
from .rescaled import TieWindowError

_SUBCOMMANDS = {
    "decay": "decay",
    "ddecay": "ddecay",
    "profile": "profile",
    "zc": "zc",
    "concentration": "concentration",
    "properties": "properties",
    "heat-profile": "heat_profile",
    "fd-compare": "fd_compare",
    "field": "field",
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfcole",
        description="Long-time Burgers/heat asymptotics experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--family", help="data family name")
        p.add_argument("--kappa", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--equation", choices=["burgers", "heat"])
        p.add_argument("--tmin", type=float)
        p.add_argument("--tmax", type=float)
        p.add_argument("--tcount", type=int)
        p.add_argument("--eps", type=float,
                       help="exclusion half-width around the profile jump")
        p.add_argument("--check", action="store_true",
                       help="exit 4 if any built-in acceptance check fails")
        p.add_argument("--zmin", type=float)
        p.add_argument("--zmax", type=float)
        p.add_argument("--zcount", type=int)
        if name == "ddecay":
            p.add_argument("--n", type=int, help="time-derivative order")
            p.add_argument("--k", type=int, help="space-derivative order")
        if name == "fd-compare":
            p.add_argument("--L", type=float, help="domain half-width")
            p.add_argument("--nodes", type=int)
            p.add_argument("--t", type=float)
            p.add_argument("--scheme")
        if name == "concentration":
            p.add_argument("--mu1", type=float)
            p.add_argument("--mu2", type=float)
            p.add_argument("--x0", type=float)
    return parser


_FLAG_TO_FIELD = {
    "out": "out_dir",
    "equation": "equation",
    "tmin": "t_min",
    "tmax": "t_max",
    "tcount": "t_count",
    "eps": "exclusion",
    "zmin": "z_min",
    "zmax": "z_max",
    "zcount": "z_count",
    "n": "n",
    "k": "k",
    "L": "fd_L",
    "nodes": "fd_nodes",
    "t": "fd_t",
    "scheme": "fd_scheme",
    "mu1": "mu1",
    "mu2": "mu2",
    "x0": "x0",
}

_FAMILY_FLAGS = ("family", "kappa", "alpha", "beta")


def _config_from_args(args) -> ExperimentConfig:
    experiment = _SUBCOMMANDS[args.command]
    base: dict = {"experiment": experiment}
    if args.config:
        with open(args.config) as fh:
            base.update(json.load(fh))
        base["experiment"] = experiment
    fam = dict(base.get("family") or {})
    for flag in _FAMILY_FLAGS:
        v = getattr(args, flag, None)
        if v is not None:
            fam[flag] = v
    if "family" not in fam:
        raise ConfigError("no data family given (use --family or a config file)")
    base["family"] = fam
    for flag, fieldname in _FLAG_TO_FIELD.items():
        v = getattr(args, flag, None)
        if v is not None:
            base[fieldname] = v
    if args.check:
        base["check"] = True
    return ExperimentConfig.from_json(base)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out = run(cfg)
    except (NotConvergedError, InternalConsistencyError, TiePointError,
            TieWindowError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, passed, detail in out["checks"]:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    print(f"wrote {out['csv']} and {out['json']}")
    if cfg.check and any(not passed for _n, passed, _d in out["checks"]):
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
