"""Record a baseline: run every workload on several seeds and summarise.

    python3 perfbench/record.py [--workloads NAME ...] [--runs 10]
                                [--out perfbench/baseline.json]

Run from the root of a source checkout.  For each workload it makes --runs
untraced runs on seeds 1, 2, ..., one untraced run on the held-out seed and
one traced run on the default seed, one after another, and writes the
medians, quartiles and spreads (quartile distance over median) of the
end-to-end metrics and the traced per-layer metrics to --out.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def _versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"environment": _versions(), "run_seconds": seconds,
              "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
              "workloads": {}}
    for workload in args.workloads:
        runs = [_run(workload, DEFAULT_SEED + i, seconds, 0) for i in range(args.runs)]
        held_out = _run(workload, HELD_OUT_SEED, seconds, 0)
        traced = _run(workload, DEFAULT_SEED, seconds, 1)
        e2e = {m: _stats([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        report["workloads"][workload] = {
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "held_out": {k: held_out[k] for k in ("correct", "attempted", "failed")},
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_failed": traced["failed"],
        }
        for m, s in e2e.items():
            print(f"{workload:13s} {m:12s} median {s['median']:9.4f}  "
                  f"spread {s['spread']:.3f} (bound {bounds[m]})", flush=True)
        print(f"{workload:13s} failed {report['workloads'][workload]['failed']} of "
              f"{report['workloads'][workload]['attempted']}; held-out seed failed "
              f"{held_out['failed']} of {held_out['attempted']}; traced overhead "
              f"{traced['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
