"""Benchmark of the hopfcole experiment drivers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Everything runs in one process
and one thread (BLAS is pinned to one thread below).

--trace 0  times the workload's fixed experiment set (one rep) with
           tracing off, repeated while the next rep is expected to end
           within S seconds (at least once), and measures set-up time in
           this process and in four fresh interpreters, one after another.
           Prints the end-to-end metrics.  While the reps run, a Gauge times
           a fixed pure-Python loop five times a second; ref_wall_s is the
           median wall time of a rep scaled by GAUGE_REF_S over the loop's
           median time, i.e. the wall time at the reference speed, so that
           the machine's drift in speed (tens of percent over minutes on
           shared hosts) cancels.
--trace 1  runs each experiment untraced and then traced, prints the
           per-layer metrics and writes the spans to
           .perfbench_out/trace_<workload>_<seed>.npz.

Every operation is checked: an experiment fails if it raises or any of its
built-in checks fails, a probe fails if it raises or is outside its
tolerance.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: failed counts every failed
operation, and correct is false if any operation returned a wrong output
(one that raised returned none).  The lines before it state each metric's
median, quartiles and sample count, and the failure fraction.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".perfbench_out")
SETUP_SAMPLES = 5
BENCHMARK = HERE.parent / "BENCHMARK.json"
END_TO_END = {"ref_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# the speed gauge: GAUGE_LOOPS iterations of its loop take GAUGE_REF_S
# seconds at the reference speed of the machine; it ticks every
# GAUGE_PERIOD_S seconds of wall time
GAUGE_LOOPS = 20_000
GAUGE_REF_S = 0.002
GAUGE_PERIOD_S = 0.2


def _import_program():
    """Put this checkout's src/ first on the path and import the workloads;
    refuse any other copy of hopfcole."""
    if not (SRC / "hopfcole" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hopfcole sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    import hopfcole
    if Path(hopfcole.__file__).resolve().parent != (SRC / "hopfcole").resolve():
        raise SystemExit(f"perfbench: imported hopfcole from {hopfcole.__file__}")
    return workloads


class Gauge:
    """While active, times a fixed pure-Python loop every GAUGE_PERIOD_S
    seconds: a running measure of how fast the machine runs the interpreter.
    The loop runs in this thread from a SIGALRM handler, between bytecodes
    of whatever runs; `spent` sums its seconds, so that callers can take
    them out of their own timings."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def tick(self, *_signal):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(GAUGE_LOOPS):
            acc += (i % 7) * 0.5
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()


def timed_setup(workload: str, seed: int, tiny: bool):
    """Import hopfcole and build the workload's inputs; (seconds, plan)."""
    t0 = time.perf_counter()
    plan = _import_program().build(workload, seed, tiny)
    return time.perf_counter() - t0, plan


def measure_setup(workload: str, seed: int, tiny: bool) -> list:
    """Set-up seconds from SETUP_SAMPLES - 1 fresh interpreters, one at a
    time; the run's own set-up is the remaining sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Executes a plan's operations and counts attempts and failures."""

    def __init__(self, plan, out_dir: Path):
        self.plan = plan
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.labels = []
        self.gauge = None

    def _record(self, label, execute):
        """An operation fails if it raises or its output misses a check;
        only the second kind is a wrong output."""
        self.attempted += 1
        try:
            problems = execute()
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        else:
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            print(f"FAIL {self.plan.name} {label}: {'; '.join(problems)}",
                  file=sys.stderr)

    def execute(self, i, exp, tracer=None) -> float:
        """Run experiment i, traced if a tracer is given, and check its
        output; the wall seconds of the run alone, without checks and
        without the gauge's ticks."""
        self.labels.append(exp.label)
        wall = []

        def run_and_check():
            if tracer is not None:
                tracer.op = len(self.labels) - 1
                tracer.install()
            ticks = self.gauge.spent if self.gauge else 0.0
            t0 = time.perf_counter()
            try:
                out = exp.run(self.out_dir / f"{i:02d}_{exp.label}")
            finally:
                wall.append(time.perf_counter() - t0
                            - ((self.gauge.spent - ticks) if self.gauge else 0.0))
                if tracer is not None:
                    tracer.uninstall()
            return exp.check(out)

        self._record(exp.label, run_and_check)
        return wall[0]

    def rep(self) -> float:
        """One untraced pass over the experiments; its wall seconds."""
        return sum(self.execute(i, exp) for i, exp in enumerate(self.plan.experiments))

    def paired_rep(self, tracer):
        """One pass in which each experiment runs untraced and then traced,
        so that both see the same machine load; (untraced, traced) seconds."""
        plain = traced = 0.0
        for i, exp in enumerate(self.plan.experiments):
            plain += self.execute(i, exp)
            traced += self.execute(i, exp, tracer)
        return plain, traced

    def probes(self):
        for probe in self.plan.probes:
            self._record(probe.label, probe.execute)


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _describe(name, unit, values):
    q1, q3 = _quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def _more(start, seconds, walls):
    """Another rep only while it is expected to end within the run time."""
    return not walls or (time.perf_counter() - start
                         + statistics.median(walls) <= seconds)


def run_untraced(runner, seconds):
    """Reps with the gauge ticking; (rep walls, gauge samples)."""
    walls = []
    start = time.perf_counter()
    with Gauge() as runner.gauge:
        while _more(start, seconds, walls):
            walls.append(runner.rep())
    return walls, runner.gauge.samples


def run_traced(runner, seconds, tracer):
    """Paired reps; per-layer medians over the traced halves."""
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while _more(start, seconds, [a + b for a, b in zip(plain, traced)]):
        a, b = runner.paired_rep(tracer)
        plain.append(a)
        traced.append(b)
        summaries.append(tracer.finish_rep(b))
    metrics = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workload_names = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smaller grids in every experiment (smoke tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    setup, plan = timed_setup(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        print(repr(setup))
        return 0

    setup = [setup] + ([] if args.trace else
                       measure_setup(args.workload, args.seed, args.tiny))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=OUT))
    try:
        runner = Runner(plan, scratch)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            layer, plain, traced = run_traced(runner, args.seconds, tracer)
            tracer.save(OUT / f"trace_{args.workload}_{args.seed}.npz", runner.labels)
        else:
            walls, gauge = run_untraced(runner, args.seconds)
        runner.probes()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plan.experiments)} experiments, {len(plan.probes)} probes per run")
    if args.trace:
        units = tracing.metric_units()
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        print(_describe("untraced wall_s", "s", plain))
        print(_describe("traced wall_s", "s", traced))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed = GAUGE_REF_S / statistics.median(gauge)
        samples = {"ref_wall_s": [w * speed for w in walls], "setup_s": setup,
                   "peak_rss_mb": [rss_mb]}
        metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
                   for k, u in END_TO_END.items()}
        print(_describe("wall_s", "s", walls))
        print(_describe("gauge loop", "s", gauge))
        for k, u in END_TO_END.items():
            print(_describe(k, u, samples[k]))
    print(f"fail_frac: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} failed of {runner.attempted} operations, "
          f"{runner.wrong} of them with a wrong output)")
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
