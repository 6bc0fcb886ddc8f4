"""Compare the CSVs of the benchmark's experiments between two source trees.

    python3 tools/compare_outputs.py OTHER_CHECKOUT

Builds every workload's experiments at seeds 1 and 1009 from this
checkout's perfbench/workloads.py, runs them once per tree, each tree in a
fresh interpreter with its own src/ first on the path, and prints for each
CSV "identical", or the largest relative difference of each column that
differs.  It reports only: the exit status is 0 whatever differs.
"""
import csv
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (1, 1009)


def run_tree(src, out):
    """In this interpreter: every experiment of every workload on the
    hopfcole under src, its outputs under out/<workload>/<seed>/<label>."""
    sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location("workloads", HERE / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads._BUILDERS:
        for seed in SEEDS:
            for exp in workloads.build(name, seed).experiments:
                try:
                    exp.run(Path(out, name, str(seed), exp.label))
                except Exception as exc:  # a failed run is reported by its missing CSV
                    print(f"{name}/{seed}/{exp.label}: {type(exc).__name__}: {exc}")


def _cell_diff(a, b):
    """|a - b| / max(|a|, |b|) of two numeric cells; 0 or inf for text."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else float("inf")
    scale = max(abs(x), abs(y))
    return 0.0 if x == y else abs(x - y) / scale if scale else float("inf")


def compare(mine, other):
    for path in sorted({p.relative_to(d) for d in (mine, other) for p in d.rglob("*.csv")}):
        a, b = mine / path, other / path
        if not (a.is_file() and b.is_file()):
            print(f"{path}: only in {'this tree' if a.is_file() else 'the other tree'}")
        elif a.read_bytes() == b.read_bytes():
            print(f"{path}: identical")
        else:
            ra, rb = (list(csv.reader(p.open(newline=""))) for p in (a, b))
            if len(ra) != len(rb) or ra[0] != rb[0]:
                print(f"{path}: rows or header differ ({len(ra)} against {len(rb)} rows)")
                continue
            worst = [max((_cell_diff(x[i], y[i]) for x, y in zip(ra[1:], rb[1:])), default=0.0)
                     for i in range(len(ra[0]))]
            print(f"{path}: largest relative difference " + ", ".join(
                f"{col} {w:.3g}" for col, w in zip(ra[0], worst) if w))


def main():
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    if sys.argv[1] == "--run":
        return run_tree(sys.argv[2], sys.argv[3])
    other = Path(sys.argv[1]).resolve()
    # one BLAS thread, as in the benchmark, so that both trees sum alike
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        for tree, label in ((HERE, "mine"), (other, "other")):
            subprocess.run([sys.executable, __file__, "--run", str(tree / "src"),
                            str(Path(tmp, label))], check=True, env=env)
        compare(Path(tmp, "mine"), Path(tmp, "other"))


if __name__ == "__main__":
    main()
