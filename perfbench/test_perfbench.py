"""Tests of the benchmark itself: the BENCHMARK.json format and a tiny
smoke run of every workload, untraced and traced.

    python3 -m pytest perfbench -q
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads(run.BENCHMARK.read_text())["workloads"]]
# operations that fail at the seed code: zc on Asymmetric data raises
# TieWindowError (the tie-point search misses the asymmetric jump)
KNOWN_FAILING = {"structure": {"zc_asymmetric"}}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_keys_and_limits(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert len(json.dumps(bench)) <= 64 * 1024


def test_benchmark_json_matches_the_code(bench):
    assert set(WORKLOADS) == set(workloads._BUILDERS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_inputs_follow_the_seed():
    def configs(seed):
        return [e.config.to_json() for e in workloads.build("structure", seed).experiments]

    assert configs(1) == configs(1)
    assert configs(1) != configs(2)
    probes = workloads.build("ddecay_sweep", 3).probes
    assert [(p.x, p.t) for p in probes] == [
        (p.x, p.t) for p in workloads.build("ddecay_sweep", 3).probes]


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    failed = [line.split()[2].rstrip(":") for line in done.stderr.splitlines()
              if line.startswith("FAIL ")]
    assert set(failed) <= KNOWN_FAILING.get(workload, set()), done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == len(failed) and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    out = _run(workload, 0)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    out = _run(workload, 1)
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == set(tracing.metric_units())
    assert metrics["experiments.run.calls"] == len(workloads.build(workload, 1, True).experiments)
    # the spans of every traced rep cover its wall time
    assert 0.9 <= metrics["trace.accounted_frac"] <= 1.0
