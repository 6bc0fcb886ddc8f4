"""In-memory call tracing for the benchmark's traced run.

The tracer replaces public functions of ``hopfcole`` with timing wrappers
from outside the package: a function is rebound at every place its name is
bound (the package modules import each other with ``from .x import y``),
and a method is replaced on its class.  Each call records one span (name,
start, end, parent span, operation id) in flat arrays; a span's self time is
its duration minus the durations of its direct children.  Nothing under
``src/`` is edited, and ``uninstall`` restores every binding.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from hopfcole.quadrature import KIND_MIN


def _primitive(fn, counts):
    def call(self, y):
        counts["initial_data.primitive.nodes"] += np.size(y)
        return fn(self, y)
    return call


def _locate(fn, counts):
    def call(phase):
        cps = fn(phase)
        counts["quadrature.locate_critical_points.points"] += len(cps)
        counts["quadrature.locate_critical_points.maxima"] += sum(
            c.kind != KIND_MIN for c in cps)
        return cps
    return call


def _integrate(fn, counts):
    def call(gs, *args, **kwargs):
        out = fn(gs, *args, **kwargs)
        counts["quadrature.integrate_moments.weights"] += len(gs)
        counts["quadrature.integrate_moments.nonconverged"] += sum(
            not r.converged for r in out)
        return out
    return call


def _scan_max(fn, counts):
    def call(score, lo, hi, n_coarse, *args, **kwargs):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return score(x)

        out = fn(counted, lo, hi, n_coarse, *args, **kwargs)
        counts["burgers.scan_max.fn_calls"] += calls
        counts["burgers.scan_max.refine_calls"] += calls - n_coarse
        return out
    return call


def _eval_batch(fn, counts):
    def call(data, xs, *args, **kwargs):
        counts["burgers.eval_batch.points"] += np.size(xs)
        return fn(data, xs, *args, **kwargs)
    return call


def _fd_integrate(fn, counts):
    def call(*args, **kwargs):
        fld = fn(*args, **kwargs)
        counts["finite_difference.integrate.cell_updates"] += (
            fld.n * fld.diagnostics.get("n_steps", 0))
        return fld
    return call


def _run(fn, counts):
    def call(cfg):
        out = fn(cfg)
        counts["experiments.run.bytes_written"] += sum(
            p.stat().st_size for p in Path(cfg.out_dir).iterdir() if p.is_file())
        return out
    return call


# (module, attribute path, counting adapter or None); the span name is
# "<module>.<function>", with the class name kept for a method defined on a
# class that is not InitialData
TARGETS = (
    ("initial_data", "InitialData.primitive", _primitive),
    ("initial_data", "InitialData.value", None),
    ("initial_data", "InitialData.derivative", None),
    ("quadrature", "locate_critical_points", _locate),
    ("quadrature", "integrate_moments", _integrate),
    ("quadrature", "MomentWeight.evaluate", None),
    ("quadrature", "adaptive_quadrature", None),
    ("burgers", "scan_max", _scan_max),
    ("burgers", "eval", None),
    ("burgers", "derivative_fields", None),
    ("burgers", "eval_batch", _eval_batch),
    ("heat", "heat_eval", None),
    ("heat", "heat_eval_batch", None),
    ("heat", "heat_derivative", None),
    ("heat", "heat_limit_profile", None),
    ("profiles", "invert_branch", None),
    ("profiles", "profile_jump_location", None),
    ("profiles", "profile_value", None),
    ("rescaled", "case_for_data", None),
    ("rescaled", "finite_branches", None),
    ("rescaled", "phase_tie_point", None),
    ("rescaled", "check_properties", None),
    ("rescaled", "concentration_ratio", None),
    ("finite_difference", "integrate", _fd_integrate),
    ("experiments", "run", _run),
)

COUNTERS = (
    "initial_data.primitive.nodes",
    "quadrature.locate_critical_points.points",
    "quadrature.locate_critical_points.maxima",
    "quadrature.integrate_moments.weights",
    "quadrature.integrate_moments.nonconverged",
    "burgers.scan_max.fn_calls",
    "burgers.scan_max.refine_calls",
    "burgers.eval_batch.points",
    "finite_difference.integrate.cell_updates",
    "experiments.run.bytes_written",
)


def span_name(module: str, path: str) -> str:
    owner, _, attr = path.rpartition(".")
    return f"{module}.{attr}" if owner == "InitialData" else f"{module}.{path}"


SPAN_NAMES = tuple(span_name(m, p) for m, p, _a in TARGETS)
MODULES = tuple(dict.fromkeys(m for m, _p, _a in TARGETS))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += list(COUNTERS)
    names.append("burgers.eval_batch.fallback_frac")
    names += [f"{m}.self_s" for m in MODULES]
    names += ["trace.wall_s", "trace.accounted_frac", "trace.overhead_frac"]
    return {n: _unit(n) for n in names}


class Tracer:
    """Span recorder; install() wraps the targets, uninstall() restores."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts = defaultdict(int)
        self._saved = []
        self._reps = []

    def _span(self, nid, fn):
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def install(self):
        for nid, (module, path, adapter) in enumerate(TARGETS):
            mod = sys.modules[f"hopfcole.{module}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                wrapped = original if adapter is None else adapter(original, self.counts)
                self._rebind(owner, attr, original, self._span(nid, wrapped))
                continue
            original = getattr(mod, attr)
            wrapped = original if adapter is None else adapter(original, self.counts)
            traced = self._span(nid, wrapped)
            for name, other in list(sys.modules.items()):
                if name == "hopfcole" or name.startswith("hopfcole."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._rebind(other, key, original, traced)

    def _rebind(self, owner, key, original, traced):
        setattr(owner, key, traced)
        self._saved.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.op_id, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def finish_rep(self, wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last call; the
        spans are kept for save() and the recorder is emptied."""
        if len(self.stack) != 1:
            raise RuntimeError("a traced call is still open")
        nid, parent, op, start, end = self._arrays()
        for arr in (self.name_id, self.parent, self.op_id, self.start, self.end):
            del arr[:]
        self._reps.append((nid, parent, op, start, end))

        dur = end - start
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_time, minlength=k)

        out = {}
        module_self = defaultdict(float)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            module_self[name.split(".", 1)[0]] += float(self_s[i])
        for name in COUNTERS:
            out[name] = int(self.counts.get(name, 0))
        self.counts.clear()

        # eval calls made directly by eval_batch are its scalar fallbacks
        batch = self.names.index("burgers.eval_batch")
        scalar = self.names.index("burgers.eval")
        fallbacks = int(np.sum((nid == scalar) & nested
                               & (nid[np.where(nested, parent, 0)] == batch)))
        points = out["burgers.eval_batch.points"]
        out["burgers.eval_batch.fallback_frac"] = fallbacks / points if points else 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
        out["trace.wall_s"] = wall
        # the self times of all spans add up to the time covered by root spans
        out["trace.accounted_frac"] = float(np.sum(self_time)) / wall
        return out

    def save(self, path: Path, op_labels: list):
        """Write every recorded span, all traced reps concatenated; parent
        indices point into the concatenated arrays."""
        cols = {k: [] for k in ("name_id", "parent", "op_id", "start", "end", "rep")}
        offset = 0
        for rep, (nid, parent, op, start, end) in enumerate(self._reps):
            cols["name_id"].append(nid)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["op_id"].append(op)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["rep"].append(np.full(len(nid), rep, dtype=np.int32))
            offset += len(nid)
        arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        np.savez(path, names=np.asarray(self.names), ops=np.asarray(op_labels),
                 **arrays)
