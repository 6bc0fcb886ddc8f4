"""The benchmark's tracer binds functions of hopfcole by name and calls
them through its counting adapters; a rename, a removal, a signature
change or a change in how a target calls what an adapter wraps must fail
here rather than in the traced benchmark run."""
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np

from hopfcole import burgers

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target(module, path):
    """The traced function, or None if the name does not resolve."""
    owner = importlib.import_module(f"hopfcole.{module}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # methods are replaced on the class that defines them
        owner = getattr(owner, owner_name, None)
        fn = vars(owner).get(attr) if owner is not None else None
    else:
        fn = getattr(owner, attr, None)
    return fn if callable(fn) else None


def test_every_traced_target_resolves():
    missing = [f"{module}.{path}" for module, path, _adapter in _tracing().TARGETS
               if _target(module, path) is None]
    assert not missing, f"traced names missing from hopfcole: {missing}"


def test_every_traced_target_accepts_its_adapter_call():
    # an adapter's call passes its fixed positional parameters on; with
    # *args the target must take at least those, without it exactly those
    broken = []
    for module, path, adapter in _tracing().TARGETS:
        fn = _target(module, path)
        if adapter is None or fn is None:
            continue
        params = inspect.signature(adapter(fn, defaultdict(int))).parameters.values()
        fixed = [object() for p in params if p.kind in (
            inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        variadic = any(p.kind == inspect.Parameter.VAR_POSITIONAL for p in params)
        sig = inspect.signature(fn)
        try:
            (sig.bind_partial if variadic else sig.bind)(*fixed)
        except TypeError as exc:
            broken.append(f"{module}.{path}{sig}: {exc}")
    assert not broken, f"traced targets refuse their adapter's call: {broken}"


def test_the_scan_adapter_counts_lockstep_steps():
    # the tracer wraps the score of burgers.scan_max as a function of one
    # argument and counts its calls: a sweep of two windows through the
    # adapter returns what the unwrapped scan returns, and fn_calls counts
    # one call a lockstep step, the steps of both windows together
    def score(xs):
        steps.append([x.size for x in xs])
        return [np.exp(-(x - c) ** 2) + 0.1 * np.cos(3.0 * x) for x, c in zip(xs, (0.3, -1.7))]

    lo, hi = np.asarray([-4.0, -5.0]), np.asarray([3.0, 2.0])
    steps = []
    want = burgers.scan_max(score, lo, hi, 17)
    counts = defaultdict(int)
    n_steps, steps = len(steps), []
    assert _tracing()._scan_max(burgers.scan_max, counts)(score, lo, hi, 17) == want
    assert len(want) == 2 and counts["burgers.scan_max.fn_calls"] == n_steps == len(steps)
    assert steps[0] == [17, 17] and any(0 not in s for s in steps[1:])
