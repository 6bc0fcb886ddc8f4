"""The benchmark's tracer binds functions of hopfcole by name and calls
them through its counting adapters; a rename, a removal or a signature
change must fail here rather than in the traced benchmark run."""
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

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
