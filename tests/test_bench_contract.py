"""The benchmark's tracer binds functions of hopfcole by name; a rename or
removal must fail here rather than in the traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    missing = []
    for module, path, _adapter in _tracing().TARGETS:
        owner = importlib.import_module(f"hopfcole.{module}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            # methods are replaced on the class that defines them
            owner = getattr(owner, owner_name, None)
            found = owner is not None and callable(vars(owner).get(attr))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{path}")
    assert not missing, f"traced names missing from hopfcole: {missing}"
