"""The package loads no scipy.optimize: its root solves are the lockstep
brentq port of quadrature.  pytest has scipy.optimize loaded already (the
tests use brentq as an oracle), so a fresh interpreter checks it."""
import os
import pathlib
import subprocess
import sys

import hopfcole

SRC = pathlib.Path(hopfcole.__file__).parent

CHILD = """
import sys
import hopfcole, hopfcole.experiments
from hopfcole import profiles, quadrature
from hopfcole.initial_data import FamilySpec, make_family

bounds, _ = quadrature.monotone_pieces(make_family(FamilySpec("PowerC0")), 1e3, 1e4)
assert bounds[0] == 0.0, bounds
try:
    profiles.profile_jump_location(profiles.ProfileCase(profiles.CASE_SYMMETRIC, 1.0, 1 / 3),
                                   profiles.VARIANT_PRINTED)
except profiles.TiePointError:
    pass
loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
assert not loaded, loaded
"""


def test_no_scipy_optimize_in_the_process():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_no_scipy_optimize_in_the_source():
    assert not [p.name for p in SRC.glob("*.py") if "scipy.optimize" in p.read_text()]
