import os

import numpy as np
import pytest
from hypothesis import settings

from hopfcole.initial_data import FamilySpec, make_family

# CI keeps no example database: a draw that fails there prints the blob
# that replays it (@reproduce_failure)
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line-per-criterion acceptance summary after the run."""
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def power_c0():
    return make_family(FamilySpec("PowerC0", kappa=1.0, alpha=0.5))


@pytest.fixture(scope="session")
def power_c1_third():
    return make_family(FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0))


@pytest.fixture(scope="session")
def power_c1_half():
    return make_family(FamilySpec("PowerC1", kappa=1.0, alpha=0.5))


@pytest.fixture(scope="session")
def constant_07():
    return make_family(FamilySpec("Constant", extra={"level": 0.7}))


@pytest.fixture(scope="session")
def zero_data():
    return make_family(FamilySpec("Zero"))


@pytest.fixture(scope="session")
def gaussian_data():
    return make_family(FamilySpec("Gaussian", extra={"amplitude": 1.0, "sigma": 1.0}))


def brute_force_ratio(data, x, t, half_width=1e5, nodes=10_000_001,
                      chunk=1_000_000):
    """Independent trapezoid oracle for int f0 e^H / int e^H on a uniform
    grid, computed in max-subtracted form with bounded memory."""
    grid_max = -np.inf
    lo, hi = x - half_width, x + half_width
    dx = (hi - lo) / (nodes - 1)

    def phase(y):
        return -((x - y) ** 2) / (4.0 * t) - 0.5 * data.primitive(y)

    # first pass: global max of the phase on the grid
    for start in range(0, nodes, chunk):
        idx = np.arange(start, min(start + chunk, nodes))
        y = lo + dx * idx
        grid_max = max(grid_max, float(np.max(phase(y))))
    num = 0.0
    den = 0.0
    for start in range(0, nodes, chunk):
        idx = np.arange(start, min(start + chunk, nodes))
        y = lo + dx * idx
        w = np.ones_like(y)
        if start == 0:
            w[0] = 0.5
        if idx[-1] == nodes - 1:
            w[-1] = 0.5
        e = np.exp(phase(y) - grid_max) * w
        num += float(np.sum(e * data.value(y)))
        den += float(np.sum(e))
    return num / den
