"""Shared fixtures: models and the expensive reference solutions.

Everything here is deterministic, so session scope is safe and keeps the
slow pieces (profile shooting, entropy grids) to a single build each.
Every hypothesis property draws the same examples on every run and keeps
no example database, and hypothesis keeps its other caches in a temporary
home removed at exit, so a run neither depends on nor writes
``.hypothesis/``; a test's own settings name only its deadline and
example count.
"""
from __future__ import annotations

import sys
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hetclaw.design import FootprintMap, Profile, footprint, profile_from_solution
from hetclaw.charsol import solution_grid
from hetclaw.entropy import GriddedSolution, from_snapshots
from hetclaw.fvm import Grid1D, evolve, step_datum
from hetclaw.model import HamiltonianModel, homogeneous, quartic_well

settings.register_profile("fixed-draws", derandomize=True, database=None)
settings.load_profile("fixed-draws")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hetclaw-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines after the capture-swallowed run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def quartic() -> HamiltonianModel:
    return quartic_well()


@pytest.fixture(scope="session")
def homog() -> HamiltonianModel:
    return homogeneous()


@pytest.fixture(scope="session")
def target_profile(quartic) -> Profile:
    """Semi-analytic profile at t = 2 on a 2000-cell window, jump tagged."""
    xs = Grid1D(-3.0, 3.0, 2000).centers()
    return profile_from_solution(quartic, 2.0, xs)


@pytest.fixture(scope="session")
def target_footprint(quartic, target_profile) -> FootprintMap:
    return footprint(quartic, 2.0, target_profile)


@pytest.fixture(scope="session")
def fvm_entropy_solution(quartic) -> GriddedSolution:
    """Godunov run on [-3, 3] stacked into a space-time grid."""
    grid = Grid1D(-3.0, 3.0, 600)
    marks = np.linspace(0.0, 2.5, 101)
    result = evolve(quartic, step_datum(grid), 2.5, snapshot_times=marks)
    return from_snapshots(quartic, grid.centers(), result.snapshots)


@pytest.fixture(scope="session")
def charsol_entropy_solution(quartic) -> GriddedSolution:
    """Characteristic solution rasterized fine enough that quadrature
    noise sits well below the 1e-3 scale the sweep tests assert."""
    times = np.linspace(0.2, 3.0, 225)
    xs = -2.0 + (np.arange(1024) + 0.5) * (4.0 / 1024)
    return GriddedSolution(quartic, times, xs,
                           solution_grid(quartic, times, xs, n_orbits=4096))
