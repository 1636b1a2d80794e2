"""Toolkit for a conservation law with a space-dependent flux.

The package follows one problem through several lenses: Hamiltonian
characteristics (``flow``), orbit periods and the standing-shock clock
(``period``), a shooting map from datum to solution values (``shooting``
and ``charsol``), a Godunov finite volume scheme (``fvm``), quantified
entropy inequalities (``entropy``), and backward-characteristic inverse
design (``design``).  ``cli`` ties them into reproducible experiments.
"""

from .charsol import (asymptotic_profile, eval_solution, solution_grid,
                      solution_profile)
from .design import (Jump, Profile, design_report, footprint,
                     profile_from_solution, ray_fan, reconstruct_vertex,
                     round_trip)
from .entropy import (GriddedSolution, TestFunction, entropy_residual,
                      entropy_sweep, from_snapshots, residual_floor)
from .errors import (BracketFailure, DomainError, EnergyDrift, HetclawError,
                     NonFinite, NotFound)
from .flow import (Trajectory, crossing_events, integrate, integrate_batch,
                   terminal_batch, terminal_state)
from .fvm import (CellField, Grid1D, detect_shock_formation, evolve,
                  l1_distance, step_datum)
from .model import MODELS, HamiltonianModel, homogeneous, quartic_well
from .period import (invert_half_period, period_by_ode, period_quadrature,
                     shock_time, turning_point)
from .shooting import delta, delta_batch

__all__ = [
    "BracketFailure",
    "CellField",
    "DomainError",
    "EnergyDrift",
    "GriddedSolution",
    "Grid1D",
    "HamiltonianModel",
    "HetclawError",
    "Jump",
    "MODELS",
    "NonFinite",
    "NotFound",
    "Profile",
    "TestFunction",
    "Trajectory",
    "asymptotic_profile",
    "crossing_events",
    "delta",
    "delta_batch",
    "design_report",
    "detect_shock_formation",
    "entropy_residual",
    "entropy_sweep",
    "eval_solution",
    "evolve",
    "footprint",
    "from_snapshots",
    "homogeneous",
    "integrate",
    "integrate_batch",
    "invert_half_period",
    "l1_distance",
    "period_by_ode",
    "period_quadrature",
    "profile_from_solution",
    "quartic_well",
    "ray_fan",
    "reconstruct_vertex",
    "residual_floor",
    "round_trip",
    "shock_time",
    "solution_grid",
    "solution_profile",
    "step_datum",
    "terminal_batch",
    "terminal_state",
    "turning_point",
]
