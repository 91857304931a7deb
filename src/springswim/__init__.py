"""Bead-spring swimmer with an elastic tail.

Simulation of an N-spring low-Reynolds-number swimmer and its
continuous-tail limit: closed-form periodic solutions, finite element
semi-discretizations with three mass treatments, convergence
measurement, and net stroke displacement with sweeps and optimization.
"""

__version__ = "0.1.0"

from .analytic import build_continuous_mode, build_discrete_mode
from .displacement import (
    optimize_k_omega,
    stroke_displacement_continuous,
    stroke_displacement_discrete,
    sweep,
)
from .fem import MassVariant, assemble, harmonic_state, solve_transient
from .metrics import convergence_study, fit_rate, h1_seminorm, l2_norm
from .model import DEFAULTS, Forcing, SwimmerParams, k_omega_of, load_config

__all__ = [
    "DEFAULTS",
    "Forcing",
    "MassVariant",
    "SwimmerParams",
    "assemble",
    "build_continuous_mode",
    "build_discrete_mode",
    "convergence_study",
    "fit_rate",
    "h1_seminorm",
    "harmonic_state",
    "k_omega_of",
    "l2_norm",
    "load_config",
    "optimize_k_omega",
    "solve_transient",
    "stroke_displacement_continuous",
    "stroke_displacement_discrete",
    "sweep",
]
