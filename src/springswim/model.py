"""Swimmer geometry, material constants and the active-arm driving law.

The swimmer is a chain of spheres moving along a line in a viscous fluid:
a large head, a driver sphere attached to it through the active arm whose
length L0(t) is prescribed, and N tail beads connected by identical
springs. Bead radius and spring stiffness scale with N (radius a_tilde/N,
stiffness k_tilde*N) so that the tail keeps a fixed total length,
aggregate drag and aggregate compliance as it is refined.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

#: Reference parameter set: micron-scale swimmer in water at 25 C.
DEFAULTS = {
    "a_tilde": 1e-5,
    "a1": 1e-5,
    "Lambda": 4e-4,
    "L": 3e-5,
    "k_tilde": 1e-8,
    "mu": 8.9e-4,
    "n_springs": 2000,
    "eps_tilde": 0.7,
    "omega": 1.0,
}

_PARAM_KEYS = ("a_tilde", "a1", "Lambda", "k_tilde", "mu", "n_springs")


@dataclass(frozen=True)
class SwimmerParams:
    """Geometry and material constants of the bead-spring swimmer.

    Attributes
    ----------
    a_tilde : aggregate tail bead radius (m); individual beads have a_tilde/N.
    a1 : radius of the head and driver spheres (m).
    Lambda : rest length of the whole tail (m).
    k_tilde : aggregate tail stiffness (N/m); individual springs have k_tilde*N.
    mu : dynamic viscosity of the fluid (Pa s).
    n_springs : number of springs in the tail.
    """

    a_tilde: float
    a1: float
    Lambda: float
    k_tilde: float
    mu: float
    n_springs: int = 2000

    def __post_init__(self) -> None:
        for name in ("a_tilde", "a1", "Lambda", "k_tilde", "mu"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)  # JSON true is not 1
            if not (number and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        n = self.n_springs
        if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"n_springs must be an integer >= 1, got {n!r}")
        object.__setattr__(self, "n_springs", int(n))  # a numpy integer is stored as int

    @property
    def h(self) -> float:
        """Rest length of one tail spring, Lambda/N."""
        return self.Lambda / self.n_springs

    @property
    def relaxation_rate(self) -> float:
        """Elastic relaxation rate k_tilde / (6 pi mu a_tilde), in 1/s."""
        return self.k_tilde / (6.0 * math.pi * self.mu * self.a_tilde)


@dataclass(frozen=True)
class Forcing:
    """Prescribed arm oscillation L0(t) = L_ref * (1 + eps_tilde*cos(omega*t)).

    L_ref is the rest length of the active arm (m), the config key L.
    """

    eps_tilde: float
    omega: float
    L_ref: float

    def __post_init__(self) -> None:
        for name in ("eps_tilde", "omega", "L_ref"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):  # JSON true is not 1
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (0.0 <= self.eps_tilde < 1.0):
            raise ValueError(f"eps_tilde must lie in [0, 1), got {self.eps_tilde!r}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not (math.isfinite(self.L_ref) and self.L_ref > 0):
            raise ValueError(f"L_ref must be positive and finite, got {self.L_ref!r}")

    @property
    def eps(self) -> float:
        """Dimensional oscillation amplitude L_ref * eps_tilde."""
        return self.L_ref * self.eps_tilde

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def arm_length(self, t):
        """L0(t); accepts scalars or arrays."""
        return self.L_ref * (1.0 + self.eps_tilde * np.cos(self.omega * np.asarray(t, dtype=float)))

    def arm_velocity(self, t):
        """dL0/dt at time t."""
        return -self.L_ref * self.eps_tilde * self.omega * np.sin(self.omega * np.asarray(t, dtype=float))


def k_omega_of(params: SwimmerParams, forcing: Forcing) -> float:
    """k_omega = K/omega, the relaxation rate K = k_tilde/(6 pi mu a_tilde) in driving periods.

    It is the single dimensionless group driving the stroke shape once the geometry is fixed.
    """
    return params.relaxation_rate / forcing.omega


def params_for_k_omega(params: SwimmerParams, forcing: Forcing, k_omega: float) -> SwimmerParams:
    """Return params with k_tilde retuned so that relaxation_rate/omega == k_omega."""
    if not (isinstance(k_omega, (int, float)) and math.isfinite(k_omega) and k_omega > 0):
        raise ValueError(f"k_omega must be positive and finite, got {k_omega!r}")
    k_tilde = k_omega * 6.0 * math.pi * params.mu * params.a_tilde * forcing.omega
    return replace(params, k_tilde=k_tilde)


def config_from_mapping(raw: dict) -> tuple[SwimmerParams, Forcing]:
    """Build params and forcing from a key/value mapping; missing keys use DEFAULTS."""
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    merged = {**DEFAULTS, **raw}
    n = merged["n_springs"]
    if isinstance(n, float):
        # JSON has no integer type; accept integral floats
        if n != int(n):
            raise ValueError(f"n_springs must be an integer, got {n!r}")
        merged["n_springs"] = int(n)
    params = SwimmerParams(**{key: merged[key] for key in _PARAM_KEYS})
    forcing = Forcing(eps_tilde=merged["eps_tilde"], omega=merged["omega"], L_ref=merged["L"])
    return params, forcing


def load_config(path) -> tuple[SwimmerParams, Forcing]:
    """Read a JSON parameter file (see DEFAULTS for the key set)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    return config_from_mapping(raw)
