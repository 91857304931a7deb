"""Swimmer geometry, material constants and the active-arm driving law.

The swimmer is a chain of spheres moving along a line in a viscous fluid:
a large head, a driver sphere attached to it through the active arm whose
length L0(t) is prescribed, and N tail beads connected by identical
springs. Bead radius and spring stiffness scale with N (radius a_tilde/N,
stiffness k_tilde*N) so that the tail keeps a fixed total length,
aggregate drag and aggregate compliance as it is refined.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, fields, replace

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


@functools.cache  # by type: isinstance against an ABC would be most of the cost of a check
def _is_number_type(cls: type, kind=numbers.Real) -> bool:
    """Whether cls is a number type of the kind; bool is an int subclass, but JSON true is not 1."""
    return issubclass(cls, kind) and not issubclass(cls, bool)  # np.bool_ is no numbers.Real


def positive_real(name: str, value) -> float:
    """value as a Python float if it is a real number whose float is positive and finite: the one
    check of every positive input and derived rate. A float32 cannot then lower later precision."""
    try:
        number = float(value) if _is_number_type(type(value)) else math.nan
    except OverflowError:  # an int past the float range
        number = math.inf
    if 0.0 < number < math.inf:
        return number
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


def positive_count(name: str, value) -> int:
    """value as a Python int, if it is an integer (numpy integers too) of at least 1."""
    if _is_number_type(type(value), numbers.Integral) and value >= 1:
        return int(value)
    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
    n_springs: int = DEFAULTS["n_springs"]

    def __post_init__(self) -> None:
        for field in fields(self):
            check = positive_count if field.name == "n_springs" else positive_real
            object.__setattr__(self, field.name, check(field.name, getattr(self, field.name)))
        positive_real("relaxation_rate", self.relaxation_rate)  # K can under- or overflow
        positive_real("h", self.h)  # Lambda/N can underflow
        if self.coupling == math.inf:  # a coupling that underflows to 0 is the no-coupling limit
            raise ValueError(f"coupling a_tilde/(2 a1) must be finite, got {self.coupling!r}")

    @property
    def h(self) -> float:
        """Rest length of one tail spring, Lambda/N."""
        return self.Lambda / self.n_springs

    @property
    def coupling(self) -> float:
        """Head-driver coupling a_tilde/(2 a1): a head-velocity term, and the Robin row of the tail's driven end."""
        return self.a_tilde / (2.0 * self.a1)

    @property
    def relaxation_rate(self) -> float:
        """Elastic relaxation rate k_tilde / (6 pi mu a_tilde), in 1/s; inf where the drag underflows."""
        drag = 6.0 * math.pi * self.mu * self.a_tilde
        return self.k_tilde / drag if drag else math.inf


@dataclass(frozen=True)
class Forcing:
    """Prescribed arm oscillation L0(t) = L_ref * (1 + eps_tilde*cos(omega*t)).

    L_ref is the rest length of the active arm (m), the config key L.
    """

    eps_tilde: float
    omega: float
    L_ref: float

    def __post_init__(self) -> None:
        if not (_is_number_type(type(self.eps_tilde)) and 0.0 <= self.eps_tilde < 1.0):
            raise ValueError(f"eps_tilde must be a real number in [0, 1), got {self.eps_tilde!r}")
        object.__setattr__(self, "eps_tilde", float(self.eps_tilde))
        for name in ("omega", "L_ref"):
            object.__setattr__(self, name, positive_real(name, getattr(self, name)))

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
        return -self.eps * self.omega * np.sin(self.omega * np.asarray(t, dtype=float))


def k_omega_of(params: SwimmerParams, forcing: Forcing) -> float:
    """k_omega = K/omega, the relaxation rate K = k_tilde/(6 pi mu a_tilde) in driving periods.

    It is the single dimensionless group driving the stroke shape once the geometry is fixed.
    A K/omega that under- or overflows the float range raises the ValueError of positive_real.
    """
    return positive_real("k_omega", params.relaxation_rate / forcing.omega)


def params_for_k_omega(params: SwimmerParams, forcing: Forcing, k_omega: float) -> SwimmerParams:
    """Return params with k_tilde retuned so that relaxation_rate/omega == k_omega."""
    k_tilde = positive_real("k_omega", k_omega) * 6.0 * math.pi * params.mu * params.a_tilde * forcing.omega
    if not 0.0 < k_tilde < math.inf:  # the user set k_omega, not k_tilde: name both
        raise ValueError(f"k_omega={float(k_omega)!r} gives k_tilde={k_tilde!r}, outside the float range")
    return replace(params, k_tilde=k_tilde)


def config_from_mapping(raw: dict) -> tuple[SwimmerParams, Forcing]:
    """Build params and forcing from a key/value mapping; missing keys use DEFAULTS."""
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    merged = {**DEFAULTS, **raw}
    if isinstance(merged["n_springs"], float) and merged["n_springs"].is_integer():
        merged["n_springs"] = int(merged["n_springs"])  # JSON has no integer type
    params = SwimmerParams(**{field.name: merged[field.name] for field in fields(SwimmerParams)})
    forcing = Forcing(eps_tilde=merged["eps_tilde"], omega=merged["omega"], L_ref=merged["L"])
    return params, forcing


def load_config(path) -> tuple[SwimmerParams, Forcing]:
    """Read a JSON parameter file (see DEFAULTS for the key set); every error in its content names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("root must be a JSON object")
        return config_from_mapping(raw)
    except ValueError as exc:  # malformed JSON or bytes, a non-object root, an unknown key or a bad value
        raise ValueError(f"config {path}: {exc}") from None
