"""P1 finite element semi-discretization of the tail equation.

The semi-discrete system is M dl/dt + A l = f(t) on the n retained nodes
(the far end is pinned to zero and eliminated). A is the diffusion
stiffness plus a Robin term at the driven end; M is one of three mass
treatments: the consistent P1 matrix, its trapezoid-lumped diagonal, or
the uniform diagonal diag(h, ..., h) under which the finite element
system coincides with the bead-spring chain exactly. The load acts on
the driven node alone. Crank-Nicolson factors its tridiagonal left
matrix once (LAPACK LDL^T), so a step is one three-point convolve and
one O(n) solve.

scipy is imported inside harmonic_state and CrankNicolson, the only two
solves, so paths that never solve (the closed-form modes) load no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Forcing, SwimmerParams


class MassVariant(Enum):
    """Mass matrix treatment; values double as the CLI scheme names."""

    CONSISTENT = "galerkin"
    TRAPEZOID = "lumped"
    NSPRING = "nspring"


@dataclass(frozen=True)
class UniformGrid:
    """n elements of size spacing covering [0, length]."""

    n: int
    spacing: float
    length: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"grid needs at least one element, got n={self.n!r}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing!r}")
        if abs(self.n * self.spacing - self.length) > 1e-9 * self.length:
            raise ValueError("n * spacing must equal length")

    @property
    def nodes(self) -> np.ndarray:
        """Node positions (j-1)*spacing for j = 1..n+1."""
        return np.arange(self.n + 1) * self.spacing


@dataclass(frozen=True)
class ElongationField:
    """Nodal elongations on a grid; the far-end value is pinned to zero."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n + 1,):
            raise ValueError(f"expected {self.grid.n + 1} node values, got shape {values.shape}")
        if values[-1] != 0.0:
            raise ValueError("far-end node value must be exactly zero")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix stored as main and super diagonal."""

    diag: np.ndarray
    off: np.ndarray

    def add_scaled(self, other: "SymTridiag", factor: float) -> "SymTridiag":
        return SymTridiag(self.diag + factor * other.diag, self.off + factor * other.off)


@dataclass(frozen=True)
class AssembledSystem:
    """Semi-discrete system M dl/dt + A l = load(t) on the retained nodes.

    The load is zero except at the driven node 0, where it is
    f_0(t) = Re(load_amplitude * exp(i omega t)); load_amplitude is
    -(Lambda/2) * i omega eps, the complex amplitude of -(Lambda/2) dL0/dt.
    """

    grid: UniformGrid
    stiffness: SymTridiag
    mass: SymTridiag
    forcing: Forcing
    load_amplitude: complex


def assemble(params: SwimmerParams, forcing: Forcing, variant: MassVariant) -> AssembledSystem:
    """Assemble stiffness, mass and load for the chosen mass treatment.

    Stiffness rows are the second-difference stencil scaled by
    Lambda^2*K/h, with the (1,1) entry reduced to one off-diagonal
    contribution plus the Robin coupling Lambda*K*a_tilde/(2*a1).
    """
    n = params.n_springs
    h = params.h
    lam = params.Lambda
    k = params.relaxation_rate

    cond = lam * lam * k / h
    diag = np.full(n, 2.0 * cond)
    diag[0] = cond + lam * k * params.a_tilde / (2.0 * params.a1)
    off = np.full(max(n - 1, 0), -cond)
    stiffness = SymTridiag(diag, off)

    if variant is MassVariant.NSPRING:
        mass = SymTridiag(np.full(n, h), np.zeros(max(n - 1, 0)))
    elif variant is MassVariant.TRAPEZOID:
        md = np.full(n, h)
        md[0] = 0.5 * h
        mass = SymTridiag(md, np.zeros(max(n - 1, 0)))
    elif variant is MassVariant.CONSISTENT:
        md = np.full(n, 2.0 * h / 3.0)
        md[0] = h / 3.0
        mass = SymTridiag(md, np.full(max(n - 1, 0), h / 6.0))
    else:
        raise ValueError(f"unknown mass variant {variant!r}")

    return AssembledSystem(
        grid=UniformGrid(n=n, spacing=h, length=lam),
        stiffness=stiffness,
        mass=mass,
        forcing=forcing,
        load_amplitude=-(lam / 2.0) * 1j * forcing.omega * forcing.eps,
    )


def harmonic_state(system: AssembledSystem) -> np.ndarray:
    """Complex node amplitudes of the periodic orbit of the semi-discrete system.

    Solves (i*omega*M + A) u = F where F is the complex load vector, zero
    but for load_amplitude at node 0; the physical orbit is
    Re(u * exp(i omega t)).
    """
    from scipy.linalg import solve_banded

    n = system.grid.n
    omega = system.forcing.omega
    diag = 1j * omega * system.mass.diag + system.stiffness.diag
    off = 1j * omega * system.mass.off + system.stiffness.off
    ab = np.zeros((3, n), dtype=complex)
    ab[1, :] = diag
    if n > 1:
        ab[0, 1:] = off
        ab[2, :-1] = off
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = system.load_amplitude
    return solve_banded((1, 1), ab, rhs)


class CrankNicolson:
    """Fixed-step trapezoid-rule integrator with a cached tridiagonal factorization.

    Each step solves (M + dt/2 A) u_next = (M - dt/2 A) u + dt*(f(t)+f(t+dt))/2.
    Its node-0 load term is Re(G exp(i omega t)) = |G| cos(omega t + arg G),
    G = dt/2 * F_0 * (1 + exp(i omega dt)) for the load amplitude F_0.
    The left matrix is symmetric positive definite tridiagonal; it is
    factored once as L D L^T (LAPACK dpttrf). Every assembled M - dt/2 A
    has one interior diagonal value and one off-diagonal value, with only
    row 0 different, so a step is one convolve with the three-point
    stencil, a row-0 correction that carries the load, and one O(n)
    dpttrs solve.
    """

    def __init__(self, system: AssembledSystem, dt: float):
        from scipy.linalg.lapack import dpttrf, dpttrs

        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        self.dt = dt
        self._omega = omega = system.forcing.omega
        g = 0.5 * dt * system.load_amplitude * (1.0 + complex(math.cos(omega * dt), math.sin(omega * dt)))
        self._load_abs, self._load_arg = abs(g), math.atan2(g.imag, g.real)
        plus = system.mass.add_scaled(system.stiffness, 0.5 * dt)
        minus = system.mass.add_scaled(system.stiffness, -0.5 * dt)
        interior = minus.diag[-1]
        coupling = minus.off[0] if minus.off.size else 0.0
        if np.any(minus.diag[1:] != interior) or np.any(minus.off != coupling):
            raise ValueError("M - dt/2 A must have a uniform interior stencil")
        self._stencil = np.array([coupling, interior, coupling])
        self._corner = minus.diag[0] - interior
        # the LAPACK wrappers reject an empty off-diagonal, so n == 1 passes an unread zero
        off = plus.off if plus.off.size else np.zeros(1)
        self._d, self._e, info = dpttrf(plus.diag, off)
        if info != 0:
            raise np.linalg.LinAlgError(f"M + dt/2 A is not positive definite (dpttrf info={info})")
        self._dpttrs = dpttrs

    def step(self, state: np.ndarray, t: float) -> np.ndarray:
        # the full convolution's middle n entries are the stencil rows with zero outside
        rhs = np.convolve(state, self._stencil)[1:-1]
        rhs[0] += self._corner * state[0] + self._load_abs * math.cos(self._omega * t + self._load_arg)
        u, info = self._dpttrs(self._d, self._e, rhs, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (dpttrs info={info})")
        return u


@dataclass(frozen=True)
class Trajectory:
    """Sampled transient states; row k holds all node values at times[k]."""

    grid: UniformGrid
    times: np.ndarray
    values: np.ndarray


def solve_transient(
    system: AssembledSystem,
    initial: ElongationField | None,
    t_end: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate from the initial field (zero if None) up to t_end.

    dt must divide t_end and sample_every must divide the step count; the
    initial state is always the first sample.
    """
    n = system.grid.n
    if initial is None:
        state = np.zeros(n)
    else:
        if initial.grid != system.grid:
            raise ValueError("initial field lives on a different grid")
        state = initial.values[:n].copy()
    nsteps = round(t_end / dt)
    if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"dt={dt!r} must divide t_end={t_end!r}")
    if not (isinstance(sample_every, int) and sample_every >= 1 and nsteps % sample_every == 0):
        raise ValueError(f"sample_every={sample_every!r} must divide the {nsteps} steps")

    stepper = CrankNicolson(system, dt)
    times = [0.0]
    rows = [np.concatenate([state, [0.0]])]
    for k in range(nsteps):
        state = stepper.step(state, k * dt)
        if (k + 1) % sample_every == 0:
            times.append((k + 1) * dt)
            rows.append(np.concatenate([state, [0.0]]))
    return Trajectory(grid=system.grid, times=np.array(times), values=np.array(rows))
