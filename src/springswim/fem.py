"""P1 finite element semi-discretization of the tail equation.

The semi-discrete system is M dl/dt + A l = f(t) on the n retained nodes
(the far end is pinned to zero and eliminated). A is the diffusion
stiffness plus a Robin term at the driven end; M is the consistent P1
matrix, its trapezoid-lumped diagonal, or diag(h, ..., h), under which
the system is the bead-spring chain exactly. Each is a symmetric
tridiagonal stencil stored as three numbers. The load acts on the driven
node alone. Crank-Nicolson factors its left matrix once (LAPACK LDL^T),
so a step is one three-point correlate and one O(n) solve.
CrankNicolson.samples is the one stepping loop: it yields sampled rows
one at a time, which solve_transient collects.

Both solves call LAPACK through _lapack(), which loads scipy's compiled
wrapper module scipy.linalg._flapack on first use and nothing else of
scipy, with no import hook: a later scipy.linalg import shares it through
sys.modules but leaves its package attribute unset. Importing scipy.linalg
runs its init, which also loads numpy.testing, numpy.f2py, numpy.ma and
numpy.random: that roughly doubles the import time and memory of a solving
CLI call, while the wrapper module alone loads in milliseconds. Paths that
never solve (the closed-form modes) load no scipy at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Forcing, SwimmerParams, positive_count, positive_real, units


class MassVariant(Enum):
    """Mass matrix treatment; values double as the CLI scheme names."""

    NSPRING = "nspring"
    TRAPEZOID = "lumped"
    CONSISTENT = "galerkin"


@dataclass(frozen=True)
class AssembledSystem:
    """Semi-discrete system M du/dt + A u = load(t) on the n retained nodes, for elongations l = unit * u.

    A and M are stored as stencils (row-0 diagonal, interior diagonal,
    off-diagonal); at n = 1 the interior entry is unread. The load is zero
    except at node 0: f_0(t) = Re(load_amplitude exp(i omega t)). assemble divides
    the equation in metres by 2**floor(log2 Lambda), and the load -(Lambda/2) i omega eps
    of -(Lambda/2) dL0/dt by unit = 2**floor(log2 eps) too (model.units): both exact.
    """

    n: int
    stiffness: tuple[float, float, float]
    mass: tuple[float, float, float]
    omega: float
    load_amplitude: complex
    unit: float


def assemble(params: SwimmerParams, forcing: Forcing, variant: MassVariant) -> AssembledSystem:
    """Assemble stiffness, mass and load for the chosen mass treatment.

    Stiffness rows are the second-difference stencil scaled by
    Lambda^2*K/h, with the (1,1) entry reduced to one off-diagonal
    contribution plus the Robin term Lambda*K*coupling (SwimmerParams.coupling).
    """
    if not isinstance(variant, MassVariant):
        raise ValueError(f"unknown mass variant {variant!r}")
    length, unit = units(params, forcing)
    h, lam, k = params.h / length, params.Lambda / length, params.relaxation_rate
    cond = lam * lam * k / h
    mass = {
        MassVariant.CONSISTENT: (h / 3.0, 2.0 * h / 3.0, h / 6.0),
        MassVariant.TRAPEZOID: (0.5 * h, h, 0.0),
        MassVariant.NSPRING: (h, h, 0.0),
    }
    return AssembledSystem(
        n=params.n_springs,
        stiffness=(cond + lam * k * params.coupling, 2.0 * cond, -cond),
        mass=mass[variant],
        omega=forcing.omega,
        load_amplitude=-(lam / 2.0) * 1j * forcing.omega * (forcing.eps / unit),
        unit=unit,
    )


@functools.cache
def _lapack():
    """scipy.linalg._flapack, the compiled LAPACK wrappers, without scipy.linalg's package init.

    It is registered in sys.modules under its own name, with no import hook: an earlier import of
    scipy.linalg is reused here, and a later one binds it from there but leaves its attribute unset.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    roots = [os.path.join(root, "linalg") for root in package.submodule_search_locations] if package else []
    spec = importlib.machinery.PathFinder.find_spec(name, roots)
    if spec is None:
        raise ImportError(f"cannot find the extension module {name} under {roots}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def harmonic_state(system: AssembledSystem) -> np.ndarray:
    """Complex node amplitudes of the periodic orbit of the semi-discrete system.

    Solves (i*omega*M + A) u = F where F is the complex load vector, zero
    but for load_amplitude at node 0, and returns the amplitudes unit * u:
    the physical orbit is Re(unit * u * exp(i omega t)). The solve is LAPACK zgtsv, with
    the checks and the n = 1 division of scipy.linalg.solve_banded. M is
    scaled by omega on its stencil scalars, checked with A and the load before
    numpy runs, as in CrankNicolson. The bands expand the stencils; combining
    the scalars is faster, but waits on the peak-RSS fix of ROADMAP item 1a.
    """
    omega_mass = [system.omega * m for m in system.mass]
    if not np.isfinite([*omega_mass, *system.stiffness, system.load_amplitude]).all():  # omega*M can overflow
        raise ValueError("harmonic system must not contain infs or NaNs")
    (mass_diag, mass_off), (stiff_diag, stiff_off) = _bands(system.n, omega_mass), _bands(system.n, system.stiffness)
    diag = 1j * mass_diag + stiff_diag
    off = 1j * mass_off + stiff_off
    rhs = np.zeros(diag.size, dtype=complex)
    rhs[0] = system.load_amplitude
    if diag.size == 1:
        return system.unit * (rhs / diag)
    *_, u, info = _lapack().zgtsv(off, diag, off, rhs, overwrite_d=True, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular harmonic system (zgtsv info={info})")
    return system.unit * u


def _bands(n: int, stencil: tuple[float, float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The (main, super) diagonals of the n x n matrix of a stencil."""
    diag = np.full(n, stencil[1])
    diag[0] = stencil[0]
    return diag, np.full(n - 1, stencil[2])


class CrankNicolson:
    """Fixed-step trapezoid-rule integrator with a cached tridiagonal factorization.

    Each step solves (M + dt/2 A) u_next = (M - dt/2 A) u + dt*(f(t)+f(t+dt))/2.
    Its node-0 load term is Re(G exp(i omega t)) = |G| cos(omega t + arg G),
    G = dt/2 * F_0 * (1 + exp(i omega dt)) for the load amplitude F_0.
    The left matrix is symmetric positive definite tridiagonal; it is
    factored once as L D L^T (LAPACK dpttrf). M - dt/2 A is read off the
    stencils as a three-point interior stencil plus a row-0 corner, so a
    step is one correlate, a row-0 correction that carries the load, and
    one O(n) dpttrs solve. np.convolve would reverse the stencil first; as it is
    symmetric, both form the same products and sums in the same order.
    """

    def __init__(self, system: AssembledSystem, dt: float):
        self.dt = dt = positive_real("dt", dt)
        self._omega, self._unit = system.omega, system.unit
        half, turn = 0.5 * dt, system.omega * dt
        g = half * system.load_amplitude * (1.0 + complex(math.cos(turn), math.sin(turn)))
        minus = [m - half * a for m, a in zip(system.mass, system.stiffness)]
        plus = [m + half * a for m, a in zip(system.mass, system.stiffness)]
        if not np.isfinite([*minus, *plus, g]).all():  # an inf or NaN in M, A or the load reaches these
            raise ValueError("Crank-Nicolson system must not contain infs or NaNs")
        self._load_abs, self._load_arg = abs(g), math.atan2(g.imag, g.real)
        interior = minus[1] if system.n > 1 else minus[0]  # a lone node has only its row-0 entry
        self._stencil = np.array([minus[2], interior, minus[2]])
        self._corner = minus[0] - interior
        plus_diag, plus_off = _bands(system.n, plus)
        # the LAPACK wrappers reject an empty off-diagonal, so n == 1 passes an unread zero
        lapack = _lapack()
        self._d, self._e, info = lapack.dpttrf(plus_diag, plus_off if plus_off.size else np.zeros(1))
        if info != 0:
            raise np.linalg.LinAlgError(f"M + dt/2 A is not positive definite (dpttrf info={info})")
        self._dpttrs = lapack.dpttrs

    def step(self, state: np.ndarray, t: float) -> np.ndarray:
        # the full correlation's middle n entries are the stencil rows with zero outside
        rhs = np.correlate(state, self._stencil, "full")[1:-1]
        rhs[0] += self._corner * state[0] + self._load_abs * math.cos(self._omega * t + self._load_arg)
        u, info = self._dpttrs(self._d, self._e, rhs, True)  # overwrite_b, passed positionally
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (dpttrs info={info})")
        return u

    def samples(self, state: np.ndarray, nsteps: int, sample_every: int):
        """Yield (t, n+1 node values) from state (n values) at t = 0 and after each sample_every-th step of it/unit."""
        step, dt, unit = self.step, self.dt, self._unit
        yield 0.0, np.append(state, 0.0)
        state = state / unit
        for end in range(sample_every, nsteps + 1, sample_every):
            for k in range(end - sample_every, end):
                state = step(state, k * dt)
            yield end * dt, np.append(unit * state, 0.0)


def step_count(t_end: float, dt: float) -> int:
    """The number of dt steps in t_end, which dt must divide; np.fromiter counts to sys.maxsize."""
    t_end, dt = positive_real("t_end", t_end), positive_real("dt", dt)
    nsteps = round(t_end / dt) if t_end / dt <= sys.maxsize else 0  # t_end / dt may overflow to inf
    if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"dt={dt!r} must divide t_end={t_end!r} into 1 to sys.maxsize={sys.maxsize} steps")
    return nsteps


@dataclass(frozen=True)
class Trajectory:
    """Sampled transient states; row k holds all node values at times[k]."""

    times: np.ndarray
    values: np.ndarray


def solve_transient(
    system: AssembledSystem,
    initial: np.ndarray | None,
    t_end: float,
    dt: float,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate from the n+1 initial node values (zero if None) up to t_end.

    The far-end initial value must be exactly zero. dt must divide t_end and
    sample_every the step count; the initial state is always the first sample.
    """
    n = system.n
    if initial is None:
        state = np.zeros(n)
    else:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (n + 1,):
            raise ValueError(f"expected {n + 1} node values, got shape {initial.shape}")
        if initial[-1] != 0.0:
            raise ValueError("far-end node value must be exactly zero")
        state = initial[:n].copy()
    nsteps, sample_every = step_count(t_end, dt), positive_count("sample_every", sample_every)
    if nsteps % sample_every != 0:
        raise ValueError(f"sample_every={sample_every!r} must divide the {nsteps} steps")

    rows = map(operator.itemgetter(1), CrankNicolson(system, dt).samples(state, nsteps, sample_every))
    values = np.fromiter(rows, (float, n + 1), nsteps // sample_every + 1)  # map holds no row over a step
    return Trajectory(times=np.arange(0, nsteps + 1, sample_every) * dt, values=values)
