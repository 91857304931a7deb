"""Net stroke displacement of the head sphere, sweeps and optimization.

Over one forcing period most terms of the head velocity average to zero;
the net drift comes from the hydrodynamic coupling between the tail
elongations and the instantaneous arm lengths. In the bead chain each
surviving term is one harmonic over a constant plus one harmonic, whose
period mean has a closed form, so the discrete drift is exact and O(n)
with no time grid. The continuous-tail limit uses the same closed-form
mean at each point of the tail, and a fixed Gauss rule graded toward the
driven end integrates it over y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .analytic import (
    ContinuousModeShape,
    DiscreteModeShape,
    build_continuous_mode,
    build_discrete_mode,
)
from .fem import MassVariant, assemble, harmonic_state
from .model import Forcing, SwimmerParams, derive_groups, params_for_k_omega

SWEEP_AXES = ("eps_tilde", "k_omega")


@dataclass(frozen=True, slots=True)
class StrokeResult:
    """Net head displacement over one period and the parameters that produced it.

    Slotted because a sweep keeps one per point: an instance then takes
    half the memory of one with an attribute dict.
    """

    displacement: float
    eps_tilde: float
    k_omega: float
    omega: float
    n: int
    quadrature_points: int  # time samples per node; always 1, the period mean is exact

    def __post_init__(self) -> None:
        if not math.isfinite(self.displacement):
            raise ValueError(f"displacement must be finite, got {self.displacement!r}")


@dataclass(frozen=True)
class SweepTable:
    """Displacements along one parameter axis; failed points carry a message."""

    axis: str
    values: tuple[float, ...]
    results: tuple[StrokeResult | None, ...]
    failures: tuple[str | None, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not (len(self.values) == len(self.results) == len(self.failures)):
            raise ValueError("values, results and failures must align")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")

    def displacements(self) -> np.ndarray:
        """Displacement per point, NaN where the point failed."""
        return np.array(
            [math.nan if result is None else result.displacement for result in self.results]
        )

    def argbest(self) -> int:
        """Index of the largest displacement magnitude among successful points."""
        magnitudes = np.abs(self.displacements())
        if np.all(np.isnan(magnitudes)):
            raise ValueError("sweep produced no successful points")
        return int(np.nanargmax(magnitudes))


@dataclass(frozen=True)
class OptimizeResult:
    """Converged optimum of |displacement| over k_omega."""

    k_omega_opt: float
    k_tilde_equiv: float
    displacement: float
    iterations: int


def instantaneous_v1(params: SwimmerParams, forcing: Forcing, state: np.ndarray, t) -> float | np.ndarray:
    """Velocity of the head sphere given the tail elongations at time t.

    state holds the n+1 node elongations (last entry the pinned zero); a
    2-D state holds one such row per entry of the array t and gives one
    velocity per row. The terms are the prescribed arm-rate share, the
    direct spring pull, the head-driver interaction, and the tail
    interaction sum over cumulative arm lengths.
    """
    n = params.n_springs
    ell = np.asarray(state, dtype=float)
    t = np.asarray(t, dtype=float)
    if ell.ndim > 2 or ell.shape[-1:] != (n + 1,):
        raise ValueError(f"state must have {n + 1} entries, got shape {ell.shape}")
    if t.shape != ell.shape[:-1]:
        raise ValueError(f"need one time per state row, got {t.shape} for state {ell.shape}")
    k = params.relaxation_rate
    arm = forcing.arm_length(t)
    arm_rate = forcing.arm_velocity(t)
    cums = arm[..., None] + np.cumsum(ell[..., :n] / n + params.h, axis=-1)
    if np.any(arm <= 0.0) or np.any(cums <= 0.0):
        raise ValueError("unphysical state: non-positive cumulative arm length")
    tail = 1.5 * params.a_tilde * k * np.sum((ell[..., :n] - ell[..., 1:]) / cums, axis=-1)
    v1 = (
        0.5 * arm_rate
        - (params.a_tilde / (2.0 * params.a1)) * k * ell[..., 0]
        - 0.75 * params.a1 * arm_rate / arm
        - 0.75 * k * params.a_tilde * ell[..., 0] / arm
        + tail
    )
    return float(v1) if v1.ndim == 0 else v1


def _check_discrete(params: SwimmerParams, forcing: Forcing, mode: DiscreteModeShape) -> None:
    if mode.n != params.n_springs:
        raise ValueError(f"mode was built for n={mode.n}, params have n={params.n_springs}")
    if not math.isclose(mode.omega, forcing.omega, rel_tol=1e-12):
        raise ValueError("mode and forcing disagree on omega")


def _period_mean(e, b, d):
    """Period mean of Re(e exp(iwt)) / (d + Re(b exp(iwt))), elementwise, for d > |b|.

    It is -Re(e conj(b)) / (s (s + d)), s = sqrt(d^2 - |b|^2): exactly 0 at b = 0.
    """
    swing = np.abs(b)
    s = np.sqrt((d - swing) * (d + swing))
    return -np.real(e * np.conj(b)) / (s * (s + d))


def stroke_displacement_discrete(
    params: SwimmerParams,
    forcing: Forcing,
    mode: DiscreteModeShape,
    m_quad: int | None = None,
) -> StrokeResult:
    """Net displacement over one period of the bead chain, exact in time.

    Only the head term A_0 / L0(t) and the tail terms (A_j - A_{j+1}) / cum_j(t)
    have a nonzero period mean, where A are the node amplitudes of the banded
    NSPRING (bead chain) periodic solve and cum_j = L + (j+1) h +
    Re((L eps_tilde + sum_{i<=j} A_i / n) exp(i omega t)). Each is averaged in
    closed form, in O(n) time and memory, and |B| < D checks every cum_j > 0
    over the whole period. mode supplies the n and omega checks; m_quad is
    ignored and stays only until the benchmark stops passing it.
    """
    _check_discrete(params, forcing, mode)
    n = params.n_springs
    k = params.relaxation_rate
    amps = np.append(harmonic_state(assemble(params, forcing, MassVariant.NSPRING)), 0.0)
    arm = forcing.L_ref
    swing = arm * forcing.eps_tilde
    b = swing + np.cumsum(amps[:n]) / n
    d = arm + params.h * np.arange(1, n + 1)
    if not np.all(np.abs(b) < d):
        raise ValueError("unphysical state: non-positive cumulative arm length")
    head = -0.75 * k * params.a_tilde * _period_mean(amps[0], swing, arm)
    tail = 1.5 * params.a_tilde * k * np.sum(_period_mean(amps[:n] - amps[1:], b, d))
    return StrokeResult(
        displacement=forcing.period * float(head + tail),
        eps_tilde=forcing.eps_tilde,
        k_omega=derive_groups(params, forcing).k_omega,
        omega=forcing.omega,
        n=n,
        quadrature_points=1,
    )


@functools.cache
def _unit_y_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the continuous drift's y integral.

    16-point Gauss-Legendre on the 41 dyadic panels [0, 2^-40], ..., [1/2, 1]: they resolve
    the boundary layer, width Lambda*sqrt(2 k_omega), and the near-zero arm at y = 0 when
    eps_tilde is near 1. Built on first call: importing the package loads no numpy.polynomial."""
    edges = np.append(0.0, 2.0 ** np.arange(-40, 1))
    half = 0.5 * np.diff(edges)[:, None]
    x, w = np.polynomial.legendre.leggauss(16)
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


def stroke_displacement_continuous(
    params: SwimmerParams,
    forcing: Forcing,
    mode: ContinuousModeShape,
) -> StrokeResult:
    """Net displacement over one period in the continuous-tail limit, exact in time.

    The law of stroke_displacement_discrete with the chain sums replaced by
    integrals over the tail: at each y the tail term is the period mean of
    P'(y) / (D + Re(B exp(i omega t))) with D = L + y and
    B = L eps_tilde + (1/Lambda) int_0^y P, for the complex profile P. The
    y integral uses the fixed dyadically graded Gauss rule of _unit_y_rule,
    and |B| < D checks the denominator at every node.
    """
    if not math.isclose(mode.length, params.Lambda, rel_tol=1e-12):
        raise ValueError("mode and params disagree on the tail length")
    if not math.isclose(mode.omega, forcing.omega, rel_tol=1e-12):
        raise ValueError("mode and forcing disagree on omega")
    lam = params.Lambda
    k = params.relaxation_rate
    arm = forcing.L_ref
    swing = arm * forcing.eps_tilde
    unit_y, unit_w = _unit_y_rule()
    y = lam * unit_y
    b = swing + mode.profile_integral(y) / lam
    d = arm + y
    if not np.all(np.abs(b) < d):
        raise ValueError("unphysical state: chi denominator non-positive")
    head = -0.75 * k * params.a_tilde * _period_mean(mode.profile(0.0), swing, arm)
    tail = -1.5 * k * params.a_tilde * lam * (unit_w @ _period_mean(mode.profile_gradient(y), b, d))
    return StrokeResult(
        displacement=forcing.period * float(head + tail),
        eps_tilde=forcing.eps_tilde,
        k_omega=mode.k_omega,
        omega=forcing.omega,
        n=params.n_springs,
        quadrature_points=1,
    )


def sweep(
    params: SwimmerParams,
    forcing: Forcing,
    axis: str,
    values,
    m_quad: int | None = None,
) -> SweepTable:
    """Stroke displacement along one parameter axis.

    axis "eps_tilde" varies the drive amplitude; axis "k_omega" retunes
    the spring constant at fixed omega. Points that fail numerically are
    recorded and the sweep continues. m_quad is ignored, as in
    stroke_displacement_discrete.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = tuple(float(v) for v in values)
    for v in values:
        if axis == "eps_tilde" and not 0.0 <= v < 1.0:
            raise ValueError(f"eps_tilde value {v!r} outside [0, 1)")
        if axis == "k_omega" and not v > 0.0:
            raise ValueError(f"k_omega value {v!r} must be positive")

    results: list[StrokeResult | None] = []
    failures: list[str | None] = []
    for v in values:
        if axis == "eps_tilde":
            point_params, point_forcing = params, dc_replace(forcing, eps_tilde=v)
        else:
            point_params, point_forcing = params_for_k_omega(params, forcing, v), forcing
        try:
            mode = build_discrete_mode(point_params, point_forcing)
            results.append(stroke_displacement_discrete(point_params, point_forcing, mode))
            failures.append(None)
        except (ValueError, FloatingPointError) as exc:
            results.append(None)
            failures.append(str(exc))
    return SweepTable(axis=axis, values=values, results=tuple(results), failures=tuple(failures))


def optimize_k_omega(
    params: SwimmerParams,
    forcing: Forcing,
    bracket: tuple[float, float] = (1e-2, 1e2),
    rel_tol: float = 1e-4,
    m_quad: int | None = None,
) -> OptimizeResult:
    """Golden-section maximization of |displacement| over log k_omega.

    The bracket must contain an interior maximum of the magnitude;
    convergence at a bracket edge is reported as an error. rel_tol is the
    final bracket width in log coordinates, i.e. the relative uncertainty
    of the returned k_omega. m_quad is ignored, as in
    stroke_displacement_discrete.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")

    def objective(u: float) -> float:
        point = params_for_k_omega(params, forcing, math.exp(u))
        mode = build_discrete_mode(point, forcing)
        return abs(stroke_displacement_discrete(point, forcing, mode).displacement)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    iterations = 0
    while b - a > rel_tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        iterations += 1

    u_opt = 0.5 * (a + b)
    if u_opt - math.log(lo) < 2.0 * rel_tol or math.log(hi) - u_opt < 2.0 * rel_tol:
        raise ValueError("no interior extremum: optimizer converged at a bracket edge")
    k_omega_opt = math.exp(u_opt)
    best = params_for_k_omega(params, forcing, k_omega_opt)
    mode = build_discrete_mode(best, forcing)
    result = stroke_displacement_discrete(best, forcing, mode)
    return OptimizeResult(
        k_omega_opt=k_omega_opt,
        k_tilde_equiv=best.k_tilde,
        displacement=result.displacement,
        iterations=iterations,
    )
