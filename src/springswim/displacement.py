"""Net stroke displacement of the head sphere, sweeps and optimization.

Over one forcing period most terms of the head velocity average to zero;
the net drift comes from the hydrodynamic coupling between the tail
elongations and the instantaneous arm lengths. In the bead chain each
surviving term is one harmonic over a constant plus one harmonic, whose
period mean has a closed form, so the discrete drift is exact and O(n)
with no time grid. The continuous-tail limit uses the same closed-form
mean at each point of the tail, and a fixed Gauss rule graded toward the
driven end integrates it over y. At fixed k_omega the drift is
a_tilde * F(n, k_omega, eps_tilde, a_tilde/a1, Lambda/L), five groups.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .analytic import build_continuous_mode
from .fem import MassVariant, assemble, harmonic_state
from .model import MOTIONLESS, Forcing, SwimmerParams, params_for_k_omega, positive_real

SWEEP_AXES = ("eps_tilde", "k_omega")
#: Oseen weights of the head velocity law (Golestanian & Ajdari 2004): head-driver terms, tail sum.
HEAD, TAIL = 0.75, 1.5
BRACKET, REL_TOL = (1e-2, 1e2), 1e-4  # optimize_k_omega's defaults: k_omega bracket, final log-bracket width


@dataclass(frozen=True, slots=True)
class StrokeResult:
    """Net head displacement over one period and the chain size that produced it.

    Slotted because a sweep keeps one per point: an instance then takes
    half the memory of one with an attribute dict.
    """

    displacement: float
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

    def displacements(self) -> np.ndarray:
        """Displacement per point, NaN where the point failed."""
        return np.array(
            [math.nan if result is None else result.displacement for result in self.results]
        )

    def argbest(self) -> int | None:
        """Index of the largest displacement magnitude among successful points; None if none moves."""
        magnitudes = np.abs(self.displacements())
        if np.all(np.isnan(magnitudes)):
            raise ValueError("sweep produced no successful points")
        best = int(np.nanargmax(magnitudes))
        return best if magnitudes[best] > 0.0 else None


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
    with np.errstate(over="ignore", invalid="ignore"):  # a velocity past the float range is refused below
        arm = forcing.arm_length(t)
        arm_rate = forcing.arm_velocity(t)
        cums = arm[..., None] + np.cumsum(ell[..., :n] / n + params.h, axis=-1)
        if np.any(arm <= 0.0) or np.any(cums <= 0.0):
            raise ValueError("unphysical state: non-positive cumulative arm length")
        tail = TAIL * params.a_tilde * k * np.sum((ell[..., :n] - ell[..., 1:]) / cums, axis=-1)
        v1 = (
            0.5 * arm_rate
            - params.coupling * k * ell[..., 0]
            - HEAD * params.a1 * (arm_rate / arm)
            - HEAD * k * params.a_tilde * (ell[..., 0] / arm)
            + tail
        )
    if not np.isfinite(v1).all():  # name the scales: eps*omega, a1*omega and a_tilde*K are speeds, coupling*K a rate
        scales = (forcing.eps * forcing.omega, params.a1 * forcing.omega, params.a_tilde * k, params.coupling * k)
        raise ValueError(f"head velocity out of float range: eps*omega, a1*omega, a_tilde*K, coupling*K = {scales}")
    return float(v1) if v1.ndim == 0 else v1


def _period_mean(e, b, d):
    """Period mean of Re(e exp(iwt)) / (d + Re(b exp(iwt))), elementwise.

    It is -Re(e conj(q)) / (d s (s + 1)) on the ratio q = b/d, s = sqrt(1 - |q|^2): exactly 0
    at b = 0, and no length is squared, so it holds at any arm length. |q| < 1 everywhere is the
    condition that every denominator stays positive over the whole period; anything else is rejected.
    """
    q = b * (1.0 / d)
    swing = np.abs(q)
    if not np.all(swing < 1.0):
        raise ValueError("unphysical state: non-positive cumulative arm length")
    s = np.sqrt((1.0 - swing) * (1.0 + swing))
    return -np.real(e * np.conj(q)) / (d * s * (s + 1.0))


def _drift(params: SwimmerParams, forcing: Forcing, head_amp, tail) -> StrokeResult:
    """Net displacement over one period from the head elongation amplitude and the tail.

    tail is the period-mean tail term already reduced over the tail: the chain
    sum of the bead model or its integral over y in the continuous limit. The
    head term is the period mean of head_amp / L0(t).
    """
    k = params.relaxation_rate
    head = -HEAD * k * params.a_tilde * _period_mean(head_amp, forcing.eps, forcing.L_ref)
    return StrokeResult(
        displacement=forcing.period * float(head + TAIL * params.a_tilde * k * tail),
        n=params.n_springs,
        quadrature_points=1,
    )


def stroke_displacement_discrete(
    params: SwimmerParams,
    forcing: Forcing,
    mode=None,
    m_quad: int | None = None,
) -> StrokeResult:
    """Net displacement over one period of the bead chain, exact in time.

    Only the head term A_0 / L0(t) and the tail terms (A_j - A_{j+1}) / cum_j(t)
    have a nonzero period mean, where A are the node amplitudes of the banded
    NSPRING (bead chain) periodic solve and cum_j = L + (j+1) h +
    Re((L eps_tilde + sum_{i<=j} A_i / n) exp(i omega t)). Each is averaged in
    closed form, in O(n) time and memory, and |B| < D checks every cum_j > 0
    over the whole period. mode and m_quad are ignored and stay only until
    the benchmark stops passing them.
    """
    n = params.n_springs
    amps = np.append(harmonic_state(assemble(params, forcing, MassVariant.NSPRING)), 0.0)
    b = forcing.eps + np.cumsum(amps[:n]) / n
    d = forcing.L_ref + params.h * np.arange(1, n + 1)
    return _drift(params, forcing, amps[0], np.sum(_period_mean(amps[:n] - amps[1:], b, d)))


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


def stroke_displacement_continuous(params: SwimmerParams, forcing: Forcing) -> StrokeResult:
    """Net displacement over one period in the continuous-tail limit, exact in time.

    The law of stroke_displacement_discrete with the chain sum replaced by an
    integral over the tail: at each y the tail term is the period mean of
    -P'(y) / (D + Re(B exp(i omega t))) with D = L + y and
    B = L eps_tilde + (1/Lambda) int_0^y P, for the complex profile P of
    build_continuous_mode. The y integral uses the fixed dyadically graded
    Gauss rule of _unit_y_rule, and |B| < D checks the denominator at every node.
    """
    mode = build_continuous_mode(params, forcing)
    lam = params.Lambda
    unit_y, unit_w = _unit_y_rule()
    y = lam * unit_y
    b = forcing.eps + mode.profile_integral(y)
    means = _period_mean(mode.profile_gradient(y), b, forcing.L_ref + y)
    return _drift(params, forcing, mode.profile(0.0), -lam * (unit_w @ means))


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
    values = tuple(v.item() if isinstance(v, np.number) else v for v in values)  # errors name 1.5, not np.float64
    if axis == "eps_tilde":  # every point's Forcing or retuned params checks its value here
        points = [(params, dc_replace(forcing, eps_tilde=v)) for v in values]
    else:
        points = [(params_for_k_omega(params, forcing, v), forcing) for v in values]
    values = tuple(map(float, values))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be strictly increasing")

    results: list[StrokeResult | None] = []
    failures: list[str | None] = []
    for point_params, point_forcing in points:
        try:
            results.append(stroke_displacement_discrete(point_params, point_forcing))
            failures.append(None)
        except (ValueError, FloatingPointError) as exc:
            results.append(None)
            failures.append(str(exc))
    return SweepTable(axis=axis, values=values, results=tuple(results), failures=tuple(failures))


def optimize_k_omega(
    params: SwimmerParams,
    forcing: Forcing,
    bracket: tuple[float, float] = BRACKET,
    rel_tol: float = REL_TOL,
    m_quad: int | None = None,
) -> OptimizeResult:
    """Golden-section maximization of |displacement| over log k_omega.

    The bracket must contain an interior maximum of the magnitude (eps_tilde = 0
    has none and is refused). Golden section never moves the end that a monotone
    magnitude runs into, so a final bracket that still holds an end of the given one is an error.
    rel_tol is the final bracket width in log coordinates, i.e. the relative
    uncertainty of the returned k_omega; one below its float spacing is an error.
    m_quad is ignored, as in stroke_displacement_discrete.
    """
    lo, hi = (positive_real("bracket", end) for end in bracket)
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket!r}")
    rel_tol = positive_real("rel_tol", rel_tol)
    if forcing.eps_tilde == 0.0:
        raise ValueError(MOTIONLESS)

    def objective(u: float) -> float:
        point = params_for_k_omega(params, forcing, math.exp(u))
        return abs(stroke_displacement_discrete(point, forcing).displacement)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    # each step shrinks b - a by invphi; past this count rel_tol is below the float spacing of u
    limit = math.ceil((math.log(max(b - a, rel_tol)) - math.log(rel_tol)) / -math.log(invphi)) + 8
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    iterations = 0
    while b - a > rel_tol:
        if iterations == limit:
            raise ValueError(f"rel_tol={rel_tol!r} not met in {limit} iterations: below the float spacing")
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        iterations += 1

    if a == math.log(lo) or b == math.log(hi):
        raise ValueError("no interior extremum found: the final bracket still holds an end of the search bracket")
    k_omega_opt = math.exp(0.5 * (a + b))
    best = params_for_k_omega(params, forcing, k_omega_opt)
    result = stroke_displacement_discrete(best, forcing)
    return OptimizeResult(
        k_omega_opt=k_omega_opt,
        k_tilde_equiv=best.k_tilde,
        displacement=result.displacement,
        iterations=iterations,
    )
