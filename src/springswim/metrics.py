"""Norms and convergence-rate measurement.

A field is the array of its n+1 node values at spacing h, linear between
nodes and pinned to zero at the far end. L2 and H1 quantities are computed
from closed-form per-element integrals, never by sampling, so convergence
tables carry no quadrature noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .analytic import ContinuousModeShape, build_continuous_mode
from .fem import MassVariant, assemble, harmonic_state, solve_transient
from .model import Forcing, SwimmerParams, positive_count

STEPS_PER_PERIOD = 16384  # Crank-Nicolson steps per period of the stepped convergence study


@dataclass(frozen=True)
class ErrorRecord:
    """Errors of one run against the continuous profile, at one grid size."""

    n: int
    l2_error: float
    h1_error: float

    def __post_init__(self) -> None:
        for name in ("l2_error", "h1_error"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares power law error ~ C*h^slope from a log-log fit.

    When the fit over all points is poor (r_squared < 0.99) the coarsest
    point is dropped and the refit attached; both fits stay available.
    """

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    refit: "RateEstimate | None" = None


def l2_norm(u: np.ndarray, h: float) -> float:
    """Exact L2 norm of the piecewise-linear interpolant of node values u at spacing h; squares u/max|u|."""
    scale = float(np.max(np.abs(u), initial=0.0)) or 1.0
    left, right = u[:-1] / scale, u[1:] / scale
    return scale * math.sqrt((h / 3.0) * float(np.sum(left * left + left * right + right * right)))


def h1_seminorm(u: np.ndarray, h: float) -> float:
    """Exact H1 seminorm; the derivative is piecewise constant. Squares differences of u/max|u|."""
    scale = float(np.max(np.abs(u), initial=0.0)) or 1.0
    du = np.diff(u / scale)
    return scale * math.sqrt(float(np.sum(du * du)) / h)


def error_vs_analytic(values: np.ndarray, mode: ContinuousModeShape, t: float) -> ErrorRecord:
    """L2 and H1 errors of n+1 node values against the continuous profile at time t.

    The nodes split [0, mode.length] into n equal elements; the far-end value
    must be exactly zero. The continuous solution is interpolated at the nodes
    first, so this measures the distance between two piecewise-linear functions.
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    if values.ndim != 1 or n < 1:
        raise ValueError(f"expected at least 2 node values in one row, got shape {values.shape}")
    if values[-1] != 0.0:
        raise ValueError("far-end node value must be exactly zero")
    h = mode.length / n
    exact = mode.values(np.arange(n + 1) * h, t)
    exact[-1] = 0.0  # pinned analytically; clear roundoff so the difference is pinned too
    diff = values - exact
    return ErrorRecord(n=n, l2_error=l2_norm(diff, h), h1_error=h1_seminorm(diff, h))


def fit_rate(records: list[ErrorRecord], which: str) -> RateEstimate:
    """Fit log(error) against log(1/n) by least squares.

    which selects the error column, "l2" or "h1". The slope equals the
    order in h on a fixed domain; the intercept is the extrapolated
    log-error at n = 1.
    """
    key = which.lower()
    if key not in ("l2", "h1"):
        raise ValueError(f"which must be 'l2' or 'h1', got {which!r}")
    if len(records) < 3:
        raise ValueError("rate fit needs at least 3 records")
    ns = np.array([record.n for record in records], dtype=float)
    if len(set(ns.tolist())) != len(records):
        raise ValueError("rate fit needs distinct grid sizes")
    errors = np.array(
        [record.l2_error if key == "l2" else record.h1_error for record in records]
    )
    if np.any(errors <= 0.0):
        raise ValueError("errors must be strictly positive for a log-log fit")

    log_h = -np.log(ns)
    log_e = np.log(errors)
    slope, intercept = np.polyfit(log_h, log_e, 1)
    residual = log_e - (slope * log_h + intercept)
    total = log_e - np.mean(log_e)
    ss_tot = float(np.sum(total * total))
    ss_res = float(np.sum(residual * residual))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    estimate = RateEstimate(
        slope=float(slope), intercept=float(intercept), r_squared=r_squared, n_points=len(records)
    )
    if estimate.r_squared < 0.99 and len(records) >= 4:
        coarsest = min(records, key=lambda record: record.n)
        kept = [record for record in records if record is not coarsest]
        refit = fit_rate(kept, which)
        estimate = dc_replace(estimate, refit=refit)
    return estimate


def convergence_study(
    params: SwimmerParams,
    forcing: Forcing,
    variant: MassVariant,
    n_list: list[int],
    steps_per_period: int = STEPS_PER_PERIOD,
) -> list[ErrorRecord]:
    """Errors of the chosen scheme against the continuous profile over a grid sweep.

    Every scheme starts from its own semi-discrete periodic orbit, the
    banded harmonic_state solve at t = 0. The nspring scheme is evaluated
    there. The lumped and galerkin schemes are stepped through one period
    with Crank-Nicolson, so the reported error is spatial up to the O(dt^2)
    stepping error; steps_per_period is chosen large enough that halving dt
    moves the finest-grid errors by well under 1%.
    """
    if len(n_list) < 1:
        raise ValueError("n_list must not be empty")
    steps_per_period = positive_count("steps_per_period", steps_per_period)
    mode = build_continuous_mode(params, forcing)
    records = []
    for n in n_list:
        system = assemble(dc_replace(params, n_springs=n), forcing, variant)
        state = np.append(harmonic_state(system).real, 0.0)
        if variant is not MassVariant.NSPRING:
            dt = forcing.period / steps_per_period
            trajectory = solve_transient(system, state, forcing.period, dt, sample_every=steps_per_period)
            state = trajectory.values[-1]
        records.append(error_vs_analytic(state, mode, forcing.period))
    return records
