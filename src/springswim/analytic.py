"""Closed-form periodic elongation modes of the passive tail.

Under sinusoidal driving the tail settles onto a single complex harmonic
mode. Along the spring chain the mode solves a constant-coefficient
three-term recurrence, so node amplitudes combine powers of the two
characteristic roots gamma_plus and gamma_minus (with gamma_plus *
gamma_minus = 1). In the continuous limit the profile is a combination of
the decaying exp(-r y) and exp(-r (2 Lambda - y)), with r the complex
diffusion wavenumber. Physical elongations are real parts of
amplitude * exp(i omega t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Forcing, SwimmerParams, derive_groups


@dataclass(frozen=True)
class DiscreteModeShape:
    """Complex periodic mode of the N-spring chain.

    Node j (1-based, j = 1..n+1) carries amplitude
    alpha_d*gamma_plus**(j-1) + beta_d*gamma_minus**(j-1). Evaluation uses
    an equivalent expression with only decaying powers of gamma_minus, so
    long chains at small k_omega do not overflow.
    """

    n: int
    k_omega: float
    omega: float
    gamma_plus: complex
    gamma_minus: complex
    delta: complex
    z_d: complex
    b_d: complex
    alpha_d: complex
    beta_d: complex

    def node_amplitudes(self) -> np.ndarray:
        """Complex amplitudes at nodes 1..n+1; the pinned end is exactly zero."""
        p = self.gamma_minus ** np.arange(self.n + 1)
        q = p[self.n] * p[self.n]
        return self.b_d * (p - p[self.n] * p[::-1]) / (1.0 - q)

    def node_values(self, t) -> np.ndarray:
        """Physical elongations at all nodes at time t; an array of times gives one row each."""
        phase = np.exp(1j * self.omega * np.asarray(t, dtype=float))
        return np.real(phase[..., None] * self.node_amplitudes())


def build_discrete_mode(params: SwimmerParams, forcing: Forcing) -> DiscreteModeShape:
    """Solve the chain recurrence with driven and pinned boundary rows.

    The characteristic roots satisfy gamma^2 - (2 + i/(k_omega n^2))*gamma
    + 1 = 0; the numerically stable root (no cancellation) is computed
    first and the other obtained as its reciprocal. Boundary coefficients
    are rearranged in powers of gamma_minus alone.
    """
    n = params.n_springs
    k_omega = derive_groups(params, forcing).k_omega
    c = 1j / (k_omega * n * n)
    root = 0.5 * (c + 2.0 + np.sqrt(c * (c + 4.0)))
    if abs(root) < 1.0:
        root = 1.0 / root
    if not abs(root) > 1.0:
        raise ValueError("characteristic roots lie on the unit circle; periodic mode is degenerate")
    gamma_plus = complex(root)
    gamma_minus = 1.0 / gamma_plus
    q = gamma_minus ** (2 * n)
    if abs(1.0 - q) < 1e-12:
        raise ValueError("pinned-end system is singular: gamma_+^n too close to gamma_-^n")
    z_d = (gamma_minus - gamma_minus ** (2 * n - 1)) / (1.0 - q)
    denom = (
        1j / n
        + n * k_omega * (1.0 - z_d)
        + k_omega * params.a_tilde / (2.0 * params.a1)
    )
    if abs(denom) == 0.0:
        raise ValueError("driven-end normalization vanished; cannot build the mode")
    b_d = -(0.5j * forcing.eps) / denom
    return DiscreteModeShape(
        n=n,
        k_omega=k_omega,
        omega=forcing.omega,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        delta=c * (c + 4.0),
        z_d=z_d,
        b_d=b_d,
        alpha_d=-q * b_d / (1.0 - q),
        beta_d=b_d / (1.0 - q),
    )


@dataclass(frozen=True)
class ContinuousModeShape:
    """Complex periodic profile b*(exp(-r y) - exp(-r (2 length - y))) on [0, length].

    Re(r) > 0, so both exponentials decay over the tail and no k_omega
    overflows; the profile vanishes exactly at the pinned end y = length.
    """

    length: float
    k_omega: float
    omega: float
    r: complex
    b: complex

    def profile(self, y) -> np.ndarray:
        """Complex amplitude at position y (array friendly)."""
        y = np.asarray(y, dtype=float)
        return self.b * (np.exp(-self.r * y) - np.exp(-self.r * (2.0 * self.length - y)))

    def profile_gradient(self, y) -> np.ndarray:
        """Complex amplitude of the spatial derivative at y."""
        y = np.asarray(y, dtype=float)
        return -self.r * self.b * (np.exp(-self.r * y) + np.exp(-self.r * (2.0 * self.length - y)))

    def profile_integral(self, y) -> np.ndarray:
        """Complex amplitude of the integral of the profile from 0 to y."""
        y = np.asarray(y, dtype=float)
        return (self.b / self.r) * np.expm1(-self.r * y) * np.expm1(-self.r * (2.0 * self.length - y))

    def values(self, y, t: float) -> np.ndarray:
        """Physical elongation profile at time t."""
        return np.real(self.profile(y) * np.exp(1j * self.omega * t))


def build_continuous_mode(params: SwimmerParams, forcing: Forcing) -> ContinuousModeShape:
    """Solve i*lbar = Lambda^2 k_omega lbar'' with driven (Robin) and pinned ends.

    r = (1+i)/(Lambda*sqrt(2 k_omega)) so that r^2 = i/(Lambda^2 k_omega);
    the profile form pins the far end, and the Robin condition at y = 0,
    written with m = expm1(-2 r Lambda), fixes the amplitude b.
    """
    k_omega = derive_groups(params, forcing).k_omega
    lam = params.Lambda
    r = (1.0 + 1j) / (lam * np.sqrt(2.0 * k_omega))
    m = np.expm1(-2.0 * r * lam)
    denom = 2.0 * k_omega * (params.a_tilde / (2.0 * params.a1) * m - lam * r * (2.0 + m))
    if not np.isfinite(denom) or denom == 0.0:
        raise ValueError("profile normalization degenerate; k_omega outside the usable range")
    return ContinuousModeShape(
        length=lam,
        k_omega=k_omega,
        omega=forcing.omega,
        r=complex(r),
        b=complex(1j * forcing.eps / denom),
    )
