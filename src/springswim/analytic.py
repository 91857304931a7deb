"""Closed-form periodic elongation modes of the passive tail.

Under sinusoidal driving the tail settles onto a single complex harmonic
mode. On the spring chain it solves a three-term recurrence with roots
exp(+-s), s = 2 asinh(sqrt(c)/2) for c = i/(k_omega n^2), and is written
with exp and expm1 of multiples of -s alone. The in-phase part keeps full
precision at any chain length or stiffness; a part far below its modulus,
such as the lag part Re b_d from k_omega ~ 1e3 up, comes from terms of
size sqrt(c) and loses digits. In the continuous limit the profile combines
exp(-r y) and exp(-r (2 Lambda - y)), r the complex diffusion wavenumber.
Physical elongations are real parts of amplitude * exp(i omega t).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Forcing, SwimmerParams, k_omega_of


@dataclass(frozen=True)
class DiscreteModeShape:
    """Complex periodic mode of the N-spring chain; Re s > 0, gamma_plus = exp(s) = 1/gamma_minus.

    Node j = 0..n carries alpha_d*gamma_plus**j + beta_d*gamma_minus**j, evaluated as
    b_d * exp(-j s) * expm1(-2 (n - j) s) / expm1(-2 n s): decaying terms only, exactly 0 at j = n.
    """

    n: int
    k_omega: float
    omega: float
    s: complex
    gamma_plus: complex
    gamma_minus: complex
    delta: complex
    z_d: complex
    b_d: complex
    alpha_d: complex
    beta_d: complex

    def node_amplitudes(self) -> np.ndarray:
        """Complex amplitudes at nodes 1..n+1; the pinned end is exactly zero."""
        return self._amplitudes.copy()

    @functools.cached_property
    def _amplitudes(self) -> np.ndarray:
        j = np.arange(self.n + 1)
        return -self.beta_d * np.exp(-j * self.s) * np.expm1(-2.0 * (self.n - j) * self.s)

    def node_values(self, t) -> np.ndarray:
        """Physical elongations at all nodes at time t; an array of times gives one row each.

        The pinned end is set to +0: the real part of its zero amplitude times a phase can be -0.
        """
        phase = np.exp(1j * self.omega * np.asarray(t, dtype=float))
        values = np.real(phase[..., None] * self._amplitudes)
        values[..., -1] = 0.0
        return values


def build_discrete_mode(params: SwimmerParams, forcing: Forcing) -> DiscreteModeShape:
    """Solve the chain recurrence with driven and pinned boundary rows.

    c = 4 sinh(s/2)^2 makes exp(+-s) the roots of gamma^2 - (2 + c) gamma + 1 = 0. With em =
    expm1(-2 n s), z_d = exp(-s) expm1(-2 (n-1) s) / em, 1 - z_d = expm1(-s) (1 + exp(-(2n-1) s)) / em
    and b_d = -(i eps/2)/(n k_omega) / ((1 - z_d) + coupling/n + c), none with cancellation.
    s is 0 when k_omega n^2 overflows and not finite when c does; then, or when b_d or the
    discriminant delta = c (c + 4) overflows, a ValueError names k_omega and n. The scalars are
    Python complex numbers: no numpy warnings.
    """
    n = params.n_springs
    k_omega = k_omega_of(params, forcing)
    c = 1j / (k_omega * n * n)
    s = 2.0 * cmath.asinh(cmath.sqrt(c) / 2.0)
    em = complex(np.expm1(-2.0 * n * s)) or cmath.nan  # 0 only when s is; then b_d is NaN
    one_minus_z = complex(np.expm1(-s)) * (1.0 + cmath.exp(-(2 * n - 1) * s)) / em
    b_d = -0.5j * forcing.eps / (n * k_omega) / (one_minus_z + params.coupling / n + c)
    delta = c * (c + 4.0)
    if not all(map(cmath.isfinite, (s, b_d, delta))):
        message = f"chain mode out of float range (s={s!r}, b_d={b_d!r}, delta={delta!r})"
        raise ValueError(f"k_omega={k_omega!r}, n={n}: {message}")
    return DiscreteModeShape(
        n=n,
        k_omega=k_omega,
        omega=forcing.omega,
        s=s,
        gamma_plus=cmath.exp(s),
        gamma_minus=cmath.exp(-s),
        delta=delta,
        z_d=cmath.exp(-s) * complex(np.expm1(-2.0 * (n - 1) * s)) / em,
        b_d=b_d,
        alpha_d=cmath.exp(-2.0 * n * s) * b_d / em,
        beta_d=-b_d / em,
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

    r Lambda = (1+i)/sqrt(2 k_omega) comes first, so r^2 = i/(Lambda^2 k_omega). With m = expm1(-2 r Lambda)
    the Robin condition at y = 0 gives b = i eps/(2 k_omega (coupling m - r Lambda (2 + m))), and Lambda enters
    only through r = (r Lambda)/Lambda, in Python complex scalars: no numpy warnings. A ValueError names k_omega
    and Lambda when b is not finite or r overflows or falls below the normal range (digits lost, b/r by 0j).
    """
    k_omega = k_omega_of(params, forcing)
    lam = params.Lambda
    r_lam = (1.0 + 1j) / math.sqrt(2.0 * k_omega)
    m = complex(np.expm1(-2.0 * r_lam))
    b = 1j * forcing.eps / (2.0 * k_omega * (params.coupling * m - r_lam * (2.0 + m)))
    r = r_lam / lam  # r.real == r.imag > 0
    if not (cmath.isfinite(b) and np.finfo(float).tiny <= r.real < math.inf):
        message = f"continuous mode out of float range (r={r!r}, b={b!r})"
        raise ValueError(f"k_omega={k_omega!r}, Lambda={lam!r}: {message}")
    return ContinuousModeShape(length=lam, k_omega=k_omega, omega=forcing.omega, r=r, b=b)
