"""Independent checks of the benchmark outputs. None of them runs inside a timed region.

The stroke displacement oracle takes the node amplitudes from the banded
NSPRING periodic solve (``harmonic_state``), not from the closed-form
chain mode the program uses, and integrates the two surviving velocity
terms with its own time-major periodic trapezoid rule at M_ORACLE
points, in chunks of CHUNK times so its memory stays small.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from springswim import fem

#: Relative agreement required between the program's displacement and the oracle.
TOL_REL = 1e-9
#: Oracle quadrature points per period; 4x the program's default m_quad.
M_ORACLE = 1024
CHUNK = 64
#: Allowed |ln k_opt(program) - ln k_opt(oracle)|; the optimizer's own rel_tol is 1e-4.
OPT_TOL_LN = 1e-3
#: Allowed deviation, relative to the array's largest magnitude, between a CLI artifact
#: and the same quantity computed in-process through the library.
ARTIFACT_TOL = 1e-12

#: Region where the closed-form mode and the quadrature are expected to be accurate.
#: A miss outside it (stiff end, or eps_tilde near 1) is still counted as failed, but
#: as the tracked defect: the closed form loses digits as k_omega grows (ROADMAP 4a).
CORE_K_OMEGA_MAX = 1e2
CORE_EPS_MAX = 0.99
#: Beyond this relative error, or with the sign wrong, a miss is a wrong answer anywhere.
GROSS_REL = 0.5


def with_k_omega(params, forcing, k_omega: float):
    """params with k_tilde set so that K/omega == k_omega (written here, not taken from model)."""
    return replace(params, k_tilde=k_omega * 6.0 * math.pi * params.mu * params.a_tilde * forcing.omega)


def banded_displacement(params, forcing, m: int = M_ORACLE) -> float:
    """Net head displacement over one period from the banded periodic solve."""
    system = fem.assemble(params, forcing, fem.MassVariant.NSPRING)
    amplitudes = np.append(fem.harmonic_state(system), 0.0)
    n = params.n_springs
    k = params.k_tilde / (6.0 * math.pi * params.mu * params.a_tilde)
    omega, period = forcing.omega, 2.0 * math.pi / forcing.omega
    total = 0.0
    for first in range(0, m, CHUNK):
        times = period * np.arange(first, min(m, first + CHUNK)) / m
        ell = np.real(np.exp(1j * omega * times)[:, None] * amplitudes[None, :])
        arm = forcing.L_ref * (1.0 + forcing.eps_tilde * np.cos(omega * times))
        cums = arm[:, None] + np.cumsum(ell[:, :n] / n + params.Lambda / n, axis=1)
        head = -0.75 * k * params.a_tilde * ell[:, 0] / arm
        tail = 1.5 * params.a_tilde * k * np.sum((ell[:, :n] - ell[:, 1:]) / cums, axis=1)
        total += float(np.sum(head + tail))
    return period * total / m


def relative_error(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), 1e-300)


def stroke_verdict(value, reference: float, k_omega: float, eps_tilde: float) -> dict:
    """Compare one program displacement with the oracle; classify a miss."""
    if value is None:
        return {"ok": False, "known": False, "why": "sweep point failed"}
    rel = relative_error(value, reference)
    if rel <= TOL_REL:
        return {"ok": True, "rel": rel}
    gross = rel > GROSS_REL or (value * reference < 0.0)
    core = k_omega <= CORE_K_OMEGA_MAX and eps_tilde <= CORE_EPS_MAX
    return {"ok": False, "known": not (gross or core), "rel": rel}


def oracle_optimum(params, forcing, bracket=(1e-2, 1e2)) -> float:
    """k_omega maximising |oracle displacement|: coarse and fine log grids, then a parabola."""

    def magnitude(u: float) -> float:
        return abs(banded_displacement(with_k_omega(params, forcing, math.exp(u)), forcing))

    coarse = np.linspace(math.log(bracket[0]), math.log(bracket[1]), 41)
    best = int(np.argmax([magnitude(u) for u in coarse]))
    if best in (0, len(coarse) - 1):
        return math.exp(coarse[best])
    step = coarse[1] - coarse[0]
    fine = np.linspace(coarse[best] - step, coarse[best] + step, 21)
    values = [magnitude(u) for u in fine]
    j = min(max(int(np.argmax(values)), 1), len(fine) - 2)
    left, mid, right = values[j - 1], values[j], values[j + 1]
    h = fine[1] - fine[0]
    return math.exp(fine[j] - 0.5 * h * (right - left) / (right - 2.0 * mid + left))


def arrays_agree(artifact, library) -> bool:
    artifact, library = np.asarray(artifact, dtype=float), np.asarray(library, dtype=float)
    if artifact.shape != library.shape:
        return False
    scale = float(np.max(np.abs(library))) if library.size else 0.0
    return bool(np.all(np.abs(artifact - library) <= ARTIFACT_TOL * scale))
