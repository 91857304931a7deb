"""Float64 oracles for the bead-chain drift, used only by tests.

stiff_amplitudes sums a Neumann series for the chain's periodic solve in real arithmetic,
for k_omega >= 1; it calls neither LAPACK nor mpmath. chain_drift feeds any node
amplitudes (these, or the closed form's) to the kernel's own period-mean law, so a test
compares amplitude sources alone.
"""

import numpy as np

from springswim.displacement import _drift, _period_mean


def _inverse_laplacian(g: np.ndarray, r: float) -> np.ndarray:
    """T^-1 g for the chain Laplacian T: Robin row (1 + r, -1), rows (-1, 2, -1), the far end pinned.

    With d_j = v_j - v_{j+1} (v_n = 0) the rows read d_j = cumsum(g)_j - r v_0, and v is the
    reversed cumulative sum of d; summing d gives v_0 = sum(cumsum(g)) / (1 + n r).
    """
    partial = np.cumsum(g)
    v0 = np.sum(partial) / (1.0 + g.size * r)
    return np.cumsum((partial - r * v0)[::-1])[::-1]


def stiff_amplitudes(params, forcing) -> np.ndarray:
    """Complex amplitudes of nodes 0..n (the pinned end 0) of the NSPRING periodic solve, k_omega >= 1.

    Divided by cond = Lambda^2 K / h, the solve is (T + c I) u = i phi e_0 with c = i gamma,
    gamma = 1/(k_omega n^2), r = a_tilde/(2 a1 n) and phi = -eps/(2 n k_omega). Then
    u = i phi sum_m (-i gamma)^m T^-(m+1) e_0: the terms of even m make the real series P and
    those of odd m the series Q, u = phi (-Q + i P), so the small out-of-phase part is formed
    with no cancellation against the in-phase part. Terms shrink by about 0.4/k_omega; the sum
    stops once two terms in a row no longer move the series they go into.
    """
    n = params.n_springs
    k_omega = params.relaxation_rate / forcing.omega
    gamma = 1.0 / (k_omega * n * n)
    r = params.a_tilde / (2.0 * params.a1 * n)
    term = _inverse_laplacian(np.eye(1, n)[0], r)
    series = [term, np.zeros(n)]  # P, Q
    quiet = 0
    for m in range(1, 200):
        term = gamma * _inverse_laplacian(term, r)
        series[m % 2] += (-1.0) ** ((m + 1) // 2) * term  # the nonzero part of (-i)^m
        quiet = quiet + 1 if np.max(np.abs(term)) <= 2.0**-60 * np.max(np.abs(series[m % 2])) else 0
        if quiet == 2:
            break
    else:
        raise ValueError(f"Neumann series not converged in 200 terms at k_omega={k_omega!r}")
    phi = -forcing.eps / (2.0 * n * k_omega)
    return np.append(phi * (-series[1] + 1j * series[0]), 0.0)


def chain_drift(params, forcing, amps: np.ndarray) -> float:
    """Net head displacement over one period from node amplitudes 0..n, by the kernel's period-mean law."""
    n = params.n_springs
    b = forcing.L_ref * forcing.eps_tilde + np.cumsum(amps[:n]) / n
    d = forcing.L_ref + params.h * np.arange(1, n + 1)
    return _drift(params, forcing, amps[0], np.sum(_period_mean(amps[:n] - amps[1:], b, d))).displacement
