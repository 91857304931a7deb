"""Stroke displacement: formulas, sweeps and the k_omega optimizer."""

import contextlib
import dataclasses
import functools
import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chain_drift import chain_drift, stiff_amplitudes
from springswim import displacement
from springswim.analytic import ContinuousModeShape, build_continuous_mode, build_discrete_mode
from springswim.displacement import (
    OptimizeResult,
    StrokeResult,
    SweepTable,
    instantaneous_v1,
    optimize_k_omega,
    stroke_displacement_continuous,
    stroke_displacement_discrete,
    sweep,
)
from springswim.fem import MassVariant, assemble, harmonic_state
from springswim.model import DEFAULTS, config_from_mapping, params_for_k_omega

# argmax of |displacement| on the 100-point log grid over [1e-2, 1e2],
# reference parameters, eps_tilde = 0.7; cross-checked during development
# against a transient Crank-Nicolson run with numerical time quadrature
GRID_ARGMAX_K_OMEGA = 0.2848035868435802
GRID_ARGMAX_INDEX = 36
GRID_CELL_LOG10 = 4.0 / 99.0


def default_pair(**overrides):
    return config_from_mapping(overrides)


def mode_for(params, forcing):
    return build_discrete_mode(params, forcing)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds (SIGALRM, main thread)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestInstantaneousV1:
    def test_rest_state_zero_forcing(self):
        params, forcing = default_pair(n_springs=10, eps_tilde=0.0)
        state = np.zeros(11)
        assert instantaneous_v1(params, forcing, state, 0.3) == 0.0

    def test_rest_state_forced(self):
        # zero elongation leaves only the prescribed-arm terms
        params, forcing = default_pair(n_springs=10)
        state = np.zeros(11)
        t = 0.9
        arm = float(forcing.arm_length(t))
        arm_rate = float(forcing.arm_velocity(t))
        expected = 0.5 * arm_rate - 0.75 * params.a1 * arm_rate / arm
        assert instantaneous_v1(params, forcing, state, t) == pytest.approx(expected, rel=1e-13)

    def test_shape_checked(self):
        params, forcing = default_pair(n_springs=10)
        with pytest.raises(ValueError, match="entries"):
            instantaneous_v1(params, forcing, np.zeros(10), 0.0)

    def test_unphysical_state_rejected(self):
        params, forcing = default_pair(n_springs=4)
        # a huge negative elongation folds the chain through itself
        state = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unphysical"):
            instantaneous_v1(params, forcing, state, 0.0)

    @pytest.mark.parametrize("n", [1, 300])
    def test_rows_match_per_row_calls(self, n):
        params, forcing = default_pair(n_springs=n)
        times = np.linspace(0.0, forcing.period, 41)
        amps = build_discrete_mode(params, forcing).node_amplitudes()
        states = np.real(np.exp(1j * forcing.omega * times)[:, None] * amps[None, :])
        states[:, -1] = 0.0
        rows = instantaneous_v1(params, forcing, states, times)
        loop = np.array([instantaneous_v1(params, forcing, row, t) for t, row in zip(times, states)])
        assert rows.shape == times.shape
        np.testing.assert_allclose(rows, loop, rtol=1e-14, atol=0.0)

    def test_one_time_per_row(self):
        params, forcing = default_pair(n_springs=10)
        with pytest.raises(ValueError, match="one time per state row"):
            instantaneous_v1(params, forcing, np.zeros((3, 11)), np.zeros(4))


def trapezoid_reference(params, forcing, m=2048, chunk=128):
    """The two surviving velocity terms on the banded-solve amplitudes, periodic trapezoid rule."""
    amps = np.append(harmonic_state(assemble(params, forcing, MassVariant.NSPRING)), 0.0)
    n = params.n_springs
    k = params.relaxation_rate
    total = 0.0
    for first in range(0, m, chunk):
        times = forcing.period * np.arange(first, first + chunk) / m
        ell = np.real(np.exp(1j * forcing.omega * times)[:, None] * amps[None, :])
        arm = np.asarray(forcing.arm_length(times))
        cums = arm[:, None] + np.cumsum(ell[:, :n] / n + params.h, axis=1)
        head = -0.75 * k * params.a_tilde * ell[:, 0] / arm
        tail = 1.5 * params.a_tilde * k * np.sum((ell[:, :n] - ell[:, 1:]) / cums, axis=1)
        total += float(np.sum(head + tail))
    return forcing.period * total / m


def mpmath_drift(params, forcing):
    """Drift of the bead chain in 50-digit arithmetic: the chain closed form, then the exact period mean.

    It shares only the float parameters with the program, which takes the node
    amplitudes from a banded float64 solve rather than from the closed form.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(50):
        n = params.n_springs
        a_tilde, a1, arm = mp.mpf(params.a_tilde), mp.mpf(params.a1), mp.mpf(forcing.L_ref)
        rate = mp.mpf(params.k_tilde) / (6 * mp.pi * mp.mpf(params.mu) * a_tilde)
        k_omega = rate / mp.mpf(forcing.omega)
        swing = arm * mp.mpf(forcing.eps_tilde)
        c = 1j / (k_omega * n * n)
        root = (2 + c + mp.sqrt(c * (c + 4))) / 2
        g = 1 / root if abs(root) > 1 else root  # the decaying characteristic root
        q = g ** (2 * n)
        z_d = (g - g ** (2 * n - 1)) / (1 - q)
        b_d = -0.5j * swing / (1j / n + n * k_omega * (1 - z_d) + k_omega * a_tilde / (2 * a1))
        powers = [mp.mpc(1)]
        for _ in range(n):
            powers.append(powers[-1] * g)
        scale = b_d / (1 - q)
        amps = [scale * (powers[j] - powers[n] * powers[n - j]) for j in range(n + 1)]

        def mean(e, b, d):  # period mean of Re(e exp(iwt)) / (d + Re(b exp(iwt)))
            b = mp.mpc(b)
            s = mp.sqrt(d * d - b.real**2 - b.imag**2)
            return -mp.re(e * mp.conj(b)) / (s * (s + d))

        h = mp.mpf(params.Lambda) / n
        tail, b = 0, swing
        for j in range(n):
            b += amps[j] / n
            tail += mean(amps[j] - amps[j + 1], b, arm + (j + 1) * h)
        head = -0.75 * rate * a_tilde * mean(amps[0], swing, arm)
        return float(2 * mp.pi / mp.mpf(forcing.omega) * (head + 1.5 * rate * a_tilde * tail))


class TestStrokeDiscrete:
    def test_zero_amplitude_zero_displacement(self):
        params, forcing = default_pair(eps_tilde=0.0)
        result = stroke_displacement_discrete(params, forcing, mode_for(params, forcing))
        assert result.displacement == 0.0

    def test_reference_value(self):
        # frozen from this formula; validated against the independent
        # time-stepped route during development (1e-7 relative agreement)
        params, forcing = default_pair()
        result = stroke_displacement_discrete(params, forcing, mode_for(params, forcing))
        assert result.displacement == pytest.approx(-1.354906127597418e-06, rel=1e-10)
        assert result.n == 2000
        assert result.quadrature_points == 1

    def test_grid_peak_value(self):
        params, forcing = default_pair()
        tuned = params_for_k_omega(params, forcing, GRID_ARGMAX_K_OMEGA)
        result = stroke_displacement_discrete(tuned, forcing, mode_for(tuned, forcing))
        assert result.displacement == pytest.approx(-2.4693540152385463e-06, rel=1e-10)

    def test_agrees_with_full_velocity_quadrature(self):
        # dual route: integrate the complete head velocity (including the
        # zero-average terms) with the periodic trapezoid rule
        params, forcing = default_pair(n_springs=300)
        mode = mode_for(params, forcing)
        m = 256
        times = forcing.period * np.arange(m) / m
        amps = mode.node_amplitudes()
        total = 0.0
        for t in times:
            state = np.real(amps * np.exp(1j * forcing.omega * t))
            state[-1] = 0.0
            total += instantaneous_v1(params, forcing, state, float(t))
        full_route = forcing.period * total / m
        reduced = stroke_displacement_discrete(params, forcing, mode)
        assert full_route == pytest.approx(reduced.displacement, rel=1e-9)

    @pytest.mark.parametrize(
        "n, k_omega, eps_tilde",
        [(2000, 1e3, 0.7), (2000, 1e5, 0.7), (2000, 0.28, 0.9989), (1, None, 0.7), (2, None, 0.7)],
    )
    def test_exact_mean_matches_fine_quadrature(self, n, k_omega, eps_tilde):
        # the stiff end and an amplitude near 1 are where a 256-point time
        # grid on the closed-form chain mode lost 5e-6 and 1.3e-5
        params, forcing = default_pair(n_springs=n, eps_tilde=eps_tilde)
        if k_omega is not None:
            params = params_for_k_omega(params, forcing, k_omega)
        exact = stroke_displacement_discrete(params, forcing, mode_for(params, forcing))
        reference = trapezoid_reference(params, forcing)
        assert abs(exact.displacement - reference) <= 1e-9 * abs(reference)

    @pytest.mark.parametrize("eps_tilde", [0.0, 0.5, 0.999])
    @pytest.mark.parametrize("k_omega", [1e-8, 0.28, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 2000])
    def test_matches_50_digit_reference(self, n, k_omega, eps_tilde):
        params, forcing = default_pair(n_springs=n, eps_tilde=eps_tilde)
        params = params_for_k_omega(params, forcing, k_omega)
        drift = stroke_displacement_discrete(params, forcing, mode_for(params, forcing)).displacement
        if eps_tilde == 0.0:
            assert drift == 0.0
        else:
            reference = mpmath_drift(params, forcing)
            assert abs(drift - reference) <= 1e-10 * abs(reference)

    @pytest.mark.parametrize("kernel", ["discrete", "continuous"])
    def test_unphysical_amplitudes_rejected(self, monkeypatch, kernel):
        # oscillations this large drive a cumulative arm length through zero;
        # both kernels reject it through the same |B| < D check
        params, forcing = default_pair(n_springs=20)
        message = "unphysical state: non-positive cumulative arm length"
        if kernel == "discrete":
            mode = mode_for(params, forcing)
            monkeypatch.setattr(displacement, "harmonic_state", lambda system: np.full(20, -40.0 * forcing.L_ref))
            with pytest.raises(ValueError, match=message):
                stroke_displacement_discrete(params, forcing, mode)
        else:
            swept = -40.0 * forcing.L_ref * params.Lambda
            monkeypatch.setattr(ContinuousModeShape, "profile_integral", lambda self, y: np.full(np.shape(y), swept))
            with pytest.raises(ValueError, match=message):
                stroke_displacement_continuous(params, forcing)

    def test_memory_is_linear_in_n(self):
        params, forcing = default_pair(n_springs=100_000)
        mode = mode_for(params, forcing)
        tracemalloc.start()
        try:
            stroke_displacement_discrete(params, forcing, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_result_finiteness_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            StrokeResult(displacement=math.inf, n=10, quadrature_points=1)


class TestStrokeContinuous:
    def test_zero_amplitude(self):
        params, forcing = default_pair(eps_tilde=0.0)
        result = stroke_displacement_continuous(params, forcing)
        assert result.displacement == 0.0

    @pytest.mark.parametrize("eps_tilde", [0.7, 0.999])
    @pytest.mark.parametrize("k_omega", [1e-8, 1e-5, 1e-2, 0.28, 10.0, 1e3, 1e8])
    def test_matches_adaptive_quadrature(self, k_omega, eps_tilde):
        # the same y-integrand, written here from the exponential form and
        # integrated by QUADPACK with breakpoints at multiples of the boundary
        # layer width, not at the program's panel edges
        base, forcing = default_pair(eps_tilde=eps_tilde)
        params = params_for_k_omega(base, forcing, k_omega)
        mode = build_continuous_mode(params, forcing)
        lam, arm, r, b = params.Lambda, forcing.L_ref, mode.r, mode.b
        swing = arm * eps_tilde
        k_a = params.relaxation_rate * params.a_tilde

        def mean(e, bb, d):
            s = math.sqrt(d * d - abs(bb) ** 2)
            return -(e * bb.conjugate()).real / (s * (s + d))

        def integrand(y):
            near, far = np.exp(-r * y), np.exp(-r * (2.0 * lam - y))
            cumulative = (b / r) * (1.0 - near - far + np.exp(-2.0 * r * lam))
            return mean(-r * b * (near + far), swing + cumulative / lam, arm + y)

        delta = lam * math.sqrt(2.0 * k_omega)
        breaks = [delta * 2.0**j for j in range(-2, 8) if delta * 2.0**j < lam]
        tail, _ = quad(integrand, 0.0, lam, points=breaks or None, epsabs=0.0, epsrel=1e-13, limit=500)
        head = mean(b * (1.0 - np.exp(-2.0 * r * lam)), complex(swing), arm)
        expected = forcing.period * (-0.75 * k_a * head - 1.5 * k_a * tail)

        result = stroke_displacement_continuous(params, forcing)
        assert result.quadrature_points == 1
        assert abs(result.displacement - expected) <= 1e-12 * abs(expected)

    def test_discrete_approaches_continuous(self):
        params, forcing = default_pair()
        tuned = params_for_k_omega(params, forcing, GRID_ARGMAX_K_OMEGA)
        continuous = stroke_displacement_continuous(tuned, forcing).displacement
        gaps = []
        for n in (250, 500, 1000, 2000, 4000):
            refined = dataclasses.replace(tuned, n_springs=n)
            discrete = stroke_displacement_discrete(
                refined, forcing, mode_for(refined, forcing)
            ).displacement
            gaps.append(abs(discrete - continuous))
        assert all(coarse > fine for coarse, fine in zip(gaps, gaps[1:]))
        assert gaps[-1] / abs(continuous) < 0.01

    @pytest.mark.parametrize("k_omega", [0.28, 10.0])
    def test_discrete_limit_is_first_order(self, k_omega):
        # the bead-chain drift D_n converges to the continuous D_inf like 1/n,
        # so one Richardson step from n = 1e4 and 1e5 lands on D_inf
        base, forcing = default_pair()
        tuned = params_for_k_omega(base, forcing, k_omega)
        limit = stroke_displacement_continuous(tuned, forcing).displacement
        ns = (100, 1000, 10_000, 100_000)
        drifts = []
        for n in ns:
            refined = dataclasses.replace(tuned, n_springs=n)
            drifts.append(
                stroke_displacement_discrete(refined, forcing, mode_for(refined, forcing)).displacement
            )
        gaps = np.abs(np.array(drifts) - limit) / abs(limit)
        order = -np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert 0.95 <= order <= 1.05, f"fitted order {order:.4f}, gaps {gaps}"
        richardson = (10.0 * drifts[-1] - drifts[-2]) / 9.0
        assert abs(richardson - limit) <= 1e-7 * abs(limit)

    def test_chi_stays_in_bounds(self):
        # recompute the chi denominator on a sample grid and compare with the
        # envelope 1/(L(1-eps_tilde)) (equality is attained at y=0, t=pi/omega)
        params, forcing = default_pair(n_springs=200)
        mode = build_continuous_mode(params, forcing)
        hi = 1.0 / (forcing.L_ref * (1.0 - forcing.eps_tilde))
        m_space, m_quad = 256, 128
        y = np.linspace(0.0, params.Lambda, m_space + 1)
        times = forcing.period * np.arange(m_quad) / m_quad
        ell = np.real(mode.profile(y)[:, None] * np.exp(1j * forcing.omega * times))
        dy = params.Lambda / m_space
        cumint = np.vstack(
            [np.zeros(m_quad), np.cumsum(0.5 * dy * (ell[:-1] + ell[1:]) / params.Lambda, axis=0)]
        )
        denom = np.asarray(forcing.arm_length(times))[None, :] + y[:, None] + cumint
        chi = 1.0 / denom
        assert np.all(chi > 0.0)
        assert np.all(chi <= hi * (1.0 + 1e-9))
        assert np.max(1.0 / np.asarray(forcing.arm_length(times))) == pytest.approx(
            hi, rel=1e-9
        )


# 50-digit mpmath_drift values at eps_tilde = 0.5 (5-12 s a point), each under the command that regenerates it
LARGE_N_DRIFTS = {
    # PYTHONPATH=src:tests python -c "import test_displacement as t; print(repr(t.mpmath_drift(*t.tuned_pair(50000, 1e3, 0.5))))"
    (50_000, 1e3): -5.517764041228415e-10,
    # PYTHONPATH=src:tests python -c "import test_displacement as t; print(repr(t.mpmath_drift(*t.tuned_pair(100000, 1e3, 0.5))))"
    (100_000, 1e3): -5.517706629470996e-10,
    # PYTHONPATH=src:tests python -c "import test_displacement as t; print(repr(t.mpmath_drift(*t.tuned_pair(100000, 1e8, 0.5))))"
    (100_000, 1e8): -5.5177071020017164e-15,
}
ITEM_8 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 8: the banded solve loses digits at large n (2.5e-8, 4.8e-8, 6.9e-10)"
)


STIFF_UNDERFLOW = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: Re(A_0), the lag part that carries the drift, scales as 1/k_omega^2 and is subnormal "
    "from about k_omega = 1e152 at n = 2000; the drift is 2.7% off at 1e155 and exactly 0.0 from about 10^157",
)


def tuned_pair(n, k_omega, eps_tilde):
    params, forcing = default_pair(n_springs=n, eps_tilde=eps_tilde)
    return params_for_k_omega(params, forcing, k_omega), forcing


class TestStiffSeries:
    """The Neumann series of the chain solve as an oracle for k_omega >= 1, the range where the
    closed form loses the out-of-phase part of the amplitudes."""

    @pytest.mark.parametrize("eps_tilde", [0.5, 0.999])
    @pytest.mark.parametrize("k_omega", [1.0, 10.0, 1e3, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 50, 2000])
    def test_program_matches_series(self, n, k_omega, eps_tilde):
        params, forcing = tuned_pair(n, k_omega, eps_tilde)
        series = chain_drift(params, forcing, stiff_amplitudes(params, forcing))
        drift = stroke_displacement_discrete(params, forcing).displacement
        assert abs(drift - series) <= 1e-10 * abs(series)

    @pytest.mark.parametrize("eps_tilde", [0.5, 0.999])
    @pytest.mark.parametrize("k_omega", [1.0, 10.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 50, 2000])
    def test_series_matches_closed_form_where_both_hold(self, n, k_omega, eps_tilde):
        # measured at most 1.8e-14 of the largest amplitude, at n = 2000
        params, forcing = tuned_pair(n, k_omega, eps_tilde)
        series = stiff_amplitudes(params, forcing)
        closed = build_discrete_mode(params, forcing).node_amplitudes()
        assert np.max(np.abs(closed - series)) <= 1e-13 * np.max(np.abs(series))

    @pytest.mark.parametrize("n, k_omega", sorted(LARGE_N_DRIFTS))
    def test_series_matches_50_digit_reference(self, n, k_omega):
        params, forcing = tuned_pair(n, k_omega, 0.5)
        reference = LARGE_N_DRIFTS[n, k_omega]
        assert abs(chain_drift(params, forcing, stiff_amplitudes(params, forcing)) - reference) <= 1e-11 * abs(reference)

    @pytest.mark.parametrize("n, k_omega", [pytest.param(*key, marks=ITEM_8) for key in sorted(LARGE_N_DRIFTS)])
    def test_program_matches_50_digit_reference(self, n, k_omega):
        params, forcing = tuned_pair(n, k_omega, 0.5)
        reference = LARGE_N_DRIFTS[n, k_omega]
        assert abs(stroke_displacement_discrete(params, forcing).displacement - reference) <= 1e-10 * abs(reference)

    @pytest.mark.parametrize(
        "k_omega", [1e8, 1e50, 1e100, 1e150, *(pytest.param(k, marks=STIFF_UNDERFLOW) for k in (1e155, 1e160))]
    )
    @pytest.mark.parametrize("n", [1, 50, 2000])
    def test_program_stays_on_the_stiff_asymptote(self, n, k_omega):
        # at the defaults k_omega * D stays within 5.6e-12 (n = 2000, k_omega = 1e8) of the series at 1e8 up to 1e150
        params, forcing = tuned_pair(n, 1e8, DEFAULTS["eps_tilde"])
        asymptote = 1e8 * chain_drift(params, forcing, stiff_amplitudes(params, forcing))
        drift = stroke_displacement_discrete(*tuned_pair(n, k_omega, DEFAULTS["eps_tilde"])).displacement
        assert abs(k_omega * drift - asymptote) <= 1e-10 * abs(asymptote)


class TestLimitTheorem:
    @pytest.mark.parametrize("eps_tilde", [0.5, 0.999])
    @pytest.mark.parametrize("k_omega", [1e-4, 1e-3, 0.28, 10.0, 1e3])
    def test_richardson_limit_of_the_chain_is_the_continuous_kernel(self, k_omega, eps_tilde):
        # D_n = D_inf + a/n + b/n^2 + ... once the beads resolve two lengths: the arm's closest
        # approach g = L (1 - eps_tilde) and the boundary layer d = Lambda sqrt(2 k_omega). n0 is the
        # smallest 1000 * 2^j whose spacing h = Lambda/n0 meets all of
        #   h <= g/4 (64000 at eps_tilde = 0.999 for k_omega >= 0.28, where n0 = 1000 stalls at 3.9e-6),
        #   h <= d/200 (16000 at k_omega = 1e-4, eps_tilde = 0.5: the layer alone),
        #   h <= sqrt(g d)/200 (256000 at 1e-4 and 128000 at 1e-3 for eps_tilde = 0.999: an arm that
        #   nearly closes inside a thin layer, where the first two rules give 64000 and miss by 2.4e-10).
        # Chain drifts come from the closed form, not the banded solve, whose 1e-11 error the levels
        # would amplify. Three levels on n0 * (1, 2, 4, 8) measured 1.0e-13 to 6.4e-12; the bound is
        # about 3 times the worst.
        params, forcing = tuned_pair(1, k_omega, eps_tilde)
        gap, layer = forcing.L_ref * (1.0 - eps_tilde), params.Lambda * math.sqrt(2.0 * k_omega)
        n0 = 1000
        while params.Lambda / n0 > min(gap / 4.0, layer / 200.0, math.sqrt(gap * layer) / 200.0):
            n0 *= 2
        drifts = []
        for n in (n0, 2 * n0, 4 * n0, 8 * n0):
            chain = dataclasses.replace(params, n_springs=n)
            drifts.append(chain_drift(chain, forcing, build_discrete_mode(chain, forcing).node_amplitudes()))
        levels = [drifts]
        for order in (1, 2, 3):
            levels.append([(2**order * fine - coarse) / (2**order - 1) for coarse, fine in zip(levels[-1], levels[-1][1:])])
        limit = stroke_displacement_continuous(params, forcing).displacement
        a = 8 * n0 * (drifts[-1] - levels[-1][0])
        error = abs(levels[-1][0] - limit) / abs(limit)
        print(f"k_omega={k_omega:g} eps_tilde={eps_tilde} n0={n0}: D_inf={limit!r} m, a={a:.6e} m "
              f"(a/D_inf={a / limit:.4f}), relative error {error:.1e}")
        assert error <= 2e-11


class TestSweep:
    def test_single_value_matches_direct(self):
        params, forcing = default_pair(n_springs=100)
        table = sweep(params, forcing, "k_omega", [0.25])
        direct = stroke_displacement_discrete(
            params_for_k_omega(params, forcing, 0.25),
            forcing,
            mode_for(params_for_k_omega(params, forcing, 0.25), forcing),
        )
        assert table.results[0].displacement == direct.displacement
        assert table.failures == (None,)

    def test_axis_validation(self):
        params, forcing = default_pair()
        with pytest.raises(ValueError, match="axis"):
            sweep(params, forcing, "omega", [1.0])

    def test_domain_validation(self):
        params, forcing = default_pair()
        for kind in (list, np.array):  # a numpy value is named as a plain number, not np.float64(1.0)
            with pytest.raises(ValueError, match=r"^eps_tilde .*, got 1\.0$"):
                sweep(params, forcing, "eps_tilde", kind([0.5, 1.0]))
            with pytest.raises(ValueError, match=r"^k_omega .*, got -1\.0$"):
                sweep(params, forcing, "k_omega", kind([-1.0, 1.0]))
        with pytest.raises(ValueError, match=r"got np\.True_$"):  # a numpy bool is still refused, named as given
            sweep(params, forcing, "eps_tilde", np.array([True]))

    def test_values_must_increase(self):
        params, forcing = default_pair()
        with pytest.raises(ValueError, match="increasing"):
            sweep(params, forcing, "k_omega", [1.0, 1.0])

    def test_order_checked_before_any_kernel_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return stroke_displacement_discrete(*args)

        monkeypatch.setattr(displacement, "stroke_displacement_discrete", counted)
        params, forcing = default_pair(n_springs=50_000)
        with pytest.raises(ValueError, match="increasing"):
            sweep(params, forcing, "k_omega", [10.0, 1.0, 0.1])
        assert calls == []
        sweep(params, forcing, "k_omega", [0.1, 1.0, 10.0])
        assert len(calls) == 3  # the counter sees the sweep's kernel calls

    def test_backward_swimming_across_stiffness_range(self):
        # sign property: every sampled stiffness yields negative drift
        params, forcing = default_pair(n_springs=200)
        rng = np.random.default_rng(83)
        values = np.sort(10.0 ** rng.uniform(-2, 2, size=20))
        table = sweep(params, forcing, "k_omega", values)
        displacements = table.displacements()
        assert np.all(np.isfinite(displacements))
        assert np.all(displacements < 0.0)

    def test_vanishing_limits(self):
        # soft and stiff springs both immobilize the swimmer
        params, forcing = default_pair(n_springs=500)
        ends = sweep(params, forcing, "k_omega", [1e-3, 1e3])
        peak_params = params_for_k_omega(params, forcing, GRID_ARGMAX_K_OMEGA)
        peak = abs(
            stroke_displacement_discrete(
                peak_params, forcing, mode_for(peak_params, forcing)
            ).displacement
        )
        magnitudes = np.abs(ends.displacements())
        assert magnitudes[0] < 0.10 * peak
        assert magnitudes[1] < 0.01 * peak

    def test_eps_scaling_is_quadratic(self):
        params, forcing = default_pair()
        tuned = params_for_k_omega(params, forcing, 0.3765)
        values = [0.05, 0.1, 0.2, 0.4]
        table = sweep(tuned, forcing, "eps_tilde", values)
        magnitudes = np.abs(table.displacements())
        slope = np.polyfit(np.log(values), np.log(magnitudes), 1)[0]
        assert 1.9 <= slope <= 2.1
        assert slope == pytest.approx(2.058576314295466, rel=1e-8)

    def test_argbest_on_dense_grid(self):
        params, forcing = default_pair(n_springs=500)
        values = np.logspace(-2, 2, 100)
        table = sweep(params, forcing, "k_omega", values)
        best = table.argbest()
        # the peak location is stable in N well before N = 2000
        assert abs(best - GRID_ARGMAX_INDEX) <= 1

    def test_stiff_springs_on_the_asymptote(self):
        # the drift of stiff springs falls as 1/k_omega, and the banded solve stays on that line
        # to about 1e-12 up to 1e150; from about 10^156.6 its lag part underflows and the drift
        # is exactly 0.0. The closed-form chain mode, which the drift does not use, is finite
        # until k_omega n^2 overflows (see test_analytic).
        params, forcing = default_pair(n_springs=300, eps_tilde=0.4)
        values = [1e8, 1e20, 1e25, 1e30, 1e100]
        table = sweep(params, forcing, "k_omega", values)
        assert table.failures == (None,) * len(values)
        scaled = np.array(values) * table.displacements()
        assert np.all(np.abs(scaled / scaled[0] - 1.0) <= 1e-11)

    def test_argbest_empty(self):
        table = SweepTable(axis="k_omega", values=(), results=(), failures=())
        with pytest.raises(ValueError, match="no successful"):
            table.argbest()

    @staticmethod
    def table_of(displacements):
        """A k_omega table at 1, 2, ...; None marks a failed point."""
        results = tuple(None if d is None else StrokeResult(d, n=10, quadrature_points=1) for d in displacements)
        failures = tuple("failed" if d is None else None for d in displacements)
        return SweepTable("k_omega", tuple(map(float, range(1, len(results) + 1))), results, failures)

    @pytest.mark.parametrize(
        ("displacements", "best"),
        [
            ((0.0, 0.0, 0.0), None),  # nothing moves: no point is best
            ((0.0, None, -0.0), None),
            ((-1e-9, None, -3e-9, 2e-9), 2),  # the largest magnitude among the successful points
        ],
    )
    def test_argbest_still_and_failed_points(self, displacements, best):
        assert self.table_of(displacements).argbest() == best

    def test_argbest_only_failures(self):
        with pytest.raises(ValueError, match="no successful"):
            self.table_of((None, None)).argbest()


class TestWholeBox:
    """North star 3's box: n in [1, 1e5], k_omega in [1e-8, 1e8], eps_tilde in [0, 0.999]."""

    @settings(max_examples=60)
    @given(
        n=st.floats(0.0, 5.0).map(lambda u: round(10.0**u)),  # log-uniform
        k_omega=st.floats(-8.0, 8.0).map(lambda u: 10.0**u),
        eps_tilde=st.floats(0.0, 0.999),
    )
    def test_drift_is_finite_or_raises(self, n, k_omega, eps_tilde):
        # a numpy warning is an error in this suite, so a quiet overflow or NaN fails here too
        params, forcing = default_pair(n_springs=n, eps_tilde=eps_tilde)
        try:
            result = stroke_displacement_discrete(params_for_k_omega(params, forcing, k_omega), forcing)
        except ValueError:
            return
        assert type(result.displacement) is float and math.isfinite(result.displacement)


class TestSmallAmplitude:
    """ROADMAP item 6: the drift is quadratic in eps_tilde as eps_tilde -> 0."""

    @settings(max_examples=100)
    @given(
        n=st.floats(0.0, math.log10(2000)).map(lambda u: round(10.0**u)),  # log-uniform
        k_omega=st.floats(-4.0, 3.0).map(lambda u: 10.0**u),
        eps_tilde=st.floats(-8.0, -3.0).map(lambda u: 10.0**u),
    )
    def test_drift_over_eps_tilde_squared(self, n, k_omega, eps_tilde):
        # D/eps_tilde^2 leaves its eps_tilde = 1e-8 value by c eps_tilde^2: measured on 29 log-spaced k_omega
        # x 7 n, c is at most 1.96 (k_omega = 1e-4, n >= 135) and 0.75 for k_omega >= 1, the expansion of the
        # head mean's 1/(s(s + L)) with s = L sqrt(1 - eps_tilde^2). The bound takes c = 2.5, a 25% margin,
        # and 8 n eps of rounding (the worst measured was 2.9 eps, at n = 1).
        limit = stroke_displacement_discrete(*tuned_pair(n, k_omega, 1e-8)).displacement / 1e-16
        ratio = stroke_displacement_discrete(*tuned_pair(n, k_omega, eps_tilde)).displacement / eps_tilde**2
        assert abs(ratio - limit) <= (2.5 * eps_tilde**2 + 8 * n * np.finfo(float).eps) * abs(limit)


# ROADMAP item 13: at fixed k_omega the drift is a_tilde * F(n, k_omega, eps_tilde, a_tilde/a1, Lambda/L).
# k_omega stops at 1e3: the banded solve loses digits at the stiff end (ROADMAP item 8), so the
# range up to 1e8 waits for that precision fix, although at n <= 2000 the scalings held there
# too (within 23 of the units below over 150 random draws).
LOG_UNIFORM_SCALE = st.floats(-3.0, 3.0).map(lambda u: 10.0**u)
SHAPE = {
    "n": st.floats(0.0, math.log10(2000)).map(lambda u: round(10.0**u)),  # log-uniform
    "k_omega": st.floats(-6.0, 3.0).map(lambda u: 10.0**u),
    "eps_tilde": st.floats(0.0, 0.999),
}


class TestInvariances:
    """Exact scalings of the discrete drift, each at fixed k_omega (k_tilde retuned)."""

    @staticmethod
    def drift(params, forcing, k_omega):
        return stroke_displacement_discrete(params_for_k_omega(params, forcing, k_omega), forcing).displacement

    @staticmethod
    def assert_close(got, want, n, eps_tilde):
        # the tail sum rounds like n terms, and the head mean's sqrt(d^2 - |b|^2) amplifies
        # rounding by 1/(1 - eps_tilde); the worst of 600 random draws was 34 of these units
        tolerance = 64 * (n + 1.0 / (1.0 - eps_tilde)) * np.finfo(float).eps
        assert abs(got - want) <= tolerance * abs(want)

    @settings(max_examples=100)
    @given(scale=LOG_UNIFORM_SCALE, **SHAPE)
    def test_radii_scale_the_drift(self, n, k_omega, eps_tilde, scale):
        params, forcing = default_pair(n_springs=n, eps_tilde=eps_tilde)
        scaled = dataclasses.replace(params, a_tilde=scale * params.a_tilde, a1=scale * params.a1)
        want = scale * self.drift(params, forcing, k_omega)
        self.assert_close(self.drift(scaled, forcing, k_omega), want, n, eps_tilde)

    @settings(max_examples=100)
    @given(scale=LOG_UNIFORM_SCALE, **SHAPE)
    def test_lengths_leave_the_drift(self, n, k_omega, eps_tilde, scale):
        params, forcing = default_pair(n_springs=n, eps_tilde=eps_tilde)
        scaled_params = dataclasses.replace(params, Lambda=scale * params.Lambda)
        scaled_forcing = dataclasses.replace(forcing, L_ref=scale * forcing.L_ref)
        want = self.drift(params, forcing, k_omega)
        self.assert_close(self.drift(scaled_params, scaled_forcing, k_omega), want, n, eps_tilde)

    @settings(max_examples=100)
    @given(omega_scale=LOG_UNIFORM_SCALE, mu_scale=LOG_UNIFORM_SCALE, **SHAPE)
    def test_frequency_and_viscosity_leave_the_drift(self, n, k_omega, eps_tilde, omega_scale, mu_scale):
        params, forcing = default_pair(n_springs=n, eps_tilde=eps_tilde)
        scaled_params = dataclasses.replace(params, mu=mu_scale * params.mu)
        scaled_forcing = dataclasses.replace(forcing, omega=omega_scale * forcing.omega)
        want = self.drift(params, forcing, k_omega)
        self.assert_close(self.drift(scaled_params, scaled_forcing, k_omega), want, n, eps_tilde)


@pytest.mark.parametrize("kernel", [stroke_displacement_discrete, stroke_displacement_continuous])
def test_drift_holds_at_any_arm_length(kernel):
    # the arm length is squared nowhere: from 1e154 m up and 1e-154 m down its square would leave the float range
    def drift(arm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return kernel(*default_pair(L=arm)).displacement

    for arms, reference in (((1e154, 1e155, 1e300), 1e100), ((1e-200, 1e-300), 1e-100)):
        want = drift(reference)
        for arm in arms:
            assert drift(arm) == pytest.approx(want, rel=1e-12, abs=0.0), arm


class TestOptimize:
    def test_finds_the_sweep_peak(self):
        params, forcing = default_pair()
        result = optimize_k_omega(params, forcing)
        assert isinstance(result, OptimizeResult)
        assert abs(math.log10(result.k_omega_opt / GRID_ARGMAX_K_OMEGA)) < GRID_CELL_LOG10
        assert result.displacement < 0.0
        # optimum magnitude cannot fall below the best grid sample nearby
        grid_best = stroke_displacement_discrete(
            params_for_k_omega(params, forcing, GRID_ARGMAX_K_OMEGA),
            forcing,
            mode_for(params_for_k_omega(params, forcing, GRID_ARGMAX_K_OMEGA), forcing),
        ).displacement
        assert abs(result.displacement) >= abs(grid_best) * (1.0 - 1e-6)

    def test_equivalent_stiffness(self):
        params, forcing = default_pair()
        result = optimize_k_omega(params, forcing)
        expected = (
            result.k_omega_opt * 6.0 * math.pi * params.mu * params.a_tilde * forcing.omega
        )
        assert result.k_tilde_equiv == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_joint_rate_scaling(self):
        # scaling stiffness and frequency together leaves k_omega_opt fixed
        params, forcing = default_pair(n_springs=300)
        base = optimize_k_omega(params, forcing)
        scaled_forcing = dataclasses.replace(forcing, omega=10.0 * forcing.omega)
        scaled = optimize_k_omega(
            dataclasses.replace(params, k_tilde=10.0 * params.k_tilde), scaled_forcing
        )
        assert scaled.k_omega_opt == pytest.approx(base.k_omega_opt, rel=1e-3)

    def test_bracket_validation(self):
        params, forcing = default_pair()
        with pytest.raises(ValueError, match=r"^bracket must satisfy lo < hi, got \(1\.0, 0\.1\)$"):
            optimize_k_omega(params, forcing, bracket=(1.0, 0.1))
        for bracket, bad in (((1e-2, math.inf), "inf"), ((1e-2, math.nan), "nan"), ((0.0, 1e2), "0.0")):
            with pytest.raises(ValueError, match=f"^bracket must be positive and finite, got {bad}$"):
                optimize_k_omega(params, forcing, bracket=bracket)
        for rel_tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
                optimize_k_omega(params, forcing, rel_tol=rel_tol)

    def test_no_interior_extremum_detected(self):
        # |displacement| decreases on [10, 100] and increases on [1e-4, 1e-2]: the search keeps that
        # end at any tolerance, also one past ln(100/10), where no iteration runs
        params, forcing = default_pair(n_springs=100)
        for bracket in ((10.0, 100.0), (1e-4, 1e-2)):
            for rel_tol in (1e-4, 2.0, 10.0):
                with pytest.raises(ValueError, match="^no interior extremum found: the final bracket still holds"):
                    optimize_k_omega(params, forcing, bracket=bracket, rel_tol=rel_tol)

    @pytest.mark.parametrize("rel_tol", [2e-16, 1e-300])
    def test_rel_tol_below_float_spacing_fails_fast(self, rel_tol):
        # b - a stalls a few ulps above zero near ln(0.28), so such a rel_tol is never met
        params, forcing = default_pair(n_springs=20)
        with time_limit(10.0), pytest.raises(ValueError, match=r"not met in \d+ iterations"):
            optimize_k_omega(params, forcing, rel_tol=rel_tol)

    def test_rel_tol_near_float_spacing_still_converges(self):
        params, forcing = default_pair(n_springs=20)
        with time_limit(10.0):
            result = optimize_k_omega(params, forcing, rel_tol=3e-16)
        width = math.log(1e2) - math.log(1e-2)
        ideal = math.ceil(math.log(3e-16 / width) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
        assert abs(result.iterations - ideal) <= 2

    def test_reports_iteration_count(self):
        params, forcing = default_pair(n_springs=100)
        width = math.log(1e2) - math.log(1e-2)
        # at 2.0 the final bracket in ln k_omega is [-1.600, -0.257], clear of both ends: no edge
        for rel_tol in (1e-2, 2.0):
            result = optimize_k_omega(params, forcing, rel_tol=rel_tol)
            expected = math.ceil(math.log(rel_tol / width) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
            assert result.iterations == expected



# ROADMAP item 10's table: the continuum head-term optimum to 6 decimals, by a_tilde/a1
HEAD_TERM_OPTIMA = {1.0: 0.279035, 0.5: 0.325220, 0.2: 0.362615}
# |ln(optimizer k_omega / continuum head-term optimum)| over those ratios: worst measured 0.02191 at
# n = 50 and 0.00603 at n = 2000 (the tail term's share and the chain's discreteness); bound = 1.25 x worst
HEAD_TERM_GAP_BOUNDS = {50: 0.0275, 2000: 0.0075}


@functools.cache
def continuum_head_term_optimum(ratio):
    """The k_omega that maximizes the continuum head term Im W / |W|^2.

    W = q coth q + ratio/2 with q = sqrt(i/k_omega) and ratio = a_tilde/a1; the maximum is the root
    of the derivative in ln k_omega, found by mpmath.findroot from k_omega = 0.3. It shares no code
    with the drift kernel.
    """
    mpmath = pytest.importorskip("mpmath")

    def head(x):
        q = mpmath.sqrt(1j / mpmath.exp(x))
        w = q * mpmath.coth(q) + ratio / 2
        return mpmath.im(w) / abs(w) ** 2

    with mpmath.workdps(30):
        return float(mpmath.exp(mpmath.findroot(lambda x: mpmath.diff(head, x), math.log(0.3))))


class TestHeadTermOptimum:
    """The head term carries about 98% of the drift, so the optimizer sits near its continuum optimum.

    Criterion 3's window [0.35, 0.41] holds the head-term optimum only for a_tilde/a1 below about 0.29.
    """

    @pytest.mark.parametrize("ratio", sorted(HEAD_TERM_OPTIMA))
    def test_continuum_optimum_matches_the_table(self, ratio):
        assert abs(continuum_head_term_optimum(ratio) - HEAD_TERM_OPTIMA[ratio]) <= 5e-7

    @pytest.mark.parametrize("n", sorted(HEAD_TERM_GAP_BOUNDS))
    @pytest.mark.parametrize("ratio", sorted(HEAD_TERM_OPTIMA))
    def test_optimizer_near_the_head_term_optimum(self, ratio, n):
        params, forcing = default_pair(n_springs=n, a1=DEFAULTS["a_tilde"] / ratio)
        k_opt = optimize_k_omega(params, forcing).k_omega_opt
        head = continuum_head_term_optimum(ratio)
        gap = abs(math.log(k_opt / head))
        print(f"a_tilde/a1 {ratio}, n {n}: optimizer k_omega {k_opt:.6f}, head-term optimum {head:.6f}, gap {gap:.5f}")
        assert gap <= HEAD_TERM_GAP_BOUNDS[n]


# (n, a_tilde/a1) -> whether optimize_k_omega lands inside criterion 3's window [0.35, 0.41]. Measured
# optima: 0.6667, 0.4327, 0.3724, 0.3458, 0.2851 and 0.2807 for n = 1, 2, 3, 4, 50 and 2000 at the
# defaults; 0.3266, 0.3569 and 0.3638 for a_tilde/a1 = 0.5, 0.25 and 0.2 at n = 2000. a_tilde/a1 = 0.29
# (0.3516) sits too close to the edge to state a side.
CRITERION_3_CASES = {
    (1, 1.0): False, (2, 1.0): False, (3, 1.0): True, (4, 1.0): False, (50, 1.0): False,
    (2000, 1.0): False, (2000, 0.5): False, (2000, 0.25): True, (2000, 0.2): True,
}


def head_and_tail_drift(params, forcing):
    """The head term's and the tail terms' parts of the drift over one period, as _drift forms them."""
    n = params.n_springs
    amps = np.append(harmonic_state(assemble(params, forcing, MassVariant.NSPRING)), 0.0)
    b = forcing.eps + np.cumsum(amps[:n]) / n
    d = forcing.L_ref + params.h * np.arange(1, n + 1)
    scale = forcing.period * params.a_tilde * params.relaxation_rate
    head = -displacement.HEAD * scale * displacement._period_mean(amps[0], forcing.eps, forcing.L_ref)
    return head, displacement.TAIL * scale * np.sum(displacement._period_mean(amps[:n] - amps[1:], b, d))


@pytest.mark.parametrize(("n", "ratio"), sorted(CRITERION_3_CASES))
def test_which_routes_reach_the_criterion_3_window(n, ratio):
    # ROADMAP item 10: of the standing failure's parameter routes, only n = 3 and a_tilde/a1 <= 0.25
    # put the optimum in the window; n = 4 does not. The head/tail split at the optimum shows which
    # term moves with n and a_tilde/a1.
    params, forcing = default_pair(n_springs=n, a1=DEFAULTS["a_tilde"] / ratio)
    k_opt = optimize_k_omega(params, forcing).k_omega_opt
    inside = 0.35 <= k_opt <= 0.41
    tuned = params_for_k_omega(params, forcing, k_opt)
    head, tail = head_and_tail_drift(tuned, forcing)
    total = stroke_displacement_discrete(tuned, forcing).displacement
    print(
        f"n {n}, a_tilde/a1 {ratio}: optimizer k_omega {k_opt:.4f}, {'inside' if inside else 'outside'} "
        f"[0.35, 0.41]; head {head / total:.4f} and tail {tail / total:.4f} of the drift {total:.6g} m"
    )
    assert abs(head + tail - total) <= 1e-12 * abs(total)
    assert inside == CRITERION_3_CASES[n, ratio]
