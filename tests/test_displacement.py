"""Stroke displacement: formulas, sweeps and the k_omega optimizer."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from springswim import displacement
from springswim.analytic import build_continuous_mode, build_discrete_mode
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
from springswim.model import config_from_mapping, derive_groups, params_for_k_omega

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
        assert result.k_omega == pytest.approx(0.05960859291831286, rel=1e-12)

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

    def test_unphysical_amplitudes_rejected(self, monkeypatch):
        # oscillations this large drive a cumulative arm length through zero
        params, forcing = default_pair(n_springs=20)
        mode = mode_for(params, forcing)
        monkeypatch.setattr(displacement, "harmonic_state", lambda system: np.full(20, -40.0 * params.L))
        with pytest.raises(ValueError, match="unphysical"):
            stroke_displacement_discrete(params, forcing, mode)

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

    def test_mode_mismatch_rejected(self):
        params, forcing = default_pair(n_springs=20)
        other = dataclasses.replace(params, n_springs=21)
        with pytest.raises(ValueError, match="n="):
            stroke_displacement_discrete(other, forcing, mode_for(params, forcing))

    def test_result_finiteness_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            StrokeResult(
                displacement=math.inf, eps_tilde=0.7, k_omega=1.0, omega=1.0, n=10,
                quadrature_points=256,
            )


class TestStrokeContinuous:
    def test_zero_amplitude(self):
        params, forcing = default_pair(eps_tilde=0.0)
        mode = build_continuous_mode(params, forcing)
        result = stroke_displacement_continuous(params, forcing, mode)
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

        result = stroke_displacement_continuous(params, forcing, mode)
        assert result.quadrature_points == 1
        assert abs(result.displacement - expected) <= 1e-12 * abs(expected)

    def test_length_mismatch_rejected(self):
        params, forcing = default_pair()
        mode = build_continuous_mode(params, forcing)
        stretched = dataclasses.replace(params, Lambda=2.0 * params.Lambda)
        with pytest.raises(ValueError, match="length"):
            stroke_displacement_continuous(stretched, forcing, mode)

    def test_discrete_approaches_continuous(self):
        params, forcing = default_pair()
        tuned = params_for_k_omega(params, forcing, GRID_ARGMAX_K_OMEGA)
        continuous = stroke_displacement_continuous(
            tuned, forcing, build_continuous_mode(tuned, forcing)
        ).displacement
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
        limit = stroke_displacement_continuous(
            tuned, forcing, build_continuous_mode(tuned, forcing)
        ).displacement
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
        with pytest.raises(ValueError, match="eps_tilde"):
            sweep(params, forcing, "eps_tilde", [0.5, 1.0])
        with pytest.raises(ValueError, match="k_omega"):
            sweep(params, forcing, "k_omega", [-1.0, 1.0])

    def test_values_must_increase(self):
        params, forcing = default_pair()
        with pytest.raises(ValueError, match="increasing"):
            sweep(params, forcing, "k_omega", [1.0, 1.0])

    def test_table_alignment_enforced(self):
        with pytest.raises(ValueError, match="align"):
            SweepTable(axis="k_omega", values=(1.0,), results=(), failures=(None,))

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

    def test_argbest_empty(self):
        table = SweepTable(axis="k_omega", values=(), results=(), failures=())
        with pytest.raises(ValueError, match="no successful"):
            table.argbest()


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
        with pytest.raises(ValueError, match="bracket"):
            optimize_k_omega(params, forcing, bracket=(1.0, 0.1))
        with pytest.raises(ValueError, match="rel_tol"):
            optimize_k_omega(params, forcing, rel_tol=0.0)

    def test_no_interior_extremum_detected(self):
        # |displacement| is decreasing on [10, 100]; the search hits the edge
        params, forcing = default_pair(n_springs=100)
        with pytest.raises(ValueError, match="interior"):
            optimize_k_omega(params, forcing, bracket=(10.0, 100.0))

    def test_reports_iteration_count(self):
        params, forcing = default_pair(n_springs=100)
        result = optimize_k_omega(params, forcing, rel_tol=1e-2)
        width = math.log(1e2) - math.log(1e-2)
        expected = math.ceil(math.log(1e-2 / width) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
        assert result.iterations == expected


class TestGroupsConsistency:
    def test_stroke_result_carries_group(self):
        params, forcing = default_pair(n_springs=150)
        result = stroke_displacement_discrete(params, forcing, mode_for(params, forcing))
        assert result.k_omega == pytest.approx(
            derive_groups(params, forcing).k_omega, rel=1e-14
        )
        assert result.eps_tilde == forcing.eps_tilde
        assert result.quadrature_points == 1
