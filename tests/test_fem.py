"""Assembly, mass variants and the Crank-Nicolson stepper."""

import dataclasses
import math
import re
import sys
import types

import numpy as np
import pytest

from springswim.analytic import build_discrete_mode
from springswim.fem import (
    AssembledSystem,
    CrankNicolson,
    MassVariant,
    Trajectory,
    assemble,
    harmonic_state,
    solve_transient,
    step_count,
)
from springswim.metrics import STEPS_PER_PERIOD
from springswim.model import config_from_mapping, params_for_k_omega


def default_pair(**overrides):
    return config_from_mapping(overrides)


def dense(stencil, n):
    """The full n x n matrix of a (row-0 diagonal, interior diagonal, off-diagonal) stencil."""
    first, interior, off = stencil
    full = np.zeros((n, n))
    i = np.arange(n)
    full[i, i] = interior
    full[i[:-1], i[1:]] = full[i[1:], i[:-1]] = off
    full[0, 0] = first
    return full


def bands(stencil, n):
    """The (main, super) diagonals of dense(stencil, n)."""
    full = dense(stencil, n)
    return np.diag(full), np.diag(full, 1)


def load_vector(system, t):
    """The full load vector at time t: Re(load_amplitude exp(i omega t)) at node 0, zero elsewhere."""
    f = np.zeros(system.n)
    f[0] = (system.load_amplitude * np.exp(1j * system.omega * t)).real
    return f


class TestAssembly:
    def test_size_is_n_springs(self):
        for n in (1, 16, np.int64(40)):
            params, forcing = default_pair(n_springs=n)
            for variant in MassVariant:
                system = assemble(params, forcing, variant)
                assert system.n == n
                assert dense(system.stiffness, system.n).shape == dense(system.mass, system.n).shape == (n, n)
                # the operators are stencils of three Python floats, not arrays
                assert type(system.n) is int
                assert [type(value) for value in system.stiffness + system.mass] == [float] * 6

    def test_two_spring_hand_values(self):
        params, forcing = default_pair(n_springs=2)
        system = assemble(params, forcing, MassVariant.NSPRING)
        h = params.h
        lam = params.Lambda
        k = params.relaxation_rate
        cond = lam * lam * k / h
        robin = lam * k * params.a_tilde / (2.0 * params.a1)
        (stiff_diag, stiff_off), (mass_diag, mass_off) = bands(system.stiffness, 2), bands(system.mass, 2)
        assert np.allclose(stiff_diag, [cond + robin, 2.0 * cond], rtol=1e-14)
        assert np.allclose(stiff_off, [-cond], rtol=1e-14)
        assert np.allclose(mass_diag, [h, h])
        assert np.all(mass_off == 0.0)

    def test_mass_variants(self):
        params, forcing = default_pair(n_springs=5)
        h = params.h
        nspring_diag, _ = bands(assemble(params, forcing, MassVariant.NSPRING).mass, 5)
        assert np.allclose(nspring_diag, h)
        trap_diag, trap_off = bands(assemble(params, forcing, MassVariant.TRAPEZOID).mass, 5)
        assert trap_diag[0] == pytest.approx(0.5 * h, rel=1e-15)
        assert np.allclose(trap_diag[1:], h)
        assert np.all(trap_off == 0.0)
        cons_diag, cons_off = bands(assemble(params, forcing, MassVariant.CONSISTENT).mass, 5)
        assert cons_diag[0] == pytest.approx(h / 3.0, rel=1e-15)
        assert np.allclose(cons_diag[1:], 2.0 * h / 3.0)
        assert np.allclose(cons_off, h / 6.0)

    def test_stiffness_positive_definite(self):
        params, forcing = default_pair(n_springs=64)
        system = assemble(params, forcing, MassVariant.CONSISTENT)
        eigenvalues = np.linalg.eigvalsh(dense(system.stiffness, system.n))
        assert eigenvalues.min() > 0.0

    def test_mass_matrices_positive_definite(self):
        params, forcing = default_pair(n_springs=32)
        for variant in MassVariant:
            mass = assemble(params, forcing, variant).mass
            assert np.linalg.eigvalsh(dense(mass, 32)).min() > 0.0

    def test_load_vector(self):
        params, forcing = default_pair(n_springs=6)
        system = assemble(params, forcing, MassVariant.TRAPEZOID)
        lam = params.Lambda
        quarter = 0.5 * math.pi / forcing.omega
        expected = (lam / 2.0) * forcing.L_ref * forcing.eps_tilde * forcing.omega
        assert system.load_amplitude.real == 0.0  # f_0(0) = 0: the load is a pure sine
        assert system.load_amplitude == pytest.approx(-1j * expected, rel=1e-12)
        f = load_vector(system, quarter)
        assert f[0] == pytest.approx(expected, rel=1e-12)
        assert not np.any(f[1:])

    def test_nspring_rows_match_component_equations(self):
        # matrix form M u' + A u = f against the per-node spring equations
        params, forcing = default_pair(n_springs=20)
        system = assemble(params, forcing, MassVariant.NSPRING)
        rng = np.random.default_rng(17)
        n = params.n_springs
        h = params.h
        lam = params.Lambda
        k = params.relaxation_rate
        for t in (0.0, 0.7, 2.9):
            u = rng.normal(size=n)
            du = rng.normal(size=n)
            matrix_residual = (
                dense(system.mass, n) @ du + dense(system.stiffness, n) @ u - load_vector(system, t)
            )

            full = np.concatenate([u, [0.0]])
            component = np.empty(n)
            component[0] = h * du[0] - (
                lam * lam * k * (full[1] - full[0]) / h
                - lam * k * params.a_tilde / (2.0 * params.a1) * full[0]
                - (lam / 2.0) * float(forcing.arm_velocity(t))
            )
            for j in range(2, n + 1):
                component[j - 1] = h * du[j - 1] - lam * lam * k * (
                    full[j - 2] - 2.0 * full[j - 1] + full[j]
                ) / (h * h) * h
            scale = np.max(np.abs(matrix_residual)) + 1e-300
            assert np.max(np.abs(matrix_residual - component)) <= 1e-12 * scale

    def test_single_spring_assembly(self):
        params, forcing = default_pair(n_springs=1)
        system = assemble(params, forcing, MassVariant.CONSISTENT)
        stiff_diag, stiff_off = bands(system.stiffness, system.n)
        assert stiff_diag.shape == (1,)
        assert stiff_off.shape == (0,)
        assert system.mass[0] == pytest.approx(params.h / 3.0, rel=1e-15)

    @pytest.mark.parametrize("variant", ["nspring", None, [MassVariant.NSPRING]], ids=repr)
    def test_rejects_a_variant_that_is_not_a_mass_variant(self, variant):
        params, forcing = default_pair(n_springs=3)
        with pytest.raises(ValueError, match="unknown mass variant"):
            assemble(params, forcing, variant)


class TestHarmonicState:
    def test_nspring_orbit_equals_closed_form(self):
        params, forcing = default_pair(n_springs=100)
        system = assemble(params, forcing, MassVariant.NSPRING)
        amps = harmonic_state(system)
        closed = build_discrete_mode(params, forcing).node_amplitudes()[:-1]
        assert np.max(np.abs(amps - closed)) <= 1e-10 * np.max(np.abs(closed))

    def test_solves_the_complex_system(self):
        params, forcing = default_pair(n_springs=37)
        for variant in MassVariant:
            system = assemble(params, forcing, variant)
            u = harmonic_state(system)
            omega = forcing.omega
            matrix = 1j * omega * dense(system.mass, system.n) + dense(system.stiffness, system.n)
            rhs = np.zeros(params.n_springs, dtype=complex)
            rhs[0] = -(params.Lambda / 2.0) * 1j * omega * forcing.eps
            residual = matrix @ u - rhs
            assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(rhs))

    def test_zero_forcing_zero_orbit(self):
        params, forcing = default_pair(n_springs=12, eps_tilde=0.0)
        system = assemble(params, forcing, MassVariant.CONSISTENT)
        assert np.all(harmonic_state(system) == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 60, 2000])
    @pytest.mark.parametrize("variant", list(MassVariant), ids=lambda variant: variant.value)
    def test_bit_identical_to_solve_banded(self, variant, n):
        from scipy.linalg import solve_banded

        params, forcing = default_pair(n_springs=n)
        for k_omega in (1e-8, 0.28, 1e8):
            system = assemble(params_for_k_omega(params, forcing, k_omega), forcing, variant)
            omega = forcing.omega
            ab = np.zeros((3, n), dtype=complex)
            (mass_diag, mass_off), (stiff_diag, stiff_off) = bands(system.mass, n), bands(system.stiffness, n)
            ab[1] = 1j * omega * mass_diag + stiff_diag
            ab[0, 1:] = ab[2, :-1] = 1j * omega * mass_off + stiff_off
            rhs = np.zeros(n, dtype=complex)
            rhs[0] = system.load_amplitude
            expected = solve_banded((1, 1), ab, rhs)
            assert harmonic_state(system).tobytes() == expected.tobytes(), k_omega

    @pytest.mark.parametrize("n", [1, 5])
    def test_non_finite_system_rejected(self, n):
        params, forcing = default_pair(n_springs=n)
        system = assemble(params, forcing, MassVariant.CONSISTENT)
        first, interior, off = system.stiffness
        bad_diag = (first, math.nan, off) if n > 1 else (math.nan, interior, off)  # the last diagonal entry
        cases = [
            dataclasses.replace(system, stiffness=bad_diag),
            dataclasses.replace(system, load_amplitude=complex(math.inf, 0.0)),
        ]
        if n > 1:
            cases.append(dataclasses.replace(system, stiffness=(first, interior, math.inf)))
        else:  # the unread interior entry is checked too
            cases.append(dataclasses.replace(system, stiffness=(first, math.nan, off)))
        for case in cases:  # both solvers refuse it, neither steps it into NaN rows
            with pytest.raises(ValueError, match="harmonic system must not contain infs or NaNs"):
                harmonic_state(case)
            with pytest.raises(ValueError, match="Crank-Nicolson system must not contain infs or NaNs"):
                CrankNicolson(case, forcing.period / 64)
        # omega M overflows from finite omega and M: refused before numpy forms it, which would warn
        with pytest.raises(ValueError, match="harmonic system must not contain infs or NaNs"):
            harmonic_state(dataclasses.replace(system, omega=1e300, mass=(1e10,) * 3))

    def test_singular_system_rejected(self):
        # [[1, 1], [1, 1]] with no mass term: elimination leaves an exact zero pivot
        params, forcing = default_pair(n_springs=2)
        system = assemble(params, forcing, MassVariant.NSPRING)
        singular = dataclasses.replace(
            system,
            stiffness=(1.0, 1.0, 1.0),
            mass=(0.0, 0.0, 0.0),
        )
        with pytest.raises(np.linalg.LinAlgError, match="zgtsv info=2"):
            harmonic_state(singular)


class TestCrankNicolson:
    @pytest.mark.parametrize("n", [1, 2, 6, 200])
    @pytest.mark.parametrize("variant", list(MassVariant), ids=lambda variant: variant.value)
    def test_step_matches_dense_solve(self, variant, n):
        params, forcing = default_pair(n_springs=n)
        system = assemble(params, forcing, variant)
        dt = forcing.period / 64
        stepper = CrankNicolson(system, dt)
        rng = np.random.default_rng(29)
        state = rng.normal(0.0, 1e-6, size=n)
        t = 0.45
        mass = dense(system.mass, n)
        stiff = dense(system.stiffness, n)
        rhs = (mass - 0.5 * dt * stiff) @ state + 0.5 * dt * (
            load_vector(system, t) + load_vector(system, t + dt)
        )
        expected = np.linalg.solve(mass + 0.5 * dt * stiff, rhs)
        assert np.allclose(stepper.step(state, t), expected, rtol=1e-12, atol=1e-20)

    def test_rejects_bad_dt(self):
        params, forcing = default_pair(n_springs=4)
        system = assemble(params, forcing, MassVariant.NSPRING)
        with pytest.raises(ValueError, match="dt"):
            CrankNicolson(system, 0.0)

    def test_rejects_non_spd_system(self):
        params, forcing = default_pair(n_springs=4)
        system = assemble(params, forcing, MassVariant.NSPRING)
        first, interior, off = system.mass
        negative = dataclasses.replace(system, mass=(-first, -interior, off))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            CrankNicolson(negative, forcing.period / 64)

    def test_unforced_energy_decays(self):
        params, forcing = default_pair(n_springs=30, eps_tilde=0.0)
        for variant in MassVariant:
            system = assemble(params, forcing, variant)
            stepper = CrankNicolson(system, forcing.period / 256)
            rng = np.random.default_rng(31)
            state = rng.normal(0.0, 1e-6, size=30)
            energy = state @ dense(system.mass, 30) @ state
            for step in range(40):
                state = stepper.step(state, step * stepper.dt)
                updated = state @ dense(system.mass, 30) @ state
                assert updated < energy
                energy = updated

    def test_period_error_quarters_when_dt_halves(self):
        params, forcing = default_pair(n_springs=50)
        system = assemble(params, forcing, MassVariant.NSPRING)
        amps = harmonic_state(system)
        start = np.concatenate([amps.real, [0.0]])

        def orbit_error(steps):
            trajectory = solve_transient(
                system, start, forcing.period, forcing.period / steps, sample_every=steps
            )
            return float(np.max(np.abs(trajectory.values[-1] - start)))

        ratio = orbit_error(128) / orbit_error(256)
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("nsteps, sample_every", [(64, 1), (64, 16), (10, 3), (1, 1)])
    @pytest.mark.parametrize("n", [1, 2, 9, 200])
    @pytest.mark.parametrize("variant", list(MassVariant), ids=lambda variant: variant.value)
    def test_samples_bit_equal_to_convolve_loop(self, variant, n, nsteps, sample_every):
        params, forcing = default_pair(n_springs=n)
        system = assemble(params, forcing, variant)
        stepper = CrankNicolson(system, forcing.period / 64)
        state = np.random.default_rng(37).normal(0.0, 1e-6, size=n)
        expected = list(convolve_samples(dense_setup(system, stepper.dt), state.copy(), nsteps, sample_every))
        got = list(stepper.samples(state, nsteps, sample_every))
        assert [t for t, _ in got] == [k * stepper.dt for k in range(0, nsteps + 1, sample_every)]
        assert [t for t, _ in got] == [t for t, _ in expected]
        assert [row.tobytes() for _, row in got] == [row.tobytes() for _, row in expected]


def dense_setup(system, dt):
    """Crank-Nicolson's step data built apart from CrankNicolson.__init__: the stencil and row-0
    corner of M - dt/2 A from rows 0 and 1 of the dense matrices (row 0 alone at n = 1), the
    LDL^T bands of M + dt/2 A from scipy's dpttrf, and the node-0 load
    G = dt/2 * F_0 * (1 + exp(i omega dt)) as |G| and arg G."""
    from scipy.linalg import lapack

    mass, stiff = dense(system.mass, system.n), dense(system.stiffness, system.n)
    minus, plus = mass - 0.5 * dt * stiff, mass + 0.5 * dt * stiff
    n = minus.shape[0]
    interior, coupling = (minus[1, 1], minus[0, 1]) if n > 1 else (minus[0, 0], 0.0)
    d, e, info = lapack.dpttrf(np.diag(plus).copy(), np.diag(plus, 1).copy() if n > 1 else np.zeros(1))
    assert info == 0
    omega = system.omega
    g = 0.5 * dt * system.load_amplitude * (1.0 + complex(math.cos(omega * dt), math.sin(omega * dt)))
    return types.SimpleNamespace(
        dt=dt, omega=omega, stencil=np.array([coupling, interior, coupling]), corner=minus[0, 0] - interior,
        d=d, e=e, load_abs=abs(g), load_arg=math.atan2(g.imag, g.real), dpttrs=lapack.dpttrs,
    )


def convolve_samples(setup, state, nsteps, sample_every):
    """Reference for CrankNicolson.samples on dense_setup's data: each step's right-hand side by
    np.convolve, dpttrs with the keyword overwrite_b, every step taken, and a modulo test after each one."""

    def step(state, t):
        rhs = np.convolve(state, setup.stencil)[1:-1]
        rhs[0] += setup.corner * state[0] + setup.load_abs * math.cos(setup.omega * t + setup.load_arg)
        u, info = setup.dpttrs(setup.d, setup.e, rhs, overwrite_b=True)
        assert info == 0
        return u

    yield 0.0, np.append(state, 0.0)
    for k in range(nsteps):
        state = step(state, k * setup.dt)
        if (k + 1) % sample_every == 0:
            yield (k + 1) * setup.dt, np.append(state, 0.0)


class TestSolveTransient:
    def test_shapes_and_sampling(self):
        params, forcing = default_pair(n_springs=10)
        system = assemble(params, forcing, MassVariant.NSPRING)
        trajectory = solve_transient(system, None, forcing.period, forcing.period / 32, sample_every=4)
        assert isinstance(trajectory, Trajectory)
        assert trajectory.values.shape == (9, 11)
        assert trajectory.times.shape == (9,)
        assert trajectory.times[0] == 0.0
        assert trajectory.times[-1] == pytest.approx(forcing.period, rel=1e-12)
        assert np.all(trajectory.values[0] == 0.0)  # zero initial data by default
        assert np.all(trajectory.values[:, -1] == 0.0)  # pinned column

    def test_initial_field_used(self):
        params, forcing = default_pair(n_springs=6, eps_tilde=0.0)
        system = assemble(params, forcing, MassVariant.NSPRING)
        start = np.array([1e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        trajectory = solve_transient(system, start, forcing.period / 16, forcing.period / 64)
        assert np.array_equal(trajectory.values[0], start)
        # diffusion spreads and decays the bump
        assert abs(trajectory.values[-1][0]) < 1e-6

    @pytest.mark.parametrize("variant", list(MassVariant), ids=lambda variant: variant.value)
    def test_matches_dense_stepping(self, variant):
        # reference: the Crank-Nicolson recurrence with dense matrices and a dense solve per step
        params, forcing = default_pair(n_springs=9)
        system = assemble(params, forcing, variant)
        dt = forcing.period / 64
        trajectory = solve_transient(system, None, forcing.period, dt)
        mass, stiff = dense(system.mass, 9), dense(system.stiffness, 9)
        state = np.zeros(params.n_springs)
        for k in range(64):
            t = k * dt
            rhs = (mass - 0.5 * dt * stiff) @ state + 0.5 * dt * (
                load_vector(system, t) + load_vector(system, t + dt)
            )
            state = np.linalg.solve(mass + 0.5 * dt * stiff, rhs)
            scale = np.max(np.abs(state))
            assert np.max(np.abs(trajectory.values[k + 1, :-1] - state)) <= 1e-12 * scale

    def test_rejects_misaligned_times(self):
        params, forcing = default_pair(n_springs=4)
        system = assemble(params, forcing, MassVariant.NSPRING)
        with pytest.raises(ValueError, match="divide"):
            solve_transient(system, None, 1.0, 0.3)
        with pytest.raises(ValueError, match="sample_every"):
            solve_transient(system, None, 1.0, 0.125, sample_every=3)
        for t_end, dt, name in [
            (1.0, 0.0, "dt"), (1.0, -0.25, "dt"), (1.0, math.inf, "dt"), (1.0, math.nan, "dt"),
            (0.0, 0.25, "t_end"), (-1.0, 0.25, "t_end"), (math.inf, 0.25, "t_end"), (math.nan, 0.25, "t_end"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                solve_transient(system, None, t_end, dt)

    def test_rejects_step_counts_past_the_index_limit(self):
        # t_end / dt overflows, or its count does not fit the index np.fromiter fills
        params, forcing = default_pair(n_springs=4)
        system = assemble(params, forcing, MassVariant.NSPRING)
        for t_end, dt in [(1e300, 1e-10), (1.0, 1e-300), (2.0**63, 1.0)]:
            message = f"dt={dt!r} must divide t_end={t_end!r} into 1 to sys.maxsize={sys.maxsize} steps"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                solve_transient(system, None, t_end, dt)

    def test_step_count_below_the_index_limit(self):
        assert step_count(2.0**62, 1.0) == 2**62  # counted, never stepped

    def test_sample_every_integral_types(self):
        params, forcing = default_pair(n_springs=4)
        system = assemble(params, forcing, MassVariant.NSPRING)
        dt = forcing.period / 64
        expected = solve_transient(system, None, forcing.period, dt, sample_every=8)
        for sample_every in (np.int64(8), np.int32(8)):
            trajectory = solve_transient(system, None, forcing.period, dt, sample_every=sample_every)
            assert np.array_equal(trajectory.times, expected.times)
            assert np.array_equal(trajectory.values, expected.values)
        for sample_every in (True, np.True_, 8.0, 0, -8):
            with pytest.raises(ValueError, match="sample_every"):
                solve_transient(system, None, forcing.period, dt, sample_every=sample_every)

    def test_rejects_wrong_length(self):
        params, forcing = default_pair(n_springs=4)
        system = assemble(params, forcing, MassVariant.NSPRING)
        for initial in (np.zeros(4), np.zeros(6), np.zeros((1, 5))):
            with pytest.raises(ValueError, match="node values"):
                solve_transient(system, initial, 1.0, 0.25)

    def test_rejects_nonzero_far_end(self):
        params, forcing = default_pair(n_springs=3)
        system = assemble(params, forcing, MassVariant.NSPRING)
        with pytest.raises(ValueError, match="zero"):
            solve_transient(system, np.array([1.0, 2.0, 3.0, 1e-300]), 1.0, 0.25)

    def test_convergence_toward_periodic_orbit(self):
        # from zero data the transient decays onto the harmonic orbit
        params, forcing = default_pair(n_springs=40)
        system = assemble(params, forcing, MassVariant.NSPRING)
        amps = harmonic_state(system)
        periods = 8
        steps = 256 * periods
        trajectory = solve_transient(
            system, None, periods * forcing.period, forcing.period / 256, sample_every=steps
        )
        orbit = np.concatenate([amps.real, [0.0]])  # Re(amps * e^{0}) after whole periods
        gap = np.max(np.abs(trajectory.values[-1] - orbit))
        assert gap <= 0.02 * np.max(np.abs(orbit))


def scheme_orbit(system, dt):
    """The Crank-Nicolson scheme's own periodic orbit at t = 0, n+1 node values (ROADMAP item 3).

    Put u_k = Re(U z^k), z = exp(i omega dt), into the step and divide by (z + 1) dt/2: U solves
    (i w M + A) U = F with w = (2/dt) tan(omega dt/2) and the load amplitude F unchanged.
    """
    warped = dataclasses.replace(system, omega=(2.0 / dt) * math.tan(0.5 * system.omega * dt))
    return np.append(harmonic_state(warped).real, 0.0)


def max_rel(values, reference):
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


class TestSchemeOrbit:
    @pytest.mark.parametrize("n", [25, 200])
    @pytest.mark.parametrize("variant", list(MassVariant))
    def test_one_period_returns_the_scheme_orbit(self, variant, n):
        # measured <= 1.5e-13 for every variant at n in {25, 200}, with 1024 or 16384 steps
        params, forcing = default_pair(n_springs=n)
        system = assemble(params, forcing, variant)
        dt = forcing.period / 1024
        orbit = scheme_orbit(system, dt)
        end = solve_transient(system, orbit, forcing.period, dt, sample_every=1024).values[-1]
        assert max_rel(end, orbit) <= 1e-12

    @pytest.mark.parametrize("n", [25, 200, 800])
    @pytest.mark.parametrize("variant", [MassVariant.TRAPEZOID, MassVariant.CONSISTENT])
    def test_convergence_study_steps_onto_the_scheme_orbit(self, variant, n):
        # convergence_study's period of steps from the continuous orbit, which starts 7.6e-9 from
        # the scheme's own, ends 2.12e-9 from it for both variants and every n here
        params, forcing = default_pair(n_springs=n)
        system = assemble(params, forcing, variant)
        dt = forcing.period / STEPS_PER_PERIOD
        start = np.append(harmonic_state(system).real, 0.0)
        end = solve_transient(system, start, forcing.period, dt, sample_every=STEPS_PER_PERIOD).values[-1]
        orbit = scheme_orbit(system, dt)
        print(f"{variant.value} n={n}: start {max_rel(start, orbit):.3g}, stepped {max_rel(end, orbit):.3g} off")
        assert max_rel(end, orbit) <= 3e-9


class TestAssembledSystem:
    def test_is_frozen_dataclass(self):
        params, forcing = default_pair(n_springs=3)
        system = assemble(params, forcing, MassVariant.NSPRING)
        assert isinstance(system, AssembledSystem)
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.mass = None

    def test_fields_carry_omega_not_the_forcing(self):
        params, forcing = default_pair(n_springs=3, omega=7.0)
        system = assemble(params, forcing, MassVariant.NSPRING)
        assert [field.name for field in dataclasses.fields(AssembledSystem)] == [
            "n", "stiffness", "mass", "omega", "load_amplitude"
        ]
        assert system.omega == forcing.omega == 7.0
