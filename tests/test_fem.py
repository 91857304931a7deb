"""Assembly, mass variants and the Crank-Nicolson stepper."""

import dataclasses
import math

import numpy as np
import pytest

from springswim.analytic import build_discrete_mode
from springswim.fem import (
    AssembledSystem,
    CrankNicolson,
    ElongationField,
    MassVariant,
    SymTridiag,
    Trajectory,
    UniformGrid,
    assemble,
    harmonic_state,
    solve_transient,
)
from springswim.model import config_from_mapping


def default_pair(**overrides):
    return config_from_mapping(overrides)


def dense(matrix):
    """The full matrix of a SymTridiag."""
    full = np.diag(matrix.diag)
    if matrix.off.size:
        full += np.diag(matrix.off, 1) + np.diag(matrix.off, -1)
    return full


def load_vector(system, t):
    """The full load vector at time t: Re(load_amplitude exp(i omega t)) at node 0, zero elsewhere."""
    f = np.zeros(system.grid.n)
    f[0] = (system.load_amplitude * np.exp(1j * system.forcing.omega * t)).real
    return f


def random_field(grid, rng, scale=1.0):
    values = rng.normal(0.0, scale, grid.n + 1)
    values[-1] = 0.0
    return ElongationField(grid, values)


class TestGridAndField:
    def test_nodes(self):
        grid = UniformGrid(n=4, spacing=0.25, length=1.0)
        assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_consistency_enforced(self):
        with pytest.raises(ValueError, match="length"):
            UniformGrid(n=4, spacing=0.3, length=1.0)
        with pytest.raises(ValueError, match="spacing"):
            UniformGrid(n=4, spacing=-0.25, length=-1.0)
        with pytest.raises(ValueError, match="element"):
            UniformGrid(n=0, spacing=0.25, length=0.0)

    def test_grid_for_params(self):
        params, forcing = default_pair(n_springs=16)
        grid = assemble(params, forcing, MassVariant.NSPRING).grid
        assert grid.spacing == params.h
        assert grid.n == 16
        assert grid.length == params.Lambda
        assert grid.nodes[-1] == pytest.approx(params.Lambda, rel=1e-15)

    def test_field_shape_checked(self):
        grid = UniformGrid(n=3, spacing=0.5, length=1.5)
        with pytest.raises(ValueError, match="node values"):
            ElongationField(grid, np.zeros(3))

    def test_field_pinned_end_checked(self):
        grid = UniformGrid(n=3, spacing=0.5, length=1.5)
        with pytest.raises(ValueError, match="zero"):
            ElongationField(grid, np.array([1.0, 2.0, 3.0, 1e-300]))


class TestSymTridiag:
    def test_add_scaled(self):
        rng = np.random.default_rng(4)
        a = SymTridiag(rng.normal(size=5), rng.normal(size=4))
        b = SymTridiag(rng.normal(size=5), rng.normal(size=4))
        combo = a.add_scaled(b, -0.3)
        assert np.allclose(dense(combo), dense(a) - 0.3 * dense(b), rtol=1e-14)


class TestAssembly:
    def test_two_spring_hand_values(self):
        params, forcing = default_pair(n_springs=2)
        system = assemble(params, forcing, MassVariant.NSPRING)
        h = params.h
        lam = params.Lambda
        k = params.relaxation_rate
        cond = lam * lam * k / h
        robin = lam * k * params.a_tilde / (2.0 * params.a1)
        assert np.allclose(system.stiffness.diag, [cond + robin, 2.0 * cond], rtol=1e-14)
        assert np.allclose(system.stiffness.off, [-cond], rtol=1e-14)
        assert np.allclose(system.mass.diag, [h, h])
        assert np.all(system.mass.off == 0.0)

    def test_mass_variants(self):
        params, forcing = default_pair(n_springs=5)
        h = params.h
        nspring = assemble(params, forcing, MassVariant.NSPRING).mass
        assert np.allclose(nspring.diag, h)
        trap = assemble(params, forcing, MassVariant.TRAPEZOID).mass
        assert trap.diag[0] == pytest.approx(0.5 * h, rel=1e-15)
        assert np.allclose(trap.diag[1:], h)
        assert np.all(trap.off == 0.0)
        cons = assemble(params, forcing, MassVariant.CONSISTENT).mass
        assert cons.diag[0] == pytest.approx(h / 3.0, rel=1e-15)
        assert np.allclose(cons.diag[1:], 2.0 * h / 3.0)
        assert np.allclose(cons.off, h / 6.0)

    def test_stiffness_positive_definite(self):
        params, forcing = default_pair(n_springs=64)
        system = assemble(params, forcing, MassVariant.CONSISTENT)
        eigenvalues = np.linalg.eigvalsh(dense(system.stiffness))
        assert eigenvalues.min() > 0.0

    def test_mass_matrices_positive_definite(self):
        params, forcing = default_pair(n_springs=32)
        for variant in MassVariant:
            mass = assemble(params, forcing, variant).mass
            assert np.linalg.eigvalsh(dense(mass)).min() > 0.0

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
                dense(system.mass) @ du + dense(system.stiffness) @ u - load_vector(system, t)
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
        assert system.stiffness.diag.shape == (1,)
        assert system.stiffness.off.shape == (0,)
        assert system.mass.diag[0] == pytest.approx(params.h / 3.0, rel=1e-15)


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
            matrix = 1j * omega * dense(system.mass) + dense(system.stiffness)
            rhs = np.zeros(system.grid.n, dtype=complex)
            rhs[0] = -(params.Lambda / 2.0) * 1j * omega * forcing.eps
            residual = matrix @ u - rhs
            assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(rhs))

    def test_zero_forcing_zero_orbit(self):
        params, forcing = default_pair(n_springs=12, eps_tilde=0.0)
        system = assemble(params, forcing, MassVariant.CONSISTENT)
        assert np.all(harmonic_state(system) == 0.0)


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
        mass = dense(system.mass)
        stiff = dense(system.stiffness)
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
        negative = dataclasses.replace(system, mass=SymTridiag(-system.mass.diag, system.mass.off))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            CrankNicolson(negative, forcing.period / 64)

    def test_rejects_nonuniform_stencil(self):
        params, forcing = default_pair(n_springs=6)
        system = assemble(params, forcing, MassVariant.NSPRING)
        diag = system.mass.diag.copy()
        diag[3] *= 1.5
        bumped = dataclasses.replace(system, mass=SymTridiag(diag, system.mass.off))
        with pytest.raises(ValueError, match="uniform"):
            CrankNicolson(bumped, forcing.period / 64)

    def test_unforced_energy_decays(self):
        params, forcing = default_pair(n_springs=30, eps_tilde=0.0)
        for variant in MassVariant:
            system = assemble(params, forcing, variant)
            stepper = CrankNicolson(system, forcing.period / 256)
            rng = np.random.default_rng(31)
            state = rng.normal(0.0, 1e-6, size=30)
            energy = state @ dense(system.mass) @ state
            for step in range(40):
                state = stepper.step(state, step * stepper.dt)
                updated = state @ dense(system.mass) @ state
                assert updated < energy
                energy = updated

    def test_period_error_quarters_when_dt_halves(self):
        params, forcing = default_pair(n_springs=50)
        system = assemble(params, forcing, MassVariant.NSPRING)
        amps = harmonic_state(system)
        start = ElongationField(system.grid, np.concatenate([amps.real, [0.0]]))

        def orbit_error(steps):
            trajectory = solve_transient(
                system, start, forcing.period, forcing.period / steps, sample_every=steps
            )
            return float(np.max(np.abs(trajectory.values[-1] - start.values)))

        ratio = orbit_error(128) / orbit_error(256)
        assert 3.5 <= ratio <= 4.5


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
        for row in trajectory.values:
            ElongationField(trajectory.grid, row)  # raises unless a valid pinned field

    def test_initial_field_used(self):
        params, forcing = default_pair(n_springs=6, eps_tilde=0.0)
        system = assemble(params, forcing, MassVariant.NSPRING)
        start = ElongationField(system.grid, np.array([1e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        trajectory = solve_transient(system, start, forcing.period / 16, forcing.period / 64)
        assert np.array_equal(trajectory.values[0], start.values)
        # diffusion spreads and decays the bump
        assert abs(trajectory.values[-1][0]) < 1e-6

    @pytest.mark.parametrize("variant", list(MassVariant), ids=lambda variant: variant.value)
    def test_matches_dense_stepping(self, variant):
        # reference: the Crank-Nicolson recurrence with dense matrices and a dense solve per step
        params, forcing = default_pair(n_springs=9)
        system = assemble(params, forcing, variant)
        dt = forcing.period / 64
        trajectory = solve_transient(system, None, forcing.period, dt)
        mass, stiff = dense(system.mass), dense(system.stiffness)
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

    def test_rejects_foreign_grid(self):
        params, forcing = default_pair(n_springs=4)
        system = assemble(params, forcing, MassVariant.NSPRING)
        other = UniformGrid(n=4, spacing=1.0, length=4.0)
        bad = ElongationField(other, np.zeros(5))
        with pytest.raises(ValueError, match="grid"):
            solve_transient(system, bad, 1.0, 0.25)

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


class TestAssembledSystem:
    def test_is_frozen_dataclass(self):
        params, forcing = default_pair(n_springs=3)
        system = assemble(params, forcing, MassVariant.NSPRING)
        assert isinstance(system, AssembledSystem)
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.grid = None
