"""End-to-end acceptance checks at fixed tolerances.

Each test covers one headline claim: convergence orders of the three
mass variants, location of the optimal stiffness-to-frequency ratio,
quadratic amplitude scaling, backward net motion, closed-form mode
residuals, norm equivalence, time-stepper consistency and the
discrete-to-continuous limit. Every test prints one line with the
measured numbers before asserting, so a verbose run doubles as a
results table.
"""

import dataclasses
import math
import time

import numpy as np

from springswim import (
    MassVariant,
    assemble,
    build_continuous_mode,
    build_discrete_mode,
    convergence_study,
    fit_rate,
    optimize_k_omega,
    solve_transient,
    stroke_displacement_continuous,
    stroke_displacement_discrete,
    sweep,
)
from springswim.model import config_from_mapping, params_for_k_omega

from inner_products import norm_equivalence_check

N_SWEEP = [25, 50, 100, 200, 400, 800]
STEPS_PER_PERIOD = 16384


def defaults():
    return config_from_mapping({})


def random_cases(seed, count):
    """Seeded (params, forcing) draws across chain length and stiffness ratio."""
    rng = np.random.default_rng(seed)
    base_params, forcing = defaults()
    cases = []
    for _ in range(count):
        n = int(rng.integers(2, 1501))
        k_omega = float(10.0 ** rng.uniform(-3.0, 3.0))
        params = params_for_k_omega(
            dataclasses.replace(base_params, n_springs=n), forcing, k_omega
        )
        cases.append((params, forcing, k_omega))
    return cases


def test_criterion_01_nspring_convergence_first_order():
    params, forcing = defaults()
    start = time.perf_counter()
    records = convergence_study(params, forcing, MassVariant.NSPRING, N_SWEEP)
    l2 = fit_rate(records, "l2")
    h1 = fit_rate(records, "h1")
    elapsed = time.perf_counter() - start
    print(
        f"criterion 1: nspring L2 slope {l2.slope:.4f}, "
        f"H1 slope {h1.slope:.4f}, {elapsed:.2f}s"
    )
    assert 0.85 <= l2.slope <= 1.15, f"L2 slope {l2.slope:.4f} outside [0.85, 1.15]"
    assert 0.85 <= h1.slope <= 1.15, f"H1 slope {h1.slope:.4f} outside [0.85, 1.15]"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_02_lumped_and_galerkin_second_order():
    params, forcing = defaults()
    start = time.perf_counter()
    slopes = {}
    halving = {}
    for variant in (MassVariant.TRAPEZOID, MassVariant.CONSISTENT):
        records = convergence_study(
            params, forcing, variant, N_SWEEP, steps_per_period=STEPS_PER_PERIOD
        )
        slopes[variant.value] = fit_rate(records, "l2").slope
        # temporal resolution check at the finest grid, where the spatial
        # error is smallest and stepping error matters most
        fine = records[-1]
        refined = convergence_study(
            params, forcing, variant, [N_SWEEP[-1]], steps_per_period=2 * STEPS_PER_PERIOD
        )[0]
        halving[variant.value] = (
            abs(refined.l2_error - fine.l2_error) / fine.l2_error,
            abs(refined.h1_error - fine.h1_error) / fine.h1_error,
        )
    elapsed = time.perf_counter() - start
    print(
        "criterion 2: L2 slopes "
        + ", ".join(f"{name} {slope:.4f}" for name, slope in slopes.items())
        + "; dt-halving changes "
        + ", ".join(
            f"{name} {dl2:.2e}/{dh1:.2e}" for name, (dl2, dh1) in halving.items()
        )
        + f"; {elapsed:.2f}s"
    )
    for name, slope in slopes.items():
        assert 1.8 <= slope <= 2.2, f"{name} L2 slope {slope:.4f} outside [1.8, 2.2]"
    for name, (dl2, dh1) in halving.items():
        assert dl2 < 0.01, f"{name} L2 error moves {dl2:.2e} when dt halves"
        assert dh1 < 0.01, f"{name} H1 error moves {dh1:.2e} when dt halves"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_03_optimal_k_omega_location():
    params, forcing = defaults()
    start = time.perf_counter()
    values = np.logspace(-2.0, 2.0, 100)
    table = sweep(params, forcing, "k_omega", values)
    grid_best = table.values[table.argbest()]
    result = optimize_k_omega(params, forcing)
    elapsed = time.perf_counter() - start
    cell = 4.0 / 99.0  # log10 spacing of the dense grid
    gap = abs(math.log10(result.k_omega_opt) - math.log10(grid_best))
    print(
        f"criterion 3: dense argmax k_omega {grid_best:.6f}, "
        f"optimizer {result.k_omega_opt:.6f}, log10 gap {gap:.4f} "
        f"(cell {cell:.4f}), {elapsed:.2f}s"
    )
    assert gap <= cell, (
        f"optimizer {result.k_omega_opt:.6f} more than one grid cell from "
        f"dense argmax {grid_best:.6f}"
    )
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 120s"
    assert 0.35 <= grid_best <= 0.41, (
        f"measured argmax k_omega = {grid_best:.6f} falls outside the "
        f"acceptance window [0.35, 0.41]; both the dense sweep and the "
        f"optimizer locate the peak there"
    )


def test_criterion_04_quadratic_amplitude_scaling():
    params, forcing = defaults()
    tuned = params_for_k_omega(params, forcing, 0.3765)
    eps_values = [0.05, 0.1, 0.2, 0.4]
    table = sweep(tuned, forcing, "eps_tilde", eps_values)
    magnitudes = np.abs(table.displacements())
    slope = float(np.polyfit(np.log(eps_values), np.log(magnitudes), 1)[0])
    print(f"criterion 4: |displacement| vs eps_tilde log-log slope {slope:.4f}")
    assert 1.9 <= slope <= 2.1, f"slope {slope:.4f} outside [1.9, 2.1]"


def test_criterion_05_net_backward_displacement():
    params, forcing = defaults()
    mode = build_discrete_mode(params, forcing)
    result = stroke_displacement_discrete(params, forcing, mode)
    print(f"criterion 5: per-period displacement {result.displacement:.6e} m")
    assert result.displacement < 0.0, (
        f"displacement {result.displacement:.6e} is not backward"
    )


def test_criterion_06_mode_equation_residuals():
    for params, forcing, k_omega in random_cases(seed=307, count=100):
        n = params.n_springs
        k = params.relaxation_rate
        omega = forcing.omega
        lam, h = params.Lambda, params.h
        ratio = params.a_tilde / (2.0 * params.a1)

        mode = build_discrete_mode(params, forcing)
        amps = mode.node_amplitudes()
        peak = np.max(np.abs(amps))
        # node values against the recurrence, scaled by its largest term
        if n >= 2:
            interior = 1j * omega * amps[1:n] - k * n**2 * (
                amps[:n - 1] - 2.0 * amps[1:n] + amps[2:]
            )
            scale = max(omega, 4.0 * k * n**2) * peak
            assert np.max(np.abs(interior)) <= 1e-9 * scale
        first = (
            h * 1j * omega * amps[0]
            - lam**2 * k * (amps[1] - amps[0]) / h
            + lam * k * ratio * amps[0]
            + (lam / 2.0) * 1j * omega * forcing.eps
        )
        first_scale = (
            max(h * omega, 2.0 * lam**2 * k / h) * peak
            + (lam / 2.0) * omega * forcing.eps
        )
        assert abs(first) <= 1e-9 * first_scale
        assert abs(mode.gamma_plus * mode.gamma_minus - 1.0) <= 1e-12

        cont = build_continuous_mode(params, forcing)
        target = 1j / (lam**2 * k_omega)
        assert abs(cont.r**2 - target) <= 1e-12 * abs(target)
        ys = np.linspace(0.0, lam, 33)
        prof = cont.profile(ys)
        ode = 1j * omega * prof - lam**2 * k * cont.r**2 * prof
        assert np.max(np.abs(ode)) <= 1e-9 * omega * np.max(np.abs(prof))
        p0 = cont.profile(0.0)
        g0 = cont.profile_gradient(0.0)
        robin = lam**2 * k * g0 - lam * k * ratio * p0 - (lam / 2.0) * 1j * omega * forcing.eps
        robin_scale = (
            lam**2 * k * abs(g0) + lam * k * ratio * abs(p0)
            + (lam / 2.0) * omega * forcing.eps
        )
        assert abs(robin) <= 1e-9 * robin_scale
    print("criterion 6: residual bounds hold over 100 random (n, k_omega) draws")


def test_criterion_07_small_chain_dense_oracle():
    params, forcing = defaults()
    params = dataclasses.replace(params, n_springs=4)
    n = 4
    k = params.relaxation_rate
    omega = forcing.omega
    lam, h = params.Lambda, params.h

    matrix = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    matrix[0, 0] = 1j * omega * h + lam**2 * k / h + lam * k * params.a_tilde / (2.0 * params.a1)
    matrix[0, 1] = -lam**2 * k / h
    rhs[0] = -(lam / 2.0) * 1j * omega * forcing.eps
    for j in range(1, n):
        matrix[j, j] = 1j * omega + 2.0 * k * n**2
        matrix[j, j - 1] = -k * n**2
        if j + 1 < n:
            matrix[j, j + 1] = -k * n**2
    dense = np.linalg.solve(matrix, rhs)

    amps = build_discrete_mode(params, forcing).node_amplitudes()[:n]
    rel = np.max(np.abs(amps - dense)) / np.max(np.abs(dense))
    print(f"criterion 7: n=4 closed form vs dense solve, relative gap {rel:.2e}")
    assert rel <= 1e-10


def test_criterion_08_norm_equivalence_bounds():
    rng = np.random.default_rng(811)
    sizes = [3, 10, 100]
    params, _ = defaults()
    failures = 0
    for i in range(1000):
        n = sizes[i % 3]
        values = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
        values[-1] = 0.0
        check = norm_equivalence_check(values, params.Lambda / n)
        if not check.all_ok:
            failures += 1
    print(f"criterion 8: {1000 - failures}/1000 random fields satisfy all four bounds")
    assert failures == 0


def test_criterion_09_time_stepper_orbit_tracking():
    params, forcing = defaults()
    params = dataclasses.replace(params, n_springs=100)
    system = assemble(params, forcing, MassVariant.NSPRING)
    mode = build_discrete_mode(params, forcing)
    amps = mode.node_amplitudes()
    period = forcing.period

    errors = {}
    for steps in (128, 256):
        trajectory = solve_transient(system, np.real(amps), period, period / steps)
        worst = 0.0
        for t, row in zip(trajectory.times, trajectory.values):
            exact = np.real(amps * np.exp(1j * forcing.omega * t))
            worst = max(worst, float(np.max(np.abs(row - exact))))
        errors[steps] = worst
    ratio = errors[128] / errors[256]
    print(
        f"criterion 9: orbit error {errors[128]:.3e} at dt=T/128, "
        f"{errors[256]:.3e} at dt=T/256, ratio {ratio:.4f}"
    )
    assert 3.5 <= ratio <= 4.5, f"halving dt scaled the error by {ratio:.4f}, not ~4"


def test_criterion_10_discrete_continuous_limit_match():
    params, forcing = defaults()
    best = optimize_k_omega(params, forcing)
    tuned = params_for_k_omega(
        dataclasses.replace(params, n_springs=4000), forcing, best.k_omega_opt
    )
    discrete = stroke_displacement_discrete(
        tuned, forcing, build_discrete_mode(tuned, forcing)
    )
    continuous = stroke_displacement_continuous(tuned, forcing)
    rel = abs(discrete.displacement - continuous.displacement) / abs(
        continuous.displacement
    )
    print(
        f"criterion 10: n=4000 discrete {discrete.displacement:.6e} m vs "
        f"continuous {continuous.displacement:.6e} m, relative gap {rel:.2e}"
    )
    assert rel < 0.01
