"""The benchmark's calls into the package still work: a tiny traced run of each workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def smoke_summary(workload):
    """The JSON summary of a one-second traced --smoke run of the workload, seed 1."""
    result = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "1", "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_design_sweep_smoke_run():
    # what bench/ still pins, so removing any of it breaks this run: workloads.py
    # passes a chain mode and m_quad positionally to stroke_displacement_discrete
    # and m_quad to sweep and optimize_k_omega; tracing.py reads StrokeResult.n
    # and .quadrature_points; oracles.py reads Forcing.L_ref; workloads.py:420
    # calls solve_transient(system, None, t_end, dt, sample_every) positionally
    # and reads Trajectory.times and .values, which the cli_artifacts check
    # compares with the streamed simulate --scheme lumped CSV. tracing.py wraps
    # CrankNicolson.__init__ and .step as class attributes, so its step counts
    # hold only while CrankNicolson.samples steps through self.step, which
    # test_fem_convergence_smoke_run pins by the traced step count. It wraps
    # metrics.error_vs_analytic by name only, so that signature is free to change.
    # workloads.py calls analytic.build_discrete_mode(params, forcing), reads the
    # seven DiscreteModeShape constants gamma_plus, gamma_minus, delta, z_d, b_d,
    # alpha_d and beta_d and calls node_amplitudes(); tracing.py wraps
    # build_discrete_mode and DiscreteModeShape.node_amplitudes by name
    summary = smoke_summary("design_sweep")
    assert summary["correct"] is True
    metrics = {name: entry["value"] for name, entry in summary["metrics"].items()}
    assert metrics["displacement.stroke_displacement_discrete.cells"] > 0
    # the drift comes from the banded solve alone: no stroke builds a chain mode
    assert metrics["analytic.build_discrete_mode.calls"] == 0
    # the tracer sees kernel work only through this public name, so every sweep
    # point must go through it. objective_evals already counts the kernel calls
    # made under optimize_k_omega, so this checks the sweep calls only. A point
    # that fails before the kernel is still counted in points, so the equality
    # needs a smoke seed with no failed points, which is asserted first.
    assert metrics["displacement.sweep.failed_points"] == 0
    assert metrics["displacement.stroke_displacement_discrete.calls"] == (
        metrics["displacement.sweep.points"] + metrics["displacement.optimize_k_omega.objective_evals"]
    )


def test_cli_artifacts_smoke_run():
    # the benchmark reads every CSV the CLI writes and checks it against the library
    # (%.17g header and first row, values within tolerance); a writer change that
    # breaks those checks fails here before it fails the benchmark
    summary = smoke_summary("cli_artifacts")
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_fem_convergence_smoke_run():
    # two stepped variants (lumped, galerkin) x SMOKE's four grid sizes x 2048 steps per
    # period; every step must be a call through the wrapped class attribute CrankNicolson.step
    summary = smoke_summary("fem_convergence")
    assert summary["correct"] is True
    metrics = {name: entry["value"] for name, entry in summary["metrics"].items()}
    assert metrics["fem.CrankNicolson.step.calls"] == metrics["fem.solve_transient.steps"] == 2 * 4 * 2048
