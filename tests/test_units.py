"""Results scale exactly with a power-of-two change of the unit of length (ROADMAP item 21).

Multiplying a_tilde, a1, Lambda and L by 2**k, and k_tilde with them so that K = k_tilde/(6 pi mu a_tilde)
stays, leaves every dimensionless group as it is. Every result is then its default value times a power
of two: drifts, head velocities and elongations 2**k, and the L2 and H1 errors of a convergence study
2**(1.5 k) and 2**(0.5 k). Scaling by a power of two is exact, so each must hold under ==. Where such a
result is not a double, the command that writes it refuses the config, by one message that names the scale.
"""

import functools
import json
import math

import numpy as np
import pytest

from springswim.analytic import build_discrete_mode
from springswim.cli import main
from springswim.displacement import instantaneous_v1, sweep
from springswim.fem import MassVariant, assemble, solve_transient
from springswim.metrics import convergence_study
from springswim.model import DEFAULTS, config_from_mapping, study_scales, units

LENGTHS = ("a_tilde", "a1", "Lambda", "L", "k_tilde")
K_OMEGAS = (1e-8, 1e-3, 0.28, 10.0, 1e8)


def lengths(k):
    """Every length of the default config, and k_tilde, times 2**k."""
    return {key: math.ldexp(DEFAULTS[key], k) for key in LENGTHS}


def scaled(k, **overrides):
    """The default config with every length, and k_tilde, times 2**k."""
    return config_from_mapping({**lengths(k), **overrides})


@functools.cache
def outputs(k):
    """Sweep drifts at n = 2000, head velocities on closed-form rows at n = 50, and a lumped trajectory from rest."""
    params, forcing = scaled(k)
    drifts = sweep(params, forcing, "k_omega", K_OMEGAS).displacements()
    params, forcing = scaled(k, n_springs=50)
    times = np.linspace(0.0, forcing.period, 9)
    rows = build_discrete_mode(params, forcing).node_values(times)
    velocities = instantaneous_v1(params, forcing, rows, times)
    params, forcing = scaled(k, n_springs=10)
    system = assemble(params, forcing, MassVariant.TRAPEZOID)
    trajectory = solve_transient(system, None, forcing.period, forcing.period / 64, sample_every=8).values
    return drifts, velocities, trajectory


def study_errors(params, forcing):
    """(L2, H1) errors of each scheme's convergence study on a small grid."""
    records = [
        record
        for variant in MassVariant
        for record in convergence_study(params, forcing, variant, [4, 8, 16], steps_per_period=64)
    ]
    return np.array([record.l2_error for record in records]), np.array([record.h1_error for record in records])


@functools.cache
def errors(k):
    return study_errors(*scaled(k))


@pytest.mark.parametrize("k", [-830, -532, -332, 332, 532, 830])
def test_results_scale_exactly_with_the_unit_of_length(k):
    drifts, velocities, trajectory = outputs(0)
    assert np.all(drifts != 0.0) and np.all(velocities != 0.0) and np.any(trajectory != 0.0)
    for name, value, default in zip(("drifts", "velocities", "trajectory"), outputs(k), outputs(0)):
        assert np.array_equal(value, np.ldexp(default, k)), name
    if abs(k) <= 532:  # 2**(1.5 k) times the default L2 error stays in the float range
        l2, h1 = errors(k)
        assert np.array_equal(l2, np.ldexp(errors(0)[0], 3 * k // 2))
        assert np.array_equal(h1, np.ldexp(errors(0)[1], k // 2))


@pytest.mark.parametrize("k", [-830, 830])
def test_converge_refuses_errors_past_the_float_range(tmp_path, capsys, k):
    # the L2 errors, 2**(1.5 k) times the default ones, are not doubles: the study names its scales, once
    (tmp_path / "config.json").write_text(json.dumps(lengths(k)))
    argv = ["converge", "--n-list", "8,16,32", "--config", tmp_path / "config.json", "--out", tmp_path / "out"]
    assert main([str(piece) for piece in argv]) == 1
    m, p = study_scales(*scaled(k))
    assert capsys.readouterr().err == (f"error: errors out of float range: L2, H1 times 2**{p + m}, 2**{p - m} "
                                       f"at Lambda/4**{m}, eps/2**{p}\n")
    assert not (tmp_path / "out").exists()


def test_boundary_layer_far_below_a_metre():
    # Lambda = 1e-250 m at omega = 1e200: the continuum reference's r is past the largest double in 1/m, but
    # the study runs at Lambda/4**m. A tail 4**j times as long has the same elongations, so its L2 errors
    # are 2**j and its H1 errors 2**-j times these
    def study(j):
        return study_errors(*config_from_mapping({"Lambda": math.ldexp(1e-250, 2 * j), "omega": 1e200}))

    l2, h1 = study(0)
    assert np.all(l2 > 0.0) and np.all(h1 > 0.0) and np.all(np.isfinite(h1))
    for j in (-90, 1, 300):
        l2_j, h1_j = study(j)
        assert np.array_equal(l2_j, np.ldexp(l2, j)) and np.array_equal(h1_j, np.ldexp(h1, -j)), j


def test_units_are_the_powers_of_two_at_or_below_lambda_and_eps():
    for x in (5e-324, 1.5 * 2.0**-1040, 2.0**-1022, 1e-160, 4e-4, 1.0, 3.0, 1e160, 1.7976931348623157e308):
        params, forcing = config_from_mapping({"Lambda": x, "n_springs": 1, "L": x, "eps_tilde": 0.7})
        for unit, length in zip(units(params, forcing), (params.Lambda, forcing.eps)):
            assert math.frexp(unit)[0] == 0.5 and unit <= length < 2.0 * unit if length else unit == 1.0
