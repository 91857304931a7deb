"""Results scale exactly with a power-of-two change of the unit of length (ROADMAP item 21).

Multiplying a_tilde, a1, Lambda and L by 2**k, and k_tilde with them so that K = k_tilde/(6 pi mu a_tilde)
stays, leaves every dimensionless group as it is. Every result is then its default value times a power
of two: drifts, head velocities and elongations 2**k, and the L2 and H1 errors of a convergence study
2**(1.5 k) and 2**(0.5 k). Scaling by a power of two is exact, so each must hold under ==.
"""

import functools
import math

import numpy as np
import pytest

from springswim.analytic import build_discrete_mode
from springswim.displacement import instantaneous_v1, sweep
from springswim.fem import MassVariant, assemble, solve_transient
from springswim.metrics import convergence_study
from springswim.model import DEFAULTS, config_from_mapping, units

LENGTHS = ("a_tilde", "a1", "Lambda", "L", "k_tilde")
K_OMEGAS = (1e-8, 1e-3, 0.28, 10.0, 1e8)


def scaled(k, **overrides):
    """The default config with every length, and k_tilde, times 2**k."""
    return config_from_mapping({**{key: math.ldexp(DEFAULTS[key], k) for key in LENGTHS}, **overrides})


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


@functools.cache
def errors(k):
    """(L2, H1) errors of each scheme's convergence study on a small grid."""
    params, forcing = scaled(k)
    records = [
        record
        for variant in MassVariant
        for record in convergence_study(params, forcing, variant, [4, 8, 16], steps_per_period=64)
    ]
    return np.array([record.l2_error for record in records]), np.array([record.h1_error for record in records])


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


def test_units_are_the_powers_of_two_at_or_below_lambda_and_eps():
    for x in (5e-324, 1.5 * 2.0**-1040, 2.0**-1022, 1e-160, 4e-4, 1.0, 3.0, 1e160, 1.7976931348623157e308):
        params, forcing = config_from_mapping({"Lambda": x, "n_springs": 1, "L": x, "eps_tilde": 0.7})
        for unit, length in zip(units(params, forcing), (params.Lambda, forcing.eps)):
            assert math.frexp(unit)[0] == 0.5 and unit <= length < 2.0 * unit if length else unit == 1.0
