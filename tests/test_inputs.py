"""One rule for every numeric input: model.positive_real and model.positive_count.

Every entry point that takes a positive number or a count rejects bools (JSON true is an
int subclass), zero, negatives, NaN and infinity with a ValueError that names the input.
The derived relaxation rate K and k_omega = K/omega are checked where they are formed.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from springswim import cli
from springswim.displacement import optimize_k_omega, sweep
from springswim.fem import CrankNicolson, MassVariant, assemble, solve_transient, step_count
from springswim.metrics import convergence_study
from springswim.model import DEFAULTS, Forcing, SwimmerParams, config_from_mapping, k_omega_of, params_for_k_omega

PARAMS, FORCING = config_from_mapping({"n_springs": 4})
SYSTEM = assemble(PARAMS, FORCING, MassVariant.NSPRING)
REAL = "must be positive and finite"
COUNT = "must be an integer >= 1"

# (name in the message, rule, call with the value under test)
ENTRY_POINTS = {
    **{
        name: (name, REAL, lambda v, name=name: dataclasses.replace(PARAMS, **{name: v}))
        for name in ("a_tilde", "a1", "Lambda", "k_tilde", "mu")
    },
    "n_springs": ("n_springs", COUNT, lambda v: dataclasses.replace(PARAMS, n_springs=v)),
    "omega": ("omega", REAL, lambda v: dataclasses.replace(FORCING, omega=v)),
    "L_ref": ("L_ref", REAL, lambda v: dataclasses.replace(FORCING, L_ref=v)),
    "params_for_k_omega": ("k_omega", REAL, lambda v: params_for_k_omega(PARAMS, FORCING, v)),
    "sweep": ("k_omega", REAL, lambda v: sweep(PARAMS, FORCING, "k_omega", [0.1, v])),
    "optimize_k_omega rel_tol": ("rel_tol", REAL, lambda v: optimize_k_omega(PARAMS, FORCING, rel_tol=v)),
    "optimize_k_omega bracket": ("bracket", REAL, lambda v: optimize_k_omega(PARAMS, FORCING, bracket=(v, 1e2))),
    "CrankNicolson": ("dt", REAL, lambda v: CrankNicolson(SYSTEM, v)),
    "step_count t_end": ("t_end", REAL, lambda v: step_count(v, 0.25)),
    "step_count dt": ("dt", REAL, lambda v: step_count(1.0, v)),
    "solve_transient": ("sample_every", COUNT, lambda v: solve_transient(SYSTEM, None, 1.0, 0.25, v)),
    "convergence_study": (
        "steps_per_period",
        COUNT,
        lambda v: convergence_study(PARAMS, FORCING, MassVariant.TRAPEZOID, [4, 8, 16], v),
    ),
}
BAD_VALUES = [True, np.True_, 0, -1, math.nan, math.inf]


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_rejects(entry, value):
    name, rule, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} {rule}, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("kind", [np.int64, np.float32, np.float64])
def test_numpy_scalars_stored_as_float(kind):
    fields = {"a_tilde": 1, "a1": 1, "Lambda": 4, "k_tilde": 1, "mu": 1}  # integral, for np.int64
    params = SwimmerParams(**{name: kind(value) for name, value in fields.items()})
    forcing = Forcing(eps_tilde=kind(0), omega=kind(2), L_ref=kind(3))
    for obj, names in ((params, fields), (forcing, ("eps_tilde", "omega", "L_ref"))):
        for name in names:
            assert type(getattr(obj, name)) is float, name
    assert params == SwimmerParams(**{name: float(value) for name, value in fields.items()})
    assert forcing == Forcing(eps_tilde=0.0, omega=2.0, L_ref=3.0)


def test_float32_does_not_lower_precision():
    # float(np.float32(x)) is the float32 value, exactly; the rate is then formed in double precision
    single = np.float32(DEFAULTS["a_tilde"])
    params = SwimmerParams(**{**{k: DEFAULTS[k] for k in ("a1", "Lambda", "k_tilde", "mu")}, "a_tilde": single})
    expected = DEFAULTS["k_tilde"] / (6.0 * math.pi * DEFAULTS["mu"] * float(single))
    assert params.relaxation_rate == expected and type(params.relaxation_rate) is float


def test_int_past_the_float_range_is_named():
    with pytest.raises(ValueError, match=r"^mu must be positive and finite, got 1000"):
        dataclasses.replace(PARAMS, mu=10**400)


@pytest.mark.parametrize(
    "overrides, rate",
    [
        ({"k_tilde": 1e-300, "mu": 1e30}, "0.0"),  # K underflows to 0
        ({"k_tilde": 1e300, "mu": 1e-10, "a_tilde": 1e-10}, "inf"),  # K overflows
        ({"k_tilde": 1e-8, "mu": 1e-300, "a_tilde": 1e-30}, "inf"),  # the drag 6 pi mu a_tilde underflows
    ],
)
def test_relaxation_rate_checked(overrides, rate):
    with pytest.raises(ValueError, match=f"^relaxation_rate must be positive and finite, got {rate}$"):
        config_from_mapping(overrides)


@pytest.mark.parametrize(
    "overrides, k_omega", [({"k_tilde": 1e-40, "omega": 1e300}, "0.0"), ({"k_tilde": 1e10, "omega": 1e-300}, "inf")]
)
def test_k_omega_checked(overrides, k_omega):
    # K is fine, K/omega is not: every closed-form path reads k_omega through k_omega_of
    params, forcing = config_from_mapping(overrides)
    with pytest.raises(ValueError, match=f"^k_omega must be positive and finite, got {k_omega}$"):
        k_omega_of(params, forcing)


@pytest.mark.parametrize(
    "command",
    [
        ["analytic"],
        ["simulate", "--scheme", "nspring", "--samples", "4"],
        ["sweep", "--axis", "eps_tilde", "--from", "0.1", "--to", "0.5", "--points", "3"],
    ],
    ids=lambda command: command[0],
)
def test_underflowed_rate_exits_1_naming_it(tmp_path, capsys, command):
    # this config used to fail in analytic with "complex division by zero" and give all-zero drifts elsewhere
    config = tmp_path / "config.json"
    config.write_text('{"k_tilde": 1e-300, "mu": 1e30, "n_springs": 8}')
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config {config}: relaxation_rate must be positive and finite, got 0.0\n"
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--dt", "0", "value must be positive and finite, got 0.0"),
        ("--dt", "-1", "value must be positive and finite, got -1.0"),
        ("--dt", "nan", "value must be positive and finite, got nan"),
        ("--dt", "inf", "value must be positive and finite, got inf"),
        ("--samples", "0", "value must be an integer >= 1, got 0"),
        ("--samples", "-1", "value must be an integer >= 1, got -1"),
    ],
)
def test_cli_types_exit_2(tmp_path, capsys, flag, text, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--scheme", "lumped", flag, text, "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == f"error: argument {flag}: {message}\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        '{"mu": 1e-3,',
        "[1, 2]",
        '{"stiffness": 1.0}',
        '{"n_springs": 0}',
        '{"eps_tilde": true}',
        '{"k_tilde": 1e-300, "mu": 1e30}',
    ],
    ids=["empty", "malformed", "non-object", "unknown-key", "bad-value", "boolean", "underflowed-rate"],
)
def test_unreadable_config_exits_1_naming_the_file(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: config {config}: ")
    assert list(tmp_path.rglob("*.csv")) == []


K_TILDE_RANGE = "k_omega={} gives k_tilde={}, outside the float range"


@pytest.mark.parametrize(
    "call, k_omega, k_tilde",
    [
        (lambda: params_for_k_omega(PARAMS, FORCING, 1e-320), "1e-320", "0.0"),
        (lambda: params_for_k_omega(PARAMS, FORCING, 1e308), "1e+308", "inf"),  # 1e308 * 6.0 overflows
        (lambda: sweep(PARAMS, FORCING, "k_omega", [1e-320, 1.0]), "1e-320", "0.0"),
        (lambda: sweep(PARAMS, FORCING, "k_omega", [1.0, 1e308]), "1e+308", "inf"),
        (lambda: optimize_k_omega(PARAMS, FORCING, bracket=(1e-320, 1e-315)), "8.12506e-319", "0.0"),
    ],
    ids=["params_for_k_omega-0", "params_for_k_omega-inf", "sweep-0", "sweep-inf", "optimize_k_omega-0"],
)
def test_retuned_k_tilde_out_of_range_names_k_omega(call, k_omega, k_tilde):
    # k_omega itself is positive and finite; the k_tilde it retunes to is not, and the user never set k_tilde
    with pytest.raises(ValueError, match=f"^{re.escape(K_TILDE_RANGE.format(k_omega, k_tilde))}$"):
        call()


@pytest.mark.parametrize(
    "command, k_omega, k_tilde",
    [
        (["sweep", "--axis", "k_omega", "--from", "1e-320", "--to", "1", "--points", "3", "--log"], "1e-320", "0.0"),
        (["sweep", "--axis", "k_omega", "--from", "1e300", "--to", "1e308", "--points", "3", "--log"], "1e+308", "inf"),
        (["optimize", "--bracket", "1e-320", "1e-315"], "8.12506e-319", "0.0"),
    ],
    ids=["sweep-0", "sweep-inf", "optimize-0"],
)
def test_retuned_k_tilde_out_of_range_exits_1_naming_k_omega(tmp_path, capsys, command, k_omega, k_tilde):
    out = tmp_path / "out"
    assert cli.main([*command, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {K_TILDE_RANGE.format(k_omega, k_tilde)}\n"
    assert list(tmp_path.rglob("*.csv")) == [] and list(tmp_path.rglob("*.json")) == []


@pytest.mark.parametrize(
    "config, command",
    [
        ('{"Lambda": 1.0}', ["--axis", "k_omega", "--from", "1e305", "--to", "1e306", "--points", "2", "--log"]),
        ('{"Lambda": 1.0}', ["--axis", "k_omega", "--from", "1e306", "--to", "1e306", "--points", "1", "--log"]),
        ('{"Lambda": 1.0, "k_tilde": 1.7e298}', ["--axis", "eps_tilde", "--from", "0.1", "--to", "0.5", "--points", "3"]),
    ],
    ids=["two-points", "one-point", "eps_tilde"],
)
def test_sweep_with_no_successful_point_writes_nothing(tmp_path, capsys, config, command):
    # at Lambda = 1 and k_omega near 1e305 every point's 2*cond overflows, so harmonic_state rejects each system
    config_path = tmp_path / "config.json"
    config_path.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["sweep", *command, "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: sweep produced no successful points\n"
    assert not out.exists()
