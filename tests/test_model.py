"""Parameter container, driving law and configuration plumbing."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from springswim.displacement import stroke_displacement_discrete
from springswim.model import (
    DEFAULTS,
    Forcing,
    SwimmerParams,
    config_from_mapping,
    k_omega_of,
    load_config,
    params_for_k_omega,
)


def default_pair():
    return config_from_mapping({})


class TestSwimmerParams:
    def test_reference_relaxation_rate(self):
        # k_tilde/(6 pi mu a_tilde) for the reference micron-scale set
        params, _ = default_pair()
        assert params.relaxation_rate == pytest.approx(0.05960859291831286, rel=1e-13)

    def test_scalings_with_n(self):
        params, _ = default_pair()
        assert params.h == pytest.approx(params.Lambda / params.n_springs, rel=1e-15)

    def test_relaxation_rate_linear_in_stiffness(self):
        params, _ = default_pair()
        doubled = dataclasses.replace(params, k_tilde=2.0 * params.k_tilde)
        assert doubled.relaxation_rate == pytest.approx(2.0 * params.relaxation_rate, rel=1e-14)

    def test_numpy_integer_n_stored_as_int(self):
        params, _ = default_pair()
        for n in (np.int64(50), np.arange(48, 52)[2], np.uint16(50)):
            replaced = dataclasses.replace(params, n_springs=n)
            assert replaced.n_springs == 50 and type(replaced.n_springs) is int

    @pytest.mark.parametrize("n", [True, np.bool_(True), 50.0, np.float64(50.0)])
    def test_non_integer_n_rejected(self, n):
        params, _ = default_pair()
        with pytest.raises(ValueError, match="n_springs must be an integer >= 1"):
            dataclasses.replace(params, n_springs=n)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("a_tilde", -1e-5),
            ("a_tilde", 0.0),
            ("Lambda", math.inf),
            ("mu", math.nan),
            ("k_tilde", 0.0),
        ],
    )
    def test_rejects_bad_scalars(self, field, value):
        kwargs = {k: DEFAULTS[k] for k in ("a_tilde", "a1", "Lambda", "k_tilde", "mu")}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SwimmerParams(**kwargs)

    def test_arm_length_is_not_a_param(self):
        # the arm law reads Forcing.L_ref alone; a second copy here changed no result
        params, _ = default_pair()
        with pytest.raises(TypeError):
            dataclasses.replace(params, L=6e-5)

    def test_rejects_bad_n(self):
        params, _ = default_pair()
        with pytest.raises(ValueError, match="n_springs"):
            dataclasses.replace(params, n_springs=0)

    def test_derived_scalars_checked_where_formed(self):
        params, _ = default_pair()
        with pytest.raises(ValueError, match=re.escape("coupling a_tilde/(2 a1) must be finite, got inf")):
            dataclasses.replace(params, a1=1e-320)
        with pytest.raises(ValueError, match="^h must be positive and finite, got 0.0$"):
            dataclasses.replace(params, Lambda=5e-324, n_springs=3)
        # 2 a1 overflows: a coupling of 0.0 is the no-coupling limit, not an error
        assert dataclasses.replace(params, a1=1e308).coupling == 0.0


class TestForcing:
    def test_arm_length_bounds(self):
        _, forcing = default_pair()
        t = np.linspace(0.0, 3.0 * forcing.period, 500)
        arm = forcing.arm_length(t)
        lo = forcing.L_ref * (1.0 - forcing.eps_tilde)
        hi = forcing.L_ref * (1.0 + forcing.eps_tilde)
        assert np.all(arm >= lo - 1e-18) and np.all(arm <= hi + 1e-18)
        assert np.max(arm) == pytest.approx(hi, rel=1e-6)

    def test_velocity_is_length_derivative(self):
        _, forcing = default_pair()
        rng = np.random.default_rng(11)
        t = rng.uniform(0.0, 4.0 * forcing.period, size=50)
        eps = 1e-6
        fd = (forcing.arm_length(t + eps) - forcing.arm_length(t - eps)) / (2.0 * eps)
        assert np.allclose(fd, forcing.arm_velocity(t), rtol=1e-7, atol=1e-13)

    def test_eps_and_period(self):
        _, forcing = default_pair()
        assert forcing.eps == pytest.approx(forcing.L_ref * forcing.eps_tilde, rel=1e-15)
        assert forcing.period == pytest.approx(2.0 * math.pi / forcing.omega, rel=1e-15)

    @pytest.mark.parametrize("eps_tilde", [-0.1, 1.0, 1.5])
    def test_rejects_amplitude_outside_range(self, eps_tilde):
        with pytest.raises(ValueError, match="eps_tilde"):
            Forcing(eps_tilde=eps_tilde, omega=1.0, L_ref=3e-5)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError, match="omega"):
            Forcing(eps_tilde=0.5, omega=0.0, L_ref=3e-5)


class TestGroups:
    def test_k_omega_for_quoted_stiffness(self):
        # k_tilde = 6.207e-8 at omega = 1 sits very close to the 0.37 range
        params, forcing = default_pair()
        retuned = dataclasses.replace(params, k_tilde=6.207e-8)
        assert k_omega_of(retuned, forcing) == pytest.approx(0.36999053624396794, rel=1e-13)

    def test_k_omega_scales_inversely_with_omega(self):
        params, forcing = default_pair()
        fast = dataclasses.replace(forcing, omega=10.0 * forcing.omega)
        assert k_omega_of(params, fast) == pytest.approx(k_omega_of(params, forcing) / 10.0, rel=1e-14)

    def test_params_for_k_omega_round_trip(self):
        params, forcing = default_pair()
        rng = np.random.default_rng(5)
        for target in 10.0 ** rng.uniform(-3, 3, size=20):
            retuned = params_for_k_omega(params, forcing, float(target))
            assert k_omega_of(retuned, forcing) == pytest.approx(float(target), rel=1e-12)

    def test_params_for_k_omega_rejects_nonpositive(self):
        params, forcing = default_pair()
        with pytest.raises(ValueError, match="k_omega"):
            params_for_k_omega(params, forcing, -1.0)


class TestConfig:
    def test_empty_mapping_gives_defaults(self):
        params, forcing = config_from_mapping({})
        assert params.n_springs == DEFAULTS["n_springs"]
        assert params.k_tilde == DEFAULTS["k_tilde"]
        assert forcing.eps_tilde == DEFAULTS["eps_tilde"]
        assert forcing.omega == DEFAULTS["omega"]
        assert forcing.L_ref == DEFAULTS["L"]

    def test_arm_length_key_sets_l_ref(self):
        params, forcing = config_from_mapping({"n_springs": 50})
        longer_params, longer = config_from_mapping({"n_springs": 50, "L": 6e-5})
        assert longer_params == params
        assert longer.L_ref == 6e-5
        drift = stroke_displacement_discrete(params, forcing).displacement
        assert stroke_displacement_discrete(params, longer).displacement != drift

    def test_partial_override(self):
        params, forcing = config_from_mapping({"n_springs": 10, "eps_tilde": 0.25})
        assert params.n_springs == 10
        assert forcing.eps_tilde == 0.25
        assert params.Lambda == DEFAULTS["Lambda"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: stiffness"):
            config_from_mapping({"stiffness": 1.0})

    def test_integral_float_n_accepted(self):
        params, _ = config_from_mapping({"n_springs": 40.0})
        assert params.n_springs == 40

    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_non_numbers_rejected(self, key, value):
        # JSON true/false are Python bools, an int subclass: they must not pass as 1 or 0
        name = "L_ref" if key == "L" else key  # the config key L is the field Forcing.L_ref
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
            config_from_mapping({key: value})

    def test_fractional_n_rejected(self):
        with pytest.raises(ValueError, match="n_springs"):
            config_from_mapping({"n_springs": 40.5})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"n_springs": 8, "omega": 2.0}))
        params, forcing = load_config(path)
        assert params.n_springs == 8
        assert forcing.omega == 2.0

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config(path)
