"""Exact norms, quadrature defects and convergence-rate fitting."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from springswim import metrics
from springswim.analytic import build_continuous_mode, build_discrete_mode
from springswim.fem import MassVariant
from springswim.metrics import (
    ErrorRecord,
    RateEstimate,
    convergence_study,
    error_vs_analytic,
    fit_rate,
    h1_seminorm,
    l2_norm,
)
from springswim.model import MOTIONLESS, config_from_mapping

from inner_products import discrete_inner_products, l2_inner, norm_equivalence_check


def random_field(n, rng, scale=1.0):
    """n+1 random node values with the far end pinned to zero."""
    values = rng.normal(0.0, scale, n + 1)
    values[-1] = 0.0
    return values


def simpson_per_element(u, h):
    """Exact integral of the squared interpolant: Simpson per element.

    Independent of the closed-form element integral used by l2_norm; the
    integrand is piecewise quadratic so per-element Simpson is exact.
    """
    mids = 0.5 * (u[:-1] + u[1:])
    total = np.sum((h / 6.0) * (u[:-1] ** 2 + 4.0 * mids**2 + u[1:] ** 2))
    return math.sqrt(float(total))


class TestNorms:
    def test_zero_field(self):
        u = np.zeros(9)
        assert l2_norm(u, 1.0 / 8) == 0.0
        assert h1_seminorm(u, 1.0 / 8) == 0.0

    def test_end_hat(self):
        # half hat at the driven end: integral of (1 - y/h)^2 over one element
        n = 8
        h = 1.0 / n
        values = np.zeros(n + 1)
        values[0] = 1.0
        assert l2_norm(values, h) == pytest.approx(math.sqrt(h / 3.0), rel=1e-14)

    def test_interior_hat(self):
        n = 8
        h = 1.0 / n
        values = np.zeros(n + 1)
        values[3] = 1.0
        assert l2_norm(values, h) == pytest.approx(math.sqrt(2.0 * h / 3.0), rel=1e-14)

    def test_plateau_against_simpson(self):
        values = np.ones(17)
        values[-1] = 0.0
        h = 1.0 / 16
        assert l2_norm(values, h) == pytest.approx(simpson_per_element(values, h), rel=1e-13)

    def test_random_fields_against_simpson(self):
        rng = np.random.default_rng(53)
        for n in (3, 10, 64):
            for _ in range(20):
                u = random_field(n, rng)
                assert l2_norm(u, 1.0 / n) == pytest.approx(simpson_per_element(u, 1.0 / n), rel=1e-12)

    def test_ramp_h1(self):
        c = -2.7
        length = 4e-4
        n = 11
        values = np.linspace(c, 0.0, n + 1)
        assert h1_seminorm(values, length / n) == pytest.approx(abs(c) / math.sqrt(length), rel=1e-13)

    def test_h1_against_midpoint_derivative_sampling(self):
        rng = np.random.default_rng(59)
        n = 12
        h = 1.0 / n
        u = random_field(n, rng)
        nodes = np.arange(n + 1) * h
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        delta = 1e-8
        slopes = (np.interp(mids + delta, nodes, u) - np.interp(mids - delta, nodes, u)) / (2.0 * delta)
        expected = math.sqrt(float(np.sum(slopes**2) * h))
        assert h1_seminorm(u, h) == pytest.approx(expected, rel=1e-6)

    def test_norms_hold_past_the_square_range(self):
        # squares of values beyond about 1e154 overflow and below about 1e-154 underflow; the norms do neither
        u = random_field(16, np.random.default_rng(61))
        h = 1.0 / 16
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for factor in (1e200, 1e-200):
                assert l2_norm(factor * u, h) == pytest.approx(factor * l2_norm(u, h), rel=1e-15)
                assert h1_seminorm(factor * u, h) == pytest.approx(factor * h1_seminorm(u, h), rel=1e-15)
        assert [str(w.message) for w in caught] == []


class TestDiscreteInnerProducts:
    def test_zero(self):
        u = np.zeros(6)
        assert discrete_inner_products(u, u, 0.2) == (0.0, 0.0, 0.0)

    def test_uniform_minus_trapezoid_is_half_first_product(self):
        rng = np.random.default_rng(61)
        n = 9
        h = 1.0 / n
        for _ in range(20):
            u, v = random_field(n, rng), random_field(n, rng)
            paren, angle, _ = discrete_inner_products(u, v, h)
            assert paren - angle == pytest.approx(0.5 * h * u[0] * v[0], rel=1e-13, abs=1e-18)

    def test_defect_closed_form(self):
        # delta_h(u, v) = (h/2) u1 v1 + sum_e (h/6) du_e dv_e, exactly
        rng = np.random.default_rng(67)
        n = 14
        h = 1.0 / n
        for _ in range(20):
            u, v = random_field(n, rng), random_field(n, rng)
            _, _, defect = discrete_inner_products(u, v, h)
            expected = 0.5 * h * u[0] * v[0] + np.sum((h / 6.0) * np.diff(u) * np.diff(v))
            assert defect == pytest.approx(expected, rel=1e-12, abs=1e-18)

    def test_defect_bilinear_symmetric(self):
        rng = np.random.default_rng(71)
        n = 7
        h = 1.0 / n
        u, v, w = (random_field(n, rng) for _ in range(3))
        du = discrete_inner_products(u, v, h)[2]
        dv = discrete_inner_products(v, u, h)[2]
        assert du == pytest.approx(dv, rel=1e-12)
        lhs = discrete_inner_products(u, 2.0 * v + 3.0 * w, h)[2]
        rhs = 2.0 * discrete_inner_products(u, v, h)[2] + 3.0 * discrete_inner_products(u, w, h)[2]
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-18)

    def test_defect_envelope(self):
        # |delta_h| <= (h*Lambda/2 + h^2/6) |u'| |v'| from the closed form
        rng = np.random.default_rng(73)
        length = 4e-4
        for n in (3, 10, 50):
            h = length / n
            for _ in range(30):
                u, v = random_field(n, rng), random_field(n, rng)
                _, _, defect = discrete_inner_products(u, v, h)
                bound = (h * length / 2.0 + h * h / 6.0) * h1_seminorm(u, h) * h1_seminorm(v, h)
                assert abs(defect) <= bound * (1.0 + 1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            discrete_inner_products(np.zeros(5), np.zeros(6), 0.25)
        with pytest.raises(ValueError, match="lengths"):
            l2_inner(np.zeros(5), np.zeros(6), 0.25)


class TestNormEquivalence:
    def test_zero_field_equalities(self):
        outcome = norm_equivalence_check(np.zeros(8), 1.0 / 7)
        assert outcome.all_ok

    def test_random_sweep(self):
        rng = np.random.default_rng(79)
        for n in (3, 10, 100):
            for _ in range(200):
                outcome = norm_equivalence_check(random_field(n, rng, scale=10.0), 1.0 / n)
                assert outcome.all_ok

    def test_end_hat_attains_endpoint_equality(self):
        n = 6
        h = 1.0 / n
        values = np.zeros(n + 1)
        values[0] = 3.0
        paren = discrete_inner_products(values, values, h)[0]
        assert paren == pytest.approx(h * 9.0, rel=1e-14)
        assert norm_equivalence_check(values, h).all_ok


class TestErrorVsAnalytic:
    def test_self_difference_is_zero(self):
        params, forcing = config_from_mapping({"n_springs": 40})
        mode = build_continuous_mode(params, forcing)
        t = 1.3
        values = mode.values(np.arange(params.n_springs + 1) * params.h, t)
        values[-1] = 0.0
        record = error_vs_analytic(values, mode, t)
        assert record.n == params.n_springs
        assert record.l2_error == 0.0
        assert record.h1_error == 0.0

    def test_discrete_mode_error_halves(self):
        params, forcing = config_from_mapping({})
        mode = build_continuous_mode(params, forcing)
        t = 2.0 * math.pi / forcing.omega
        errors = {}
        for n in (100, 200):
            discrete = build_discrete_mode(dataclasses.replace(params, n_springs=n), forcing)
            errors[n] = error_vs_analytic(discrete.node_values(t), mode, t).l2_error
        assert errors[100] / errors[200] == pytest.approx(2.0, rel=0.15)

    def test_rejects_wrong_length(self):
        params, forcing = config_from_mapping({})
        mode = build_continuous_mode(params, forcing)
        for values in (np.zeros(1), np.zeros(0), np.zeros((3, 4))):
            with pytest.raises(ValueError, match="node values"):
                error_vs_analytic(values, mode, 0.0)

    def test_rejects_nonzero_far_end(self):
        params, forcing = config_from_mapping({})
        mode = build_continuous_mode(params, forcing)
        with pytest.raises(ValueError, match="zero"):
            error_vs_analytic(np.array([1.0, 2.0, 3.0, 1e-300]), mode, 0.0)

    def test_error_record_validation(self):
        with pytest.raises(ValueError, match="l2_error"):
            ErrorRecord(n=4, l2_error=-1.0, h1_error=0.0)
        with pytest.raises(ValueError, match="h1_error"):
            ErrorRecord(n=4, l2_error=0.0, h1_error=math.nan)


class TestFitRate:
    def records(self, ns, exponent, scale=3.0):
        return [
            ErrorRecord(n=n, l2_error=scale * (1.0 / n) ** exponent, h1_error=(1.0 / n) ** exponent)
            for n in ns
        ]

    def test_exact_power_laws(self):
        for exponent in (1.0, 2.0):
            estimate = fit_rate(self.records([10, 20, 40, 80], exponent), "l2")
            assert estimate.slope == pytest.approx(exponent, abs=1e-10)
            assert estimate.r_squared == pytest.approx(1.0, abs=1e-12)
            assert estimate.refit is None

    def test_scale_invariance(self):
        base = self.records([8, 16, 32], 1.5, scale=1.0)
        scaled = self.records([8, 16, 32], 1.5, scale=7.0)
        assert fit_rate(base, "l2").slope == pytest.approx(
            fit_rate(scaled, "l2").slope, abs=1e-12
        )

    def test_column_selection(self):
        records = [
            ErrorRecord(n=n, l2_error=(1.0 / n) ** 2, h1_error=1.0 / n) for n in (10, 20, 40)
        ]
        assert fit_rate(records, "l2").slope == pytest.approx(2.0, abs=1e-10)
        assert fit_rate(records, "h1").slope == pytest.approx(1.0, abs=1e-10)
        assert fit_rate(records, "H1").slope == pytest.approx(1.0, abs=1e-10)

    def test_refit_drops_polluted_coarse_point(self):
        records = self.records([10, 20, 40, 80], 2.0)
        records[0] = ErrorRecord(n=10, l2_error=50.0 * records[0].l2_error, h1_error=1.0)
        estimate = fit_rate(records, "l2")
        assert estimate.r_squared < 0.99
        assert isinstance(estimate.refit, RateEstimate)
        assert estimate.refit.n_points == 3
        assert estimate.refit.slope == pytest.approx(2.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate(self.records([10, 20], 1.0), "l2")
        with pytest.raises(ValueError, match="distinct"):
            fit_rate(self.records([10, 10, 20], 1.0), "l2")
        with pytest.raises(ValueError, match="which"):
            fit_rate(self.records([10, 20, 40], 1.0), "linf")
        zero = [ErrorRecord(n=n, l2_error=0.0, h1_error=0.0) for n in (10, 20, 40)]
        with pytest.raises(ValueError, match="positive"):
            fit_rate(zero, "l2")


class TestConvergenceStudy:
    def test_nspring_first_order(self):
        params, forcing = config_from_mapping({})
        records = convergence_study(params, forcing, MassVariant.NSPRING, [25, 50, 100, 200])
        assert [record.n for record in records] == [25, 50, 100, 200]
        assert fit_rate(records, "l2").slope == pytest.approx(1.0, abs=0.1)
        assert fit_rate(records, "h1").slope == pytest.approx(1.0, abs=0.1)

    def test_stepped_schemes_second_order_in_l2(self):
        params, forcing = config_from_mapping({})
        for variant in (MassVariant.TRAPEZOID, MassVariant.CONSISTENT):
            records = convergence_study(
                params, forcing, variant, [25, 50, 100], steps_per_period=4096
            )
            assert fit_rate(records, "l2").slope == pytest.approx(2.0, abs=0.15)

    @pytest.mark.parametrize("variant", list(MassVariant))
    def test_motionless_arm_is_refused_up_front(self, variant, monkeypatch):
        # at eps_tilde = 0 every error is exactly 0 and has no rate: refused before any grid is assembled
        params, forcing = config_from_mapping({"eps_tilde": 0.0})
        monkeypatch.setattr(metrics, "assemble", None)
        with pytest.raises(ValueError) as excinfo:
            convergence_study(params, forcing, variant, [8, 16, 32])
        assert str(excinfo.value) == MOTIONLESS

    def test_subnormal_eps_tilde(self):
        # eps_tilde = 1e-310 at L = 1e10 m: L/2**p for p the exponent of eps = L eps_tilde would overflow, so p is
        # at least L's exponent less 1000, and the errors are positive finite doubles, as in metres
        params, forcing = config_from_mapping({"eps_tilde": 1e-310, "L": 1e10})
        records = convergence_study(params, forcing, MassVariant.NSPRING, [8, 16, 32])
        errors = np.array([(record.l2_error, record.h1_error) for record in records])
        assert np.all(errors > 0.0) and np.all(np.isfinite(errors))

    def test_numpy_n_list(self):
        params, forcing = config_from_mapping({})
        expected = convergence_study(params, forcing, MassVariant.NSPRING, [25, 50, 100])
        for n_list in (25 * 2 ** np.arange(3), [np.int64(n) for n in (25, 50, 100)]):
            records = convergence_study(params, forcing, MassVariant.NSPRING, n_list)
            assert records == expected
            assert all(type(record.n) is int for record in records)

    def test_empty_n_list_rejected(self):
        params, forcing = config_from_mapping({})
        with pytest.raises(ValueError, match="n_list"):
            convergence_study(params, forcing, MassVariant.NSPRING, [])

    def test_step_count_follows_the_integer_rule(self):
        # the n_springs rule: numpy integers count, booleans and floats do not
        params, forcing = config_from_mapping({})
        expected = convergence_study(params, forcing, MassVariant.TRAPEZOID, [25, 50], steps_per_period=64)
        for steps in (np.int64(64), np.int32(64)):
            records = convergence_study(params, forcing, MassVariant.TRAPEZOID, [25, 50], steps_per_period=steps)
            assert records == expected
        for steps in (2.5, 64.0, True, np.True_):
            with pytest.raises(ValueError, match="steps_per_period must be an integer"):
                convergence_study(params, forcing, MassVariant.TRAPEZOID, [25, 50], steps_per_period=steps)

    @pytest.mark.parametrize("steps_per_period", [0, -4])
    def test_step_count_below_one_rejected(self, steps_per_period):
        params, forcing = config_from_mapping({})
        with pytest.raises(ValueError, match="steps_per_period"):
            convergence_study(params, forcing, MassVariant.TRAPEZOID, [25, 50], steps_per_period=steps_per_period)
