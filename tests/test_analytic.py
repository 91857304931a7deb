"""Closed-form periodic modes versus independent linear-algebra and ODE oracles."""

import cmath
import dataclasses
import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from springswim.analytic import build_continuous_mode, build_discrete_mode
from springswim.fem import MassVariant, assemble, harmonic_state
from springswim.model import Forcing, config_from_mapping, k_omega_of, params_for_k_omega


def default_pair(**overrides):
    return config_from_mapping(overrides)


def random_cases(seed, count, n_range=(2, 1500), k_omega_range=(1e-3, 1e3)):
    """Seeded (params, forcing) draws across chain length and stiffness ratio."""
    rng = np.random.default_rng(seed)
    base_params, forcing = default_pair()
    cases = []
    for _ in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        k_omega = float(
            10.0 ** rng.uniform(np.log10(k_omega_range[0]), np.log10(k_omega_range[1]))
        )
        params = params_for_k_omega(
            dataclasses.replace(base_params, n_springs=n), forcing, k_omega
        )
        cases.append((params, forcing))
    return cases


def mpmath_amplitudes(params, forcing, nodes, dps=40):
    """Chain-mode amplitudes at the given 0-based nodes, in dps digits, from the roots of the quadratic.

    An independent form: the larger root from the quadratic formula, its reciprocal, and the
    driven and pinned rows written with powers of gamma_minus, as the recurrence gives them.
    """
    with mpmath.workdps(dps):
        n = params.n_springs
        k_omega = mpmath.mpf(k_omega_of(params, forcing))
        c = mpmath.mpc(0, 1) / (k_omega * n * n)
        gamma_minus = 1 / ((2 + c + mpmath.sqrt(c * (c + 4))) / 2)
        q = gamma_minus ** (2 * n)
        z_d = (gamma_minus - gamma_minus ** (2 * n - 1)) / (1 - q)
        ratio = mpmath.mpf(params.a_tilde) / (2 * mpmath.mpf(params.a1))
        denom = mpmath.mpc(0, 1) / n + n * k_omega * (1 - z_d) + k_omega * ratio
        b_d = -(mpmath.mpc(0, 1) * mpmath.mpf(forcing.eps) / 2) / denom
        return [complex(b_d * (gamma_minus**j - gamma_minus ** (2 * n - j)) / (1 - q)) for j in nodes]


class TestDiscreteRoots:
    def test_vieta_product_and_sum(self):
        for params, forcing in random_cases(seed=101, count=100):
            mode = build_discrete_mode(params, forcing)
            c = 1j / (mode.k_omega * mode.n**2)
            assert abs(mode.gamma_plus * mode.gamma_minus - 1.0) < 1e-12
            assert abs(mode.gamma_plus + mode.gamma_minus - (2.0 + c)) < 1e-12 * abs(2.0 + c)
            assert abs(mode.gamma_plus) > 1.0 > abs(mode.gamma_minus)

    def test_discriminant_matches_roots(self):
        params, forcing = default_pair(n_springs=30)
        mode = build_discrete_mode(params, forcing)
        # delta is the square of the root gap for the monic quadratic
        gap = mode.gamma_plus - mode.gamma_minus
        assert mode.delta == pytest.approx(gap * gap, rel=1e-12)

    def test_boundary_coefficients(self):
        # alpha_d + beta_d = b_d and the pinned-end combination vanishes
        for params, forcing in random_cases(seed=7, count=30, n_range=(1, 40)):
            mode = build_discrete_mode(params, forcing)
            assert mode.alpha_d + mode.beta_d == pytest.approx(mode.b_d, rel=1e-10, abs=1e-30)
            pinned = (
                mode.alpha_d * mode.gamma_plus**mode.n
                + mode.beta_d * mode.gamma_minus**mode.n
            )
            scale = abs(mode.alpha_d * mode.gamma_plus**mode.n) + abs(mode.b_d)
            assert abs(pinned) <= 1e-10 * max(scale, 1e-300)


class TestDiscreteMode:
    def test_zero_forcing_kills_the_mode(self):
        params, forcing = default_pair(eps_tilde=0.0)
        mode = build_discrete_mode(params, forcing)
        assert mode.b_d == 0.0
        assert np.all(mode.node_amplitudes() == 0.0)

    def test_single_spring_hand_formula(self):
        # N=1 with equal radii: z_d = 0 and b_d = -(eps*i/2)/(i + 1.5*k_omega)
        params, forcing = default_pair(n_springs=1)
        assert params.a_tilde == params.a1
        mode = build_discrete_mode(params, forcing)
        k_omega = k_omega_of(params, forcing)
        assert abs(mode.z_d) < 1e-14
        expected = -(0.5j * forcing.eps) / (1j + 1.5 * k_omega)
        assert mode.b_d == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_solve_n4(self):
        # independent oracle: assemble the 4-unknown complex system row by row
        params, forcing = default_pair(n_springs=4)
        params = params_for_k_omega(params, forcing, 0.3765)
        n = params.n_springs
        k = params.relaxation_rate
        omega = forcing.omega
        lam, h = params.Lambda, params.h

        matrix = np.zeros((n, n), dtype=complex)
        rhs = np.zeros(n, dtype=complex)
        matrix[0, 0] = (
            1j * omega * h + lam**2 * k / h + lam * k * params.a_tilde / (2.0 * params.a1)
        )
        matrix[0, 1] = -(lam**2) * k / h
        rhs[0] = -(lam / 2.0) * 1j * omega * forcing.eps
        for j in range(1, n):
            matrix[j, j] = 1j * omega - k * n**2 * (-2.0)
            matrix[j, j - 1] = -k * n**2
            if j + 1 < n:
                matrix[j, j + 1] = -k * n**2
        dense = np.linalg.solve(matrix, rhs)

        amps = build_discrete_mode(params, forcing).node_amplitudes()
        assert np.max(np.abs(amps[:n] - dense)) <= 1e-10 * np.max(np.abs(dense))
        assert amps[n] == 0.0

    def test_interior_and_boundary_residuals(self):
        # the stable power form must still satisfy the original recurrence;
        # residuals are measured against the largest term in each equation
        for params, forcing in random_cases(seed=23, count=100):
            mode = build_discrete_mode(params, forcing)
            amps = mode.node_amplitudes()
            n = mode.n
            k = params.relaxation_rate
            omega = forcing.omega
            lam, h = params.Lambda, params.h
            peak = np.max(np.abs(amps))

            if n >= 2:
                interior = 1j * omega * amps[1:n] - k * n**2 * (
                    amps[:n - 1] - 2.0 * amps[1:n] + amps[2:]
                )
                scale = max(omega, 4.0 * k * n**2) * peak
                assert np.max(np.abs(interior)) <= 1e-9 * scale
            first = (
                h * 1j * omega * amps[0]
                - lam**2 * k * (amps[1] - amps[0]) / h
                + lam * k * params.a_tilde / (2.0 * params.a1) * amps[0]
                + (lam / 2.0) * 1j * omega * forcing.eps
            )
            first_scale = (
                max(h * omega, 2.0 * lam**2 * k / h) * peak
                + (lam / 2.0) * omega * forcing.eps
            )
            assert abs(first) <= 1e-9 * first_scale

    def test_long_chain_stays_finite(self):
        # very soft springs: growth exp(n*log|gamma_plus|) ~ exp(sqrt(1/(2*k_omega)))
        # would overflow a naive alpha_d*gamma_plus**(j-1) evaluation
        params, forcing = default_pair(n_springs=3000)
        params = params_for_k_omega(params, forcing, 1e-7)
        mode = build_discrete_mode(params, forcing)
        assert mode.n * math.log(abs(mode.gamma_plus)) > 800.0  # past float64 overflow
        amps = mode.node_amplitudes()
        assert np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))
        assert amps[-1] == 0.0
        assert abs(amps[0] - mode.b_d) <= 1e-12 * abs(mode.b_d)

    def test_eval_discrete_endpoints(self):
        params, forcing = default_pair(n_springs=12)
        mode = build_discrete_mode(params, forcing)
        assert mode.node_values(0.37).shape == (mode.n + 1,)
        assert mode.node_values(0.37)[-1] == 0.0
        assert mode.node_values(0.0)[0] == pytest.approx(mode.b_d.real, rel=1e-12)

    def test_eval_matches_amplitudes(self):
        # node j (1-based) carries alpha_d*gamma_plus**(j-1) + beta_d*gamma_minus**(j-1)
        params, forcing = default_pair(n_springs=9)
        mode = build_discrete_mode(params, forcing)
        t = 1.234
        values = mode.node_values(t)
        scale = np.max(np.abs(values))
        phase = np.exp(1j * mode.omega * t)
        for j in range(1, mode.n + 2):
            amp = mode.alpha_d * mode.gamma_plus ** (j - 1) + mode.beta_d * mode.gamma_minus ** (j - 1)
            assert (amp * phase).real == pytest.approx(values[j - 1], rel=1e-10, abs=1e-12 * scale)


def mpmath_mode_constants(mode, params, forcing, dps=50):
    """b_d, z_d, alpha_d and beta_d in dps digits by build_discrete_mode's own formulas and float inputs."""
    with mpmath.workdps(dps):
        n, k_omega = mode.n, mpmath.mpf(mode.k_omega)
        c = mpmath.mpc(0, 1) / (k_omega * n * n)
        s = 2 * mpmath.asinh(mpmath.sqrt(c) / 2)
        em = mpmath.expm1(-2 * n * s)
        one_minus_z = mpmath.expm1(-s) * (1 + mpmath.exp(-(2 * n - 1) * s)) / em
        b_d = -mpmath.mpc(0, 1) / 2 * mpmath.mpf(forcing.eps) / (n * k_omega)
        b_d /= one_minus_z + mpmath.mpf(params.coupling) / n + c
        z_d = mpmath.exp(-s) * mpmath.expm1(-2 * (n - 1) * s) / em
        return {"b_d": b_d, "z_d": z_d, "alpha_d": mpmath.exp(-2 * n * s) * b_d / em, "beta_d": -b_d / em}


# (n, k_omega) cells at eps_tilde = 0.7 where some part of a mode constant misses 1e-13; the worst
# part at the time of writing: the lag parts Re b_d (up to 2.4e-8) and Im z_d (up to 6.3e-4) from
# k_omega = 1e3 up, Im z_d at (1e5, 0.28), and at k_omega = 1e-8 the small parts Re z_d and
# Im alpha_d (up to 2.2e-9) of constants whose phase is near a multiple of pi/2
ITEM_18_CELLS = {
    (1, 1e-8), (1, 1e3), (1, 1e5),
    (2, 1e-8), (2, 1e3), (2, 1e5), (2, 1e8),
    (50, 1e-8), (50, 1e3), (50, 1e5), (50, 1e8),
    (2000, 1e3), (2000, 1e5), (2000, 1e8),
    (100000, 0.28), (100000, 1e3), (100000, 1e5), (100000, 1e8),
}
ITEM_18 = pytest.mark.xfail(strict=True, reason="ROADMAP item 18: a part far below its constant's modulus loses digits")


class TestClosedFormRange:
    def test_amplitudes_match_40_digit_reference(self):
        # long, stiff chains are where powers of gamma_minus lose digits (3e-8 at n = 1e5, k_omega = 1e8)
        base, forcing = default_pair()
        errors = {}
        for n in (1, 2, 2000, 50000, 100000):
            for k_omega in (1e-8, 0.28, 1e3, 1e8):
                params = params_for_k_omega(dataclasses.replace(base, n_springs=n), forcing, k_omega)
                amps = build_discrete_mode(params, forcing).node_amplitudes()
                nodes = sorted({0, 1, n // 3, n // 2, n - 1})
                reference = mpmath_amplitudes(params, forcing, nodes)
                gap = max(abs(amps[j] - ref) for j, ref in zip(nodes, reference))
                errors[n, k_omega] = gap / np.max(np.abs(amps))
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 1e-14, (worst, errors[worst])

    @pytest.mark.parametrize(
        "n, k_omega",
        [
            pytest.param(n, k_omega, marks=[ITEM_18] if (n, k_omega) in ITEM_18_CELLS else [])
            for n in (1, 2, 50, 2000, 100000)
            for k_omega in (1e-8, 0.28, 1e3, 1e5, 1e8)
        ],
    )
    def test_mode_constants_match_50_digits_part_by_part(self, n, k_omega):
        # each part within 1e-13 of its own size, so a lag part far below the in-phase part is held to
        # its own digits; a part that is its reference rounded to a double passes, 0 below the smallest
        base, forcing = default_pair(eps_tilde=0.7)
        params = params_for_k_omega(dataclasses.replace(base, n_springs=n), forcing, k_omega)
        mode = build_discrete_mode(params, forcing)
        misses = {}
        for name, reference in mpmath_mode_constants(mode, params, forcing).items():
            value = getattr(mode, name)
            for part, got, want in (("re", value.real, reference.real), ("im", value.imag, reference.imag)):
                error = abs(mpmath.mpf(got) - want)
                if got != float(want) and error > 1e-13 * abs(want):
                    misses[f"{name}.{part}"] = float(error / abs(want))
        assert misses == {}

    @pytest.mark.parametrize("n", [1, 300])
    def test_stiff_chain_matches_banded_solve(self, n):
        # k_omega = 1e25: 1 - gamma_minus**(2n) is below 1e-12, so the roots alone cannot pin the far end
        params, forcing = default_pair(n_springs=n)
        params = params_for_k_omega(params, forcing, 1e25)
        amps = build_discrete_mode(params, forcing).node_amplitudes()
        banded = harmonic_state(assemble(params, forcing, MassVariant.NSPRING))
        assert np.all(np.isfinite(amps)) and amps[-1] == 0.0
        assert np.max(np.abs(amps[:-1] - banded)) <= 1e-12 * np.max(np.abs(amps))

    def test_out_of_float_range_raises(self):
        base, forcing = default_pair()
        # k_omega n^2 overflows, so c = i/(k_omega n^2) is 0 and so is s
        stiff = params_for_k_omega(dataclasses.replace(base, n_springs=100000), forcing, 1e300)
        # k_omega ~ 6e-310 makes c overflow, and s is not finite
        fast = Forcing(eps_tilde=forcing.eps_tilde, omega=1e308, L_ref=forcing.L_ref)
        # s is fine, but an arm of 1e307 m drives b_d past the largest double
        long_arm = Forcing(eps_tilde=0.99, omega=forcing.omega, L_ref=1e307)
        soft = params_for_k_omega(dataclasses.replace(base, n_springs=100000), long_arm, 1e-4)
        cases = ((stiff, forcing), (dataclasses.replace(base, n_springs=1), fast), (soft, long_arm))
        for params, forcing in cases:
            k_omega = k_omega_of(params, forcing)
            message = f"k_omega={k_omega!r}, n={params.n_springs}: chain mode out of float range"
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                build_discrete_mode(params, forcing)

    @pytest.mark.parametrize("overrides", [{"n_springs": 1, "k_tilde": 1e-170}, {"n_springs": 2, "omega": 1e160}])
    def test_discriminant_alone_is_not_checked(self, overrides):
        # k_omega ~ 6e-164 and 6e-162 leave s and b_d finite, but the discriminant c (c + 4) overflows: no node
        # value needs it, so the mode is built, with finite amplitudes, and only a writer of delta refuses it
        mode = build_discrete_mode(*config_from_mapping(overrides))
        assert cmath.isfinite(mode.s) and cmath.isfinite(mode.b_d) and not cmath.isfinite(mode.delta)
        assert np.all(np.isfinite(mode.node_amplitudes())) and np.all(np.isfinite(mode.node_values([0.0, 1.0])))


class TestContinuousMode:
    def test_wavenumber_square(self):
        for params, forcing in random_cases(seed=31, count=100):
            mode = build_continuous_mode(params, forcing)
            target = 1j / (params.Lambda**2 * mode.k_omega)
            assert abs(mode.r * mode.r - target) <= 1e-12 * abs(target)

    def test_dimensionless_r_lambda(self):
        # r*Lambda depends on k_omega only, not on the length itself
        params, forcing = default_pair()
        stretched = dataclasses.replace(params, Lambda=5.0 * params.Lambda)
        a = build_continuous_mode(params, forcing)
        b = build_continuous_mode(stretched, forcing)
        assert a.r * params.Lambda == pytest.approx(b.r * stretched.Lambda, rel=1e-12)

    def test_pinned_end(self):
        params, forcing = default_pair()
        mode = build_continuous_mode(params, forcing)
        # magnitude of each of the two terms that cancel at the pinned end
        scale = abs(mode.b) * np.exp(-mode.r.real * params.Lambda)
        assert abs(mode.profile(params.Lambda)) <= 1e-12 * scale
        assert abs(mode.values(params.Lambda, 0.8)) <= 1e-12 * scale

    def test_zero_forcing(self):
        params, forcing = default_pair(eps_tilde=0.0)
        mode = build_continuous_mode(params, forcing)
        assert mode.b == 0.0
        assert mode.values(1e-4, 2.0) == 0.0

    def test_smallest_k_omega_is_finite(self):
        # exp(2 r Lambda) overflowed here when the profile grew along the tail
        params, forcing = default_pair()
        mode = build_continuous_mode(params_for_k_omega(params, forcing, 1e-8), forcing)
        assert np.isfinite(mode.r) and np.isfinite(mode.b) and mode.b != 0.0
        head = abs(mode.profile(0.0))
        assert np.isfinite(head) and head > 0.0
        for t in (0.0, 0.8, 2.0):
            assert abs(mode.values(params.Lambda, t)) <= 1e-12 * head

    def test_robin_condition(self):
        for params, forcing in random_cases(seed=43, count=50):
            mode = build_continuous_mode(params, forcing)
            k = params.relaxation_rate
            lam = params.Lambda
            lhs = lam**2 * k * mode.profile_gradient(0.0) - lam * k * params.a_tilde / (
                2.0 * params.a1
            ) * mode.profile(0.0)
            rhs = (lam / 2.0) * 1j * forcing.omega * forcing.eps
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_ode_residual_by_finite_differences(self):
        # independent second derivative, not the r**2 shortcut
        params, forcing = default_pair()
        params = params_for_k_omega(params, forcing, 0.3765)
        mode = build_continuous_mode(params, forcing)
        lam = params.Lambda
        k = params.relaxation_rate
        y = np.linspace(0.1 * lam, 0.9 * lam, 7)
        dy = 1e-5 * lam
        second = (mode.profile(y + dy) - 2.0 * mode.profile(y) + mode.profile(y - dy)) / dy**2
        residual = 1j * forcing.omega * mode.profile(y) - lam**2 * k * second
        scale = forcing.omega * np.max(np.abs(mode.profile(y)))
        assert np.max(np.abs(residual)) <= 1e-5 * scale

    def test_matches_shooting_oracle(self):
        # integrate the boundary value problem from the pinned end and
        # scale the fundamental solution to satisfy the driven-end condition
        params, forcing = default_pair()
        params = params_for_k_omega(params, forcing, 0.3765)
        lam = params.Lambda
        k = params.relaxation_rate
        omega = forcing.omega
        ratio = params.a_tilde / (2.0 * params.a1)

        def rhs(_, state):
            # state = (Re l, Im l, Re l', Im l')
            ell = state[0] + 1j * state[1]
            second = 1j * omega * ell / (lam**2 * k)
            return [state[2], state[3], second.real, second.imag]

        sol = solve_ivp(
            rhs,
            (lam, 0.0),
            [0.0, 0.0, 1.0, 0.0],
            rtol=1e-11,
            atol=1e-14,
            dense_output=True,
        )
        assert sol.success
        phi0 = sol.y[0, -1] + 1j * sol.y[1, -1]
        dphi0 = sol.y[2, -1] + 1j * sol.y[3, -1]
        scale = ((lam / 2.0) * 1j * omega * forcing.eps) / (
            lam**2 * k * dphi0 - lam * k * ratio * phi0
        )

        mode = build_continuous_mode(params, forcing)
        assert scale * phi0 == pytest.approx(mode.profile(0.0), rel=1e-7)
        mid = sol.sol(lam / 2.0)
        assert scale * (mid[0] + 1j * mid[1]) == pytest.approx(
            complex(mode.profile(lam / 2.0)), rel=1e-7
        )

    def test_amplitude_decays_along_tail(self):
        params, forcing = default_pair()
        for k_omega in (0.05, 0.2, 1.0):
            retuned = params_for_k_omega(params, forcing, k_omega)
            mode = build_continuous_mode(retuned, forcing)
            assert abs(mode.profile(params.Lambda / 2.0)) < abs(mode.profile(0.0))

    def test_out_of_float_range_raises(self):
        base, forcing = default_pair()
        # Lambda sqrt(2 k_omega) ~ 3.5e-322 is subnormal, so r = (r Lambda)/Lambda overflows
        short = config_from_mapping({"Lambda": 1e-200, "k_tilde": 1e-250, "n_springs": 2})
        # r is fine, but an arm of 1e307 m at k_omega = 1e-4 drives b past the largest double
        long_arm = Forcing(eps_tilde=0.99, omega=forcing.omega, L_ref=1e307)
        soft = (params_for_k_omega(base, long_arm, 1e-4), long_arm)
        # Lambda sqrt(2 k_omega) ~ 1.4e325 overflows, so r underflows to 0 and b/r would divide by zero
        wide = (params_for_k_omega(dataclasses.replace(base, Lambda=1e300), forcing, 1e50), forcing)
        # Lambda sqrt(2 k_omega) ~ 1.4e310, so r is subnormal and has lost its digits
        subnormal = (params_for_k_omega(dataclasses.replace(base, Lambda=1e285), forcing, 1e50), forcing)
        for params, forcing in (short, soft, wide, subnormal):
            k_omega = k_omega_of(params, forcing)
            message = f"k_omega={k_omega!r}, Lambda={params.Lambda!r}: continuous mode out of float range"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="^" + re.escape(message)):
                    build_continuous_mode(params, forcing)
            assert [str(w.message) for w in caught] == []


class TestDiscreteContinuousConsistency:
    def test_first_node_approaches_profile_head(self):
        params, forcing = default_pair()
        gaps = []
        for n in (100, 1000, 10000):
            refined = dataclasses.replace(params, n_springs=n)
            b_d = build_discrete_mode(refined, forcing).b_d
            head = build_continuous_mode(refined, forcing).profile(0.0)
            gaps.append(abs(b_d - head) / abs(head))
        assert gaps[0] < 0.03
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse / fine == pytest.approx(10.0, rel=0.2)  # first order in h

    def test_node_values_approach_profile(self):
        params, forcing = default_pair()
        previous = None
        for n in (50, 100, 200):
            refined = dataclasses.replace(params, n_springs=n)
            mode_d = build_discrete_mode(refined, forcing)
            mode_c = build_continuous_mode(refined, forcing)
            nodes = np.arange(n + 1) * refined.h
            gap = np.max(np.abs(mode_d.node_amplitudes() - mode_c.profile(nodes)))
            if previous is not None:
                assert gap < 0.7 * previous
            previous = gap


@functools.cache
def chain_head_w(n):
    """W = -i eps/(2 k_omega A_0) of the n-spring chain with head amplitude A_0, as a function of (K, omega, rho).

    sympy solves the chain's n harmonic rows for A_0 directly, with no recurrence root and no z_d:
    i omega h A_j = (Lambda^2 K/h)(A_{j-1} - 2 A_j + A_{j+1}) for j = 1..n-1 with A_n = 0 pinned, and
    at the driven node i omega h A_0 = (Lambda^2 K/h)(A_1 - A_0) - Lambda K rho A_0 - (Lambda/2) i omega eps
    with rho = a_tilde/(2 a1), h = Lambda/n and k_omega = K/omega. Lambda and eps cancel out of W.
    """
    import sympy

    stiffness, omega, lam, eps, rho = sympy.symbols("K omega Lambda epsilon rho", positive=True)
    amps = sympy.symbols(f"A0:{n}")
    a = [*amps, 0]
    h = lam / n
    spring = lam**2 * stiffness / h
    rows = [sympy.I * omega * h * a[0] - spring * (a[1] - a[0]) + lam * stiffness * rho * a[0]
            + lam / 2 * sympy.I * omega * eps]
    rows += [sympy.I * omega * h * a[j] - spring * (a[j - 1] - 2 * a[j] + a[j + 1]) for j in range(1, n)]
    head = sympy.solve(rows, amps, dict=True)[0][amps[0]]
    w = sympy.cancel(-sympy.I * eps * omega / (2 * stiffness * head))
    assert w.free_symbols == {stiffness, omega, rho}
    return sympy.lambdify((stiffness, omega, rho), w, "mpmath")


class TestHeadCouplingFromTheChain:
    """ROADMAP item 10: the head term's W = n (1 - z_d) + a_tilde/(2 a1) + i/(k_omega n), derived afresh."""

    @pytest.mark.parametrize("a1", [1e-5, 3e-5])  # a_tilde/(2 a1) = 0.5, exact, and 1/6, rounded
    @pytest.mark.parametrize("k_omega", [1e-2, 0.28, 1e2])
    def test_symbolic_solve_matches_z_d(self, k_omega, a1):
        pytest.importorskip("sympy")
        n = 5
        params, forcing = default_pair(n_springs=n, a1=a1)
        mode = build_discrete_mode(params_for_k_omega(params, forcing, k_omega), forcing)
        ratio = params.a_tilde / (2.0 * params.a1)
        expected = n * (1.0 - mode.z_d) + ratio + 1j / (mode.k_omega * n)
        with mpmath.workdps(30):
            rho = mpmath.mpf(params.a_tilde) / (2 * mpmath.mpf(params.a1))
            w = complex(chain_head_w(n)(mpmath.mpf(mode.k_omega), 1, rho))
        assert abs(w - expected) <= 1e-12 * abs(expected)
        # and the head amplitude the program builds is the one this W gives
        head = -0.5j * forcing.eps / (mode.k_omega * w)
        assert abs(mode.b_d - head) <= 1e-12 * abs(head)
