"""Unit tests for the continuous-time learning-by-doing duopoly model."""

import math

import numpy as np
import pytest

from stackgame.dynamic import (
    DynamicParams,
    appendix_constants,
    bvp_oracle_trajectories,
    check_equ20_identity,
    defection_payoff,
    equilibrium_payoff,
    equilibrium_trajectories,
    min_k_dynamic,
    saddle_structure,
    system_matrix,
    theorem2_lhs,
)
from stackgame.errors import HypothesisViolationError, ParameterError
from stackgame.numerics import TimeGrid

# Frozen benchmark values, cross-checked against the generic BVP solver and
# direct Simpson quadrature (see the acceptance tests).
BENCH_DELTA = 0.0483
BENCH_S1 = -0.08488630487917956
BENCH_S2 = 0.13488630487917954
BENCH_K_MIN = 0.029320752490263433


@pytest.fixture
def grid(dyn):
    return TimeGrid(0.0, dyn.T, 2000)


class TestSaddleStructure:
    def test_benchmark_eigenvalues(self, dyn):
        ss = saddle_structure(dyn)
        assert abs(ss.Delta - BENCH_DELTA) < 1e-12
        assert abs(ss.s1 - BENCH_S1) < 1e-12
        assert abs(ss.s2 - BENCH_S2) < 1e-12
        assert ss.s1 < 0.0 < ss.s2

    def test_eigenvalues_sum_to_discount_rate(self, dyn):
        ss = saddle_structure(dyn)
        assert abs((ss.s1 + ss.s2) - dyn.r) < 1e-14

    def test_eigenvector_slopes_solve_the_matrix(self, dyn):
        ss = saddle_structure(dyn)
        m = system_matrix(dyn)
        for s, q in ((ss.s1, ss.q1), (ss.s2, ss.q2)):
            v = np.array([1.0, q])
            assert np.abs(m @ v - s * v).max() < 1e-12

    def test_structure_is_built_once_per_record(self, dyn):
        ss = dyn.saddle
        assert dyn.saddle is ss
        fresh = saddle_structure(dyn)
        assert (ss.s1, ss.s2, ss.lambda0) == (fresh.s1, fresh.s2, fresh.lambda0)
        np.testing.assert_array_equal(ss.cl, fresh.cl)
        x1, lam = ss.states(np.array([0.0, dyn.T]))
        assert x1[0] == ss.cx.sum() and lam[0] == ss.cl.sum()

    def test_hypothesis_violation_raises(self):
        p = DynamicParams(a=10.0, b=1.0, cbar1=2.0, gamma=1.0, delta=0.1, r=1.0, T=10.0)
        with pytest.raises(HypothesisViolationError):
            saddle_structure(p)


class TestTrajectories:
    def test_closed_form_matches_bvp_oracle(self, dyn, grid):
        traj = equilibrium_trajectories(dyn, grid)
        oracle = bvp_oracle_trajectories(dyn, grid)
        assert np.abs(traj["x1"] - oracle["x1"]).max() < 1e-8
        assert np.abs(traj["lam"] - oracle["lam"]).max() < 1e-8

    def test_boundary_values(self, dyn, grid):
        traj = equilibrium_trajectories(dyn, grid)
        assert abs(traj["x1"][0] - dyn.x1_0) < 1e-12
        assert abs(traj["lam"][-1]) < 1e-10

    def test_costate_start_matches_coefficients(self, dyn, grid):
        ss = saddle_structure(dyn)
        assert abs(ss.lambda0 - ss.cl.sum()) < 1e-12
        # The coefficients meet both boundary conditions x1(0) = x1_0, lambda(T) = 0.
        assert abs(ss.cx.sum() - dyn.x1_0) < 1e-12
        lam_T = ss.cl[0] + ss.cl[1] * math.exp(ss.s1 * dyn.T) + ss.cl[2] * math.exp(ss.s2 * dyn.T)
        assert abs(lam_T) < 1e-10
        assert abs(ss.lambda0 - equilibrium_trajectories(dyn, grid)["lam"][0]) < 1e-12

    def test_controls_satisfy_first_order_relations(self, dyn, grid):
        traj = equilibrium_trajectories(dyn, grid)
        X = dyn.a_eff + dyn.c1_eff - dyn.gamma * traj["x1"]
        np.testing.assert_allclose(traj["u0"], (X - traj["lam"]) / (2 * dyn.b), atol=1e-12)
        np.testing.assert_allclose(traj["u0_hat"], (3 * X - traj["lam"]) / (8 * dyn.b), atol=1e-12)
        # Defection is a strict pointwise improvement against the frozen follower.
        gain = (3 * X - traj["lam"]) ** 2 / (64 * dyn.b) - (X**2 - traj["lam"] ** 2) / (8 * dyn.b)
        assert np.all(gain > 0)

    def test_cost_kink_crossing_emits_warning(self, dyn):
        p = DynamicParams(
            a=dyn.a, b=dyn.b, cbar1=dyn.cbar1, gamma=dyn.gamma, delta=dyn.delta,
            r=dyn.r, T=dyn.T, x1_0=150.0,
        )
        traj = equilibrium_trajectories(p, TimeGrid(0.0, p.T, 100))
        assert any("cost-kink" in w for w in traj.warnings)


class TestPayoffs:
    def test_unpunished_defection_beats_equilibrium(self, dyn, grid):
        j_star = equilibrium_payoff(dyn, grid)
        j_tilde = defection_payoff(dyn, 0.0, 0.0, grid)
        assert j_tilde > j_star

    def test_defection_payoff_decreases_in_k(self, dyn, grid):
        ks = [0.0, 0.05, 0.2, 1.0]
        vals = [defection_payoff(dyn, k, 0.0, grid) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_defecting_at_the_horizon_changes_nothing(self, dyn, grid):
        j_star = equilibrium_payoff(dyn, grid)
        assert abs(defection_payoff(dyn, 5.0, dyn.T, grid) - j_star) < 1e-6

    def test_input_validation(self, dyn, grid):
        with pytest.raises(ParameterError):
            defection_payoff(dyn, -0.1, 0.0, grid)
        with pytest.raises(ParameterError):
            defection_payoff(dyn, 0.1, dyn.T + 1.0, grid)
        for k in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                defection_payoff(dyn, k, 0.0, grid)


class TestIdentityAndClosedForm:
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 1.0])
    def test_pointwise_identity_residual(self, dyn, grid, k):
        assert check_equ20_identity(dyn, k, grid) < 1e-12

    @pytest.mark.parametrize("k", [0.05, 0.1, 0.3, 1.0])
    def test_closed_form_matches_quadrature(self, dyn, grid, k):
        lhs = theorem2_lhs(dyn, k)
        j_star = equilibrium_payoff(dyn, grid)
        quad = 64.0 * dyn.b * (j_star - defection_payoff(dyn, k, 0.0, grid))
        assert abs(lhs - quad) / (abs(quad) + 1e-30) < 1e-6

    def test_resonant_exponent_flagged(self, dyn):
        ac = appendix_constants(dyn, 0.3)
        assert len(ac.values) == 12 and len(ac.exponents) == 12
        # The fifth exponent is s1 + s2 - r, which vanishes identically.
        assert abs(ac.exponents[4]) < 1e-12
        assert ac.resonant[4]
        # With k = 0 the shifted block coincides with the unshifted one.
        ac0 = appendix_constants(dyn, 0.0)
        np.testing.assert_allclose(ac0.exponents[6:], ac0.exponents[:6], atol=1e-15)

    def test_deterrence_sign_structure(self, dyn):
        assert theorem2_lhs(dyn, 0.0) < 0.0  # unpunished defection pays
        assert theorem2_lhs(dyn, 1.0) > 0.0  # heavy punishment deters


class TestMinK:
    def test_benchmark_threshold_both_methods(self, dyn, grid):
        res = min_k_dynamic(dyn, grid)
        assert abs(res.k_min - BENCH_K_MIN) < 1e-7
        assert abs(res.k_min - res.details["k_min_quadrature"]) < 1e-6

    def test_quadrature_root_is_the_simpson_oracles_own(self, dyn):
        # On a coarse grid Simpson's error moves the oracle's root off the closed form's.
        grid = TimeGrid(0.0, dyn.T, 10)
        res = min_k_dynamic(dyn, grid)
        k_quad = res.details["k_min_quadrature"]
        j_star = equilibrium_payoff(dyn, grid)

        def gap(k):
            return j_star - defection_payoff(dyn, k, 0.0, grid)

        assert gap(k_quad - 2e-8) < 0.0 < gap(k_quad + 2e-8)
        assert abs(k_quad - res.k_min) > 1e-8

    def test_threshold_deters_time_zero_defection_only(self, dyn, grid):
        # The penalty clock restarts at the defection time, so at the minimal
        # rate for a time-zero defection a mid-horizon defection still pays.
        res = min_k_dynamic(dyn, grid)
        scan = res.details["t0_scan"]
        assert scan[0.0] <= res.j_star + 1e-9 * (1.0 + res.j_star)
        assert any(v > res.j_star for t0, v in scan.items() if t0 > 0.0)
        assert not res.deterred

    def test_positive_rate_needed_even_without_learning(self):
        # Defection strictly gains pointwise, so k = 0 never deters.
        p = DynamicParams(a=10.0, b=1.0, cbar1=2.0, gamma=0.0, delta=0.1, r=0.05, T=10.0)
        res = min_k_dynamic(p)
        assert res.k_min > 0.0


class TestParamValidation:
    def test_rejects_bad_parameters(self):
        good = dict(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05, T=10.0)
        for key, val in [("b", 0.0), ("gamma", -0.1), ("delta", 0.0), ("r", 0.0),
                         ("T", 0.0), ("gamma", 3.0)]:
            bad = dict(good, **{key: val})
            with pytest.raises(ParameterError):
                DynamicParams(**bad)

    def test_rejects_non_finite_parameters(self):
        good = dict(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05, T=10.0,
                    c0=0.0, x1_0=0.0)
        for key in good:
            for val in (math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterError, match=key):
                    DynamicParams(**dict(good, **{key: val}))

    def test_cost_normalization(self):
        p = DynamicParams(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05,
                          T=10.0, c0=1.0)
        assert p.a_eff == 9.0 and p.c1_eff == 1.0
        assert abs(p.kink_level - 1.0 / 0.02) < 1e-12

    def test_kink_level_infinite_without_learning(self):
        p = DynamicParams(a=10.0, b=1.0, cbar1=2.0, gamma=0.0, delta=0.1, r=0.05, T=10.0)
        assert math.isinf(p.kink_level)
