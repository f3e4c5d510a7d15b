"""Unit tests for the continuous-time learning-by-doing duopoly model."""

import math

import numpy as np
import pytest
import yaml

from stackgame import dynamic
from stackgame.dynamic import (
    DynamicParams,
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
from stackgame.cli import main
from stackgame.errors import (
    ClosedFormOverflowError,
    HypothesisViolationError,
    NoDeterrentError,
    ParameterError,
    StackgameError,
)
from stackgame.numerics import TimeGrid

from conftest import per_call_defection_payoff

# Frozen benchmark values, cross-checked against the generic BVP solver and
# direct Simpson quadrature (see the acceptance tests).
BENCH_DELTA = 0.0483
BENCH_S1 = -0.08488630487917956
BENCH_S2 = 0.13488630487917954
BENCH_K_MIN = 0.029320752490263433
BENCH = dict(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05)
# The benchmark horizon T = 10 and changes to it: a start off the steady
# state, no learning, a short horizon with fast rates, a long horizon.
VARIANTS = [{}, {"x1_0": 3.0}, {"gamma": 0.0}, {"T": 0.5, "gamma": 0.3, "delta": 0.8, "r": 0.2},
            {"T": 30.0, "x1_0": 0.5}]


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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_eigenvalues_match_numpy(self, variant):
        p = DynamicParams(**{**BENCH, "T": 10.0, **variant})
        ref = np.sort(np.linalg.eigvals(system_matrix(p)).real)
        assert abs(p.saddle.s1 - ref[0]) < 1e-12 and abs(p.saddle.s2 - ref[1]) < 1e-12

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
        traj, _ = equilibrium_trajectories(dyn, grid)
        oracle = bvp_oracle_trajectories(dyn, grid)
        assert np.abs(traj["x1"] - oracle["x1"]).max() < 1e-8
        assert np.abs(traj["lam"] - oracle["lam"]).max() < 1e-8

    def test_boundary_values(self, dyn, grid):
        traj, _ = equilibrium_trajectories(dyn, grid)
        assert abs(traj["x1"][0] - dyn.x1_0) < 1e-12
        assert abs(traj["lam"][-1]) < 1e-10

    def test_costate_start_matches_coefficients(self, dyn, grid):
        ss = saddle_structure(dyn)
        assert abs(ss.lambda0 - ss.cl.sum()) < 1e-12
        # The coefficients meet both boundary conditions x1(0) = x1_0, lambda(T) = 0.
        assert abs(ss.cx.sum() - dyn.x1_0) < 1e-12
        lam_T = ss.cl[0] + ss.cl[1] * math.exp(ss.s1 * dyn.T) + ss.cl[2] * math.exp(ss.s2 * dyn.T)
        assert abs(lam_T) < 1e-10
        assert abs(ss.lambda0 - equilibrium_trajectories(dyn, grid)[0]["lam"][0]) < 1e-12

    def test_controls_satisfy_first_order_relations(self, dyn, grid):
        traj, _ = equilibrium_trajectories(dyn, grid)
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
        _, warnings = equilibrium_trajectories(p, TimeGrid(0.0, p.T, 100))
        assert any("cost-kink" in w for w in warnings)


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


class TestDefectionPayoffs:
    @pytest.mark.parametrize("n_steps", [10, 2000, 20_000])
    def test_equal_to_a_fresh_quadrature_per_rate(self, dyn, n_steps):
        grid = TimeGrid(0.0, dyn.T, n_steps)
        for t0 in (0.0, dyn.T / 4, dyn.T / 2, 3 * dyn.T / 4, dyn.T):
            payoff = dynamic.defection_payoffs(dyn, t0, grid)
            for k in (0.0, 1e-6, 0.05, 0.3, 1.0, 3.3):
                expected = per_call_defection_payoff(dyn, k, t0, grid)
                assert payoff(k) == expected
                assert defection_payoff(dyn, k, t0, grid) == expected

    def test_simpson_weights_built_once_per_evaluator(self, dyn, monkeypatch):
        builds = []
        rule = dynamic._simpson_rule
        monkeypatch.setattr(dynamic, "_simpson_rule", lambda n: builds.append(n) or rule(n))
        grid = TimeGrid(0.0, dyn.T, 2000)
        for t0 in (0.0, dyn.T / 2):
            builds.clear()
            payoff = dynamic.defection_payoffs(dyn, t0, grid)
            for k in (0.0, 0.05, 0.3):
                assert payoff(k) == per_call_defection_payoff(dyn, k, t0, grid)
            assert len(builds) == 1

    def test_rate_validated_per_call(self, dyn, grid):
        payoff = dynamic.defection_payoffs(dyn, dyn.T / 2, grid)
        for k in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                payoff(k)

    def test_grid_off_the_horizon_rejected(self, dyn):
        # Before, the defection payoff integrated over [0, T] on any grid while
        # the equilibrium payoff took the grid's span: min_k_dynamic on [0, 5]
        # returned k_min 0.02932 beside a quadrature root of 0.18240.
        for grid in (TimeGrid(0.0, dyn.T / 2, 2000), TimeGrid(1.0, dyn.T, 2000)):
            for call in (lambda: equilibrium_payoff(dyn, grid),
                         lambda: defection_payoff(dyn, 0.1, 0.0, grid),
                         lambda: dynamic.defection_payoffs(dyn, 0.0, grid),
                         lambda: min_k_dynamic(dyn, grid)):
                with pytest.raises(ParameterError, match="horizon"):
                    call()


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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_quadratic_form_matches_fine_quadrature(self, variant):
        p = DynamicParams(**{**BENCH, "T": 10.0, **variant})
        grid = TimeGrid(0.0, p.T, 20_000)
        j_star = equilibrium_payoff(p, grid)
        payoff = dynamic.defection_payoffs(p, 0.0, grid)
        for k in (0.0, 0.01, 0.3, 2.0):
            quad = 64.0 * p.b * (j_star - payoff(k))
            assert abs(theorem2_lhs(p, k) - quad) <= 1e-10 * abs(quad)

    def test_resonant_exponent_flagged(self, dyn):
        # The exponent s1 + s2 - r of the (s1, s2) entries vanishes identically.
        mu = dyn.saddle.s1 + dyn.saddle.s2 - dyn.r
        assert abs(mu) < 1e-12
        assert dynamic._phi(mu, dyn.T) == dyn.T

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

    def test_rate_free_arrays_built_once_per_defection_time(self, dyn, grid, monkeypatch):
        spans = []
        states = dynamic.SaddleStructure.states

        def counting(self, t):
            spans.append((float(t[0]), float(t[-1])))
            return states(self, t)

        monkeypatch.setattr(dynamic.SaddleStructure, "states", counting)
        min_k_dynamic(dyn, grid)
        T = dyn.T
        # The equilibrium payoff, the t0 = 0 payoffs of the quadrature root and
        # the scan, and both pieces of each later defection time, once each.
        later = [(0.0, t0) for t0 in (T / 4, T / 2, 3 * T / 4)]
        later += [(t0, T) for t0 in (T / 4, T / 2, 3 * T / 4)]
        assert sorted(spans) == sorted([(0.0, T), (0.0, T)] + later)

    def test_short_horizon_doubles_the_bracket_past_one(self):
        # The threshold grows like 1/T: at T = 0.1 both roots lie in [2, 4].
        p = DynamicParams(**BENCH, T=0.1)
        res = min_k_dynamic(p)
        assert theorem2_lhs(p, 2.0) < 0.0 < theorem2_lhs(p, 4.0)
        assert abs(res.k_min - 2.4096173857) < 1e-7
        assert abs(res.details["k_min_quadrature"] - res.k_min) < 1e-6

    def test_no_deterrent_rate_up_to_1e6_raises(self):
        # At T = 1e-7 the threshold would be about 2.4e6.
        with pytest.raises(NoDeterrentError, match="up to k = 1e6"):
            min_k_dynamic(DynamicParams(**BENCH, T=1e-7))

    def test_rate_zero_when_the_smallest_rate_deters(self, dyn, grid, monkeypatch):
        # No parameters deter at k = 1e-6 (defection gains pointwise, see
        # below), so the closed form is patched; the quadrature root is not.
        monkeypatch.setattr(dynamic, "theorem2_lhs", lambda p, k: 1.0)
        res = min_k_dynamic(dyn, grid)
        assert res.k_min == 0.0
        assert abs(res.details["k_min_quadrature"] - BENCH_K_MIN) < 1e-6

    def test_positive_rate_needed_even_without_learning(self):
        # Defection strictly gains pointwise, so k = 0 never deters.
        p = DynamicParams(a=10.0, b=1.0, cbar1=2.0, gamma=0.0, delta=0.1, r=0.05, T=10.0)
        res = min_k_dynamic(p)
        assert res.k_min > 0.0


class TestLongHorizon:
    """On the benchmark parameters e^{(2 s2 - r) T} leaves the float range from T = 3300
    (theorem2_lhs) and e^{s2 T} from T = 5300 (saddle_structure): a StackgameError, exit 3."""

    def test_overflow_raises_a_stackgame_error(self):
        assert theorem2_lhs(DynamicParams(**BENCH, T=3200.0), 0.1) > 0.0
        assert issubclass(ClosedFormOverflowError, StackgameError)
        assert not issubclass(ClosedFormOverflowError, ArithmeticError)
        at_3300, at_5300 = DynamicParams(**BENCH, T=3300.0), DynamicParams(**BENCH, T=5300.0)
        saddle_structure(at_3300)
        for call in (lambda: theorem2_lhs(at_3300, 0.1), lambda: min_k_dynamic(at_3300),
                     lambda: saddle_structure(at_5300), lambda: theorem2_lhs(at_5300, 0.1),
                     lambda: equilibrium_trajectories(at_5300, TimeGrid(0.0, 5300.0, 100))):
            with pytest.raises(ClosedFormOverflowError, match="leaves the float range"):
                call()

    @pytest.mark.parametrize("T, actions", [
        (3300.0, ["threshold-k"]), (5300.0, ["threshold-k", "equilibrium", "verify"]),
    ])
    def test_cli_exits_3(self, tmp_path, capsys, T, actions):
        cfg = tmp_path / "dynamic.yaml"
        cfg.write_text(yaml.safe_dump({"params": {**BENCH, "T": T}}))
        for action in actions:
            assert main(["dynamic", action, "--config", str(cfg), "--steps", "2000",
                         "--out", str(tmp_path / action)]) == 3
            assert "leaves the float range" in capsys.readouterr().err
            assert not (tmp_path / action).exists()


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
