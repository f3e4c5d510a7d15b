"""Unit tests for the major/minor mean-field game model."""

import errno
import math
import os
import tracemalloc

import numpy as np
import pytest
import yaml

from stackgame import meanfield, numerics
from stackgame.cli import main
from stackgame.errors import (
    ConfigurationError,
    IntegrationBlowupError,
    NoDeterrentError,
    ParameterError,
    RiccatiBlowupError,
    SimulationBlowupError,
)
from stackgame.meanfield import (
    McConfig,
    MfgParams,
    defection_riccati,
    euler_condition_check,
    follower_euler_check,
    follower_feedback_check,
    follower_riccati,
    growth_order_check,
    mc_payoffs,
    mean_field_bvp,
    mean_payoffs,
    min_k_meanfield,
)
from stackgame.numerics import (
    AffineSystem,
    TimeGrid,
    path_normals,
    rk4_solve_general,
    solve_affine_bvp,
)
from stackgame.results import PenaltySearchResult

from conftest import drawn_from


def mfg_with(base: dict, **overrides) -> MfgParams:
    return MfgParams(**{**base, **overrides})


class TestRiccati:
    def test_follower_without_feedback_is_linear(self, mfg_kwargs):
        # A = 0, r = 0, B = 0 gives F' = 1, F(T) = 0, i.e. F(t) = t - T.
        p = mfg_with(mfg_kwargs, A=0.0, r=0.0, B=0.0, T=2.0)
        grid = TimeGrid(0.0, p.T, 500)
        F = follower_riccati(p, grid)
        np.testing.assert_allclose(F, grid.times() - p.T, atol=1e-12)
        assert abs(F[0] + p.T) < 1e-12

    def test_follower_tangent_closed_form(self, mfg_kwargs):
        # A = 0, r = 0, B^2/a = 1 gives F' = F^2 + 1, so F(t) = -tan(T - t).
        p = mfg_with(mfg_kwargs, A=0.0, r=0.0, B=1.0, a=1.0, T=0.5)
        grid = TimeGrid(0.0, p.T, 1000)
        F = follower_riccati(p, grid)
        np.testing.assert_allclose(F, -np.tan(p.T - grid.times()), atol=1e-10)

    def test_defection_tangent_closed_form(self, mfg_kwargs):
        # A0 = 0, r + k = 0, B0^2/(2 a0) = 2 gives Q(t) = tan(2 (T - t)).
        p = mfg_with(mfg_kwargs, A0=0.0, r=0.0, B0=2.0, a0=1.0, T=0.5)
        grid = TimeGrid(0.0, p.T, 1000)
        Q = defection_riccati(p, 0.0, grid)
        np.testing.assert_allclose(Q, np.tan(2.0 * (p.T - grid.times())), atol=1e-9)
        assert abs(Q[0] - math.tan(1.0)) < 1e-9

    def test_blowup_detected(self, mfg_kwargs):
        # tan(2 (T - t)) has a pole inside the horizon once 2 T > pi / 2.
        p = mfg_with(mfg_kwargs, A0=0.0, r=0.0, B0=2.0, a0=1.0, T=1.0)
        with pytest.raises(RiccatiBlowupError):
            defection_riccati(p, 0.0, TimeGrid(0.0, p.T, 1000))

    def test_pole_reported_within_one_step_below_it(self, mfg_kwargs):
        # F = -tan(T - t) has its pole at t = T - pi/2; the march reports the
        # first node at or past it, marching from T.
        wrong = []
        for T in np.linspace(1.6, 4.5, 30):
            p = mfg_with(mfg_kwargs, A=0.0, r=0.0, B=1.0, a=1.0, T=float(T))
            pole = p.T - math.pi / 2.0
            for n_steps in (20, 50, 100, 250, 1000):
                grid = TimeGrid(0.0, p.T, n_steps)
                try:
                    follower_riccati(p, grid)
                    wrong.append((T, n_steps, None))
                except RiccatiBlowupError as err:
                    if not pole - grid.h <= err.t_blowup <= pole:
                        wrong.append((T, n_steps, err.t_blowup))
        assert wrong == []

    def test_non_finite_march_raises_riccati_blowup_at_real_time(self, mfg, monkeypatch):
        # A gain that passes the step check never makes the march grow, so
        # the march is replaced by one that fails as _affine_march does: at
        # march node 3, reporting that node's time on the reversed grid.
        def overflowing(matrix, offset, grid, y0):
            raise IntegrationBlowupError(step=3, t=float(grid.times()[3]))

        monkeypatch.setattr(meanfield, "_affine_march", overflowing)
        grid = TimeGrid(0.0, mfg.T, 100)
        with pytest.raises(RiccatiBlowupError) as err:
            follower_riccati(mfg, grid)
        assert err.value.t_blowup == grid.times()[-4]

    def test_step_beyond_rk4_stability_is_refused(self, mfg_kwargs):
        # A = -25 gives modes about 50 apart: 10 steps on [0, 1] would grow
        # the damped one, 100 steps resolve it.
        p = mfg_with(mfg_kwargs, A=-25.0)
        with pytest.raises(ConfigurationError, match="10 steps are too few"):
            follower_riccati(p, TimeGrid(0.0, p.T, 10))
        c1, c2 = p.r - 2.0 * p.A, p.B**2 / p.a
        F = follower_riccati(p, TimeGrid(0.0, p.T, 100))
        assert abs(F[0] + 2.0 / (c1 + math.sqrt(c1 * c1 - 4.0 * c2))) < 1e-12

    def test_step_that_damps_the_dominant_mode_more_is_refused(self):
        # h |root| = 1.58 is inside RK4's real stability interval, but RK4
        # amplifies the dominant mode by |R| = 0.425 and the other by 0.599,
        # so X would cross zero at t = 7.76 where y has no pole.  200 steps
        # resolve the gain, which settles on its equilibrium -2 c0 / (c1 + root).
        c0, c1, c2 = -2.0, 19.64, -37.19
        with pytest.raises(ConfigurationError, match="50 steps are too few"):
            meanfield._backward_riccati(c0, c1, c2, TimeGrid(0.0, 8.43, 50))
        y = meanfield._backward_riccati(c0, c1, c2, TimeGrid(0.0, 8.43, 200))
        equilibrium = -2.0 * c0 / (c1 + math.sqrt(c1 * c1 - 4.0 * c0 * c2))
        assert abs(y[0] - equilibrium) < 1e-12 * equilibrium

    @pytest.mark.parametrize("overrides, n_steps", [
        (dict(A=-1000.0), 1000),
        # X and Y decay like e^{-9.3 (T - t)}: unscaled they underflow and
        # report a pole near t = 19 that is not there.
        (dict(A=-10.0, B=10.0, T=100.0), 1000),
    ])
    def test_gain_settles_on_its_equilibrium(self, mfg_kwargs, overrides, n_steps):
        p = mfg_with(mfg_kwargs, **overrides)
        c1, c2 = p.r - 2.0 * p.A, p.B**2 / p.a
        F = follower_riccati(p, TimeGrid(0.0, p.T, n_steps))
        equilibrium = -2.0 / (c1 + math.sqrt(c1 * c1 - 4.0 * c2))
        assert abs(F[0] - equilibrium) < 1e-12 * abs(equilibrium)

    # F, fbar, Q and q start their backward marches at T from exact zeros: the
    # Radon march from (X, Y) = (1, 0), the offsets' recurrence from 0.0.  So
    # an adjoint residual F(T) x_T + fbar(T) is 0 on every finite path.
    @pytest.mark.parametrize("n_steps", [250, 20_000])
    def test_backward_solves_end_at_exact_zeros(self, mfg, n_steps):
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, n_steps))
        Q, q = meanfield._defection_offset(mfg, 0.5, sol)
        assert sol["F"][-1] == 0.0 and sol["fbar"][-1] == 0.0
        assert Q[-1] == 0.0 and q[-1] == 0.0

    def test_range_shifted_gain_ends_at_exact_zero(self, mfg_kwargs):
        # The faster mode would move (X, Y) by e^{9.3 T}, past _MARCH_RANGE, so
        # the march carries e^{-d s} (X, Y) with d > 0; it still starts at (1, 0).
        p = mfg_with(mfg_kwargs, A=-10.0, B=10.0, T=100.0)
        c1, c2 = p.r - 2.0 * p.A, p.B**2 / p.a
        assert (c1 - math.sqrt(c1 * c1 - 4.0 * c2)) / 2.0 * p.T > meanfield._MARCH_RANGE
        assert follower_riccati(p, TimeGrid(0.0, p.T, 1000))[-1] == 0.0

    def test_negative_rate_rejected(self, mfg, mc_small):
        with pytest.raises(ParameterError):
            defection_riccati(mfg, -0.5, TimeGrid(0.0, mfg.T, 100))

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, mfg, k):
        with pytest.raises(ParameterError, match="k must be finite"):
            defection_riccati(mfg, k, TimeGrid(0.0, mfg.T, 100))


class TestMeanFieldBvp:
    def test_benchmark_residuals(self, mfg):
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, 1000))
        for name, v in sol.boundary_residuals.items():
            assert v < 1e-8, f"boundary residual {name} = {v}"
        for name, v in sol.ode_residuals.items():
            assert v < 1e-6, f"drift residual {name} = {v}"

    def test_adjoint_feedback_identity(self, mfg):
        # pbar computed from the two-point system must agree with F xbar + fbar.
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, 1000))
        assert sol.ode_residuals["pbar-feedback"] < 1e-6

    def test_auxiliary_multiplier_boundary_convention(self, mfg):
        p = mfg
        grid = TimeGrid(0.0, p.T, 500)
        default = mean_field_bvp(p, grid)
        assert abs(default["xi"][0]) < 1e-12
        # The alternative convention xi(T) = 0 on the same six-variable system.
        boundary = [(0, "t0", p.x0_init), (1, "t0", p.xbar_init), (2, "t1", 0.0),
                    (3, "t1", 0.0), (4, "t1", 0.0), (5, "t1", 0.0)]
        printed = solve_affine_bvp(
            AffineSystem(meanfield._equilibrium_matrix(p), meanfield._equilibrium_offset(p),
                         boundary, names=("x0", "xbar", "pbar", "p0", "lam", "xi")), grid)
        assert abs(printed["xi"][-1]) < 1e-12
        u0 = (p.B0 / p.a0) * printed["p0"] - (p.B * p.sigma / (p.a * p.a0)) * printed["lam"]
        # The two conventions give genuinely different controls.
        assert np.abs(default["u0_star"] - u0).max() > 1e-3

    def test_leader_decouples_without_cross_terms(self, mfg_kwargs):
        p = mfg_with(mfg_kwargs, sigma=0.0, D=0.0, C=0.0, C0=0.0, l=0.0, l0=0.0)
        grid = TimeGrid(0.0, p.T, 500)
        sol = mean_field_bvp(p, grid)
        # Standalone leader problem: x0' = A0 x0 + (B0^2/a0) p0,
        # p0' = (r - A0) p0 - (x0 + b0), with x0(0) given and p0(T) = 0.
        system = AffineSystem(
            matrix=np.array(
                [[p.A0, p.B0**2 / p.a0], [-1.0, p.r - p.A0]]
            ),
            offset=np.array([0.0, -p.b0]),
            boundary=[(0, "t0", p.x0_init), (1, "t1", 0.0)],
            names=("x0", "p0"),
        )
        solo = solve_affine_bvp(system, grid)
        assert np.abs(sol["x0"] - solo["x0"]).max() < 1e-8
        assert np.abs(sol["p0"] - solo["p0"]).max() < 1e-8


def _close(a, b, rel=1e-11):
    """Agreement to `rel`, relative to the largest reference value."""
    np.testing.assert_allclose(a, b, rtol=0.0, atol=rel * np.abs(b).max())


class TestStepMapsMatchCallbacks:
    """The callback-free deterministic solves against RK4 over np.interp callbacks."""

    @pytest.mark.parametrize("n_steps", [250, 2000])
    def test_equilibrium_bvp(self, mfg, closure_bvp, n_steps):
        p = mfg
        grid = TimeGrid(0.0, p.T, n_steps)
        sol = mean_field_bvp(p, grid)
        offset = meanfield._equilibrium_offset(p)
        boundary = [(0, "t0", p.x0_init), (1, "t0", p.xbar_init), (2, "t1", 0.0),
                    (3, "t1", 0.0), (4, "t1", 0.0), (5, "t0", 0.0)]
        oracle = closure_bvp(meanfield._equilibrium_matrix(p), lambda t: offset, boundary, grid)
        for i, name in enumerate(("x0", "xbar", "pbar", "p0", "lam", "xi")):
            _close(sol[name], oracle[:, i])

    def test_riccati_gains_agree_with_rk4_oracle(self, mfg):
        # Radon's linear march and RK4 on the Riccati equation itself are
        # different O(h^4) schemes; 1.3e-13 of the largest value was measured.
        p, k = mfg, 0.5
        c, c0 = p.B**2 / p.a, p.B0**2 / (2.0 * p.a0)
        for n_steps in (1000, 2000):
            grid = TimeGrid(0.0, p.T, n_steps)
            F = rk4_solve_general(lambda t, y: (p.r - 2.0 * p.A) * y + c * y * y + 1.0,
                                  [0.0], grid, backward=True)[:, 0]
            Q = rk4_solve_general(lambda t, y: (p.r + k - 2.0 * p.A0) * y - c0 * y * y - 2.0,
                                  [0.0], grid, backward=True)[:, 0]
            _close(follower_riccati(p, grid), F)
            _close(defection_riccati(p, k, grid), Q)

    def test_feedback_offset(self, mfg):
        p = mfg
        grid = TimeGrid(0.0, p.T, 1000)
        sol = mean_field_bvp(p, grid)
        t = grid.times()

        def rhs(s, y):
            F, u0, xbar, x0 = (np.interp(s, t, sol[n]) for n in ("F", "u0_star", "xbar", "x0"))
            return ((p.r - p.A + p.B**2 / p.a * F) * y + (p.B * p.sigma / p.a) * F * u0
                    - (p.C * F + p.l) * xbar - p.D * F * x0 + p.b)

        _close(sol["fbar"], rk4_solve_general(rhs, [0.0], grid, backward=True)[:, 0])

    def test_defection_offset(self, mfg):
        p, k = mfg, 0.5
        grid = TimeGrid(0.0, p.T, 1000)
        sol = mean_field_bvp(p, grid)
        Q_nodes, q = meanfield._defection_offset(p, k, sol)
        t, c = grid.times(), p.B0**2 / (2.0 * p.a0)

        def rhs(s, y):
            Q, xbar = np.interp(s, t, Q_nodes), np.interp(s, t, sol["xbar"])
            return (p.r + k - p.A0 - c * Q) * y + (2.0 * p.l0 - p.C0 * Q) * xbar - 2.0 * p.b0

        _close(q, rk4_solve_general(rhs, [0.0], grid, backward=True)[:, 0])

    def test_follower_response_with_node_offset(self, mfg, closure_bvp):
        p = mfg
        grid = TimeGrid(0.0, p.T, 1000)
        t = grid.times()
        u0 = mean_field_bvp(p, grid)["u0_star"] + 0.3 * np.sin(5.0 * t)
        got = meanfield._follower_response(p, u0, grid)
        m = np.array([[p.A0, p.C0, 0.0], [p.D, p.A + p.C, -p.B**2 / p.a],
                      [0.0, 1.0 - p.l, p.r - p.A]])

        def offset(s):
            u = np.interp(s, t, u0)
            return np.array([p.B0 * u, -(p.B * p.sigma / p.a) * u, p.b])

        boundary = [(0, "t0", p.x0_init), (1, "t0", p.xbar_init), (2, "t1", 0.0)]
        oracle = closure_bvp(m, offset, boundary, grid)
        for i, name in enumerate(("m0", "xbar", "pbar")):
            _close(got[name], oracle[:, i])

    def test_no_per_step_interpolation(self, mfg, monkeypatch):
        # A callback per RK4 stage would make the count grow with the grid.
        calls = []
        interp = np.interp

        def counting(*args, **kwargs):
            calls.append(1)
            return interp(*args, **kwargs)

        monkeypatch.setattr(np, "interp", counting)
        counts = []
        for n_steps in (100, 1000):
            calls.clear()
            sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, n_steps))
            meanfield._defection_offset(mfg, 0.5, sol)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestMonteCarlo:
    def test_zero_noise_reproduces_deterministic_reference(self, mfg, monkeypatch):
        # mean_payoffs sums the marches' constant terms, and mc_payoffs marches.
        # Without noise every path is the Euler mean, so a run marches one path
        # whatever mc.n_paths says: every estimate is exact, with an SE of 0.0,
        # nothing is drawn and nothing forks, on two CPUs too.
        def refuse(*args):
            raise AssertionError("a zero-noise run drew normals or forked")

        monkeypatch.setattr(numerics, "_draw_rows", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        zero_feedback = {"mean_residual": 0.0, "stderr": 0.0, "within_3se": True}
        for n_steps in (50, 250, 300, 1000):
            sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, n_steps))
            v = 1.0 + 0.5 * np.sin(3.0 * sol.grid.times())
            euler = []  # both Euler checks' means, per path count
            for n_paths in (2, 1000, 4097, 40_000):
                mc = McConfig(n_paths=n_paths, n_steps=n_steps, seed=7, zero_noise=True)
                for k in (0.0, 0.2, 0.3):
                    j_eq, j_def = mc_payoffs(mfg, k, mc)
                    assert (j_eq.mean, j_def.mean) == mean_payoffs(mfg, k, sol)
                    assert j_eq.stderr == j_def.stderr == 0.0
                ests = (euler_condition_check(mfg, sol["u0_star"], v, mc),
                        follower_euler_check(mfg, sol, v, mc))
                for est in ests:
                    parts = (est, est.certainty_equivalent, est.variance_channel)
                    assert [part.stderr for part in parts] == [0.0] * 3
                euler.append([est.mean for est in ests])
                assert follower_feedback_check(mfg, sol, mc) == zero_feedback
                res = min_k_meanfield(mfg, mc, sol=sol)
                assert res.k_min == res.details["pilot_k"]
                assert (res.j_star, res.j_tilde_at_k) == mean_payoffs(mfg, res.k_min, sol)
                assert res.details["j_star_stderr"] == res.details["j_tilde_stderr"] == 0.0
            assert euler == euler[:1] * len(euler)

    def test_mean_payoffs_blowup_is_the_zero_noise_marchs(self, mfg):
        mc = McConfig(n_paths=2, n_steps=50, zero_noise=True)
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, mc.n_steps))
        sol.channels["u0_star"] = sol["u0_star"].copy()
        sol.channels["u0_star"][20:] = math.inf  # the leader's Euler mean is inf from step 21
        errors = []
        with np.errstate(all="ignore"):
            for call in (lambda: mean_payoffs(mfg, 0.0, sol), lambda: mc_payoffs(mfg, 0.0, mc, sol)):
                with pytest.raises(SimulationBlowupError) as err:
                    call()
                errors.append((err.value.path_index, err.value.step))
        assert errors == [(0, 21), (0, 21)]

    def test_same_seed_gives_identical_estimates(self, mfg, mc_small):
        a = mc_payoffs(mfg, 0.1, mc_small)
        b = mc_payoffs(mfg, 0.1, mc_small)
        assert a[0].mean == b[0].mean and a[1].mean == b[1].mean
        assert a[0].stderr == b[0].stderr and a[1].stderr == b[1].stderr

    def test_unpunished_defection_pays(self, mfg, mc_small):
        j_eq, j_def = mc_payoffs(mfg, 0.0, mc_small)
        assert j_def.mean > j_eq.mean

    def test_heavy_punishment_deters(self, mfg, mc_small):
        j_eq, j_def = mc_payoffs(mfg, 50.0, mc_small)
        assert j_def.mean + 3 * j_def.stderr < j_eq.mean - 3 * j_eq.stderr

    def test_grid_mismatch_rejected(self, mfg, mc_small):
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, 123))
        with pytest.raises(ParameterError):
            mc_payoffs(mfg, 0.0, mc_small, sol=sol)
        with pytest.raises(ParameterError):
            follower_feedback_check(mfg, sol, mc_small)

    def test_horizon_mismatch_rejected(self, mfg_kwargs, mc_small):
        # Same step count, different horizon: every MC entry point refuses.
        p = mfg_with(mfg_kwargs, T=2.0)
        sol = mean_field_bvp(mfg_with(mfg_kwargs, T=1.0), TimeGrid(0.0, 1.0, mc_small.n_steps))
        v = np.ones(mc_small.n_steps + 1)
        for call in (lambda: mc_payoffs(p, 0.0, mc_small, sol=sol),
                     lambda: follower_feedback_check(p, sol, mc_small),
                     lambda: follower_euler_check(p, sol, v, mc_small)):
            with pytest.raises(ParameterError, match="grid"):
                call()

    @pytest.mark.parametrize("theta", [0.0, -1e-4, math.nan, math.inf])
    def test_theta_must_be_finite_and_positive(self, mfg, theta):
        mc = McConfig(n_paths=2, n_steps=50, zero_noise=True)
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, mc.n_steps))
        v = np.ones(mc.n_steps + 1)
        with pytest.raises(ParameterError, match="theta"):
            euler_condition_check(mfg, sol["u0_star"], v, mc, theta=theta)
        with pytest.raises(ParameterError, match="theta"):
            follower_euler_check(mfg, sol, v, mc, theta=theta)

    def test_follower_feedback_mean_matches_reference(self, mfg, mc_small):
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, mc_small.n_steps))
        out = follower_feedback_check(mfg, sol, mc_small)
        assert set(out) == {"mean_residual", "stderr", "within_3se"}
        assert out["within_3se"]

    def test_zero_noise_draws_no_normals(self, mfg, monkeypatch):
        def refuse(*args):
            raise AssertionError("zero-noise run drew normals")

        monkeypatch.setattr(numerics, "path_normals", refuse)
        monkeypatch.setattr(numerics, "_draw_rows", refuse)
        mc = McConfig(n_paths=3, n_steps=100, seed=42, zero_noise=True)
        grid = TimeGrid(0.0, mfg.T, mc.n_steps)
        sol = mean_field_bvp(mfg, grid)
        v = np.ones(mc.n_steps + 1)
        mean_payoffs(mfg, 0.0, sol)
        euler_condition_check(mfg, sol["u0_star"], v, mc)
        follower_euler_check(mfg, sol, v, mc)
        assert follower_feedback_check(mfg, sol, mc)["within_3se"]
        assert min_k_meanfield(mfg, mc, sol=sol).deterred

    def test_zero_noise_stationarity_of_leader_control(self, mfg):
        # With the noise switched off the derived control is a stationary
        # point of the discretized payoff up to quadrature error.
        mc = McConfig(n_paths=2, n_steps=1000, seed=42, zero_noise=True)
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, mc.n_steps))
        t = np.linspace(0.0, mfg.T, mc.n_steps + 1)
        v = 1.0 + 0.5 * np.sin(3.0 * t)
        est = euler_condition_check(mfg, sol["u0_star"], v, mc)
        assert abs(est.mean) < 1e-3

    def test_derivative_split_is_exact(self, mfg, mc_small):
        # Per path the certainty-equivalent and variance-channel parts add up
        # to the total derivative; without noise every path is the Euler
        # mean, so the variance channel is exactly zero.
        grid = TimeGrid(0.0, mfg.T, mc_small.n_steps)
        sol = mean_field_bvp(mfg, grid)
        v = 1.0 + 0.5 * np.sin(3.0 * grid.times())
        quiet = McConfig(n_paths=mc_small.n_paths, n_steps=mc_small.n_steps,
                         seed=mc_small.seed, zero_noise=True)
        for mc in (mc_small, quiet):
            for est in (euler_condition_check(mfg, sol["u0_star"], v, mc),
                        follower_euler_check(mfg, sol, v, mc)):
                total, ce, var = est.samples
                assert total.mean() == est.mean
                np.testing.assert_allclose(ce + var, total, rtol=0.0, atol=1e-9)
                assert est.certainty_equivalent.mean == ce.mean()
                assert est.variance_channel.mean == var.mean()
                if mc.zero_noise:
                    assert np.all(var == 0.0)
                else:
                    assert est.variance_channel.stderr > 0.0

    def test_shifted_control_is_suboptimal(self, mfg):
        mc = McConfig(n_paths=2000, n_steps=500, seed=42)
        sol_grid = TimeGrid(0.0, mfg.T, mc.n_steps)
        sol = mean_field_bvp(mfg, sol_grid)
        ones = np.ones(mc.n_steps + 1)
        est = euler_condition_check(mfg, sol["u0_star"] + 0.5, ones, mc)
        assert est.mean + 3 * est.stderr < 0.0


class TestGrowthCheck:
    def test_bounded_trajectory_passes(self):
        t = np.linspace(0.0, 1.0, 200)
        ok, slope = growth_order_check(t, 0.5 + 0.1 * np.sin(t), r_tilde=1.0)
        assert ok and abs(slope) < 0.1

    def test_supercritical_growth_fails(self):
        t = np.linspace(0.0, 5.0, 400)
        ok, slope = growth_order_check(t, np.exp(t), r_tilde=1.0)
        assert not ok and slope > 0.5

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            growth_order_check(np.arange(3.0), np.arange(3.0), 1.0)


class TestMinK:
    def test_search_returns_certified_rate(self, mfg):
        mc = McConfig(n_paths=1500, n_steps=300, seed=42)
        res = min_k_meanfield(mfg, mc, tol=0.02)
        assert math.isfinite(res.k_min) and res.k_min > 0.0
        assert res.deterred
        assert res.details["growth_rate"] < res.details["growth_bound"]
        # Unpunished defection pays, certifying the bracket is non-trivial.
        assert res.details["j_tilde_at_zero"] > res.j_star

    @pytest.mark.parametrize("tol", [0.0, -0.1, math.nan, math.inf])
    def test_non_positive_or_non_finite_tol_rejected(self, mfg, tol):
        with pytest.raises(ParameterError, match="tol"):
            min_k_meanfield(mfg, McConfig(n_paths=2, n_steps=50, zero_noise=True), tol=tol)

    def test_one_march_per_distinct_rate(self, mfg, monkeypatch):
        # k = 0 and k_min are evaluated twice each; the trace keeps both rows.
        # Each rate is built and marched once: the pilot's nine, of which the
        # search reads seven and discards two, and the search's two misses.
        calls = []
        march = meanfield._defection_march
        monkeypatch.setattr(meanfield, "_defection_march",
                            lambda p, k, *rest: calls.append(k) or march(p, k, *rest))
        res = min_k_meanfield(mfg, McConfig(n_paths=200, n_steps=50, seed=3), tol=0.01)
        assert res.k_min == 0.4140625
        assert len(res.details["trace"]) == 11
        assert len(calls) == len(set(calls)) == 11
        marches = res.details["marches"]
        assert marches["marched"] == calls and marches["requests"] == 3
        assert marches["discarded"] == [0.390625, 0.3828125]
        assert sorted(res.details["satisfied"]) == sorted(set(calls) - {0.390625, 0.3828125})
        assert len(res.details["satisfied"]) == 9

    def test_bisection_ends_below_the_float_spacing(self):
        # At tol = 1e-300 the bracket narrows to two neighbouring floats,
        # whose midpoint rounds onto one of them; the search must end there.
        threshold = 0.3828125 + 1e-9
        asked = []

        def deters(k: float) -> bool:
            asked.append(k)
            assert len(asked) < 100
            return k >= threshold

        k_min = meanfield._search(deters, 1e-300, 1000.0)
        lo = max(k for k in asked if k < threshold)
        assert k_min == threshold
        assert np.nextafter(lo, math.inf) == k_min

    def test_rising_defection_payoff_is_warned(self, mfg_kwargs, monkeypatch, tmp_path):
        # The search asks about k = 0.25 and rejects it; a payoff raised there
        # by 10 rises above k = 0's, and the search still ends where it did.
        march = meanfield._defection_march

        def raised(p, k, *rest):
            alpha, beta, x0, center, (row,) = march(p, k, *rest)
            if k == 0.25:
                row = row.copy()
                row[0, 0] += 10.0
            return alpha, beta, x0, center, [row]

        monkeypatch.setattr(meanfield, "_defection_march", raised)
        mc = {"n_paths": 200, "n_steps": 50, "seed": 3}
        res = min_k_meanfield(MfgParams(**mfg_kwargs), McConfig(**mc), tol=0.01)
        payoff = {k: v for k, v, _ in res.details["trace"]}
        text = f"defection payoff rose from {payoff[0.0]:.6g} (k=0) to {payoff[0.25]:.6g} (k=0.25)"
        assert res.k_min == 0.4140625
        assert res.details["warnings"] == [text]
        cfg = tmp_path / "mf.yaml"
        cfg.write_text(yaml.safe_dump({"model": "meanfield", "action": "threshold-k",
                                       "params": mfg_kwargs, "mc": mc, "penalty": {"tol": 0.01}}))
        assert main(["meanfield", "threshold-k", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert f"\n[warnings]\n- {text}\n\n" in (tmp_path / "out" / "report.txt").read_text()

    def test_tolerance_below_the_float_spacing_ends(self, mfg):
        mc = McConfig(n_paths=200, n_steps=50, seed=3)
        res = min_k_meanfield(mfg, mc, tol=1e-300)
        _assert_as_oracle(res, _bisection_oracle(mfg, mc, tol=1e-300))
        satisfied = res.details["satisfied"]
        lo = max(k for k, ok in satisfied.items() if not ok and k < res.k_min)
        assert satisfied[res.k_min] and np.nextafter(lo, math.inf) == res.k_min

    def test_search_is_seed_reproducible(self, mfg):
        mc = McConfig(n_paths=1500, n_steps=300, seed=42)
        a = min_k_meanfield(mfg, mc, tol=0.02)
        b = min_k_meanfield(mfg, mc, tol=0.02)
        assert a.k_min == b.k_min

    def test_no_deterrent_raises_when_state_outgrows_every_rate(self, mfg_kwargs):
        # A strongly self-reinforcing leader state (A0 = 3, no leader control)
        # grows faster than e^{(r+k)t/2} for every k below the cap, so the
        # growth-order precondition can never be certified.
        p = mfg_with(mfg_kwargs, A0=3.0, B0=0.0)
        mc = McConfig(n_paths=2, n_steps=200, seed=1, zero_noise=True)
        with pytest.raises(NoDeterrentError):
            min_k_meanfield(p, mc, tol=0.5, k_max=4.0)

    def test_k_max_bounds_the_certified_rate(self, mfg):
        # The first bracket point k = 1 already deters here, and the search
        # certifies 0.453125; a cap below that is reported, not ignored.
        mc = McConfig(n_paths=100, n_steps=50, seed=42)
        assert min_k_meanfield(mfg, mc, k_max=1.0).k_min == 0.453125
        with pytest.raises(NoDeterrentError, match="k_max"):
            min_k_meanfield(mfg, mc, k_max=0.1)
        for k_max in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ParameterError, match="k_max"):
                min_k_meanfield(mfg, mc, k_max=k_max)

    def test_rejects_fewer_than_three_steps(self, mfg):
        # The growth-rate fit over the last half of the window needs 4 nodes.
        with pytest.raises(ParameterError, match="mc.n_steps"):
            min_k_meanfield(mfg, McConfig(n_paths=2, n_steps=2, zero_noise=True))

    def test_given_solution_gives_the_same_result(self, mfg, monkeypatch):
        mc = McConfig(n_paths=200, n_steps=50, seed=3)
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, 50))
        want = min_k_meanfield(mfg, mc)
        monkeypatch.setattr(meanfield, "mean_field_bvp", None)  # a second solve would fail
        assert min_k_meanfield(mfg, mc, sol=sol) == want

    def test_solution_on_another_grid_is_refused(self, mfg):
        sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, 60))
        with pytest.raises(ParameterError, match="grid"):
            min_k_meanfield(mfg, McConfig(n_paths=200, n_steps=50, seed=3), sol=sol)

    @pytest.mark.parametrize("off", [0, 10, -10, 200, -200])
    def test_piloted_search_is_the_bisection(self, off):
        # The pilot's threshold is `off` cells of the search's grid (1/128 at
        # tol = 0.01) from the real one.  The search reads the bisection's
        # rates in its order, and marches those and the rates of the first
        # request it does not read: at most twice the bisection's count.
        threshold, cell = 0.3828125 + 1e-9, 1.0 / 128
        plain, asked, read = [], [], []
        k_min = meanfield._search(lambda k: plain.append(k) or k >= threshold, 0.01, 1000.0)

        def ask(rates):
            asked.append(rates)
            return {k: k >= threshold for k in rates}

        k_hat, foreseen = meanfield._pilot(lambda k: k >= threshold + off * cell, 0.01, 1000.0)
        got, marches = meanfield._search_ahead(
            foreseen, ask, lambda k, ok: read.append(k) or ok, 0.01, 1000.0)
        marched = [k for rates in asked for k in rates]
        assert got == k_min == 0.390625 and read == plain
        assert k_hat == meanfield._search(lambda k: k >= threshold + off * cell, 0.01, 1000.0)
        assert marches == {"requests": len(asked), "marched": marched,
                           "discarded": [k for k in asked[0] if k not in read]}
        assert len(marched) == len(set(marched)) == len(plain) + len(marches["discarded"])
        assert len(marched) <= 2 * len(plain)
        if off == 0:
            assert asked == [tuple(plain)]
        else:  # the search misses and asks the rest of its rates alone
            assert len(asked) > 1

    def test_zero_noise_search_is_its_own_pilot(self, mfg):
        # Without noise every path is the Euler mean and every SE is 0, so each
        # Monte Carlo verdict is the pilot's: one request, nothing discarded.
        for n_steps, k_min in [(50, 0.390625), (1000, 0.3828125)]:
            mc = McConfig(n_paths=2, n_steps=n_steps, zero_noise=True)
            res = min_k_meanfield(mfg, mc)
            sol = mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, n_steps))
            assert res.k_min == res.details["pilot_k"] == k_min
            assert res.details["marches"]["requests"] == 1
            assert res.details["marches"]["discarded"] == []
            assert (res.j_star, res.j_tilde_at_k) == mean_payoffs(mfg, res.k_min, sol)

    def test_errors_ahead_of_the_search_are_not_raised(self):
        # A pilot that raises stops predicting, and a first request that raises
        # leaves every rate the search reads to a request of its own.
        threshold = 0.3828125 + 1e-9
        plain = []
        k_min = meanfield._search(lambda k: plain.append(k) or k >= threshold, 0.01, 1000.0)

        def foresee(k):
            if k == 0.375:
                raise SimulationBlowupError(path_index=0, step=1)
            return k >= threshold

        def ask(rates):
            if len(rates) > 1:
                raise FloatingPointError("overflow")
            return {rates[0]: rates[0] >= threshold}

        for pilot, request in [(foresee, lambda rates: {k: k >= threshold for k in rates}),
                               (lambda k: k >= threshold, ask)]:
            read = []
            k_hat, foreseen = meanfield._pilot(pilot, 0.01, 1000.0)
            got, marches = meanfield._search_ahead(
                foreseen, request, lambda k, ok: read.append(k) or ok, 0.01, 1000.0)
            assert got == k_min and read == plain
            assert (k_hat is None) == (pilot is foresee)
        assert marches["requests"] == 1 + len(plain)
        assert marches["discarded"] == plain  # the pilot was right: it asked the same rates

    def test_margins_give_the_verdict(self, mfg):
        # Exact: x - y > 0 exactly when y < x, so the margins carry the verdict.
        for seed in range(20):
            res = min_k_meanfield(mfg, McConfig(n_paths=200, n_steps=50, seed=seed))
            margins, satisfied = res.details["margins"], res.details["satisfied"]
            assert list(margins) == list(satisfied)
            for k, _, _ in res.details["trace"]:
                assert satisfied[k] == (margins[k][0] > 0.0 and margins[k][1] > 0.0)
            assert min(margins[res.k_min]) > 0.0


def _bisection_oracle(p, mc, tol=0.01, k_max=1000.0):
    """min_k_meanfield as the sequential bisection loop, without details["margins"]."""
    grid = meanfield._mc_grid(p, mc)
    times = grid.times()
    sol = mean_field_bvp(p, grid)
    normals = path_normals(mc.seed, mc.n_paths, mc.n_steps)

    def functionals(march):
        with drawn_from(normals):
            return numerics._em_functionals([march], grid.h, mc.n_paths, mc.seed)[0]

    leader = meanfield._leader_march(p, sol["u0_star"], sol["xbar"], grid)
    (j_eq,), _ = functionals(leader)
    j_eq = meanfield._estimate(j_eq)
    trace, marched, growth, verdict = [], {}, {}, {}

    def evaluate(k):
        if k not in marched:
            march = meanfield._defection_march(p, k, sol, grid)
            (samples,), mean = functionals(march)
            ok, growth[k] = growth_order_check(times, mean, p.r + k)
            marched[k] = meanfield._estimate(samples), ok
        jd, ok = marched[k]
        trace.append((k, jd.mean, jd.stderr))
        return jd, ok

    j_def0, _ = evaluate(0.0)

    def satisfied(k):
        jd, grows_ok = evaluate(k)
        verdict[k] = grows_ok and jd.mean + 3.0 * jd.stderr < j_eq.mean - 3.0 * j_eq.stderr
        return verdict[k]

    if satisfied(0.0):
        k_min = 0.0
    else:
        hi = max(tol, 1.0)
        while not satisfied(hi):
            hi *= 2.0
            if hi > k_max:
                raise NoDeterrentError(f"defection stays profitable up to k = {k_max:g}")
        lo = 0.0 if hi == max(tol, 1.0) else hi / 2.0
        # Below the float spacing at [lo, hi] the midpoint rounds onto an end.
        while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if satisfied(mid):
                hi = mid
            else:
                lo = mid
        k_min = hi
        if k_min > k_max:
            raise NoDeterrentError(f"the certified rate k = {k_min:g} exceeds k_max = {k_max:g}")
    j_def_final, _ = evaluate(k_min)
    ordered = sorted(trace)
    warnings = [
        f"defection payoff rose from {v1:.6g} (k={k1:.4g}) to {v2:.6g} (k={k2:.4g})"
        for (k1, v1, s1), (k2, v2, s2) in zip(ordered, ordered[1:])
        if k2 > k1 and v2 > v1 + 3.0 * (s1 + s2)
    ]
    return PenaltySearchResult(
        k_min=k_min, j_star=j_eq.mean, j_tilde_at_k=j_def_final.mean, deterred=verdict[k_min],
        details={
            "j_star_stderr": j_eq.stderr, "j_tilde_stderr": j_def_final.stderr,
            "j_tilde_at_zero": j_def0.mean, "growth_rate": growth[k_min],
            "growth_bound": (p.r + k_min) / 2.0, "trace": ordered, "satisfied": verdict,
            "warnings": warnings,
        },
    )


def _assert_as_oracle(res, oracle):
    details = dict(res.details)
    margins = details.pop("margins")
    details.pop("pilot_k")
    details.pop("marches")
    assert list(margins) == list(details["satisfied"]) == list(oracle.details["satisfied"])
    assert PenaltySearchResult(res.k_min, res.j_star, res.j_tilde_at_k, res.deterred,
                               details) == oracle


class TestPairedMarches:
    """min_k_meanfield marches every rate as a pair of held halves: one forked child
    keeps half of the paths' noise for the whole search.  Nothing else may change."""

    TINY = McConfig(n_paths=200, n_steps=50, seed=3)  # this process marches paths 0..95

    @pytest.mark.parametrize("n_paths, n_steps, seeds", [
        (200, 50, range(20)), (2000, 400, (0, 1, 9, 14, 15, 19, 42, 7)),
    ])
    def test_one_cpu_and_two_match_the_bisection(self, mfg, processes, n_paths, n_steps, seeds):
        # The pilot misses at 17 of these 20 seeds at 200 x 50, and at each of
        # the 2000 x 400 seeds but 42 and 7, discarding one to four rates.
        missed = []
        for seed in seeds:
            mc = McConfig(n_paths=n_paths, n_steps=n_steps, seed=seed)
            processes.cpus(1)
            oracle = _bisection_oracle(mfg, mc)
            one = min_k_meanfield(mfg, mc)
            assert processes.forks == []
            processes.cpus(2)
            two = min_k_meanfield(mfg, mc)
            assert len(processes.forks) == 1  # one child for every request
            processes.forks.clear()
            assert two == one
            _assert_as_oracle(two, oracle)
            missed += [seed] * (two.details["marches"]["requests"] > 1)
        assert len(missed) == {200: 17, 2000: 6}[n_paths]

    def test_failed_fork_marches_in_process(self, mfg, processes, monkeypatch):
        oracle = _bisection_oracle(mfg, self.TINY)

        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        _assert_as_oracle(min_k_meanfield(mfg, self.TINY), oracle)

    def test_failed_pipe_marches_in_process(self, mfg, processes, monkeypatch):
        oracle = _bisection_oracle(mfg, self.TINY)
        processes.forks.clear()

        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        _assert_as_oracle(min_k_meanfield(mfg, self.TINY), oracle)
        assert processes.forks == []

    def test_child_exiting_non_zero_marches_in_process(self, mfg, processes, monkeypatch):
        oracle = _bisection_oracle(mfg, self.TINY)
        failed = []

        def failing_fork():
            pid = processes.real_fork()
            if pid == 0:
                os._exit(3)
            failed.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", failing_fork)
        _assert_as_oracle(min_k_meanfield(mfg, self.TINY), oracle)
        assert len(failed) == 1

    def test_child_exiting_mid_search_marches_in_process(self, mfg, processes, monkeypatch):
        # The child is forked after the pilot and inherits its marches, so at
        # seed 3 it builds only the rates the pilot missed.  It ends while it
        # builds the first of them, k = 0.421875, alone in the search's second
        # request; this process marches that request and the later one alone.
        oracle = _bisection_oracle(mfg, self.TINY)
        marched = min_k_meanfield(mfg, self.TINY).details["marches"]["marched"]
        assert marched.index(0.421875) == len(marched) - 2
        processes.forks.clear()
        march, parent = meanfield._defection_march, os.getpid()

        def ending(p, k, *rest):
            if k == 0.421875 and os.getpid() != parent:
                os._exit(3)
            return march(p, k, *rest)

        monkeypatch.setattr(meanfield, "_defection_march", ending)
        _assert_as_oracle(min_k_meanfield(mfg, self.TINY), oracle)
        assert len(processes.forks) == 1

    @pytest.mark.parametrize("seed, missed", [(8, []), (3, [0.421875, 0.4140625])])
    def test_child_builds_only_the_rates_the_pilot_missed(
            self, mfg, processes, monkeypatch, tmp_path, seed, missed):
        # The pilot builds every rate it foresees before the child is forked.  At
        # seed 8 it is right, and the child builds no march; at seed 3 it misses
        # two rates, and each process builds those.  The values are one process's.
        mc = McConfig(n_paths=200, n_steps=50, seed=seed)
        processes.cpus(1)
        one = min_k_meanfield(mfg, mc)
        processes.cpus(2)
        built, march, parent = tmp_path / "built", meanfield._defection_march, os.getpid()

        def logged(p, k, *rest):  # each process appends its own lines
            with open(built, "a") as log:
                log.write(f"{os.getpid() != parent} {k!r}\n")
            return march(p, k, *rest)

        monkeypatch.setattr(meanfield, "_defection_march", logged)
        two = min_k_meanfield(mfg, mc)
        assert two == one and len(processes.forks) == 1
        rows = [line.split() for line in built.read_text().splitlines()]
        marches = two.details["marches"]
        foreseen = marches["marched"][: len(marches["marched"]) - len(missed)]
        assert marches["requests"] == 1 + len(missed)
        assert [float(k) for there, k in rows if there == "False"] == foreseen + missed
        assert [float(k) for there, k in rows if there == "True"] == missed

    @staticmethod
    def _poison(monkeypatch, bad_k, paths):
        """Makes bad_k's march blow up at each (path, step), in whichever process marches it."""
        defection, stepper, bad = meanfield._defection_march, numerics._stepper, []

        def marked(p, k, sol, grid):
            march = defection(p, k, sol, grid)
            if k == bad_k:
                bad.append(march[0])
            return march

        def poisoned(marches, h, n_steps, lo, hi, z):
            out = []
            for march in marches:  # one at a time, the poisoned march on its own noise
                noise = z
                if any(march[0] is a for a in bad):
                    noise = z.copy()
                    for path, step in paths.items():
                        if lo <= path < hi:
                            noise[path - lo, step - 1] = np.nan
                out += stepper([march], h, n_steps, lo, hi, noise)
            return out

        monkeypatch.setattr(meanfield, "_defection_march", marked)
        monkeypatch.setattr(numerics, "_stepper", poisoned)

    def test_blowup_at_a_requested_rate_is_the_one_process_error(
            self, mfg, processes, monkeypatch):
        # k = 0.5 is the third rate requested; paths 96..199 are the child's.
        for paths, first in [({17: 30}, (17, 30)), ({150: 20}, (150, 20)),
                             ({17: 30, 150: 20}, (150, 20)), ({17: 20, 150: 30}, (17, 20))]:
            with monkeypatch.context() as patch:
                self._poison(patch, 0.5, paths)
                for cpus in (1, 2):
                    processes.cpus(cpus)
                    with pytest.raises(SimulationBlowupError) as err:
                        min_k_meanfield(mfg, self.TINY)
                    assert (err.value.path_index, err.value.step) == first
        assert len(processes.forks) == 4

    def test_blowup_at_a_discarded_rate_raises_nothing(self, mfg, processes, monkeypatch):
        # The pilot asks about k = 0.390625, which the search never reads at
        # seed 3; its march blows up in both halves, and the search still
        # gives the bisection's result, with every rate it reads asked alone.
        oracle = _bisection_oracle(mfg, self.TINY)
        assert 0.390625 in min_k_meanfield(mfg, self.TINY).details["marches"]["discarded"]
        processes.forks.clear()
        self._poison(monkeypatch, 0.390625, {17: 30, 150: 20})
        for cpus in (1, 2):
            processes.cpus(cpus)
            res = min_k_meanfield(mfg, self.TINY)
            _assert_as_oracle(res, oracle)
            marches = res.details["marches"]
            assert marches["requests"] == 1 + len(res.details["satisfied"])
            assert 0.390625 in marches["discarded"]
        assert len(processes.forks) == 1

    @pytest.mark.parametrize("case", ["k_max", "profitable", "leader", "march"])
    def test_no_child_is_left(self, mfg, mfg_kwargs, processes, monkeypatch, case):
        p, mc, k_max, error = mfg, self.TINY, 1000.0, SimulationBlowupError
        if case == "k_max":
            k_max, error = 0.1, NoDeterrentError
        elif case == "profitable":  # see test_no_deterrent_raises_when_state_outgrows_every_rate
            p, k_max, error = mfg_with(mfg_kwargs, A0=3.0, B0=0.0), 4.0, NoDeterrentError
            mc = McConfig(n_paths=200, n_steps=200, seed=1)  # seeded: zero noise never forks
        elif case == "leader":  # fails in both processes on the first request
            def leader(*args):
                raise SimulationBlowupError(path_index=0, step=1)

            monkeypatch.setattr(meanfield, "_leader_march", leader)
        else:  # the march of k = 1 blows up in the child's half
            self._poison(monkeypatch, 1.0, {150: 30})
        with pytest.raises(error):
            min_k_meanfield(p, mc, k_max=k_max)
        assert len(processes.forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("k_max", [1000.0, 0.1])
    def test_no_child_outlives_the_search(self, mfg, processes, k_max):
        # With k_max = 0.1 the search raises NoDeterrentError once it has ended.
        try:
            min_k_meanfield(mfg, self.TINY, k_max=k_max)
        except NoDeterrentError:
            assert k_max == 0.1
        assert len(processes.forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_halves_need_two_cpus_and_size(self, mfg, processes, monkeypatch):
        mc = self.TINY
        processes.cpus(1)
        min_k_meanfield(mfg, mc)
        processes.cpus(2)
        min_k_meanfield(mfg, McConfig(n_paths=128, n_steps=50, seed=3))  # numpy's unsplit block
        monkeypatch.setattr(numerics, "_FORK_MIN_DRAWS", mc.n_paths * mc.n_steps + 1)
        min_k_meanfield(mfg, mc)
        assert processes.forks == []
        # From _FORK_MIN_DRAWS normals on, the search forks once at any path count.
        monkeypatch.setattr(numerics, "_FORK_MIN_DRAWS", mc.n_paths * mc.n_steps)
        min_k_meanfield(mfg, mc)
        assert len(processes.forks) == 1

    def test_fork_rule_constants(self, monkeypatch):
        # A seeded search forks from 2^20 normals; mf-threshold has 10^7.  The
        # child draws nothing before a request.  Without noise one path is
        # marched and nothing forks, however many paths the ensemble has.
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        for cpus, n_paths, n_steps, noise, fork in [
            (2, 10_000, 105, 3, True), (2, 10_000, 104, 3, False),
            (2, 20_000, 2, None, False), (2, 10_000, 1000, None, False),
            (1, 10_000, 105, 3, False),
        ]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            forks.clear()
            numerics._march_held(n_paths, n_steps, 0.1, noise, None, lambda march: None)
            assert forks == [1] * fork

    def test_search_without_a_miss_never_holds_its_normals(self, mfg, processes):
        # On one CPU, 5,000 x 1,000 normals are 40 MB.  At seed 3 the pilot is
        # right, so the search makes one request, which streams them: its
        # allocations peak at its block buffer (32 MiB of address space, of which
        # each of its five blocks touches 8 MB) and about 3 MiB of states,
        # marches and functionals.
        processes.cpus(1)
        tracemalloc.start()
        try:
            res = min_k_meanfield(mfg, McConfig(n_paths=5000, n_steps=1000, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.details["marches"]["requests"] == 1
        assert peak < 37 * 2**20 < 8 * 5000 * 1000

    def test_search_streams_leaves_of_one_group(self, mfg, processes, monkeypatch):
        # The same search: its ten marches overflow one _BLOCK group of 5,000
        # paths, so the paths stream as leaves of 2,496 and 2,504, each one group
        # in five blocks of 200 steps (4 MB), where a leaf of 5,000 took blocks of
        # 8 MB.  The allocations peak at the block buffer (32 MiB of address
        # space) and 3.75 MiB more, against 4.0 MiB in one leaf.
        processes.cpus(1)
        draw, blocks = numerics._draw_rows, set()

        def counted(states, lo, hi, j0, j1, buffer=None, advance=True):
            blocks.add((hi - lo, j1 - j0))
            return draw(states, lo, hi, j0, j1, buffer, advance)

        monkeypatch.setattr(numerics, "_draw_rows", counted)
        tracemalloc.start()
        try:
            res = min_k_meanfield(mfg, McConfig(n_paths=5000, n_steps=1000, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.details["marches"]["requests"] == 1
        assert blocks == {(2496, 200), (2504, 200)}
        assert peak < 36 * 2**20


class TestParamValidation:
    def test_rejects_bad_parameters(self, mfg_kwargs):
        for key, val in [("a0", 0.0), ("a", -1.0), ("T", 0.0), ("sigma", -0.1),
                         ("r", -0.05), ("x0_init", 1.5), ("xbar_init", -0.1)]:
            with pytest.raises(ParameterError):
                mfg_with(mfg_kwargs, **{key: val})

    def test_rejects_non_finite_parameters(self, mfg_kwargs):
        for key in mfg_kwargs:
            for val in (math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterError, match=key):
                    mfg_with(mfg_kwargs, **{key: val})

    def test_mc_config_validation(self):
        with pytest.raises(ParameterError):
            McConfig(n_paths=1)
        with pytest.raises(ParameterError):
            McConfig(n_steps=1)
        for key in ("n_paths", "n_steps"):
            for value in (math.nan, 50.0, 100.5, "50", True):
                with pytest.raises(ParameterError, match=key):
                    McConfig(**{key: value})
        assert McConfig(n_paths=np.int64(50), n_steps=np.int64(20)).n_steps == 20
        for seed in (-1, 1.5, math.nan, True, "42"):
            with pytest.raises(ParameterError, match="seed"):
                McConfig(seed=seed)
        assert McConfig(seed=2**130 + 7).seed == 2**130 + 7
        for flag in ("false", "true", "", 0, 1, None, np.bool_(True)):  # "false" is truthy
            with pytest.raises(ParameterError, match="zero_noise"):
                McConfig(zero_noise=flag)
        assert McConfig(zero_noise=True).zero_noise is True
