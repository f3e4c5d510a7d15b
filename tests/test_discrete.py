"""Unit and property tests for the repeated discrete duopoly model."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgame import discrete
from stackgame.discrete import (
    DuopolyParams,
    best_reply_follower,
    brute_force_oracle,
    discount_schedule,
    ledger_totals,
    min_k_discrete,
    one_shot_defection,
    one_shot_equilibrium,
    theorem1_condition,
)
from stackgame.errors import ParameterError

from conftest import expression_oracle

BLOCK = discrete._BLOCK


@st.composite
def valid_params(draw):
    a = draw(st.floats(1.0, 50.0))
    b = draw(st.floats(0.1, 5.0))
    c0 = draw(st.floats(0.0, a / 4.0))
    # Keep both equilibrium outputs strictly positive: c0 <= c1 <= (a + 2 c0)/3.
    hi = (a + 2.0 * c0) / 3.0
    c1 = draw(st.floats(c0, hi))
    return DuopolyParams(a=a, b=b, c0=c0, c1=c1)


class TestOneShot:
    def test_benchmark_equilibrium(self, duopoly):
        eq = one_shot_equilibrium(duopoly)
        assert abs(eq.u0 - 5.0) < 1e-14
        assert abs(eq.u1 - 1.5) < 1e-14
        assert abs(eq.J0 - 12.5) < 1e-14
        assert abs(eq.J1 - 2.25) < 1e-14
        assert not eq.boundary

    def test_benchmark_defection(self, duopoly):
        u0_hat, j_hat, gain = one_shot_defection(duopoly)
        assert abs(u0_hat - 3.75) < 1e-14
        assert abs(j_hat - 14.0625) < 1e-14
        assert abs(gain - 1.5625) < 1e-14

    def test_best_reply_is_consistent_with_equilibrium(self, duopoly):
        eq = one_shot_equilibrium(duopoly)
        assert abs(best_reply_follower(duopoly, eq.u0) - eq.u1) < 1e-14

    def test_best_reply_floors_at_zero(self, duopoly):
        assert best_reply_follower(duopoly, 100.0) == 0.0

    def test_best_reply_rejects_negative_output(self, duopoly):
        with pytest.raises(ParameterError):
            best_reply_follower(duopoly, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(valid_params())
    def test_payoff_ratios_are_exact(self, p):
        eq = one_shot_equilibrium(p)
        _, j_hat, gain = one_shot_defection(p)
        if gain <= 1e-12:
            return
        assert abs(j_hat / gain - 9.0) < 1e-9
        assert abs(eq.J0 / gain - 8.0) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(valid_params())
    def test_defection_never_loses_money(self, p):
        eq = one_shot_equilibrium(p)
        _, j_hat, gain = one_shot_defection(p)
        assert j_hat >= eq.J0 - 1e-12
        assert abs((j_hat - eq.J0) - gain) < 1e-9 * (1.0 + abs(gain))


class TestOracle:
    def test_equilibrium_grid_search_agrees(self, duopoly):
        eq = one_shot_equilibrium(duopoly)
        oracle = brute_force_oracle(duopoly, grid_resolution=10**5)
        assert abs(oracle.u0 - eq.u0) < 1e-4
        assert abs(oracle.J0 - eq.J0) < 1e-6

    def test_defection_grid_search_agrees(self, duopoly):
        u0_hat, j_hat, _ = one_shot_defection(duopoly)
        oracle = brute_force_oracle(duopoly, grid_resolution=10**5, mode="defection")
        assert abs(oracle.u0 - u0_hat) < 1e-4
        assert abs(oracle.J0 - j_hat) < 1e-6

    @pytest.mark.parametrize("mode", ["equilibrium", "defection"])
    def test_in_place_search_equals_the_expressions(self, duopoly, mode):
        # The benchmark's follower output clamps at zero for u0 > 8 of [0, 9];
        # then a zero follower output, c1 = (a + 2 c0) / 3, and a zero-width
        # grid, c0 = c1 = a, where numpy's linspace takes its zero-step branch.
        for p in (duopoly, DuopolyParams(a=7.3, b=0.6, c0=0.4, c1=1.1),
                  DuopolyParams(a=10.0, b=1.0, c0=1.0, c1=4.0),
                  DuopolyParams(a=3.0, b=2.0, c0=3.0, c1=3.0)):
            for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10**6):
                assert brute_force_oracle(p, n, mode) == expression_oracle(p, n, mode)

    @pytest.mark.parametrize("n", [1000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 10**6])
    def test_blocks_assemble_numpy_linspace(self, n):
        # Bit for bit: (n - 1) * step misses the last point of 7.9854... at
        # 1000 and 10^6 points, a negative stop makes 0 * step = -0.0 before
        # the start is added, and a subnormal stop takes the zero-step branch.
        for stop in (9.0, 7.985497628118029, 0.0, -1.0, 2.2e-320):
            blocks = discrete._linspace_blocks(stop, n, np.empty(BLOCK))
            grid = np.concatenate([x.copy() for x in blocks])
            assert grid.tobytes() == np.linspace(0.0, stop, n).tobytes()

    def test_first_of_two_maxima_across_a_block_edge(self, duopoly, monkeypatch):
        # On 1003 points the defection payoff peaks at u0 = 3.75, halfway
        # between points 417 and 418, which round to the same J0.
        u0 = np.linspace(0.0, 9.0, 1003)
        J0 = u0 * (10.0 - (u0 + 1.5) - 1.0)
        assert np.flatnonzero(J0 == J0.max()).tolist() == [417, 418]
        monkeypatch.setattr(discrete, "_BLOCK", 418)
        oracle = brute_force_oracle(duopoly, 1003, "defection")
        assert oracle == expression_oracle(duopoly, 1003, "defection")
        assert oracle.u0 == u0[417]

    def test_memory_does_not_grow_with_the_grid(self, duopoly):
        tracemalloc.start()
        try:
            brute_force_oracle(duopoly, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_tiny_grids_and_bad_modes(self, duopoly):
        with pytest.raises(ParameterError):
            brute_force_oracle(duopoly, grid_resolution=10)
        with pytest.raises(ParameterError):
            brute_force_oracle(duopoly, mode="nonsense")
        # Before, a float resolution ended in numpy's TypeError from linspace,
        # and an unknown mode was refused only after the grid was built.
        for n in (1e6, 10**6 + 0.5, True, np.bool_(True), "1000"):
            with pytest.raises(ParameterError, match="grid_resolution"):
                brute_force_oracle(duopoly, n)
        with pytest.raises(ParameterError, match="mode"):
            brute_force_oracle(duopoly, 1e6, mode="nonsense")
        for n in (np.int64(1000), np.int32(1000), np.uint64(1000)):
            assert brute_force_oracle(duopoly, n) == brute_force_oracle(duopoly, 1000)


class TestDiscountSchedule:
    def test_closed_form_factors(self, duopoly):
        k, m, N = 0.1, 3, 8
        sched = discount_schedule(duopoly, k, m, N)
        x = k * duopoly.defection_gain
        for n in range(1, N + 1):
            expected = 1.0 if n < m else (1.0 - x) ** (n - m)
            assert abs(sched.rho[n - 1] - expected) < 1e-14

    def test_ledger_totals_match_direct_sum(self, duopoly):
        sched = discount_schedule(duopoly, 0.2, 4, 10)
        eq = one_shot_equilibrium(duopoly)
        _, j_hat, _ = one_shot_defection(duopoly)
        direct = 3 * eq.J0 + sum(sched.rho[3:] * j_hat)
        assert abs(sched.total - direct) < 1e-10
        assert not sched.deposit_forfeited

    def test_last_period_defection_is_payoff_neutral(self, duopoly):
        N = 6
        eq = one_shot_equilibrium(duopoly)
        sched = discount_schedule(duopoly, 0.3, N, N)
        assert sched.deposit_forfeited
        # (N-1) honest periods + defection payoff - forfeited deposit = N J0*.
        assert abs(sched.total - N * eq.J0) < 1e-10

    @pytest.mark.parametrize("k, d, n", [
        (0.3, 2.0, 400), (1e-7, 3.0, 100_000), (0.999, 1.0, 5000), (0.01, 0.5, 100_000),
        (0.5, 1.0, 1), (0.5, 1.0, 0),
    ])
    def test_recursion_matches_the_indexed_loop_bit_for_bit(self, k, d, n):
        # The recursion as it was stepped on numpy elements, kept as the oracle.
        rho = np.ones(n)
        for i in range(1, n):
            rho[i] = rho[i - 1] - k * (rho[i - 1] * d)
        assert discrete._recursive_factors(k, d, n).tobytes() == rho.tobytes()

    def test_rejects_out_of_range_inputs(self, duopoly):
        with pytest.raises(ParameterError):
            discount_schedule(duopoly, 0.1, 0, 5)
        with pytest.raises(ParameterError):
            discount_schedule(duopoly, 0.0, 1, 5)
        with pytest.raises(ParameterError):
            discount_schedule(duopoly, 1.0 / duopoly.defection_gain, 1, 5)


class TestLedgerTotals:
    @pytest.mark.parametrize("N", [2, 3, 400])
    @pytest.mark.parametrize("k", [1e-6, 0.05, 0.3, 0.63])
    def test_matches_one_schedule_per_start(self, duopoly, N, k):
        expected = [discount_schedule(duopoly, k, m, N).total for m in range(1, N + 1)]
        np.testing.assert_allclose(ledger_totals(duopoly, k, N), expected, rtol=1e-12, atol=0.0)

    def test_recursion_disagreement_raises(self, duopoly, monkeypatch):
        recursive = discrete._recursive_factors
        monkeypatch.setattr(discrete, "_recursive_factors",
                            lambda k, d, n: recursive(k, d, n) + 1e-11)
        with pytest.raises(ParameterError, match="disagree"):
            ledger_totals(duopoly, 0.1, 10)
        with pytest.raises(ParameterError, match="disagree"):
            discount_schedule(duopoly, 0.1, 4, 10)

    def test_long_tail_agrees_to_its_rounding_bound(self, duopoly):
        # At k = 1e-7 the recursion drifts from (1 - k dJ0)^i by 4.9e-12 over
        # 10^5 periods, which a fixed bound of 1e-12 refused.
        totals = ledger_totals(duopoly, 1e-7, 10**5)
        total = discount_schedule(duopoly, 1e-7, 1, 10**5).total
        np.testing.assert_allclose(totals[0], total, rtol=1e-12, atol=0.0)

    def test_recursion_off_by_a_relative_1e9_per_period_raises(self, duopoly, monkeypatch):
        recursive = discrete._recursive_factors
        monkeypatch.setattr(discrete, "_recursive_factors",
                            lambda k, d, n: recursive(k, d, n) * (1.0 + 1e-9) ** np.arange(n))
        for n in (10, 10**5):
            with pytest.raises(ParameterError, match="disagree"):
                ledger_totals(duopoly, 1e-7, n)

    def test_rejects_out_of_range_inputs(self, duopoly):
        with pytest.raises(ParameterError):
            ledger_totals(duopoly, 0.0, 5)
        with pytest.raises(ParameterError):
            ledger_totals(duopoly, 1.0 / duopoly.defection_gain, 5)
        with pytest.raises(ParameterError):
            ledger_totals(duopoly, 0.1, 0)


class TestDeterrenceCondition:
    def test_small_x_fails_large_x_passes(self):
        assert not theorem1_condition(0.05, 5)
        assert theorem1_condition(0.9, 5)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            theorem1_condition(0.0, 3)
        with pytest.raises(ParameterError):
            theorem1_condition(0.5, 0)


class TestThresholdRoot:
    def test_recrossing_root_falls_strictly_in_M(self):
        # Bisect the recrossing of g(x) = (1-x)^M - 1 + (8/9) M x for every M
        # at once, from _threshold_x's bracket, down to rounding.
        M = np.arange(2, 10**4 + 1, dtype=float)
        lo = 1.0 - (8.0 / 9.0) ** (1.0 / (M - 1.0))
        hi = np.full_like(M, 1.0 - 1e-15)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = (1.0 - mid) ** M - 1.0 + (8.0 / 9.0) * M * mid < 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        assert np.all(np.diff(hi) < 0.0)
        assert abs(hi[0] - 2.0 / 9.0) < 1e-15
        for m in (3, 10, 1000, 10**4):
            assert abs(discrete._threshold_x(m, 1e-13) - hi[m - 2]) < 1e-13

    @pytest.mark.parametrize("N", [2, 3, 10, 400])
    def test_worst_case_is_the_largest_threshold_of_all_starts(self, duopoly, N):
        d, tol = duopoly.defection_gain, 1e-9
        every = max(discrete._threshold_x(N - m + 1, tol * d) for m in range(1, N))
        assert min_k_discrete(duopoly, N, tol=tol).k_min == every / d


class TestMinK:
    def test_benchmark_worst_case_threshold(self, duopoly):
        res = min_k_discrete(duopoly, N=10, tol=1e-9)
        # Worst case is the shortest punishable tail (defection in period N-1),
        # whose analytic threshold is (2/9) / defection_gain.
        expected = (2.0 / 9.0) / duopoly.defection_gain
        assert abs(res.k_min - expected) < 1e-6
        assert res.deterred
        totals = res.details["ledger_totals"]
        assert set(totals) == set(range(1, 11))
        for total in totals.values():
            assert total <= res.j_star + 1e-9 * (1.0 + res.j_star)

    def test_fixed_mode_matches_worst_case_at_last_start(self, duopoly):
        worst = min_k_discrete(duopoly, N=10)
        fixed = min_k_discrete(duopoly, N=10, mode="fixed", m=9)
        assert abs(worst.k_min - fixed.k_min) < 1e-7

    def test_earlier_starts_need_weaker_penalties(self, duopoly):
        # A longer punishment tail deters at a lower rate.
        k_early = min_k_discrete(duopoly, N=10, mode="fixed", m=1).k_min
        k_late = min_k_discrete(duopoly, N=10, mode="fixed", m=9).k_min
        assert k_early < k_late

    def test_zero_margin_is_degenerate(self):
        p = DuopolyParams(a=1.0, b=1.0, c0=1.0, c1=1.0)
        res = min_k_discrete(p, N=5)
        assert res.k_min == 0.0
        assert res.deterred
        assert res.details.get("degenerate")

    def test_input_validation(self, duopoly):
        with pytest.raises(ParameterError):
            min_k_discrete(duopoly, N=1)
        with pytest.raises(ParameterError):
            min_k_discrete(duopoly, N=10, mode="fixed")  # missing m
        with pytest.raises(ParameterError):
            min_k_discrete(duopoly, N=10, mode="sideways")


class TestParamValidation:
    def test_rejects_nonpositive_demand_or_slope(self):
        with pytest.raises(ParameterError):
            DuopolyParams(a=0.0, b=1.0, c0=0.0, c1=0.0)
        with pytest.raises(ParameterError):
            DuopolyParams(a=1.0, b=0.0, c0=0.0, c1=0.0)

    def test_rejects_cost_order_violations(self):
        with pytest.raises(ParameterError):
            DuopolyParams(a=10.0, b=1.0, c0=2.0, c1=1.0)
        with pytest.raises(ParameterError):
            DuopolyParams(a=10.0, b=1.0, c0=-1.0, c1=1.0)

    def test_rejects_non_finite_parameters(self):
        good = dict(a=10.0, b=1.0, c0=1.0, c1=2.0, delta=0.1, x1_0=0.0)
        for key in good:
            for val in (math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterError, match=key):
                    DuopolyParams(**dict(good, **{key: val}))

    def test_rejects_negative_follower_output(self):
        with pytest.raises(ParameterError):
            DuopolyParams(a=10.0, b=1.0, c0=1.0, c1=5.0)
