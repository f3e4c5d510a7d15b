"""Model 1: repeated discrete-time duopoly Stackelberg game.

One-shot equilibrium and defection are closed-form; the third party's
per-period discount schedule rho(n) punishes a defection that starts in
period m, and the deterrence condition fixes the minimal penalty slope k.

Handy exact ratios (margin s = a + c1 - 2 c0):
    J0*  = s^2 / (8b)         equilibrium payoff
    J0^  = 9 s^2 / (64b)      defection payoff   = (9/8) J0*
    dJ0  = s^2 / (64b)        defection gain     = J0* / 8
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import NoDeterrentError, ParameterError, require_finite
from .numerics import _BLOCK, find_root_bisect
from .results import PenaltySearchResult

__all__ = [
    "DuopolyParams",
    "OneShotOutcome",
    "DiscountSchedule",
    "best_reply_follower",
    "one_shot_equilibrium",
    "one_shot_defection",
    "brute_force_oracle",
    "discount_schedule",
    "ledger_totals",
    "theorem1_condition",
    "min_k_discrete",
]


@dataclass(frozen=True)
class DuopolyParams:
    """Inverse demand K = a - b (u0 + u1) with unit costs c0 <= c1.

    delta and x1_0 describe the follower's knowledge dynamics
    x1' = u1 - delta x1; they are carried for reporting only, Model 1
    payoffs do not depend on them.
    """

    a: float
    b: float
    c0: float
    c1: float
    delta: float = 0.1
    x1_0: float = 0.0

    def __post_init__(self):
        require_finite(self, [f.name for f in fields(self)])
        if self.a <= 0:
            raise ParameterError(f"a must be > 0, got {self.a}")
        if self.b <= 0:
            raise ParameterError(f"b must be > 0, got {self.b}")
        if not 0 <= self.c0 <= self.c1:
            raise ParameterError(
                f"need 0 <= c0 <= c1 (leader has the lowest cost), got c0={self.c0}, c1={self.c1}"
            )
        if self.margin < 0:
            raise ParameterError(f"a + c1 - 2 c0 = {self.margin} < 0 (negative leader output)")
        # Compared as a bound on c1, so c1 = (a + 2 c0) / 3 itself, a zero
        # follower output, is not rejected for a rounding error in the sum.
        if self.c1 > (self.a + 2 * self.c0) / 3:
            raise ParameterError(
                f"a + 2 c0 - 3 c1 = {self.a + 2 * self.c0 - 3 * self.c1} < 0 "
                "(negative follower output)"
            )

    @property
    def margin(self) -> float:
        return self.a + self.c1 - 2.0 * self.c0

    @property
    def defection_gain(self) -> float:
        """Extra one-shot payoff from defecting, dJ0(1) = margin^2 / (64 b)."""
        return self.margin**2 / (64.0 * self.b)


@dataclass(frozen=True)
class OneShotOutcome:
    u0: float
    u1: float
    J0: float
    J1: float
    boundary: bool = False  # an output was clamped at 0


@dataclass
class DiscountSchedule:
    """Penalty factors rho(1..N) and the per-period payoff ledger they produce."""

    rho: np.ndarray
    ledger: np.ndarray
    total: float
    deposit_forfeited: bool = False


def best_reply_follower(p: DuopolyParams, u0: float) -> float:
    """Follower's best reply (a - b u0 - c1) / (2b), floored at 0."""
    if u0 < 0:
        raise ParameterError(f"u0 must be >= 0, got {u0}")
    return max(0.0, (p.a - p.b * u0 - p.c1) / (2.0 * p.b))


def one_shot_equilibrium(p: DuopolyParams) -> OneShotOutcome:
    """Stackelberg equilibrium of the one-shot game (closed form)."""
    u0 = p.margin / (2.0 * p.b)
    u1 = (p.a + 2.0 * p.c0 - 3.0 * p.c1) / (4.0 * p.b)
    boundary = u0 <= 0 or u1 <= 0
    u0, u1 = max(0.0, u0), max(0.0, u1)
    J0 = u0 * (p.a - p.b * (u0 + u1) - p.c0)
    J1 = u1 * (p.a - p.b * (u0 + u1) - p.c1)
    return OneShotOutcome(u0=u0, u1=u1, J0=J0, J1=J1, boundary=boundary)


def one_shot_defection(p: DuopolyParams) -> tuple[float, float, float]:
    """Leader's best reply against the frozen equilibrium follower output.

    Returns (u0_hat, J0_hat, delta) with u0_hat = (3/4) u0*,
    J0_hat = 9 margin^2 / (64 b), and delta = J0_hat - J0*.
    """
    u0_hat = 3.0 * p.margin / (8.0 * p.b)
    J0_hat = 9.0 * p.margin**2 / (64.0 * p.b)
    return u0_hat, J0_hat, p.defection_gain


def _linspace_blocks(stop: float, n: int, out: np.ndarray):
    """Yield np.linspace(0.0, stop, n) in consecutive blocks, each a view of out.

    A block takes numpy's own formula: index * step + start, or index / (n - 1)
    * (stop - start) where the step is 0, and the last point set to stop.
    """
    start = 0.0
    step = (stop - start) / (n - 1)
    # int32, half the bytes of a fourth float buffer; its cast to float is exact.
    index = np.arange(len(out), dtype=np.int32)
    for lo in range(0, n, len(out)):
        x = out[: min(len(out), n - lo)]
        np.add(index[: len(x)], lo, out=x, dtype=float)
        if step == 0:
            x /= n - 1
            x *= stop - start
        else:
            x *= step
        x += start
        if lo + len(x) == n:
            x[-1] = stop
        yield x


def brute_force_oracle(
    p: DuopolyParams, grid_resolution: int = 10**6, mode: str = "equilibrium"
) -> OneShotOutcome:
    """Independent oracle: exhaustive leader-payoff maximization on a u0 grid.

    mode="equilibrium": the follower best-responds to every candidate u0.
    mode="defection": the follower output is frozen at its equilibrium value.
    The grid np.linspace(0, (a - c0) / b, grid_resolution) is searched
    _BLOCK points at a time in three reused buffers, so the search holds
    under 1 MiB at any resolution.  Each block computes u1 = max(0, (a - b u0
    - c1) / 2b) and J0 = u0 (a - b (u0 + u1) - c0) in place, by those
    operations in that order, so every value has the bits of the whole-grid
    computation.  The running maximum keeps np.argmax's rule across blocks:
    the first maximum wins, and so does the first NaN.
    """
    if mode not in ("equilibrium", "defection"):
        raise ParameterError(f"unknown oracle mode {mode!r}")
    n = grid_resolution
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1000:
        raise ParameterError(f"grid_resolution must be an int >= 1000, got {n!r}")
    u0, J0 = np.empty(_BLOCK), np.empty(_BLOCK)
    u1 = np.empty(_BLOCK) if mode == "equilibrium" else np.full(_BLOCK, one_shot_equilibrium(p).u1)
    best = None
    for x in _linspace_blocks((p.a - p.c0) / p.b, int(n), u0):
        y, J = u1[: len(x)], J0[: len(x)]
        if mode == "equilibrium":
            np.multiply(p.b, x, out=y)
            np.subtract(p.a, y, out=y)
            y -= p.c1
            y /= 2.0 * p.b
            np.maximum(0.0, y, out=y)
        np.add(x, y, out=J)
        J *= p.b
        np.subtract(p.a, J, out=J)
        J -= p.c0
        J *= x
        i = int(np.argmax(J))
        if best is None or (not math.isnan(best[2]) and not J[i] <= best[2]):
            best = float(x[i]), float(y[i]), float(J[i])
    u0_i, u1_i, J0_i = best
    J1 = u1_i * (p.a - p.b * (u0_i + u1_i) - p.c1)
    return OneShotOutcome(u0=u0_i, u1=u1_i, J0=J0_i, J1=J1)


def _recursive_factors(k: float, d: float, n: int) -> np.ndarray:
    """rho(i) = rho(i-1) - k * dJ~(i-1) with dJ~(i) = rho(i) dJ0(1), from rho(0) = 1.

    Stepped on Python floats: the same IEEE operations as on numpy elements,
    without a numpy scalar read and write per step, and streamed into the
    array, so no list of n floats is held.
    """
    def steps():
        x = 1.0
        for _ in range(n):
            yield x
            x -= k * (x * d)

    return np.fromiter(steps(), float, count=n)


def _tail_factors(p: DuopolyParams, k: float, n: int) -> np.ndarray:
    """Penalty factors (1 - k dJ0(1))^i, i < n, of a defection's first n punished periods.

    The recursion (_recursive_factors) runs alongside as a cross-check, to a
    bound on rounding that grows with i.  With x = k d and u = 2^-53, a
    recursion step rho - k (rho d) rounds three times, a relative error of
    u (1 + 2x/(1 - x)).  The closed form's 1 - k d rounds twice, a relative
    u (1 + x/(1 - x)) that the power raises to the i-th, and the power adds
    up to 4u.  So the two differ by (i s + 4u) times the factor to first
    order, s = u (2 + 3x/(1 - x)); twice that covers the higher orders
    while i s <= 1/2, past which neither keeps a digit.  An operation that
    underflows errs by up to a subnormal instead, 3i + 2 of them in all.
    """
    d = p.defection_gain
    k_hi = 1.0 / d if d > 0 else math.inf
    if not 0.0 < k < k_hi:
        raise ParameterError(f"k={k} outside (0, 1/dJ0(1)={k_hi:.6g})")
    closed = (1.0 - k * d) ** np.arange(n)
    # 1 - x rounds to 0 only where every factor after the first is 0 in both.
    x, u, i = k * d, 2.0**-53, np.arange(n)
    s = u * (2.0 + 3.0 * x / max(1.0 - x, u))
    bound = 2.0 * closed * (i * s + 4.0 * u) + (3 * i + 2) * 2.0**-1074
    if np.any(np.abs(_recursive_factors(k, d, n) - closed) > bound):
        raise ParameterError("recursive and closed-form discount factors disagree")
    return closed


def discount_schedule(p: DuopolyParams, k: float, m: int, N: int) -> DiscountSchedule:
    """Per-period penalty factors for a defection starting in period m.

    rho follows the recursion rho(n) = rho(n-1) - k * dJ~(n-1), which has the
    product closed form rho(n) = (1 - k dJ0(1))^(n-m); both are computed and
    must agree to rounding.  The ledger holds the leader's actual payoffs
    J0*(1) before m and rho(n) J0^(1) from m on.  When m = N the leader's
    forfeited deposit dJ0(1) is subtracted, making a last-period defection
    exactly payoff-neutral.
    """
    if not (1 <= m <= N):
        raise ParameterError(f"need 1 <= m <= N, got m={m}, N={N}")
    tail = _tail_factors(p, k, N - m + 1)
    rho = np.concatenate([np.ones(m - 1), tail])
    _, j_hat, d = one_shot_defection(p)
    ledger = np.concatenate([np.full(m - 1, one_shot_equilibrium(p).J0), tail * j_hat])
    total = float(ledger.sum())
    deposit = m == N
    if deposit:
        total -= d
    return DiscountSchedule(rho=rho, ledger=ledger, total=total, deposit_forfeited=deposit)


def ledger_totals(p: DuopolyParams, k: float, N: int) -> np.ndarray:
    """discount_schedule(p, k, m, N).total for every defection start m = 1..N, in one pass.

    The start-m tail is a prefix of the start-1 tail, so the penalty
    factors and their recursion cross-check are computed once, and
    totals[m - 1] = (m - 1) J0*(1) + J0^(1) * (sum of the first N - m + 1
    factors), less the forfeited deposit at m = N.
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    _, j_hat, d = one_shot_defection(p)
    tail_sums = np.cumsum(_tail_factors(p, k, N) * j_hat)[::-1]
    totals = np.arange(N) * one_shot_equilibrium(p).J0 + tail_sums
    totals[-1] -= d
    return totals


def theorem1_condition(x: float, M: int) -> bool:
    """Deterrence condition for M = N - m + 1 punished periods at x = k dJ0(1).

    True iff (1 - x)^M >= 1 - (8/9) x M, which is equivalent to the ledger
    inequality 9 dJ0 sum_{j<M} (1-x)^j <= 8 M dJ0 (geometric sum identity).
    """
    if not 0.0 < x < 1.0:
        raise ParameterError(f"x must be in (0, 1), got {x}")
    if M < 1:
        raise ParameterError(f"M must be >= 1, got {M}")
    return (1.0 - x) ** M >= 1.0 - (8.0 / 9.0) * x * M


def _threshold_x(M: int, tol_x: float) -> float:
    """Smallest x in (0, 1) satisfying the deterrence condition for given M.

    g(x) = (1-x)^M - 1 + (8/9) M x has g(0) = 0, dips negative, then rises to
    g(1) = (8/9) M - 1 > 0 for M >= 2; bisect on the recrossing.  The
    recrossing falls strictly as M grows, so the shortest punished tail
    needs the largest x.
    """
    def g(x: float) -> float:
        return (1.0 - x) ** M - 1.0 + (8.0 / 9.0) * M * x

    # Left edge of the bracket: the minimum of g, where g' = 0.
    lo = 1.0 - (8.0 / 9.0) ** (1.0 / (M - 1))
    hi = 1.0 - 1e-15
    return find_root_bisect(g, lo, hi, tol_x)


def min_k_discrete(
    p: DuopolyParams, N: int, mode: str = "worst-case", m: int | None = None, tol: float = 1e-9
) -> PenaltySearchResult:
    """Smallest penalty slope k deterring defection.

    mode="fixed": deter a defection starting at the given period m.
    mode="worst-case": deter every defection start m in [1, N-1] (the
    last-period m = N case is covered by the forfeited deposit, not by the
    condition).  The latest start punishes the fewest periods, so its
    threshold is the largest (see _threshold_x) and it alone is bisected.
    The certificate re-verifies the full payoff ledger at k_min + tol by
    direct summation for every relevant m.
    """
    if N < 2:
        raise ParameterError(f"N must be >= 2, got {N}")
    d = p.defection_gain
    if d <= 0:
        # Zero margin: defection gains nothing, any k > 0 works.
        return PenaltySearchResult(
            k_min=0.0, j_star=0.0, j_tilde_at_k=0.0,
            deterred=True, details={"mode": mode, "degenerate": True},
        )
    eps = 1e-12
    k_hi = 1.0 / d - eps
    tol_x = tol * d  # bisect in x = k d to the requested k tolerance

    if mode == "fixed":
        if m is None or not 1 <= m <= N - 1:
            raise ParameterError(f"fixed mode needs m in [1, N-1], got {m}")
        ms = [m]
    elif mode == "worst-case":
        ms = list(range(1, N))
    else:
        raise ParameterError(f"unknown mode {mode!r}")

    k_min = _threshold_x(N - max(ms) + 1, tol_x) / d
    if not k_min < k_hi:
        raise NoDeterrentError(
            f"required k={k_min:.6g} exceeds the admissible bound 1/dJ0(1)={1.0 / d:.6g}"
        )

    j_star = one_shot_equilibrium(p).J0
    k_cert = min(k_min + tol, k_hi)
    all_totals = ledger_totals(p, k_cert, N)
    totals = {mi: float(all_totals[mi - 1]) for mi in ms + [N]}
    deterred = max(totals.values()) <= N * j_star + 1e-9 * (1.0 + N * j_star)
    return PenaltySearchResult(
        k_min=k_min,
        j_star=N * j_star,
        j_tilde_at_k=max(totals.values()),
        deterred=deterred,
        details={"mode": mode, "ledger_totals": totals},
    )
