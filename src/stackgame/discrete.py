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
from dataclasses import dataclass, fields

import numpy as np

from .errors import NoDeterrentError, ParameterError, require_finite
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

    k: float
    m: int
    N: int
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


def brute_force_oracle(
    p: DuopolyParams, grid_resolution: int = 10**6, mode: str = "equilibrium"
) -> OneShotOutcome:
    """Independent oracle: exhaustive leader-payoff maximization on a u0 grid.

    mode="equilibrium": the follower best-responds to every candidate u0.
    mode="defection": the follower output is frozen at its equilibrium value.
    """
    if grid_resolution < 1000:
        raise ParameterError(f"grid_resolution must be >= 1000, got {grid_resolution}")
    u0_max = (p.a - p.c0) / p.b
    u0 = np.linspace(0.0, u0_max, grid_resolution)
    if mode == "equilibrium":
        u1 = np.maximum(0.0, (p.a - p.b * u0 - p.c1) / (2.0 * p.b))
    elif mode == "defection":
        u1 = np.full_like(u0, one_shot_equilibrium(p).u1)
    else:
        raise ParameterError(f"unknown oracle mode {mode!r}")
    J0 = u0 * (p.a - p.b * (u0 + u1) - p.c0)
    i = int(np.argmax(J0))
    J1 = u1[i] * (p.a - p.b * (u0[i] + u1[i]) - p.c1)
    return OneShotOutcome(u0=float(u0[i]), u1=float(u1[i]), J0=float(J0[i]), J1=float(J1))


def discount_schedule(
    p: DuopolyParams, k: float, m: int, N: int, allow_zero_k: bool = False
) -> DiscountSchedule:
    """Per-period penalty factors for a defection starting in period m.

    rho follows the recursion rho(n) = rho(n-1) - k * dJ~(n-1), which has the
    product closed form rho(n) = (1 - k dJ0(1))^(n-m); both are computed and
    must agree to rounding.  The ledger holds the leader's actual payoffs
    J0*(1) before m and rho(n) J0^(1) from m on.  When m = N the leader's
    forfeited deposit dJ0(1) is subtracted, making a last-period defection
    exactly payoff-neutral.
    """
    d = p.defection_gain
    if not (1 <= m <= N):
        raise ParameterError(f"need 1 <= m <= N, got m={m}, N={N}")
    k_hi = 1.0 / d if d > 0 else math.inf
    if allow_zero_k:
        if not 0.0 <= k < k_hi:
            raise ParameterError(f"k={k} outside [0, 1/dJ0(1)={k_hi:.6g})")
    elif not 0.0 < k < k_hi:
        raise ParameterError(f"k={k} outside (0, 1/dJ0(1)={k_hi:.6g})")

    j_star = one_shot_equilibrium(p).J0
    _, j_hat, _ = one_shot_defection(p)
    x = k * d
    n_idx = np.arange(1, N + 1)
    rho_closed = np.where(n_idx < m, 1.0, (1.0 - x) ** np.maximum(0, n_idx - m))
    # Recursion cross-check: d~J0(n) = rho(n) dJ0(1) on the defection tail.
    rho_rec = np.ones(N)
    for n in range(m, N):  # 0-based index n holds period n+1
        rho_rec[n] = rho_rec[n - 1] - k * (rho_rec[n - 1] * d)
    if float(np.abs(rho_rec - rho_closed).max()) > 1e-12:
        raise ParameterError("recursive and closed-form discount factors disagree")

    ledger = np.where(n_idx < m, j_star, rho_closed * j_hat)
    total = float(ledger.sum())
    deposit = m == N
    if deposit:
        total -= d
    return DiscountSchedule(
        k=k, m=m, N=N, rho=rho_closed, ledger=ledger, total=total, deposit_forfeited=deposit
    )


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
    g(1) = (8/9) M - 1 > 0 for M >= 2; bisect on the recrossing.
    """
    def g(x: float) -> float:
        return (1.0 - x) ** M - 1.0 + (8.0 / 9.0) * M * x

    # Left edge of the bracket: the minimum of g, where g' = 0.
    lo = 1.0 - (8.0 / 9.0) ** (1.0 / (M - 1))
    hi = 1.0 - 1e-15
    from .numerics import find_root_bisect

    return find_root_bisect(g, lo, hi, tol_x)


def min_k_discrete(
    p: DuopolyParams, N: int, mode: str = "worst-case", m: int | None = None, tol: float = 1e-9
) -> PenaltySearchResult:
    """Smallest penalty slope k deterring defection.

    mode="fixed": deter a defection starting at the given period m.
    mode="worst-case": deter every defection start m in [1, N-1] (the
    last-period m = N case is covered by the forfeited deposit, not by the
    condition).  The certificate re-verifies the full payoff ledger at
    k_min + tol by direct summation for every relevant m.
    """
    if N < 2:
        raise ParameterError(f"N must be >= 2, got {N}")
    d = p.defection_gain
    if d <= 0:
        # Zero margin: defection gains nothing, any k > 0 works.
        return PenaltySearchResult(
            k_min=0.0, bracket=(0.0, 0.0), tol=tol, j_star=0.0, j_tilde_at_k=0.0,
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

    x_req = max(_threshold_x(N - mi + 1, tol_x) for mi in ms)
    k_min = x_req / d
    if not k_min < k_hi:
        raise NoDeterrentError(
            f"required k={k_min:.6g} exceeds the admissible bound 1/dJ0(1)={1.0 / d:.6g}"
        )

    j_star = one_shot_equilibrium(p).J0
    k_cert = min(k_min + tol, k_hi)
    totals = {}
    deterred = True
    for mi in ms + [N]:
        sched = discount_schedule(p, k_cert, mi, N)
        totals[mi] = sched.total
        if sched.total > N * j_star + 1e-9 * (1.0 + N * j_star):
            deterred = False
    return PenaltySearchResult(
        k_min=k_min,
        bracket=(eps, k_hi),
        tol=tol,
        j_star=N * j_star,
        j_tilde_at_k=max(totals.values()),
        deterred=deterred,
        details={"mode": mode, "m_range": ms, "ledger_totals": totals},
    )
