"""Model 2: continuous-time duopoly Stackelberg game with learning-by-doing.

The follower's unit cost falls linearly with its knowledge stock x1, the
leader commits to an announced output path, and a third party punishes a
defection at time t0 by discounting the leader's payoff with exp(-k (t-t0)).

The state-costate pair (x1, lambda) solves an affine 2x2 system with a saddle
structure; everything downstream (controls, payoffs, the deterrence
inequality) is assembled from the closed-form exponential representation
    x1(t)     = cx0 + cx1 e^{s1 t} + cx2 e^{s2 t}
    lambda(t) = cl0 + cl1 e^{s1 t} + cl2 e^{s2 t}
obtained by solving the two boundary conditions x1(0) = x1_0, lambda(T) = 0.
saddle_structure builds it, and DynamicParams.saddle keeps it on the record,
so every function here reads one copy per parameter record.  On the basis
v = (1, e^{s1 t}, e^{s2 t}) every payoff integrand is a quadratic form in v,
so the deterrence inequality (theorem2_lhs) is a 3x3 sum of exact integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ClosedFormOverflowError, HypothesisViolationError, NoDeterrentError
from .errors import ParameterError, require_finite
from .numerics import (
    AffineSystem,
    TimeGrid,
    _simpson_rule,
    find_root_bisect,
    quad_simpson,
    solve_affine_bvp,
)
from .results import PenaltySearchResult

__all__ = [
    "DynamicParams",
    "SaddleStructure",
    "saddle_structure",
    "system_matrix",
    "equilibrium_trajectories",
    "equilibrium_payoff",
    "defection_payoffs",
    "defection_payoff",
    "check_equ20_identity",
    "theorem2_lhs",
    "min_k_dynamic",
]

# Exponent differences smaller than this are treated as the removable
# singularity (e^{mu T} - 1)/mu -> T.  The s1+s2-r exponent is exactly zero
# (s1 + s2 = r by construction), so it always takes this branch.
RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class DynamicParams:
    """Parameters of the dynamic learning-by-doing duopoly.

    The leader's unit cost c0 is normalized away at ingestion: all formulas
    run on a_eff = a - c0 and c1_eff = cbar1 - c0, matching the c0 = 0
    reduction used throughout the model's derivation.
    """

    a: float
    b: float
    cbar1: float
    gamma: float
    delta: float
    r: float
    T: float
    c0: float = 0.0
    x1_0: float = 0.0

    def __post_init__(self):
        require_finite(self, [f.name for f in fields(self)])
        if self.b <= 0:
            raise ParameterError(f"b must be > 0, got {self.b}")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")
        if self.delta <= 0:
            raise ParameterError(f"delta must be > 0, got {self.delta}")
        if self.r <= 0:
            raise ParameterError(f"r must be > 0, got {self.r}")
        if self.T <= 0:
            raise ParameterError(f"T must be > 0, got {self.T}")
        if self.gamma > self.cbar1:
            raise ParameterError(
                f"knowledge productivity gamma={self.gamma} exceeds follower base cost "
                f"cbar1={self.cbar1} (follower could out-learn the leader)"
            )

    @property
    def a_eff(self) -> float:
        return self.a - self.c0

    @property
    def c1_eff(self) -> float:
        return self.cbar1 - self.c0

    @property
    def kink_level(self) -> float:
        """Knowledge stock at which the follower's linear cost branch ends."""
        if self.gamma == 0:
            return math.inf
        return self.c1_eff / self.gamma

    def margin(self, x1):
        """X = a_eff + c1_eff - gamma x1, the margin every payoff is built from."""
        return self.a_eff + self.c1_eff - self.gamma * x1

    @cached_property
    def saddle(self) -> SaddleStructure:
        """The closed form of this record, built on first use and then kept."""
        return saddle_structure(self)


@dataclass(frozen=True)
class SaddleStructure:
    """Eigen data of the state-costate matrix, the trajectory coefficients
    (cx, cl) of x1 and lambda on (1, e^{s1 t}, e^{s2 t}), and the costate's
    start value."""

    Delta: float
    s1: float
    s2: float
    q1: float
    q2: float
    lambda0: float
    cx: np.ndarray
    cl: np.ndarray

    def states(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x1, lambda) at the times t."""
        e1, e2 = np.exp(self.s1 * t), np.exp(self.s2 * t)
        cx, cl = self.cx, self.cl
        return cx[0] + cx[1] * e1 + cx[2] * e2, cl[0] + cl[1] * e1 + cl[2] * e2


def system_matrix(p: DynamicParams) -> np.ndarray:
    """State-costate matrix of the equilibrium system (x1' ; lambda')."""
    b, g, d, r = p.b, p.gamma, p.delta, p.r
    return np.array(
        [
            [3.0 * g / (4.0 * b) - d, 1.0 / (4.0 * b)],
            [-g * g / (4.0 * b), r + d - 3.0 * g / (4.0 * b)],
        ]
    )


def _offset_vector(p: DynamicParams) -> np.ndarray:
    a, c1, b, g = p.a_eff, p.c1_eff, p.b, p.gamma
    return np.array([(a - 3.0 * c1) / (4.0 * b), g * (a + c1) / (4.0 * b)])


def saddle_structure(p: DynamicParams) -> SaddleStructure:
    """Eigen decomposition of the equilibrium system and its closed form.

    Delta is the discriminant of the system matrix; the saddle hypothesis
    Delta > r^2 is equivalent to a negative determinant (s1 < 0 < s2).
    The trajectory coefficients (cx, cl) on (1, e^{s1 t}, e^{s2 t}) come
    from the eigenvectors (1, q_i), the constant particular solution
    -M^{-1} v and the boundary pair x1(0) = x1_0, lambda(T) = 0.
    """
    m = system_matrix(p)
    det = float(np.linalg.det(m))
    Delta = p.r * p.r - 4.0 * det
    if det >= 0 or Delta <= p.r * p.r:
        raise HypothesisViolationError(
            f"saddle hypothesis fails: Delta={Delta:.6g} <= r^2={p.r * p.r:.6g}"
        )
    tr = m[0, 0] + m[1, 1]
    root = math.sqrt(tr * tr - 4.0 * (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    s1, s2 = float((tr - root) / 2.0), float((tr + root) / 2.0)
    b, g, d = p.b, p.gamma, p.delta
    q1 = 4.0 * b * (s1 + d - 3.0 * g / (4.0 * b))
    q2 = 4.0 * b * (s2 + d - 3.0 * g / (4.0 * b))
    yp = np.linalg.solve(m, -_offset_vector(p))  # constant particular solution
    T = p.T
    # Unknown weights (c1, c2): x1(0) = yp_x + c1 + c2 = x1_0;
    # lambda(T) = yp_l + c1 q1 e^{s1 T} + c2 q2 e^{s2 T} = 0.
    B = np.array([[1.0, 1.0], [q1 * _exp(s1 * T), q2 * _exp(s2 * T)]])
    rhs = np.array([p.x1_0 - yp[0], -yp[1]])
    c = np.linalg.solve(B, rhs)
    cx = np.array([yp[0], c[0], c[1]])
    cl = np.array([yp[1], c[0] * q1, c[1] * q2])
    return SaddleStructure(
        Delta=Delta, s1=s1, s2=s2, q1=q1, q2=q2, lambda0=cl[0] + cl[1] + cl[2], cx=cx, cl=cl
    )


def equilibrium_trajectories(
    p: DynamicParams, grid: TimeGrid
) -> tuple[dict[str, np.ndarray], list[str]]:
    """Closed-form equilibrium trajectories and controls on the grid, and their warnings.

    Returns (channels, warnings).  Channels by name: x1, lam, u0 (leader),
    u1 (follower), u0_hat (leader's pointwise best reply against the frozen
    follower strategy).  The warnings flag negative controls and the
    follower cost crossing the linear-branch kink.
    """
    t = grid.times()
    x1, lam = p.saddle.states(t)
    b = p.b
    X = p.margin(x1)
    u0 = (X - lam) / (2.0 * b)
    u1 = (p.a_eff - 3.0 * p.c1_eff + 3.0 * p.gamma * x1 + lam) / (4.0 * b)
    u0_hat = (3.0 * X - lam) / (8.0 * b)
    warnings = []
    if min(u0.min(), u1.min(), u0_hat.min()) < 0:
        warnings.append("negative-control")
    if np.any(x1 >= p.kink_level):
        t_cross = float(t[np.argmax(x1 >= p.kink_level)])
        warnings.append(f"cost-kink-crossing at t={t_cross:.6g} (linear-branch extrapolation)")
    return {"x1": x1, "lam": lam, "u0": u0, "u1": u1, "u0_hat": u0_hat}, warnings


def bvp_oracle_trajectories(p: DynamicParams, grid: TimeGrid) -> dict[str, np.ndarray]:
    """Independent oracle: the same two-point problem, x1(0) = x1_0 and
    lambda(T) = 0, via the generic BVP solver."""
    system = AffineSystem(
        matrix=system_matrix(p),
        offset=_offset_vector(p),
        boundary=[(0, "t0", p.x1_0), (1, "t1", 0.0)],
        names=("x1", "lam"),
    )
    return solve_affine_bvp(system, grid)


def _equilibrium_integrand(p: DynamicParams, x1: np.ndarray, lam: np.ndarray, t: np.ndarray):
    X = p.margin(x1)
    return np.exp(-p.r * t) * (X * X - lam * lam) / (8.0 * p.b)


def _require_horizon(p: DynamicParams, grid: TimeGrid) -> None:
    """The payoffs integrate over [0, T], so a grid must span that horizon."""
    if grid != TimeGrid(0.0, p.T, grid.n_steps):
        raise ParameterError(f"grid [{grid.t0}, {grid.t1}] does not span the horizon [0, {p.T}]")


def equilibrium_payoff(p: DynamicParams, grid: TimeGrid) -> float:
    """Leader's equilibrium payoff by Simpson quadrature of the closed form on [0, T]."""
    _require_horizon(p, grid)
    t = grid.times()
    return quad_simpson(_equilibrium_integrand(p, *p.saddle.states(t), t), grid.h)


def defection_payoffs(p: DynamicParams, t0: float, grid: TimeGrid):
    """The leader's actual payoff k -> J~(k) when defecting at t0 under penalty rate k.

    Equilibrium integrand on [0, t0], discounted defection integrand
    e^{-rt} rho (3X - lam)^2 / (64 b) with rho = e^{-k (t - t0)} on (t0, T],
    each on its own even Simpson sub-grid, so t0 is always a node.  The
    state and costate are unchanged by the defection (x1 is driven by the
    follower's output only).  Only rho depends on k, so the first piece's
    value and t - t0, e^{-rt}, (3X - lam)^2 and the Simpson weights on the
    second are computed here once and held until the function is dropped.
    A call computes the integrand in the order written, so it has the bits
    of a fresh quadrature.
    """
    _require_horizon(p, grid)
    if not 0.0 <= t0 <= p.T:
        raise ParameterError(f"defection time t0={t0} outside [0, {p.T}]")

    def nodes(ta: float, tb: float) -> tuple:
        sub = TimeGrid(ta, tb, max(2, 2 * math.ceil(grid.n_steps * (tb - ta) / (p.T * 2))))
        t = sub.times()
        return t, *p.saddle.states(t), sub.h

    before = 0.0
    if t0 > 0.0:
        t, x1, lam, h_before = nodes(0.0, t0)
        before = quad_simpson(_equilibrium_integrand(p, x1, lam, t), h_before)
    if t0 < p.T:
        t, x1, lam, h = nodes(t0, p.T)
        dt, e, sq = t - t0, np.exp(-p.r * t), (3.0 * p.margin(x1) - lam) ** 2
        simpson = _simpson_rule(len(t))

    def payoff(k: float) -> float:
        if not (math.isfinite(k) and k >= 0):
            raise ParameterError(f"penalty rate k={k} must be finite and >= 0")
        after = simpson(e * np.exp(-k * dt) * sq / (64.0 * p.b), h) if t0 < p.T else 0.0
        return before + after

    return payoff


def defection_payoff(p: DynamicParams, k: float, t0: float, grid: TimeGrid) -> float:
    """Leader's actual payoff when defecting at t0 under penalty rate k (see defection_payoffs)."""
    return defection_payoffs(p, t0, grid)(k)


def check_equ20_identity(p: DynamicParams, k: float, grid: TimeGrid) -> float:
    """Max pointwise residual of the algebraic payoff-difference identity.

    64 b (equilibrium integrand - discounted defection integrand) must equal
    e^{-rt} [(8 - 9 rho) X^2 - (8 + rho) lam^2 + 6 rho X lam] at every node
    (defection at t0 = 0).  Pure algebra: the residual is rounding noise.
    """
    t = grid.times()
    x1, lam = p.saddle.states(t)
    X = p.margin(x1)
    rho = np.exp(-k * t)
    defection = np.exp(-p.r * t) * rho * (3.0 * X - lam) ** 2 / (64.0 * p.b)
    lhs = 64.0 * p.b * (_equilibrium_integrand(p, x1, lam, t) - defection)
    rhs = np.exp(-p.r * t) * (
        (8.0 - 9.0 * rho) * X * X - (8.0 + rho) * lam * lam + 6.0 * rho * X * lam
    )
    scale = float(np.abs(rhs).max()) + 1.0
    return float(np.abs(lhs - rhs).max() / scale)


def _exp(x: float) -> float:
    """math.exp, raising ClosedFormOverflowError where the value leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ClosedFormOverflowError(f"e^{x:.6g} leaves the float range") from None


def _phi(mu: float, T: float) -> float:
    """(e^{mu T} - 1)/mu with the removable singularity evaluated as T."""
    if abs(mu) < RESONANCE_TOL:
        return T
    return (_exp(mu * T) - 1.0) / mu


def theorem2_lhs(p: DynamicParams, k: float) -> float:
    """Closed-form 64 b (J0* - J0~(t0=0, k)); >= 0 iff defection does not pay.

    The difference is the integral over [0, T] of
        8 e^{-rt} (X^2 - lambda^2) - e^{-(r+k)t} (3X - lambda)^2,
    and X = cX . v(t), lambda = cl . v(t) on v = (1, e^{s1 t}, e^{s2 t}), so it
    is a quadratic form: with e = (0, s1, s2), the entry (i, j) of
        G_eq = 8 (cX cX^T - cl cl^T)
        G_def = 9 cX cX^T - 3 (cX cl^T + cl cX^T) + cl cl^T
    integrates to phi(e_i + e_j - r, T) and phi(e_i + e_j - r - k, T).
    """
    ss = p.saddle
    cX = np.array([p.margin(ss.cx[0]), -p.gamma * ss.cx[1], -p.gamma * ss.cx[2]])
    XX, XL, LL = np.outer(cX, cX), np.outer(cX, ss.cl), np.outer(ss.cl, ss.cl)
    e = np.array([0.0, ss.s1, ss.s2])
    mu = e[:, None] + e - p.r

    def integrals(rates: np.ndarray) -> np.ndarray:
        # _phi is scalar: a vectorised (e^{mu T} - 1)/mu divides by the resonant zero.
        return np.array([[_phi(m, p.T) for m in row] for row in rates.tolist()])

    g_eq = 8.0 * (XX - LL)
    g_def = 9.0 * XX - 3.0 * (XL + XL.T) + LL
    return float(np.sum(g_eq * integrals(mu) - g_def * integrals(mu - k)))


def min_k_dynamic(
    p: DynamicParams, grid: TimeGrid | None = None, tol: float = 1e-8
) -> PenaltySearchResult:
    """Minimal penalty rate making the announced equilibrium credible.

    Bisects the closed-form deterrence expression in k, and the direct
    Simpson payoff difference as an independent oracle, whose root is
    details["k_min_quadrature"].  Each bracket [1e-6, 1] grows
    geometrically until a sign change appears.  The certificate re-verifies
    deterrence by quadrature at k_min + tol and scans defection times t0 in
    {0, T/4, T/2, 3T/4}.  Each defection time's payoffs come from one
    defection_payoffs.  A given grid must span [0, T].
    """
    if grid is None:
        grid = TimeGrid(0.0, p.T, 2000)
    j_star = equilibrium_payoff(p, grid)

    def root(f) -> float:
        lo, hi = 1e-6, 1.0
        if f(lo) >= 0.0:
            return 0.0
        while f(hi) < 0.0:
            hi *= 2.0
            if hi > 1e6:
                raise NoDeterrentError("no deterrent rate found up to k = 1e6")
        return find_root_bisect(f, lo, hi, tol)

    k_min = root(lambda k: theorem2_lhs(p, k))
    at_zero = defection_payoffs(p, 0.0, grid)
    k_quad = root(lambda k: 64.0 * p.b * (j_star - at_zero(k)))

    k_cert = k_min + tol
    scan = {}
    deterred = True
    for frac in (0.0, 0.25, 0.5, 0.75):
        t0 = frac * p.T
        j_tilde = (defection_payoffs(p, t0, grid) if t0 else at_zero)(k_cert)
        scan[t0] = j_tilde
        if j_tilde > j_star + 1e-9 * (1.0 + abs(j_star)):
            deterred = False
    return PenaltySearchResult(
        k_min=k_min,
        j_star=j_star,
        j_tilde_at_k=scan[0.0],
        deterred=deterred,
        details={"t0_scan": scan, "k_min_quadrature": k_quad},
    )
