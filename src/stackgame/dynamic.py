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
so every function here reads one copy per parameter record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import HypothesisViolationError, NoDeterrentError, ParameterError, require_finite
from .numerics import (
    AffineSystem,
    TimeGrid,
    TrajectoryGrid,
    eig_2x2,
    find_root_bisect,
    quad_simpson,
    solve_affine_bvp,
)
from .results import PenaltySearchResult

__all__ = [
    "DynamicParams",
    "SaddleStructure",
    "AppendixConstants",
    "saddle_structure",
    "system_matrix",
    "equilibrium_trajectories",
    "equilibrium_payoff",
    "defection_payoff",
    "check_equ20_identity",
    "appendix_constants",
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


@dataclass(frozen=True)
class AppendixConstants:
    """Coefficients of the twelve exponential terms in the deterrence inequality.

    Convention: lhs = sum_n A_n * phi(mu_n, T) with phi(mu, T) = (e^{mu T}-1)/mu
    (limit T at mu = 0) and exponents
        mu_1..mu_6  = s1-r, s2-r, 2s1-r, 2s2-r, s1+s2-r, -r
        mu_7..mu_12 = the same shifted by -k.
    All signs are folded into the A_n themselves; they are derived from the
    trajectory coefficients, not transcribed, so the quadrature cross-check
    holds to integration error.
    """

    values: tuple[float, ...]
    exponents: tuple[float, ...]
    resonant: tuple[bool, ...]


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
    s1, s2, _ = eig_2x2(m)
    b, g, d = p.b, p.gamma, p.delta
    q1 = 4.0 * b * (s1 + d - 3.0 * g / (4.0 * b))
    q2 = 4.0 * b * (s2 + d - 3.0 * g / (4.0 * b))
    yp = np.linalg.solve(m, -_offset_vector(p))  # constant particular solution
    T = p.T
    # Unknown weights (c1, c2): x1(0) = yp_x + c1 + c2 = x1_0;
    # lambda(T) = yp_l + c1 q1 e^{s1 T} + c2 q2 e^{s2 T} = 0.
    B = np.array([[1.0, 1.0], [q1 * math.exp(s1 * T), q2 * math.exp(s2 * T)]])
    rhs = np.array([p.x1_0 - yp[0], -yp[1]])
    c = np.linalg.solve(B, rhs)
    cx = np.array([yp[0], c[0], c[1]])
    cl = np.array([yp[1], c[0] * q1, c[1] * q2])
    return SaddleStructure(
        Delta=Delta, s1=s1, s2=s2, q1=q1, q2=q2, lambda0=cl[0] + cl[1] + cl[2], cx=cx, cl=cl
    )


def equilibrium_trajectories(p: DynamicParams, grid: TimeGrid) -> TrajectoryGrid:
    """Closed-form equilibrium trajectories and controls on the grid.

    Channels: x1, lam, u0 (leader), u1 (follower), u0_hat (leader's pointwise
    best reply against the frozen follower strategy).  The trajectory carries
    warning flags for negative controls and for the follower cost crossing the
    linear-branch kink.
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
    return TrajectoryGrid(
        grid, {"x1": x1, "lam": lam, "u0": u0, "u1": u1, "u0_hat": u0_hat}, warnings
    )


def bvp_oracle_trajectories(p: DynamicParams, grid: TimeGrid) -> TrajectoryGrid:
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


def _defection_integrand(p: DynamicParams, x1, lam, t, k: float, t0: float):
    """Discounted defection integrand e^{-rt} rho(t) (3X - lam)^2 / (64 b)."""
    X = p.margin(x1)
    rho = np.where(t > t0, np.exp(-k * (t - t0)), 1.0)
    return np.exp(-p.r * t) * rho * (3.0 * X - lam) ** 2 / (64.0 * p.b)


def equilibrium_payoff(p: DynamicParams, grid: TimeGrid) -> float:
    """Leader's equilibrium payoff by Simpson quadrature of the closed form."""
    t = grid.times()
    return quad_simpson(_equilibrium_integrand(p, *p.saddle.states(t), t), grid.h)


def defection_payoff(p: DynamicParams, k: float, t0: float, grid: TimeGrid) -> float:
    """Leader's actual payoff when defecting at t0 under penalty rate k.

    Equilibrium integrand on [0, t0], discounted defection integrand on
    (t0, T].  The state and costate are unchanged by the defection (x1 is
    driven by the follower's output only).  Each piece gets its own even
    Simpson sub-grid so t0 is always a node.
    """
    if not 0.0 <= t0 <= p.T:
        raise ParameterError(f"defection time t0={t0} outside [0, {p.T}]")
    if not (math.isfinite(k) and k >= 0):
        raise ParameterError(f"penalty rate k={k} must be finite and >= 0")

    def piece(ta: float, tb: float, fn) -> float:
        if tb <= ta:
            return 0.0
        sub = TimeGrid(ta, tb, max(2, 2 * math.ceil(grid.n_steps * (tb - ta) / (p.T * 2))))
        t = sub.times()
        return quad_simpson(fn(*p.saddle.states(t), t), sub.h)

    before = piece(0.0, t0, lambda x1, lam, t: _equilibrium_integrand(p, x1, lam, t))
    after = piece(t0, p.T, lambda x1, lam, t: _defection_integrand(p, x1, lam, t, k, t0))
    return before + after


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
    lhs = 64.0 * p.b * (
        _equilibrium_integrand(p, x1, lam, t) - _defection_integrand(p, x1, lam, t, k, 0.0)
    )
    rhs = np.exp(-p.r * t) * (
        (8.0 - 9.0 * rho) * X * X - (8.0 + rho) * lam * lam + 6.0 * rho * X * lam
    )
    scale = float(np.abs(rhs).max()) + 1.0
    return float(np.abs(lhs - rhs).max() / scale)


def _product_coeffs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients of (u . basis)(v . basis) on [1, e^{s1 t}, e^{s2 t}]^2.

    Output order: [const, s1, s2, 2 s1, 2 s2, s1+s2].
    """
    return np.array(
        [
            u[0] * v[0],
            u[0] * v[1] + u[1] * v[0],
            u[0] * v[2] + u[2] * v[0],
            u[1] * v[1],
            u[2] * v[2],
            u[1] * v[2] + u[2] * v[1],
        ]
    )


def _phi(mu: float, T: float) -> float:
    """(e^{mu T} - 1)/mu with the removable singularity evaluated as T."""
    if abs(mu) < RESONANCE_TOL:
        return T
    return (math.exp(mu * T) - 1.0) / mu


def appendix_constants(p: DynamicParams, k: float) -> AppendixConstants:
    """Derive the twelve exponential coefficients of the deterrence inequality.

    The equilibrium-minus-defection integrand (times 64 b), with rho = e^{-kt},
    expands over the twelve exponentials e^{(mu_n) t}; the coefficients are
    computed exactly from the trajectory coefficients.  The exponent
    s1 + s2 - r vanishes identically (s1 + s2 = r), so its term is always
    the removable-singularity limit and is flagged as resonant.
    """
    ss = p.saddle
    cx, cl, g = ss.cx, ss.cl, p.gamma
    # X = a + c1 - gamma x1 over the same exponential basis.
    cX = np.array([p.margin(cx[0]), -g * cx[1], -g * cx[2]])
    XX = _product_coeffs(cX, cX)
    LL = _product_coeffs(cl, cl)
    XL = _product_coeffs(cX, cl)
    # 64 b (eq - def) = e^{-rt} (8 XX - 8 LL) - e^{-(r+k)t} (9 XX - 6 XL + LL)
    eq_part = 8.0 * XX - 8.0 * LL
    def_part = -(9.0 * XX - 6.0 * XL + LL)
    s1, s2, r = ss.s1, ss.s2, p.r
    base = [0.0, s1, s2, 2.0 * s1, 2.0 * s2, s1 + s2]
    # Reorder to the conventional listing s1-r, s2-r, 2s1-r, 2s2-r, s1+s2-r, -r.
    order = [1, 2, 3, 4, 5, 0]
    exponents = tuple(
        [base[i] - r for i in order] + [base[i] - r - k for i in order]
    )
    values = tuple([float(eq_part[i]) for i in order] + [float(def_part[i]) for i in order])
    resonant = tuple(abs(mu) < RESONANCE_TOL for mu in exponents)
    return AppendixConstants(values=values, exponents=exponents, resonant=resonant)


def theorem2_lhs(p: DynamicParams, k: float) -> float:
    """Closed-form 64 b (J0* - J0~(t0=0, k)); >= 0 iff defection does not pay."""
    ac = appendix_constants(p, k)
    return float(sum(A * _phi(mu, p.T) for A, mu in zip(ac.values, ac.exponents)))


def min_k_dynamic(
    p: DynamicParams, grid: TimeGrid | None = None, tol: float = 1e-8
) -> PenaltySearchResult:
    """Minimal penalty rate making the announced equilibrium credible.

    Bisects the closed-form deterrence expression in k, and the direct
    Simpson payoff difference as an independent oracle, whose root is
    details["k_min_quadrature"].  Each bracket [1e-6, 1] grows
    geometrically until a sign change appears.  The certificate re-verifies
    deterrence by quadrature at k_min + tol and scans defection times t0 in
    {0, T/4, T/2, 3T/4}.
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
    k_quad = root(lambda k: 64.0 * p.b * (j_star - defection_payoff(p, k, 0.0, grid)))

    k_cert = k_min + tol
    scan = {}
    deterred = True
    for frac in (0.0, 0.25, 0.5, 0.75):
        t0 = frac * p.T
        j_tilde = defection_payoff(p, k_cert, t0, grid)
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
