"""Model 3: mean-field Stackelberg game with one major and many minor firms.

Followers solve an LQ tracking problem whose optimal control is affine
feedback through a scalar Riccati function F; in the infinite-population
limit their mean state couples back into the major firm's problem.  The
leader's equilibrium control comes from a six-variable affine two-point
boundary system; the defection control against frozen followers comes
from a scalar Riccati pair (Q, q).  F and Q are marched as linear systems
by Radon's lemma, so a pole raises RiccatiBlowupError where it lies.
Monte Carlo path simulation compares the two payoffs and a bisection finds
the minimal penalty rate k at which defection (discounted at r + k) is
statistically unprofitable.

All adjoint equations are kept in current-value form: a multiplier paired
with a state through the weight e^{-rt} obeys y' = r y - dH/dstate, which
removes every explicit e^{-rt} factor from the drift terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigurationError,
    IntegrationBlowupError,
    NoDeterrentError,
    ParameterError,
    RiccatiBlowupError,
    require_finite,
    require_int,
    require_positive,
)
from .numerics import (
    AffineSystem,
    TimeGrid,
    TrajectoryGrid,
    _affine_march,
    _em_functionals,
    _march_held,
    _rk4_linear_backward,
    euler_mean,
    solve_affine_bvp,
)
from .results import PenaltySearchResult

__all__ = [
    "MfgParams",
    "McConfig",
    "McEstimate",
    "SplitEstimate",
    "MeanFieldSolution",
    "follower_riccati",
    "defection_riccati",
    "mean_field_bvp",
    "follower_feedback_check",
    "euler_condition_check",
    "follower_euler_check",
    "mc_payoffs",
    "mean_payoffs",
    "growth_order_check",
    "min_k_meanfield",
]


@dataclass(frozen=True)
class MfgParams:
    """Coefficients of the major/minor knowledge-stock game.

    Leader state:    dx0 = (A0 x0 + B0 u0 + C0 xbar) dt + sqrt(x0(1-x0)) dW0
    Follower state:  dxj = (A xj + B uj + C xbar + D x0) dt + sqrt(xj(1-xj)) dWj
    Leader reward:   e^{-rt} (-a0 u0^2 + (x0 - l0 xbar + b0)^2)
    Follower reward: e^{-rt} (-a uj^2 + (xj - l xbar + b)^2 - 2 sigma u0 uj)
    """

    A0: float
    B0: float
    C0: float
    A: float
    B: float
    C: float
    D: float
    a0: float
    a: float
    l0: float
    l: float
    b0: float
    b: float
    sigma: float
    r: float
    T: float
    x0_init: float
    xbar_init: float

    def __post_init__(self):
        require_finite(self, [f.name for f in fields(self)])
        if self.a0 <= 0 or self.a <= 0:
            raise ParameterError(f"control weights must be > 0, got a0={self.a0}, a={self.a}")
        if self.T <= 0:
            raise ParameterError(f"T must be > 0, got {self.T}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if self.r < 0:
            raise ParameterError(f"r must be >= 0, got {self.r}")
        for name in ("x0_init", "xbar_init"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: path count, grid resolution, base seed.

    The seed is a non-negative int, the entropy numpy's SeedSequence takes.
    """

    n_paths: int = 10_000
    n_steps: int = 1000
    seed: int = 42
    zero_noise: bool = False

    def __post_init__(self):
        require_int(self, "seed", 0)
        require_int(self, "n_paths", 2)
        require_int(self, "n_steps", 2)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float


@dataclass(frozen=True, eq=False)
class SplitEstimate(McEstimate):
    """Directional payoff derivative with its exact two-part split.

    mean and stderr describe the total derivative.  Per path the payoff,
    which is quadratic in the state x, splits exactly about the scheme's
    Euler mean m:
    Q(x) = [Q(m) + Q'(m)(x - m)] + [Q''(x - m)^2 / 2].  The first bracket is
    the certainty-equivalent part, whose expectation is the noise-free payoff
    Q(m); the second is the variance channel, through which a
    state-dependent noise lets the control move the payoff.  Rows of
    `samples` are the per-path total, certainty-equivalent and
    variance-channel derivatives; the last two sum to the first up to
    rounding.
    """

    certainty_equivalent: McEstimate
    variance_channel: McEstimate
    samples: np.ndarray


@dataclass
class MeanFieldSolution:
    """Equilibrium mean system: states, adjoints, and both mean controls."""

    grid: TimeGrid
    channels: dict[str, np.ndarray]
    boundary_residuals: dict[str, float]
    ode_residuals: dict[str, float]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]


_BLOWUP_LIMIT = 1e6
_RK4_STABILITY = 2.785  # RK4 damps y' = mu y for real h mu in [-2.785, 0]
_MARCH_RANGE = 600.0  # |log| of the factor the march may change (X, Y) by; floats reach 709


def _rk4_gain(z: float) -> float:
    """|R(z)|, RK4's amplification of y' = mu y in one step of z = h mu."""
    return abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))


def _backward_riccati(c0: float, c1: float, c2: float, grid: TimeGrid) -> np.ndarray:
    """y' = c0 + c1 y + c2 y^2 from y(T) = 0 back to t0, on the nodes ordered t0..t1.

    Radon's lemma (Reid, Riccati Differential Equations, 1972): y = Y/X for
    the constant linear (X, Y)' = [[0, -c2], [c0, c1]] (X, Y), (1, 0) at T,
    which _affine_march runs in reversed time s = T - t.  Its modes grow at
    (-c1 +- root) / 2 in s; should the faster take (X, Y) out of float range,
    the march carries e^{-d s} (X, Y), which leaves Y/X as it is.  A step with
    h |root| > _RK4_STABILITY would grow the other mode: ConfigurationError.
    So would a step at which RK4's amplification of the faster real mode,
    |R(h mu)| with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, falls below the
    slower one's: R falls from 1 to its minimum near z = -1.6 and rises
    again toward 1 at -2.785.
    A pole is a zero of X, which no step can jump over: the node nearest T
    where X <= 0, |Y/X| > _BLOWUP_LIMIT or the march is non-finite raises
    RiccatiBlowupError.
    """
    root = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
    if not grid.h * abs(root) <= _RK4_STABILITY:
        raise ConfigurationError(f"{grid.n_steps} steps are too few for this Riccati gain: "
                                 f"h |root| = {grid.h * abs(root):.4g} > {_RK4_STABILITY}")
    rate, cap = (root.real - c1) / 2.0, _MARCH_RANGE / (grid.t1 - grid.t0)
    d = min(max(rate, -cap), cap) - rate  # 0 unless (X, Y) would leave the float range
    if root.imag == 0.0 and root.real > 0.0:
        fast, slow = (_rk4_gain(grid.h * mu) for mu in (rate + d, rate + d - root.real))
        if fast < slow:
            raise ConfigurationError(
                f"{grid.n_steps} steps are too few for this Riccati gain: RK4 damps its "
                f"dominant mode more than the other (|R| = {fast:.4g} < {slow:.4g})")
    radon = np.array([[d, c2], [-c0, d - c1]])
    try:
        X, Y = _affine_march(radon, np.zeros(2), grid, np.array([[1.0], [0.0]]))[::-1, :, 0].T
    except IntegrationBlowupError as err:
        raise RiccatiBlowupError(t_blowup=float(grid.times()[-1 - err.step])) from None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = Y / X
    bad = np.flatnonzero(~((X > 0.0) & (np.abs(y) <= _BLOWUP_LIMIT)))
    if bad.size:
        raise RiccatiBlowupError(t_blowup=float(grid.times()[bad[-1]]))
    return y


def follower_riccati(p: MfgParams, grid: TimeGrid) -> np.ndarray:
    """Follower feedback gain F with F' = (r - 2A) F + (B^2/a) F^2 + 1, F(T)=0.

    The adjoint ansatz p_i = F x_i + f_i together with the current-value
    adjoint equation p_i' = (r - A) p_i + (x_i - l xbar + b) forces this ODE.
    """
    return _backward_riccati(1.0, p.r - 2.0 * p.A, p.B**2 / p.a, grid)


def defection_riccati(p: MfgParams, k: float, grid: TimeGrid) -> np.ndarray:
    """Defection gain Q with Q' = (r~ - 2A0) Q - (B0^2/(2a0)) Q^2 - 2, Q(T)=0.

    r~ = r + k is the leader's raised discount rate under punishment.
    """
    if not (math.isfinite(k) and k >= 0):
        raise ParameterError(f"penalty rate k must be finite and >= 0, got {k}")
    return _backward_riccati(-2.0, p.r + k - 2.0 * p.A0, -(p.B0**2 / (2.0 * p.a0)), grid)


def _equilibrium_matrix(p: MfgParams) -> np.ndarray:
    """Drift matrix of the six-variable mean system (x0, xbar, pbar, p0, lam, xi).

    The leader control u0 = (B0/a0) p0 - (B sigma/(a a0)) lam is eliminated.
    """
    Ba = p.B**2 / p.a
    u_p0 = p.B0 / p.a0  # du0/dp0
    u_lam = -p.B * p.sigma / (p.a * p.a0)  # du0/dlam
    m = np.zeros((6, 6))
    # x0' = A0 x0 + C0 xbar + B0 u0
    m[0] = [p.A0, p.C0, 0.0, p.B0 * u_p0, p.B0 * u_lam, 0.0]
    # xbar' = D x0 + (A+C) xbar - (B^2/a) pbar - (B sigma/a) u0
    s = -p.B * p.sigma / p.a
    m[1] = [p.D, p.A + p.C, -Ba, s * u_p0, s * u_lam, 0.0]
    # pbar' = (1-l) xbar + (r-A) pbar + b
    m[2] = [0.0, 1.0 - p.l, p.r - p.A, 0.0, 0.0, 0.0]
    # p0' = (r-A0) p0 - D lam - (x0 - l0 xbar + b0)
    m[3] = [-1.0, p.l0, 0.0, p.r - p.A0, -p.D, 0.0]
    # lam' = (r-(A+C)) lam - C0 p0 - (1-l) xi + l0 (x0 - l0 xbar + b0)
    m[4] = [p.l0, -p.l0**2, 0.0, -p.C0, p.r - (p.A + p.C), -(1.0 - p.l)]
    # xi' = A xi + (B^2/a) lam
    m[5] = [0.0, 0.0, 0.0, 0.0, Ba, p.A]
    return m


_EQ_NAMES = ("x0", "xbar", "pbar", "p0", "lam", "xi")


def _equilibrium_offset(p: MfgParams) -> np.ndarray:
    return np.array([0.0, 0.0, p.b, -p.b0, p.l0 * p.b0, 0.0])


def mean_field_bvp(p: MfgParams, grid: TimeGrid) -> MeanFieldSolution:
    """Equilibrium mean system with controls and feedback offset recovered.

    Solves the affine two-point system in (x0, xbar, pbar, p0, lam, xi) with
    x0(0), xbar(0) given and pbar(T) = p0(T) = lam(T) = 0.  The auxiliary
    multiplier xi tracks the followers' backward adjoint pbar, whose own free
    value sits at t = 0; the boundary-term cancellation in the variational
    argument therefore pins xi(0) = 0.  (The alternative xi(T) = 0 leaves the
    boundary residuals intact but breaks first-order optimality of the
    resulting control.)

    Afterwards the follower feedback offset fbar is integrated backward and
    both mean controls u0_star, ui_star are attached as channels.
    """
    matrix = _equilibrium_matrix(p)
    offset = _equilibrium_offset(p)
    system = AffineSystem(
        matrix=matrix,
        offset=offset,
        boundary=[
            (0, "t0", p.x0_init),
            (1, "t0", p.xbar_init),
            (2, "t1", 0.0),
            (3, "t1", 0.0),
            (4, "t1", 0.0),
            (5, "t0", 0.0),
        ],
        names=_EQ_NAMES,
    )
    traj = solve_affine_bvp(system, grid)
    ch = dict(traj.channels)

    u0 = (p.B0 / p.a0) * ch["p0"] - (p.B * p.sigma / (p.a * p.a0)) * ch["lam"]
    ui = -(1.0 / p.a) * (
        p.B * ch["pbar"] + (p.B0 * p.sigma / p.a0) * ch["p0"]
        - (p.B * p.sigma**2 / (p.a * p.a0)) * ch["lam"]
    )
    ch["u0_star"] = u0
    ch["ui_star"] = ui

    # Feedback offset: fbar' = (r - A + (B^2/a) F) fbar
    #                          + (B sigma/a) F u0 - (C F + l) xbar - D F x0 + b
    F = follower_riccati(p, grid)
    Ba = p.B**2 / p.a

    def fbar_coefficients(F, u0, xbar, x0):
        return (p.r - p.A + Ba * F,
                (p.B * p.sigma / p.a) * F * u0 - (p.C * F + p.l) * xbar - p.D * F * x0 + p.b)

    ch["F"] = F
    ch["fbar"] = _rk4_linear_backward(fbar_coefficients, (F, u0, ch["xbar"], ch["x0"]), grid)

    boundary = {
        "x0(0)": abs(ch["x0"][0] - p.x0_init),
        "xbar(0)": abs(ch["xbar"][0] - p.xbar_init),
        "pbar(T)": abs(ch["pbar"][-1]),
        "p0(T)": abs(ch["p0"][-1]),
        "lam(T)": abs(ch["lam"][-1]),
        "xi(0)": abs(ch["xi"][0]),
        "fbar(T)": abs(ch["fbar"][-1]),
    }
    ode = _ode_residuals(matrix, offset, traj, grid)
    # Self-consistency of the two pbar representations.
    ode["pbar-feedback"] = float(
        np.abs(ch["pbar"] - (F * ch["xbar"] + ch["fbar"])).max()
    )
    return MeanFieldSolution(
        grid=grid, channels=ch, boundary_residuals=boundary, ode_residuals=ode
    )


def _ode_residuals(matrix, offset, traj: TrajectoryGrid, grid: TimeGrid) -> dict[str, float]:
    """Central-difference drift residual per channel, scaled O(h^2)."""
    names = list(traj.channels)
    Y = traj.stack(names)  # (d, n+1)
    h = grid.h
    dY = (Y[:, 2:] - Y[:, :-2]) / (2.0 * h)
    drift = matrix @ Y + offset[:, None]
    out = {}
    for i, n in enumerate(names):
        sup = float(np.abs(Y[i]).max())
        out[n] = float(np.abs(dY[i] - drift[i, 1:-1]).max() / (1.0 + sup))
    return out


def _defection_offset(
    p: MfgParams, k: float, sol: MeanFieldSolution
) -> tuple[np.ndarray, np.ndarray]:
    """Gain Q and offset q of the defection feedback u0 = (B0/(2 a0)) (Q x0 + q).

    q is solved backward against the equilibrium mean path xbar*.
    """
    grid = sol.grid
    Q = defection_riccati(p, k, grid)
    rt = p.r + k
    c = p.B0**2 / (2.0 * p.a0)

    def q_coefficients(Q, xbar):
        return rt - p.A0 - c * Q, (2.0 * p.l0 - p.C0 * Q) * xbar - 2.0 * p.b0

    return Q, _rk4_linear_backward(q_coefficients, (Q, sol["xbar"]), grid)


def _estimate(samples: np.ndarray) -> McEstimate:
    return McEstimate(
        mean=float(samples.mean()),
        stderr=float(samples.std(ddof=1) / math.sqrt(len(samples))),
    )


def _split_estimate(plus: np.ndarray, minus: np.ndarray, theta: float) -> SplitEstimate:
    """Central difference of per-path (total, certainty-equivalent, variance) payoffs."""
    samples = (plus - minus) / (2.0 * theta)
    total, ce, var = (_estimate(row) for row in samples)
    return SplitEstimate(
        mean=total.mean, stderr=total.stderr,
        certainty_equivalent=ce, variance_channel=var, samples=samples,
    )


def _payoff_march(
    alpha: np.ndarray, beta: np.ndarray, x0: float, grid: TimeGrid, integrand, rate: float,
    split: bool = False,
) -> tuple:
    """The _em_functionals march of a population with drift alpha x + beta and its payoff.

    The running reward `integrand` maps node states to node rewards and is
    quadratic in the state, so about the Euler mean m it is exactly
    Q(m) + Q'(m)(x - m) + Q''(x - m)^2 / 2, and its values at m and m +- 1
    give the three coefficients.  The quadrature is the trapezoid rule
    discounted at `rate`, written as node weights.  The march's functionals
    are the per-path payoffs, one row, or with split three rows: the total
    and its certainty-equivalent and variance-channel parts (see
    SplitEstimate).
    """
    times = grid.times()
    m = euler_mean(alpha, beta, x0, grid.h)
    q0, up, down = integrand(m), integrand(m + 1.0), integrand(m - 1.0)
    dt = np.diff(times)
    w = np.exp(-rate * times) * (np.append(dt, 0.0) + np.append(0.0, dt)) / 2.0
    total = np.stack([q0, 0.5 * (up - down), 0.5 * (up + down) - q0]) * w
    rows = [total]
    if split:  # certainty-equivalent (c0, c1) and variance-channel (c2) parts
        rows += [total * [[1.0], [1.0], [0.0]], total * [[0.0], [0.0], [1.0]]]
    return alpha, beta, x0, m, rows


def _noise(mc: McConfig) -> int | None:
    """_em_functionals' noise for a call that owns it: None without noise, else the seed."""
    return None if mc.zero_noise else mc.seed


def _follower_response(p: MfgParams, u0: np.ndarray, grid: TimeGrid) -> TrajectoryGrid:
    """Mean follower system (m0, xbar, pbar) reacting to an open-loop u0."""
    Ba = p.B**2 / p.a
    m = np.array([
        [p.A0, p.C0, 0.0],
        [p.D, p.A + p.C, -Ba],
        [0.0, 1.0 - p.l, p.r - p.A],
    ])
    offset = np.stack([p.B0 * u0, -(p.B * p.sigma / p.a) * u0, np.full_like(u0, p.b)], axis=1)
    system = AffineSystem(
        matrix=m,
        offset=offset,
        boundary=[(0, "t0", p.x0_init), (1, "t0", p.xbar_init), (2, "t1", 0.0)],
        names=("m0", "xbar", "pbar"),
    )
    return solve_affine_bvp(system, grid)


def _leader_march(
    p: MfgParams, u0: np.ndarray, xbar: np.ndarray, grid: TimeGrid, split: bool = False,
) -> tuple:
    """The leader's payoff march under an open-loop control u0 against the mean field xbar."""
    target = p.l0 * xbar - p.b0

    def integrand(x):
        return -p.a0 * u0**2 + (x - target) ** 2

    alpha = np.full_like(u0, p.A0)
    return _payoff_march(alpha, p.B0 * u0 + p.C0 * xbar, p.x0_init, grid, integrand, p.r, split)


def _defection_march(p: MfgParams, k: float, sol: MeanFieldSolution, grid: TimeGrid) -> tuple:
    """The defection payoff march at rate r + k."""
    Q, q = _defection_offset(p, k, sol)
    c = p.B0 / (2.0 * p.a0)
    target = p.l0 * sol["xbar"] - p.b0

    def integrand(x):
        return -p.a0 * (c * (Q * x + q)) ** 2 + (x - target) ** 2

    alpha = p.A0 + p.B0 * c * Q
    beta = p.B0 * c * q + p.C0 * sol["xbar"]
    return _payoff_march(alpha, beta, p.x0_init, grid, integrand, p.r + k)


def _mc_grid(p: MfgParams, mc: McConfig, sol: MeanFieldSolution | None = None) -> TimeGrid:
    """The Monte Carlo grid on [0, T]; a given solution must have been solved on it."""
    grid = TimeGrid(0.0, p.T, mc.n_steps)
    if sol is not None and sol.grid != grid:
        raise ParameterError(f"solution grid {sol.grid} does not match the MC grid {grid}")
    return grid


def mc_payoffs(
    p: MfgParams,
    k: float,
    mc: McConfig,
    sol: MeanFieldSolution | None = None,
) -> tuple[McEstimate, McEstimate]:
    """Monte Carlo (equilibrium payoff at rate r, defection payoff at r + k).

    Both estimates use the same driving normals (common random numbers);
    the defection side runs the affine feedback (Q, q) against the frozen
    equilibrium mean path xbar*.  Both marches run in one _em_functionals
    call on mc.seed's normals, which each process draws for its own paths,
    so a large ensemble forks once.
    """
    grid = _mc_grid(p, mc, sol)
    if sol is None:
        sol = mean_field_bvp(p, grid)
    marches = [_leader_march(p, sol["u0_star"], sol["xbar"], grid),
               _defection_march(p, k, sol, grid)]
    ((j_eq,), _, _), ((j_def,), _, _) = _em_functionals(marches, grid.h, mc.n_paths, _noise(mc))
    return _estimate(j_eq), _estimate(j_def)


def mean_payoffs(p: MfgParams, k: float, sol: MeanFieldSolution) -> tuple[float, float]:
    """Deterministic (noise-free) counterpart of mc_payoffs on the grid of sol.

    Uses the same Euler time stepping and trapezoid quadrature as the
    simulator, so a zero-noise Monte Carlo run reproduces these numbers to
    rounding.
    """
    det = McConfig(n_paths=2, n_steps=sol.grid.n_steps, zero_noise=True)
    j_eq, j_def = mc_payoffs(p, k, det, sol=sol)
    return j_eq.mean, j_def.mean


def _follower_drift(p: MfgParams, sol: MeanFieldSolution) -> tuple[np.ndarray, np.ndarray]:
    """Node coefficients (alpha, beta) of a follower's drift under the feedback rule.

    The rule u = -(B/a)(F x + fbar) - (sigma/a) u0 turns
    A x + B u + C xbar + D x0 into alpha x + beta.
    """
    alpha = p.A - p.B * (p.B / p.a) * sol["F"]
    beta = (-p.B * ((p.B / p.a) * sol["fbar"] + (p.sigma / p.a) * sol["u0_star"])
            + p.C * sol["xbar"] + p.D * sol["x0"])
    return alpha, beta


def follower_feedback_check(p: MfgParams, sol: MeanFieldSolution, mc: McConfig) -> dict[str, float]:
    """Simulates followers under the feedback rule and checks the adjoint mean.

    Along each path p_i = F x_i + fbar is reconstructed; its ensemble mean
    must match the Euler-discretized deterministic mean of the same dynamics
    (exactly, up to Monte Carlo error, because the feedback drift is affine).
    The residual is averaged over time per path.
    """
    grid = _mc_grid(p, mc, sol)
    F, fbar = sol["F"], sol["fbar"]
    alpha, beta = _follower_drift(p, sol)
    m = euler_mean(alpha, beta, p.xbar_init, grid.h)
    zero = np.zeros_like(F)
    # Per-path time average of p_i - (F m + fbar) = F (x_i - m).
    coef = [[zero, F / len(F), zero]]
    (avg,), mean, x_end = _em_functionals(
        [(alpha, beta, p.xbar_init, m, coef)], grid.h, mc.n_paths, _noise(mc)
    )[0]
    mean_resid = float(avg.mean())
    se = float(avg.std(ddof=1) / math.sqrt(mc.n_paths)) if not mc.zero_noise else 0.0
    # Without noise every path is the mean path.
    within = abs(mean_resid) <= 3.0 * se if se > 0 else np.abs(F * (mean - m)).max() < 1e-6
    return {
        "mean_residual": mean_resid,
        "stderr": se,
        "within_3se": bool(within),
        "terminal_adjoint": float(np.abs(F[-1] * x_end + fbar[-1]).max()),
    }


def euler_condition_check(
    p: MfgParams,
    control: np.ndarray,
    perturbation: np.ndarray,
    mc: McConfig,
    theta: float = 1e-4,
) -> McEstimate:
    """Central-difference directional payoff derivative at an open-loop control.

    Evaluates (J(u + theta v) - J(u - theta v)) / (2 theta) path by path with
    common random numbers; the follower mean response is re-solved for each
    of the two perturbed controls, so this is the correct objective for
    first-order optimality checks at u0_star.  The result also carries the
    exact split of that derivative into its certainty-equivalent and
    variance-channel parts (SplitEstimate).  mean_field_bvp's u0_star is
    stationary for the noise-free payoff, so there the certainty-equivalent
    part sits within sampling error of zero (up to an O(h) discretization
    gap), while under Wright-Fisher noise the variance channel leaves a small
    nonzero total.
    """
    require_positive(theta=theta)
    grid = _mc_grid(p, mc)
    control = np.asarray(control, dtype=float)
    perturbation = np.asarray(perturbation, dtype=float)
    if control.shape != (mc.n_steps + 1,) or perturbation.shape != control.shape:
        raise ParameterError("control and perturbation must be sampled on the MC grid nodes")

    def march(u0):
        return _leader_march(p, u0, _follower_response(p, u0, grid)["xbar"], grid, split=True)

    marches = [march(control + theta * perturbation), march(control - theta * perturbation)]
    (plus, _, _), (minus, _, _) = _em_functionals(marches, grid.h, mc.n_paths, _noise(mc))
    return _split_estimate(plus, minus, theta)


def follower_euler_check(
    p: MfgParams,
    sol: MeanFieldSolution,
    perturbation: np.ndarray,
    mc: McConfig,
    theta: float = 1e-4,
) -> McEstimate:
    """Directional payoff derivative for a representative follower.

    The follower plays the equilibrium feedback rule plus theta * perturbation
    (open loop); the mean field xbar and the leader control are unaffected by
    a single follower's deviation.  The result carries the same exact
    certainty-equivalent / variance-channel split as euler_condition_check.

    The feedback rule is the optimum of the noise-free (mean) problem in
    continuous time, so the certainty-equivalent part carries only the O(h)
    gap to the Euler-discretized payoff.  The total also carries a
    variance-channel gap, because the follower's own-state noise level
    responds to the control through the state.
    """
    require_positive(theta=theta)
    grid = _mc_grid(p, mc, sol)
    perturbation = np.asarray(perturbation, dtype=float)
    if perturbation.shape != (grid.n_steps + 1,):
        raise ParameterError("perturbation must be sampled on the grid nodes")
    F, fbar = sol["F"], sol["fbar"]
    u0, xbar = sol["u0_star"], sol["xbar"]
    alpha, beta = _follower_drift(p, sol)

    def march(shift: float) -> tuple:
        def integrand(x):
            u = -(p.B / p.a) * (F * x + fbar) - (p.sigma / p.a) * u0 + shift * perturbation
            track = x - (p.l * xbar - p.b)
            return -p.a * u**2 + track**2 - 2.0 * p.sigma * u0 * u

        return _payoff_march(alpha, beta + p.B * shift * perturbation, p.xbar_init, grid,
                             integrand, p.r, split=True)

    (plus, _, _), (minus, _, _) = _em_functionals(
        [march(theta), march(-theta)], grid.h, mc.n_paths, _noise(mc))
    return _split_estimate(plus, minus, theta)


_GROWTH_MARGIN = 1e-6


def growth_order_check(
    times: np.ndarray, x_mean: np.ndarray, r_tilde: float
) -> tuple[bool, float]:
    """True when the tail log-growth rate of a trajectory is below r_tilde / 2.

    Fits the least-squares slope of log(1 + |x|) over the final half of the
    time window; bounded knowledge stocks fit a rate near zero and pass for
    every positive r_tilde.
    """
    times = np.asarray(times, dtype=float)
    x_mean = np.asarray(x_mean, dtype=float)
    if times.shape != x_mean.shape or len(times) < 4:
        raise ParameterError("need matching time/value arrays with at least 4 samples")
    half = len(times) // 2
    t, y = times[half:], np.log1p(np.abs(x_mean[half:]))
    slope = float(np.polyfit(t, y, 1)[0])
    return slope < r_tilde / 2.0 - _GROWTH_MARGIN, slope


@dataclass(frozen=True)
class _Bisection:
    """min_k_meanfield's search as a pure transition on states (phase, lo, hi).

    request(state) is the rate the search marches next, None once it has
    ended, and step(state, verdict) takes that rate's verdict.  "zero" tests
    k = 0.  "double" tests max(tol, 1), then twice that, until a rate deters,
    and ends as "none" when the next one would pass k_max.  "halve" bisects
    [lo, hi], where lo fails and hi deters, down to width tol or until its
    midpoint rounds onto an end, and ends as "done" with k_min = hi.
    """

    tol: float
    k_max: float
    start = ("zero", 0.0, 0.0)

    def request(self, state) -> float | None:
        phase, lo, hi = state
        if phase == "zero":
            return 0.0
        if phase == "double":
            return hi
        return 0.5 * (lo + hi) if phase == "halve" else None

    def step(self, state, verdict: bool):
        phase, lo, hi = state
        first = max(self.tol, 1.0)
        if phase == "zero":
            return ("done", 0.0, 0.0) if verdict else ("double", 0.0, first)
        if phase == "double":
            if verdict:
                return self._halve(0.0 if hi == first else hi / 2.0, hi)
            return ("double" if 2.0 * hi <= self.k_max else "none", 0.0, 2.0 * hi)
        mid = 0.5 * (lo + hi)
        return self._halve(lo, mid) if verdict else self._halve(mid, hi)

    def _halve(self, lo: float, hi: float):
        split = hi - lo > self.tol and lo < 0.5 * (lo + hi) < hi
        return ("halve" if split else "done", lo, hi)


def min_k_meanfield(
    p: MfgParams,
    mc: McConfig,
    tol: float = 0.01,
    k_max: float = 1000.0,
    sol: MeanFieldSolution | None = None,
) -> PenaltySearchResult:
    """Smallest penalty rate making defection statistically unprofitable.

    Bisection (_Bisection) on the confidence-separated criterion
    J_def(k) + 3 SE < J_eq - 3 SE, with common random numbers across all k so
    the comparison is smooth in k.  A candidate k also has to pass the
    growth-order hypothesis at rate r + k (the defection state must grow
    slower than e^{(r+k)t/2}), so the certified rate satisfies both the
    payoff separation and the theorem's own precondition.  The verdict on k
    is "both margins > 0": details["margins"] maps each k to the payoff
    margin (J_eq - 3 SE) - (J_def + 3 SE) and the growth margin
    (r + k)/2 - 1e-6 - slope.  The bisection trace is checked for
    monotone-decreasing defection payoffs (up to 6 SE slack, two estimates).
    Each distinct k is marched once; details["trace"] keeps one
    (k, mean, stderr) row per evaluated k plus one more each for k = 0 and
    k_min (three k = 0 rows when k_min = 0), and details["satisfied"] maps
    each k to the search's verdict on it.  A certified rate above k_max
    raises NoDeterrentError.  A given sol must have been solved on the Monte
    Carlo grid.

    Every requested rate is marched in turn, in one _march_held session on
    mc.seed's normals: from 2^20 normals on two CPUs, one forked child
    draws and holds half of the paths for the whole search and marches each
    rate on them while this process marches the other half.  The first
    request, k = 0, also marches the equilibrium payoff.
    """
    require_positive(tol=tol, k_max=k_max)
    if mc.n_steps < 3:
        raise ParameterError(
            f"mc.n_steps must be >= 3 for the growth-rate fit (4 nodes), got {mc.n_steps}")
    grid = _mc_grid(p, mc, sol)
    times = grid.times()
    if sol is None:
        sol = mean_field_bvp(p, grid)
    search = _Bisection(tol, k_max)
    evaluated: dict[float, tuple[McEstimate, float]] = {}  # k -> (J_def, growth slope)
    margins: dict[float, tuple[float, float]] = {}
    verdict: dict[float, bool] = {}

    def marches(k: float) -> list[tuple]:
        """k's defection march, after the equilibrium march on the first request, k = 0."""
        leader = [_leader_march(p, sol["u0_star"], sol["xbar"], grid)] if k == 0.0 else []
        return leader + [_defection_march(p, k, sol, grid)]

    def bisect(march) -> tuple:
        """Runs the search on march's results; returns its last state and J_eq."""
        state = search.start
        while (k := search.request(state)) is not None:
            *leader, ((samples,), mean, _) = march(k)
            if leader:
                j_eq = _estimate(leader[0][0][0])
            jd = _estimate(samples)
            _, slope = growth_order_check(times, mean, p.r + k)
            margins[k] = ((j_eq.mean - 3.0 * j_eq.stderr) - (jd.mean + 3.0 * jd.stderr),
                          (p.r + k) / 2.0 - _GROWTH_MARGIN - slope)
            evaluated[k] = jd, slope
            verdict[k] = margins[k][0] > 0.0 and margins[k][1] > 0.0
            state = search.step(state, verdict[k])
        return state, j_eq

    state, j_eq = _march_held(mc.n_paths, mc.n_steps, grid.h, _noise(mc), [1, 1], marches, bisect)
    phase, _, k_min = state
    if phase == "none":
        raise NoDeterrentError(f"defection stays profitable up to k = {k_max:g}")
    if k_min > k_max:
        raise NoDeterrentError(f"the certified rate k = {k_min:g} exceeds k_max = {k_max:g}")
    rows = [(k, jd.mean, jd.stderr) for k, (jd, _) in evaluated.items()]
    j_def0, _ = evaluated[0.0]
    j_def_final, growth_rate = evaluated[k_min]
    ordered = sorted(rows + [rows[0], (k_min, j_def_final.mean, j_def_final.stderr)])
    warnings = []
    for (k1, v1, s1), (k2, v2, s2) in zip(ordered, ordered[1:]):
        if k2 > k1 and v2 > v1 + 3.0 * (s1 + s2):
            warnings.append(
                f"defection payoff rose from {v1:.6g} (k={k1:.4g}) to {v2:.6g} (k={k2:.4g})"
            )
    return PenaltySearchResult(
        k_min=k_min,
        j_star=j_eq.mean,
        j_tilde_at_k=j_def_final.mean,
        deterred=verdict[k_min],
        details={
            "j_star_stderr": j_eq.stderr,
            "j_tilde_stderr": j_def_final.stderr,
            "j_tilde_at_zero": j_def0.mean,
            "growth_rate": growth_rate,
            "growth_bound": (p.r + k_min) / 2.0,
            "trace": ordered,
            "satisfied": verdict,
            "margins": margins,
            "warnings": warnings,
        },
    )
