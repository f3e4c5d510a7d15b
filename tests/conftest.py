import contextlib
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from stackgame import numerics

from stackgame.discrete import DuopolyParams, OneShotOutcome, one_shot_equilibrium
from stackgame.dynamic import DynamicParams
from stackgame.meanfield import McConfig, MfgParams
from stackgame.numerics import TimeGrid, quad_simpson, rk4_solve_general


def wright_fisher_sigma(x: np.ndarray) -> np.ndarray:
    """Clamped knowledge-stock noise coefficient sqrt(max(0, x(1-x))), as _stepper steps it."""
    return np.sqrt(np.maximum(0.0, x * (1.0 - x)))


@contextlib.contextmanager
def drawn_from(normals: np.ndarray):
    """While active, a seed's draws (numerics._draw_rows) are slices of the given normals.

    normals is a step-major (n_paths, n_steps) matrix such as path_normals
    returns; the marches take a seed only, so a test that feeds them a
    matrix passes any seed inside this.
    """
    draw = numerics._draw_rows

    def rows(states, lo, hi, n_steps):
        assert normals.shape == (len(states), n_steps)
        return normals[lo:hi]

    numerics._draw_rows = rows
    try:
        yield
    finally:
        numerics._draw_rows = draw


def per_call_defection_payoff(p, k: float, t0: float, grid) -> float:
    """Oracle for dynamic.defection_payoffs: one fresh quadrature per rate.

    Each call builds both Simpson sub-grids and the whole integrand,
    e^{-rt} (X^2 - lam^2) / (8 b) on [0, t0] and
    e^{-rt} rho (3X - lam)^2 / (64 b) on (t0, T] with rho = 1 at t <= t0.
    """

    def piece(ta: float, tb: float, integrand) -> float:
        if tb <= ta:
            return 0.0
        sub = TimeGrid(ta, tb, max(2, 2 * math.ceil(grid.n_steps * (tb - ta) / (p.T * 2))))
        t = sub.times()
        x1, lam = p.saddle.states(t)
        return quad_simpson(integrand(p.margin(x1), lam, t), sub.h)

    def equilibrium(X, lam, t):
        return np.exp(-p.r * t) * (X * X - lam * lam) / (8.0 * p.b)

    def defection(X, lam, t):
        rho = np.where(t > t0, np.exp(-k * (t - t0)), 1.0)
        return np.exp(-p.r * t) * rho * (3.0 * X - lam) ** 2 / (64.0 * p.b)

    return piece(0.0, t0, equilibrium) + piece(t0, p.T, defection)


def affine_recurrence_loop(a, b, y0: float) -> np.ndarray:
    """Oracle for numerics._affine_recurrence: the indexed loop, y_{j+1} = a_j y_j + b_j."""
    y = np.empty(len(a) + 1)
    x = y[0] = float(y0)
    for j, (aj, bj) in enumerate(zip(map(float, a), map(float, b)), start=1):
        x = y[j] = aj * x + bj
    return y


def expression_oracle(p, grid_resolution: int, mode: str):
    """Oracle for discrete.brute_force_oracle: the grid search written as whole-array expressions."""
    u0 = np.linspace(0.0, (p.a - p.c0) / p.b, grid_resolution)
    if mode == "equilibrium":
        u1 = np.maximum(0.0, (p.a - p.b * u0 - p.c1) / (2.0 * p.b))
    else:
        u1 = np.full_like(u0, one_shot_equilibrium(p).u1)
    J0 = u0 * (p.a - p.b * (u0 + u1) - p.c0)
    i = int(np.argmax(J0))
    J1 = u1[i] * (p.a - p.b * (u0[i] + u1[i]) - p.c1)
    return OneShotOutcome(u0=float(u0[i]), u1=float(u1[i]), J0=float(J0[i]), J1=float(J1))


@pytest.fixture
def duopoly():
    """Benchmark repeated duopoly: margin 10, equilibrium (u0, J0) = (5, 12.5)."""
    return DuopolyParams(a=10.0, b=1.0, c0=1.0, c1=2.0)


@pytest.fixture
def dyn():
    """Benchmark learning-by-doing duopoly on the horizon T = 10."""
    return DynamicParams(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05, T=10.0)


MFG_BENCH = dict(
    A0=0.0, B0=1.0, C0=0.1, A=0.0, B=1.0, C=0.1, D=0.1,
    a0=1.0, a=1.0, l0=0.2, l=0.2, b0=0.5, b=0.5,
    sigma=0.1, r=0.05, T=1.0, x0_init=0.5, xbar_init=0.5,
)


@pytest.fixture
def processes(monkeypatch):
    """Every ensemble above numpy's pairwise-sum block forks on two CPUs.

    The kernels see two CPUs until cpus(n) sets another count; forks lists
    the pid of each child made.  After the test no child may be left.
    """
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    monkeypatch.setattr(numerics, "_FORK_MIN_DRAWS", 1)
    monkeypatch.setattr(numerics, "_FORK_MIN_PATHS", 1)
    monkeypatch.setattr(os, "fork", counting_fork)
    cpus(2)
    yield SimpleNamespace(forks=forks, cpus=cpus, real_fork=real_fork)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def mfg():
    """Benchmark major/minor mean-field game on the horizon T = 1."""
    return MfgParams(**MFG_BENCH)


@pytest.fixture
def mfg_kwargs():
    return dict(MFG_BENCH)


@pytest.fixture
def mc_small():
    """Cheap Monte Carlo settings for unit tests (seconds, not minutes)."""
    return McConfig(n_paths=2000, n_steps=400, seed=42)


def _closure_bvp(matrix, offset, boundary, grid):
    """Superposition two-point solve over RK4 stage callbacks.

    offset(t) is a callable evaluated at every RK4 stage, so this is the
    stage-by-stage arithmetic that the solvers' step map must reproduce.
    Returns the (n_steps + 1, d) node values.
    """
    d = len(matrix)
    Y0 = np.zeros((d, d + 1))
    Y0[:, 1:] = np.eye(d)

    def f(t, Y):
        out = matrix @ Y
        out[:, 0] += offset(t)
        return out

    vals = rk4_solve_general(f, Y0, grid)
    node = [0 if endpoint == "t0" else -1 for _, endpoint, _ in boundary]
    B = np.array([vals[j, idx, 1:] for j, (idx, _, _) in zip(node, boundary)])
    rhs = np.array([value - vals[j, idx, 0] for j, (idx, _, value) in zip(node, boundary)])
    return vals[:, :, 0] + vals[:, :, 1:] @ np.linalg.solve(B, rhs)


@pytest.fixture
def closure_bvp():
    return _closure_bvp

