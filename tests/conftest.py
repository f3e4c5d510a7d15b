import os
from types import SimpleNamespace

import numpy as np
import pytest

from stackgame import numerics

from stackgame.discrete import DuopolyParams
from stackgame.dynamic import DynamicParams
from stackgame.meanfield import McConfig, MfgParams
from stackgame.numerics import rk4_solve_general


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

