"""Deterministic and stochastic numerical kernels shared by the three game models.

Everything here is pure: the same inputs always produce the same outputs,
including the Monte Carlo routines (per-path seeding, fixed-order reduction),
so results never depend on scheduling or worker count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BracketError,
    ConfigurationError,
    IllPosedBVPError,
    IntegrationBlowupError,
    ParameterError,
    SimulationBlowupError,
    SpectralError,
)

__all__ = [
    "TimeGrid",
    "AffineSystem",
    "TrajectoryGrid",
    "PathEnsemble",
    "rk4_solve",
    "rk4_solve_general",
    "solve_affine_bvp",
    "quad_simpson",
    "find_root_bisect",
    "find_threshold_bisect",
    "eig_2x2",
    "em_paths",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with n_steps intervals (n_steps + 1 nodes)."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ParameterError(f"TimeGrid requires t1 > t0, got [{self.t0}, {self.t1}]")
        if self.n_steps < 2:
            raise ParameterError(f"TimeGrid requires n_steps >= 2, got {self.n_steps}")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_steps + 1)


@dataclass(frozen=True)
class AffineSystem:
    """Linear-affine ODE system y' = M(t) y + v(t) with d boundary constraints.

    Each boundary constraint is a triple (variable index, endpoint, value)
    where endpoint is "t0" or "t1".  Exactly d constraints are required and
    each index must be a distinct variable < d.
    """

    dimension: int
    matrix: Callable[[float], np.ndarray]
    offset: Callable[[float], np.ndarray]
    boundary: Sequence[tuple[int, str, float]]
    names: Sequence[str] | None = None

    def __post_init__(self):
        if len(self.boundary) != self.dimension:
            raise ParameterError(
                f"need exactly {self.dimension} boundary constraints, got {len(self.boundary)}"
            )
        for idx, endpoint, _ in self.boundary:
            if not 0 <= idx < self.dimension:
                raise ParameterError(f"boundary index {idx} out of range for d={self.dimension}")
            if endpoint not in ("t0", "t1"):
                raise ParameterError(f"boundary endpoint must be 't0' or 't1', got {endpoint!r}")
        if self.names is not None and len(self.names) != self.dimension:
            raise ParameterError("names must have one entry per variable")

    def channel_names(self) -> list[str]:
        if self.names is not None:
            return list(self.names)
        return [f"x{i}" for i in range(self.dimension)]


@dataclass
class TrajectoryGrid:
    """Time-gridded samples of named channels (states, adjoints, controls...)."""

    grid: TimeGrid
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.channels

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

    def stack(self, names: Sequence[str]) -> np.ndarray:
        return np.stack([self.channels[n] for n in names], axis=0)


@dataclass
class PathEnsemble:
    """Euler-Maruyama path ensemble: paths[i, j] = value of path i at node j."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

    def mean_path(self) -> np.ndarray:
        return self.paths.mean(axis=0)


def _rk4_march(f, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Classical RK4 over the given (uniform or not) node sequence."""
    out = np.empty((len(times),) + np.shape(y0), dtype=float)
    out[0] = y0
    y = np.array(y0, dtype=float)
    for j in range(len(times) - 1):
        t, h = times[j], times[j + 1] - times[j]
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationBlowupError(step=j + 1, t=float(times[j + 1]))
        out[j + 1] = y
    return out


def rk4_solve_general(f, y0, grid: TimeGrid, backward: bool = False) -> np.ndarray:
    """RK4 for a general ODE y' = f(t, y).

    With backward=True the terminal value y0 is imposed at t1 and the march
    runs from t1 down to t0; the returned array is still ordered t0..t1.
    """
    times = grid.times()
    if backward:
        vals = _rk4_march(f, np.atleast_1d(np.asarray(y0, dtype=float)), times[::-1])
        return vals[::-1]
    return _rk4_march(f, np.atleast_1d(np.asarray(y0, dtype=float)), times)


def rk4_solve(system: AffineSystem, grid: TimeGrid) -> TrajectoryGrid:
    """Integrate an affine system with full initial data by classical RK4."""
    for _, endpoint, _ in system.boundary:
        if endpoint != "t0":
            raise ParameterError("rk4_solve requires all boundary constraints at t0")
    y0 = np.zeros(system.dimension)
    seen = set()
    for idx, _, value in system.boundary:
        if idx in seen:
            raise ParameterError(f"duplicate initial constraint for variable {idx}")
        seen.add(idx)
        y0[idx] = value

    def f(t, y):
        return system.matrix(t) @ y + system.offset(t)

    vals = _rk4_march(f, y0, grid.times())
    names = system.channel_names()
    return TrajectoryGrid(grid, {n: vals[:, i].copy() for i, n in enumerate(names)})


def solve_affine_bvp(system: AffineSystem, grid: TimeGrid) -> TrajectoryGrid:
    """Two-point solve of an affine system by fundamental-matrix superposition.

    Integrates one particular solution (zero initial data) plus d homogeneous
    basis solutions in a single matrix RK4 sweep, then solves the d x d linear
    system the boundary constraints impose on the superposition coefficients.
    """
    d = system.dimension
    times = grid.times()

    # Columns: 0 = particular (with offset), 1..d = homogeneous basis e_i.
    Y0 = np.zeros((d, d + 1))
    Y0[:, 1:] = np.eye(d)

    def f(t, Y):
        out = system.matrix(t) @ Y
        out[:, 0] += system.offset(t)
        return out

    vals = _rk4_march(f, Y0, times)  # (n+1, d, d+1)

    B = np.empty((d, d))
    rhs = np.empty(d)
    for row, (idx, endpoint, value) in enumerate(system.boundary):
        node = 0 if endpoint == "t0" else -1
        B[row] = vals[node, idx, 1:]
        rhs[row] = value - vals[node, idx, 0]
    cond = np.linalg.cond(B)
    if not np.isfinite(cond) or cond > 1e12:
        raise IllPosedBVPError(cond=float(cond))
    c = np.linalg.solve(B, rhs)

    traj = vals[:, :, 0] + vals[:, :, 1:] @ c  # (n+1, d)
    names = system.channel_names()
    return TrajectoryGrid(grid, {n: traj[:, i].copy() for i, n in enumerate(names)})


def quad_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples (even interval count)."""
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    if n < 2 or n % 2 != 0:
        raise ConfigurationError(f"Simpson rule needs an even number of intervals, got {n}")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, values))


def find_root_bisect(f, lo: float, hi: float, tol: float, max_iter: int = 200) -> float:
    """Bisection root of a scalar function with a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_threshold_bisect(pred, lo: float, hi: float, tol: float) -> float:
    """Smallest point in [lo, hi] where a monotone predicate becomes true.

    The predicate must be false at lo and true at hi (or vice versa for a
    decreasing predicate, in which case the smallest satisfying point is lo's
    side of the flip).
    """
    plo, phi = bool(pred(lo)), bool(pred(hi))
    if plo == phi:
        raise BracketError(f"predicate does not change truth value on [{lo}, {hi}]")
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if bool(pred(mid)) == plo:
            lo = mid
        else:
            hi = mid
    # hi is on the "changed" side; if the predicate is increasing that is the
    # smallest satisfying point within tol.
    return hi if phi else lo


def eig_2x2(m: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Real eigen-decomposition of a 2x2 matrix with distinct real eigenvalues.

    Returns (s1, s2, V) with s1 < s2 and V[:, i] the unit eigenvector of s_i.
    Raises SpectralError when the discriminant is non-positive.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ParameterError(f"expected a 2x2 matrix, got shape {m.shape}")
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    scale = max(1.0, float(np.abs(m).max()))
    if disc <= 1e-14 * scale * scale:
        raise SpectralError(f"complex or repeated eigenvalues (discriminant {disc:.3e})")
    root = np.sqrt(disc)
    s1, s2 = (tr - root) / 2.0, (tr + root) / 2.0
    vecs = np.empty((2, 2))
    for i, s in enumerate((s1, s2)):
        a = m - s * np.eye(2)
        # Null vector of a singular 2x2: pick the larger row for stability.
        r = a[0] if np.abs(a[0]).max() >= np.abs(a[1]).max() else a[1]
        v = np.array([-r[1], r[0]])
        nv = np.linalg.norm(v)
        if nv == 0.0:  # pragma: no cover - excluded by the discriminant check
            raise SpectralError("degenerate eigenvector")
        vecs[:, i] = v / nv
    return float(s1), float(s2), vecs


_NORMALS_BLOCK = 256


def path_normals(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Deterministic (n_paths, n_steps) standard-normal matrix, stored step-major.

    Row i is drawn from its own child stream of SeedSequence(seed), so the
    matrix is identical no matter how paths are later chunked across workers.
    The children's seed words are hashed in one vectorised pass
    (_seeding.child_seed_words) and each row is drawn by numpy's own PCG64 and
    normal sampler, so the values are those of
    default_rng(SeedSequence(seed).spawn(n_paths)[i]).
    The values live in an (n_steps, n_paths) buffer and the matrix is its
    transpose, so column j, which a path march reads at step j, is
    contiguous.  Rows are drawn into a small path-major block and copied
    over block by block.
    """
    # Imported here: _seeding loads numpy.random, which importing stackgame need not.
    from ._seeding import SeedWords, child_seed_words

    seed = operator.index(seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    seed_words = child_seed_words(seed, n_paths)
    out = np.empty((n_steps, n_paths))
    block = np.empty((min(n_paths, _NORMALS_BLOCK), n_steps))
    for start in range(0, n_paths, len(block)):
        rows = block[: min(len(block), n_paths - start)]
        for row, words in zip(rows, seed_words[start : start + len(rows)]):
            bits = np.random.PCG64(SeedWords(words))
            np.random.Generator(bits).standard_normal(out=row)
        out[:, start : start + len(rows)] = rows.T
    return out.T


def em_paths(
    drift,
    diffusion,
    x0: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    normals: np.ndarray | None = None,
) -> PathEnsemble:
    """Euler-Maruyama ensemble for dx = drift(t, x) dt + diffusion(t, x) dW.

    drift and diffusion must accept a scalar t and a vector of path values.
    Pass a precomputed `normals` matrix (from path_normals) to share noise
    across evaluations (common random numbers).
    """
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    if normals is None:
        normals = path_normals(seed, n_paths, grid.n_steps)
    elif normals.shape != (n_paths, grid.n_steps):
        raise ParameterError(
            f"normals shape {normals.shape} != {(n_paths, grid.n_steps)}"
        )
    times = grid.times()
    h = grid.h
    sqrt_h = np.sqrt(h)
    paths = np.empty((n_paths, grid.n_steps + 1))
    paths[:, 0] = x0
    x = np.full(n_paths, float(x0))
    for j in range(grid.n_steps):
        t = times[j]
        x = x + drift(t, x) * h + diffusion(t, x) * sqrt_h * normals[:, j]
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise SimulationBlowupError(path_index=bad, step=j + 1)
        paths[:, j + 1] = x
    return PathEnsemble(grid=grid, paths=paths, seed=seed)


def wright_fisher_sigma(x: np.ndarray) -> np.ndarray:
    """Clamped knowledge-stock noise coefficient sqrt(max(0, x(1-x))).

    Inside [0, 1] it is the plain Wright-Fisher coefficient.  Nothing keeps
    an Euler-Maruyama state inside [0, 1], and outside it the clamp sets the
    noise to zero (it keeps the square root real), so a path that leaves
    moves without noise until it returns.  Leaving is the common case, not
    a rare excursion: on the README's mean-field parameters (10^4 paths,
    1000 steps, seed 42) 90% of the leader's equilibrium paths and 85% of
    the followers' feedback paths leave [0, 1], and the leader's mean path
    peaks at 1.31.
    """
    return np.sqrt(np.maximum(0.0, x * (1.0 - x)))


def euler_mean(alpha: np.ndarray, beta: np.ndarray, x0: float, h: float) -> np.ndarray:
    """Noise-free Euler recursion m_{j+1} = m_j + (alpha_j m_j + beta_j) h.

    It is the exact ensemble mean of an Euler-Maruyama march with the affine
    drift alpha x + beta, because the noise increments have mean zero and are
    independent of the current state.  The arithmetic is _em_functionals',
    so a zero-noise path of that march equals it bit for bit.
    """
    m = np.empty(len(alpha))
    x = m[0] = float(x0)
    for j, (a, b) in enumerate(zip(alpha[:-1].tolist(), beta[:-1].tolist()), start=1):
        x = m[j] = x + (a * x + b) * h
    return m


def _em_functionals(
    alpha: np.ndarray,
    beta: np.ndarray,
    x0: float,
    h: float,
    n_paths: int,
    normals: np.ndarray | None,
    center: np.ndarray,
    coef,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Streamed Euler-Maruyama march that keeps per-path quadratic functionals.

    Every path starts at x0 and steps dx = (alpha_j x + beta_j) h +
    wright_fisher_sigma(x) sqrt(h) Z_j, where Z = normals (n_paths, n_steps)
    reads fastest as path_normals' step-major matrix; normals=None switches
    the noise off.  alpha, beta and center are node arrays (n_steps + 1 nodes).
    For each coef[k] = (c0, c1, c2), node arrays that already include any
    quadrature weights, it adds up per path
        F_k = sum_j c0_kj + c1_kj d_j + c2_kj d_j^2,   d_j = x_j - center_j,
    over all nodes while it marches, so memory is O(n_paths): no path array
    is stored.  Per-path outputs depend only on that path's normals.

    Returns F (K, n_paths), the per-node ensemble mean and the final state.
    Raises SimulationBlowupError at the first step that leaves a path
    non-finite, naming the first such path.
    """
    n_steps = len(alpha) - 1
    if normals is not None and normals.shape != (n_paths, n_steps):
        raise ParameterError(f"normals shape {normals.shape} != {(n_paths, n_steps)}")
    coef = np.asarray(coef, dtype=float)
    out = np.repeat(coef[:, 0].sum(axis=1)[:, None], n_paths, axis=1)
    linear = [(acc, c1) for acc, c1 in zip(out, coef[:, 1]) if c1.any()]
    quadratic = [(acc, c2) for acc, c2 in zip(out, coef[:, 2]) if c2.any()]
    sqrt_h = np.sqrt(h)
    sums = np.empty(n_steps + 1)
    x = np.full(n_paths, float(x0))

    def add_node(j: int) -> None:
        d = x - center[j]
        for acc, c1 in linear:
            acc += c1[j] * d
        if quadratic:
            d2 = d * d
            for acc, c2 in quadratic:
                acc += c2[j] * d2

    sums[0] = x.sum()
    add_node(0)
    for j in range(n_steps):
        step = x + (alpha[j] * x + beta[j]) * h
        if normals is not None:
            step += wright_fisher_sigma(x) * sqrt_h * normals[:, j]
        x = step
        total = sums[j + 1] = x.sum()
        if not np.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                raise SimulationBlowupError(path_index=int(bad[0]), step=j + 1)
        add_node(j + 1)
    return out, sums / n_paths, x
