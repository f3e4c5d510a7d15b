"""Deterministic and stochastic numerical kernels shared by the three game models.

Everything here is pure: the same inputs always produce the same outputs,
including the Monte Carlo routines (per-path seeding, fixed-order reduction),
so results never depend on scheduling or on the number of processes.

Two processes go through one call, _in_two: it runs work in a forked child
and in this process on buffers in a shared anonymous mmap, gives each side
a line (_Line) that carries floats to the other over a pipe, and reaps the
child before it returns.  The line is the only way the child reports, and
where no child can be made _in_two runs this process's side alone.
_march_held splits a large ensemble there at numpy's own pairwise-sum
split, so the halves' per-step sums add up to the one-process sum bit for
bit: each process draws and keeps the normals of its own half, and every
march request goes to the child as a float, so a threshold search forks
once.  cli._write_table has the child format half of a large table's rows
and write them into the file at the offset this process sends.  A failed
mmap, pipe or fork, or a child that does not answer, leaves the work to
this process, so every value, byte and error is the one-process one.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BracketError,
    ConfigurationError,
    IllPosedBVPError,
    IntegrationBlowupError,
    ParameterError,
    SimulationBlowupError,
    SpectralError,
    require_finite,
    require_int,
)

__all__ = [
    "TimeGrid",
    "AffineSystem",
    "TrajectoryGrid",
    "PathEnsemble",
    "rk4_solve_general",
    "solve_affine_bvp",
    "quad_simpson",
    "find_root_bisect",
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
        require_finite(self, ["t0", "t1"])
        if not self.t1 > self.t0:
            raise ParameterError(f"TimeGrid requires t1 > t0, got [{self.t0}, {self.t1}]")
        require_int(self, "n_steps", 2)

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_steps + 1)


@dataclass(frozen=True)
class AffineSystem:
    """Linear-affine ODE system y' = M y + v(t) with d boundary constraints.

    The matrix M is a constant square (d, d) array, which sets d.  The offset
    v is a constant (d,) array or an (n_steps + 1, d) array of its values on
    the grid nodes, taken as linear between nodes.  Each boundary constraint
    is a triple (variable index, endpoint, value) where endpoint is "t0" or
    "t1" and the index is < d.  Exactly d constraints are required.  An index
    may appear twice, once per endpoint (x fixed at both ends, some other
    variable free at both).  The constraints must pin down the solution:
    solve_affine_bvp raises IllPosedBVPError when they do not, for example
    when an (index, endpoint) pair repeats.
    """

    matrix: np.ndarray
    offset: np.ndarray
    boundary: Sequence[tuple[int, str, float]]
    names: Sequence[str] | None = None

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        offset = np.asarray(self.offset, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParameterError(f"matrix must be square, got shape {matrix.shape}")
        d = len(matrix)
        if len(self.boundary) != d:
            raise ParameterError(f"need exactly {d} boundary constraints, got {len(self.boundary)}")
        for idx, endpoint, _ in self.boundary:
            if not 0 <= idx < d:
                raise ParameterError(f"boundary index {idx} out of range for d={d}")
            if endpoint not in ("t0", "t1"):
                raise ParameterError(f"boundary endpoint must be 't0' or 't1', got {endpoint!r}")
        if self.names is not None and len(self.names) != d:
            raise ParameterError("names must have one entry per variable")
        if offset.ndim not in (1, 2) or offset.shape[-1] != d:
            raise ParameterError(
                f"offset must have shape ({d},) or (n_nodes, {d}), got {offset.shape}"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)


@dataclass
class TrajectoryGrid:
    """Time-gridded samples of named channels (states, adjoints, controls...)."""

    grid: TimeGrid
    channels: dict[str, np.ndarray] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]


@dataclass
class PathEnsemble:
    """Euler-Maruyama path ensemble: paths[i, j] = value of path i at node j."""

    grid: TimeGrid
    paths: np.ndarray


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


def _rk4_step_map(
    matrix: np.ndarray, offset: np.ndarray, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 on y' = M y + v(t) as the affine step map y_{j+1} = P y_j + c_j.

    M and v are an AffineSystem's matrix and offset.  With M constant the
    four stages collapse to one matrix, built once,
        P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,
    and to the offsets, all built in one vectorised pass,
        c_j = (h/6) [(I + hM + (hM)^2/2 + (hM)^3/4) v_j
                     + (4I + 2hM + (hM)^2/2) v_{j+1/2} + v_{j+1}]
    from the offset at node j, at the midpoint and at node j+1.  Node offsets
    are linear between nodes, so the midpoint value is the mean of the two.
    Returns P and c as (n_steps, d); a constant offset gives a broadcast view.
    """
    n, d, h = grid.n_steps, len(matrix), grid.h
    eye = np.eye(d)
    hm = h * matrix
    hm2 = hm @ hm
    hm3 = hm2 @ hm
    step = eye + hm + hm2 / 2.0 + hm3 / 6.0 + hm3 @ hm / 24.0
    at_start = eye + hm + hm2 / 2.0 + hm3 / 4.0
    at_mid = 4.0 * eye + 2.0 * hm + hm2 / 2.0
    if offset.ndim == 1:
        return step, np.broadcast_to((h / 6.0) * ((at_start + at_mid + eye) @ offset), (n, d))
    if len(offset) != n + 1:
        raise ParameterError(f"offset has {len(offset)} nodes, the grid has {n + 1}")
    start, end = offset[:-1], offset[1:]
    c = start @ at_start.T
    c += (0.5 * (start + end)) @ at_mid.T
    c += end
    c *= h / 6.0
    return step, c


def _affine_march(
    matrix: np.ndarray, offset: np.ndarray, grid: TimeGrid, y0: np.ndarray
) -> np.ndarray:
    """RK4 march of Y' = M Y + v(t) e_0^T from Y(t0) = y0, a (d, m) array.

    The offset drives column 0 only, so the other columns are homogeneous
    solutions.  The step map Y_{j+1} = P Y_j + c_j e_0^T has a constant P,
    so with block size s = isqrt(n_steps) node j = b s + r is
        Y_j = P^r Y_{bs} + z_{b,r} e_0^T,
    where z_{b,r} is block b's response to its own offsets from zero.  A
    two-level scan builds P^0..P^s, marches every block's z at once (s
    batched products), chains the block starts Y_{bs} with P^s (n_steps/s
    products) and fills every node with one broadcast product: about
    3 sqrt(n_steps) products instead of n_steps, 425 at 20,000 steps.  The
    values agree with the step-by-step march to rounding; the tests bound
    the difference by 1e-11 of the largest node value.  Returns the
    (n_steps + 1, d, m) node values, a view of a buffer that rounds the
    node count up to whole blocks.
    """
    step, c = _rk4_step_map(matrix, offset, grid)
    n, d = c.shape
    s = math.isqrt(n)
    blocks = n // s + 1  # the last one is ragged: n % s steps, padded to s
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.empty((s + 1, d, d))
        powers[0] = np.eye(d)
        for k in range(s):
            np.matmul(step, powers[k], out=powers[k + 1])
        offsets = np.zeros((blocks * s, d))
        offsets[:n] = c
        offsets = offsets.reshape(blocks, s, d)
        z = np.empty((s + 1, blocks, d))  # z[r, b] = z_{b,r}
        z[0] = 0.0
        for r in range(s):
            np.matmul(z[r], step.T, out=z[r + 1])
            z[r + 1] += offsets[:, r]
        starts = np.empty((blocks,) + y0.shape)
        starts[0] = y0
        for b in range(blocks - 1):
            np.matmul(powers[s], starts[b], out=starts[b + 1])
            starts[b + 1, :, 0] += z[s, b]
        vals = np.empty((blocks * s,) + y0.shape)
        nodes = vals.reshape((blocks, s) + y0.shape)
        np.matmul(powers[:s], starts[:, None], out=nodes)
        nodes[..., 0] += z[:s].transpose(1, 0, 2)
    vals = vals[: n + 1]
    if not np.isfinite(vals).all():
        bad = int(np.argmin(np.isfinite(vals).reshape(len(vals), -1).all(axis=1)))
        raise IntegrationBlowupError(step=bad, t=float(grid.times()[bad]))
    return vals


def solve_affine_bvp(system: AffineSystem, grid: TimeGrid) -> TrajectoryGrid:
    """Two-point solve of an affine system by fundamental-matrix superposition.

    Marches one particular solution (zero initial data) plus d homogeneous
    basis solutions together through the RK4 step map, then solves the d x d
    linear system the boundary constraints impose on the superposition
    coefficients.  The march is _affine_march's block scan.  A boundary
    matrix with condition number above 1e12 raises IllPosedBVPError.
    """
    d = len(system.matrix)
    # Columns: 0 = particular (with offset), 1..d = homogeneous basis e_i.
    Y0 = np.zeros((d, d + 1))
    Y0[:, 1:] = np.eye(d)
    vals = _affine_march(system.matrix, system.offset, grid, Y0)  # (n+1, d, d+1)

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
    names = [f"x{i}" for i in range(d)] if system.names is None else system.names
    return TrajectoryGrid(grid, {n: traj[:, i].copy() for i, n in enumerate(names)})


def _rk4_linear_backward(
    coefficients, channels: Sequence[np.ndarray], grid: TimeGrid
) -> np.ndarray:
    """Classical RK4 for the scalar y' = a(t) y + b(t), y(t1) = 0, marched to t0.

    a and b depend on t through node channels: coefficients(*values) maps
    the channels' values to (a, b).  The stages read them at the nodes and,
    by np.interp, at the march's own midpoint times, so every step is the
    affine map y_j = A_j y_{j+1} + B_j.  All A_j and B_j come from one
    vectorised pass and the march is _affine_recurrence.  Returns y on the
    nodes, ordered t0..t1; a march that leaves the float range raises
    IntegrationBlowupError at its first non-finite node.
    """
    times = grid.times()
    back = times[::-1]
    h = np.diff(back)
    half = 0.5 * h
    a, b = coefficients(*(ch[::-1] for ch in channels))
    a_mid, b_mid = coefficients(*(np.interp(back[:-1] + half, times, ch) for ch in channels))
    # Stage slopes k_i = ka_i y + kb_i of one step.
    ka1, kb1 = a[:-1], b[:-1]
    ka2, kb2 = a_mid * (1.0 + half * ka1), a_mid * (half * kb1) + b_mid
    ka3, kb3 = a_mid * (1.0 + half * ka2), a_mid * (half * kb2) + b_mid
    ka4, kb4 = a[1:] * (1.0 + h * ka3), a[1:] * (h * kb3) + b[1:]
    step_a = 1.0 + h / 6.0 * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
    step_b = h / 6.0 * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
    y = _affine_recurrence(step_a.tolist(), step_b.tolist(), 0.0)
    if not np.isfinite(y).all():
        bad = int(np.argmin(np.isfinite(y)))
        raise IntegrationBlowupError(step=bad, t=float(back[bad]))
    return y[::-1]


def _affine_recurrence(a: list[float], b: list[float], y0: float) -> np.ndarray:
    """y_0 = y0, y_{j+1} = a_j y_j + b_j: one product and one sum a step, on lists of Python
    floats, so every caller gets the same bits and an overflow inf, streamed into the array."""
    def steps():
        x = float(y0)
        yield x
        for aj, bj in zip(a, b):
            x = aj * x + bj
            yield x

    return np.fromiter(steps(), float, count=len(a) + 1)


def quad_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples (even interval count)."""
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    if n < 2 or n % 2 != 0:
        raise ConfigurationError(f"Simpson rule needs an even number of intervals, got {n}")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    # numpy's pairwise sum, not np.dot: a threaded BLAS sums in an order that
    # depends on its thread count.
    return float(h / 3.0 * (w * values).sum())


_BISECT_MAX_ITER = 200


def find_root_bisect(f, lo: float, hi: float, tol: float) -> float:
    """Bisection root of a scalar function with a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eig_2x2(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (s1, s2), s1 < s2, of a 2x2 matrix with distinct real eigenvalues.

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
    return float((tr - root) / 2.0), float((tr + root) / 2.0)


_NORMALS_BLOCK = 256
# A fork costs 2-6 ms on a 2-vCPU VM; the README times the work that pays for it.
# A seeded one-row march there, one process against two, won by two in 4 rounds
# of 7 (medians): at 250 steps 1/4 at 2^19 normals, 4/4 at 2^20 (36.5-45.2
# against 29.9-39.2 ms) and 4/4 at 2^21; at 1000 steps 0/4, 2/4 and 4/4.
_FORK_MIN_DRAWS = 1 << 20
_FORK_MIN_PATHS = 20_000
# cli writes a trajectory table of at least this many "%.12g" fields (rows x
# columns) by halves on two CPUs: a child formats the second half of the rows.
_FORK_MIN_FIELDS = 50_000
_PAIRWISE_BLOCK = 128  # numpy sums up to this many elements without splitting


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum splits n > _PAIRWISE_BLOCK elements.

    numpy sums x[:s] and x[s:] separately and adds the two, so
    x.sum() == x[:s].sum() + x[s:].sum() bit for bit.
    """
    half = n // 2
    return half - half % 8


def _can_fork() -> bool:
    """True where this platform can fork and this process may run on two or more CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) >= 2


class _Line:
    """One process's end of _in_two's two pipes: floats to the other process and from it."""

    def __init__(self, inbox: int, outbox: int):
        self.fds = (inbox, outbox)

    def send(self, value: float) -> None:
        """Sends value; if the other process has ended, its next receive says so."""
        with contextlib.suppress(BrokenPipeError):
            os.write(self.fds[1], struct.pack("d", value))

    def receive(self) -> float | None:
        """The next value sent, or None once the other process has closed its end."""
        data = os.read(self.fds[0], 8)  # a pipe write of 8 bytes arrives whole
        return struct.unpack("d", data)[0] if data else None


def _in_two(shapes, here, there):
    """Runs there(buffers, line) in a forked child and returns here(buffers, line) from this one.

    The buffers are new float arrays of the given shapes in one shared
    anonymous mmap; each side's line (_Line) sends floats to the other
    side's, and is the only way the child reports.  This process closes its
    line when here ends, so a child that waits on its line ends too, and
    reaps the child before this returns; if here raised, the child is
    killed first and the error raised again.  If the mmap, a pipe or the
    fork failed, there is no child: this returns here(None, None).
    """
    import mmap  # only a forking call needs it, and importing stackgame need not

    sizes = [math.prod(shape) for shape in shapes]
    fds: list[int] = []
    try:  # mmap(-1, 0) raises EINVAL, so no shapes still map one float
        shared = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(sizes))), dtype=float)
        buffers = [chunk.reshape(shape) for chunk, shape
                   in zip(np.split(shared, np.cumsum(sizes)[:-1]), shapes)]
        for _ in range(2):
            fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return here(None, None)
    # The child reads at fds[0] what this process writes at fds[1], and the other pipe
    # carries the child's floats back.  Each process closes the other one's ends.
    child, parent = _Line(fds[0], fds[3]), _Line(fds[2], fds[1])
    if pid == 0:  # the child never returns into the caller
        try:
            for fd in parent.fds:
                os.close(fd)
            there(buffers, child)
            os._exit(0)
        finally:
            os._exit(1)
    for fd in child.fds:
        os.close(fd)
    try:
        return here(buffers, parent)
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in parent.fds:
            os.close(fd)
        os.waitpid(pid, 0)


def _path_states(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """The checked PCG64 states of seed's n_paths noise rows, each of n_steps normals.

    Row i is drawn from default_rng(SeedSequence(seed).spawn(n_paths)[i]), so
    a row does not depend on how the paths are split between processes.
    """
    # Imported here: only seeded draws use _seeding, so importing stackgame need not load it.
    from ._seeding import spawn_states

    seed = operator.index(seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if n_paths < 1 or n_steps < 1:
        raise ParameterError(f"need n_paths >= 1 and n_steps >= 1, got {n_paths} x {n_steps}")
    return spawn_states(seed, n_paths)


def _draw_rows(states: np.ndarray, lo: int, hi: int, n_steps: int) -> np.ndarray:
    """Rows [lo, hi) of path_normals' matrix, drawn into a new step-major buffer.

    One numpy PCG64 and normal sampler draw every row: each row's state
    (_seeding.state_setter) goes into the generator, which then fills the
    row of a small path-major block that is copied over block by block.
    Column c of the (n_steps, hi - lo) buffer gets row lo + c.  Returns the
    buffer's transpose, whose column j, which a march reads at step j, is
    contiguous.
    """
    from ._seeding import state_setter

    bits = np.random.PCG64(0)  # its seed is overwritten by put
    normal = np.random.Generator(bits).standard_normal
    put = state_setter(bits, states, lo)
    m = hi - lo
    out = np.empty((n_steps, m))
    block = np.empty((min(m, _NORMALS_BLOCK), n_steps))
    for start in range(0, m, len(block)):
        rows = block[: min(len(block), m - start)]
        for i, row in enumerate(rows, lo + start):
            put(i)
            normal(out=row)
        out[:, start : start + len(rows)] = rows.T
    return out.T


def path_normals(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Deterministic (n_paths, n_steps) standard-normal matrix, stored step-major.

    Row i holds the values of default_rng(SeedSequence(seed).spawn(n_paths)[i]),
    so the matrix does not depend on how paths are split: _seeding computes
    every child's PCG64 state at once, and _draw_rows draws all rows with
    one generator, set to each row's state in turn.
    It is the transpose of an (n_steps, n_paths) buffer, so column j, which a
    path march reads at step j, is contiguous.  It is drawn in this process:
    the program's marches draw their own rows (_march_held), and only tests
    and em_paths build the whole matrix.  Raises ParameterError for a
    negative seed or an empty matrix.
    """
    return _draw_rows(_path_states(seed, n_paths, n_steps), 0, n_paths, n_steps)


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
    return PathEnsemble(grid=grid, paths=paths)


def _euler_factors(
    alpha: np.ndarray, beta: np.ndarray, h: float
) -> tuple[list[float], list[float]]:
    """Step factors a_j = 1 + alpha_j h and b_j = beta_j h of the Euler map x -> a_j x + b_j.

    One per step (nodes 0..n_steps - 1), as Python floats: euler_mean and
    _em_functionals both step with these, which keeps them bit-equal.
    """
    return (1.0 + alpha[:-1] * h).tolist(), (beta[:-1] * h).tolist()


def euler_mean(alpha: np.ndarray, beta: np.ndarray, x0: float, h: float) -> np.ndarray:
    """Noise-free Euler recursion m_{j+1} = a_j m_j + b_j, a_j = 1 + alpha_j h, b_j = beta_j h.

    It is the exact ensemble mean of an Euler-Maruyama march with the affine
    drift alpha x + beta, because the noise increments have mean zero and are
    independent of the current state.  The factors and the arithmetic are
    _em_functionals', so a zero-noise path of that march equals it bit for
    bit.
    """
    return _affine_recurrence(*_euler_factors(alpha, beta, h), x0)


def _stepper(march, h: float, n_steps: int, buffers, lo: int, hi: int, part: int, z) -> None:
    """One streamed Euler-Maruyama march of paths [lo, hi), keeping per-path quadratic functionals.

    The march (alpha, beta, x0, center, coef) starts every path at x0 and
    steps
        x_{j+1} = a_j x_j + b_j + sqrt(max(0, x_j (1 - x_j))) sqrt(h) Z_j,
    with euler_mean's factors a_j = 1 + alpha_j h and b_j = beta_j h, so a
    zero-noise path equals euler_mean bit for bit.  alpha, beta and center
    are node arrays on the grid of n_steps + 1 nodes.  For each coef[k] =
    (c0, c1, c2), node arrays that already include any quadrature weights,
    it adds up per path
        F_k = sum_j c0_kj + (c2_kj d_j + c1_kj) d_j,   d_j = x_j - center_j,
    over all nodes while it marches, and stores no path array.  Per-path
    outputs depend only on that path's normals, and no input is written to.

    The paths' normals z are (hi - lo, n_steps) with contiguous columns, or
    None for no noise.  The march writes into buffers (F (K, n_paths),
    per-step sums (2, n_steps + 1) of which it writes row part, final
    states (n_paths,)).  It raises SimulationBlowupError at the first step
    that leaves a path non-finite, naming the first such path.
    """
    alpha, beta, x0, center, coef = march
    if len(alpha) != n_steps + 1:
        raise ParameterError(f"a march has {len(alpha)} nodes, the first one {n_steps + 1}")
    coef = np.asarray(coef, dtype=float)
    out, sums, x_end = buffers
    out[:, lo:hi] = coef[:, 0].sum(axis=1)[:, None]
    rows = [(out[k, lo:hi], c1.tolist() if c1.any() else None, c2.tolist() if c2.any() else None)
            for k, (c1, c2) in enumerate(zip(coef[:, 1], coef[:, 2])) if c1.any() or c2.any()]
    drift_a, drift_b = _euler_factors(alpha, beta, h)
    centers = center.tolist()
    sqrt_h = math.sqrt(h)
    sums = sums[part]
    x, x_next, d, tmp = (np.empty(hi - lo) for _ in range(4))
    x.fill(float(x0))

    def add_node(j: int) -> None:
        np.subtract(x, centers[j], out=d)
        for acc, c1, c2 in rows:
            if c2 is None:
                np.multiply(d, c1[j], out=tmp)
            else:
                np.multiply(d, c2[j], out=tmp)
                if c1 is not None:
                    np.add(tmp, c1[j], out=tmp)
                np.multiply(tmp, d, out=tmp)
            acc += tmp

    sums[0] = x.sum()
    add_node(0)
    for j in range(n_steps):
        np.multiply(x, drift_a[j], out=x_next)
        x_next += drift_b[j]
        if z is not None:  # sqrt(max(0, x (1 - x))) * sqrt_h * Z_j, in place
            np.subtract(1.0, x, out=tmp)
            tmp *= x
            np.maximum(0.0, tmp, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp *= sqrt_h
            tmp *= z[:, j]
            x_next += tmp
        x, x_next = x_next, x
        total = sums[j + 1] = x.sum()
        if not math.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                raise SimulationBlowupError(path_index=lo + int(bad[0]), step=j + 1)
        add_node(j + 1)
    x_end[lo:hi] = x


def _march_held(n_paths: int, n_steps: int, h: float, noise, rows, marches_of, body):
    """body(march), where march(request) runs the marches marches_of(request) on one noise.

    A request is a float.  marches_of(request) gives _stepper's marches on
    n_steps steps, march i with rows[i] functionals, and march(request)
    returns, per march, F (K, n_paths), the per-node ensemble mean and the
    final state, valid until the next request.  Every march reads the same
    normals Z (n_paths, n_steps), given by noise: None switches the noise
    off, and an int seed stands for path_normals(seed, n_paths, n_steps),
    whose rows are drawn once, each by the process that marches them.

    From _FORK_MIN_PATHS paths, or with a seed from _FORK_MIN_DRAWS normals
    on, with more than _PAIRWISE_BLOCK paths and two CPUs, one _in_two runs
    the whole body, however many requests it makes.  This process holds
    paths [0, s) of the noise and the child holds [s, n), s =
    _pairwise_split(n).  Each request goes to the child over its line as
    the float it is; both march their paths into the shared buffers, the
    child answers on its line, and this process adds the child's per-step
    sums to its own.  A failed mmap or fork, a half that raised, a child
    that ended without answering or a joined sum that is not finite (an
    overflow that only the whole sum may see) leaves the rest of the body
    to this process alone, which draws all the normals and reruns the
    request, so every value and every error is the one-process one.
    SimulationBlowupError names the first step that leaves a path
    non-finite and the first such path, in the first march that has one.
    """
    states = None if noise is None else _path_states(noise, n_paths, n_steps)
    shapes = [shape for k in rows for shape in ((k, n_paths), (2, n_steps + 1), (n_paths,))]

    def normals(lo: int, hi: int) -> np.ndarray | None:
        return None if states is None else _draw_rows(states, lo, hi, n_steps)

    def run(request: float, buffers, lo: int, hi: int, part: int, z) -> int:
        """Marches the request's marches on paths [lo, hi); returns how many buffers they fill."""
        marches = marches_of(request)
        for i, march in enumerate(marches):
            _stepper(march, h, n_steps, buffers[3 * i : 3 * i + 3], lo, hi, part, z)
        return 3 * len(marches)

    def results(buffers, used: int) -> list[tuple]:
        return [(out, sums[0] / n_paths, x_end) for out, sums, x_end
                in zip(buffers[0:used:3], buffers[1:used:3], buffers[2:used:3])]

    fork = n_paths > _PAIRWISE_BLOCK and _can_fork() and (n_paths >= _FORK_MIN_PATHS or (
        states is not None and n_paths * n_steps >= _FORK_MIN_DRAWS))
    split = _pairwise_split(n_paths) if fork else n_paths

    def there(buffers, line: _Line) -> None:
        z = normals(split, n_paths)
        while (request := line.receive()) is not None:
            run(request, buffers, split, n_paths, 1, z)
            line.send(0.0)

    def here(buffers, line: _Line | None):
        """body(march) with the child holding paths [hi, n), or with no line in one process."""
        hi, z = (split if line else n_paths), None  # z: this process's normals, drawn once

        def march(request: float) -> list[tuple]:
            nonlocal hi, z
            if hi < n_paths:
                line.send(request)  # first, so the child never waits for this process's draw
                try:
                    z = normals(0, hi) if z is None else z
                    used = run(request, buffers, 0, hi, 0, z)
                except Exception:  # one process reruns the request below and raises it again
                    used = 0
                if used and line.receive() is not None:
                    with np.errstate(all="ignore"):
                        for sums in buffers[1:used:3]:
                            sums[0] += sums[1]
                    if all(np.isfinite(sums[0]).all() for sums in buffers[1:used:3]):
                        return results(buffers, used)
                hi, z = n_paths, None  # the child is given up: drop this half, draw the whole
            z = normals(0, hi) if z is None else z
            whole = [np.empty(shape) for shape in shapes]
            return results(whole, run(request, whole, 0, hi, 0, z))

        return body(march)

    return _in_two(shapes, here, there) if split < n_paths else here(None, None)


def _em_functionals(marches, h: float, n_paths: int, noise) -> list[tuple]:
    """The results of _stepper's marches on one noise: _march_held's one request.

    Returns, per march, F (K, n_paths), the per-node ensemble mean and the
    final state; noise (a seed, or None for none) and the fork rule are
    _march_held's, so a call forks at most once.
    """
    return _march_held(n_paths, len(marches[0][0]) - 1, h, noise,
                       [len(march[4]) for march in marches],
                       lambda request: marches, lambda march: march(0.0))
