"""Deterministic and stochastic numerical kernels shared by the three game models.

Everything here is pure: the same inputs always produce the same outputs,
including the Monte Carlo routines (per-path seeding, fixed-order reduction),
so results never depend on scheduling or on the number of processes.

_in_two runs work in a forked child on the other CPUs and in this process,
joined by a line of floats (_Line), or in this process alone where it
cannot fork or may use only one CPU.  _march_held splits a seeded ensemble
there at numpy's pairwise-sum split, so the halves' sums add up to the
one-process sum bit for bit.  Each process draws the normals of its own
paths: a session's first request streams them in blocks of paths and
steps (_streamed), and only a second request holds them.  _stepper is the
one step loop.  A failed pipe, fork or child leaves the work to this
process, so every value, byte and error is the one-process one.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BracketError,
    ConfigurationError,
    IllPosedBVPError,
    IntegrationBlowupError,
    ParameterError,
    SimulationBlowupError,
    require_finite,
    require_int,
)

__all__ = [
    "TimeGrid",
    "AffineSystem",
    "PathEnsemble",
    "rk4_solve_general",
    "solve_affine_bvp",
    "quad_simpson",
    "find_root_bisect",
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
class PathEnsemble:
    """Euler-Maruyama path ensemble: paths[i, j] = value of path i at node j."""

    grid: TimeGrid
    paths: np.ndarray


def rk4_solve_general(f, y0, grid: TimeGrid, backward: bool = False) -> np.ndarray:
    """Classical RK4 for a general ODE y' = f(t, y).

    With backward=True the terminal value y0 is imposed at t1 and the march
    runs from t1 down to t0; the returned array is still ordered t0..t1.
    """
    times = grid.times()[::-1] if backward else grid.times()
    y = np.atleast_1d(np.array(y0, dtype=float))
    out = np.empty((len(times),) + y.shape, dtype=float)
    out[0] = y
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
    return out[::-1] if backward else out


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


def solve_affine_bvp(system: AffineSystem, grid: TimeGrid) -> dict[str, np.ndarray]:
    """Two-point solve of an affine system by fundamental-matrix superposition.

    Marches one particular solution (zero initial data) plus d homogeneous
    basis solutions together through the RK4 step map, then solves the d x d
    linear system the boundary constraints impose on the superposition
    coefficients.  The march is _affine_march's block scan.  Returns each
    variable's node values by name (system.names, or x0, x1, ...).  A
    boundary matrix with condition number above 1e12 raises IllPosedBVPError.
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
    return {n: traj[:, i].copy() for i, n in enumerate(names)}


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


def _simpson_rule(n_nodes: int):
    """Composite Simpson rule on n_nodes uniformly spaced samples: (values, h) -> integral.

    The 1, 4, 2, ..., 4, 1 weights are built once, for every call of the rule.
    """
    n = n_nodes - 1
    if n < 2 or n % 2 != 0:
        raise ConfigurationError(f"Simpson rule needs an even number of intervals, got {n}")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0

    def integral(values: np.ndarray, h: float) -> float:
        # numpy's pairwise sum, not np.dot: a threaded BLAS sums in an order
        # that depends on its thread count.
        return float(h / 3.0 * (w * values).sum())

    return integral


def quad_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples (even interval count)."""
    values = np.asarray(values, dtype=float)
    return _simpson_rule(len(values))(values, h)


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


# Floats in one working buffer of a blocked loop: the discrete oracle's blocks
# and a stacked march's (K, m) state, whose marches a streamed leaf keeps in
# one group (_stream_split).  A 256 KiB buffer stays in a core's L2 cache, and
# no block of 4-32 MiB is freed, which would raise glibc's mmap threshold for
# every later allocation in the process.
_BLOCK = 2**15
# Floats in a draw's path-major staging block (512 KiB), 256 rows at 250 steps.
_NORMALS_BLOCK = 2**16
# Normals a seeded march needs before it forks; the README times the work that pays for a fork.
_FORK_MIN_DRAWS = 1 << 20
_PAIRWISE_BLOCK = 128  # numpy sums up to this many elements without splitting
_STREAM_DRAWS = 1 << 21  # normals in a streamed block, at most (16 MiB)
_STREAM_MIN_PATHS = 4096  # a block over _STREAM_DRAWS splits while each part keeps this many
# Steps x marches a streamed block feeds: a row's sampler call costs about a tenth of that work.
_STREAM_MARCH_STEPS = 2048
_STREAM_BUFFER = (32 << 20) // 8 + 512  # above glibc's largest dynamic mmap threshold


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum splits n > _PAIRWISE_BLOCK elements.

    numpy sums x[:s] and x[s:] separately and adds the two, so
    x.sum() == x[:s].sum() + x[s:].sum() bit for bit.
    """
    half = n // 2
    return half - half % 8


def _block_steps(m: int, n_steps: int, k: int) -> int:
    """The steps of each block of a streamed leaf of m paths and k marches: the
    fewest equal blocks of at most min(_STREAM_DRAWS // m, ceil(_STREAM_MARCH_STEPS / k))."""
    most = min(max(1, _STREAM_DRAWS // m), -(-_STREAM_MARCH_STEPS // k))
    return -(-n_steps // -(-n_steps // most))


def _stream_split(m: int, n_steps: int, k: int) -> int:
    """Where a streamed block of m paths and k marches splits, at _pairwise_split(m), or 0.

    It splits while it holds more than _STREAM_DRAWS normals and each part
    keeps _STREAM_MIN_PATHS paths, and while it takes more than one block
    of steps (_block_steps) and its marches overflow one _BLOCK group
    (k m > _BLOCK); never at _PAIRWISE_BLOCK paths or fewer, which numpy
    sums without splitting.
    """
    s = _pairwise_split(m)
    wide = m * n_steps > _STREAM_DRAWS and s >= _STREAM_MIN_PATHS
    grouped = k * m > _BLOCK and _block_steps(m, n_steps, k) < n_steps
    return s if m > _PAIRWISE_BLOCK and (wide or grouped) else 0


def _this_cpu() -> int | None:
    """The CPU this process runs on (field 39 of /proc/self/stat), or None if unreadable."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class _Line:
    """One process's end of _in_two's two pipes: floats to the other process and from it."""

    def __init__(self, inbox: int, outbox: int):
        self.fds = (inbox, outbox)

    def send(self, *values) -> None:
        """Sends the floats of values, numbers or float arrays, in order; if the other
        process has ended, its next receive says so."""
        data = memoryview(b"".join(np.asarray(v, dtype=float).tobytes() for v in values))
        with contextlib.suppress(BrokenPipeError):
            while data:
                data = data[os.write(self.fds[1], data):]

    def receive(self, n: int = 1):
        """The next float sent, or with n > 1 an array of the next n, or None once
        the other process has closed its end before n floats arrived."""
        data = bytearray()
        while len(data) < 8 * n and (chunk := os.read(self.fds[0], 8 * n - len(data))):
            data += chunk
        if len(data) < 8 * n:
            return None
        return np.frombuffer(data) if n > 1 else float(np.frombuffer(data)[0])


def _in_two(here, there):
    """Runs there(line) in a forked child and returns here(line) from this one.

    Each side's line (_Line) sends floats to the other side's, and is the
    only way the child reports.  This process closes its line when here
    ends, so a child that waits on its line ends too, and reaps the child
    before this returns; if here raised, the child is killed first and the
    error raised again.  Where this platform cannot fork or this process
    may run on fewer than two CPUs, or if a pipe or the fork failed, there
    is no child: this returns here(None).  The child restricts itself to
    the CPUs of this process's affinity other than the one this process
    ran on before the fork, since a kernel that does not balance the load
    leaves a forked child on its parent's CPU; if that fails, it stays
    where it is.  This process's affinity never changes.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(cpus := affinity(0)) < 2:
        return here(None)
    cpus -= {_this_cpu()}
    fds: list[int] = []
    try:
        for _ in range(2):
            fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return here(None)
    # The child reads at fds[0] what this process writes at fds[1], and the other pipe
    # carries the child's floats back.  Each process closes the other one's ends.
    child, parent = _Line(fds[0], fds[3]), _Line(fds[2], fds[1])
    if pid == 0:  # the child never returns into the caller
        try:
            for fd in parent.fds:
                os.close(fd)
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)
            there(child)
            os._exit(0)
        finally:
            os._exit(1)
    for fd in child.fds:
        os.close(fd)
    try:
        return here(parent)
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


def _draw_rows(states: np.ndarray, lo: int, hi: int, j0: int, j1: int,
               buffer: np.ndarray | None = None, advance: bool = True) -> np.ndarray:
    """Steps [j0, j1) of rows [lo, hi) of path_normals' matrix, drawn into a step-major buffer.

    Rows lo..hi - 1 of states stand at step j0 of their streams.  With
    advance they are left at step j1, so the next block of steps continues
    each stream bit for bit; without it states is not written to.  One
    numpy PCG64 and normal sampler draw every row: each row's state
    (_seeding.state_setter) goes into the generator, which then fills the
    row of a small path-major block that is copied over block by block.
    Column c of the (j1 - j0, hi - lo) buffer gets row lo + c.  The buffer
    and the block are new, or the start of the given flat float buffer and
    the block's rows after it, so that buffer must hold (j1 - j0) (hi - lo)
    floats and the block's, at most max(_NORMALS_BLOCK, j1 - j0).  Returns
    the buffer's transpose, whose column j, which a march reads at step
    j0 + j, is contiguous.
    """
    from ._seeding import state_setter

    bits = np.random.PCG64(0)  # its seed is overwritten by put
    normal = np.random.Generator(bits).standard_normal
    put, take = state_setter(bits, states, lo)
    m, n = hi - lo, j1 - j0
    k = min(m, max(1, _NORMALS_BLOCK // n))
    if buffer is None:
        out, block = np.empty((n, m)), np.empty((k, n))
    else:
        out, block = buffer[: n * m].reshape(n, m), buffer[n * m : (m + k) * n].reshape(k, n)
    for start in range(0, m, len(block)):
        rows = block[: min(len(block), m - start)]
        for i, row in enumerate(rows, lo + start):
            put(i)
            normal(out=row)
            if advance:
                take(i)
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
    return _draw_rows(_path_states(seed, n_paths, n_steps), 0, n_paths, 0, n_steps,
                      advance=False)


def em_paths(drift, diffusion, x0: float, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble for dx = drift(t, x) dt + diffusion(t, x) dW.

    drift and diffusion must accept a scalar t and a vector of path values.
    The noise is path_normals(seed, n_paths, grid.n_steps), so two calls
    with one seed share their noise (common random numbers).
    """
    normals = path_normals(seed, n_paths, grid.n_steps)
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


def _march_bufsize(m: int) -> int:
    """numpy's ufunc buffer size, in elements, for a march of m paths: the largest
    multiple of 16 below two rows (2 m), but at least 16 and at most the size in
    force.  numpy takes multiples of 16 from 16 to 10^7."""
    return min(np.getbufsize(), max(16, (2 * m - 1) // 16 * 16))


@contextlib.contextmanager
def _march_buffer(m: int):
    """Runs its body with numpy's ufunc buffer at _march_bufsize(m), and sets the
    size it found back however the body ends."""
    old = np.setbufsize(_march_bufsize(m))
    try:
        yield
    finally:
        np.setbufsize(old)


def _stepper(marches, h: float, n_steps: int, lo: int, hi: int, z) -> list[tuple]:
    """Streamed Euler-Maruyama marches of paths [lo, hi), keeping per-path quadratic functionals.

    Each march (alpha, beta, x0, center, coef) starts every path at x0 and
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

    Consecutive marches with the same rows (their count, and which c1 and c2
    are zero) step together as one (K, m) state, m = hi - lo, in groups of
    K <= _BLOCK // m, so that a group's buffers stay in a core's L2 cache.
    Their factors, centres and coefficients are (K, 1) columns and Z_j is
    broadcast over the K rows, so every element sees one march's operations
    in the same order, and the per-step sums x.sum(axis=1) are each row's
    own pairwise sum: every value is the one of marching them one at a time.
    The groups march with numpy's ufunc buffer below two rows of m floats
    (_march_buffer): from two rows on, numpy copies every broadcast (K, 1)
    column into it, and a path-step costs half as much again (the README
    times it).  Elementwise ufuncs do not depend on the buffer, and a
    contiguous row's pairwise sum is not cut by it, so no value moves.  The
    draw stays outside: its transposing copy is no ufunc.

    The paths' normals z are (m, n_steps) with contiguous columns, None for
    no noise, or draw(j0), which gives the (m, w) normals of steps
    [j0, j0 + w) and starts over at j0 = 0; every group then marches each
    block of steps before the next block is drawn.  Returns per march its
    paths' F (len(coef), m) and their per-step sums (n_steps + 1,).  As if
    marching one at a time, it raises the SimulationBlowupError of the first
    march with a step that leaves a path non-finite, naming that step and
    the first such path.
    """
    for alpha, *_ in marches:
        if len(alpha) != n_steps + 1:
            raise ParameterError(f"a march has {len(alpha)} nodes, the first one {n_steps + 1}")
    coefs = [np.asarray(march[4], dtype=float) for march in marches]
    shapes = [(len(c), c[:, 1:].any(axis=2).tobytes()) for c in coefs]
    most, groups, a = max(1, _BLOCK // (hi - lo)), [], 0
    scratch = np.empty((2, min(most, len(marches)), hi - lo))  # every group's d and tmp
    while a < len(marches):
        b = a + 1
        while b < min(len(marches), a + most) and shapes[b] == shapes[a]:
            b += 1
        groups.append((a, *_group(marches[a:b], coefs[a:b], h, n_steps, lo, scratch)))
        a = b
    draw = z if callable(z) else lambda j0: z
    j0 = 0
    while j0 < n_steps:
        block = draw(j0)
        j1 = n_steps if block is None else j0 + block.shape[1]
        with _march_buffer(hi - lo):
            for a, advance, _ in groups:
                if bad := advance(j0, j1, block):
                    break
        if bad:
            k, error = bad
            if a + k:  # an earlier march may leave the float range at a later step
                _stepper(marches[: a + k], h, n_steps, lo, hi, z)
            raise error
        j0 = j1
    return [result for *_, results in groups for result in results]


def _group(marches, coefs, h: float, n_steps: int, lo: int, scratch: np.ndarray) -> tuple:
    """(advance, results) of _stepper's marches of one group, stepped as one (K, m) state.

    advance(j0, j1, z) marches steps [j0, j1) on the normals z of those
    steps (None for none) and returns (k, error) for the first march k with
    a path that one of them leaves non-finite, or None.  results holds per
    march its F and its per-step sums, complete once steps reach n_steps.
    The first K rows of scratch's two planes are the work arrays d and tmp,
    which every group of a _stepper call shares.
    """
    def columns(rows):  # K arrays over nodes or steps -> per node a (K, 1) column,
        # or for one march a float, which costs a step no more than the one-march loop did
        nodes = np.ascontiguousarray(np.array(rows).T)
        return nodes[:, 0].tolist() if len(rows) == 1 else nodes[:, :, None]

    drift_a, drift_b = map(columns, zip(*(_euler_factors(a, b, h) for a, b, *_ in marches)))
    centers = columns([march[3] for march in marches])
    coef = np.stack(coefs)  # (K, rows, 3, nodes)
    d, tmp = scratch[:, : len(marches)]
    m = d.shape[1]
    out = np.stack([np.repeat(c[:, 0].sum(axis=1)[:, None], m, axis=1) for c in coefs])
    rows = [(out[:, k], *(columns(c) if c.any() else None for c in coef[:, k, 1:].swapaxes(0, 1)))
            for k in range(coef.shape[1]) if coef[:, k, 1:].any()]
    sqrt_h = math.sqrt(h)
    sums = np.empty((n_steps + 1, len(marches)))
    x, x_next = np.empty_like(d), np.empty_like(d)
    x[:] = np.array([float(march[2]) for march in marches])[:, None]

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

    def advance(j0: int, j1: int, z) -> tuple | None:
        nonlocal x, x_next, tmp  # swapped, or updated in place by augmented assignment
        for j in range(j0, j1):
            np.multiply(x, drift_a[j], out=x_next)
            x_next += drift_b[j]
            if z is not None:  # sqrt(max(0, x (1 - x))) * sqrt_h * Z_j, in place
                np.subtract(1.0, x, out=tmp)
                tmp *= x
                np.maximum(0.0, tmp, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp *= sqrt_h
                tmp *= z[:, j - j0]
                x_next += tmp
            x, x_next = x_next, x
            if not all(map(math.isfinite, x.sum(axis=1, out=sums[j + 1]).tolist())):
                bad = ~np.isfinite(x).all(axis=1)
                if bad.any():
                    k = int(np.argmax(bad))
                    return k, SimulationBlowupError(
                        path_index=lo + int(np.argmax(~np.isfinite(x[k]))), step=j + 1)
            add_node(j + 1)
        return None

    x.sum(axis=1, out=sums[0])
    add_node(0)
    return advance, list(zip(out, sums.T))


def _streamed(marches, h: float, n_steps: int, states: np.ndarray, lo: int, hi: int,
              buffer: np.ndarray | None = None) -> list[tuple]:
    """_stepper's (F, per-step sums) of marches on paths [lo, hi), their normals drawn in blocks.

    The blocks cut the paths at the leaves of numpy's pairwise-sum tree
    (_stream_split), and a leaf's steps into equal blocks that the marches
    step in lockstep.  A leaf of m paths and K marches takes blocks of at
    most min(_STREAM_DRAWS // m, ceil(_STREAM_MARCH_STEPS / K)) steps: each
    row's sampler call then feeds enough marching to pay for itself.  A
    part that takes more than one block splits while its marches overflow
    one _stepper group, so ten marches on 5,000 paths stream as leaves of
    2,496 and 2,504 paths, one group each, in five blocks of 200 steps
    (4 MB), and each row's sampler calls stay five.  Where
    the paths split or a leaf takes more than one block, every block is
    drawn into one buffer (_STREAM_BUFFER), so no block is freed.  F is the
    leaves' columns in order and the sums are added in the tree's order, so
    every value is the one of marching [lo, hi) at once.  A leaf that raises
    raises its own error, which need not be the first one of the whole.
    states is left as it was found.
    """
    m, k = hi - lo, len(marches)
    s, width = _stream_split(m, n_steps, k), _block_steps(m, n_steps, k)
    if buffer is None and (s or width < n_steps):
        buffer = np.empty(_STREAM_BUFFER)
    if s:
        left = _streamed(marches, h, n_steps, states, lo, lo + s, buffer)
        right = _streamed(marches, h, n_steps, states, lo + s, hi, buffer)
        with np.errstate(all="ignore"):  # a sum that leaves the float range is the caller's
            return [(np.hstack((fa, fb)), sa + sb) for (fa, sa), (fb, sb) in zip(left, right)]
    start = states[lo:hi].copy()

    def draw(j0: int) -> np.ndarray:
        if not j0:  # every pass over the steps starts the rows' streams afresh
            states[lo:hi] = start
        j1 = min(j0 + width, n_steps)
        return _draw_rows(states, lo, hi, j0, j1, buffer, advance=j1 < n_steps)

    try:
        return _stepper(marches, h, n_steps, lo, hi, draw(0) if width >= n_steps else draw)
    finally:
        states[lo:hi] = start


def _release_free_heap() -> None:
    """Gives the pages of freed heap memory back to the system, where the C library
    can (glibc's malloc_trim): what the first request freed then does not stay
    resident under the normals held after it."""
    import ctypes

    with contextlib.suppress(OSError, AttributeError):  # no such C library or function
        trim = ctypes.CDLL(None).malloc_trim
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def _march_held(n_paths: int, n_steps: int, h: float, noise, marches_of, body=None):
    """body(march), where march(request) runs the marches marches_of(request) on one noise.

    A request is a tuple of floats.  marches_of(request) gives _stepper's
    marches on n_steps steps, and march(request) returns, per march, F
    (rows, n_paths) and the per-node ensemble mean.  Every march reads the
    same normals Z (n_paths, n_steps), given by noise: an int seed stands
    for path_normals(seed, n_paths, n_steps), whose rows each process draws
    for the paths it marches.  The first request streams them (_streamed);
    only a second request draws them again and holds them for the rest of
    the session.  Without a body the session is the one request
    (0.0,), whose results it returns.  noise None switches the noise off:
    every path is then the Euler mean, so each request marches one path in
    this process, its F has one column (n_paths is not read) and its mean
    is that path, euler_mean's bits; nothing is drawn and nothing forks.

    With a seed, from _FORK_MIN_DRAWS normals on and with more than
    _PAIRWISE_BLOCK paths, one _in_two runs the whole body, however many
    requests it makes.  Where it makes a child, this process marches paths
    [0, s) and the child [s, n), s = _pairwise_split(n).  The child is a
    copy of this process as the session opens, so marches that marches_of
    built and kept before the call are the child's without a build.  Each
    request goes to the child over its line as its length and then its
    floats; the child calls marches_of and answers with each march's
    per-step sums and F columns, and this process puts the child's columns
    after its own and adds the sums to its own.  A failed pipe or fork, a
    half that raised, a child that ended without answering or a joined sum
    that is not finite (an overflow that only the whole sum may see) leaves
    the rest of the body to this process alone, which holds all the normals
    and reruns the request, so every value and every error is the
    one-process one.  So does a streamed leaf that raised, or a streamed sum
    that is not finite, in a session without a child.  SimulationBlowupError
    names the first step that leaves a path non-finite and the first such
    path, in the first march that has one.
    """
    if noise is None:  # every path is the Euler mean: one path stands for all of them
        def path(request: tuple) -> list[tuple]:
            return _stepper(marches_of(request), h, n_steps, 0, 1, None)

        return body(path) if body else path((0.0,))
    states = _path_states(noise, n_paths, n_steps)
    held: dict = {}  # this process's normals, by their paths (lo, hi), from its second request on
    asked = False  # whether this process has marched a request; each process keeps its own

    def run(request: tuple, lo: int, hi: int) -> list[tuple]:
        """The (F, per-step sums) of the request's marches on paths [lo, hi): on
        streamed normals for the first request, on held normals after it."""
        nonlocal asked
        first, asked = not asked, True
        if first:
            return _streamed(marches_of(request), h, n_steps, states, lo, hi)
        if (lo, hi) not in held:
            held.clear()  # a half given up goes before the whole is drawn
            _release_free_heap()
            held[lo, hi] = _draw_rows(states, lo, hi, 0, n_steps, advance=False)
        return _stepper(marches_of(request), h, n_steps, lo, hi, held[lo, hi])

    fork = n_paths > _PAIRWISE_BLOCK and n_paths * n_steps >= _FORK_MIN_DRAWS
    split = _pairwise_split(n_paths) if fork else n_paths

    def there(line: _Line) -> None:
        while (size := line.receive()) is not None and (
                request := line.receive(int(size))) is not None:
            for out, sums in run(tuple(np.atleast_1d(request).tolist()), split, n_paths):
                line.send(sums, out)

    def here(line: _Line | None):
        """body(march) with the child marching paths [hi, n), or with no line in one process."""
        hi = split if line else n_paths

        def march(request: tuple) -> list[tuple]:
            nonlocal hi
            if hi < n_paths:
                # First, so the child never waits for this process's draw.
                line.send(len(request), *request)
                try:
                    ours = run(request, 0, hi)
                except Exception:  # one process reruns the request below and raises it again
                    ours = []
                # Per march, the child's per-step sums and then its F columns.
                theirs = [line.receive(n_steps + 1 + len(out) * (n_paths - hi)) for out, _ in ours]
                if ours and all(answer is not None for answer in theirs):
                    with np.errstate(all="ignore"):
                        sums = [s + a[: n_steps + 1] for (_, s), a in zip(ours, theirs)]
                    if all(np.isfinite(s).all() for s in sums):
                        return [(np.hstack((out, a[n_steps + 1 :].reshape(len(out), -1))),
                                 s / n_paths) for (out, _), a, s in zip(ours, theirs, sums)]
                hi = n_paths  # the child is given up: drop this half, draw the whole
            elif not asked and _stream_split(n_paths, n_steps, len(marches_of(request))):
                # More than one leaf: a leaf's error, or a sum that only the join
                # takes out of the float range, is the held rerun's to raise.
                with contextlib.suppress(Exception):
                    ours = run(request, 0, hi)
                    if all(np.isfinite(sums).all() for _, sums in ours):
                        return [(out, sums / n_paths) for out, sums in ours]
            return [(out, sums / n_paths) for out, sums in run(request, 0, hi)]

        return body(march) if body else march((0.0,))

    return _in_two(here, there) if split < n_paths else here(None)


def _em_functionals(marches, h: float, n_paths: int, noise) -> list[tuple]:
    """The results of _stepper's marches on one noise: _march_held's one request.

    Returns, per march, F (K, n_paths) and the per-node ensemble mean;
    noise (a seed, or None for none) and the fork rule are _march_held's,
    so a call forks at most once, and each process streams its normals in
    blocks (_streamed) instead of holding its whole share.  Without noise
    the call marches one path, whose F is one column, and forks nothing.
    """
    return _march_held(n_paths, len(marches[0][0]) - 1, h, noise, lambda request: marches)
