"""Unit tests for the shared deterministic/stochastic numerical kernels."""

import ast
import errno
import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stackgame import _seeding, meanfield, numerics
from stackgame.errors import (
    BracketError,
    ConfigurationError,
    IllPosedBVPError,
    IntegrationBlowupError,
    ParameterError,
    SimulationBlowupError,
)
from stackgame.numerics import (
    AffineSystem,
    TimeGrid,
    _em_functionals,
    em_paths,
    euler_mean,
    find_root_bisect,
    path_normals,
    quad_simpson,
    rk4_solve_general,
    solve_affine_bvp,
)

from conftest import affine_recurrence_loop, drawn_from, wright_fisher_sigma


def _functionals(marches, h, n_paths, noise):
    """_em_functionals, where a noise matrix is drawn_from's rows for a seed."""
    if isinstance(noise, np.ndarray):
        with drawn_from(noise):
            return _em_functionals(marches, h, n_paths, 0)
    return _em_functionals(marches, h, n_paths, noise)


def _march(alpha, beta, x0, h, n_paths, noise, center, coef):
    """_em_functionals with one march: its (F, mean path)."""
    return _functionals([(alpha, beta, x0, center, coef)], h, n_paths, noise)[0]


class TestTimeGrid:
    def test_nodes_and_step(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert g.h == 0.25
        np.testing.assert_allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ParameterError):
            TimeGrid(1.0, 1.0, 10)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ParameterError):
            TimeGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize("n_steps", [50.0, 50.5, "50", True, np.float64(50)])
    def test_rejects_non_integer_step_count(self, n_steps):
        with pytest.raises(ParameterError, match="n_steps"):
            TimeGrid(0.0, 1.0, n_steps)

    @pytest.mark.parametrize("t0, t1", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                        (0.0, np.nan)])
    def test_rejects_non_finite_ends(self, t0, t1):
        with pytest.raises(ParameterError, match="finite"):
            TimeGrid(t0, t1, 50)


class TestRk4:
    def test_exponential_growth(self):
        grid = TimeGrid(0.0, 1.0, 200)
        vals = rk4_solve_general(lambda t, y: y, [1.0], grid)
        assert abs(vals[-1, 0] - np.e) < 1e-9

    def test_backward_march_returns_forward_ordering(self):
        grid = TimeGrid(0.0, 1.0, 200)
        # y' = y with terminal value e gives y(0) = 1.
        vals = rk4_solve_general(lambda t, y: y, [np.e], grid, backward=True)
        assert abs(vals[0, 0] - 1.0) < 1e-9
        assert abs(vals[-1, 0] - np.e) < 1e-12

    def test_affine_initial_value_solve(self):
        # y' = -y + 1, y(0) = 0 has y(t) = 1 - e^{-t}.
        system = AffineSystem(
            matrix=np.array([[-1.0]]),
            offset=np.array([1.0]),
            boundary=[(0, "t0", 0.0)],
            names=("y",),
        )
        grid = TimeGrid(0.0, 2.0, 400)
        traj = solve_affine_bvp(system, grid)
        np.testing.assert_allclose(traj["y"], 1.0 - np.exp(-grid.times()), atol=1e-10)


def _oscillator(two_point):
    return AffineSystem(
        matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        offset=np.zeros(2),
        boundary=two_point,
        names=("x", "v"),
    )


class TestAffineBvp:
    def test_harmonic_two_point_solution(self):
        # x'' = -x with x(0) = 0, x(1) = sin(1) is x(t) = sin(t).
        system = _oscillator([(0, "t0", 0.0), (0, "t1", np.sin(1.0))])
        grid = TimeGrid(0.0, 1.0, 400)
        traj = solve_affine_bvp(system, grid)
        np.testing.assert_allclose(traj["x"], np.sin(grid.times()), atol=1e-9)
        np.testing.assert_allclose(traj["v"], np.cos(grid.times()), atol=1e-9)

    def test_mixed_endpoint_constraints(self):
        # x(0) = 1, v(1) = 0 picks x(t) = cos(t)/cos(1) * cos(1) = ... solve directly:
        # x = A sin t + B cos t with B = 1 and A cos 1 - sin 1 = 0.
        system = _oscillator([(0, "t0", 1.0), (1, "t1", 0.0)])
        grid = TimeGrid(0.0, 1.0, 400)
        traj = solve_affine_bvp(system, grid)
        A = np.tan(1.0)
        t = grid.times()
        np.testing.assert_allclose(traj["x"], A * np.sin(t) + np.cos(t), atol=1e-9)

    def test_ill_posed_boundary_raises(self):
        # Two constraints on the same variable/endpoint make the boundary
        # matrix singular.
        system = _oscillator([(0, "t0", 0.0), (0, "t0", 1.0)])
        with pytest.raises(IllPosedBVPError):
            solve_affine_bvp(system, TimeGrid(0.0, 1.0, 10))

    def test_constraint_count_enforced(self):
        with pytest.raises(ParameterError):
            _oscillator([(0, "t0", 0.0)])


def _close(a, b, rel=1e-11):
    """Agreement to `rel`, relative to the largest reference value."""
    np.testing.assert_allclose(a, b, rtol=0.0, atol=rel * np.abs(b).max())


class TestRk4StepMap:
    """The RK4 step map y_{j+1} = P y_j + c_j against RK4 over stage callbacks."""

    M = np.array([[-0.4, 1.0, 0.2], [-1.0, 0.1, 0.0], [0.3, -0.2, 0.5]])

    @staticmethod
    def _node_offset(grid):
        t = grid.times()
        return np.stack([np.sin(3.0 * t), np.cos(t) - t, 0.5 * t**2], axis=1)

    @staticmethod
    def _interp_offset(grid, v):
        times = grid.times()
        return lambda t: np.array([np.interp(t, times, col) for col in v.T])

    @pytest.mark.parametrize("n_steps", [250, 2000])
    def test_bvp_with_node_offset_matches_callbacks(self, closure_bvp, n_steps):
        grid = TimeGrid(0.0, 2.0, n_steps)
        v = self._node_offset(grid)
        boundary = [(0, "t0", 1.0), (1, "t1", -0.5), (2, "t0", 0.2)]
        traj = solve_affine_bvp(AffineSystem(self.M, v, boundary), grid)
        oracle = closure_bvp(self.M, self._interp_offset(grid, v), boundary, grid)
        for i in range(3):
            _close(traj[f"x{i}"], oracle[:, i])

    def test_initial_value_solve_matches_callbacks(self):
        # All constraints at t0: the two-point solve is an initial-value march.
        grid = TimeGrid(0.0, 2.0, 500)
        v = self._node_offset(grid)
        offset = self._interp_offset(grid, v)
        traj = solve_affine_bvp(AffineSystem(self.M, v, [(0, "t0", 1.0), (1, "t0", 0.0),
                                                         (2, "t0", -1.0)]), grid)
        oracle = rk4_solve_general(lambda t, y: self.M @ y + offset(t), [1.0, 0.0, -1.0], grid)
        for i in range(3):
            _close(traj[f"x{i}"], oracle[:, i])

    @staticmethod
    def _indexed_march(matrix, offset, grid, y0):
        """The step-by-step march: one product with the step map per step."""
        step, c = numerics._rk4_step_map(matrix, offset, grid)
        vals = np.empty((grid.n_steps + 1,) + y0.shape)
        vals[0] = y0
        with np.errstate(over="ignore", invalid="ignore"):
            for j, cj in enumerate(c):
                y = np.matmul(step, vals[j], out=vals[j + 1])
                y[:, 0] += cj
        finite = np.isfinite(vals).reshape(len(vals), -1).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise IntegrationBlowupError(step=bad, t=float(grid.times()[bad]))
        return vals

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("node_offset", [False, True])
    @pytest.mark.parametrize("n_steps", [2, 3, 7, 143, 2000, 20000])
    def test_block_scan_matches_indexed_loop(self, n_steps, node_offset, d):
        # Blocks of isqrt(n_steps) steps: one-step blocks at 2 and 3, whole blocks at
        # 143 = 13 * 11, a ragged last block at 7, 2000 and 20000.
        rng = np.random.default_rng(100 * d + n_steps)
        grid = TimeGrid(0.0, 2.0, n_steps)
        matrix = self.M if d == 3 else 0.5 * rng.standard_normal((d, d))
        offset = rng.standard_normal((n_steps + 1, d) if node_offset else d)
        y0 = np.zeros((d, d + 1))
        y0[:, 1:] = np.eye(d)
        _close(numerics._affine_march(matrix, offset, grid, y0),
               self._indexed_march(matrix, offset, grid, y0))

    @pytest.mark.parametrize(
        "rate, t1, n_steps, bad_step",
        [(1e5, 20.0, 20, 17), (700.0, 20.0, 400, 64)],  # 64 is inside the fourth 20-step block
    )
    def test_blowup_step_matches_indexed_loop(self, rate, t1, n_steps, bad_step):
        grid = TimeGrid(0.0, t1, n_steps)
        y0 = np.array([[0.0, 1.0]])
        steps = []
        for march in (numerics._affine_march, self._indexed_march):
            with pytest.raises(IntegrationBlowupError) as exc:
                march(np.array([[rate]]), np.array([1.0]), grid, y0)
            steps.append(exc.value.step)
        assert steps == [bad_step, bad_step]

    def test_shapes_are_checked(self):
        boundary = [(0, "t0", 0.0), (1, "t1", 0.0)]
        with pytest.raises(ParameterError, match="matrix"):
            AffineSystem(np.ones((2, 3)), np.zeros(2), boundary)
        with pytest.raises(ParameterError, match="offset"):
            AffineSystem(np.eye(2), np.zeros(3), boundary)
        system = AffineSystem(np.eye(2), np.zeros((11, 2)), boundary)
        with pytest.raises(ParameterError, match="11 nodes"):
            solve_affine_bvp(system, TimeGrid(0.0, 1.0, 20))

    def test_scalar_backward_overflow_raises_typed_error(self):
        # Step factors near 1e101 leave the float range at the fourth step back
        # from t1; the march's Python floats would carry inf on unchecked.
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(IntegrationBlowupError) as exc:
            numerics._rk4_linear_backward(lambda c: (c - 7e26, c + 1.0), (np.zeros(11),), grid)
        assert (exc.value.step, exc.value.t) == (4, grid.times()[-5])

    def test_overflow_raises_typed_error(self):
        # P = 1 + 1e5 + ... per step overflows the float range near step 17.
        system = AffineSystem(np.array([[1e5]]), np.array([1.0]), [(0, "t0", 1.0)])
        with pytest.raises(IntegrationBlowupError) as exc:
            solve_affine_bvp(system, TimeGrid(0.0, 20.0, 20))
        assert 10 < exc.value.step < 20


class TestAffineRecurrence:
    def test_random_factors_equal_the_loop(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(1.0, 0.1, 20_000).tolist(), rng.normal(size=20_000).tolist()
        assert np.array_equal(numerics._affine_recurrence(a, b, 0.7),
                              affine_recurrence_loop(a, b, 0.7))

    def test_overflow_to_inf_equals_the_loop(self):
        # The third value overflows to inf, and inf times 0 is nan.
        a, b = [1e200, 1e200, 2.0, 0.0], [0.0, 0.0, -1.0, 0.0]
        y = numerics._affine_recurrence(a, b, 1.0)
        assert np.array_equal(y, affine_recurrence_loop(a, b, 1.0), equal_nan=True)
        assert y[1] == 1e200 and y[2] == y[3] == math.inf and math.isnan(y[4])

    def test_nan_factor_equals_the_loop(self):
        a, b = [2.0, math.nan, 2.0], [1.0, 1.0, 1.0]
        y = numerics._affine_recurrence(a, b, 0.5)
        assert np.array_equal(y, affine_recurrence_loop(a, b, 0.5), equal_nan=True)
        assert y[:2].tolist() == [0.5, 2.0] and np.isnan(y[2:]).all()


class TestQuadSimpson:
    def test_exact_on_cubics(self):
        grid = TimeGrid(0.0, 2.0, 10)
        t = grid.times()
        exact = 2.0**4 / 4.0 - 2.0**3 + 2.0 * 2.0
        assert abs(quad_simpson(t**3 - 3.0 * t**2 + 2.0, grid.h) - exact) < 1e-12

    def test_rejects_odd_interval_count(self):
        with pytest.raises(ConfigurationError):
            quad_simpson(np.ones(4), 0.1)

    def test_same_bits_whatever_the_blas_thread_count(self):
        # OpenBLAS splits a dot product over more than 10^4 elements across
        # its threads, which changes the order of the sum.
        code = ("import numpy as np; from stackgame.numerics import quad_simpson; "
                "x = np.linspace(0.0, 10.0, 20001); "
                "print(quad_simpson(np.exp(-0.1 * x) * (3.0 + np.sin(x)), 5e-4).hex())")
        src = str(Path(numerics.__file__).resolve().parents[1])
        bits = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            bits.append(done.stdout.strip())
        assert bits[0] == bits[1]


class TestBisection:
    def test_root_of_cosine(self):
        root = find_root_bisect(np.cos, 1.0, 2.0, 1e-12)
        assert abs(root - np.pi / 2.0) < 1e-10

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root_bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)


SPAWN_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 9, 2**130 + 7, 2**200 + 17]


class _GivenWords(np.random.bit_generator.ISeedSequence):
    """Seed sequence whose PCG64 seed words, generate_state(4, uint64), are given."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class TestPathNoise:
    def test_normals_are_reproducible(self):
        a = path_normals(7, 5, 16)
        b = path_normals(7, 5, 16)
        assert np.array_equal(a, b)

    def test_normals_independent_of_path_count(self):
        # Path i always draws from child stream i of the base seed, so the
        # first rows do not change when more paths are requested.
        few = path_normals(7, 3, 16)
        many = path_normals(7, 8, 16)
        assert np.array_equal(few, many[:3])

    def test_values_are_the_per_path_child_streams(self):
        # Step-major storage changes the layout only: row i is still the
        # first n_steps draws of child stream i, across block boundaries too.
        normals = path_normals(11, 300, 4)
        children = np.random.SeedSequence(11).spawn(300)
        for i in (0, 255, 256, 299):
            expected = np.random.default_rng(children[i]).standard_normal(4)
            assert np.array_equal(normals[i], expected)
        assert normals[:, 2].flags.c_contiguous

    @pytest.mark.parametrize("seed", SPAWN_SEEDS)
    def test_vectorised_seeding_matches_numpy_spawn(self, seed):
        # One to seven entropy words (2^130 + 7 and 2^200 + 17 have more
        # than the pool's four, so numpy's pool has taken more hash calls),
        # and rows on both sides of the 256-path block edge.
        n = 257
        normals = path_normals(seed, n, 7)
        children = np.random.SeedSequence(seed).spawn(n)
        for i in (0, 255, 256, n - 1):
            expected = np.random.default_rng(children[i]).standard_normal(7)
            assert np.array_equal(normals[i], expected)

    @pytest.mark.parametrize("seed", SPAWN_SEEDS)
    def test_seeded_states_are_numpy_pcg64_states(self, seed):
        states = numerics._path_states(seed, 257, 1)
        for child, limbs in zip(np.random.SeedSequence(seed).spawn(257), states, strict=True):
            assert np.random.PCG64(child).state["state"] == _seeding._state_ints(limbs)

    def test_seeded_states_across_spawn_blocks(self):
        rows = _seeding._SPAWN_ROWS
        states = numerics._path_states(9, 2 * rows + 3, 1)
        children = np.random.SeedSequence(9).spawn(2 * rows + 3)
        for i in (rows - 1, rows, 2 * rows - 1, 2 * rows, 2 * rows + 2):
            assert np.random.PCG64(children[i]).state["state"] == _seeding._state_ints(states[i])

    def test_pcg64_seeding_carries_between_limbs(self):
        # Seed words s = (s_hi, s_lo) and i = (i_hi, i_lo) at edge values and
        # at random: each carry of the limb arithmetic, and the top bit of
        # i_lo that 2i + 1 moves into the high limb, is both taken and not.
        edges = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
        random = np.random.default_rng(1).bit_generator.random_raw((200, 4)).tolist()
        words = [*itertools.product(edges, repeat=4), *map(tuple, random)]
        mask, half, mult = 2**64 - 1, 2**32 - 1, 0x2360ED051FC65DA44385DF649FCCF645
        seen = set()
        for s_hi, s_lo, i_hi, i_lo in words:
            inc = (i_hi << 64 | i_lo) * 2 + 1 & 2**128 - 1
            x = (inc + (s_hi << 64 | s_lo)) & 2**128 - 1
            x_lo, m_lo = x & mask, mult & mask
            mid = ((x_lo & half) * (m_lo & half) >> 32) + ((x_lo & half) * (m_lo >> 32) & half) \
                + ((x_lo >> 32) * (m_lo & half) & half)
            p_hi = (x_lo * m_lo >> 64) + x_lo * (mult >> 64) + (x >> 64) * m_lo
            p_lo = x_lo * m_lo & mask
            seen |= {("inc + s", (inc & mask) + s_lo > mask), ("product middle", mid > half),
                     ("product high", p_hi > mask), ("+ inc", p_lo + (inc & mask) > mask),
                     ("top of i_lo", i_lo >> 63 == 1)}
        assert len(seen) == 10  # every case with both outcomes
        states = _seeding.pcg64_states(*np.array(words, dtype=np.uint64).T)
        for row, limbs in zip(words, states, strict=True):
            bits = np.random.PCG64(_GivenWords(row))
            assert bits.state["state"] == _seeding._state_ints(limbs)

    @pytest.mark.parametrize("setter", ["in place", "public"])
    def test_draws_continue_across_uneven_step_blocks(self, monkeypatch, setter):
        # Rows 10..289 drawn as 333 + 1 + 666 steps are the rows drawn at once: each
        # block leaves its rows' PCG64 states where the next block starts, and no
        # other row's state moves.
        want = path_normals(3, 300, 1000)
        if setter == "public":  # the state written in place does not read back
            monkeypatch.setattr(_seeding, "_reads_back", lambda bits, limbs: False)
        states = numerics._path_states(3, 300, 1000)
        start = states.copy()
        blocks = [numerics._draw_rows(states, 10, 290, j0, j1).copy()
                  for j0, j1 in [(0, 333), (333, 334), (334, 1000)]]
        assert np.hstack(blocks).tobytes() == want[10:290].tobytes()
        assert states[:10].tobytes() + states[290:].tobytes() == (
            start[:10].tobytes() + start[290:].tobytes())
        assert not (states[10:290] == start[10:290]).all(axis=1).any()

    def test_one_generator_per_draw(self, monkeypatch):
        made, pcg64 = [], np.random.PCG64

        def counted(*args):
            made.append(args)
            return pcg64(*args)

        monkeypatch.setattr(np.random, "PCG64", counted)
        normals = path_normals(7, 600, 3)
        assert len(made) <= 1
        monkeypatch.undo()
        assert np.array_equal(normals[599], np.random.default_rng(
            np.random.SeedSequence(7).spawn(600)[599]).standard_normal(3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            path_normals(-1, 4, 3)

    @pytest.mark.parametrize("n_paths, n_steps", [(0, 5), (-3, 5), (4, 0), (4, -1)])
    def test_empty_or_negative_size_rejected(self, n_paths, n_steps):
        with pytest.raises(ParameterError, match="n_paths >= 1 and n_steps >= 1"):
            path_normals(7, n_paths, n_steps)

    def test_zero_diffusion_matches_euler(self):
        grid = TimeGrid(0.0, 1.0, 100)
        ens = em_paths(
            lambda t, x: -x, lambda t, x: np.zeros_like(x), 1.0, grid, 3, seed=0
        )
        # All paths identical and equal to the forward Euler recursion.
        ref = np.empty(101)
        ref[0] = 1.0
        for j in range(100):
            ref[j + 1] = ref[j] + (-ref[j]) * grid.h
        for row in ens.paths:
            np.testing.assert_allclose(row, ref, rtol=0, atol=0)

    def test_shared_normals_give_identical_paths(self):
        grid = TimeGrid(0.0, 1.0, 50)
        normals = path_normals(3, 4, 50)
        kw = dict(x0=0.5, grid=grid, n_paths=4, seed=3)
        with drawn_from(normals):
            a = em_paths(lambda t, x: 0.1 * x, lambda t, x: wright_fisher_sigma(x), **kw)
            b = em_paths(lambda t, x: 0.1 * x, lambda t, x: wright_fisher_sigma(x), **kw)
        assert np.array_equal(a.paths, b.paths)

    def test_wright_fisher_clamp(self):
        x = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
        s = wright_fisher_sigma(x)
        assert np.all(s >= 0.0) and np.all(np.isfinite(s))
        assert abs(s[2] - 0.5) < 1e-15
        assert s[0] == 0.0 and s[4] == 0.0


def _kernel_case(n_paths=50, n_steps=200, seed=5):
    """Affine drift, Wright-Fisher noise and a time-varying quadratic reward."""
    grid = TimeGrid(0.0, 1.0, n_steps)
    t = grid.times()
    alpha = -0.3 + 0.2 * np.sin(3.0 * t)
    beta = 0.4 * np.cos(t)
    g, c = 1.0 + 0.5 * t, 0.3 - 0.1 * t

    def reward(x):
        return g * (x - c) ** 2 - 0.5 * x

    rate = 0.05
    dt = np.diff(t)
    w = np.exp(-rate * t) * (np.append(dt, 0.0) + np.append(0.0, dt)) / 2.0
    m = euler_mean(alpha, beta, 0.5, grid.h)
    q0, up, down = reward(m), reward(m + 1.0), reward(m - 1.0)
    coef = [np.stack([q0, 0.5 * (up - down), 0.5 * (up + down) - q0]) * w]
    normals = path_normals(seed, n_paths, n_steps)
    return grid, alpha, beta, reward, rate, m, coef, normals


class TestStreamedKernel:
    @staticmethod
    def _allocating_march(alpha, beta, x0, h, n_paths, normals, center, coef):
        """The kernel's earlier step loop: a fresh array per operation, the drift
        stepped as x + (alpha_j x + beta_j) h, linear and quadratic terms added apart."""
        n_steps = len(alpha) - 1
        coef = np.asarray(coef, dtype=float)
        out = np.repeat(coef[:, 0].sum(axis=1)[:, None], n_paths, axis=1)
        linear = [(acc, c1) for acc, c1 in zip(out, coef[:, 1]) if c1.any()]
        quadratic = [(acc, c2) for acc, c2 in zip(out, coef[:, 2]) if c2.any()]
        sqrt_h = np.sqrt(h)
        sums = np.empty(n_steps + 1)
        x = np.full(n_paths, float(x0))

        def add_node(j):
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
            sums[j + 1] = x.sum()
            add_node(j + 1)
        return out, sums / n_paths

    @pytest.mark.parametrize("n_paths", [1, 2, 50, 2000])
    @pytest.mark.parametrize("rows", ["linear", "quadratic", "mixed", "all three"])
    @pytest.mark.parametrize("noise", [True, False])
    def test_matches_allocating_loop(self, noise, rows, n_paths):
        # The drift factors and the one accumulate per row round differently
        # from the earlier loop; 7.9e-14 of the largest value was the worst seen.
        # Without noise the program marches one path, so the noiseless loop is
        # checked on _stepper itself, over every path.
        grid, alpha, beta, _, _, m, (c,), normals = _kernel_case(n_paths=n_paths)
        kinds = {"linear": c * [[1.0], [1.0], [0.0]], "quadratic": c * [[1.0], [0.0], [1.0]],
                 "mixed": c}
        coef = list(kinds.values()) if rows == "all three" else [kinds[rows]]
        args = (alpha, beta, 0.5, grid.h, n_paths, normals if noise else None, m, coef)
        if noise:
            got = _march(*args)
        else:
            ((f, sums),) = numerics._stepper([(alpha, beta, 0.5, m, coef)], grid.h,
                                             grid.n_steps, 0, n_paths, None)
            got = f, sums / n_paths
        for new, old in zip(got, self._allocating_march(*args)):
            _close(new, old)

    def test_march_writes_no_input_and_repeats_bit_for_bit(self):
        # min_k_meanfield feeds one normals matrix to every march it makes.
        grid, alpha, beta, _, _, m, (c,), normals = _kernel_case()
        coef = [c, c * [[1.0], [1.0], [0.0]], c * [[0.0], [0.0], [1.0]]]
        inputs = [normals, alpha, beta, m, *coef]
        before = [a.tobytes() for a in inputs]
        runs = [_march(alpha, beta, 0.5, grid.h, 50, normals, m, coef) for _ in "ab"]
        assert [a.tobytes() for a in inputs] == before
        for first, second in zip(*runs):
            assert first.tobytes() == second.tobytes()

    def test_payoff_matches_trapezoid_of_full_paths(self):
        grid, alpha, beta, reward, rate, m, coef, normals = _kernel_case()
        t = grid.times()
        (payoff,), mean = _march(
            alpha, beta, 0.5, grid.h, 50, normals, m, coef
        )
        with drawn_from(normals):
            ens = em_paths(
                lambda s, x: np.interp(s, t, alpha) * x + np.interp(s, t, beta),
                lambda s, x: wright_fisher_sigma(x), 0.5, grid, 50, seed=5,
            )
        y = np.exp(-rate * t) * reward(ens.paths)
        reference = (np.diff(t) * (y[:, 1:] + y[:, :-1]) / 2.0).sum(axis=1)  # the trapezoid rule
        np.testing.assert_allclose(payoff, reference, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(mean, ens.paths.mean(axis=0), rtol=1e-13, atol=0.0)

    def test_per_path_outputs_are_chunk_invariant(self):
        grid, alpha, beta, _, _, m, coef, normals = _kernel_case(n_paths=8)
        many, _ = _march(alpha, beta, 0.5, grid.h, 8, normals, m, coef)
        few, _ = _march(
            alpha, beta, 0.5, grid.h, 3, path_normals(5, 3, grid.n_steps), m, coef
        )
        assert np.array_equal(many[:, :3], few)

    def test_zero_noise_path_is_the_euler_mean(self):
        grid, alpha, beta, _, _, m, coef, _ = _kernel_case()
        zero = np.zeros_like(m)
        stack = [[zero, np.ones_like(m), zero], [zero, zero, np.ones_like(m)]]
        (lin, quad), mean = _march(alpha, beta, 0.5, grid.h, 4, None, m, stack)
        assert np.array_equal(mean, m)
        assert np.all(lin == 0.0) and np.all(quad == 0.0)

    def test_non_finite_state_names_path_and_step(self):
        # Paths `first` and on turn non-finite at `step`.  The state sits in
        # the march's first buffer after an even step, in the other after an odd one.
        for first, step in [(4, 10), (3, 13)]:
            grid, alpha, beta, _, _, m, coef, normals = _kernel_case(n_paths=6, n_steps=50)
            normals[first:, step - 1] = np.nan
            normals[1, 20] = np.nan
            with pytest.raises(SimulationBlowupError) as streamed:
                _march(alpha, beta, 0.5, grid.h, 6, normals, m, coef)
            assert (streamed.value.path_index, streamed.value.step) == (first, step)
            with drawn_from(normals), pytest.raises(SimulationBlowupError) as full:
                em_paths(lambda s, x: 0.0 * x, lambda s, x: wright_fisher_sigma(x), 0.5,
                         grid, 6, seed=5)
            assert (full.value.path_index, full.value.step) == (first, step)


def _split_rows(c):
    """A payoff row with its certainty-equivalent and variance-channel parts."""
    return [c, c * [[1.0], [1.0], [0.0]], c * [[0.0], [0.0], [1.0]]]


def _one_march(march, h, n_steps, lo, hi, z):
    """Oracle for numerics._stepper: the step loop of a single march, its factors as Python floats.

    Returns the march's (F, per-step sums); raises SimulationBlowupError at
    the first step that leaves a path non-finite, naming the first such path.
    """
    alpha, beta, x0, center, coef = march
    coef = np.asarray(coef, dtype=float)
    out = np.repeat(coef[:, 0].sum(axis=1)[:, None], hi - lo, axis=1)
    rows = [(out[k], c1.tolist() if c1.any() else None, c2.tolist() if c2.any() else None)
            for k, (c1, c2) in enumerate(zip(coef[:, 1], coef[:, 2])) if c1.any() or c2.any()]
    drift_a, drift_b = (1.0 + alpha[:-1] * h).tolist(), (beta[:-1] * h).tolist()
    centers, sqrt_h = center.tolist(), math.sqrt(h)
    sums = np.empty(n_steps + 1)
    x = np.full(hi - lo, float(x0))

    def add_node(j):
        d = x - centers[j]
        for acc, c1, c2 in rows:
            if c2 is None:
                acc += d * c1[j]
            elif c1 is None:
                acc += d * c2[j] * d
            else:
                acc += (d * c2[j] + c1[j]) * d

    sums[0] = x.sum()
    add_node(0)
    for j in range(n_steps):
        x_next = x * drift_a[j] + drift_b[j]
        if z is not None:
            x_next += np.sqrt(np.maximum(0.0, (1.0 - x) * x)) * sqrt_h * z[:, j]
        x = x_next
        sums[j + 1] = x.sum()
        if not math.isfinite(sums[j + 1]):
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                raise SimulationBlowupError(path_index=lo + int(bad[0]), step=j + 1)
        add_node(j + 1)
    return out, sums


class TestStackedMarches:
    """_stepper steps consecutive marches of one shape as one (K, m) state, at most
    _BLOCK // m of them at a time; every value and error is one march's at a time."""

    N_STEPS = 40

    @classmethod
    def _marches(cls, kind, K=10):
        """K marches of one kind, each with its own drift, start and centre."""
        grid, alpha, beta, _, _, m, (c,), _ = _kernel_case(n_paths=2, n_steps=cls.N_STEPS)
        zero = np.zeros_like(m)
        coef = {"payoff": [c], "split": _split_rows(c), "feedback": [[zero, c[1], zero]]}[kind]
        return [((1.0 + 0.1 * i) * alpha, beta - 0.05 * i, 0.5 - 0.02 * i, m + 0.01 * i, coef)
                for i in range(K)], grid.h

    @pytest.mark.parametrize("m", [129, 1001, 4999, 5000, 8193, 10_000, 16_384, 16_385, 20_000])
    def test_row_sums_are_each_rows_own_sum(self, m):
        # The per-step sums of a stacked state are x.sum(axis=1); each must
        # have the bits of the row's own pairwise sum.
        rng = np.random.default_rng(m)
        x = rng.standard_normal((7, m)) * np.exp(rng.uniform(-20.0, 20.0, (7, m)))
        out = np.empty((7, 3))
        x.sum(axis=1, out=out[:, 1])
        assert [row.sum() for row in x] == out[:, 1].tolist()

    @pytest.mark.parametrize("m", [129, 4999, 5000])
    @pytest.mark.parametrize("kind", ["payoff", "split", "feedback"])
    @pytest.mark.parametrize("group", [1, 3, 10, None])
    def test_matches_one_march_at_a_time(self, monkeypatch, m, kind, group):
        marches, h = self._marches(kind)
        z = path_normals(7, m + 100, self.N_STEPS)[100:]  # paths [100, m + 100)
        want = [_one_march(march, h, self.N_STEPS, 100, m + 100, z) for march in marches]
        if group is not None:  # groups of `group` marches, else _BLOCK's own
            monkeypatch.setattr(numerics, "_BLOCK", group * m)
        for K in range(1, 11):
            got = numerics._stepper(marches[:K], h, self.N_STEPS, 100, m + 100, z)
            assert len(got) == K
            for (f, sums), (f_one, sums_one) in zip(got, want):
                assert f.tobytes() == f_one.tobytes() and sums.tobytes() == sums_one.tobytes()

    def test_marches_of_another_shape_march_apart(self):
        # payoff, split, split, feedback, payoff: a group ends where the rows change.
        marches = [self._marches(kind, 1)[0][0]
                   for kind in ("payoff", "split", "split", "feedback", "payoff")]
        h, z = 1.0 / self.N_STEPS, path_normals(3, 300, self.N_STEPS)
        got = numerics._stepper(marches, h, self.N_STEPS, 0, 300, z)
        for (f, sums), march in zip(got, marches, strict=True):
            f_one, sums_one = _one_march(march, h, self.N_STEPS, 0, 300, z)
            assert f.tobytes() == f_one.tobytes() and sums.tobytes() == sums_one.tobytes()

    @pytest.mark.parametrize("group", [1, 3, None])
    def test_step_blocks_match_one_unblocked_march(self, monkeypatch, group):
        # With a draw for blocks of steps, the groups march each block in lockstep
        # on one draw: uneven blocks give every bit of F and of the sums.
        marches, h = self._marches("split")
        z = path_normals(7, 300, self.N_STEPS)
        if group is not None:  # groups of `group` marches, else one group of all ten
            monkeypatch.setattr(numerics, "_BLOCK", group * 300)
        want = numerics._stepper(marches, h, self.N_STEPS, 0, 300, z)
        edges, drawn = [0, 7, 8, 21, self.N_STEPS], []

        def draw(j0):
            drawn.append(j0)
            return z[:, j0 : edges[edges.index(j0) + 1]]

        got = numerics._stepper(marches, h, self.N_STEPS, 0, 300, draw)
        assert drawn == edges[:-1]  # each block is drawn once for every group
        for (f, sums), (f_one, sums_one) in zip(got, want, strict=True):
            assert f.tobytes() == f_one.tobytes() and sums.tobytes() == sums_one.tobytes()

    def test_later_groups_blowup_in_an_earlier_step_block_is_the_first_marchs(
            self, monkeypatch):
        # Groups of two over blocks of ten steps: march 3, in the second group,
        # leaves at step 5, in the first block; march 0 leaves at step 30, in the
        # third.  March 0's error is raised, as marching one at a time raises it.
        marches, h = self._marches("payoff", 5)
        marches = [(alpha, beta.copy(), *rest) for alpha, beta, *rest in marches]
        marches[3][1][4] = np.nan
        marches[0][1][29] = np.nan
        z = path_normals(7, 300, self.N_STEPS)
        with pytest.raises(SimulationBlowupError) as one:
            for march in marches:
                _one_march(march, h, self.N_STEPS, 0, 300, z)
        assert (one.value.path_index, one.value.step) == (0, 30)
        monkeypatch.setattr(numerics, "_BLOCK", 2 * 300)
        with pytest.raises(SimulationBlowupError) as err:
            numerics._stepper(marches, h, self.N_STEPS, 0, 300,
                              lambda j0: z[:, j0 : min(j0 + 10, self.N_STEPS)])
        assert (err.value.path_index, err.value.step) == (0, 30)

    @pytest.mark.parametrize("noise_at, beta_at, first", [
        ((117, 30), {}, (117, 30)),  # every march leaves at once: march 0's
        ((117, 30), {2: 10}, (117, 30)),  # march 2 leaves first, march 0's is raised
        ((117, 30), {0: 25, 2: 10}, (100, 25)),  # march 0 leaves before the noise does
        (None, {1: 20, 3: 5}, (100, 20)),  # march 0 stays finite, march 1 is the first
    ])
    def test_blowup_is_the_first_marchs(self, monkeypatch, noise_at, beta_at, first):
        # Paths [100, 400); a NaN drift at node j - 1 turns every path of its march at step j.
        marches, h = self._marches("payoff", 5)
        marches = [(alpha, beta.copy(), *rest) for alpha, beta, *rest in marches]
        for i, step in beta_at.items():
            marches[i][1][step - 1] = np.nan
        z = path_normals(7, 400, self.N_STEPS)[100:]
        if noise_at is not None:
            z[noise_at[0] - 100, noise_at[1] - 1] = np.nan
        with pytest.raises(SimulationBlowupError) as one:
            for march in marches:
                _one_march(march, h, self.N_STEPS, 100, 400, z)
        assert (one.value.path_index, one.value.step) == first
        for group in (1, 2, 5):
            monkeypatch.setattr(numerics, "_BLOCK", group * 300)
            with pytest.raises(SimulationBlowupError) as err:
                numerics._stepper(marches, h, self.N_STEPS, 100, 400, z)
            assert (err.value.path_index, err.value.step) == first


class TestTwoProcesses:
    """A forked child fills the second half of large ensembles; nothing else may change."""

    @staticmethod
    def _one_process(processes, fn):
        processes.cpus(1)
        try:
            return fn()
        finally:
            processes.cpus(2)

    def test_pairwise_split_sum_identity(self):
        # numpy sums more than 128 contiguous floats as sum(x[:s]) + sum(x[s:]),
        # s = _pairwise_split(n).  The two-process march adds its halves'
        # per-step sums on that premise; a numpy that splits elsewhere fails here.
        rng = np.random.default_rng(0)
        moved = 0
        for n in [*range(129, 1200), 4097, 20_000, 40_000, 40_003]:
            x = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))
            s = numerics._pairwise_split(n)
            assert x[:s].sum() + x[s:].sum() == x.sum(), f"numpy's pairwise split moved at n={n}"
            moved += x[: s + 8].sum() + x[s + 8 :].sum() != x.sum()
        assert moved > 500  # the data tells a split 8 elements off from numpy's

    @pytest.mark.parametrize("n_paths", [129, 1000, 1003])
    def test_normals_match_one_process(self, processes, n_paths):
        # The marches draw their own halves; the whole matrix is drawn in this process.
        one = self._one_process(processes, lambda: path_normals(9, n_paths, 7))
        two = path_normals(9, n_paths, 7)
        assert processes.forks == []
        assert two.tobytes() == one.tobytes()
        assert two[:, 3].flags.c_contiguous

    @pytest.mark.parametrize("n_paths", [129, 1000, 1003])
    @pytest.mark.parametrize("rows", ["one", "split"])
    @pytest.mark.parametrize("noise", [True, False])
    def test_march_matches_one_process(self, processes, noise, rows, n_paths):
        # Without noise the program marches one path and never forks, so the
        # noiseless case is seeded and starts at 1.5: every path stays above 1,
        # where sqrt(max(0, x (1 - x))) is exactly 0, and all paths are one.
        grid, alpha, beta, _, _, m, (c,), normals = _kernel_case(n_paths=n_paths, n_steps=60)
        coef = _split_rows(c) if rows == "split" else [c]
        x0 = 0.5 if noise else 1.5
        if not noise:
            m = euler_mean(alpha, beta, x0, grid.h)
        args = (alpha, beta, x0, grid.h, n_paths, normals, m, coef)
        one = self._one_process(processes, lambda: _march(*args))
        before = len(processes.forks)
        two = _march(*args)
        assert len(processes.forks) == before + 1
        for forked, single in zip(two, one):
            assert forked.tobytes() == single.tobytes()
        if not noise:  # every path's functionals are the first path's
            assert np.all(two[0] == two[0][:, :1])

    @staticmethod
    def _march_case(processes):
        """300 paths (split at 144) and the split payoff rows."""
        grid, alpha, beta, _, _, m, (c,), normals = _kernel_case(n_paths=300, n_steps=40)
        processes.forks.clear()
        return (alpha, beta, 0.5, grid.h, 300, normals, m, _split_rows(c))

    def test_failed_fork_runs_in_process(self, processes, monkeypatch):
        args = self._march_case(processes)
        want = self._one_process(processes, lambda: _march(*args))

        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        for got, single in zip(_march(*args), want):
            assert got.tobytes() == single.tobytes()
        assert path_normals(5, 300, 40).tobytes() == args[5].tobytes()

    def test_child_exiting_non_zero_reruns_in_process(self, processes, monkeypatch):
        args = self._march_case(processes)
        want = self._one_process(processes, lambda: _march(*args))
        failed = []

        def failing_fork():
            pid = processes.real_fork()
            if pid == 0:
                os._exit(3)  # before any work: the shared buffers keep their zeros
            failed.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", failing_fork)
        for got, single in zip(_march(*args), want):
            assert got.tobytes() == single.tobytes()
        assert path_normals(5, 300, 40).tobytes() == args[5].tobytes()
        assert len(failed) == 1

    @pytest.mark.parametrize("paths, first", [
        ({200: 13, 250: 30}, (200, 13)),  # only the child's half fails
        ({5: 20, 250: 10}, (250, 10)),  # both fail, the child's half first
        ({5: 9, 250: 10}, (5, 9)),  # both fail, this process's half first
    ])
    def test_blowup_names_path_and_step_of_one_process(self, processes, paths, first):
        # Paths 0..143 march here, 144..299 in the child.
        args = self._march_case(processes)
        for path, step in paths.items():
            args[5][path, step - 1] = np.nan
        for forked in (False, True):
            processes.cpus(2 if forked else 1)
            with pytest.raises(SimulationBlowupError) as err:
                _march(*args)
            assert (err.value.path_index, err.value.step) == first
        assert len(processes.forks) == 1

    def test_overflow_raises_floating_point_error(self, processes):
        alpha, beta, x0, h, n, normals, m, (c, *_) = self._march_case(processes)
        alpha = alpha + 1e300
        for forked in (False, True):
            processes.cpus(2 if forked else 1)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                _march(alpha, beta, x0, h, n, normals, m, [c])
        assert len(processes.forks) == 1

    def test_sum_only_the_whole_ensemble_overflows(self, processes):
        # 300 paths held at 1e306, where the clamp zeroes the seeded noise: each
        # half's sum (1.44e308, 1.56e308) is finite, the whole one is not.  One
        # process raises under errstate and reads inf without it; two processes
        # must do the same.
        n = 40
        alpha, beta, big = np.zeros(n + 1), np.zeros(n + 1), np.full(n + 1, 1e306)
        coef = [[np.zeros(n + 1), np.ones(n + 1), np.zeros(n + 1)]]
        args = (alpha, beta, 1e306, 1.0 / n, 300, path_normals(5, 300, n), big, coef)
        for forked in (False, True):
            processes.cpus(2 if forked else 1)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                _march(*args)
            with np.errstate(over="ignore"):
                _, mean = _march(*args)
            assert np.all(mean == np.inf)
        assert len(processes.forks) == 2

    def test_no_child_is_left(self, processes):
        args = self._march_case(processes)
        _march(*args[:5], 5, *args[6:])  # the seed that stands for args[5]
        _march(*args)
        args[5][200, 3] = np.nan
        with pytest.raises(SimulationBlowupError):
            _march(*args)
        assert len(processes.forks) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_is_killed_when_this_side_raises(self, processes):
        def here(line):
            raise ValueError("this side failed")

        start = time.monotonic()
        with pytest.raises(ValueError, match="this side failed"):
            numerics._in_two(here, lambda line: time.sleep(60.0))
        assert time.monotonic() - start < 30.0
        assert len(processes.forks) == 1

    def test_line_carries_more_than_a_pipe_buffer(self, processes):
        # 2^17 floats are 1 MiB, sixteen 64 KiB pipe buffers, each way.
        values = np.random.default_rng(3).standard_normal(1 << 17)
        values[:5] = [-0.0, np.inf, -np.inf, np.nan, 5e-324]

        def there(line):  # answers only what arrived whole, so neither side waits forever
            got = line.receive(len(values))
            if got is not None and got.tobytes() == values.tobytes():
                line.send(values[::-1])

        def here(line):
            line.send(values)
            return line.receive(len(values)), line.receive()

        back, after = numerics._in_two(here, there)
        assert back is not None and back.tobytes() == values[::-1].tobytes()
        assert after is None  # the child has ended and closed its end
        assert len(processes.forks) == 1

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="the child can leave this process's CPU only with two CPUs")
    @pytest.mark.parametrize("readable", [True, False])
    def test_child_runs_on_the_other_cpus(self, monkeypatch, readable):
        # The child reports its affinity on its line: this process's CPUs but the
        # one it ran on at the fork, or all of them where that CPU is unknown.
        cpus, this_cpu, read = os.sched_getaffinity(0), numerics._this_cpu, []

        def cpu():
            read.append(this_cpu() if readable else None)
            return read[-1]

        def there(line):
            mask = sorted(os.sched_getaffinity(0))
            line.send(len(mask), mask)

        def here(line):
            return set(np.atleast_1d(line.receive(int(line.receive()))).astype(int).tolist())

        monkeypatch.setattr(numerics, "_this_cpu", cpu)
        child = numerics._in_two(here, there)
        assert len(read) == 1 and (read[0] in cpus) == readable
        assert child == cpus - {read[0]}
        assert os.sched_getaffinity(0) == cpus  # this process's own mask never changes

    def test_small_ensembles_and_one_cpu_stay_in_process(self, processes, monkeypatch):
        marches, h, _ = self._seed_case(300, 40)
        _em_functionals(marches, h, 128, 5)  # within numpy's unsplit pairwise block
        processes.cpus(1)
        _em_functionals(marches, h, 300, 5)
        monkeypatch.delattr(os, "sched_getaffinity")
        _em_functionals(marches, h, 300, 5)
        assert processes.forks == []

    # A seed instead of a matrix: each process draws its own half's rows of
    # path_normals(seed, ...) and runs every march of the call on them.

    @staticmethod
    def _seed_case(n_paths, n_steps, rows="split"):
        """Two marches on _kernel_case's grid, its step, and the matrix that seed 5 stands for."""
        grid, alpha, beta, _, _, m, (c,), normals = _kernel_case(n_paths=n_paths, n_steps=n_steps)
        coef = _split_rows(c) if rows == "split" else [c]
        marches = [(alpha, beta, 0.5, m, coef), (0.5 * alpha, beta - 0.1, 0.3, m, coef)]
        return marches, grid.h, normals

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for march, single in zip(got, want):
            for forked, one in zip(march, single):
                assert forked.tobytes() == one.tobytes()

    @pytest.mark.parametrize("n_paths", [129, 1000, 1003])
    @pytest.mark.parametrize("rows", ["one", "split"])
    def test_seed_matches_the_matrix_it_stands_for(self, processes, rows, n_paths):
        marches, h, normals = self._seed_case(n_paths, 60, rows)
        want = self._one_process(processes, lambda: _functionals(marches, h, n_paths, normals))
        for cpus in (1, 2):
            processes.cpus(cpus)
            processes.forks.clear()
            self._same(_em_functionals(marches, h, n_paths, 5), want)
            assert len(processes.forks) == cpus - 1  # one fork draws and runs both marches

    def test_answer_larger_than_a_pipe_buffer_is_joined(self, processes, monkeypatch):
        # At 6,000 paths the child marches 3,008 and answers each march with
        # their three functionals and its per-step sums: 72 KB, more than one
        # 64 KiB pipe buffer.  The answer is joined, not given up, so this
        # process draws only its own half.
        marches, h, normals = self._seed_case(6000, 20)
        want = self._one_process(processes, lambda: _functionals(marches, h, 6000, normals))
        draw, draws = numerics._draw_rows, []

        def counted(states, lo, hi, j0, j1, buffer=None):
            draws.append((lo, hi))
            return draw(states, lo, hi, j0, j1, buffer)

        monkeypatch.setattr(numerics, "_draw_rows", counted)
        for cpus in (1, 2):
            processes.cpus(cpus)
            processes.forks.clear()
            draws.clear()
            self._same(_em_functionals(marches, h, 6000, 5), want)
            assert draws == ([(0, 6000)] if cpus == 1 else [(0, numerics._pairwise_split(6000))])
            assert len(processes.forks) == cpus - 1

    def test_public_setter_draws_the_same_bits(self, processes, monkeypatch):
        # Where the state written in place does not read back (another numpy
        # layout), every row's state goes through PCG64's public setter.
        marches, h, normals = self._seed_case(300, 40)
        in_place = {}
        for cpus in (1, 2):
            processes.cpus(cpus)
            in_place[cpus] = _em_functionals(marches, h, 300, 5)
        checks = []

        def fails(bits, limbs):
            checks.append(limbs)
            return False

        monkeypatch.setattr(_seeding, "_reads_back", fails)
        assert path_normals(5, 300, 40).tobytes() == normals.tobytes()
        for cpus in (1, 2):
            processes.cpus(cpus)
            self._same(_em_functionals(marches, h, 300, 5), in_place[cpus])
        assert len(checks) == 3  # path_normals, the one-CPU call and this process's half

    @staticmethod
    def _poison_draws(monkeypatch, paths):
        """Makes the drawn normal of each path at each step NaN, in whichever process draws it."""
        draw = numerics._draw_rows

        def poisoned(states, lo, hi, j0, j1, buffer=None):
            z = draw(states, lo, hi, j0, j1, buffer)
            for path, step in paths.items():
                if lo <= path < hi and j0 < step <= j1:
                    z[path - lo, step - 1 - j0] = np.nan
            return z

        monkeypatch.setattr(numerics, "_draw_rows", poisoned)

    @pytest.mark.parametrize("paths, first", [
        ({200: 13}, (200, 13)),  # only the child's half fails
        ({5: 9}, (5, 9)),  # only this process's half fails
        ({5: 20, 250: 10}, (250, 10)),  # both fail, the child's half first
    ])
    def test_seeded_blowup_names_path_and_step_of_one_process(
            self, processes, monkeypatch, paths, first):
        # Paths 0..143 are drawn and marched here, 144..299 in the child.
        marches, h, _ = self._seed_case(300, 40)
        processes.forks.clear()
        self._poison_draws(monkeypatch, paths)
        for cpus in (1, 2):
            processes.cpus(cpus)
            with pytest.raises(SimulationBlowupError) as err:
                _em_functionals(marches, h, 300, 5)
            assert (err.value.path_index, err.value.step) == first
            with pytest.raises(ChildProcessError):  # the child is reaped
                os.waitpid(-1, os.WNOHANG)
        assert len(processes.forks) == 1

    def test_seeded_sum_only_the_whole_ensemble_overflows(self, processes, monkeypatch):
        # test_sum_only_the_whole_ensemble_overflows with seeded noise, which the
        # clamp zeroes at 1e306.  Each half's sums are finite and their join is
        # not, so the whole call is drawn and marched again in this process.
        n = 40
        big = (np.zeros(n + 1), np.zeros(n + 1), 1e306, np.full(n + 1, 1e306),
               [[np.zeros(n + 1), np.ones(n + 1), np.zeros(n + 1)]])
        draw, draws = numerics._draw_rows, []

        def counted(states, lo, hi, j0, j1, buffer=None):
            draws.append((lo, hi - lo))
            return draw(states, lo, hi, j0, j1, buffer)

        monkeypatch.setattr(numerics, "_draw_rows", counted)
        for cpus in (1, 2):
            processes.cpus(cpus)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                _em_functionals([big], 1.0 / n, 300, 5)
            draws.clear()
            with np.errstate(over="ignore"):
                ((_, mean),) = _em_functionals([big], 1.0 / n, 300, 5)
            assert np.all(mean == np.inf)
            # This process's draws: the whole, or its half and then the whole.
            assert draws == ([(0, 300)] if cpus == 1 else [(0, 144), (0, 300)])
        assert len(processes.forks) == 2

    @pytest.mark.parametrize("failure", ["fork", "child"])
    def test_seeded_failed_fork_or_child_runs_in_process(self, processes, monkeypatch, failure):
        marches, h, normals = self._seed_case(300, 40)
        want = self._one_process(processes, lambda: _functionals(marches, h, 300, normals))
        failed = []

        def failing_fork():
            if failure == "fork":
                raise OSError("no more processes")
            pid = processes.real_fork()
            if pid == 0:
                os._exit(3)  # before drawing or marching anything
            failed.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", failing_fork)
        self._same(_em_functionals(marches, h, 300, 5), want)
        assert len(failed) == (failure == "child")

    def test_failed_pipe_runs_in_process(self, processes, monkeypatch):
        # Without a pipe to the child there is no child: every call gives the
        # one-process values, and none of them forks.
        marches, h, normals = self._seed_case(300, 40)
        want = self._one_process(processes, lambda: _functionals(marches, h, 300, normals))
        processes.forks.clear()

        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        self._same(_em_functionals(marches, h, 300, 5), want)
        self._same(_functionals(marches, h, 300, normals), want)
        assert path_normals(5, 300, 40).tobytes() == normals.tobytes()
        assert processes.forks == []

    def test_single_use_calls_fork_once_and_match_one_process(self, processes, mfg):
        # mc_payoffs, the Euler checks and follower_feedback_check own their
        # noise: one fork each (mc_payoffs forked 3 times when it drew the
        # matrix first, follower_feedback_check twice), and the one-process
        # values.  The seeded kernel's values are the shared matrix's
        # (test_seed_matches_the_matrix_it_stands_for).
        mc = meanfield.McConfig(n_paths=300, n_steps=40, seed=5)
        sol = meanfield.mean_field_bvp(mfg, TimeGrid(0.0, mfg.T, mc.n_steps))
        v = np.ones(mc.n_steps + 1)
        calls = [
            lambda: meanfield.mc_payoffs(mfg, 0.5, mc, sol=sol),
            lambda: meanfield.euler_condition_check(mfg, sol["u0_star"], v, mc).samples.tobytes(),
            lambda: meanfield.follower_euler_check(mfg, sol, v, mc).samples.tobytes(),
            lambda: meanfield.follower_feedback_check(mfg, sol, mc),
        ]
        for call in calls:
            one = self._one_process(processes, call)
            processes.forks.clear()
            assert call() == one
            assert len(processes.forks) == 1

    # A single-use call streams its normals: each process draws and marches
    # its paths block by block, at the leaves of numpy's pairwise-sum tree.

    @staticmethod
    def _count_draws(monkeypatch):
        """The (lo, hi) of every draw this process makes, in order."""
        draw, draws = numerics._draw_rows, []

        def counted(states, lo, hi, j0, j1, buffer=None):
            draws.append((lo, hi))
            return draw(states, lo, hi, j0, j1, buffer)

        monkeypatch.setattr(numerics, "_draw_rows", counted)
        return draws

    @staticmethod
    def _blocks_of(monkeypatch, m, n_steps, blocks):
        """Sets the block budget so that m paths make 1, 2 or at least 4 blocks."""
        monkeypatch.setattr(numerics, "_STREAM_MIN_PATHS", 256)
        most = {1: m, 2: m - numerics._pairwise_split(m), 4: m // 4}[blocks]
        monkeypatch.setattr(numerics, "_STREAM_DRAWS", most * n_steps)

    @pytest.mark.parametrize("n_paths", [10_001, 2**15 + 3])
    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_streamed_blocks_match_one_march(self, monkeypatch, n_paths, blocks):
        marches, h, normals = self._seed_case(n_paths, 20)
        want = numerics._stepper(marches, h, 20, 0, n_paths, normals)
        self._blocks_of(monkeypatch, n_paths, 20, blocks)
        draws = self._count_draws(monkeypatch)
        got = numerics._streamed(marches, h, 20, numerics._path_states(5, n_paths, 20), 0, n_paths)
        assert len(draws) == blocks if blocks < 4 else len(draws) >= 4
        assert [lo for lo, _ in draws] == sorted(lo for lo, _ in draws)
        assert draws[0][0] == 0 and draws[-1][1] == n_paths
        self._same(got, want)

    def test_streamed_leaf_cuts_its_steps(self, monkeypatch):
        # A leaf of 3,001 paths that may not split draws blocks of 7, 7 and 6 steps
        # into one buffer, and leaves the states as it found them.
        marches, h, normals = self._seed_case(3001, 20)
        want = numerics._stepper(marches, h, 20, 0, 3001, normals)
        monkeypatch.setattr(numerics, "_STREAM_DRAWS", 7 * 3001)
        draws, states = self._count_draws(monkeypatch), numerics._path_states(5, 3001, 20)
        start = states.copy()
        got = numerics._streamed(marches, h, 20, states, 0, 3001)
        assert draws == [(0, 3001)] * 3 and states.tobytes() == start.tobytes()
        self._same(got, want)

    @pytest.mark.parametrize("n_paths", [10_001, 2**15 + 3])
    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_streamed_call_matches_held_normals(self, processes, monkeypatch, n_paths, blocks):
        # _em_functionals streams; a session's second request marches on held
        # normals.  Both give every bit of F and of the mean, on one CPU and on
        # two, where each process cuts its own paths into blocks.
        marches, h, _ = self._seed_case(n_paths, 20)
        draws = self._count_draws(monkeypatch)
        for cpus in (1, 2):
            processes.cpus(cpus)
            ours = n_paths if cpus == 1 else numerics._pairwise_split(n_paths)
            self._blocks_of(monkeypatch, ours, 20, blocks)
            held = numerics._march_held(n_paths, 20, h, 5, lambda request: marches,
                                        lambda march: march((0.0,)) and march((0.0,)))
            draws.clear()
            self._same(_em_functionals(marches, h, n_paths, 5), held)
            assert len(draws) == blocks if blocks < 4 else len(draws) >= 4
            assert draws[-1][1] == ours

    def test_blowup_in_the_last_block_is_the_one_process_error(self, processes, monkeypatch):
        # The last block's path leaves at step 7, a first block's path at step 12:
        # the first block raises its own error, and one process reruns the whole.
        n_paths = 10_001
        marches, h, _ = self._seed_case(n_paths, 20)
        self._poison_draws(monkeypatch, {3: 12, 5100: 12, n_paths - 1: 7})
        draws = self._count_draws(monkeypatch)
        for cpus in (1, 2):
            processes.cpus(cpus)
            self._blocks_of(monkeypatch, n_paths // cpus, 20, 4)
            draws.clear()
            with pytest.raises(SimulationBlowupError) as err:
                _em_functionals(marches, h, n_paths, 5)
            assert (err.value.path_index, err.value.step) == (n_paths - 1, 7)
            assert len(draws) >= 2 and draws[-1] == (0, n_paths)  # blocks, then the whole
            with pytest.raises(ChildProcessError):  # the child is reaped
                os.waitpid(-1, os.WNOHANG)

    def test_streamed_sum_only_the_whole_ensemble_overflows(self, processes, monkeypatch):
        # test_seeded_sum_only_the_whole_ensemble_overflows in blocks of 72 to 84
        # paths, each drawn one step at a time: every block's sums are finite, and
        # the whole call is drawn and marched again in this process once their
        # join is not.
        n = 40
        big = (np.zeros(n + 1), np.zeros(n + 1), 1e306, np.full(n + 1, 1e306),
               [[np.zeros(n + 1), np.ones(n + 1), np.zeros(n + 1)]])
        monkeypatch.setattr(numerics, "_STREAM_MIN_PATHS", 72)
        monkeypatch.setattr(numerics, "_STREAM_DRAWS", 1)
        draws = self._count_draws(monkeypatch)
        for cpus in (1, 2):
            processes.cpus(cpus)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                _em_functionals([big], 1.0 / n, 300, 5)
            draws.clear()
            with np.errstate(over="ignore"):
                ((_, mean),) = _em_functionals([big], 1.0 / n, 300, 5)
            assert np.all(mean == np.inf)
            blocks = [(0, 72), (72, 144)] + [(144, 216), (216, 300)] * (cpus == 1)
            assert draws == [block for block in blocks for _ in range(n)] + [(0, 300)]

    def test_single_use_call_never_holds_its_normals(self, processes):
        # On one CPU, 2^15 + 3 paths x 250 steps are 65.5 MB of normals.  Streamed,
        # the call's allocations peak at its block buffer (32 MiB, of which each
        # block touches 8 MB) and some MB of states, functionals and sums.
        n_paths, n_steps = 2**15 + 3, 250
        marches, h, _ = self._seed_case(300, n_steps)
        processes.cpus(1)
        tracemalloc.start()
        try:
            _em_functionals(marches, h, n_paths, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20 < 8 * n_paths * n_steps


def test_every_fork_goes_through_in_two():
    # The README's rule: one scoped call forks, opens the pipes and ends the
    # child; no process pool, no shared memory, nothing pickled.
    class Finder(ast.NodeVisitor):
        def __init__(self, module):
            self.where, self.hits = [module], []

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in (
                    "fork", "forkpty", "pipe", "_exit"):
                self.hits.append((".".join(self.where), f"os.{node.attr}"))
            self.generic_visit(node)

        def visit_Import(self, node):
            for alias in node.names:
                self.hits.append((".".join(self.where), f"import {alias.name}"))

        def visit_ImportFrom(self, node):
            for alias in node.names:
                self.hits.append((".".join(self.where), f"from {node.module} import {alias.name}"))

    hits = []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        finder = Finder(path.stem)
        finder.visit(ast.parse(path.read_text()))
        hits += finder.hits
    names = {"mmap", "pickle", "multiprocessing", "concurrent", "fork", "forkpty", "pipe", "_exit"}
    forking = [(where, what) for where, what in hits
               if what.startswith("os.") or names & set(re.split(r"[ .]", what))]
    assert sorted(forking) == [("numerics._in_two", "os._exit"), ("numerics._in_two", "os._exit"),
                               ("numerics._in_two", "os.fork"), ("numerics._in_two", "os.pipe")]
