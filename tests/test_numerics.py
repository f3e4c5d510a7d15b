"""Unit tests for the shared deterministic/stochastic numerical kernels."""

import numpy as np
import pytest

from stackgame import numerics
from stackgame.errors import (
    BracketError,
    ConfigurationError,
    IllPosedBVPError,
    IntegrationBlowupError,
    ParameterError,
    SimulationBlowupError,
    SpectralError,
)
from stackgame.numerics import (
    AffineSystem,
    TimeGrid,
    _em_functionals,
    eig_2x2,
    em_paths,
    euler_mean,
    find_root_bisect,
    path_normals,
    quad_simpson,
    rk4_solve_general,
    solve_affine_bvp,
    wright_fisher_sigma,
)


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
            dimension=1,
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
        dimension=2,
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
        traj = solve_affine_bvp(AffineSystem(3, self.M, v, boundary), grid)
        oracle = closure_bvp(self.M, self._interp_offset(grid, v), boundary, grid)
        for i in range(3):
            _close(traj[f"x{i}"], oracle[:, i])

    def test_initial_value_solve_matches_callbacks(self):
        # All constraints at t0: the two-point solve is an initial-value march.
        grid = TimeGrid(0.0, 2.0, 500)
        v = self._node_offset(grid)
        offset = self._interp_offset(grid, v)
        traj = solve_affine_bvp(AffineSystem(3, self.M, v, [(0, "t0", 1.0), (1, "t0", 0.0),
                                                            (2, "t0", -1.0)]), grid)
        oracle = rk4_solve_general(lambda t, y: self.M @ y + offset(t), [1.0, 0.0, -1.0], grid)
        for i in range(3):
            _close(traj[f"x{i}"], oracle[:, i])

    @staticmethod
    def _indexed_march(system, grid, y0):
        """The step-by-step march: one product with the step map per step."""
        step, c = numerics._rk4_step_map(system, grid)
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
        system = AffineSystem(d, matrix, offset, [(i, "t0", 0.0) for i in range(d)])
        y0 = np.zeros((d, d + 1))
        y0[:, 1:] = np.eye(d)
        _close(numerics._affine_march(system, grid, y0), self._indexed_march(system, grid, y0))

    @pytest.mark.parametrize(
        "rate, t1, n_steps, bad_step",
        [(1e5, 20.0, 20, 17), (700.0, 20.0, 400, 64)],  # 64 is inside the fourth 20-step block
    )
    def test_blowup_step_matches_indexed_loop(self, rate, t1, n_steps, bad_step):
        system = AffineSystem(1, np.array([[rate]]), np.array([1.0]), [(0, "t0", 1.0)])
        grid = TimeGrid(0.0, t1, n_steps)
        y0 = np.array([[0.0, 1.0]])
        steps = []
        for march in (numerics._affine_march, self._indexed_march):
            with pytest.raises(IntegrationBlowupError) as exc:
                march(system, grid, y0)
            steps.append(exc.value.step)
        assert steps == [bad_step, bad_step]

    def test_shapes_are_checked(self):
        boundary = [(0, "t0", 0.0), (1, "t1", 0.0)]
        with pytest.raises(ParameterError, match="matrix"):
            AffineSystem(2, np.eye(3), np.zeros(2), boundary)
        with pytest.raises(ParameterError, match="offset"):
            AffineSystem(2, np.eye(2), np.zeros(3), boundary)
        system = AffineSystem(2, np.eye(2), np.zeros((11, 2)), boundary)
        with pytest.raises(ParameterError, match="11 nodes"):
            solve_affine_bvp(system, TimeGrid(0.0, 1.0, 20))

    def test_overflow_raises_typed_error(self):
        # P = 1 + 1e5 + ... per step overflows the float range near step 17.
        system = AffineSystem(1, np.array([[1e5]]), np.array([1.0]), [(0, "t0", 1.0)])
        with pytest.raises(IntegrationBlowupError) as exc:
            solve_affine_bvp(system, TimeGrid(0.0, 20.0, 20))
        assert 10 < exc.value.step < 20


class TestQuadSimpson:
    def test_exact_on_cubics(self):
        grid = TimeGrid(0.0, 2.0, 10)
        t = grid.times()
        exact = 2.0**4 / 4.0 - 2.0**3 + 2.0 * 2.0
        assert abs(quad_simpson(t**3 - 3.0 * t**2 + 2.0, grid.h) - exact) < 1e-12

    def test_rejects_odd_interval_count(self):
        with pytest.raises(ConfigurationError):
            quad_simpson(np.ones(4), 0.1)


class TestBisection:
    def test_root_of_cosine(self):
        root = find_root_bisect(np.cos, 1.0, 2.0, 1e-12)
        assert abs(root - np.pi / 2.0) < 1e-10

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root_bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)


class TestEig2x2:
    def test_matches_numpy(self):
        m = np.array([[1.0, 2.0], [3.0, -1.0]])
        s1, s2, V = eig_2x2(m)
        ref = np.sort(np.linalg.eigvals(m).real)
        assert abs(s1 - ref[0]) < 1e-12 and abs(s2 - ref[1]) < 1e-12
        for s, v in ((s1, V[:, 0]), (s2, V[:, 1])):
            assert np.linalg.norm(m @ v - s * v) < 1e-12

    def test_complex_spectrum_raises(self):
        with pytest.raises(SpectralError):
            eig_2x2(np.array([[0.0, 1.0], [-1.0, 0.0]]))


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

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7])
    def test_vectorised_seeding_matches_numpy_spawn(self, seed):
        # One to five entropy words (2^130 + 7 has more than the pool's
        # four), and rows on both sides of the 256-path block edge.
        n = 257
        normals = path_normals(seed, n, 7)
        children = np.random.SeedSequence(seed).spawn(n)
        for i in (0, 255, 256, n - 1):
            expected = np.random.default_rng(children[i]).standard_normal(7)
            assert np.array_equal(normals[i], expected)

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
        a = em_paths(lambda t, x: 0.1 * x, lambda t, x: wright_fisher_sigma(x), normals=normals, **kw)
        b = em_paths(lambda t, x: 0.1 * x, lambda t, x: wright_fisher_sigma(x), normals=normals, **kw)
        assert np.array_equal(a.paths, b.paths)

    def test_wrong_normals_shape_rejected(self):
        grid = TimeGrid(0.0, 1.0, 50)
        with pytest.raises(ParameterError):
            em_paths(
                lambda t, x: x, lambda t, x: np.zeros_like(x), 0.5, grid, 4,
                seed=3, normals=np.zeros((4, 49)),
            )

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
        return out, sums / n_paths, x

    @pytest.mark.parametrize("n_paths", [1, 2, 50, 2000])
    @pytest.mark.parametrize("rows", ["linear", "quadratic", "mixed", "all three"])
    @pytest.mark.parametrize("noise", [True, False])
    def test_matches_allocating_loop(self, noise, rows, n_paths):
        # The drift factors and the one accumulate per row round differently
        # from the earlier loop; 7.9e-14 of the largest value was the worst seen.
        grid, alpha, beta, _, _, m, (c,), normals = _kernel_case(n_paths=n_paths)
        kinds = {"linear": c * [[1.0], [1.0], [0.0]], "quadratic": c * [[1.0], [0.0], [1.0]],
                 "mixed": c}
        coef = list(kinds.values()) if rows == "all three" else [kinds[rows]]
        args = (alpha, beta, 0.5, grid.h, n_paths, normals if noise else None, m, coef)
        for new, old in zip(_em_functionals(*args), self._allocating_march(*args)):
            _close(new, old)

    def test_march_writes_no_input_and_repeats_bit_for_bit(self):
        # min_k_meanfield feeds one normals matrix to every march it makes.
        grid, alpha, beta, _, _, m, (c,), normals = _kernel_case()
        coef = [c, c * [[1.0], [1.0], [0.0]], c * [[0.0], [0.0], [1.0]]]
        inputs = [normals, alpha, beta, m, *coef]
        before = [a.tobytes() for a in inputs]
        runs = [_em_functionals(alpha, beta, 0.5, grid.h, 50, normals, m, coef) for _ in "ab"]
        assert [a.tobytes() for a in inputs] == before
        for first, second in zip(*runs):
            assert first.tobytes() == second.tobytes()

    def test_payoff_matches_trapezoid_of_full_paths(self):
        grid, alpha, beta, reward, rate, m, coef, normals = _kernel_case()
        t = grid.times()
        (payoff,), mean, x_end = _em_functionals(
            alpha, beta, 0.5, grid.h, 50, normals, m, coef
        )
        ens = em_paths(
            lambda s, x: np.interp(s, t, alpha) * x + np.interp(s, t, beta),
            lambda s, x: wright_fisher_sigma(x), 0.5, grid, 50, seed=5, normals=normals,
        )
        reference = np.trapezoid(np.exp(-rate * t) * reward(ens.paths), t, axis=1)
        np.testing.assert_allclose(payoff, reference, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(mean, ens.mean_path(), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(x_end, ens.paths[:, -1], rtol=1e-13, atol=0.0)

    def test_per_path_outputs_are_chunk_invariant(self):
        grid, alpha, beta, _, _, m, coef, normals = _kernel_case(n_paths=8)
        many, _, x_many = _em_functionals(alpha, beta, 0.5, grid.h, 8, normals, m, coef)
        few, _, x_few = _em_functionals(
            alpha, beta, 0.5, grid.h, 3, path_normals(5, 3, grid.n_steps), m, coef
        )
        assert np.array_equal(many[:, :3], few)
        assert np.array_equal(x_many[:3], x_few)

    def test_zero_noise_path_is_the_euler_mean(self):
        grid, alpha, beta, _, _, m, coef, _ = _kernel_case()
        zero = np.zeros_like(m)
        stack = [[zero, np.ones_like(m), zero], [zero, zero, np.ones_like(m)]]
        (lin, quad), mean, x_end = _em_functionals(alpha, beta, 0.5, grid.h, 4, None, m, stack)
        assert np.array_equal(mean, m)
        assert np.all(x_end == m[-1])
        assert np.all(lin == 0.0) and np.all(quad == 0.0)

    def test_non_finite_state_names_path_and_step(self):
        # Paths `first` and on turn non-finite at `step`.  The state sits in
        # the march's first buffer after an even step, in the other after an odd one.
        for first, step in [(4, 10), (3, 13)]:
            grid, alpha, beta, _, _, m, coef, normals = _kernel_case(n_paths=6, n_steps=50)
            normals[first:, step - 1] = np.nan
            normals[1, 20] = np.nan
            with pytest.raises(SimulationBlowupError) as streamed:
                _em_functionals(alpha, beta, 0.5, grid.h, 6, normals, m, coef)
            assert (streamed.value.path_index, streamed.value.step) == (first, step)
            with pytest.raises(SimulationBlowupError) as full:
                em_paths(lambda s, x: 0.0 * x, lambda s, x: wright_fisher_sigma(x), 0.5,
                         grid, 6, seed=5, normals=normals)
            assert (full.value.path_index, full.value.step) == (first, step)

    def test_wrong_normals_shape_rejected(self):
        grid, alpha, beta, _, _, m, coef, _ = _kernel_case()
        with pytest.raises(ParameterError):
            _em_functionals(alpha, beta, 0.5, grid.h, 4, np.zeros((4, 199)), m, coef)
