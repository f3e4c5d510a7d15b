"""Unit tests for the shared deterministic/stochastic numerical kernels."""

import numpy as np
import pytest

from stackgame.errors import (
    BracketError,
    ConfigurationError,
    IllPosedBVPError,
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
    find_threshold_bisect,
    path_normals,
    quad_simpson,
    rk4_solve,
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
            matrix=lambda t: np.array([[-1.0]]),
            offset=lambda t: np.array([1.0]),
            boundary=[(0, "t0", 0.0)],
            names=("y",),
        )
        grid = TimeGrid(0.0, 2.0, 400)
        traj = rk4_solve(system, grid)
        np.testing.assert_allclose(traj["y"], 1.0 - np.exp(-grid.times()), atol=1e-10)

    def test_initial_value_solve_rejects_terminal_constraints(self):
        system = AffineSystem(
            dimension=1,
            matrix=lambda t: np.array([[0.0]]),
            offset=lambda t: np.array([0.0]),
            boundary=[(0, "t1", 0.0)],
        )
        with pytest.raises(ParameterError):
            rk4_solve(system, TimeGrid(0.0, 1.0, 10))


def _oscillator(two_point):
    return AffineSystem(
        dimension=2,
        matrix=lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        offset=lambda t: np.zeros(2),
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

    def test_threshold_of_monotone_predicate(self):
        x = find_threshold_bisect(lambda v: v >= 0.3, 0.0, 1.0, 1e-9)
        assert abs(x - 0.3) < 1e-8

    def test_constant_predicate_raises(self):
        with pytest.raises(BracketError):
            find_threshold_bisect(lambda v: True, 0.0, 1.0, 1e-9)


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
        grid, alpha, beta, _, _, m, coef, normals = _kernel_case(n_paths=6, n_steps=50)
        normals[4:, 9] = np.nan  # paths 4 and 5 turn non-finite at step 10
        normals[1, 20] = np.nan
        with pytest.raises(SimulationBlowupError) as streamed:
            _em_functionals(alpha, beta, 0.5, grid.h, 6, normals, m, coef)
        assert (streamed.value.path_index, streamed.value.step) == (4, 10)
        with pytest.raises(SimulationBlowupError) as full:
            em_paths(lambda s, x: 0.0 * x, lambda s, x: wright_fisher_sigma(x), 0.5,
                     grid, 6, seed=5, normals=normals)
        assert (full.value.path_index, full.value.step) == (4, 10)

    def test_wrong_normals_shape_rejected(self):
        grid, alpha, beta, _, _, m, coef, _ = _kernel_case()
        with pytest.raises(ParameterError):
            _em_functionals(alpha, beta, 0.5, grid.h, 4, np.zeros((4, 199)), m, coef)
