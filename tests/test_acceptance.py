"""Acceptance gate: eleven numbered criteria, one PASS/FAIL line each.

Every test prints a single summary line (shown in the PASSES/FAILURES
sections of the pytest report) before asserting, so the gate's status can be
read off the log even when a criterion fails.
"""

import math
import time

import numpy as np
import pytest
import yaml

from stackgame import cli, discrete, dynamic, meanfield
from stackgame.numerics import AffineSystem, TimeGrid, path_normals, solve_affine_bvp

DUOPOLY = discrete.DuopolyParams(a=10.0, b=1.0, c0=1.0, c1=2.0)
DYN = dynamic.DynamicParams(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05, T=10.0)
MFG_KW = dict(
    A0=0.0, B0=1.0, C0=0.1, A=0.0, B=1.0, C=0.1, D=0.1,
    a0=1.0, a=1.0, l0=0.2, l=0.2, b0=0.5, b=0.5,
    sigma=0.1, r=0.05, T=1.0, x0_init=0.5, xbar_init=0.5,
)
MFG = meanfield.MfgParams(**MFG_KW)
MC = meanfield.McConfig(n_paths=10_000, n_steps=1000, seed=42)


def _line(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_01_discrete_exact_payoff_ratios():
    def body():
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(1.0, 50.0)
            b = rng.uniform(0.1, 5.0)
            c0 = rng.uniform(0.0, a / 4.0)
            c1 = rng.uniform(c0, (a + 2.0 * c0) / 3.0)
            p = discrete.DuopolyParams(a=a, b=b, c0=c0, c1=c1)
            eq = discrete.one_shot_equilibrium(p)
            _, j_hat, gain = discrete.one_shot_defection(p)
            if gain < 1e-9:
                continue
            worst = max(worst, abs(j_hat / gain - 9.0), abs(eq.J0 / gain - 8.0))
        return worst

    worst, dt = _timed(body)
    ok = worst < 1e-12 and dt < 1.0
    assert _line(1, "discrete exact payoff ratios 9 and 8", ok,
                 f"max deviation {worst:.2e}, {dt:.2f}s")


def test_02_discrete_oracle_equivalence():
    def body():
        eq = discrete.one_shot_equilibrium(DUOPOLY)
        oracle = discrete.brute_force_oracle(DUOPOLY, grid_resolution=10**6)
        return max(abs(oracle.u0 - eq.u0), abs(oracle.J0 - eq.J0),
                   abs(eq.u0 - 5.0), abs(eq.J0 - 12.5))

    err, dt = _timed(body)
    ok = err < 1e-5 and dt < 5.0
    assert _line(2, "discrete grid-search oracle equivalence", ok,
                 f"max |closed - oracle| {err:.2e}, {dt:.2f}s")


def test_03_discrete_worst_case_threshold():
    def body():
        res = discrete.min_k_discrete(DUOPOLY, N=10, tol=1e-9)
        expected = (2.0 / 9.0) / DUOPOLY.defection_gain
        totals = res.details["ledger_totals"]
        ledger_ok = set(range(1, 10)) <= set(totals) and all(
            totals[m] <= res.j_star + 1e-9 * (1.0 + res.j_star) for m in range(1, 10)
        )
        return abs(res.k_min - expected), ledger_ok, res.k_min

    (err, ledger_ok, k_min), dt = _timed(body)
    ok = err < 1e-6 and ledger_ok and dt < 1.0
    assert _line(3, "discrete worst-case penalty threshold", ok,
                 f"k_min {k_min:.8f}, |err| {err:.2e}, ledger {'ok' if ledger_ok else 'violated'}, {dt:.2f}s")


def test_04_dynamic_closed_form_vs_bvp_oracle():
    def body():
        grid = TimeGrid(0.0, DYN.T, 2000)
        traj = dynamic.equilibrium_trajectories(DYN, grid)
        oracle = dynamic.bvp_oracle_trajectories(DYN, grid)
        sup = max(
            float(np.abs(traj["x1"] - oracle["x1"]).max()),
            float(np.abs(traj["lam"] - oracle["lam"]).max()),
        )
        return sup, abs(float(traj["lam"][-1]))

    (sup, lam_T), dt = _timed(body)
    ok = sup < 1e-6 and lam_T < 1e-8 and dt < 1.0
    assert _line(4, "dynamic closed form matches the BVP oracle", ok,
                 f"sup diff {sup:.2e}, |lam(T)| {lam_T:.2e}, {dt:.2f}s")


def test_05_dynamic_payoff_difference_identity():
    def body():
        grid = TimeGrid(0.0, DYN.T, 2000)
        return max(dynamic.check_equ20_identity(DYN, k, grid) for k in (0.0, 0.1, 0.3, 1.0))

    worst, dt = _timed(body)
    ok = worst < 1e-10 and dt < 1.0
    assert _line(5, "dynamic pointwise payoff-difference identity", ok,
                 f"max residual {worst:.2e}, {dt:.2f}s")


def test_06_dynamic_deterrence_reconciliation():
    def body():
        grid = TimeGrid(0.0, DYN.T, 2000)
        j_star = dynamic.equilibrium_payoff(DYN, grid)
        rel = 0.0
        for k in (0.05, 0.1, 0.3, 1.0):
            lhs = dynamic.theorem2_lhs(DYN, k)
            quad = 64.0 * DYN.b * (j_star - dynamic.defection_payoff(DYN, k, 0.0, grid))
            rel = max(rel, abs(lhs - quad) / (abs(quad) + 1e-30))
        res = dynamic.min_k_dynamic(DYN, grid)
        k_closed, k_quad = res.k_min, res.details["k_min_quadrature"]
        return rel, abs(k_closed - k_quad), k_closed

    (rel, k_gap, k_min), dt = _timed(body)
    ok = rel < 1e-4 and k_gap < 1e-6 and dt < 5.0
    assert _line(6, "dynamic closed-form deterrence matches quadrature", ok,
                 f"max rel {rel:.2e}, |k gap| {k_gap:.2e}, k_min {k_min:.8f}, {dt:.2f}s")


def test_07_riccati_tangent_closed_forms():
    def body():
        grid = TimeGrid(0.0, 0.5, 2000)
        p_follower = meanfield.MfgParams(**{**MFG_KW, "A": 0.0, "r": 0.0, "B": 1.0,
                                            "a": 1.0, "T": 0.5})
        F = meanfield.follower_riccati(p_follower, grid)
        err_f = float(np.abs(F + np.tan(0.5 - grid.times())).max())
        p_leader = meanfield.MfgParams(**{**MFG_KW, "A0": 0.0, "r": 0.0, "B0": 2.0,
                                          "a0": 1.0, "T": 0.5})
        Q = meanfield.defection_riccati(p_leader, 0.0, grid)
        err_q = max(
            float(np.abs(Q - np.tan(2.0 * (0.5 - grid.times()))).max()),
            abs(float(Q[0]) - math.tan(1.0)),
        )
        return max(err_f, err_q)

    err, dt = _timed(body)
    ok = err < 1e-6 and dt < 1.0
    assert _line(7, "Riccati solvers reproduce tangent closed forms", ok,
                 f"max error {err:.2e}, {dt:.2f}s")


def test_08_mean_field_bvp_residuals_and_decoupling():
    def body():
        grid = TimeGrid(0.0, MFG.T, 1000)
        sol = meanfield.mean_field_bvp(MFG, grid)
        bmax = max(sol.boundary_residuals.values())
        omax = max(sol.ode_residuals.values())
        # Without cross terms the leader problem decouples into a 2-variable
        # two-point system solvable on its own.
        p = meanfield.MfgParams(**{**MFG_KW, "sigma": 0.0, "D": 0.0, "C": 0.0,
                                   "C0": 0.0, "l": 0.0, "l0": 0.0})
        coupled = meanfield.mean_field_bvp(p, grid)
        solo = solve_affine_bvp(
            AffineSystem(
                matrix=np.array([[p.A0, p.B0**2 / p.a0], [-1.0, p.r - p.A0]]),
                offset=np.array([0.0, -p.b0]),
                boundary=[(0, "t0", p.x0_init), (1, "t1", 0.0)],
                names=("x0", "p0"),
            ),
            grid,
        )
        dec = max(
            float(np.abs(coupled["x0"] - solo["x0"]).max()),
            float(np.abs(coupled["p0"] - solo["p0"]).max()),
        )
        return bmax, omax, dec

    (bmax, omax, dec), dt = _timed(body)
    ok = bmax < 1e-8 and omax < 1e-6 and dec < 1e-8 and dt < 2.0
    assert _line(8, "mean-field BVP residuals and leader decoupling", ok,
                 f"boundary {bmax:.2e}, drift {omax:.2e}, decoupling {dec:.2e}, {dt:.2f}s")


def test_09_euler_optimality_of_derived_controls():
    # The derived controls are the optimum of the noise-free (mean) problem,
    # so the gate asserts the certainty-equivalent part of each directional
    # derivative, whose expectation is the noise-free payoff's derivative.
    # The total also moves through the variance channel of the
    # state-dependent noise; its z-scores are printed, not asserted.
    def body():
        grid = TimeGrid(0.0, MFG.T, MC.n_steps)
        t = grid.times()
        sol = meanfield.mean_field_bvp(MFG, grid)
        rng = np.random.default_rng(42)
        worst_z, worst_total_z, detail = 0.0, 0.0, []
        for i in range(5):
            c = rng.standard_normal(4)
            v = c[0] + c[1] * t + c[2] * np.sin(3.0 * t) + c[3] * np.cos(2.0 * t)
            leader = meanfield.euler_condition_check(MFG, sol["u0_star"], v, MC)
            follower = meanfield.follower_euler_check(MFG, sol, v, MC)
            for tag, est in (("leader", leader), ("follower", follower)):
                ce = est.certainty_equivalent
                z = abs(ce.mean) / ce.stderr if ce.stderr > 0 else math.inf
                z_total = abs(est.mean) / est.stderr if est.stderr > 0 else math.inf
                worst_z = max(worst_z, z)
                worst_total_z = max(worst_total_z, z_total)
                detail.append(f"{tag}{i} z={z_total:.2f} ce z={z:.2f}")
        shifted = meanfield.euler_condition_check(MFG, sol["u0_star"] + 0.5, np.ones_like(t), MC)
        shifted_ok = shifted.mean + 3.0 * shifted.stderr < 0.0
        return worst_z, worst_total_z, shifted_ok, shifted.mean / shifted.stderr, detail

    (worst_z, worst_total_z, shifted_ok, shifted_z, detail), dt = _timed(body)
    ok = worst_z <= 3.0 and shifted_ok and dt < 60.0
    assert _line(
        9, "first-order optimality of the derived controls under noise", ok,
        f"certainty-equivalent max |z| {worst_z:.2f} (3.0 allowed), "
        f"total max |z| {worst_total_z:.2f} (variance channel, not asserted), "
        f"shifted-control z {shifted_z:.1f}, {dt:.1f}s; " + ", ".join(detail),
    )


def test_10_mean_field_deterrence_threshold():
    def body():
        results = {}
        for seed in (42, 1, 2):
            mc = meanfield.McConfig(n_paths=MC.n_paths, n_steps=MC.n_steps, seed=seed)
            results[seed] = meanfield.min_k_meanfield(MFG, mc, tol=0.01)
        base = results[42]
        trace = base.details["trace"]
        monotone = all(
            v2 <= v1 + 3.0 * (s1 + s2)
            for (k1, v1, s1), (k2, v2, s2) in zip(trace, trace[1:])
        )
        separated = all(
            r.j_tilde_at_k + 3.0 * r.details["j_tilde_stderr"]
            < r.j_star - 3.0 * r.details["j_star_stderr"]
            for r in results.values()
        )
        growth_ok = all(
            r.details["growth_rate"] < r.details["growth_bound"] for r in results.values()
        )
        ks = [r.k_min for r in results.values()]
        spread = max(ks) - min(ks)
        return base.k_min, monotone, separated, growth_ok, spread

    (k_min, monotone, separated, growth_ok, spread), dt = _timed(body)
    ok = (math.isfinite(k_min) and k_min > 0.0 and monotone and separated
          and growth_ok and spread <= 0.01 + 1e-12 and dt < 300.0)
    assert _line(
        10, "mean-field deterrence threshold exists and is seed-stable", ok,
        f"k_min {k_min:.6f}, seed spread {spread:.4f}, monotone {monotone}, "
        f"separated {separated}, growth {growth_ok}, {dt:.1f}s",
    )


def _threshold_run(config, out):
    """Exit code of the CLI's threshold-k job, report.txt without its timing
    and directory rows, and the sweep.csv bytes."""
    code = cli.main(["meanfield", "threshold-k", "--config", str(config), "--out", str(out)])
    if code != 0:
        return code, None, None
    report = [line for line in (out / "report.txt").read_text().splitlines()
              if not line.startswith(("wall_time_s", "out ="))]
    return code, report, (out / "sweep.csv").read_bytes()


def test_11_determinism_across_worker_counts(processes, tmp_path):
    # The same calls in one process and in two: whenever two CPUs show, the
    # fixture makes mc_payoffs fork once, and each process draws and marches
    # its own half of the 2000 x 400 ensemble.  Then the CLI's threshold
    # search forks once on two CPUs: each process holds its own half of the
    # noise and marches every requested rate on it.
    config = tmp_path / "threshold.yaml"
    config.write_text(yaml.safe_dump({
        "model": "meanfield", "action": "threshold-k", "params": MFG_KW,
        "mc": {"n_paths": 2000, "n_steps": 400, "seed": 42}, "penalty": {"tol": 0.01},
    }))

    def body():
        mc = meanfield.McConfig(n_paths=2000, n_steps=400, seed=42)
        snapshots = []
        for cpus in (1, 2):
            processes.cpus(cpus)
            j_eq, j_def = meanfield.mc_payoffs(MFG, 0.3, mc)
            res = discrete.min_k_discrete(DUOPOLY, N=10)
            snapshots.append([
                j_eq.mean, j_eq.stderr, j_def.mean, j_def.stderr,
                res.k_min, dynamic.theorem2_lhs(DYN, 0.3),
                path_normals(42, 8, 16).tobytes(),
            ])
        before = len(processes.forks)
        for cpus, snapshot in zip((1, 2), snapshots):
            processes.cpus(cpus)
            snapshot += _threshold_run(config, tmp_path / f"threshold{cpus}")
        searched = len(processes.forks) - before
        identical = snapshots[0] == snapshots[1] and snapshots[0][-3] == 0
        # Chunk-stability of the noise: the first rows of a larger ensemble
        # are bit-identical to a smaller one drawn from the same seed.
        chunked = np.array_equal(path_normals(42, 8, 16)[:3], path_normals(42, 3, 16))
        return identical, chunked, searched

    (identical, chunked, searched), dt = _timed(body)
    forks = len(processes.forks)
    ok = identical and chunked and searched == 1 and forks > searched
    assert _line(11, "bit-identical outputs in one process and in two", ok,
                 f"identical {identical} over {forks} forks ({searched} for the CLI's "
                 f"threshold search), chunk-stable {chunked}, {dt:.1f}s")
