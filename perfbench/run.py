"""stackgame benchmark: run one workload's job list through `stackgame.cli.main`.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py; perfbench/README.md says why each was
chosen and what every metric means.  With --trace 0 the run reports the
end-to-end metrics wall_kernels, peak_rss_mb and setup_s (and prints the
plain wall_s and setup_raw_s); with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer metrics
of spans.py plus the tracing overhead.  Every job's report is checked against
references.json.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
import workloads
from workloads import REF_SEEDS, SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCES = BENCH / "references.json"

SETUP_REPS = 12  # fresh interpreters per run, at most; setup_s is their median
MIN_REPS = 3  # timed repetitions per run, even when --seconds is exceeded
# Numbers in a report may drift this much (relative) before a job fails the
# check, so rounding from reordered sums passes.
RTOL, ATOL = 1e-6, 1e-12


def pin_environment() -> dict:
    """Fix thread counts before numpy loads; return what was pinned.

    BLAS runs on one thread.  With a pool of nproc threads, OpenBLAS splits
    every dot product over 10^4 elements (quad_simpson on a 20,001-point
    grid), and whether its worker shares the main thread's core is the
    kernel scheduler's choice: on a 2-vCPU VM the same job took 0.05 s or
    0.58 s, for a minute or more at a time.  That measures the scheduler,
    not the program.
    """
    nproc = len(os.sched_getaffinity(0))
    blas = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    os.environ["STACKGAME_WORKERS"] = str(nproc)
    return {"nproc": nproc, "blas_threads": blas}


def import_program() -> dict:
    """Import the checkout's stackgame modules, or exit if it has none."""
    package = SRC / "stackgame"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no stackgame sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from stackgame import cli, discrete, dynamic, meanfield, numerics

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported stackgame from {cli.__file__}, not from {package}")
    return {"cli": cli, "discrete": discrete, "dynamic": dynamic,
            "meanfield": meanfield, "numerics": numerics}


def environment(pinned: dict) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "stackgame").glob("*.py")):
        digest.update(path.read_bytes())
    return {**pinned, "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "src_sha256": digest.hexdigest()[:16]}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_configs(workload: str, size: str) -> list[Path]:
    import yaml

    config_dir = OUT / "configs" / size / workload
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in workloads.jobs(workload, size):
        path = config_dir / f"{job.name}.yaml"
        path.write_text(yaml.safe_dump(job.config, sort_keys=False))
        paths.append(path)
    return paths


def measure_setup(configs: list[Path], n: int) -> list[tuple[float, float]]:
    """(set-up seconds, kernel reading) of n fresh interpreters (see setup_probe.py)."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, configs)]
    probes = []
    for _ in range(n):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        setup, reading = out.stdout.split()[-2:]
        probes.append((float(setup), float(reading)))
    return probes


def read_outputs(out_dir: Path) -> dict:
    """The checked part of a job's outputs: results, certificate outcomes, file rows."""
    section, results, certificates = None, {}, {}
    for line in (out_dir / "report.txt").read_text().splitlines():
        if line.startswith("["):
            section = line
        elif " = " in line and section == "[results]":
            key, value = line.split(" = ", 1)
            results[key] = value
        elif " = " in line and section == "[certificates]":
            key, value = line.split(" = ", 1)
            certificates[key] = value.rsplit(":", 1)[-1].strip()
    rows = {f.name: len(f.read_text().splitlines()) for f in sorted(out_dir.iterdir())}
    return {"results": results, "certificates": certificates, "rows": rows}


def _same(a, b) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
    except (TypeError, ValueError):
        return False


def mismatches(got: dict, want: dict) -> list[str]:
    out = []
    for part in ("results", "certificates", "rows"):
        for key in sorted(set(got[part]) | set(want[part])):
            g, w = got[part].get(key), want[part].get(key)
            if not _same(g, w):
                out.append(f"{part}.{key}: got {g!r}, reference {w!r}")
    return out


def reference_key(size: str, workload: str, mc_seed: int) -> str:
    seeded = any(job.seeded for job in workloads.jobs(workload, size))
    return f"{size}/{workload}/{mc_seed if seeded else 'any'}"


class Session:
    """One workload at one seed: runs repetitions and counts job failures."""

    def __init__(self, cli, workload: str, size: str, mc_seed: int, references: dict | None):
        self.cli, self.workload, self.size, self.mc_seed = cli, workload, size, mc_seed
        self.references = references
        self.configs = write_configs(workload, size)
        self.kernel = speed.Kernel()
        self.attempted = self.failed = 0

    def warm_up(self) -> None:
        """One discarded repetition at smoke-test size, so first-call costs stay out of the timing."""
        self._run(write_configs(self.workload, "tiny"), "tiny")

    def rep(self, tracer=None) -> tuple[float, float]:
        """Run the job list once, optionally traced, and check every job's outputs.

        Returns (wall_s, wall_kernels) of this repetition: the seconds of its
        jobs, and the sum of each job's seconds divided by the mean of the
        reference-kernel readings right before and right after it.
        """
        if tracer is not None:
            tracer.install()
        try:
            walls, kernel, codes = self._run(self.configs, self.size)
        finally:
            if tracer is not None:
                tracer.remove()
        for job, code in codes:
            self.attempted += 1
            self.failed += not self._passes(job, code)
        return sum(walls), sum(w / ((before + after) / 2)
                               for w, before, after in zip(walls, kernel, kernel[1:]))

    def outputs(self) -> dict:
        """Checked outputs of the last repetition, by job name."""
        return {job.name: read_outputs(OUT / "work" / job.name)
                for job in workloads.jobs(self.workload, self.size)}

    def _run(self, configs: list[Path], size: str):
        work = OUT / "work"
        shutil.rmtree(work, ignore_errors=True)
        codes, walls, kernel = [], [], [self.kernel.seconds()]
        for job, config in zip(workloads.jobs(self.workload, size), configs):
            argv = [job.config["model"], job.config["action"], "--config", str(config),
                    "--out", str(work / job.name)]
            if job.seeded:
                argv += ["--seed", str(self.mc_seed)]
            code = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except Exception:
                traceback.print_exc()
            walls.append(time.perf_counter() - start)
            kernel.append(self.kernel.seconds())
            codes.append((job, code))
        return walls, kernel, codes

    def _passes(self, job, code) -> bool:
        if code != 0:
            print(f"job {job.name}: exit code {code}", file=sys.stderr)
            return False
        if self.references is None:
            return True
        if job.name not in self.references:
            print(f"job {job.name}: no reference output", file=sys.stderr)
            return False
        diff = mismatches(read_outputs(OUT / "work" / job.name), self.references[job.name])
        for line in diff:
            print(f"job {job.name}: {line}", file=sys.stderr)
        return not diff


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    session.warm_up()
    walls, in_kernels, setup, peak_rss_mb = [], [], [], None
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        wall, wall_kernels = session.rep()
        walls.append(wall)
        in_kernels.append(wall_kernels)
        if peak_rss_mb is None:  # high-water mark of a process that ran the workload once
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # After each repetition, probes in proportion to its share of the run, so
        # they sample the whole run and one slow phase of the machine cannot hold
        # them all.
        share = min(1.0, walls[-1] / seconds)
        setup += measure_setup(session.configs,
                               min(SETUP_REPS - len(setup), math.ceil(SETUP_REPS * share)))
    # Each probe's set-up seconds at the reference speed: scaled by how much
    # slower than the reference reading the kernel ran in that same process.
    at_reference = [t * speed.REFERENCE_S / reading for t, reading in setup]
    raw_setup = [t for t, _ in setup]
    metrics = {
        "wall_kernels": (statistics.median(in_kernels), "kernels"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(at_reference), "s"),
    }
    printed = {"wall_s": (statistics.median(walls), "s"),
               "setup_raw_s": (statistics.median(raw_setup), "s")}
    return metrics, printed, {"wall_kernels": in_kernels, "wall_s": walls,
                              "setup_s": at_reference, "setup_raw_s": raw_setup}


def per_layer(session: Session, modules: dict, seconds: float, trace_file: Path, env: dict):
    session.warm_up()
    layers, overheads, traces = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        tracer = spans.Tracer(modules)
        wall = {}
        # Alternate which side goes first, so drift does not bias the overhead.
        for traced in (False, True) if len(layers) % 2 == 0 else (True, False):
            wall[traced], _ = session.rep(tracer if traced else None)
        overheads.append(wall[True] - wall[False])
        layers.append(spans.layer_metrics(tracer.spans))
        traces.append(tracer.spans)
    trace_file.write_text(json.dumps({"env": env, "reps": traces}))
    out = {name: (statistics.median(rep[name] for rep in layers), unit)
           for name, unit in spans.METRICS.items()}
    out["trace_overhead_s"] = (statistics.median(overheads), "s")
    return out, {}, {"trace_overhead_s": overheads}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="'tiny' runs the smoke-test job lists")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    pinned = pin_environment()
    modules = import_program()
    env = environment(pinned)
    mc_seed = REF_SEEDS[args.seed % len(REF_SEEDS)]
    references = json.loads(REFERENCES.read_text())[
        reference_key(args.size, args.workload, mc_seed)]
    session = Session(modules["cli"], args.workload, args.size, mc_seed, references)
    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        metrics, printed, samples = per_layer(session, modules, args.seconds, trace_file, env)
    else:
        metrics, printed, samples = end_to_end(session, args.seconds)
    shutil.rmtree(OUT / "work", ignore_errors=True)

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} ({args.size}), seed {args.seed} -> mc seed {mc_seed}")
    for name, (value, unit) in {**metrics, **printed}.items():
        extra = ""
        if name in samples:
            vals = samples[name]
            extra = f"  (median of {len(vals)}; min {min(vals):.4g}, max {max(vals):.4g})"
        print(f"{name} = {value:.6g} {unit}{extra}")
    print(f"failed_frac = {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} jobs)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
