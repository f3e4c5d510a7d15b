"""The determinism contract at full size: the same bytes on two CPUs and on one.

Each case runs `python -m stackgame.cli` in subprocesses, once as it is and
once with its CPU affinity set to one CPU, where every fork rule takes its
one-process branch.  `report.txt` without its `wall_time_s` and `out =` lines,
and every CSV, must be byte for byte the same.  A process that may use only
one CPU cannot make the two-CPU run, so the cases skip there.  The discrete
oracle's memory check runs on any number of CPUs.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import MFG_BENCH

SRC = Path(__file__).resolve().parent.parent / "src"
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def _run(tmp_path: Path, name: str, args: list[str], one_cpu: bool,
         mc: dict | None = None) -> dict[str, str]:
    """The compared outputs of `python -m stackgame.cli *args`, by file name, on the
    benchmark parameters and the config's `mc` section mc."""
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"params": MFG_BENCH, **({"mc": mc} if mc else {})}))
    out = tmp_path / name
    pin = (lambda: os.sched_setaffinity(0, {min(CPUS)})) if one_cpu else None
    subprocess.run([sys.executable, "-m", "stackgame.cli", *args, "--config", str(config),
                    "--out", str(out)], env=ENV, preexec_fn=pin, check=True,
                   capture_output=True, timeout=300)
    outputs = {path.name: path.read_text() for path in sorted(out.iterdir())}
    outputs["report.txt"] = "".join(
        line for line in outputs["report.txt"].splitlines(keepends=True)
        if not line.startswith(("wall_time_s", "out =")))
    return outputs


two_cpus = pytest.mark.skipif(len(CPUS) < 2, reason="this process may use only one CPU, so "
                              "there is no two-CPU run to compare with the one-CPU run")


@two_cpus
@pytest.mark.parametrize("seed", [3, 11])  # the pilot is right at 3 and misses at 11
def test_threshold_search_is_the_same_on_two_cpus_and_one(tmp_path, seed):
    args = ["meanfield", "threshold-k", "--paths", "10000", "--steps", "1000",
            "--seed", str(seed)]
    two = _run(tmp_path, "two", args, one_cpu=False)
    one = _run(tmp_path, "one", args, one_cpu=True)
    assert sorted(two) == ["report.txt", "sweep.csv"]
    assert two == one


@two_cpus
@pytest.mark.parametrize("args, files", [
    # 5,000 x 250 (1.25e6 normals) forks once on two CPUs.  The search's
    # 2,496 and 2,504 paths per process, and its 5,000 on one CPU, step the
    # ten marches of its first request in two blocks of 125 steps; at seed 15
    # its zero-noise pilot misses, so each process then draws and holds its
    # normals.
    (["defect", "--paths", "5000", "--steps", "250"], ["report.txt", "trajectory.csv"]),
    (["threshold-k", "--paths", "5000", "--steps", "250"], ["report.txt", "sweep.csv"]),
    (["threshold-k", "--paths", "5000", "--steps", "250", "--seed", "15"],
     ["report.txt", "sweep.csv"]),
    # At 5,000 x 1,000 the search's first request stacks ten marches, so each
    # process streams its 2,496 or 2,504 paths as one leaf, and one process its
    # 5,000 as two leaves of those widths, each in five blocks of 200 steps.
    (["threshold-k", "--paths", "5000", "--steps", "1000"], ["report.txt", "sweep.csv"]),
    # At 40,000 x 250 a single-use march streams each process's 20,000 paths
    # in four blocks of 5,000, and one process's 40,000 in eight.
    (["defect", "--paths", "40000", "--steps", "250"], ["report.txt", "trajectory.csv"]),
    (["verify", "--paths", "40000", "--steps", "250"], ["report.txt"]),
], ids=["defect-5000", "threshold-k-5000", "threshold-k-5000-seed-15",
        "threshold-k-5000-1000", "defect-40000", "verify-40000"])
def test_monte_carlo_run_is_the_same_on_two_cpus_and_one(tmp_path, args, files):
    args = ["meanfield", *args]
    two = _run(tmp_path, "two", args, one_cpu=False)
    one = _run(tmp_path, "one", args, one_cpu=True)
    assert sorted(two) == files
    assert two == one


@two_cpus
def test_trajectory_is_the_same_on_two_cpus_and_one(tmp_path):
    # At 20,000 steps the table writer's child writes half of trajectory.csv's
    # rows: a header and 20,001 nodes.
    args = ["meanfield", "equilibrium", "--steps", "20000"]
    two = _run(tmp_path, "two", args, one_cpu=False)
    one = _run(tmp_path, "one", args, one_cpu=True)
    assert sorted(two) == ["report.txt", "trajectory.csv"]
    assert two["trajectory.csv"].count("\n") == 20002
    assert two == one


@two_cpus
@pytest.mark.parametrize("action, line", [
    # The search certifies the noise-free model's k_min.
    ("threshold-k", r"k_min = 0\.3828125"),
    # The feedback check's residual and standard error are both 0, a PASS.
    ("verify", r"feedback_mean_3se = .* : PASS"),
], ids=["threshold-k", "verify"])
def test_zero_noise_run_is_the_same_on_two_cpus_and_one(tmp_path, action, line):
    # A zero-noise config marches one path whatever --paths says: it draws
    # nothing and forks nothing.
    args = ["meanfield", action, "--paths", "40000", "--steps", "250"]
    two = _run(tmp_path, "two", args, one_cpu=False, mc={"zero_noise": True})
    one = _run(tmp_path, "one", args, one_cpu=True, mc={"zero_noise": True})
    assert re.search(f"^{line}$", two["report.txt"], re.MULTILINE)
    assert two == one


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_discrete_verify_peaks_at_most_8_mib_above_equilibrium(tmp_path):
    # The discrete oracle searches its 10^6-point grid in blocks.  Both runs are
    # children of a fresh helper process, whose RUSAGE_CHILDREN peak holds only
    # theirs (this process's holds every child it ever reaped).
    config = tmp_path / "discrete.yaml"
    config.write_text(yaml.safe_dump({"params": {"a": 10.0, "b": 1.0, "c0": 1.0, "c1": 2.0}}))
    helper = f"""
import resource, subprocess, sys

def peak_after(action):
    subprocess.run([sys.executable, "-m", "stackgame.cli", "discrete", action, "--config",
                    {str(config)!r}, "--out", {str(tmp_path / "out")!r}], check=True,
                   stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

before = peak_after("equilibrium")
print(peak_after("verify") - before)
"""
    rise = subprocess.run([sys.executable, "-c", helper], env=ENV, check=True,
                          capture_output=True, text=True, timeout=300).stdout
    assert int(rise) <= 8 * 1024
    assert "FAIL" not in (tmp_path / "out" / "report.txt").read_text()
