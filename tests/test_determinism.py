"""The determinism contract at full size: the same bytes on two CPUs and on one.

Each case runs `python -m stackgame.cli` in subprocesses, once as it is and
once with its CPU affinity set to one CPU, where every fork rule takes its
one-process branch.  `report.txt` without its `wall_time_s` and `out =` lines,
and every CSV, must be byte for byte the same.  A process that may use only
one CPU cannot make the two-CPU run, so the cases skip there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import MFG_BENCH

SRC = Path(__file__).resolve().parent.parent / "src"
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


def _run(tmp_path: Path, name: str, args: list[str], one_cpu: bool) -> dict[str, str]:
    """The compared outputs of `python -m stackgame.cli *args`, by file name."""
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"params": MFG_BENCH}))
    out = tmp_path / name
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    pin = (lambda: os.sched_setaffinity(0, {min(CPUS)})) if one_cpu else None
    subprocess.run([sys.executable, "-m", "stackgame.cli", *args, "--config", str(config),
                    "--out", str(out)], env=env, preexec_fn=pin, check=True,
                   capture_output=True, timeout=300)
    outputs = {path.name: path.read_text() for path in sorted(out.iterdir())}
    outputs["report.txt"] = "".join(
        line for line in outputs["report.txt"].splitlines(keepends=True)
        if not line.startswith(("wall_time_s", "out =")))
    return outputs


@pytest.mark.skipif(len(CPUS) < 2, reason="this process may use only one CPU, so there "
                                          "is no two-CPU run to compare with the one-CPU run")
@pytest.mark.parametrize("seed", [3, 11])  # the pilot is right at 3 and misses at 11
def test_threshold_search_is_the_same_on_two_cpus_and_one(tmp_path, seed):
    args = ["meanfield", "threshold-k", "--paths", "10000", "--steps", "1000",
            "--seed", str(seed)]
    two = _run(tmp_path, "two", args, one_cpu=False)
    one = _run(tmp_path, "one", args, one_cpu=True)
    assert sorted(two) == ["report.txt", "sweep.csv"]
    assert two == one
