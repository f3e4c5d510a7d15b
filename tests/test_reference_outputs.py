"""The benchmark's own output check, run read-only at smoke-test size.

Every job of the three perfbench workloads runs through `stackgame.cli.main`
at every Monte Carlo seed that has a reference, and its `[results]`,
certificate outcomes and file row counts must match
`perfbench/references.json` (perfbench/run.py, `Session`).  The threshold
search's outputs must also match when it marches every rate by halves in
two processes.
Nothing under `perfbench/` is written; the jobs write into the ignored
`.perfbench-out/`.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from stackgame import cli  # noqa: E402

REFERENCES = json.loads(run.REFERENCES.read_text())


def _failed_jobs(workload):
    """Failed jobs by MC seed, over every seed with a reference."""
    seeded = any(job.seeded for job in workloads.jobs(workload, "tiny"))
    failed = {}
    try:
        for seed in workloads.REF_SEEDS if seeded else workloads.REF_SEEDS[:1]:
            key = run.reference_key("tiny", workload, seed)
            session = run.Session(cli, workload, "tiny", seed, REFERENCES[key])
            session.rep()
            assert session.attempted == len(workloads.jobs(workload, "tiny"))
            if session.failed:
                failed[seed] = session.failed
    finally:
        shutil.rmtree(run.OUT / "work", ignore_errors=True)
    return failed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_outputs_match_references(workload):
    assert _failed_jobs(workload) == {}


def test_tiny_threshold_outputs_match_references_with_march_pairs(processes):
    # Every seed's search forks once, and its child marches half of each rate's paths.
    assert _failed_jobs("mf-threshold") == {}
    assert len(processes.forks) == len(workloads.REF_SEEDS)
