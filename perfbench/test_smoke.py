"""Smoke test of the benchmark at smoke-test size (seconds, not minutes).

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_no_failed_job(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac = 0 " in out.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_output_check_tolerates_rounding_only():
    want = {"results": {"k_min": "0.3828125", "mode": "worst-case"},
            "certificates": {"deterred_3se": "PASS"}, "rows": {"sweep.csv": 12}}
    same = json.loads(json.dumps(want))
    same["results"]["k_min"] = "0.38281250001"
    assert run.mismatches(same, want) == []
    for part, key, value in [("results", "k_min", "0.3828129"),
                             ("results", "mode", "fixed"),
                             ("certificates", "deterred_3se", "FAIL"),
                             ("rows", "sweep.csv", 11)]:
        bad = json.loads(json.dumps(want))
        bad[part][key] = value
        assert len(run.mismatches(bad, want)) == 1
    missing = json.loads(json.dumps(want))
    del missing["results"]["k_min"]
    assert len(run.mismatches(missing, want)) == 1
