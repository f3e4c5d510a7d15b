"""Write references.json: every workload's checked outputs at each reference seed.

Usage (from the root of a checkout):
    python3 perfbench/capture_refs.py

Run it at the commit whose outputs are the reference; run.py then fails any
job whose outputs differ from them.  Every size, workload and seed is
captured and the file is rewritten as a whole, so its environment stamp
describes every entry.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    pinned = run.pin_environment()
    cli = run.import_program()["cli"]
    refs = {"environment": run.environment(pinned)}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            seeded = any(job.seeded for job in workloads.jobs(workload, size))
            for seed in workloads.REF_SEEDS if seeded else workloads.REF_SEEDS[:1]:
                session = run.Session(cli, workload, size, seed, None)
                wall, _ = session.rep()
                if session.failed:
                    sys.exit(f"error: {workload} ({size}) failed at seed {seed}")
                refs[run.reference_key(size, workload, seed)] = session.outputs()
                print(f"{size}/{workload} seed {seed}: {wall:.2f} s", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
