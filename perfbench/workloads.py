"""Job lists of the three benchmark workloads, at full and at smoke-test size.

Each job is one `stackgame.cli.main` invocation: a config document, whose
model and action become the command's arguments, and whether the benchmark
seed is passed as `--seed`.
The parameter sets are the README examples (mfg.yaml, dynamic.yaml and the
a=10, b=1, c0=1, c1=2 duopoly).
"""

from __future__ import annotations

from dataclasses import dataclass

MFG = dict(
    A0=0.0, B0=1.0, C0=0.1, A=0.0, B=1.0, C=0.1, D=0.1,
    a0=1.0, a=1.0, l0=0.2, l=0.2, b0=0.5, b=0.5,
    sigma=0.1, r=0.05, T=1.0, x0_init=0.5, xbar_init=0.5,
)
DYNAMIC = dict(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05, T=10.0)
DUOPOLY = dict(a=10.0, b=1.0, c0=1.0, c1=2.0)

# Monte Carlo jobs take `--seed REF_SEEDS[seed % len(REF_SEEDS)]`: the output
# check needs a reference captured at that seed, and references exist only
# for these.
REF_SEEDS = tuple(range(20))

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Job:
    name: str
    config: dict  # holds the model and action too
    seeded: bool


def _mf(action: str, paths: int, steps: int, **penalty) -> dict:
    return {"model": "meanfield", "action": action, "params": MFG,
            "mc": {"n_paths": paths, "n_steps": steps}, "penalty": penalty}


def jobs(workload: str, size: str) -> list[Job]:
    """The job list of `workload` at `size` ("full" or "tiny")."""
    full = size == "full"
    if workload == "mf-threshold":
        paths, steps = (10_000, 1000) if full else (200, 50)
        return [Job("threshold-k", _mf("threshold-k", paths, steps, tol=0.01), True)]
    if workload == "mf-single-pass":
        paths, steps = (40_000, 250) if full else (200, 50)
        return [
            Job("defect", _mf("defect", paths, steps, k=0.5), True),
            Job("verify", _mf("verify", paths, steps), True),
        ]
    if workload == "deterministic-fine":
        steps, n_periods = (20_000, 400) if full else (50, 20)
        dyn = {"model": "dynamic", "params": DYNAMIC, "grid": {"n_steps": steps}}
        disc = {"model": "discrete", "params": DUOPOLY, "penalty": {"N": n_periods}}
        return [
            Job("mf-equilibrium", _mf("equilibrium", 10_000, steps), False),
            Job("dyn-threshold-k", {**dyn, "action": "threshold-k"}, False),
            Job("dyn-verify", {**dyn, "action": "verify"}, False),
            Job("disc-threshold-k", {**disc, "action": "threshold-k"}, False),
            # The only CLI action that calls brute_force_oracle (10^6-point grid).
            Job("disc-verify", {**disc, "action": "verify"}, False),
        ]
    raise KeyError(workload)


WORKLOADS = ("mf-threshold", "mf-single-pass", "deterministic-fine")
