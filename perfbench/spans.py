"""Outside-in span recorder for the traced benchmark run.

The public functions of each layer are wrapped where the program looks them
up: the defining module and every stackgame module that copied the name in
with `from .numerics import ...`.  A span is (name, start, end, parent index)
and is kept in memory; `layer_metrics` reduces the spans of one repetition to the
per-layer numbers.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

# (module, function, counters).  A counter maps (args, result) to a number
# added to `<module>.<function>.<counter>` on each call.
TRACED = [
    ("cli", "parse_config", {}),
    ("cli", "run", {}),
    ("cli", "write_report", {"bytes": lambda args, res: sum(
        f.stat().st_size for f in Path(args[1]).iterdir())}),
    ("meanfield", "min_k_meanfield", {"evals": lambda args, res: len(res.details["trace"])}),
    ("meanfield", "mc_payoffs", {}),
    ("meanfield", "mean_field_bvp", {}),
    ("meanfield", "defection_riccati", {}),
    ("meanfield", "follower_riccati", {}),
    ("dynamic", "min_k_dynamic", {}),
    ("dynamic", "defection_payoff", {}),
    ("dynamic", "bvp_oracle_trajectories", {}),
    ("dynamic", "theorem2_lhs", {}),
    ("discrete", "min_k_discrete", {}),
    ("discrete", "discount_schedule", {}),
    ("discrete", "brute_force_oracle", {}),
    ("numerics", "em_paths", {
        "path_steps": lambda args, res: res.paths.shape[0] * (res.paths.shape[1] - 1),
        "bytes": lambda args, res: res.paths.nbytes,
    }),
    ("numerics", "path_normals", {"bytes": lambda args, res: res.nbytes}),
    ("numerics", "rk4_solve_general", {"steps": lambda args, res: res.shape[0] - 1}),
    ("numerics", "solve_affine_bvp", {}),
    ("numerics", "find_root_bisect", {}),
]

# Per-layer metrics reported for every workload (zero where a layer is idle),
# with their units.  `.s` is total span time, `.self_s` excludes child spans.
METRICS = {}
for _mod, _fn, _counters in TRACED:
    METRICS[f"{_mod}.{_fn}.s"] = "s"
    METRICS[f"{_mod}.{_fn}.calls"] = "count"
    for _c in _counters:
        METRICS[f"{_mod}.{_fn}.{_c}"] = "bytes" if _c == "bytes" else "count"
for _name in ("meanfield.min_k_meanfield", "meanfield.mc_payoffs", "meanfield.mean_field_bvp"):
    METRICS[f"{_name}.self_s"] = "s"


class Tracer:
    """Collects spans while installed; a no-op on the program once removed."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported stackgame module
        self.spans: list[list] = []  # [name, start, end, parent, {counter: value}]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, counters: dict):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for counter, count in counters.items():
                span[4][counter] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for mod, fn_name, counters in TRACED:
            original = getattr(self.modules[mod], fn_name)
            wrapper = self._wrap(f"{mod}.{fn_name}", original, counters)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one repetition's spans."""
    out = dict.fromkeys(METRICS, 0)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, counts) in enumerate(spans):
        out[f"{name}.s"] += end - start
        out[f"{name}.calls"] += 1
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += end - start - child_time[i]
        for counter, value in counts.items():
            out[f"{name}.{counter}"] += value
    return out
