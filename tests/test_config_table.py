"""The CLI config table: a one-field mutation property, and the README's copy of it.

Every mutation of one field of a tiny valid config, through `cli.main`, must
give exit 0 with finite results, exit 2 (configuration) or exit 3 (numerical
failure); never an uncaught exception.
"""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgame import cli
from stackgame.discrete import DuopolyParams
from stackgame.dynamic import DynamicParams
from stackgame.meanfield import MfgParams

PARAMS = {
    "discrete": (DuopolyParams, dict(a=10.0, b=1.0, c0=1.0, c1=2.0)),
    "dynamic": (DynamicParams,
                dict(a=10.0, b=1.0, cbar1=2.0, gamma=0.02, delta=0.1, r=0.05, T=10.0)),
    "meanfield": (MfgParams, dict(A0=0.0, B0=1.0, C0=0.1, A=0.0, B=1.0, C=0.1, D=0.1,
                                  a0=1.0, a=1.0, l0=0.2, l=0.2, b0=0.5, b=0.5,
                                  sigma=0.1, r=0.05, T=1.0, x0_init=0.5, xbar_init=0.5)),
}

# The table's fixed-key fields plus the top-level seed; the params fields
# come from each model's parameter record.
TABLE_FIELDS = [("", "seed")] + [
    (section, key) for section in ("grid", "mc", "penalty") for key in cli._TABLE[section]
]
VALUES = [math.nan, math.inf, -math.inf, -1, -1.5, 0, True, "abc", 2.5, None,
          10**30, 1.0e300, -1.0e300]


def tiny_config(model: str) -> dict:
    """At most 200 paths x 50 steps and N = 10, so a job takes milliseconds."""
    return {"params": dict(PARAMS[model][1]), "grid": {"n_steps": 50},
            "mc": {"n_paths": 200, "n_steps": 50, "seed": 42}, "penalty": {"N": 10}}


@st.composite
def mutations(draw):
    model = draw(st.sampled_from(cli.MODELS))
    action = draw(st.sampled_from(cli.ACTIONS))
    params = [("params", f.name) for f in fields(PARAMS[model][0])]
    section, key = draw(st.sampled_from(TABLE_FIELDS + params))
    doc = tiny_config(model)
    (doc[section] if section else doc)[key] = draw(st.sampled_from(VALUES))
    return model, action, doc


def run_main(tmp: Path, model: str, action: str, doc: dict) -> int:
    path = tmp / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    rc = cli.main([model, action, "--config", str(path), "--out", str(tmp / "out")])
    if rc == 0:
        report = (tmp / "out" / "report.txt").read_text()
        results = report.split("[results]")[1].split("[certificates]")[0]
        for line in results.splitlines():
            value = line.partition(" = ")[2]
            try:
                number = float(value)
            except ValueError:
                continue  # a string result, such as the discrete mode
            assert math.isfinite(number), f"{line} in [results]"
    return rc


@pytest.mark.parametrize("action", cli.ACTIONS)
@pytest.mark.parametrize("model", cli.MODELS)
def test_tiny_config_runs(tmp_path, model, action):
    assert run_main(tmp_path, model, action, tiny_config(model)) == 0


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(mutations())
def test_one_field_mutation_exits_typed(tmp_path_factory, case):
    model, action, doc = case
    assert run_main(tmp_path_factory.mktemp("job"), model, action, doc) in (0, 2, 3)


def test_accepted_numbers_become_floats():
    # Reals reach numpy as floats: an int T of 10**30 would give the
    # mean-field grid an object dtype.
    cfg = cli.parse_config("params: {T: 1000000000000000000000000000000}\n"
                           "penalty: {k: 1, t0: 0, tol: 1, N: 3, m: 2}")
    assert [type(v) for v in cfg.params.values()] == [float]
    assert {k: type(v) for k, v in cfg.penalty.items()} == {
        "k": float, "t0": float, "tol": float, "N": int, "m": int}


def test_readme_key_table_matches_the_cli_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    documented = set(re.findall(r"^\| `([\w.*]+)` \|", section, flags=re.MULTILINE))
    keys = {key for key in cli._TABLE[""] if key not in cli._TABLE}
    keys |= {f"{s}.{key}" for s in cli._TABLE if s for key in cli._TABLE[s]}
    assert documented == keys


MALFORMED = ["model: [unclosed", "\tmodel: discrete", "a: b: c", "key: 'unterminated", "{a: 1",
             "model: discrete\n  action: verify\n bad: 1", "\x00", "a: &x 1\nb: *y",
             "!!python/object/apply:os.system [echo]", "- a\n- b", "",
             # Well-formed YAML whose tagged value does not convert: PyYAML's
             # constructor raises a plain ValueError for these.
             "params: {a: !!float abc, b: 1.0, c0: 1.0, c1: 2.0}", "params: {a: !!int 1.5}",
             'params: {a: !!timestamp "2020-13-45"}']


def _config_documents() -> list[str]:
    """Every config document the tests and the perfbench job lists write."""
    import sys

    perfbench = str(Path(__file__).parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    from test_cli import DISCRETE_YAML, DYNAMIC_YAML, MEANFIELD_YAML, TINY_YAML

    docs = [DISCRETE_YAML, DYNAMIC_YAML, MEANFIELD_YAML, *TINY_YAML.values()]
    docs += [yaml.safe_dump(job.config, sort_keys=False) for workload in workloads.WORKLOADS
             for size in workloads.SIZES for job in workloads.jobs(workload, size)]
    for model in cli.MODELS:
        docs.append(yaml.safe_dump(tiny_config(model)))
        params = [("params", f.name) for f in fields(PARAMS[model][0])]
        for section, key in TABLE_FIELDS + params:
            for value in VALUES:
                doc = tiny_config(model)
                (doc[section] if section else doc)[key] = value
                docs.append(yaml.safe_dump(doc))
    return docs


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree(monkeypatch, tmp_path):
    def outcome(document, loader):
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        try:
            return cli.emit_config(cli.parse_config(document))  # a NaN differs from itself
        except cli.ConfigurationError as exc:
            return "rejected" if document in MALFORMED else str(exc)

    for document in _config_documents() + MALFORMED:
        assert outcome(document, yaml.CSafeLoader) == outcome(document, yaml.SafeLoader)
    for document in MALFORMED:
        assert outcome(document, yaml.CSafeLoader) == "rejected"
        (tmp_path / "config.yaml").write_text(document)
        assert cli.main(["discrete", "verify", "--config", str(tmp_path / "config.yaml")]) == 2
