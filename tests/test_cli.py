"""Tests for the command-line front end: config handling, outputs, exit codes."""

import csv
import errno
import math
import mmap
import os

import numpy as np
import pytest
import yaml

from stackgame import cli, dynamic, numerics
from stackgame.cli import RunConfig, RunReport, emit_config, main, parse_config, run, write_report
from stackgame.errors import ConfigurationError

DISCRETE_YAML = """
model: discrete
action: verify
params: {a: 10.0, b: 1.0, c0: 1.0, c1: 2.0}
"""

DYNAMIC_YAML = """
model: dynamic
action: equilibrium
params: {a: 10.0, b: 1.0, cbar1: 2.0, gamma: 0.02, delta: 0.1, r: 0.05, T: 10.0}
grid: {n_steps: 1000}
"""

MEANFIELD_YAML = """
model: meanfield
action: defect
params:
  A0: 0.0
  B0: 1.0
  C0: 0.1
  A: 0.0
  B: 1.0
  C: 0.1
  D: 0.1
  a0: 1.0
  a: 1.0
  l0: 0.2
  l: 0.2
  b0: 0.5
  b: 0.5
  sigma: 0.1
  r: 0.05
  T: 1.0
  x0_init: 0.5
  xbar_init: 0.5
mc: {n_paths: 500, n_steps: 200, seed: 42}
penalty: {k: 0.5}
"""


class TestParseConfig:
    def test_defaults_are_filled(self):
        cfg = parse_config("model: discrete\naction: verify\nparams: {a: 1, b: 1, c0: 1, c1: 1}")
        assert cfg.grid["n_steps"] == 2000
        assert cfg.mc["n_paths"] == 10_000
        assert cfg.mc["seed"] == 42

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ConfigurationError, match="gamma_typo"):
            parse_config("model: dynamic\naction: verify\ngamma_typo: 1")

    def test_unknown_section_key_is_named(self):
        with pytest.raises(ConfigurationError, match="n_stepz"):
            parse_config("model: dynamic\naction: verify\ngrid: {n_stepz: 10}")

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ConfigurationError, match="params.a"):
            parse_config("model: discrete\naction: verify\nparams: {a: fast}")

    def test_bad_yaml_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("model: [unclosed")
        with pytest.raises(ConfigurationError):
            parse_config("- a\n- b")

    def test_unknown_model_and_action_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("model: chess\naction: verify")
        with pytest.raises(ConfigurationError):
            parse_config("model: discrete\naction: win")

    def test_round_trip(self):
        cfg = parse_config(DYNAMIC_YAML)
        assert parse_config(emit_config(cfg)) == cfg


class TestRun:
    def test_discrete_verify_certificates_pass(self):
        report = run(parse_config(DISCRETE_YAML))
        assert report.certificates
        for label, line in report.certificates.items():
            assert line.endswith("PASS"), f"{label}: {line}"
        assert abs(report.results["J0_star"] - 12.5) < 1e-12

    def test_dynamic_equilibrium_has_trajectory(self):
        report = run(parse_config(DYNAMIC_YAML))
        assert report.trajectory is not None
        assert set(report.trajectory) >= {"t", "x1", "lam", "u0", "u1"}
        for line in report.certificates.values():
            assert line.endswith("PASS")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            run(RunConfig(model="poker", action="verify"))


class TestMain:
    def _write(self, tmp_path, text, name="config.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_discrete_verify_end_to_end(self, tmp_path, capsys):
        cfg = self._write(tmp_path, DISCRETE_YAML)
        rc = main(["discrete", "verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[certificates]" in report and "FAIL" not in report
        assert "ratio_9" in report and "oracle_J0" in report

    def test_dynamic_equilibrium_writes_trajectory_csv(self, tmp_path):
        cfg = self._write(tmp_path, DYNAMIC_YAML)
        out = tmp_path / "out"
        assert main(["dynamic", "equilibrium", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert {"x1", "lam", "u0", "u1"} <= set(rows[0])
        assert len(rows) == 1 + 1000 + 1  # header + nodes

    def test_zero_margin_discrete_verify_certifies_without_dividing(self, tmp_path):
        # a = c0 = c1 = 1: the margin, the defection gain, J0^ and J0* are all 0.
        text = DISCRETE_YAML.replace("a: 10.0", "a: 1.0").replace("c1: 2.0", "c1: 1.0")
        cfg = self._write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["discrete", "verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "ratio_9 = |0 - 0| <= 1e-12 (tol 1e-12) : PASS" in report
        assert "ratio_8 = |0 - 0| <= 1e-12 (tol 1e-12) : PASS" in report
        assert "FAIL" not in report

    def test_given_out_is_taken_from_the_working_directory(self, tmp_path, monkeypatch):
        cfg = self._write(tmp_path, DISCRETE_YAML)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["discrete", "verify", "--config", str(cfg), "--out", "."]) == 0
        assert (work / "report.txt").is_file()
        assert not (tmp_path / "report.txt").exists()
        # Without --out, the config's default "." is the config's directory.
        assert main(["discrete", "verify", "--config", str(cfg)]) == 0
        assert (tmp_path / "report.txt").is_file()

    @pytest.mark.parametrize("out, where", [
        (".", "cfg"), ("./", "cfg"), ("results", "cfg/results"), ("../up", "up"),
        ("{abs}", "abs"),
    ])
    def test_config_out_is_taken_from_the_config_directory(
            self, tmp_path, monkeypatch, out, where):
        (tmp_path / "cfg").mkdir()
        work = tmp_path / "work"
        work.mkdir()
        out = out.format(abs=tmp_path / "abs")
        cfg = self._write(tmp_path / "cfg", DISCRETE_YAML + f"out: '{out}'\n")
        monkeypatch.chdir(work)
        assert main(["discrete", "verify", "--config", os.path.relpath(cfg, work)]) == 0
        assert (tmp_path / where / "report.txt").is_file()
        assert list(work.iterdir()) == []
        assert f"out = {out}" in (tmp_path / where / "report.txt").read_text().splitlines()

    def test_threshold_k_writes_sweep_csv(self, tmp_path):
        cfg = self._write(tmp_path, DISCRETE_YAML)
        out = tmp_path / "out"
        assert main(["discrete", "threshold-k", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "J_star", "J_tilde", "satisfied"]
        assert all(row[3] in ("true", "false") for row in rows[1:])

    def test_meanfield_defect_reports_standard_errors(self, tmp_path):
        cfg = self._write(tmp_path, MEANFIELD_YAML)
        out = tmp_path / "out"
        assert main(["meanfield", "defect", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "J_tilde_se" in report and "deterred_3se" in report

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["discrete", "verify", "--config", str(tmp_path / "absent.yaml")])
        assert rc == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_bytes(b"# \xff\xfe\n" + DISCRETE_YAML.encode())
        assert main(["discrete", "verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: config is not valid YAML: ")
        cfg.write_bytes(DISCRETE_YAML.encode("utf-16"))  # with a byte-order mark
        assert main(["discrete", "verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_dynamic_threshold_k_computes_the_equilibrium_payoff_once(
            self, tmp_path, monkeypatch):
        calls, payoff = [], dynamic.equilibrium_payoff

        def counted(p, grid):
            calls.append(grid)
            return payoff(p, grid)

        monkeypatch.setattr(dynamic, "equilibrium_payoff", counted)
        cfg = self._write(tmp_path, DYNAMIC_YAML)
        assert main(["dynamic", "threshold-k", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_invalid_parameter_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, DISCRETE_YAML.replace("b: 1.0", "b: 0.0"))
        rc = main(["discrete", "verify", "--config", str(cfg)])
        assert rc == 2
        assert "b must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("sigma: 0.1", "sigma: .nan"),
        ("r: 0.05", "r: .nan"),
        ("T: 1.0", "T: .inf"),
        ("n_steps: 200", "n_steps: .nan"),
        ("seed: 42", "seed: .nan"),
        # A non-bool mc.zero_noise must not be read as truthy or falsy.
        *[("seed: 42}", f"zero_noise: {v}, seed: 42}}")
          for v in ('"false"', '"true"', "0.5", "0", "1", "null")],
    ])
    def test_non_finite_meanfield_value_exits_2(self, tmp_path, capsys, old, new):
        cfg = self._write(tmp_path, MEANFIELD_YAML.replace(old, new))
        rc = main(["meanfield", "defect", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert new.split(":")[0] in capsys.readouterr().err

    def test_bool_zero_noise_is_accepted(self, tmp_path):
        text = MEANFIELD_YAML.replace("seed: 42}", "seed: 42, zero_noise: true}")
        cfg = self._write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["meanfield", "defect", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert "mc.zero_noise = True" in lines
        se = [float(line.split(" = ")[1]) for line in lines if line.startswith("J0_star_se")]
        assert se and se[0] < 1e-12  # every path is the mean path

    @pytest.mark.parametrize("text, extra", [
        (MEANFIELD_YAML.replace("seed: 42", "seed: -1"), []),
        (MEANFIELD_YAML, ["--seed", "-1"]),
        (MEANFIELD_YAML + "seed: .nan\n", []),
    ])
    def test_bad_seed_exits_2(self, tmp_path, capsys, text, extra):
        cfg = self._write(tmp_path, text)
        rc = main(["meanfield", "defect", "--config", str(cfg),
                   "--out", str(tmp_path / "out"), *extra])
        assert rc == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("action, penalty", [
        ("defect", "k: .nan"),
        ("defect", "k: .inf"),
        ("defect", "k: -0.5"),
        ("threshold-k", "tol: .nan"),
        ("threshold-k", "tol: 0.0"),
    ])
    def test_bad_meanfield_penalty_exits_2(self, tmp_path, capsys, action, penalty):
        cfg = self._write(tmp_path, MEANFIELD_YAML.replace("k: 0.5", penalty))
        rc = main(["meanfield", action, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert penalty.split(":")[0] + " must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("model, action, penalty, message", [
        ("discrete", "defect", "{N: .nan}", "penalty.N must be an integer"),
        ("discrete", "defect", "{m: .nan}", "penalty.m must be an integer"),
        ("discrete", "defect", "{N: 2.5}", "penalty.N must be an integer"),
        ("discrete", "defect", "{N: true}", "penalty.N must be an integer"),
        ("discrete", "defect", "{k: abc}", "penalty.k must be finite and real"),
        ("dynamic", "defect", "{k: abc}", "penalty.k must be finite and real"),
        ("dynamic", "defect", "{t0: .inf}", "penalty.t0 must be finite and real"),
        ("discrete", "threshold-k", "{mode: fixed, m: 2.5}", "penalty.m must be an integer"),
        ("discrete", "threshold-k", "{mode: 3}", "penalty.mode must be a string"),
        ("meanfield", "threshold-k", "{tol: abc}", "penalty.tol must be finite and real"),
    ])
    def test_bad_penalty_value_exits_2(self, tmp_path, capsys, model, action, penalty, message):
        base = {"discrete": DISCRETE_YAML, "dynamic": DYNAMIC_YAML,
                "meanfield": MEANFIELD_YAML.replace("penalty: {k: 0.5}\n", "")}[model]
        cfg = self._write(tmp_path, base + f"penalty: {penalty}\n")
        rc = main([model, action, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_non_finite_dynamic_parameter_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, DYNAMIC_YAML.replace("r: 0.05", "r: .nan"))
        rc = main(["dynamic", "threshold-k", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "r must be finite" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # gamma = 1 with r = 1 breaks the saddle hypothesis of the dynamic model.
        text = DYNAMIC_YAML.replace("gamma: 0.02", "gamma: 1.0").replace("r: 0.05", "r: 1.0")
        cfg = self._write(tmp_path, text)
        rc = main(["dynamic", "equilibrium", "--config", str(cfg)])
        assert rc == 3
        assert "saddle" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["20", "50", "250"])
    def test_meanfield_riccati_pole_exits_3(self, tmp_path, capsys, steps):
        # On T = 1.6 the follower gain F has a pole near t = 0.03.
        cfg = self._write(tmp_path, MEANFIELD_YAML.replace("T: 1.0", "T: 1.6"))
        rc = main(["meanfield", "equilibrium", "--config", str(cfg),
                   "--out", str(tmp_path / "out"), "--steps", steps])
        assert rc == 3
        assert "Riccati solution blew up" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # 10^7 paths x 10^5 steps passes validation and its march would ask
        # for terabytes; the runner raises as numpy would, without allocating.
        text = MEANFIELD_YAML.replace("n_paths: 500, n_steps: 200",
                                      "n_paths: 10000000, n_steps: 100000")

        def out_of_memory(cfg):
            raise MemoryError("Unable to allocate 3.64 TiB for an array with shape "
                              "(100000, 5000000) and data type float64")

        monkeypatch.setitem(cli._RUNNERS, "meanfield", out_of_memory)
        cfg = self._write(tmp_path, text)
        rc = main(["meanfield", "defect", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory for this configuration: Unable to allocate")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("action", ["equilibrium", "defect", "threshold-k", "verify"])
    def test_odd_dynamic_step_count_exits_2_naming_the_key(self, tmp_path, capsys, action):
        # Simpson's rule needs an even number of intervals.
        cfg = self._write(tmp_path, DYNAMIC_YAML.replace("n_steps: 1000", "n_steps: 1001"))
        rc = main(["dynamic", action, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "grid.n_steps must be even" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["equilibrium", "defect", "threshold-k", "verify"])
    def test_one_closed_form_build_per_dynamic_job(self, tmp_path, monkeypatch, action):
        # Every consumer reads the structure kept on the parameter record.
        calls = []
        eig = dynamic.eig_2x2
        monkeypatch.setattr(dynamic, "eig_2x2", lambda m: calls.append(1) or eig(m))
        cfg = self._write(tmp_path, DYNAMIC_YAML.replace("n_steps: 1000", "n_steps: 50"))
        assert main(["dynamic", action, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_unknown_action_exits_2(self, tmp_path):
        cfg = self._write(tmp_path, DISCRETE_YAML)
        assert main(["discrete", "conquer", "--config", str(cfg)]) == 2

    def test_seed_and_steps_overrides_land_in_report(self, tmp_path):
        cfg = self._write(tmp_path, MEANFIELD_YAML)
        out = tmp_path / "out"
        rc = main([
            "meanfield", "defect", "--config", str(cfg), "--out", str(out),
            "--seed", "7", "--paths", "300", "--steps", "151",
        ])
        assert rc == 0  # an odd step count is fine for the mean-field model
        report = (out / "report.txt").read_text()
        assert "mc.seed = 7" in report
        assert "mc.n_paths = 300" in report
        assert "mc.n_steps = 151" in report
        assert "grid.n_steps = 151" in report

    def test_worker_count_does_not_change_outputs(self, tmp_path, processes):
        # The fixture makes the 500 x 200 ensemble fork on two CPUs: once for
        # defect's marches, and once for the whole threshold-k search.
        cfg = self._write(tmp_path, MEANFIELD_YAML)
        for action in ("defect", "threshold-k"):
            outputs = {}
            for cpus in (1, 2):
                processes.cpus(cpus)
                processes.forks.clear()
                out = tmp_path / f"{action}{cpus}"
                assert main(["meanfield", action, "--config", str(cfg), "--out", str(out)]) == 0
                text = (out / "report.txt").read_text()
                # Strip the lines that legitimately differ (wall time, output directory).
                body = "\n".join(
                    line for line in text.splitlines()
                    if not line.startswith(("wall_time", "out ="))
                )
                csvs = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
                outputs[cpus] = body, csvs
            assert len(processes.forks) == 1
            assert outputs[1] == outputs[2]
        assert "sweep.csv" in outputs[2][1]

    def test_meanfield_threshold_repeats_byte_for_byte(self, tmp_path):
        # The search's marches all read one draw of the normals.
        cfg = self._write(tmp_path, TINY_YAML["meanfield"])
        outputs = []
        for run_dir in ("first", "second"):
            out = tmp_path / run_dir
            assert main(["meanfield", "threshold-k", "--config", str(cfg), "--out", str(out)]) == 0
            report = [line for line in (out / "report.txt").read_text().splitlines()
                      if not line.startswith(("wall_time_s", "out ="))]
            outputs.append((report, (out / "sweep.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_report_records_one_worker_whatever_the_environment(self, tmp_path, monkeypatch):
        # The row is not a worker count, and no worker-count variable is read.
        monkeypatch.setenv("STACKGAME_WORKERS", "8")
        cfg = self._write(tmp_path, DISCRETE_YAML)
        assert main(["discrete", "verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "workers = 1" in (tmp_path / "report.txt").read_text().splitlines()


def _oracle_csvs(report: RunReport, out_dir) -> None:
    """The CSV files as csv.writer writes "%.12g"-formatted fields, one value at a time."""
    if report.trajectory is not None:
        names = list(report.trajectory)
        cols = [np.asarray(report.trajectory[n], dtype=float) for n in names]
        with open(out_dir / "trajectory.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for row in zip(*cols):
                w.writerow([f"{v:.12g}" for v in row])
    if report.sweep is not None:
        with open(out_dir / "sweep.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "J_star", "J_tilde", "satisfied"])
            for k, js, jt, sat in report.sweep:
                w.writerow([f"{k:.12g}", f"{js:.12g}", f"{jt:.12g}", str(bool(sat)).lower()])


def _assert_csvs_match_oracle(report: RunReport, tmp_path) -> list[str]:
    (tmp_path / "new").mkdir()
    (tmp_path / "oracle").mkdir()
    write_report(report, tmp_path / "new")
    _oracle_csvs(report, tmp_path / "oracle")
    written = sorted(p.name for p in (tmp_path / "oracle").iterdir())
    assert sorted(p.name for p in (tmp_path / "new").glob("*.csv")) == written
    for name in written:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
    return written


TINY_YAML = {
    "discrete": DISCRETE_YAML,
    "dynamic": DYNAMIC_YAML.replace("n_steps: 1000", "n_steps: 50"),
    "meanfield": MEANFIELD_YAML.replace("n_paths: 500, n_steps: 200", "n_paths: 200, n_steps: 50"),
}


class TestCsvOutput:
    def test_special_values_and_several_blocks_match_csv_writer(self, tmp_path):
        n = 2500  # more than two blocks of rows
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300,
                   1.0 / 3.0, 123456789012345.0, 2.0**-1074 * 3, 1e16]
        rng = np.random.default_rng(0)
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        col[: len(special)] = special
        col[-len(special):] = special
        trajectory = {"t": np.linspace(0.0, 1.0, n), "x": col, "y": -col[::-1],
                      "n": np.arange(n)}
        sweep = [(k, 1.5, v, k > 0.5) for k, v in zip(np.linspace(0, 1, 30), special * 3)]
        report = RunReport(config=RunConfig(model="dynamic", action="equilibrium"), results={},
                           certificates={}, warnings=[], trajectory=trajectory, sweep=sweep,
                           wall_time=0.0)
        assert _assert_csvs_match_oracle(report, tmp_path) == ["sweep.csv", "trajectory.csv"]

    @pytest.mark.parametrize("model", ["discrete", "dynamic", "meanfield"])
    @pytest.mark.parametrize("action", ["equilibrium", "defect", "threshold-k", "verify"])
    def test_every_cli_action_matches_csv_writer(self, tmp_path, model, action):
        cfg = parse_config(TINY_YAML[model])
        cfg.model, cfg.action = model, action
        _assert_csvs_match_oracle(run(cfg), tmp_path)

    def test_meanfield_sweep_satisfied_is_the_search_verdict(self, tmp_path):
        # At 200 paths x 50 steps, seed 3, the growth check rejects k = 0.375
        # and 0.40625 although their payoffs are separated.  Every rate the
        # search tried below k_min failed, and every one at or above passed.
        path = tmp_path / "config.yaml"
        path.write_text(TINY_YAML["meanfield"].replace("seed: 42", "seed: 3"))
        out = tmp_path / "out"
        assert main(["meanfield", "threshold-k", "--config", str(path), "--out", str(out)]) == 0
        k_min = next(float(line.split(" = ")[1]) for line in
                     (out / "report.txt").read_text().splitlines() if line.startswith("k_min"))
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert k_min == 0.4140625 and len(rows) == 11
        assert [row[3] for row in rows] == [
            "true" if float(row[0]) >= k_min else "false" for row in rows]


class TestUnwritableOutputs:
    @pytest.mark.parametrize("under", ["file", "file/sub"])
    def test_out_blocked_by_a_file_exits_2(self, tmp_path, capsys, under):
        (tmp_path / "file").write_text("not a directory")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(DISCRETE_YAML)
        rc = main(["discrete", "verify", "--config", str(cfg), "--out", str(tmp_path / under)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write outputs: ")
        assert "Traceback" not in err


def _table():
    """Float columns of 1001 rows.

    Each half of the rows holds -0.0, inf, nan, a subnormal and a field of
    the longest "%.12g" form.
    """
    n = 1001
    rng = np.random.default_rng(1)
    col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = [-0.0, math.inf, -math.inf, math.nan, 5e-324, -1.23456789012e-308]
    assert len("%.12g" % special[-1]) == 19
    col[: len(special)] = special
    col[-len(special):] = special
    return ["t", "x", "y"], [np.linspace(0.0, 1.0, n), col, -col[::-1]]


class TestTableByHalves:
    """From the field bar on two CPUs a child formats the second half of trajectory.csv's rows."""

    @pytest.fixture
    def two_processes(self, processes, monkeypatch, tmp_path):
        """The bar lowered to one field; returns the one-process bytes of _table()."""
        names, cols = _table()
        path = tmp_path / "one.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([names] + [["%.12g" % v for v in row] for row in zip(*cols)])
        monkeypatch.setattr(numerics, "_FORK_MIN_FIELDS", 1)
        return path.read_bytes()

    @staticmethod
    def _written(tmp_path):
        path = tmp_path / "two.csv"
        cli._write_table(path, *_table())
        return path.read_bytes()

    def test_two_processes_write_the_one_process_bytes(self, tmp_path, processes, two_processes):
        assert self._written(tmp_path) == two_processes
        assert len(processes.forks) == 1

    def test_one_cpu_does_not_fork(self, tmp_path, processes, two_processes):
        processes.cpus(1)
        assert self._written(tmp_path) == two_processes
        assert processes.forks == []

    def test_failed_fork_writes_in_process(self, tmp_path, processes, two_processes, monkeypatch):
        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self._written(tmp_path) == two_processes

    def test_failed_mmap_writes_in_process(self, tmp_path, processes, two_processes, monkeypatch):
        def no_memory(*args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_memory)
        assert self._written(tmp_path) == two_processes
        assert processes.forks == []

    def test_child_exiting_non_zero_writes_in_process(self, tmp_path, processes, two_processes,
                                                      monkeypatch):
        failed = []

        def failing_fork():
            pid = processes.real_fork()
            if pid == 0:
                os._exit(3)
            failed.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", failing_fork)
        assert self._written(tmp_path) == two_processes
        assert len(failed) == 1

    def test_child_exiting_0_without_answering_writes_in_process(
            self, tmp_path, processes, two_processes, monkeypatch):
        # Only the child's answer says that its bytes are in the file, not its exit status.
        quiet = []

        def quiet_fork():
            pid = processes.real_fork()
            if pid == 0:
                os._exit(0)
            quiet.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", quiet_fork)
        assert self._written(tmp_path) == two_processes
        assert len(quiet) == 1

    def test_child_whose_write_raises_leaves_the_rest_to_this_process(
            self, tmp_path, processes, two_processes, monkeypatch):
        # The child writes half of its bytes and raises; this process writes over them.
        real_pwrite = os.pwrite

        def failing_pwrite(fd, data, offset):
            real_pwrite(fd, data[: len(data) // 2], offset)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "pwrite", failing_pwrite)
        assert self._written(tmp_path) == two_processes
        assert len(processes.forks) == 1

    def test_unwritable_out_exits_2(self, tmp_path, capsys, processes, two_processes):
        (tmp_path / "file").write_text("not a directory")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(DYNAMIC_YAML)
        out = tmp_path / "file" / "out"
        assert main(["dynamic", "equilibrium", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write outputs: ")
        assert processes.forks == []

    def test_failed_write_kills_the_child_and_exits_2(self, tmp_path, capsys, processes,
                                                      two_processes):
        # Writes to /dev/full fail with ENOSPC once this process's half
        # overflows the file buffer, while the child formats its half.
        cfg = tmp_path / "config.yaml"
        cfg.write_text(DYNAMIC_YAML)
        out = tmp_path / "out"
        out.mkdir()
        (out / "trajectory.csv").symlink_to("/dev/full")
        assert main(["dynamic", "equilibrium", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write outputs: ") and "Traceback" not in err
        assert len(processes.forks) == 1
