"""Command-line interface: outputs, exit codes, reproducibility."""

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import aoidual
from aoidual.cli import main

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestAnalyze:
    def test_zero_wait_output(self, tmp_path, capsys):
        out = tmp_path / "zw"
        assert run(["analyze", "--policy", "zw", "--mu1", "1", "--mu2", "1",
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mean_aoi=1.25" in printed
        names = sorted(p.name for p in out.iterdir())
        assert names == ["aoi_table.csv", "manifest.json", "paoi_table.csv",
                         "summary.json"]

    def test_fp_writes_four_files(self, tmp_path):
        out = tmp_path / "fp"
        assert run(["analyze", "--policy", "fp", "--mu1", "0.5", "--mu2",
                    "0.1", "--lambda", "1", "--k", "10", "--grid-points",
                    "200", "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 4
        rows = read_csv(out / "aoi_table.csv")
        assert set(rows[0]) == {"x", "pdf", "cdf"}

    def test_preempt_only_output(self, tmp_path, capsys):
        out = tmp_path / "po"
        assert run(["analyze", "--policy", "fp_preempt_only", "--mu1", "1",
                    "--mu2", "1", "--out", str(out)]) == 0
        assert "mean_aoi=1.125 mean_paoi=1.125" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["meta"]["policy"] == "fp_preempt_only"

    def test_missing_lambda_exits_two(self, tmp_path, capsys):
        code = run(["analyze", "--policy", "fp", "--mu1", "0.5", "--mu2",
                    "0.1", "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--lambda" in capsys.readouterr().err

    def test_missing_rates_exit_two(self, tmp_path, capsys):
        code = run(["analyze", "--policy", "zw", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--mu1" in capsys.readouterr().err

    def test_fp_missing_mu2_exits_two(self, tmp_path, capsys):
        code = run(["analyze", "--policy", "fp", "--mu1", "0.5", "--lambda",
                    "1", "--k", "10", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--mu2" in capsys.readouterr().err

    def test_invalid_rate_exits_two(self, tmp_path):
        assert run(["analyze", "--policy", "zw", "--mu1", "-1", "--mu2", "1",
                    "--out", str(tmp_path / "x")]) == 2

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        run(["analyze", "--policy", "zw", "--mu1", "2", "--mu2", "1",
             "--grid-points", "100", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["parameters"]["mu1"] == 2.0
        assert "summary.json" in manifest["outputs"]
        assert manifest["duration_s"] >= 0.0


class TestSimulate:
    def test_repeat_runs_are_identical(self, tmp_path):
        args = ["simulate", "--policy", "zw", "--mu1", "1", "--mu2", "1",
                "--cycles", "20000", "--seed", "7", "--reps", "2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        for name in ("result.json", "aoi_ecdf.csv", "paoi_ecdf.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_mean_close_to_closed_form(self, tmp_path):
        out = tmp_path / "zw"
        run(["simulate", "--policy", "zw", "--mu1", "1", "--mu2", "1",
             "--cycles", "50000", "--seed", "3", "--reps", "8",
             "--out", str(out)])
        payload = json.loads((out / "result.json").read_text())
        assert abs(payload["mean_aoi"] - 1.25) <= 3.0 * payload["se_aoi"]

    def test_config_file_honored(self, tmp_path):
        cfg = {"policy": "fp", "mu1": 0.5, "mu2": 0.1, "lambda": 1.0,
               "k": 2, "cycles": 5000, "seed": 11, "reps": 3,
               "warmup": 200}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "fromcfg"
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["config"]["policy"] == "fp"
        assert payload["config"]["k"] == 2
        assert payload["config"]["seed"] == 11
        assert payload["config"]["warmup"] == 200
        assert len(payload["rep_mean_aoi"]) == 3

    def test_config_missing_field_exits_two(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "fp", "mu1": 0.5,
                                        "mu2": 0.1, "cycles": 5000}))
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "x")]) == 2

    def test_config_non_numeric_rate_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "zw", "mu1": "fast",
                                        "mu2": 0.1, "cycles": 5000}))
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "x")]) == 2
        assert "'mu1'" in capsys.readouterr().err

    def test_config_missing_file_exits_two(self, tmp_path, capsys):
        assert run(["simulate", "--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "x")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_list_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps([{"policy": "zw", "mu1": 1.0,
                                         "mu2": 0.1}]))
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "x")]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_config_null_cycles_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "zw", "mu1": 1.0,
                                        "mu2": 0.1, "cycles": None}))
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "x")]) == 2
        assert "'cycles'" in capsys.readouterr().err

    def test_flags_require_rates(self, tmp_path):
        assert run(["simulate", "--policy", "zw", "--cycles", "5000",
                    "--out", str(tmp_path / "x")]) == 2


class TestOptimize:
    def test_writes_optimum(self, tmp_path, capsys):
        out = tmp_path / "opt"
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "10",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "optimum.json").read_text())
        assert payload["lambda_star"] > 0
        assert payload["boundary_hit"] is False
        assert "lambda_star=" in capsys.readouterr().out

    def test_boundary_case_reported(self, tmp_path):
        out = tmp_path / "optb"
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "2",
                    "--bracket-lo", "50", "--bracket-hi", "100",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "optimum.json").read_text())
        assert payload["boundary_hit"] is True

    def test_numerical_failure_exits_one(self, tmp_path):
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "1",
                    "--rtol", "1e-300", "--out", str(tmp_path / "x")]) == 1


class TestFigure:
    def test_cdf_figure_has_six_curves(self, tmp_path):
        out = tmp_path / "f3b"
        assert run(["figure", "3b", "--cycles", "20000",
                    "--out", str(out)]) == 0
        rows = read_csv(out / "fig3b.csv")
        curves = {r["curve"] for r in rows}
        assert curves == {"analytic_k1", "analytic_k10", "analytic_k50",
                          "simulated_k1", "simulated_k10", "simulated_k50"}

    def test_rate_sweep_figure_references(self, tmp_path):
        out = tmp_path / "f5"
        assert run(["figure", "5", "--out", str(out)]) == 0
        rows = read_csv(out / "fig5.csv")
        zw_rows = [r for r in rows if r["curve"] == "zw_mu1_0.5"]
        assert zw_rows
        for row in zw_rows:
            assert float(row["mean_aoi"]) == pytest.approx(3.796296, abs=1e-6)
        assert any(r["curve"] == "lambda_star_mu1_0.5" for r in rows)

    def test_optimum_figure_reference_row(self, tmp_path):
        out = tmp_path / "f6"
        assert run(["figure", "6", "--out", str(out)]) == 0
        rows = read_csv(out / "fig6.csv")
        target = [r for r in rows
                  if r["policy"] == "fp_k50" and float(r["mu2"]) == 1.0]
        assert len(target) == 1
        assert float(target[0]["f_star"]) == pytest.approx(0.2894, abs=0.002)
        policies = {r["policy"] for r in rows}
        assert policies == {"preempt_only", "fp_k1", "fp_k10", "fp_k50"}

    def test_unknown_id_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["figure", "9"])
        assert exc.value.code == 2
        assert "3a" in capsys.readouterr().err  # lists the valid ids


def _pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def test_entry_point_installed():
    """The ``aoidual`` command is wired to ``aoidual.cli:main`` and
    ``--version`` exits 0 in a fresh interpreter, without an install."""
    project = _pyproject()["project"]
    target = project["scripts"]["aoidual"]
    assert target == "aoidual.cli:main"
    module_name, attr = target.split(":")
    assert getattr(importlib.import_module(module_name), attr) is main
    assert aoidual.__version__ == project["version"]

    src_dir = os.path.dirname(os.path.dirname(aoidual.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "aoidual", "--version"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == aoidual.__version__


@pytest.mark.skipif(shutil.which("aoidual") is None,
                    reason="no installed aoidual console script on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["aoidual", "--version"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == aoidual.__version__
