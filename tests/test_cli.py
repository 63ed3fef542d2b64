"""Command-line interface: outputs, exit codes, reproducibility."""

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import aoidual
from aoidual import (FpParams, GridSpec, SimConfig, ZwParams, build_fp_model,
                     simulate, summarize)
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

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("policy", ["zw", "fp_preempt_only"])
    def test_freeze_flags_without_freezes_exit_two(self, tmp_path, capsys, command, policy):
        # the freeze flags would be dropped: refuse them instead
        for flags in (["--lambda", "3"], ["--k", "7"], ["--lambda", "3", "--k", "7"]):
            assert run([command, "--policy", policy, "--mu1", "1", "--mu2", "0.5", *flags,
                        "--out", str(tmp_path / "x")]) == 2
            assert f"{flags[0]} does not apply to policy {policy}" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_invalid_rate_exits_two(self, tmp_path):
        assert run(["analyze", "--policy", "zw", "--mu1", "-1", "--mu2", "1",
                    "--out", str(tmp_path / "x")]) == 2

    def test_infinite_grid_end_exits_two_naming_it(self, tmp_path, capsys):
        assert run(["analyze", "--policy", "zw", "--mu1", "1", "--mu2", "1",
                    "--grid-max", "inf", "--out", str(tmp_path / "x")]) == 2
        assert "max_mult must be a positive finite number, got inf" in capsys.readouterr().err

    def test_truncated_kernel_exits_one(self, tmp_path, monkeypatch, capsys):
        # a Poisson window that drops more than EXPM_TAIL is a numerical
        # failure, not a silently truncated table
        from aoidual import phasetype

        window = phasetype._poisson_window
        monkeypatch.setattr(phasetype, "_poisson_window",
                            lambda mass, tail: (window(mass, tail)[0],
                                                window(mass, tail)[1] // 2))
        assert run(["analyze", "--policy", "zw", "--mu1", "1", "--mu2", "1",
                    "--grid-points", "20", "--out", str(tmp_path / "x")]) == 1
        assert "EXPM_TAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("model, grid_max", [
        (["--policy", "zw", "--mu1", "1", "--mu2", "1"], "1e19"),
        (["--policy", "zw", "--mu1", "1", "--mu2", "1"], "1e300"),
        (["--policy", "fp", "--mu1", "0.5", "--mu2", "0.1", "--lambda", "1e9", "--k", "1"],
         "1e300"),
    ], ids=["zw-1e19", "zw-1e300", "fp-mass-past-float-range"])
    def test_grid_end_beyond_int64_exits_zero(self, tmp_path, model, grid_max):
        # a Poisson mass above 2**63, or past the float range (1e9 * 1e300),
        # picks squaring instead of a walk with overflowed bounds; with
        # RuntimeWarnings as errors, no overflow warns
        out = tmp_path / "far"
        assert run(["analyze", *model, "--grid-max", grid_max, "--grid-points", "5",
                    "--out", str(out)]) == 0
        for name in ("aoi_table.csv", "paoi_table.csv"):
            cdf = [float(row["cdf"]) for row in read_csv(out / name)]
            assert cdf[0] == 0.0 and 0.0 < cdf[1] < 1e-3
            assert cdf[2:] == pytest.approx([1.0] * (len(cdf) - 2), abs=1e-12)

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        run(["analyze", "--policy", "zw", "--mu1", "2", "--mu2", "1",
             "--grid-points", "100", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["parameters"] == {"policy": "zw", "mu1": 2.0, "mu2": 1.0,
                                          "grid_points": 100, "grid_max": 40.0}
        assert "summary.json" in manifest["outputs"]
        assert manifest["duration_s"] >= 0.0

    @pytest.mark.parametrize("argv", [
        ["--policy", "zw"],
        ["--policy", "fp", "--lambda", "2", "--k", "3"],
        ["--policy", "fp", "--lambda", "inf", "--k", "3"],
        ["--policy", "fp_preempt_only"],
    ], ids=["zw", "fp", "fp-inf", "fp_preempt_only"])
    def test_manifest_names_the_model_it_ran(self, tmp_path, argv):
        out = tmp_path / "m"
        assert run(["analyze", "--mu1", "0.3", "--mu2", "1", "--grid-points", "50",
                    *argv, "--out", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert params["policy"] == meta["policy"]
        model = {k: v for k, v in params.items() if k not in ("grid_points", "grid_max")}
        assert model == {k: meta[k] for k in ("policy", "mu1", "mu2", "freeze_rate", "k")
                         if k in meta}


    def test_deterministic_freeze_exits_two_naming_the_means_path(self, tmp_path, capsys):
        assert run(["analyze", "--policy", "fp", "--mu1", "0.5", "--mu2", "0.1",
                    "--lambda", "1", "--k", "inf", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "not phase-type" in err and "fp_means" in err and "optimize" in err
        assert not (tmp_path / "x").exists()


class TestErlangOrder:
    """``--k`` and the config's ``k``: a positive integer, or inf."""

    BASE = ["--policy", "fp", "--mu1", "0.5", "--mu2", "0.1", "--lambda", "1",
            "--cycles", "2000", "--reps", "1"]

    @pytest.mark.parametrize("value", ["nan", "2.5", "0", "-inf"])
    @pytest.mark.parametrize("command", ["analyze", "simulate", "optimize"])
    def test_flag_that_is_no_order_exits_two_naming_k(self, tmp_path, capsys, command, value):
        argv = ({"analyze": self.BASE[:8], "simulate": self.BASE,
                 "optimize": ["--mu1", "1", "--mu2", "1"]}[command])
        assert run([command, *argv, f"--k={value}", "--out", str(tmp_path / "x")]) == 2
        assert "Erlang order k" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["NaN", "2.5"])
    def test_config_order_that_is_no_order_exits_two_naming_k(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"policy": "fp", "mu1": 0.5, "mu2": 0.1, "lambda": 1.0, '
                            f'"cycles": 2000, "k": {text}}}')
        assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "Erlang order k" in capsys.readouterr().err

    def test_config_infinite_order_simulates_a_deterministic_freeze(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"policy": "fp", "mu1": 0.5, "mu2": 0.1, "lambda": 1.0, '
                            '"cycles": 2000, "reps": 1, "k": 1e999}')
        out, flags = tmp_path / "cfg", tmp_path / "flags"
        assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert run(["simulate", *self.BASE, "--k", "inf", "--out", str(flags)]) == 0
        for name in ("result.json", "aoi_ecdf.csv", "paoi_ecdf.csv"):
            assert (out / name).read_bytes() == (flags / name).read_bytes()
        for name in ("result.json", "manifest.json"):
            payload = json.loads((out / name).read_text())
            assert (payload.get("config") or payload["parameters"])["k"] == "inf"

    def test_optimize_deterministic_freeze(self, tmp_path, capsys):
        out = tmp_path / "opt"
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "inf",
                    "--out", str(out)]) == 0
        assert "lambda_star=" in capsys.readouterr().out
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert params["k"] == "inf"
        payload = json.loads((out / "optimum.json").read_text())
        assert payload["f_star"] == pytest.approx(0.2949, abs=1e-3)


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

    def test_config_fractional_seed_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "zw", "mu1": 1.0, "mu2": 0.1,
                                        "cycles": 5000, "seed": 1.5}))
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "x")]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["1e999", "NaN"])
    @pytest.mark.parametrize("field,param", [("cycles", "horizon"), ("warmup", "warmup"),
                                             ("seed", "seed"), ("reps", "replications")])
    def test_config_count_that_is_no_count_exits_two(self, tmp_path, capsys, field, param,
                                                     text):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"policy": "zw", "mu1": 1.0, "mu2": 0.1, "cycles": 2000, '
                            f'"{field}": {text}}}')
        assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert f"{param} must be a whole number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_null_warmup_takes_the_default(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "zw", "mu1": 1.0, "mu2": 0.1,
                                        "cycles": 2000, "reps": 1, "warmup": None}))
        assert run(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 0
        assert json.loads((tmp_path / "x" / "result.json").read_text())["config"] == {
            "policy": "zw", "mu1": 1.0, "mu2": 0.1, "horizon": 2000, "warmup": 20, "seed": 0,
            "replications": 1}

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_infinite_rate_exits_two(self, tmp_path, capsys, command):
        argv = [command, "--policy", "zw", "--mu1", "inf", "--mu2", "1",
                "--out", str(tmp_path / "x")]
        if command == "simulate":
            argv += ["--cycles", "2000", "--reps", "1"]
        assert run(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_infinite_freeze_rate_runs_preemption_only(self, tmp_path):
        base = ["simulate", "--mu1", "1", "--mu2", "0.3", "--cycles", "2000", "--seed", "3"]
        fp, po = tmp_path / "fp", tmp_path / "po"
        assert run(base + ["--policy", "fp", "--lambda", "inf", "--k", "2",
                           "--out", str(fp)]) == 0
        assert run(base + ["--policy", "fp_preempt_only", "--out", str(po)]) == 0
        for name in ("result.json", "aoi_ecdf.csv", "paoi_ecdf.csv"):
            assert (fp / name).read_bytes() == (po / name).read_bytes()
        params = json.loads((fp / "manifest.json").read_text())["parameters"]
        assert params["policy"] == "fp_preempt_only" and "freeze_rate" not in params

    def test_flags_require_rates(self, tmp_path):
        assert run(["simulate", "--policy", "zw", "--cycles", "5000",
                    "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("field,value", [("lambda", 3.0), ("k", 7)])
    @pytest.mark.parametrize("policy", ["zw", "fp_preempt_only"])
    def test_config_freeze_field_without_freezes_exits_two(self, tmp_path, capsys,
                                                           policy, field, value):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": policy, "mu1": 1.0, "mu2": 0.5,
                                        "cycles": 2000, field: value}))
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "x")]) == 2
        assert f"config field '{field}' does not apply" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_unknown_field_exits_two(self, tmp_path, capsys):
        # a misspelt "cycles" must not fall back to the 1e6-cycle default
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "zw", "mu1": 1.0, "mu2": 0.5,
                                        "cycle": 2000}))
        assert run(["simulate", "--config", str(cfg_path),
                    "--out", str(tmp_path / "x")]) == 2
        assert "unknown config field(s) ['cycle']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags", [["--cycles", "5"], ["--policy", "fp"],
                                       ["--seed", "9", "--mu1", "2"]])
    def test_config_with_run_flags_exits_two(self, tmp_path, capsys, flags):
        # the config would silently override them
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "zw", "mu1": 1.0, "mu2": 0.5,
                                        "cycles": 2000}))
        assert run(["simulate", "--config", str(cfg_path), *flags,
                    "--out", str(tmp_path / "x")]) == 2
        assert f"{flags[0]} " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_flags_and_config_share_the_defaults(self, tmp_path):
        from aoidual.cli import _sim_config_from_args, build_parser

        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"policy": "zw", "mu1": 1.0, "mu2": 0.5}))
        parse = build_parser().parse_args
        flags = _sim_config_from_args(parse(["simulate", "--mu1", "1", "--mu2", "0.5"]))
        config = _sim_config_from_args(parse(["simulate", "--config", str(cfg_path)]))
        assert flags.describe() == config.describe()
        assert (flags.horizon, flags.seed, flags.replications) == (1_000_000, 0, 2)


class TestOptimize:
    def test_writes_optimum(self, tmp_path, capsys):
        out = tmp_path / "opt"
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "10",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "optimum.json").read_text())
        assert payload["lambda_star"] > 0
        assert payload["boundary_hit"] is False
        assert payload["lambda_star"] in [rate for rate, _ in payload["trace"]]
        assert "lambda_star=" in capsys.readouterr().out

    def test_boundary_case_reported(self, tmp_path):
        out = tmp_path / "optb"
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "2",
                    "--bracket-lo", "50", "--bracket-hi", "100",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "optimum.json").read_text())
        assert payload["boundary_hit"] is True

    @pytest.mark.parametrize("flag,value,named", [("--rtol", "nan", "rtol"),
                                                  ("--rtol", "inf", "rtol"),
                                                  ("--bracket-hi", "inf", "bracket")])
    def test_bad_tolerance_or_bracket_exits_two_unbuilt(self, tmp_path, monkeypatch,
                                                        capsys, flag, value, named):
        # rejected before any model is built, by an error naming the input
        import aoidual.optimize as optimize_module

        built = []
        real = optimize_module.build_fp_model
        monkeypatch.setattr(optimize_module, "build_fp_model",
                            lambda p: built.append(p) or real(p))
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "2", flag, value,
                    "--out", str(tmp_path / "x")]) == 2
        assert built == [] and named in capsys.readouterr().err

    def test_manifest_names_the_model_it_ran(self, tmp_path):
        # the rates in the order the model uses them, as analyze and simulate record
        out = tmp_path / "opt"
        assert run(["optimize", "--mu1", "0.1", "--mu2", "1", "--k", "2",
                    "--out", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert params == {"policy": "fp", "mu1": 1.0, "mu2": 0.1, "k": 2,
                          "bracket": [0.05, 100.0], "rtol": 1e-4}

    def test_kernel_chain_disagreement_exits_one(self, tmp_path, monkeypatch, capsys):
        import aoidual.optimize as optimize_module

        real = optimize_module.aoi_mean
        monkeypatch.setattr(optimize_module, "aoi_mean",
                            lambda chain: real(chain) * (1.0 + 1e-9))
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "3",
                    "--out", str(tmp_path / "x")]) == 1
        assert "cycle chain" in capsys.readouterr().err

    def test_numerical_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        import aoidual.optimize as optimize_module

        monkeypatch.setattr(optimize_module, "MAX_EVALS", 5)
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "1",
                    "--out", str(tmp_path / "x")]) == 1
        assert "did not contract" in capsys.readouterr().err

    @pytest.mark.parametrize("rtol", ["1e-17", "1e-300"])
    def test_tolerance_below_float_resolution_exits_zero(self, tmp_path, rtol):
        out = tmp_path / "x"
        assert run(["optimize", "--mu1", "1", "--mu2", "1", "--k", "50",
                    "--rtol", rtol, "--out", str(out)]) == 0
        payload = json.loads((out / "optimum.json").read_text())
        assert payload["evaluations"] == len(payload["trace"]) < 100


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


def _lists(obj):
    """Every list nested anywhere in a parsed JSON object."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _lists(v)]
    if isinstance(obj, list):
        return [obj] + [x for v in obj for x in _lists(v)]
    return []


def _shape(obj):
    """The nested keys of a parsed JSON object, None at every other value."""
    return {k: _shape(v) for k, v in obj.items()} if isinstance(obj, dict) else None


def _roundtrip(obj):
    return json.loads(json.dumps(aoidual._io._jsonable(obj)))


def _columns(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


class TestOutputs:
    """Arrays are written once, to CSV; JSON holds scalars, moments and meta."""

    @pytest.fixture
    def analyzed(self, tmp_path):
        """An ``analyze`` output directory and the summary it was written from."""
        out = tmp_path / "fp"
        assert run(["analyze", "--policy", "fp", "--mu1", "0.5", "--mu2", "0.1",
                    "--lambda", "1", "--k", "3", "--grid-points", "300",
                    "--out", str(out)]) == 0
        return out, summarize(build_fp_model(FpParams(0.5, 0.1, 1.0, 3)),
                              GridSpec(points=300))

    def test_summary_json_holds_scalars_only(self, analyzed):
        out, summary = analyzed
        payload = json.loads((out / "summary.json").read_text())
        assert set(payload) == {"mean_aoi", "mean_paoi", "aoi_moments",
                                "paoi_moments", "p_success", "aoi_table",
                                "paoi_table", "meta"}
        assert payload["mean_aoi"] == summary.mean_aoi
        assert payload["mean_paoi"] == summary.mean_paoi
        assert payload["aoi_moments"] == list(summary.aoi_moments)
        assert payload["paoi_moments"] == list(summary.paoi_moments)
        assert payload["p_success"] == summary.p_success
        assert payload["meta"] == _roundtrip(dict(summary.meta))
        for kind in ("aoi", "paoi"):
            table = getattr(summary, f"{kind}_table")
            assert payload[f"{kind}_table"] == {"meta": _roundtrip(dict(table.meta))}
        assert max(map(len, _lists(payload))) <= 3

    @pytest.mark.parametrize("argv, model", [
        (["--policy", "zw"], ("policy", "mu1", "mu2", "swapped")),
        (["--policy", "fp", "--lambda", "1", "--k", "50"],
         ("policy", "mu1", "mu2", "freeze_rate", "k", "swapped"))], ids=["zw", "fp"])
    def test_summary_json_holds_each_fact_once(self, tmp_path, argv, model):
        # a table keeps its own facts; the model and the shared walk sit in the top meta
        assert run(["analyze", *argv, "--mu1", "0.5", "--mu2", "0.1", "--grid-points", "50",
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        table = {"meta": dict.fromkeys(("kind", "cdf_clip"))}
        assert _shape(payload) == {
            **dict.fromkeys(("mean_aoi", "mean_paoi", "aoi_moments", "paoi_moments",
                             "p_success")),
            "aoi_table": table, "paoi_table": table,
            "meta": dict.fromkeys((*model, "kernel", "unif_mass", "poisson_tail"))}

    def test_table_csvs_parse_back_to_the_tables(self, analyzed):
        out, summary = analyzed
        for kind in ("aoi", "paoi"):
            table = getattr(summary, f"{kind}_table")
            x, pdf, cdf = _columns(out / f"{kind}_table.csv")
            for read, held in ((x, table.grid), (pdf, table.pdf), (cdf, table.cdf)):
                np.testing.assert_allclose(read, held, rtol=5e-12, atol=0)

    def test_result_json_holds_scalars_and_replications(self, tmp_path):
        out = tmp_path / "zw"
        assert run(["simulate", "--policy", "zw", "--mu1", "1", "--mu2", "0.5",
                    "--cycles", "5000", "--seed", "4", "--reps", "3",
                    "--out", str(out)]) == 0
        result = simulate(SimConfig(ZwParams(1.0, 0.5), "zw", horizon=5000, seed=4,
                                    replications=3))
        payload = json.loads((out / "result.json").read_text())
        assert payload == {
            "mean_aoi": result.mean_aoi, "mean_paoi": result.mean_paoi,
            "se_aoi": result.se_aoi, "se_paoi": result.se_paoi,
            "rep_mean_aoi": result.rep_mean_aoi.tolist(),
            "rep_mean_paoi": result.rep_mean_paoi.tolist(),
            "cycle_count": result.cycle_count,
            "config": _roundtrip(dict(result.config)),
            "stats": _roundtrip(dict(result.stats))}
        assert set(payload["stats"]) == {"monitor_discards", "preemptions",
                                         "elapsed", "per_rep"}
        assert set(payload["stats"]["per_rep"]) == {"elapsed"}
        for kind in ("aoi", "paoi"):
            x, cdf = _columns(out / f"{kind}_ecdf.csv")
            held_x, held_cdf = result.ecdf(kind)
            np.testing.assert_allclose(x, held_x, rtol=5e-12, atol=0)
            np.testing.assert_allclose(cdf, held_cdf, rtol=5e-12, atol=0)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--policy", "zw", "--mu1", "1", "--mu2", "1",
         "--grid-points", "50"],
        ["simulate", "--policy", "zw", "--mu1", "1", "--mu2", "1",
         "--cycles", "2000", "--reps", "2"],
        ["optimize", "--mu1", "1", "--mu2", "1", "--k", "2"],
        ["figure", "4"],
    ], ids=lambda argv: argv[0])
    def test_manifest_lists_every_output(self, tmp_path, argv):
        out = tmp_path / argv[0]
        assert run(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["argv"] == argv + ["--out", str(out)]
        assert sorted(manifest["outputs"]) == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--policy", "fp", "--mu1", "1", "--mu2", "0.3", "--lambda", "inf",
         "--k", "2", "--grid-points", "50"],
        ["simulate", "--policy", "zw", "--mu1", "1", "--mu2", "0.3",
         "--cycles", "2000", "--reps", "1"],
        ["simulate", "--policy", "fp", "--mu1", "1", "--mu2", "0.3", "--lambda", "inf",
         "--k", "1", "--cycles", "2000"],
        ["optimize", "--mu1", "1", "--mu2", "1", "--k", "2"],
        ["figure", "3a", "--cycles", "2000"],
    ], ids=["analyze-inf", "simulate-reps1", "simulate-inf", "optimize", "figure"])
    def test_json_outputs_are_strict(self, tmp_path, argv):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = tmp_path / "run"
        assert run(argv + ["--out", str(out)]) == 0
        paths = sorted(out.glob("*.json"))
        assert out / "manifest.json" in paths
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject)

    def test_default_directories_are_not_shared(self, tmp_path, monkeypatch, capsys):
        # two runs within the same second still get a directory each
        monkeypatch.setenv("AOIDUAL_OUT_ROOT", str(tmp_path))
        for mu1 in ("1", "2"):
            assert run(["analyze", "--policy", "zw", "--mu1", mu1, "--mu2", "1",
                        "--grid-points", "20"]) == 0
        dirs = sorted(tmp_path.iterdir())
        assert len(dirs) == 2
        assert all(d.name.startswith("analyze-") for d in dirs)
        mu1s = {json.loads((d / "manifest.json").read_text())["parameters"]["mu1"]
                for d in dirs}
        assert mu1s == {1.0, 2.0}
        assert capsys.readouterr().out.count("wrote ") == 2


def _pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's package."""
    src_dir = os.path.dirname(os.path.dirname(aoidual.__file__))
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def test_entry_point_installed():
    """The ``aoidual`` command is wired to ``aoidual.cli:main`` and
    ``--version`` exits 0 in a fresh interpreter, without an install."""
    project = _pyproject()["project"]
    target = project["scripts"]["aoidual"]
    assert target == "aoidual.cli:main"
    module_name, attr = target.split(":")
    assert getattr(importlib.import_module(module_name), attr) is main
    assert aoidual.__version__ == project["version"]

    env = _fresh_env()
    proc = subprocess.run([sys.executable, "-m", "aoidual", "--version"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == aoidual.__version__


def test_import_loads_neither_scipy_special_nor_optimize():
    """``import aoidual`` (and its CLI) in a fresh interpreter stays off ``scipy.special``
    and ``scipy.optimize``: each would add tens of milliseconds to every start."""
    env = _fresh_env()
    probe = ("import sys, aoidual, aoidual.cli; print(' '.join(sorted(m for m in sys.modules"
             " if m.startswith(('scipy.special', 'scipy.optimize')))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_analyze_is_bit_identical_at_one_blas_thread(tmp_path):
    """Two ``analyze`` runs in fresh interpreters pinned to one BLAS thread write
    byte-identical tables and summaries (bit identity needs a fixed thread count)."""
    env = _fresh_env(**dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    argv = [sys.executable, "-m", "aoidual", "analyze", "--policy", "fp", "--mu1", "0.5",
            "--mu2", "0.1", "--lambda", "1", "--k", "200", "--grid-points", "200"]
    for name in ("a", "b"):
        proc = subprocess.run([*argv, "--out", str(tmp_path / name)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for name in ("summary.json", "aoi_table.csv", "paoi_table.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.skipif(shutil.which("aoidual") is None,
                    reason="no installed aoidual console script on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["aoidual", "--version"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == aoidual.__version__
