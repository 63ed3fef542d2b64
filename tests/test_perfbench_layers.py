"""The layer boundaries that ``perfbench --trace 1`` wraps exist and are
crossed, so a refactor cannot silently empty the per-layer metrics, and
every workload's smoke run passes its own checks."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from aoidual import ZwParams, build_zw_amc, metrics, phasetype

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
LAYERS = os.path.join(PERFBENCH, "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    patches = _layers().patches()
    assert patches
    for owner, attr, span in patches:
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr} ({span})"


def test_summarize_crosses_the_kernel_and_the_solves(monkeypatch):
    # the tables' kernel time and the moment solves are read from these
    # two attributes as summarize sees them
    chain = build_zw_amc(ZwParams(0.5, 0.1))
    calls = []

    def spy(owner, attr):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    spy(metrics, "expm_action_grid")
    spy(phasetype.AbsorbingChain, "solve_right")
    metrics.summarize(chain, metrics.GridSpec(points=20))
    assert calls.count("expm_action_grid") == 1  # one walk for both kinds
    assert "solve_right" in calls


@pytest.mark.parametrize("workload", ["tables", "sweep", "simulate"])
def test_smoke_run_is_correct(workload):
    # the benchmark checks every operation's output (the simulator's means
    # among them) and traces every layer by name
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--smoke", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
