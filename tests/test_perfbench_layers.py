"""The layer boundaries that ``perfbench --trace 1`` wraps exist and are
crossed, so a refactor cannot silently empty the per-layer metrics."""

import importlib.util
import os

from aoidual import ZwParams, build_zw_amc, metrics, phasetype

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


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
    assert calls.count("expm_action_grid") == 2  # one table per kind
    assert "solve_right" in calls
