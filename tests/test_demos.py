"""Every walk-through script in ``demos/`` runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import aoidual

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(tmp_path, script):
    src_dir = os.path.dirname(os.path.dirname(aoidual.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir())  # demos print; they write no files
