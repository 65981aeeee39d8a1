"""Every demo runs to completion; the embedded-homology demo, which reads
the chain data's sparse spans, prints its infimum line."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def run_demo(name: str, cwd) -> subprocess.CompletedProcess:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120, check=False)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if name == "embedded_homology.py":
        assert "inf_2 dimension: 1  contains f1 - f2: True" in proc.stdout.splitlines()
