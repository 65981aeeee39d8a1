"""Gate on the benchmark harness: the smallest construction run finishes,
passes its output checks and reports the end-to-end metrics that
BENCHMARK.json declares.  No timing is checked."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_bench_construct_score_small_run():
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
           "--workload", "construct_score", "--seed", "7", "--seconds", "1",
           "--trace", "0", "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
