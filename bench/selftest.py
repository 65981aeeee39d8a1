"""Self-test of the benchmark, at the smallest input sizes.

Run from the repository root:

    python3 bench/selftest.py

For each workload it runs `bench/run.py` untraced and traced and checks the
result line: its keys, that every metric of BENCHMARK.json is reported by
name and unit, that no job failed, and that the traced counts repeat
exactly between two traced runs.  It checks that a corrupted reference
digest is reported as a failed job, and that the benchmark exits non-zero,
printing no result, in a directory that holds only BENCHMARK.json and the
benchmark's files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")

sys.path.insert(0, HERE)
from spans import COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(args: list[str], cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int, *extra: str) -> dict:
    rc, out = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--size", "small", *extra])
    if rc != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {rc}")
    return json.loads(out.strip().splitlines()[-1])


def check_schema(res: dict, expected: dict[str, str], label: str):
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and isinstance(res["failed"], int)
            and res["attempted"] >= 1):
        raise AssertionError(f"{label}: attempted/failed not whole numbers")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics {sorted(set(got) ^ set(expected))} "
                             f"missing, extra or with the wrong unit")
    if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
        raise AssertionError(f"{label}: a metric value is not a number")
    if not res["correct"] or res["failed"]:
        raise AssertionError(f"{label}: {res['failed']} failed jobs")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    os.makedirs(SCRATCH)
    try:
        for workload in WORKLOADS:
            check_schema(result(workload, 0), end_to_end, f"{workload} untraced")
            traced = [result(workload, 1) for _ in range(2)]
            for res in traced:
                check_schema(res, per_layer, f"{workload} traced")
            counts = [{k: r["metrics"][k]["value"] for k in COUNTS} for r in traced]
            if counts[0] != counts[1]:
                raise AssertionError(f"{workload}: counts differ between traced runs")
            print(f"ok {workload}", flush=True)

        with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
            refs = json.load(fh)
        digests = refs["small"]["persist_vr_circle"]
        name = sorted(digests)[0]
        digests[name] = ("0" if digests[name][0] != "0" else "1") + digests[name][1:]
        corrupted = os.path.join(SCRATCH, "references.json")
        with open(corrupted, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
        res = result("persist_vr_circle", 0, "--references", corrupted)
        if res["correct"] or res["failed"] < 1:
            raise AssertionError("a corrupted reference digest was not reported as a failure")
        print("ok corrupted reference digest is a failed job", flush=True)

        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, out = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
        if rc == 0 or '"metrics"' in out:
            raise AssertionError("the benchmark ran without the program's sources")
        print("ok exits non-zero without the sources", flush=True)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
