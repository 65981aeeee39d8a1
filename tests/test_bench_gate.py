"""Gate on the benchmark harness: the smallest run of a workload finishes,
passes its output checks and reports the end-to-end metrics that
BENCHMARK.json declares, and the traced run's wrappers come off the dense
kernels again.  No timing is checked."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_uninstall_restores_dense_kernels(monkeypatch):
    # the traced run patches fields.rref, FieldMatrix.apply and
    # FieldMatrix.matmul by name: a traced job counts one call of each, and
    # uninstall puts the original functions back
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import spans
    from superph import fields

    fm = fields.FieldMatrix
    originals = (fields.rref, fm.__dict__["apply"], fm.__dict__["matmul"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fields.rref is not originals[0]

        def job():
            m = fm(fields.GF2, 2, 2, (1, 0, 0, 1))
            fields.rref([[1, 1]], 2, fields.GF2)
            m.apply((1, 0))
            m.matmul(m)

        tracer.job(0, job)
    finally:
        tracer.uninstall()
    counts = tracer.job_metrics(0)[1]
    assert [counts[f"fields.{k}_calls"] for k in ("rref", "apply", "matmul")] == [1, 1, 1]
    assert fields.rref is originals[0]
    assert fm.__dict__["apply"] is originals[1]
    assert fm.__dict__["matmul"] is originals[2]


def test_tracer_patch_targets_exist_and_come_off(monkeypatch):
    # every name the traced run patches is wrapped after install and the
    # original again after uninstall; the construction names are pinned,
    # so a refactor that drops one fails here, not in a traced benchmark run
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import spans
    from superph import cli, faceops, graphs

    tracer = spans.Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not original and hasattr(current, "__wrapped__"), (owner, attr)
    finally:
        tracer.uninstall()
    targets = {(owner, attr) for owner, attr, _ in patches}
    assert {(graphs, "close_under_faces"), (faceops, "close_under_faces"),
            (cli, "clique_delta"), (cli, "primary_vertex_deletion"),
            (cli, "secondary_vertex_deletion"), (cli, "partition_faces"),
            (cli, "link_blowup_faces")} <= targets
    for owner, attr, original in patches:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)


def check_small_run(workload: str):
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
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


@pytest.mark.slow
def test_bench_construct_score_small_run():
    check_small_run("construct_score")


@pytest.mark.slow
def test_bench_homology_hypergraph_small_run():
    check_small_run("homology_hypergraph")


@pytest.mark.slow
def test_bench_persist_vr_circle_small_run():
    check_small_run("persist_vr_circle")
