"""Benchmark of the superph CLI pipelines on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload persist_vr_circle --seed 1 --seconds 30 --trace 0

One process runs one workload: it imports `superph` from `src/`, writes the
workload's seeded inputs, then runs jobs one at a time (a closed loop with
one client) for `--seconds` seconds.  A job is one full CLI pipeline called
through `superph.cli.main`; its outputs are checked after it is timed.  Then
one more job runs on the inputs of the reference seed and its outputs are
compared with the stored sha256 digests.  A job fails if the CLI exits
non-zero or an output check fails.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are `job_s`, `peak_rss_mb` and `setup_s`.  `job_s` is the median
wall time per job scaled by the machine's speed during the run: times
`CALIBRATION_S` / the median time of `calibrate()`, which runs before and
after every job.  With `--trace 1` untraced and traced jobs alternate and
the metrics are the per-layer timings and counts of `spans.py`, unscaled.  A full record
is written to `bench/out/BENCH_<workload>.json`, and the spans of a traced
run to `bench/out/trace_<workload>.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import workloads as W
from spans import COUNTS, TIMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, ".work")
REFERENCES = os.path.join(HERE, "references.json")
REFERENCE_SEED = 1
SETUP_REPEATS = 5
# Median time of calibrate() between jobs on the machine the benchmark was
# built on (2-CPU Intel Xeon, Python 3.11): `job_s` is in seconds at
# that machine's typical speed.
CALIBRATION_S = 0.038

END_TO_END = {"job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": model, "loadavg_start": list(os.getloadavg())}


def import_seconds() -> float:
    """Import time of `superph.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import superph.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"importing superph failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def calibrate() -> float:
    """Wall time of a fixed pure-Python workload that uses no superph code:
    exact-rational elimination, tuple-keyed dict updates and a sort.

    On a shared machine the speed of the CPU changes by up to 1.7x over
    minutes.  A run times this before and after every job, and `job_s` is
    scaled by it, so that the figure follows the program rather than the
    machine's speed during the run.
    """
    t0 = time.perf_counter()
    n = 14
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    acc: dict = {}
    for i in range(60000):
        key = (i % 977, i & 7)
        acc[key] = acc.get(key, 0) + i
    sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - t0


def run_job(cli_main, workload: str, data: dict, out: str, tracer=None,
            job_id: int = 0) -> tuple[float, str | None, dict]:
    """(seconds, first failure or None, output digests) of one job."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    gc.collect()  # start every job with the same collector state
    job_fn = W.JOB[workload]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = job_fn(cli_main, data, out)
        else:
            rc = tracer.job(job_id, job_fn, cli_main, data, out)
    except Exception as exc:  # the CLI maps errors to exit codes; count anything else
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    error = W.check_job(workload, data, out, rc)
    digests = W.digests(workload, out) if error is None else {}
    return seconds, error, digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("default", "small"), default="default",
                    help="input size; `small` is for the self-test")
    ap.add_argument("--references", default=REFERENCES,
                    help="JSON file of reference digests")
    ap.add_argument("--record-references", action="store_true",
                    help="store the reference job's digests instead of checking them")
    args = ap.parse_args(argv)
    env = environment()

    sys.path.insert(0, SRC)
    try:
        from superph import cli
    except ImportError as exc:
        print(f"error: cannot import superph from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: superph was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, env, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, env: dict, cli, work: str) -> int:
    workload = args.workload
    # Set-up: a fresh-interpreter import plus writing the seeded inputs,
    # repeated; the median is reported.
    setups = []
    for i in range(SETUP_REPEATS):
        imp = import_seconds()
        inputs = os.path.join(work, f"inputs{i}")
        os.makedirs(inputs)
        t0 = time.perf_counter()
        data = W.GENERATE[workload](inputs, args.seed, args.size)
        setups.append(imp + time.perf_counter() - t0)

    out = os.path.join(work, "out")
    tracer = None
    if args.trace:
        tracer = Tracer()
    jobs = []  # (traced, seconds, error)
    calibration = []  # seconds of calibrate() before and after every job
    first = {}  # digests and counts of the first job that has them
    deadline = time.perf_counter() + args.seconds

    def one(traced: bool):
        calibration.append(calibrate())
        if traced:
            tracer.install()
        try:
            s, err, dig = run_job(cli.main, workload, data, out,
                                  tracer if traced else None, len(jobs))
        finally:
            if traced:
                tracer.uninstall()
        if err is None and first.setdefault("digests", dig) != dig:
            err = "outputs differ from the first job's on the same inputs"
        if traced:
            counts = tracer.job_metrics(len(jobs))[1]
            if first.setdefault("counts", counts) != counts:
                err = err or "work counts differ from the first traced job's"
        calibration.append(calibrate())
        jobs.append((traced, s, err))
        print(f"job {len(jobs)} {'traced' if traced else 'untraced'} {s:.4f} s "
              f"{err or 'ok'}", flush=True)

    # Start a job (or an untraced/traced pair) only while it fits in --seconds.
    while True:
        one(False)
        if tracer is not None:
            one(True)
        per_round = sum(statistics.median(s for t, s, _ in jobs if t == traced)
                        for traced in ({False, True} if tracer else {False}))
        if time.perf_counter() + per_round > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The output gate: one job on the reference seed's inputs.
    ref_inputs = os.path.join(work, "reference")
    os.makedirs(ref_inputs)
    ref_data = W.GENERATE[workload](ref_inputs, REFERENCE_SEED, args.size)
    _, ref_err, ref_digests = run_job(cli.main, workload, ref_data, out)
    refs = {}
    if os.path.exists(args.references):
        with open(args.references, encoding="utf-8") as fh:
            refs = json.load(fh)
    if args.record_references and ref_err is None:
        refs.setdefault(args.size, {})[workload] = ref_digests
        with open(args.references, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif ref_err is None:
        want = refs.get(args.size, {}).get(workload)
        if want is None:
            ref_err = "no reference digests stored"
        elif want != ref_digests:
            bad = sorted(k for k in want if want[k] != ref_digests.get(k))
            ref_err = f"outputs differ from the reference digests: {', '.join(bad)}"
    print(f"reference job (seed {REFERENCE_SEED}) {ref_err or 'ok'}", flush=True)

    timed = [s for t, s, _ in jobs if not t]
    speed = CALIBRATION_S / statistics.median(calibration)
    failed = sum(1 for _, _, e in jobs if e) + (1 if ref_err else 0)
    attempted = len(jobs) + 1
    env["jobs"] = len(jobs)
    if tracer is None:
        metrics = {"job_s": statistics.median(timed) * speed, "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(setups)}
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, jobs, timed)
        units = {k: ("count" if k in COUNTS else "s") for k in metrics}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_s_all": setups, "job_wall_s": statistics.median(timed),
              "calibration_s": statistics.median(calibration),
              "jobs": [{"traced": t, "s": s, "error": e} for t, s, e in jobs],
              "reference_error": ref_err, "fail_ratio": failed / attempted, **result}
    with open(os.path.join(OUT, f"BENCH_{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        with open(os.path.join(OUT, f"trace_{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps({"env": env, "fail_ratio": failed / attempted,
                      "job_wall_s": record["job_wall_s"],
                      "calibration_s": record["calibration_s"]}))
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, jobs, untraced: list[float]) -> dict:
    """Per-layer metrics: the mean of each timing over the traced jobs (means
    keep the self times adding up to the job time), the counts, which repeat
    exactly between jobs, and the tracing overhead: the mean traced job time
    minus the mean time of the untraced jobs alternating with them."""
    per_job = [tracer.job_metrics(i) for i, (traced, _, _) in enumerate(jobs) if traced]
    metrics = {k: statistics.fmean(t.get(k, 0.0) for t, _ in per_job) for k in TIMES}
    metrics.update(per_job[0][1])
    metrics["trace.untraced_job_s"] = statistics.fmean(untraced)
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - metrics["trace.untraced_job_s"]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
