"""Layer spans and work counters for the traced benchmark run.

Wrappers are installed from the benchmark, not from the program: each one
replaces a layer's public name at the place where its callers look it up
(the names `superph.cli` imported, module globals that other modules call,
and class attributes), and `uninstall` puts the originals back.

Layer calls become spans (name, job, parent, start, end) kept in memory.
The per-call kernels (`fields.rref`, `FieldMatrix.matmul`/`apply`,
`MultiGraph.edges_between`, `ScoringScheme.score`) run hundreds of
thousands of times per job and call no other traced name, so they are
leaves: each adds its call count, time and work to per-job totals and its
time to the enclosing span, instead of storing a span per call.

A span's self time is its duration minus the time of the spans and leaves
it encloses; the self times of all layers, the job span's self time
(`cli.self_s`) included, add up to the job's duration.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("cli", "fields", "delta", "graphs", "faceops", "scoring", "homology",
          "persistence", "formats", "render")

# Counts that must repeat exactly between jobs on the same inputs.
COUNTS = ("delta.cells", "delta.marked_cells", "persistence.critical_values",
          "persistence.bars", "persistence.correlation_entries",
          "fields.rref_calls", "fields.rref_entries", "fields.matmul_calls",
          "fields.matmul_mults", "fields.apply_calls",
          "homology.boundary_matrices_calls", "graphs.edges_between_calls",
          "scoring.score_calls")

# Timings reported by the traced run, in seconds per job.
TIMES = (
    "persistence.build_filtration_s", "persistence.barcode_embedded_s",
    "persistence.barcode_ambient_s", "persistence.barcode_relative_s",
    "persistence.correlation_s", "persistence.triangle_s",
    "fields.rref_s", "fields.matmul_s", "fields.apply_s",
    "homology.boundary_matrices_s", "homology.betti_embedded_s",
    "homology.betti_relative_s", "homology.betti_ambient_s", "homology.gap_series_s",
    "graphs.clique_delta_s", "graphs.edges_between_s",
    "faceops.primary_vertex_deletion_s", "faceops.secondary_vertex_deletion_s",
    "faceops.partition_faces_s", "faceops.link_blowup_faces_s",
    "delta.close_under_faces_s", "delta.validate_s", "delta.is_regular_s",
    "delta.is_complete_s", "scoring.score_s", "scoring.critical_values_s",
    "formats.read_s", "formats.write_s", "render.render_diagram_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "trace.job_s", "trace.untraced_job_s", "trace.overhead_s")

JOB_SPAN = "cli.job"

# The work a kernel call does, summed into a count: matrix entries handed to
# `rref`, and scalar multiplications r*k*c of `matmul`.
WORK_COUNTS = {"fields.rref": "fields.rref_entries", "fields.matmul": "fields.matmul_mults"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, job, parent, start, end, enclosed]
        self.leaves: dict[int, dict[str, list]] = {}  # job -> name -> [calls, s, work]
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._job, parent, time.perf_counter(), None, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        span = self.spans[idx]
        span[4] = time.perf_counter()
        self._stack.pop()
        if span[2] is not None:
            self.spans[span[2]][5] += span[4] - span[3]

    def job(self, job_id: int, fn, *args):
        """Run fn(*args) as one job inside a `cli.job` span."""
        self._job = job_id
        self.leaves[job_id] = {}
        self.counts[job_id] = {}
        idx = self._open(JOB_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def count(self, name: str, n: int):
        c = self.counts[self._job]
        c[name] = c.get(name, 0) + n

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """name is a string, or a function of (args, kwargs) giving one."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def leaf(self, name: str, fn, work=None):
        """work(args) gives the call's work, summed into WORK_COUNTS[name]."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st = tracer.leaves[tracer._job].setdefault(name, [0, 0.0, 0])
                st[0] += 1
                st[1] += dt
                if work is not None:
                    st[2] += work(args)
                tracer.spans[tracer._stack[-1]][5] += dt

        return wrapper

    def _patch(self, owner, attr: str, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- installation --------------------------------------------------------

    def install(self):
        from superph import (cli, delta, faceops, fields, formats, graphs, homology,
                             persistence, render, scoring)
        p = self._patch

        def sh_counts(tr, sh):
            tr.count("delta.cells", sum(sh.x.counts))
            tr.count("delta.marked_cells", len(sh.h))

        p(cli, "build_super_hypergraph",
          self.span("cli.build_super_hypergraph", cli.build_super_hypergraph, sh_counts))
        p(cli, "clique_delta", self.span("graphs.clique_delta", cli.clique_delta))
        for name in ("primary_vertex_deletion", "secondary_vertex_deletion",
                     "partition_faces", "link_blowup_faces"):
            p(cli, name, self.span(f"faceops.{name}", getattr(cli, name)))
        for name in ("is_regular", "is_complete"):
            p(cli, name, self.span(f"delta.{name}", getattr(cli, name)))
        close = delta.close_under_faces
        for owner in (delta, faceops, graphs):
            p(owner, "close_under_faces", self.span("delta.close_under_faces", close))
        p(delta.DeltaSet, "validate",
          self.span("delta.validate", delta.DeltaSet.__dict__["validate"]))

        def betti_name(args, kwargs):
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "absolute")
            return "homology.betti_" + ("embedded" if mode == "absolute" else mode)

        p(cli, "embedded_betti", self.span(betti_name, cli.embedded_betti))
        p(cli, "gap_series", self.span("homology.gap_series", cli.gap_series))
        bd = homology.boundary_matrices
        for owner in (homology, persistence):
            p(owner, "boundary_matrices", self.span("homology.boundary_matrices", bd))

        p(cli, "build_filtration", self.span(
            "persistence.build_filtration", cli.build_filtration,
            lambda tr, filt: tr.count("persistence.critical_values", filt.steps)))
        p(cli, "full_barcode", self.span(
            lambda a, k: "persistence.barcode_" + (a[2] if len(a) > 2 else k["which"]),
            cli.full_barcode, lambda tr, bc: tr.count("persistence.bars", len(bc.bars))))
        p(cli, "correlation_matrix", self.span(
            "persistence.correlation", cli.correlation_matrix,
            lambda tr, cm: tr.count("persistence.correlation_entries", len(cm.entries))))
        p(cli, "triangle_report", self.span("persistence.triangle", cli.triangle_report))
        p(cli, "critical_values", self.span("scoring.critical_values", cli.critical_values))

        for name, fn in list(vars(formats).items()):
            if callable(fn) and getattr(fn, "__module__", None) == formats.__name__ \
                    and not isinstance(fn, type):
                if name.startswith("read_"):
                    p(formats, name, self.span("formats.read", fn))
                elif name.startswith("write_") or name == "atomic_write":
                    p(formats, name, self.span("formats.write", fn))
        p(render, "render_diagram", self.span("render.render_diagram", render.render_diagram))

        rref = fields.rref

        def rref_listed(rows, ncols, field):
            return rref(rows if isinstance(rows, (list, tuple)) else list(rows), ncols, field)

        p(fields, "rref", self.leaf("fields.rref", rref_listed,
                                    lambda a: len(a[0]) * a[1]))
        fm = fields.FieldMatrix
        p(fm, "matmul", self.leaf("fields.matmul", fm.__dict__["matmul"],
                                  lambda a: a[0].rows * a[0].cols * a[1].cols))
        p(fm, "apply", self.leaf("fields.apply", fm.__dict__["apply"]))
        p(graphs.MultiGraph, "edges_between",
          self.leaf("graphs.edges_between", graphs.MultiGraph.__dict__["edges_between"]))
        p(scoring.ScoringScheme, "score",
          self.leaf("scoring.score", scoring.ScoringScheme.__dict__["score"]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def job_metrics(self, job_id: int) -> tuple[dict[str, float], dict[str, int]]:
        """(timings, counts) of one job.  `<span>_s` sums the spans of that
        name not nested in another of the same name; `<layer>.self_s` sums
        self times; the counts include the leaves' calls and work."""
        times: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        counts = dict(self.counts.get(job_id, {}))
        for name, job, parent, start, end, enclosed in self.spans:
            if job != job_id:
                continue
            times[name.split(".")[0] + ".self_s"] += (end - start) - enclosed
            if name == JOB_SPAN:
                times["trace.job_s"] = end - start
                continue
            anc = parent
            while anc is not None and self.spans[anc][0] != name:
                anc = self.spans[anc][2]
            if anc is None:
                times[name + "_s"] = times.get(name + "_s", 0.0) + (end - start)
                counts[name + "_calls"] = counts.get(name + "_calls", 0) + 1
        for name, (calls, secs, work) in self.leaves.get(job_id, {}).items():
            times[name.split(".")[0] + ".self_s"] += secs
            times[name + "_s"] = secs
            counts[name + "_calls"] = calls
            if name in WORK_COUNTS:
                counts[WORK_COUNTS[name]] = work
        return times, {k: counts.get(k, 0) for k in COUNTS}

    def dump(self) -> dict:
        return {"spans": [{"name": n, "job": j, "parent": p, "start": s, "end": e,
                           "self": (e - s) - enc}
                          for n, j, p, s, e, enc in self.spans],
                "leaves": {str(j): {n: {"calls": c, "s": s, "work": w}
                                    for n, (c, s, w) in d.items()}
                           for j, d in self.leaves.items()}}
