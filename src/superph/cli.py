"""Command-line front end.

Subcommands: homology, persist, render, validate, score.  Job options are
the fields of `JobConfig`: they come from a flat `key = value` config file
(--config), and each key's flag (the key with dashes) overrides it.  Exit
codes: 0 success, 1 usage/config error, 2 validation failure, 3 computation
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

from . import formats, homology, render
from .delta import DeltaIdentityError, SuperHypergraph, full_subset, is_complete, is_regular
from .faceops import (edge_deletion_faces, link_blowup_faces, partition_faces,
                      primary_vertex_deletion, secondary_vertex_deletion, starting_vertex_faces)
from .fields import GF, GF2, QQ
from .graphs import MultiGraph, clique_delta, neighborhood_delta, path_complex
from .homology import embedded_betti, gap_series
from .persistence import (build_filtration, correlation_matrix, full_barcode,
                          triangle_report)
from .scoring import (PointCloud, cech_points, cech_scheme, constant_scheme,
                      critical_values, pullback_scheme, seeded_random_scheme,
                      vr_points, vr_scheme, witness_scheme)

CONSTRUCTIONS = ("clique", "neighborhood", "path", "primary_vd", "secondary_vd",
                 "edge_del", "partition", "link_blowup", "starting_vertex", "delta")
SCHEMES = ("vr", "cech", "witness:strong", "witness:vr_strong", "witness:weak",
           "witness:vr_weak", "pullback", "constant", "seeded_random")


class UsageError(ValueError):
    pass


class ValidationFailure(ValueError):
    pass


@dataclass
class JobConfig:
    graph: str | None = None
    cloud: str | None = None
    family: str | None = None
    clustering: str | None = None
    delta: str | None = None
    witnesses: str | None = None
    construction: str | None = None
    scheme: str | None = None
    field: str = "gf2"
    out: str = "."
    pullback_base: str = "vr"
    max_dim: int = 3
    constant_value: float = 0.0
    seed: int = 0
    experimental: bool = False
    properties: bool = False

    @classmethod
    def load(cls, config_path: str | None, overrides: dict) -> "JobConfig":
        raw: dict[str, str] = {}
        if config_path:
            raw.update(formats.read_config(config_path))
        raw.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls()
        for key, value in raw.items():
            if not hasattr(cfg, key):
                raise UsageError(f"unknown config key {key!r}")
            current = getattr(cfg, key)
            if isinstance(current, bool):
                flag = str(value).lower()
                if flag not in ("1", "true", "yes", "0", "false", "no"):
                    raise UsageError(f"config key {key!r}: bad bool {value!r} "
                                     f"(1/0, true/false or yes/no)")
                value = flag in ("1", "true", "yes")
            elif isinstance(current, (int, float)):
                try:
                    value = type(current)(value)
                except ValueError:
                    raise UsageError(f"config key {key!r}: bad {type(current).__name__} "
                                     f"{value!r}") from None
            setattr(cfg, key, value)
        if cfg.max_dim < 0:
            raise UsageError(f"config key 'max_dim': must be >= 0, got {cfg.max_dim}")
        if not math.isfinite(cfg.constant_value):
            raise UsageError(f"config key 'constant_value': must be finite, "
                             f"got {cfg.constant_value}")
        return cfg

    def coefficient_field(self):
        name = self.field.lower()
        if name == "gf2":
            return GF2
        if name == "rational":
            return QQ
        if name.startswith("gfp:"):
            try:
                return GF(int(name.split(":", 1)[1]))
            except ValueError as exc:
                raise UsageError(f"bad field {self.field!r}: {exc}") from None
        raise UsageError(f"unknown field {self.field!r} (gf2 | gfp:<p> | rational)")


@dataclass
class RunReport:
    timings: dict = field(default_factory=dict)
    cell_counts: tuple = ()
    critical_count: int = 0
    outputs: list = field(default_factory=list)

    def render(self) -> str:
        lines = ["run report"]
        lines.append("cells per dimension: " + " ".join(map(str, self.cell_counts)))
        lines.append(f"critical values: {self.critical_count}")
        for phase, dt in self.timings.items():
            lines.append(f"time {phase}: {dt:.4f}s")
        lines.append("outputs: " + " ".join(sorted(os.path.basename(p)
                                                   for p in self.outputs)))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Construction of the super-hypergraph from inputs
# ---------------------------------------------------------------------------

def _require(cfg: JobConfig, attr: str, why: str) -> str:
    value = getattr(cfg, attr)
    if value is None:
        raise UsageError(f"{why} requires the `{attr}` input")
    if not os.path.exists(value):
        raise UsageError(f"input file not found: {value}")
    return value


def _load_graph(cfg: JobConfig) -> MultiGraph:
    if cfg.graph:
        return formats.read_graph(_require(cfg, "graph", "this construction"))
    if cfg.cloud:
        cloud = _load_cloud(cfg)
        return MultiGraph.complete(cloud.ids())
    raise UsageError("need a `graph` file (or a `cloud` to take its complete graph)")


def _load_cloud(cfg: JobConfig) -> PointCloud:
    path = _require(cfg, "cloud", "this scheme")
    return formats.read_point_cloud(path)


def build_super_hypergraph(cfg: JobConfig) -> SuperHypergraph:
    kind = cfg.construction
    if kind is None:
        kind = "delta" if cfg.delta else None
    if kind not in CONSTRUCTIONS:
        raise UsageError(f"construction must be one of {CONSTRUCTIONS}, got {kind!r}")
    if kind == "delta":
        path = _require(cfg, "delta", "the delta construction")
        ds, marked = formats.read_delta(path)
        report = ds.validate()
        if not report.ok:
            raise DeltaIdentityError(report)
        return SuperHypergraph(ds, marked if marked is not None else full_subset(ds))
    g = _load_graph(cfg)
    if kind in ("clique", "neighborhood"):
        ds = clique_delta(g, cfg.max_dim) if kind == "clique" else neighborhood_delta(g)
        return SuperHypergraph(ds, full_subset(ds))
    if kind == "path":
        return path_complex(g, cfg.max_dim)
    fam_path = _require(cfg, "family", f"the {kind} construction")
    fam, marked_members = formats.read_family(fam_path, g)
    if kind == "primary_vd":
        return primary_vertex_deletion(fam)
    if kind == "secondary_vd":
        return secondary_vertex_deletion(fam)
    if kind == "edge_del":
        return edge_deletion_faces(fam)
    if kind in ("partition", "link_blowup"):
        cl_path = _require(cfg, "clustering", f"the {kind} construction")
        clustering = formats.read_clustering(cl_path, g)
        builder = partition_faces if kind == "partition" else link_blowup_faces
        return builder(fam, clustering)
    # the one construction left: starting_vertex
    if marked_members is None:
        raise UsageError("starting_vertex construction needs `sv` lines in the family file")
    return starting_vertex_faces(marked_members, g)


def build_scheme(cfg: JobConfig):
    name = cfg.scheme
    if name is None:
        raise UsageError(f"scheme must be one of {SCHEMES}")
    if name == "constant":
        return constant_scheme(cfg.constant_value)
    if name == "seeded_random":
        return seeded_random_scheme(cfg.seed)
    if name == "vr":
        return vr_scheme(_load_cloud(cfg))
    if name == "cech":
        return cech_scheme(_load_cloud(cfg))
    if name.startswith("witness:"):
        cloud = _load_cloud(cfg)
        witnesses = None
        if cfg.witnesses:
            read = formats.read_point_cloud(cfg.witnesses)
            if read.dim != cloud.dim:
                raise formats.FormatError(cfg.witnesses, 1, f"witness points have {read.dim} "
                                          f"coordinates, the cloud's points have {cloud.dim}")
            witnesses = read.all_points()
        return witness_scheme(cloud, name.split(":", 1)[1], witnesses)
    if name == "pullback":
        if cfg.pullback_base not in ("vr", "cech"):
            raise UsageError(f"config key 'pullback_base': must be vr or cech, "
                             f"got {cfg.pullback_base!r}")
        cloud = _load_cloud(cfg)
        base = vr_points if cfg.pullback_base == "vr" else cech_points
        return pullback_scheme(cloud.points, base, name=f"pullback:{cfg.pullback_base}")
    raise UsageError(f"scheme must be one of {SCHEMES}, got {name!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _properties(sh: SuperHypergraph) -> list[tuple[str, object]]:
    """The property report of a built super-hypergraph, as (name, value)
    pairs: every construction route has validated the Δ-identity; the
    completeness facts follow only a regular one, the certificate only when
    there is one."""
    regular = is_regular(sh)
    facts = [("validate_delta", "ok"), ("regular", regular)]
    if regular:
        comp = is_complete(sh, regular=True)
        facts.append(("complete", comp.complete))
        if comp.certificate:
            facts.append(("certificate", comp.certificate))
    return facts


def _write_outputs(out: str, report: RunReport, outputs) -> None:
    """Write each (file name, `formats` writer name, data) output into the
    directory `out`, then `manifest.txt` of them, then `report.txt`.
    Writers are looked up on `formats` at call time."""
    os.makedirs(out, exist_ok=True)
    for name, writer, data in outputs:
        path = os.path.join(out, name)
        getattr(formats, writer)(path, data)
        report.outputs.append(path)
    formats.write_manifest(os.path.join(out, "manifest.txt"), report.outputs)
    formats.atomic_write(os.path.join(out, "report.txt"), report.render())


def run_homology(cfg: JobConfig) -> int:
    report = RunReport()
    t0 = time.perf_counter()
    sh = build_super_hypergraph(cfg)
    report.timings["build"] = time.perf_counter() - t0
    report.cell_counts = sh.x.counts
    fld = cfg.coefficient_field()
    t0 = time.perf_counter()
    cc = homology.boundary_matrices(sh.x, fld)
    tables = {
        "embedded": embedded_betti(sh, fld, "absolute", cc=cc),
        "relative": embedded_betti(sh, fld, "relative", cc=cc),
        "ambient": embedded_betti(sh, fld, "ambient", cc=cc),
    }
    series = gap_series(sh, fld, cc=cc)
    report.timings["homology"] = time.perf_counter() - t0
    outputs = [("betti.csv", "write_betti_csv", tables), ("gap.csv", "write_gap_csv", series)]
    if cfg.properties:
        text = "".join(f"{name} {int(v) if isinstance(v, bool) else v}\n"
                       for name, v in _properties(sh))
        outputs.append(("properties.txt", "atomic_write", text))
    _write_outputs(cfg.out, report, outputs)
    return 0


def run_persist(cfg: JobConfig) -> int:
    report = RunReport()
    t0 = time.perf_counter()
    sh = build_super_hypergraph(cfg)
    scheme = build_scheme(cfg)
    filt = build_filtration(sh, scheme, experimental=cfg.experimental)
    report.timings["build"] = time.perf_counter() - t0
    report.cell_counts = sh.x.counts
    report.critical_count = filt.steps
    fld = cfg.coefficient_field()
    t0 = time.perf_counter()
    barcodes = [full_barcode(filt, fld, which)
                for which in ("embedded", "ambient", "relative")]
    matrices = []
    for arrow in ("J", "P", "boundary"):
        for degree in range(sh.x.dim_count):
            cm = correlation_matrix(filt, fld, arrow, degree)
            if cm.rows or cm.cols:
                matrices.append(cm)
    triangle = triangle_report(filt, fld)
    report.timings["persistence"] = time.perf_counter() - t0
    _write_outputs(cfg.out, report, [("barcodes.csv", "write_barcodes_csv", barcodes),
                                     ("correlation.csv", "write_correlation_csv", matrices),
                                     ("triangle.csv", "write_triangle_csv", triangle)])
    if not triangle.exact:
        raise ValidationFailure("exact triangle failed rank bookkeeping")
    return 0


def run_validate(cfg: JobConfig) -> int:
    try:
        sh = build_super_hypergraph(cfg)
    except DeltaIdentityError as exc:
        for err in exc.report.structural:
            print(f"structural: {err}")
        for cell, i, j in exc.report.violations:
            print(f"violation: cell {cell} (i={i}, j={j})")
        return 2
    for name, v in _properties(sh):
        print(f"{name}: {('yes' if v else 'no') if isinstance(v, bool) else v}")
    return 0


def run_score(cfg: JobConfig) -> int:
    sh = build_super_hypergraph(cfg)
    scheme = build_scheme(cfg)
    for value in critical_values(scheme, sh.x):
        print(formats.format_float(value))
    return 0


def run_render(input_path: str, output_path: str) -> int:
    barcodes = formats.read_barcodes_csv(input_path)
    formats.atomic_write(output_path, render.render_diagram(barcodes))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_job_flags(p: argparse.ArgumentParser):
    """--config, then one flag per JobConfig field: the key with dashes,
    taking a string (`JobConfig.load` parses it) or, for a bool key, set
    to "1" by its presence."""
    p.add_argument("--config", help="flat key = value job file")
    for f in fields(JobConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, dest=f.name, action="store_const", const="1")
        else:
            p.add_argument(flag, dest=f.name)


RUNNERS = {"homology": run_homology, "persist": run_persist, "validate": run_validate,
           "score": run_score}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and kept for the
    process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="superph",
        description="embedded homology and super-persistent homology of "
                    "super-hypergraphs built from graph data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        _add_job_flags(sub.add_parser(name))
    pr = sub.add_parser("render")
    pr.add_argument("--input", required=True, help="barcode csv")
    pr.add_argument("--output", required=True, help="svg path")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        command = args.pop("command")
        if command == "render":
            return run_render(args["input"], args["output"])
        return RUNNERS[command](JobConfig.load(args.pop("config"), args))
    except (UsageError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # Δ-identity, domination, regularity, triangle
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation error
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
