"""Seeded inputs, CLI jobs and output checks for the three benchmark workloads.

Each workload writes its inputs once (the program sees only these files),
then runs jobs: one job is the full `superph` CLI pipeline of the workload on
those inputs, called in-process through `superph.cli.main`.  The checks here
use only the generated data, never the program's own code, so they hold
whatever engine computes the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import re

WORKLOADS = ("persist_vr_circle", "homology_hypergraph", "construct_score")

# Sizes per workload.  "default" is what the benchmark measures; "small" is
# the smallest size, used by the self-test.  A size is never re-chosen to
# hide a regression: changing one is a change to the benchmark.
SIZES = {
    "persist_vr_circle": {
        # points on the circle, family members, closure cell counts per degree
        "default": {"points": 10, "members": 50, "cells": (10, 37, 44, 10)},
        "small": {"points": 6, "members": 12, "cells": (6, 11, 5, 1)},
    },
    "homology_hypergraph": {
        # vertices, clique cell counts per degree (dim <= 3), marked share
        "default": {"components": 3, "vertices": 8, "cells": (8, 20, 19, 6),
                    "marked": 0.7},
        "small": {"components": 1, "vertices": 7, "cells": (7, 15, 12, 3),
                  "marked": 0.7},
    },
    "construct_score": {
        "default": {"clique_points": 25, "graph_vertices": 40, "edge_p": 0.4,
                    "members": 100, "member_size": 6, "blocks": 8},
        "small": {"clique_points": 8, "graph_vertices": 12, "edge_p": 0.4,
                  "members": 10, "member_size": 4, "blocks": 3},
    },
}

# Outputs whose sha256 must match the stored reference for the default seed.
DIGESTED = {
    "persist_vr_circle": ("barcodes.csv", "triangle.csv"),
    "homology_hypergraph": ("betti.csv", "gap.csv"),
    "construct_score": ("score_clique.txt", "score_secondary_vd.txt",
                        "score_partition.txt", "score_link_blowup.txt"),
}


class CheckFailure(Exception):
    """An output of a job is wrong."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


def fmt12(x: float) -> str:
    """A score as the CLI prints it: rounded to 12 significant digits."""
    return "0" if x == 0 else f"{float(f'{x:.12g}'):.12g}"


def half_diameter(points) -> float:
    return max((math.dist(p, q) for p, q in itertools.combinations(points, 2)),
               default=0.0) / 2.0


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write(path: str, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _rng(workload: str, seed: int, attempt: int = 0) -> random.Random:
    return random.Random(f"{workload}/{seed}/{attempt}")


# ---------------------------------------------------------------------------
# Input files.  Edge ids are whitespace-free strings: the graph file format
# splits on whitespace, so ids such as ('k', 'p0', 'p1') cannot be read back.
# ---------------------------------------------------------------------------

def _edge_id(u: str, v: str) -> str:
    return f"e_{u}_{v}"


def write_cloud(path: str, coords: dict[str, tuple[float, ...]]) -> dict:
    """Write a point file; return the coordinates as the CLI will parse them."""
    text = {v: tuple(f"{c:.6f}" for c in p) for v, p in coords.items()}
    _write(path, [f"{v} {' '.join(cs)}" for v, cs in text.items()])
    return {v: tuple(float(c) for c in cs) for v, cs in text.items()}


def write_graph(path: str, vertices, edges):
    _write(path, ["directed 0"] + [f"v {v}" for v in vertices]
           + [f"e {_edge_id(u, v)} {u} {v}" for u, v in edges])


def write_family(path: str, members, edges):
    """Induced subgraphs: every host edge between two member vertices."""
    out = []
    for m in members:
        out += ["member", "v " + " ".join(m)]
        es = [_edge_id(u, v) for u, v in edges if u in m and v in m]
        if es:
            out.append("e " + " ".join(es))
    _write(path, out)


def closure_counts(members, top: int) -> tuple[int, ...]:
    """Cell counts per degree of the vertex-deletion closure of induced
    subgraphs: every nonempty vertex subset of a member is one cell."""
    cells = {frozenset(s) for m in members for k in range(1, len(m) + 1)
             for s in itertools.combinations(m, k)}
    return tuple(sum(1 for c in cells if len(c) == n + 1) for n in range(top + 1))


# ---------------------------------------------------------------------------
# Workload 1: persist on a partially marked family over a noisy circle
# ---------------------------------------------------------------------------

def gen_persist(workdir: str, seed: int, size: str) -> dict:
    p = SIZES["persist_vr_circle"][size]
    n, want = p["points"], p["cells"]
    names = [f"p{i}" for i in range(n)]
    rng = _rng("persist_vr_circle", seed)
    coords = {}
    for i, v in enumerate(names):
        a = 2 * math.pi * (i + rng.uniform(-0.3, 0.3)) / n
        r = 1.0 + rng.gauss(0.0, 0.05)
        coords[v] = (r * math.cos(a), r * math.sin(a))
    # X is built top-down inside the clique complex of a random graph with
    # want[1] edges: want[d] d-cells are the faces of the (d+1)-cells plus
    # random d-cliques.  The cells that are no face are the maximal ones and
    # must be members; random other cells fill the family.  So X = closure(H)
    # has the same cell counts for every seed.
    pairs = list(itertools.combinations(range(n), 2))
    for attempt in itertools.count():
        frng = _rng("persist_vr_circle/family", seed, attempt)
        cl = _cliques(n, set(frng.sample(pairs, want[1])), len(want) - 1)
        cells: list[set] = [set() for _ in want]
        maximal: list[tuple] = []
        for d in reversed(range(len(want))):
            if d + 1 < len(want):
                cells[d] = {c[:i] + c[i + 1:] for c in cells[d + 1] for i in range(len(c))}
            extra = [c for c in cl[d] if c not in cells[d]]
            need = want[d] - len(cells[d])
            if not 0 <= need <= len(extra):
                break
            maximal += frng.sample(extra, need)
            cells[d].update(maximal[len(maximal) - need:])
        else:
            if len(maximal) <= p["members"]:
                break
    others = sorted(set().union(*cells) - set(maximal))
    members = sorted(tuple(names[i] for i in c) for c in
                     maximal + frng.sample(others, p["members"] - len(maximal)))
    edges = list(itertools.combinations(names, 2))
    files = {k: os.path.join(workdir, k) for k in ("graph.txt", "cloud.xy", "family.txt")}
    pts = write_cloud(files["cloud.xy"], coords)
    write_graph(files["graph.txt"], names, edges)
    write_family(files["family.txt"], members, edges)
    if closure_counts(members, len(want) - 1) != want:
        raise RuntimeError("persist_vr_circle: generated closure has the wrong size")
    crit = {0.0} | {float(fmt12(math.dist(pts[names[u]], pts[names[v]]) / 2))
                    for u, v in cells[1]}
    return {"files": files, "cells": want,
            "critical": [fmt12(t) for t in sorted(crit)]}


def job_persist(cli_main, data: dict, out: str) -> int:
    f = data["files"]
    rc = cli_main(["persist", "--graph", f["graph.txt"], "--cloud", f["cloud.xy"],
                   "--family", f["family.txt"], "--construction", "primary_vd",
                   "--scheme", "vr", "--field", "gf2", "--out", out])
    return rc or cli_main(["render", "--input", os.path.join(out, "barcodes.csv"),
                           "--output", os.path.join(out, "diagram.svg")])


def _read_csv(path: str, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(bool(lines) and lines[0] == header, f"{os.path.basename(path)}: bad header")
    return [line.split(",") for line in lines[1:]]


def _alive(bars, module: str, degree: int, t: float) -> int:
    return sum(m for (mod, d, b, e), m in bars.items()
               if mod == module and d == degree and b <= t < e)


def _chi(bars, module: str, t: float, top: int) -> int:
    return sum((-1) ** n * _alive(bars, module, n, t) for n in range(top + 1))


# Interval ids hold a comma ("[birth,death)"), so correlation.csv rows are
# matched whole rather than split on commas.
_IVL = r"(embedded|ambient|relative):d(\d+):(\d+):\[([^,\]]+),([^)]+)\)"
_CORR_ROW = re.compile(rf"^(J|P|boundary),{_IVL},{_IVL},1$")


def check_persist(data: dict, out: str) -> None:
    top = len(data["cells"]) - 1
    bars: dict[tuple, int] = {}
    for row in _read_csv(os.path.join(out, "barcodes.csv"),
                         "degree,birth,death,multiplicity,module"):
        _require(len(row) == 5 and row[4] in ("embedded", "ambient", "relative"),
                 f"barcodes.csv: bad row {row}")
        key = (row[4], int(row[0]), float(row[1]), float(row[2]))
        _require(key[2] < key[3] and int(row[3]) > 0 and key not in bars,
                 f"barcodes.csv: bad bar {row}")
        bars[key] = int(row[3])
    tri = _read_csv(os.path.join(out, "triangle.csv"),
                    "degree,step,t,dim_embedded,dim_ambient,dim_relative,"
                    "rank_j,rank_p,rank_boundary,exact")
    _require(sorted({r[2] for r in tri}, key=float) == data["critical"],
             "triangle.csv: critical values differ from the cloud's half-distances")
    _require(len(tri) == (top + 1) * len(data["critical"]), "triangle.csv: row count")
    for r in tri:
        n, t = int(r[0]), float(r[2])
        _require(r[9] == "1", f"triangle.csv: inexact row {r}")
        for module, dim in zip(("embedded", "ambient", "relative"), r[3:6]):
            _require(_alive(bars, module, n, t) == int(dim),
                     f"triangle.csv: {module} dimension {dim} at t={r[2]} degree {n} "
                     f"disagrees with barcodes.csv")
    euler = sum((-1) ** n * c for n, c in enumerate(data["cells"]))
    last = float(data["critical"][-1])
    _require(_chi(bars, "ambient", last, top) == euler,
             "ambient Euler characteristic at the last critical value")
    for t in map(float, data["critical"]):
        _require(_chi(bars, "relative", t, top)
                 == _chi(bars, "ambient", t, top) - _chi(bars, "embedded", t, top),
                 f"χ(relative) != χ(ambient) − χ(embedded) at t={t}")
    # correlation.csv depends on a choice of basis: check its structure only.
    named: dict[tuple, set] = {}
    shift = {"J": ("embedded", "ambient", 0), "P": ("ambient", "relative", 0),
             "boundary": ("relative", "embedded", -1)}
    with open(os.path.join(out, "correlation.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(lines[:1] == ["arrow,row,col,value"], "correlation.csv: bad header")
    for line in lines[1:]:
        m = _CORR_ROW.match(line)
        _require(m is not None, f"correlation.csv: bad row {line!r}")
        src_mod, dst_mod, dd = shift[m.group(1)]
        _require(m.group(2) == src_mod and m.group(7) == dst_mod
                 and int(m.group(8)) == int(m.group(3)) + dd,
                 f"correlation.csv: modules or degrees do not fit {line!r}")
        for g in (2, 7):
            key = (m.group(g), int(m.group(g + 1)), float(m.group(g + 3)),
                   float(m.group(g + 4)))
            _require(key in bars, f"correlation.csv: {line!r} names no bar {key}")
            named.setdefault(key, set()).add(int(m.group(g + 2)))
    for key, idents in named.items():
        _require(len(idents) <= bars[key], f"correlation.csv: too many summands {key}")
    with open(os.path.join(out, "diagram.svg"), encoding="utf-8") as fh:
        svg = fh.read()
    _require(svg.startswith("<svg") and svg.rstrip().endswith("</svg>"),
             "diagram.svg is not an SVG document")


# ---------------------------------------------------------------------------
# Workload 2: homology of a partially marked clique Δ-set, over Q
# ---------------------------------------------------------------------------

def _cliques(n: int, adj: set, top: int):
    out = [[(v,) for v in range(n)]]
    for _ in range(top):
        out.append([c + (w,) for c in out[-1] for w in range(c[-1] + 1, n)
                    if all((u, w) in adj for u in c)])
    return out


def gen_homology(workdir: str, seed: int, size: str) -> dict:
    p = SIZES["homology_hypergraph"][size]
    n, want = p["vertices"], p["cells"]
    pairs = list(itertools.combinations(range(n), 2))
    cells: list[list[tuple]] = [[] for _ in want]
    for comp in range(p["components"]):
        # Draw graphs with the fixed edge count until the clique counts match,
        # so every seed builds boundary matrices of the same shape.
        for attempt in itertools.count():
            rng = _rng("homology_hypergraph", seed, attempt * p["components"] + comp)
            found = _cliques(n, set(rng.sample(pairs, want[1])), len(want) - 1)
            if tuple(map(len, found)) == want:
                break
        for d, cs in enumerate(found):
            cells[d] += [tuple((comp, v) for v in c) for c in cs]
    rng = _rng("homology_hypergraph/marks", seed)
    marked = [set(rng.sample(range(len(cs)), round(p["marked"] * len(cs))))
              for cs in cells]
    name = {c: "c" + "_".join(f"{k}.{v}" for k, v in c) for cs in cells for c in cs}
    lines = []
    for d, cs in enumerate(cells):
        for c in cs:
            faces = " ".join(name[c[:i] + c[i + 1:]] for i in range(len(c))) if d else ""
            lines.append(f"cell {d} {name[c]} : {faces}".rstrip())
    lines += [f"mark {d} {name[cells[d][j]]}" for d in range(len(cells))
              for j in sorted(marked[d])]
    path = os.path.join(workdir, "hypergraph.delta")
    _write(path, lines)
    # Regular: every cell is an iterated face of a marked cell.
    covered = {cells[d][j] for d in range(len(cells)) for j in marked[d]}
    covered |= {s for c in covered for k in range(1, len(c))
                for s in itertools.combinations(c, k)}
    return {"files": {"hypergraph.delta": path}, "cells": tuple(map(len, cells)),
            "regular": len(covered) == sum(map(len, cells))}


def job_homology(cli_main, data: dict, out: str) -> int:
    return cli_main(["homology", "--delta", data["files"]["hypergraph.delta"],
                     "--field", "rational", "--properties", "--out", out])


def check_homology(data: dict, out: str) -> None:
    top = len(data["cells"]) - 1
    tables: dict[str, list[int]] = {}
    for row in _read_csv(os.path.join(out, "betti.csv"), "module,degree,value"):
        _require(len(row) == 3 and int(row[1]) == len(tables.setdefault(row[0], [])),
                 f"betti.csv: bad row {row}")
        tables[row[0]].append(int(row[2]))
    _require(sorted(tables) == ["ambient", "embedded", "relative"]
             and all(len(v) == top + 1 for v in tables.values()), "betti.csv: tables")
    chi = {k: sum((-1) ** n * b for n, b in enumerate(v)) for k, v in tables.items()}
    _require(chi["ambient"] == sum((-1) ** n * c for n, c in enumerate(data["cells"])),
             "ambient Euler characteristic")
    _require(chi["relative"] == chi["ambient"] - chi["embedded"],
             "χ(relative) != χ(ambient) − χ(embedded)")
    gap = [int(r[1]) for r in _read_csv(os.path.join(out, "gap.csv"), "degree,value")]
    _require(len(gap) == top + 1 and min(gap) >= 0, "gap.csv: shape")
    _require(sum((-1) ** n * g for n, g in enumerate(gap)) == 0,
             "gap series has a non-zero alternating sum")
    with open(os.path.join(out, "properties.txt"), encoding="utf-8") as fh:
        props = fh.read().splitlines()
    _require(props[:2] == ["validate_delta ok", f"regular {int(data['regular'])}"],
             f"properties.txt: {props[:2]}")


# ---------------------------------------------------------------------------
# Workload 3: critical values of four constructions (no linear algebra)
# ---------------------------------------------------------------------------

def _square_cloud(rng: random.Random, names) -> dict:
    return {v: (rng.random(), rng.random()) for v in names}


def gen_score(workdir: str, seed: int, size: str) -> dict:
    p = SIZES["construct_score"][size]
    rng = _rng("construct_score", seed)
    files = {k: os.path.join(workdir, k) for k in
             ("clique.xy", "graph.txt", "cloud.xy", "family.txt", "clustering.txt")}
    clique_pts = write_cloud(files["clique.xy"],
                             _square_cloud(rng, [f"q{i}" for i in range(p["clique_points"])]))
    names = [f"v{i}" for i in range(p["graph_vertices"])]
    pts = write_cloud(files["cloud.xy"], _square_cloud(rng, names))
    edges = [e for e in itertools.combinations(names, 2) if rng.random() < p["edge_p"]]
    write_graph(files["graph.txt"], names, edges)
    fam = set()
    while len(fam) < p["members"]:
        fam.add(tuple(sorted(rng.sample(names, p["member_size"]))))
    members = sorted(fam)
    write_family(files["family.txt"], members, edges)
    order = rng.sample(names, len(names))
    block = {v: i % p["blocks"] for i, v in enumerate(order)}
    _write(files["clustering.txt"], [f"{v} {block[v]}" for v in names])

    def crit(vertex_sets, coords):
        vals = {float(fmt12(half_diameter([coords[v] for v in s]))) for s in vertex_sets}
        return [fmt12(t) for t in sorted(vals)]

    # Every face of a vertex-deletion cell drops vertices only, and a VR score
    # depends on the vertex set alone; partition and link-blowup faces drop
    # whole touched clusters, so their vertex sets agree.
    subsets = {s for m in members for k in (1, 2) for s in itertools.combinations(m, k)}
    cluster_sets = set()
    for m in members:
        parts = {}
        for v in m:
            parts.setdefault(block[v], []).append(v)
        groups = list(parts.values())
        for k in range(1, len(groups) + 1):
            for chosen in itertools.combinations(groups, k):
                cluster_sets.add(tuple(sorted(v for g in chosen for v in g)))
    return {"files": files, "expected": {
        "clique": crit([s for k in (1, 2) for s in itertools.combinations(clique_pts, k)],
                       clique_pts),
        "secondary_vd": crit(subsets, pts),
        "partition": crit(cluster_sets, pts),
        "link_blowup": crit(cluster_sets, pts)}}


SCORE_RUNS = ("clique", "secondary_vd", "partition", "link_blowup")


def job_score(cli_main, data: dict, out: str) -> int:
    f = data["files"]
    rc = 0
    for kind in SCORE_RUNS:
        if kind == "clique":
            argv = ["--cloud", f["clique.xy"], "--max-dim", "2"]
        else:
            argv = ["--graph", f["graph.txt"], "--cloud", f["cloud.xy"],
                    "--family", f["family.txt"]]
            if kind != "secondary_vd":
                argv += ["--clustering", f["clustering.txt"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = rc or cli_main(["score", "--construction", kind, "--scheme", "vr"] + argv)
        with open(os.path.join(out, f"score_{kind}.txt"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(buf.getvalue())
    return rc


def check_score(data: dict, out: str) -> None:
    for kind in SCORE_RUNS:
        with open(os.path.join(out, f"score_{kind}.txt"), encoding="utf-8") as fh:
            got = fh.read().splitlines()
        want = data["expected"][kind]
        _require(got == want, f"score {kind}: {len(got)} critical values differ "
                              f"from the {len(want)} computed from the inputs")


GENERATE = {"persist_vr_circle": gen_persist, "homology_hypergraph": gen_homology,
            "construct_score": gen_score}
JOB = {"persist_vr_circle": job_persist, "homology_hypergraph": job_homology,
       "construct_score": job_score}
CHECK = {"persist_vr_circle": check_persist, "homology_hypergraph": check_homology,
         "construct_score": check_score}


def check_job(workload: str, data: dict, out: str, rc) -> str | None:
    """None if the job exited 0 and its outputs pass every check, else the
    first failure."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        CHECK[workload](data, out)
    except (CheckFailure, OSError, ValueError, IndexError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def digests(workload: str, out: str) -> dict[str, str]:
    return {name: sha256_file(os.path.join(out, name)) for name in DIGESTED[workload]}
