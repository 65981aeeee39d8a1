"""Line-oriented text formats and atomic output writing.

All inputs are diff-able, hand-writable text: graphs, subgraph families
(optionally with marked starting-vertices), clusterings, point clouds,
Δ-sets with marks, and flat key=value job configs.  All outputs re-parse to
equal in-memory values, and repeated runs write byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from typing import Iterable, Sequence

from .delta import DeltaSet, DeltaStructureError, GradedSubset
from .faceops import MarkedSubgraph, SubgraphFamily, Clustering
from .graphs import MultiGraph, Subgraph
from .persistence import Bar, Barcode
from .scoring import PointCloud


class FormatError(ValueError):
    """Malformed input file; message carries path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def read_graph(path) -> MultiGraph:
    """Graph file: `directed 0|1` header, `v <id>` and `e <id> <head> <tail>`
    lines.  Ids are strings."""
    directed = None
    vertices: list[str] = []
    edges: dict[str, tuple[str, str]] = {}
    for lineno, line in _lines(path):
        parts = line.split()
        if parts[0] == "directed" and len(parts) == 2 and parts[1] in ("0", "1"):
            directed = parts[1] == "1"
        elif parts[0] == "v" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "e" and len(parts) == 4:
            if parts[1] in edges:
                raise FormatError(path, lineno, f"duplicate edge id {parts[1]!r}")
            edges[parts[1]] = (parts[2], parts[3])
        else:
            raise FormatError(path, lineno, f"unrecognized graph line: {line!r}")
    if directed is None:
        raise FormatError(path, 1, "missing `directed 0|1` header")
    try:
        return MultiGraph(vertices, edges, directed=directed)
    except ValueError as exc:
        raise FormatError(path, 1, str(exc)) from exc


def write_graph(path, g: MultiGraph):
    """Write the format `read_graph` reads.  Ids are written as their text,
    so an id whose text is empty or holds whitespace or `#` (the comment
    mark) is refused with ValueError."""
    for kind, ids in (("vertex", g.vertices), ("edge", g.edge_ends)):
        for i in ids:
            text = str(i)
            if text.split() != [text] or "#" in text:
                raise ValueError(f"cannot write {kind} id {text!r}: graph file ids "
                                 "must be non-empty and hold no whitespace or '#'")
    out = [f"directed {1 if g.directed else 0}"]
    for v in sorted(g.vertices):
        out.append(f"v {v}")
    for e in sorted(g.edge_ends):
        u, w = g.edge_ends[e]
        out.append(f"e {e} {u} {w}")
    atomic_write(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Subgraph families, clusterings, point clouds
# ---------------------------------------------------------------------------

def read_family(path, g: MultiGraph) -> tuple[SubgraphFamily, list[MarkedSubgraph] | None]:
    """Family file: blocks starting with `member`, then `v <ids...>`,
    `e <ids...>` and optional `sv <ids...>` lines.  Returns the family and,
    when any block carries an sv line, the marked-subgraph list."""
    blocks: list[dict] = []
    for lineno, line in _lines(path):
        parts = line.split()
        if parts[0] == "member" and len(parts) == 1:
            blocks.append({"v": [], "e": [], "sv": None, "line": lineno})
        elif parts[0] in ("v", "e", "sv"):
            if not blocks:
                raise FormatError(path, lineno, "vertex/edge line before any `member`")
            if parts[0] == "sv":
                blocks[-1]["sv"] = (blocks[-1]["sv"] or []) + parts[1:]
            else:
                blocks[-1][parts[0]].extend(parts[1:])
        else:
            raise FormatError(path, lineno, f"unrecognized family line: {line!r}")
    members = []
    marked = []
    any_sv = False
    for b in blocks:
        try:
            sub = Subgraph(g, b["v"], b["e"])
        except (ValueError, KeyError) as exc:
            raise FormatError(path, b["line"], f"bad member: {exc}") from exc
        members.append(sub)
        if b["sv"] is not None:
            any_sv = True
            try:
                marked.append(MarkedSubgraph(sub, frozenset(b["sv"])))
            except ValueError as exc:
                raise FormatError(path, b["line"], f"bad starting vertices: {exc}") from exc
        else:
            marked.append(None)
    if any_sv and any(m is None for m in marked):
        raise FormatError(path, 1, "either every member or none must carry `sv`")
    fam = SubgraphFamily(g, members)
    return fam, (marked if any_sv else None)


def write_family(path, members: Iterable[Subgraph], sv: Iterable[frozenset] | None = None):
    out = []
    sv = list(sv) if sv is not None else None
    for i, m in enumerate(members):
        out.append("member")
        if m.vertices:
            out.append("v " + " ".join(str(v) for v in sorted(m.vertices)))
        if m.edges:
            out.append("e " + " ".join(str(e) for e in sorted(m.edges)))
        if sv is not None:
            out.append("sv " + " ".join(str(v) for v in sorted(sv[i])))
    atomic_write(path, "\n".join(out) + "\n")


def read_clustering(path, g: MultiGraph) -> Clustering:
    """Clustering file: `<vertex> <block index>` lines."""
    assign: dict[str, int] = {}
    for lineno, line in _lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(path, lineno, f"expected `<vertex> <block>`: {line!r}")
        try:
            assign[parts[0]] = int(parts[1])
        except ValueError:
            raise FormatError(path, lineno, f"block index not an integer: {parts[1]!r}")
    if set(assign) != set(g.vertices):
        raise FormatError(path, 1, "clustering must assign every vertex exactly once")
    nblocks = max(assign.values()) + 1 if assign else 0
    blocks = [[v for v, b in assign.items() if b == i] for i in range(nblocks)]
    blocks = [b for b in blocks if b]
    try:
        return Clustering(g, blocks)
    except ValueError as exc:
        raise FormatError(path, 1, str(exc)) from exc


def read_point_cloud(path) -> PointCloud:
    """Delimiter-separated rows: vertex id then coordinates.  Fields split on
    commas when present, else whitespace."""
    points = {}
    for lineno, line in _lines(path):
        parts = [p for p in (line.split(",") if "," in line else line.split()) if p.strip()]
        if len(parts) < 2:
            raise FormatError(path, lineno, "need a vertex id and at least one coordinate")
        try:
            coords = tuple(float(c) for c in parts[1:])
        except ValueError as exc:
            raise FormatError(path, lineno, f"bad coordinate: {exc}") from exc
        points[parts[0].strip()] = coords
    try:
        return PointCloud(points)
    except ValueError as exc:
        raise FormatError(path, 1, str(exc)) from exc


# ---------------------------------------------------------------------------
# Δ-set interchange format
# ---------------------------------------------------------------------------

def read_delta(path) -> tuple[DeltaSet, GradedSubset | None]:
    """Δ-set file: `cell <dim> <id> : <face ids>` lines (face ids name cells
    of the previous dimension, d_0 first) and optional `mark <dim> <id>`
    lines selecting the marked subset."""
    cells: dict[int, list[tuple[str, list[str], int]]] = {}
    marks: list[tuple[int, str, int]] = []
    for lineno, line in _lines(path):
        parts = line.split()
        if parts[0] == "cell":
            if len(parts) < 4 or parts[3] != ":":
                raise FormatError(path, lineno,
                                  "expected `cell <dim> <id> : <face ids>`")
            try:
                dim = int(parts[1])
            except ValueError:
                raise FormatError(path, lineno, f"bad dimension {parts[1]!r}")
            if dim < 0:
                raise FormatError(path, lineno, f"negative dimension {dim}")
            face_ids = parts[4:]
            if len(face_ids) != (dim + 1 if dim else 0):
                need = f"needs {dim + 1} faces" if dim else "must have no faces"
                raise FormatError(path, lineno, f"cell {parts[2]!r} of dimension {dim} "
                                                f"{need}, got {len(face_ids)}")
            cells.setdefault(dim, []).append((parts[2], face_ids, lineno))
        elif parts[0] == "mark" and len(parts) == 3:
            try:
                marks.append((int(parts[1]), parts[2], lineno))
            except ValueError:
                raise FormatError(path, lineno, f"bad dimension {parts[1]!r}")
        else:
            raise FormatError(path, lineno, f"unrecognized Δ-set line: {line!r}")
    if not cells:
        if marks:
            raise FormatError(path, marks[0][2], "mark without any cells")
        return DeltaSet((), ()), None
    top = max(cells)
    counts = []
    faces = []
    labels = []
    index: dict[tuple[int, str], int] = {}
    # a cell line of dimension n holds n + 1 face ids, so top is bounded by
    # the length of the longest line
    for n in range(top + 1):
        named = cells.get(n, [])
        for j, (name, _, lineno) in enumerate(named):
            if (n, name) in index:
                raise FormatError(path, lineno,
                                  f"duplicate cell id {name!r} in dimension {n}")
            index[(n, name)] = j
        counts.append(len(named))
        labels.append(tuple(name for name, _, _ in named))
        rows = []
        for name, face_ids, lineno in named:
            if n == 0:
                continue
            row = []
            for f in face_ids:
                if (n - 1, f) not in index:
                    raise FormatError(path, lineno,
                                      f"cell {name!r}: unknown face {f!r} in dimension {n - 1}")
                row.append(index[(n - 1, f)])
            rows.append(tuple(row))
        faces.append(tuple(rows))
    try:
        ds = DeltaSet(counts, faces, labels)
    except DeltaStructureError as exc:
        raise FormatError(path, 1, str(exc)) from exc
    if not marks:
        return ds, None
    marked = []
    for dim, name, lineno in marks:
        if (dim, name) not in index:
            raise FormatError(path, lineno, f"mark names unknown cell {name!r} "
                                            f"in dimension {dim}")
        marked.append((dim, index[(dim, name)]))
    return ds, GradedSubset.from_cells(marked)


def write_delta(path, ds: DeltaSet, marked: GradedSubset | None = None):
    out = []
    names = []
    for n in range(ds.dim_count):
        row = []
        for j in range(ds.counts[n]):
            name = str(ds.label(n, j)) if ds.labels is not None else f"c{n}_{j}"
            name = name.replace(" ", "")
            row.append(name)
        names.append(row)
    for n in range(ds.dim_count):
        for j in range(ds.counts[n]):
            face_ids = " ".join(names[n - 1][t] for t in ds.faces[n][j]) if n else ""
            out.append(f"cell {n} {names[n][j]} : {face_ids}".rstrip())
    if marked is not None:
        for dim, idx in marked.cells():
            out.append(f"mark {dim} {names[dim][idx]}")
    atomic_write(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def read_config(path) -> dict[str, str]:
    """Flat `key = value` lines; later keys override earlier ones."""
    cfg = {}
    for lineno, line in _lines(path):
        if "=" not in line:
            raise FormatError(path, lineno, f"expected `key = value`: {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    if x == math.inf:
        return "inf"
    return f"{x:.12g}"


def write_betti_csv(path, tables: dict[str, Sequence[int]]):
    """Rows (module, degree, value) for the absolute/relative/ambient tables."""
    out = ["module,degree,value"]
    for module in ("embedded", "relative", "ambient"):
        if module not in tables:
            continue
        for degree, value in enumerate(tables[module]):
            out.append(f"{module},{degree},{value}")
    atomic_write(path, "\n".join(out) + "\n")


def write_gap_csv(path, series: Sequence[int]):
    out = ["degree,value"]
    for degree, value in enumerate(series):
        out.append(f"{degree},{value}")
    atomic_write(path, "\n".join(out) + "\n")


def write_barcodes_csv(path, barcodes: Iterable[Barcode]):
    """One record per bar: degree, birth, death ("inf" allowed),
    multiplicity, module tag."""
    out = ["degree,birth,death,multiplicity,module"]
    for bc in barcodes:
        for b in bc.bars:
            out.append(f"{b.degree},{format_float(b.birth)},{format_float(b.death)},"
                       f"{b.multiplicity},{bc.module}")
    atomic_write(path, "\n".join(out) + "\n")


def _csv_rows(path, header: str, what: str, parse) -> list:
    """parse(line) for each non-blank line after the header line, which must
    read `header`; a ValueError from parse is a FormatError at its line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise FormatError(path, 1, f"missing {what} header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            try:
                out.append(parse(line))
            except ValueError as exc:
                raise FormatError(path, lineno, str(exc)) from exc
    return out


def _fields(line: str, count: int) -> list[str]:
    parts = line.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} fields, got {len(parts)}")
    return parts


def read_barcodes_csv(path) -> list[Barcode]:
    groups: dict[str, list[Bar]] = {}

    def add(line):
        degree, birth, death, mult, module = _fields(line, 5)
        groups.setdefault(module, []).append(Bar(
            int(degree), float(birth), math.inf if death == "inf" else float(death),
            int(mult)))

    _csv_rows(path, "degree,birth,death,multiplicity,module", "barcode", add)
    return [Barcode(module, tuple(bars)) for module, bars in sorted(groups.items())]


def read_betti_csv(path) -> dict[str, list[int]]:
    tables: dict[str, list[int]] = {}

    def add(line):
        module, degree, value = _fields(line, 3)
        row = tables.setdefault(module, [])
        if int(degree) != len(row):
            raise ValueError("degrees out of order")
        row.append(int(value))

    _csv_rows(path, "module,degree,value", "betti", add)
    return tables


def read_gap_csv(path) -> list[int]:
    return _csv_rows(path, "degree,value", "gap", lambda line: int(_fields(line, 2)[1]))


def write_correlation_csv(path, matrices: Iterable):
    """Sparse triples: arrow, source interval id, target interval id, 1."""
    out = ["arrow,row,col,value"]
    for cm in matrices:
        for (i, j) in sorted(cm.entries):
            out.append(f"{cm.arrow},{cm.rows[i].ident},{cm.cols[j].ident},1")
    atomic_write(path, "\n".join(out) + "\n")


def read_correlation_csv(path) -> list[tuple[str, str, str]]:
    """(arrow, source interval id, target interval id) per row.  Interval ids
    end in `[birth,death)` and so hold a comma; the two ids of a row are split
    at the first `),`."""

    def triple(line):
        arrow, _, ids = line.partition(",")
        row, sep, col = ids.removesuffix(",1").partition("),")
        if not (arrow and row and sep and col.endswith(")") and ids.endswith(",1")):
            raise ValueError(f"bad correlation triple: {line!r}")
        return arrow, row + ")", col

    return _csv_rows(path, "arrow,row,col,value", "correlation", triple)


def write_triangle_csv(path, report):
    out = ["degree,step,t,dim_embedded,dim_ambient,dim_relative,"
           "rank_j,rank_p,rank_boundary,exact"]
    for r in report.rows:
        exact = int(r.exact_at_ambient and r.exact_at_relative and r.exact_at_embedded)
        out.append(f"{r.degree},{r.step},{format_float(r.t)},{r.dim_embedded},"
                   f"{r.dim_ambient},{r.dim_relative},{r.rank_j},{r.rank_p},"
                   f"{r.rank_boundary},{exact}")
    atomic_write(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Atomic output and manifests
# ---------------------------------------------------------------------------

def atomic_write(path, text: str):
    """Write via a temp file in the target directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path, files: Sequence[str]):
    """sha256 of each output file, in name order; the hashed region of a run."""
    rows = []
    for name in sorted(files):
        digest = hashlib.sha256()
        with open(name, "rb") as fh:
            digest.update(fh.read())
        rows.append(f"{digest.hexdigest()}  {os.path.basename(name)}")
    atomic_write(path, "\n".join(rows) + "\n")
