"""File formats, CLI subcommands, exit codes, determinism, rendering."""

import argparse
import contextlib
import io
import math
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import superph.delta
from superph import (DeltaSet, GradedSubset, MultiGraph, from_hypergraph, full_subset,
                     standard_simplex_delta)
from superph import cli, formats
from superph.cli import JobConfig, build_super_hypergraph, main
from superph.formats import FormatError
from superph.graphs import Subgraph
from superph.persistence import Bar, Barcode
from superph.render import render_diagram

from conftest import (collapsed_tower, count_identity_walks, pillow_delta,
                      random_super_hypergraph)
from oracles import rowwise_delta_check, scan_neighbors, subset_closure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# format round trips
# ---------------------------------------------------------------------------

def test_graph_round_trip(tmp_path):
    g = MultiGraph(["a", "b", "c"], {"ab": ("a", "b"), "bb": ("b", "b")},
                   directed=True)
    p = tmp_path / "g.graph"
    formats.write_graph(p, g)
    back = formats.read_graph(p)
    assert back.vertices == g.vertices
    assert back.edge_ends == g.edge_ends
    assert back.directed == g.directed


def test_graph_round_trip_string_ids(tmp_path):
    names = ["a", "b", "c"]
    g = MultiGraph(names, {f"e_{u}_{v}": (u, v) for u in names for v in names
                           if u < v})
    p = tmp_path / "k3.graph"
    formats.write_graph(p, g)
    back = formats.read_graph(p)
    assert back.vertices == g.vertices
    assert back.edge_ends == g.edge_ends
    assert back.directed == g.directed


def test_write_graph_refuses_ids_its_reader_rejects(tmp_path):
    p = tmp_path / "g.graph"
    with pytest.raises(ValueError, match=r"edge id \"\('k', 'a', 'b'\)\""):
        formats.write_graph(p, MultiGraph.complete(["a", "b", "c"]))
    for bad in ("", "x y", "x#y"):
        with pytest.raises(ValueError, match="vertex id"):
            formats.write_graph(p, MultiGraph([bad, "a"], {}))
    # two ids with one text would read back as one duplicated id
    with pytest.raises(ValueError, match="vertex id '1' twice"):
        formats.write_graph(p, MultiGraph([1, "1"], {}))
    assert not p.exists()


def test_write_family_refuses_ids_its_reader_rejects(tmp_path):
    p = tmp_path / "fam.txt"
    with pytest.raises(ValueError, match=r"edge id \"\('k', 'a', 'b'\)\""):
        formats.write_family(p, [MultiGraph.complete(["a", "b"]).full()])
    g = MultiGraph(["a", "x#1"], {})
    with pytest.raises(ValueError, match="vertex id 'x#1'"):
        formats.write_family(p, [g.full()])
    with pytest.raises(ValueError, match="vertex id 'x#1'"):
        formats.write_family(p, [g.subgraph({"a"}, ())], [frozenset({"x#1"})])
    assert not p.exists()


def test_write_delta_refuses_names_its_reader_rejects(tmp_path):
    p = tmp_path / "x.delta"
    x = standard_simplex_delta(1)
    with pytest.raises(ValueError, match="dimension-0 cell name 'x#1'"):
        formats.write_delta(p, x.with_labels([["x#1", "y"], ["e"]]))
    with pytest.raises(ValueError, match="dimension-0 cell name '1' twice"):
        formats.write_delta(p, x.with_labels([[1, "1"], ["e"]]))
    assert not p.exists()
    # a name may repeat across dimensions
    formats.write_delta(p, x.with_labels([["a", "b"], ["a"]]))
    assert p.read_text() == "cell 0 a :\ncell 0 b :\ncell 1 a : b a\n"
    back, _ = formats.read_delta(p)
    assert back == x


def test_write_delta_of_starting_vertex_cells_ignores_the_hash_seed(tmp_path):
    # a starting-vertex cell is named by its label's text, which lists the
    # starting vertices in `cell_sort_key` order: two processes with
    # different hash seeds write byte-identical files for one seeded family
    # with str ids and several starting vertices per member
    code = (
        "import random, sys\n"
        "from superph import MarkedSubgraph, MultiGraph, starting_vertex_faces\n"
        "from superph.formats import write_delta\n"
        "rng = random.Random(3)\n"
        "names = [f'v{i}' for i in range(6)]\n"
        "pairs = [(u, v) for u in names for v in names if u != v and rng.random() < 0.4]\n"
        "g = MultiGraph(names, {f'a{k}': p for k, p in enumerate(pairs)}, directed=True)\n"
        "members = []\n"
        "for k in range(4):\n"
        "    sv = set(rng.sample(names, 2))\n"
        "    arcs = [e for e, (u, v) in g.edge_ends.items() if u in sv and v not in sv][:2]\n"
        "    vs = sv | {g.edge_ends[e][1] for e in arcs}\n"
        "    members.append(MarkedSubgraph(g.subgraph(vs, arcs), frozenset(sv)))\n"
        "sh = starting_vertex_faces(members, g)\n"
        "write_delta(sys.argv[1], sh.x, sh.h)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    texts = []
    for seed in ("1", "2"):
        path = tmp_path / f"sv{seed}.delta"
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                              text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    assert "sv=('v" in texts[0]


def test_graph_parse_errors(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("directed 0\nv a\nzz\n")
    with pytest.raises(FormatError) as err:
        formats.read_graph(p)
    assert ":3:" in str(err.value)
    p.write_text("v a\n")
    with pytest.raises(FormatError):
        formats.read_graph(p)


def test_family_round_trip(tmp_path):
    g = MultiGraph(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")})
    p = tmp_path / "fam.txt"
    members = [g.subgraph({"a", "b"}, ["ab"]), g.subgraph({"c"}, ())]
    formats.write_family(p, members)
    fam, marked = formats.read_family(p, g)
    assert marked is None
    assert [m.key for m in fam.members] == [m.key for m in members]


def test_family_with_starting_vertices(tmp_path):
    g = MultiGraph(["a", "b"], {"ab": ("a", "b")}, directed=True)
    p = tmp_path / "fam.txt"
    p.write_text("member\nv a b\ne ab\nsv a\n")
    fam, marked = formats.read_family(p, g)
    assert marked is not None and marked[0].sv == frozenset("a")


def test_family_bad_member_line_number(tmp_path):
    g = MultiGraph(["a"], {})
    p = tmp_path / "fam.txt"
    p.write_text("member\nv a\nmember\nv zz\n")
    with pytest.raises(FormatError) as err:
        formats.read_family(p, g)
    assert ":3:" in str(err.value)


def test_clustering_round_trip(tmp_path):
    g = MultiGraph(["a", "b", "c"], {})
    p = tmp_path / "c.txt"
    p.write_text("a 0\nb 0\nc 2\n")
    clus = formats.read_clustering(p, g)
    assert [sorted(b) for b in clus.blocks] == [["a", "b"], ["c"]]
    p.write_text("a 0\n")
    with pytest.raises(FormatError):
        formats.read_clustering(p, g)


def test_clustering_large_block_index_parses_at_once(tmp_path):
    # an index far above the block count must not be walked index by
    # index; the alarm turns a walk into a failure instead of an OOM kill
    g = MultiGraph(["a", "b", "c"], {})
    p = tmp_path / "c.txt"
    p.write_text("a 0\nb 1000000000000\nc 0\n")
    q = tmp_path / "renumbered.txt"
    q.write_text("a 0\nb 1\nc 0\n")

    def walked(signum, frame):
        raise TimeoutError("read_clustering walked the block indices")

    old = signal.signal(signal.SIGALRM, walked)
    signal.alarm(5)
    try:
        clus = formats.read_clustering(p, g)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert clus.blocks == formats.read_clustering(q, g).blocks


def test_clustering_negative_block_index_names_its_line(tmp_path):
    g = MultiGraph(["a", "b", "c"], {})
    p = tmp_path / "c.txt"
    p.write_text("a 0\nb -1\nc 1\n")
    with pytest.raises(FormatError, match=r":2: .*-1"):
        formats.read_clustering(p, g)


def reference_blocks(lines, vertices):
    """The blocks of a clustering file's (vertex, index) lines grouped by
    index, in index order, or None when the file must be refused."""
    assign = {}
    for v, token in lines:
        try:
            index = int(token)
        except ValueError:
            return None
        if v in assign or index < 0:
            return None
        assign[v] = index
    if set(assign) != vertices:
        return None
    return tuple(frozenset(v for v in assign if assign[v] == i)
                 for i in sorted(set(assign.values())))


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_clustering_reader_fuzz(tmp_path_factory, data):
    # one line per vertex, then one fault or none: a missing, unknown or
    # repeated vertex, or a negative or non-integer index; indices run up
    # to 10**15.  The reader gives the reference grouping or a
    # FormatError, within the default deadline
    names = ["a", "b", "c", "d"]
    vertices = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    index = st.one_of(st.integers(0, 3), st.integers(0, 10**15)).map(str)
    bad = st.one_of(st.integers(-5, -1).map(str),
                    st.sampled_from(["x", "1.5", "0x1", "--1", "+2", "007", "1e3", "1_0"]))
    lines = [(v, data.draw(index)) for v in vertices]
    fault = data.draw(st.sampled_from(["none", "missing", "unknown", "twice", "token"]))
    k = data.draw(st.integers(0, len(lines) - 1))
    if fault == "missing":
        del lines[k]
    elif fault == "unknown":
        lines.append(("zz", data.draw(index)))
    elif fault == "twice":
        lines.append((lines[k][0], data.draw(index)))
    elif fault == "token":
        lines[k] = (lines[k][0], data.draw(bad))
    lines = data.draw(st.permutations(lines))
    p = tmp_path_factory.getbasetemp() / "fuzz_clustering.txt"
    p.write_text("".join(f"{v} {t}\n" for v, t in lines))
    expected = reference_blocks(lines, set(vertices))
    g = MultiGraph(vertices, {})
    if expected is None:
        with pytest.raises(FormatError):
            formats.read_clustering(p, g)
    else:
        assert formats.read_clustering(p, g).blocks == expected


DELTA_FAULTS = ("none", "swap", "unknown_face", "duplicate_id", "face_count", "unknown_mark")


def _delta_cell_id(n: int, j: int) -> str:
    return f"{'abcdef'[n]}{j}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_delta_reader_fuzz(tmp_path_factory, data):
    # a Δ-set file of drawn cells (a hypergraph closure, or drawn face
    # rows, mostly violating the identity), faces and marks, then one fault
    # or none: two faces of a cell swapped, an unknown face id, a duplicate
    # cell id, a wrong face count or an unknown mark.  `validate` exits 0
    # or 2 as the row-by-row check of the written rows says, printing its
    # violations in order, 1 on a malformed file, and never fails otherwise
    if data.draw(st.booleans()):
        edges = data.draw(st.lists(st.frozensets(st.integers(0, 4), min_size=1, max_size=4),
                                   min_size=1, max_size=4))
        x = from_hypergraph(edges).x
        counts, faces = list(x.counts), [list(rows) for rows in x.faces]
    else:
        counts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        faces = [[]] + [[tuple(data.draw(st.integers(0, counts[n - 1] - 1))
                               for _ in range(n + 1)) for _ in range(counts[n])]
                        for n in range(1, len(counts))]
    cells = [(n, _delta_cell_id(n, j),
              [_delta_cell_id(n - 1, t) for t in faces[n][j]] if n else [])
             for n in range(len(counts)) for j in range(counts[n])]
    marks = [(n, _delta_cell_id(n, j)) for n in range(len(counts)) for j in range(counts[n])
             if data.draw(st.booleans())]
    fault = data.draw(st.sampled_from(DELTA_FAULTS))
    if fault in ("swap", "unknown_face") and len(counts) == 1:
        fault = "none"  # 0-cells have no faces
    k = data.draw(st.integers(counts[0] if fault in ("swap", "unknown_face") else 0,
                              len(cells) - 1))
    n, cell_id, face_ids = cells[k]
    if fault == "swap":
        a, b = data.draw(st.permutations(range(n + 1)))[:2]
        face_ids[a], face_ids[b] = face_ids[b], face_ids[a]
        faces[n][int(cell_id[1:])] = tuple(int(f[1:]) for f in face_ids)
    elif fault == "unknown_face":
        face_ids[data.draw(st.integers(0, n))] = "zz"
    elif fault == "duplicate_id":
        cells.insert(k + 1, (n, cell_id, face_ids))
    elif fault == "face_count":
        if n and data.draw(st.booleans()):
            face_ids.pop()
        else:
            face_ids.append(_delta_cell_id(0, 0))
    elif fault == "unknown_mark":
        marks.append(data.draw(st.sampled_from([(n, "zz"), (len(counts), "a0")])))
    path = tmp_path_factory.getbasetemp() / "fuzz.delta"
    path.write_text("".join(f"cell {n} {c} : {' '.join(fs)}\n" for n, c, fs in cells)
                    + "".join(f"mark {n} {c}\n" for n, c in marks))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--delta", str(path)])
    if fault not in ("none", "swap"):
        assert code == 1 and err.getvalue().startswith("error: ")
        return
    report = rowwise_delta_check(DeltaSet(counts, faces))
    assert code == (0 if report.ok else 2), err.getvalue()
    if report.ok:
        assert out.getvalue().startswith("validate_delta: ok\n")
    else:
        assert out.getvalue() == "".join(f"violation: cell {cell} (i={i}, j={j})\n"
                                         for cell, i, j in report.violations)


GRAPH_FAULTS = ("none", "no_header", "unknown_endpoint", "duplicate_edge", "bad_line",
                "unknown_member_edge", "edge_without_endpoints", "sv_on_some",
                "sv_outside", "sv_unreachable", "empty_sv")


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_graph_and_family_reader_fuzz(tmp_path_factory, data):
    # a graph file of drawn edges (loops, parallel edges, isolated
    # vertices), a family file of drawn members (with `sv` lines or not),
    # then one fault or none: `validate` under each graph-data
    # construction exits 0, 1 or 2, never 3 (a computation error)
    directed = data.draw(st.booleans())
    vs = [f"v{i}" for i in range(data.draw(st.integers(1, 5)))]
    ends = data.draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=7))
    edges = {f"e{k}": uv for k, uv in enumerate(ends)}
    graph = [f"directed {int(directed)}"] + [f"v {v}" for v in vs] + \
        [f"e {e} {u} {v}" for e, (u, v) in edges.items()]
    with_sv = data.draw(st.booleans())
    members = []
    for _ in range(data.draw(st.integers(0, 3))):
        es = data.draw(st.lists(st.sampled_from(sorted(edges)), unique=True)) if edges else []
        mvs = sorted({w for e in es for w in edges[e]}
                     | data.draw(st.sets(st.sampled_from(vs), min_size=1)))
        sv = data.draw(st.sampled_from([mvs, mvs[:1]]))  # the first may not reach all
        members.append([f"v {' '.join(mvs)}"] + ([f"e {' '.join(es)}"] if es else [])
                       + ([f"sv {' '.join(sv)}"] if with_sv else []))
    fault = data.draw(st.sampled_from(GRAPH_FAULTS))
    if fault == "no_header":
        graph.pop(0)
    elif fault == "unknown_endpoint":
        graph.append("e stray v0 zz")
    elif fault == "duplicate_edge" and edges:
        graph.append(graph[-1])
    elif fault == "bad_line":
        graph.append("x y")
    elif members:
        member = data.draw(st.sampled_from(members))
        if fault == "unknown_member_edge":
            member.append("e zz")
        elif fault == "edge_without_endpoints" and edges:
            member[0] = "v"
            member.append(f"e {sorted(edges)[0]}")
        elif fault == "sv_on_some":
            members[0] = [line for line in members[0] if not line.startswith("sv")]
            member.append("sv v0")
        elif fault == "sv_outside":
            member.append("sv zz")
        elif fault == "sv_unreachable" and len(vs) > 1:
            members.append([f"v {vs[0]} {vs[1]}", f"sv {vs[0]}"])
        elif fault == "empty_sv":
            member.append("sv")
    base = tmp_path_factory.getbasetemp()
    (base / "fuzz_graph.txt").write_text("".join(line + "\n" for line in graph))
    (base / "fuzz_family.txt").write_text(
        "".join("member\n" + "".join(line + "\n" for line in m) for m in members))
    for construction in ("path", "neighborhood", "edge_del", "starting_vertex"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--graph", str(base / "fuzz_graph.txt"),
                         "--family", str(base / "fuzz_family.txt"),
                         "--construction", construction, "--max-dim", "2"])
        assert code in (0, 1, 2), (construction, err.getvalue())
        assert (code == 0) == out.getvalue().startswith("validate_delta: ok\n")


def test_writers_take_mixed_id_types(tmp_path):
    # ids are written in the host's rank order: numbers before strings
    g = MultiGraph([1, "a", 2], {0: (1, "a"), "x": ("a", "a"), "y": (1, 1)})
    p = tmp_path / "g.graph"
    formats.write_graph(p, g)
    assert p.read_text() == "directed 0\nv 1\nv 2\nv a\ne 0 1 a\ne x a a\ne y 1 1\n"
    q = tmp_path / "fam.txt"
    formats.write_family(q, [g.full(), g.subgraph({1, "a"}, [0])],
                         [frozenset({1, "a"}), frozenset({1})])
    assert q.read_text() == ("member\nv 1 2 a\ne 0 x y\nsv 1 a\n"
                             "member\nv 1 a\ne 0\nsv 1\n")


def test_writers_keep_the_bytes_of_string_ids(tmp_path):
    g = MultiGraph(["b", "a10", "a9", "c"], {"e2": ("b", "a9"), "e10": ("c", "c"),
                                             "E": ("a10", "b")})
    p = tmp_path / "g.graph"
    formats.write_graph(p, g)
    assert p.read_text() == ("directed 0\nv a10\nv a9\nv b\nv c\n"
                             "e E a10 b\ne e10 c c\ne e2 b a9\n")
    q = tmp_path / "fam.txt"
    formats.write_family(q, [g.full(), g.subgraph({"b", "a9"}, ["e2"])],
                         [frozenset({"c", "a9"}), frozenset({"b"})])
    assert q.read_text() == ("member\nv a10 a9 b c\ne E e10 e2\nsv a9 c\n"
                             "member\nv a9 b\ne e2\nsv b\n")


def test_graph_rejects_repeated_vertex_line(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("directed 0\nv a\nv b\nv a\ne ab a b\n")
    with pytest.raises(FormatError, match=r":4: duplicate vertex id 'a'"):
        formats.read_graph(p)


def test_clustering_rejects_vertex_listed_twice(tmp_path):
    g = MultiGraph(["a", "b"], {})
    p = tmp_path / "c.txt"
    p.write_text("a 0\nb 0\na 1\n")
    with pytest.raises(FormatError, match=r":3: vertex 'a' assigned twice"):
        formats.read_clustering(p, g)


@pytest.mark.parametrize("text, lineno, message", [
    ("a 0 0\nb 1 0\nc nan 1\n", 3, "non-finite coordinate"),
    ("a, 0, 0\nb, -inf, 0\nc, 1, 1\n", 2, "non-finite coordinate"),
    ("a 0 0\nb 1 0\na 0 1\n", 3, "duplicate vertex id 'a'"),
])
def test_cli_score_rejects_bad_point_cloud(tmp_path, capsys, text, lineno, message):
    # a NaN coordinate would drop its cells' critical values and a repeated
    # id would keep only its last row: both stop the job at the line
    cloud = tmp_path / "c.xy"
    cloud.write_text(text)
    with pytest.raises(FormatError, match=f":{lineno}: {message}"):
        formats.read_point_cloud(cloud)
    code = main(["score", "--cloud", str(cloud), "--construction", "clique",
                 "--scheme", "vr"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f":{lineno}: {message}" in captured.err


def test_cli_import_leaves_numpy_unloaded():
    # the package imports only the standard library (test_hygiene checks
    # the sources); numpy, if installed, would add its load time to every
    # command
    code = "import sys, superph.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_point_cloud_formats(tmp_path):
    p = tmp_path / "pc.csv"
    p.write_text("p0, 0, 0\np1, 1.5, 2\n")
    pc = formats.read_point_cloud(p)
    assert pc.coords("p1") == (1.5, 2.0)
    p.write_text("p0 0 0\np1 1 2\n")
    assert formats.read_point_cloud(p).dim == 2
    p.write_text("p0\n")
    with pytest.raises(FormatError):
        formats.read_point_cloud(p)


def test_delta_round_trip(tmp_path):
    x = pillow_delta().with_labels([["v"], ["e1", "e2"], ["f1", "f2"]])
    p = tmp_path / "x.delta"
    marked = GradedSubset({0: {0}, 2: {0, 1}})
    formats.write_delta(p, x, marked)
    back, marks = formats.read_delta(p)
    assert back.counts == x.counts
    assert back.faces == x.faces
    assert marks == marked


def test_delta_file_errors(tmp_path):
    p = tmp_path / "x.delta"
    p.write_text("cell 1 e : v v\n")
    with pytest.raises(FormatError):
        formats.read_delta(p)
    p.write_text("cell 0 v :\nmark 3 zzz\n")
    with pytest.raises(FormatError) as err:
        formats.read_delta(p)
    assert "unknown cell" in str(err.value)


def _checked_delta(text: str) -> DeltaSet:
    """The Δ-set of a well-formed file through the checked constructor: cells
    grouped by dimension in file order, faces by name."""
    cells: dict[int, list] = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "cell":
            cells.setdefault(int(parts[1]), []).append((parts[2], parts[4:]))
    top = max(cells)
    index = [{name: j for j, (name, _) in enumerate(cells[n])} for n in range(top + 1)]
    faces = [()] + [[[index[n - 1][f] for f in fs] for _, fs in cells[n]]
                    for n in range(1, top + 1)]
    return DeltaSet([len(cells[n]) for n in range(top + 1)], faces,
                    [[name for name, _ in cells[n]] for n in range(top + 1)])


def test_read_delta_matches_checked_constructor(tmp_path):
    # seeded Δ-set files (closures of random hypergraphs, the pillow and
    # collapsed towers, cell lines of different dimensions interleaved, marks
    # anywhere): the rows `read_delta` keeps as built are the checked
    # constructor's, int tuples of length n + 1
    rng = random.Random(2029)
    spaces = [random_super_hypergraph(rng, max_vertices=6, max_edges=12).x for _ in range(30)]
    spaces += [pillow_delta(), collapsed_tower(3), standard_simplex_delta(0)]
    p = tmp_path / "x.delta"
    for x in spaces:
        formats.write_delta(p, x)
        lines = p.read_text().splitlines()
        by_dim = [[line for line in lines if line.split()[1] == str(n)]
                  for n in range(x.dim_count)]
        shuffled = []
        while any(by_dim):  # interleave dimensions, keeping each one's order
            shuffled.append(rng.choice([d for d in by_dim if d]).pop(0))
        marks = [f"mark {n} {line.split()[2]}" for line in shuffled
                 for n in [int(line.split()[1])] if rng.random() < 0.4]
        for mark in marks:
            shuffled.insert(rng.randrange(len(shuffled) + 1), mark)
        text = "\n".join(shuffled) + "\n"
        p.write_text(text)
        got, marked = formats.read_delta(p)
        want = _checked_delta(text)
        assert (got.counts, got.faces, got.labels) == (want.counts, want.faces, want.labels)
        assert got == want and hash(got) == hash(want)
        assert all(type(row) is tuple and len(row) == n + 1
                   and all(type(t) is int for t in row)
                   for n, rows in enumerate(got.faces) for row in rows)
        assert got.validate() == want.validate()
        assert (marked is None) == (not marks)


@pytest.mark.parametrize("text, lineno, message", [
    ("cell 0 v :\ncell 0 w :\ncell 1 e : v w v\n", 3,
     "cell 'e' of dimension 1 needs 2 faces, got 3"),
    ("cell 0 v :\ncell 1 e : v v\ncell 2 f : e e x\n", 3,
     "cell 'f': unknown face 'x' in dimension 1"),
    ("cell 0 v :\ncell 1 e : v v\ncell 0 v :\n", 3, "duplicate cell id 'v' in dimension 0"),
    ("cell 0 v :\nmark 0 v\nmark 1 v\n", 3, "mark names unknown cell 'v' in dimension 1"),
])
def test_read_delta_errors_name_their_line(tmp_path, text, lineno, message):
    # each refused file names the line at fault and what is wrong with it
    p = tmp_path / "x.delta"
    p.write_text(text)
    with pytest.raises(FormatError) as err:
        formats.read_delta(p)
    assert str(err.value).endswith(f"x.delta:{lineno}: {message}"), str(err.value)


def test_barcode_round_trip(tmp_path):
    bars = Barcode("embedded", (Bar(0, 0.0, 0.5, 3), Bar(1, 0.5, math.inf, 1)))
    p = tmp_path / "bars.csv"
    formats.write_barcodes_csv(p, [bars])
    back = formats.read_barcodes_csv(p)
    assert back == [bars]


def test_barcode_malformed_line(tmp_path):
    p = tmp_path / "bars.csv"
    p.write_text("degree,birth,death,multiplicity,module\n0,0,zzz,1,ambient\n")
    with pytest.raises(FormatError) as err:
        formats.read_barcodes_csv(p)
    assert ":2:" in str(err.value)


def test_betti_gap_correlation_round_trips(tmp_path):
    betti = {"embedded": [1, 0, 2], "relative": [0, 1], "ambient": [1]}
    p = tmp_path / "betti.csv"
    formats.write_betti_csv(p, betti)
    assert formats.read_betti_csv(p) == {k: list(v) for k, v in betti.items()}
    p2 = tmp_path / "gap.csv"
    formats.write_gap_csv(p2, [0, 2, 1])
    assert formats.read_gap_csv(p2) == [0, 2, 1]


@pytest.mark.parametrize("reader, text, message", [
    ("read_betti_csv", "module,degree,value\nembedded,0,1\nembedded,1\n",
     "expected 3 fields, got 2"),
    ("read_betti_csv", "module,degree,value\nembedded,0,1\nembedded,1,x\n",
     "invalid literal for int()"),
    ("read_betti_csv", "module,degree,value\nembedded,0,1\nembedded,2,1\n",
     "degrees out of order"),
    ("read_gap_csv", "degree,value\n0,0\n1\n", "expected 2 fields, got 1"),
    ("read_gap_csv", "degree,value\n0,0\n1,one\n", "invalid literal for int()"),
])
def test_betti_gap_malformed_row(tmp_path, reader, text, message):
    # a short or non-integer row names its file and line
    p = tmp_path / "table.csv"
    p.write_text(text)
    with pytest.raises(FormatError) as err:
        getattr(formats, reader)(p)
    assert f"table.csv:3: {message}" in str(err.value)


def test_correlation_csv_round_trip(tmp_path):
    # interval ids end in "[birth,death)" and so hold a comma
    from superph import (QQ, SuperHypergraph, build_filtration, clique_delta,
                         constant_scheme, correlation_matrix)
    g = MultiGraph("abc", {"ab": ("a", "b"), "bc": ("b", "c")})
    ds = clique_delta(g, max_dim=1)
    filt = build_filtration(SuperHypergraph(ds, GradedSubset({0: {0, 1, 2}})),
                            constant_scheme(0.0))
    matrices = [correlation_matrix(filt, QQ, arrow, degree)
                for arrow, degree in (("J", 0), ("P", 0), ("boundary", 1))]
    want = [(cm.arrow, cm.rows[i].ident, cm.cols[j].ident)
            for cm in matrices for (i, j) in sorted(cm.entries)]
    assert {arrow for arrow, _, _ in want} == {"J", "boundary"}
    assert all("," in row and "," in col for _, row, col in want)
    p = tmp_path / "correlation.csv"
    formats.write_correlation_csv(p, matrices)
    assert formats.read_correlation_csv(p) == want
    for bad in ("boundary,relative:d1:0:[0,inf),1",
                "boundary,relative:d1:0:[0,inf),embedded:d0:0:[0,inf),2",
                ",relative:d1:0:[0,inf),embedded:d0:0:[0,inf),1"):
        p.write_text("arrow,row,col,value\n" + bad + "\n")
        with pytest.raises(FormatError) as err:
            formats.read_correlation_csv(p)
        assert ":2:" in str(err.value)


def test_config_parsing(tmp_path):
    p = tmp_path / "job.cfg"
    p.write_text("# job\nscheme = vr\nmax_dim = 2\n")
    cfg = formats.read_config(p)
    assert cfg == {"scheme": "vr", "max_dim": "2"}
    p.write_text("oops\n")
    with pytest.raises(FormatError):
        formats.read_config(p)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_square_inputs(tmp_path):
    cloud = tmp_path / "square.xy"
    cloud.write_text("p0 0 0\np1 1 0\np2 1 1\np3 0 1\n")
    return cloud


def test_cli_homology_on_delta_file(tmp_path, capsys):
    delta = tmp_path / "pillow.delta"
    delta.write_text(
        "cell 0 v :\ncell 1 e1 : v v\ncell 1 e2 : v v\n"
        "cell 2 f1 : e1 e2 e1\ncell 2 f2 : e1 e2 e1\n"
        "mark 0 v\nmark 2 f1\nmark 2 f2\n")
    out = tmp_path / "out"
    code = main(["homology", "--delta", str(delta), "--field", "rational",
                 "--out", str(out)])
    assert code == 0
    text = (out / "betti.csv").read_text()
    assert "embedded,0,1" in text and "embedded,2,1" in text


@pytest.mark.parametrize("text, lineno, message", [
    ("cell 0 v :\ncell -1 ghost :\n", 2, "negative dimension -1"),
    # the face count is checked while reading, before the bad line after it
    ("cell 2000000 a : v\nnot a cell\n", 1,
     "dimension 2000000 needs 2000001 faces, got 1"),
    ("cell 0 v : w\n", 1, "cell 'v' of dimension 0 must have no faces"),
    ("cell 0 v :\ncell 0 w :\ncell 1 e : v\n", 3, "needs 2 faces, got 1"),
    ("cell 0 v :\ncell 0 w :\ncell 1 e : v w\ncell 1 e : w v\n", 4,
     "duplicate cell id 'e' in dimension 1"),
    ("cell 0 v :\ncell 1 e : v x\ncell 0 w :\n", 2, "unknown face 'x' in dimension 0"),
])
def test_cli_homology_rejects_malformed_delta(tmp_path, capsys, text, lineno, message):
    # each malformed cell line fails the job with exit code 1, naming its own
    # line, before any cell beyond it is built
    delta = tmp_path / "bad.delta"
    delta.write_text(text)
    code = main(["homology", "--delta", str(delta), "--field", "gf2",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"bad.delta:{lineno}: " in err and message in err, err


def test_cli_homology_builds_one_boundary_per_job(tmp_path, monkeypatch):
    # the three Betti tables and the gap series share one ∂, the Δ-set's
    # complex, which each of them fetches; the outputs are those of a build
    # per table
    import superph.homology
    real = superph.homology.boundary_matrices
    calls = []

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(superph.homology, "boundary_matrices", counted)
    delta = tmp_path / "pillow.delta"
    delta.write_text(
        "cell 0 v :\ncell 1 e1 : v v\ncell 1 e2 : v v\n"
        "cell 2 f1 : e1 e2 e1\ncell 2 f2 : e1 e2 e1\n"
        "mark 0 v\nmark 2 f1\nmark 2 f2\n")
    out = tmp_path / "out"
    assert main(["homology", "--delta", str(delta), "--field", "rational",
                 "--out", str(out)]) == 0
    assert len(calls) == 4 and all(cc is calls[0] for cc in calls)
    assert (out / "betti.csv").read_text() == (
        "module,degree,value\n"
        "embedded,0,1\nembedded,1,0\nembedded,2,1\n"
        "relative,0,0\nrelative,1,1\nrelative,2,0\n"
        "ambient,0,1\nambient,1,1\nambient,2,1\n")
    assert (out / "gap.csv").read_text() == "degree,value\n0,0\n1,1\n2,1\n"


def test_cli_neighborhood_matches_subset_enumeration(tmp_path):
    # seeded multigraphs with isolated vertices, loops, parallel edges and
    # directed edges, read from a graph file: the CLI builds the Δ-set of the
    # neighbourhoods' closure, which must equal the enumerated complex
    rng = random.Random(31)
    for case in range(25):
        n = rng.randint(1, 7)
        vertices = [f"v{i}" for i in range(n)]
        edges = {f"e{k}": (rng.choice(vertices), rng.choice(vertices))
                 for k in range(rng.randint(0, 2 * n))}
        if edges and rng.random() < 0.5:  # a parallel copy of some edge
            edges["p"] = edges[rng.choice(sorted(edges))]
        path = tmp_path / f"g{case}.graph"
        formats.write_graph(path, MultiGraph(vertices + ["iso"], edges,
                                             directed=case % 2 == 1))
        g = formats.read_graph(path)
        sh = build_super_hypergraph(JobConfig(graph=str(path), construction="neighborhood"))
        counts, faces, labels, _ = subset_closure(
            [nb for nb in (scan_neighbors(g, v) for v in g.vertices) if nb])
        assert (sh.x.counts, sh.x.faces) == (counts, faces)
        assert [[lab.key for lab in row] for row in sh.x.labels] == \
            [[Subgraph(g, lab).key for lab in row] for row in labels]
        assert sh.h == full_subset(sh.x)


def test_cli_homology_missing_edge_family(tmp_path):
    # vertex-only members under primary vertex deletion compute hypergraph
    # embedded homology: degree-0 row is 1, everything above zero
    graph = tmp_path / "g.graph"
    graph.write_text("directed 0\nv 0\nv 1\nv 2\n")
    fam = tmp_path / "fam.txt"
    fam.write_text("member\nv 0 1 2\nmember\nv 0 1\nmember\nv 0 2\n"
                   "member\nv 0\nmember\nv 1\nmember\nv 2\n")
    out = tmp_path / "hout"
    code = main(["homology", "--graph", str(graph), "--family", str(fam),
                 "--construction", "primary_vd", "--field", "gf2",
                 "--out", str(out)])
    assert code == 0
    tables = formats.read_betti_csv(out / "betti.csv")
    assert tables["embedded"] == [1, 0, 0]
    assert formats.read_gap_csv(out / "gap.csv") == [0, 1, 1]


def test_cli_homology_empty_family(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("directed 0\nv 0\n")
    fam = tmp_path / "fam.txt"
    fam.write_text("")
    out = tmp_path / "eout"
    code = main(["homology", "--graph", str(graph), "--family", str(fam),
                 "--construction", "primary_vd", "--field", "gf2",
                 "--out", str(out)])
    assert code == 0
    tables = formats.read_betti_csv(out / "betti.csv")
    assert all(all(v == 0 for v in rows) for rows in tables.values())


def test_cli_homology_clique_embedded_equals_ambient(tmp_path):
    cloud = write_square_inputs(tmp_path)
    out = tmp_path / "ceq"
    code = main(["homology", "--cloud", str(cloud), "--construction", "clique",
                 "--scheme", "vr", "--field", "gf2", "--max-dim", "3",
                 "--out", str(out), "--properties"])
    assert code == 0
    tables = formats.read_betti_csv(out / "betti.csv")
    assert tables["embedded"] == tables["ambient"]
    props = (out / "properties.txt").read_text()
    assert "regular 1" in props


def test_cli_edge_deletion_construction(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text("directed 0\nv 1\nv 2\nv 3\n"
                     "e a 1 2\ne b 2 3\ne c 1 3\n")
    fam = tmp_path / "fam.txt"
    fam.write_text("member\nv 1 2 3\ne a b c\n")
    out = tmp_path / "eout"
    code = main(["homology", "--graph", str(graph), "--family", str(fam),
                 "--construction", "edge_del", "--field", "rational",
                 "--out", str(out)])
    assert code == 0
    tables = formats.read_betti_csv(out / "betti.csv")
    # the lone member is the top simplex of the edge universe: not a cycle
    assert tables["embedded"] == [0, 0, 0]
    assert tables["ambient"] == [1, 0, 0]
    assert (out / "manifest.txt").exists()


def test_cli_edge_deletion_matches_subset_enumeration(tmp_path):
    # seeded multigraphs (loops, parallel edges, directed or not) and
    # families whose members may hold isolated vertices: the CLI builds the
    # closure of the members' edge sets under single-edge deletion, each
    # cell the subgraph of its edges and their endpoints, the members marked
    rng = random.Random(32)
    for case in range(25):
        n = rng.randint(1, 6)
        vertices = [f"v{i}" for i in range(n)]
        edges = {f"e{k}": (rng.choice(vertices), rng.choice(vertices))
                 for k in range(rng.randint(1, 2 * n))}
        g = MultiGraph(vertices, edges, directed=case % 2 == 1)
        members = []
        for _ in range(rng.randint(1, 4)):
            es = rng.sample(sorted(edges), rng.randint(1, min(4, len(edges))))
            extra = rng.sample(vertices, rng.randint(0, n))
            members.append(g.subgraph({w for e in es for w in edges[e]} | set(extra), es))
        formats.write_graph(tmp_path / "g.graph", g)
        formats.write_family(tmp_path / "fam.txt", members)
        sh = build_super_hypergraph(JobConfig(graph=str(tmp_path / "g.graph"),
                                              family=str(tmp_path / "fam.txt"),
                                              construction="edge_del"))
        counts, faces, labels, marked = subset_closure([m.edges for m in members])
        assert (sh.x.counts, sh.x.faces) == (counts, faces)
        assert [[lab.key for lab in row] for row in sh.x.labels] == \
            [[Subgraph(g, [w for e in lab for w in edges[e]], lab).key for lab in row]
             for row in labels]
        assert sh.h.cells() == marked


def test_cli_persist_square_and_determinism(tmp_path):
    cloud = write_square_inputs(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["persist", "--cloud", str(cloud), "--construction", "clique",
                     "--scheme", "vr", "--field", "gf2", "--max-dim", "3",
                     "--out", str(out)])
        assert code == 0
        outs.append((out / "manifest.txt").read_text())
    assert outs[0] == outs[1]
    bars = (tmp_path / "r1" / "barcodes.csv").read_text().splitlines()
    assert "1,0.5,0.707106781187,1,embedded" in bars
    assert "0,0,inf,1,ambient" in bars
    rows = formats.read_correlation_csv(tmp_path / "r1" / "correlation.csv")
    assert ("J", "embedded:d1:0:[0.5,0.707106781187)",
            "ambient:d1:0:[0.5,0.707106781187)") in rows


def test_cli_persist_seeded_random_determinism(tmp_path):
    cloud = write_square_inputs(tmp_path)
    hashes = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = main(["persist", "--cloud", str(cloud), "--construction", "clique",
                     "--scheme", "seeded_random", "--seed", "11", "--field", "gf2",
                     "--max-dim", "2", "--out", str(out), "--experimental"])
        assert code == 0
        hashes.append((out / "manifest.txt").read_text())
    assert hashes[0] == hashes[1]


def test_cli_nonregular_without_flag_is_validation_failure(tmp_path):
    cloud = write_square_inputs(tmp_path)
    code = main(["persist", "--cloud", str(cloud), "--construction", "clique",
                 "--scheme", "seeded_random", "--seed", "11", "--field", "gf2",
                 "--max-dim", "2", "--out", str(tmp_path / "nr")])
    assert code == 2


def test_cli_persist_on_unlabeled_delta_is_validation_failure(tmp_path):
    delta = tmp_path / "x.delta"
    delta.write_text("cell 0 v :\ncell 1 e : v v\n")
    code = main(["persist", "--delta", str(delta), "--scheme", "constant",
                 "--field", "gf2", "--out", str(tmp_path / "o")])
    assert code == 2  # Δ-set file cells carry no subgraph labels


def test_cli_usage_errors(tmp_path):
    assert main(["homology", "--construction", "clique"]) == 1  # no graph/cloud
    assert main(["homology", "--delta", str(tmp_path / "missing.delta")]) == 1
    cloud = write_square_inputs(tmp_path)
    assert main(["persist", "--cloud", str(cloud), "--construction", "zz",
                 "--scheme", "vr"]) == 1


@pytest.mark.parametrize("scheme", ["witness:bogus", "bogus"])
def test_cli_unknown_scheme_is_usage_error(tmp_path, capsys, scheme):
    # a scheme outside SCHEMES, a witness variant included, is a usage error
    # (exit 1) naming the schemes, checked before any input is read
    cloud = write_square_inputs(tmp_path)
    assert main(["score", "--cloud", str(cloud), "--construction", "clique",
                 "--scheme", scheme]) == 1
    err = capsys.readouterr().err
    assert f"error: scheme must be one of {cli.SCHEMES}, got {scheme!r}" in err, err


def test_cli_jobs_on_an_empty_delta_file(tmp_path):
    # a Δ-set file holding only a comment is the empty Δ-set: a homology job
    # and a constant-scheme persist job succeed and write their files with
    # headers only
    delta = tmp_path / "empty.delta"
    delta.write_text("# no cells\n")
    assert main(["homology", "--delta", str(delta), "--out", str(tmp_path / "h")]) == 0
    assert (tmp_path / "h" / "betti.csv").read_text() == "module,degree,value\n"
    assert (tmp_path / "h" / "gap.csv").read_text() == "degree,value\n"
    assert main(["persist", "--delta", str(delta), "--scheme", "constant",
                 "--out", str(tmp_path / "p")]) == 0
    headers = {"barcodes.csv": "degree,birth,death,multiplicity,module",
               "correlation.csv": "arrow,row,col,value",
               "triangle.csv": "degree,step,t,dim_embedded,dim_ambient,dim_relative,"
                               "rank_j,rank_p,rank_boundary,exact"}
    for name, header in headers.items():
        assert (tmp_path / "p" / name).read_text() == header + "\n", name


def test_cli_mark_without_cells_is_format_error(tmp_path, capsys):
    delta = tmp_path / "marks.delta"
    delta.write_text("mark 0 a\n")
    assert main(["homology", "--delta", str(delta), "--out", str(tmp_path / "o")]) == 1
    assert "marks.delta:1: mark without any cells" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, flags, message", [
    ("max_dim = two\n", [], "config key 'max_dim': bad int 'two'"),
    (None, ["--field", "gfp:4"], "bad field 'gfp:4': modulus must be a prime"),
    (None, ["--field", "gfp:x"], "bad field 'gfp:x'"),
    (None, ["--max-dim", "x"], "config key 'max_dim': bad int 'x'"),
    (None, ["--seed", "1.5"], "config key 'seed': bad int '1.5'"),
    (None, ["--constant-value", "y"], "config key 'constant_value': bad float 'y'"),
    ("bogus = 1\n", [], "unknown config key 'bogus'"),
    ("load = 1\n", [], "unknown config key 'load'"),
    ("coefficient_field = gf2\n", [], "unknown config key 'coefficient_field'"),
])
def test_cli_unparsable_config_value_is_usage_error(tmp_path, capsys, config, flags,
                                                    message):
    # a config value that does not parse, or a key outside JobConfig.KEYS
    # (a method's name included), is a usage/config error (exit 1), not a
    # validation failure (exit 2); a flag is parsed as its config key is,
    # with the same message, and nothing is written
    cloud = write_square_inputs(tmp_path)
    argv = ["homology", "--cloud", str(cloud), "--construction", "clique",
            "--out", str(tmp_path / "out")] + flags
    if config is not None:
        job = tmp_path / "job.cfg"
        job.write_text(config)
        argv += ["--config", str(job)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out").exists()


JOB_COMMANDS = ("homology", "persist", "validate", "score")


def job_subparser(command: str) -> argparse.ArgumentParser:
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command", JOB_COMMANDS)
def test_cli_job_flags_are_the_config_keys(command):
    # every job subcommand takes --config and one flag per config key, the
    # key with dashes, and no other
    flags = {(s, a.dest) for a in job_subparser(command)._actions
             for s in a.option_strings if a.dest != "help"}
    assert flags == {("--config", "config")} | {
        ("--" + key.replace("_", "-"), key) for key, _ in JobConfig.KEYS}


def sample_value(key, default) -> str:
    if isinstance(default, bool):
        return "1"
    if isinstance(default, (int, float)):
        return {int: "7", float: "0.25"}[type(default)]
    return f"{key}-value"


def loaded_config(monkeypatch, argv) -> JobConfig:
    # the JobConfig a job is run with, caught where every runner starts
    seen = []

    def caught(cfg):
        seen.append(cfg)
        raise cli.UsageError("caught")

    monkeypatch.setattr(cli, "build_super_hypergraph", caught)
    assert main(argv) == 1
    return seen.pop()


@pytest.mark.parametrize("command", JOB_COMMANDS)
def test_cli_flags_and_config_give_the_same_job(tmp_path, monkeypatch, command):
    # a value set by flag loads as the same value set in the config file,
    # for every key and every value type
    flags, lines = [], []
    for key, default in JobConfig.KEYS:
        flag = "--" + key.replace("_", "-")
        flags += [flag] if isinstance(default, bool) else [flag, sample_value(key, default)]
        lines.append(f"{key} = {sample_value(key, default)}\n")
    job = tmp_path / "job.cfg"
    job.write_text("".join(lines))
    by_flag = loaded_config(monkeypatch, [command] + flags)
    assert by_flag == loaded_config(monkeypatch, [command, "--config", str(job)])
    for key, default in JobConfig.KEYS:
        value = getattr(by_flag, key)
        want = str if default is None else type(default)
        assert value != default and type(value) is want, key


@pytest.mark.parametrize("value", ["-1", "-5"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, construction", [("score", "clique"),
                                                   ("persist", "clique"),
                                                   ("score", "path")])
def test_cli_negative_max_dim_is_usage_error(tmp_path, capsys, command, construction,
                                             source, value):
    # a negative dimension bound is a config error naming its key, not a
    # job run with max_dim 0
    cloud = write_square_inputs(tmp_path)
    graph = tmp_path / "arc.graph"
    graph.write_text("directed 1\nv a\nv b\ne ab a b\n")
    argv = [command, "--construction", construction, "--out", str(tmp_path / "out")]
    argv += (["--cloud", str(cloud), "--scheme", "vr"] if construction == "clique"
             else ["--graph", str(graph), "--scheme", "constant"])
    if source == "flag":
        argv += ["--max-dim", value]
    else:
        job = tmp_path / "job.cfg"
        job.write_text(f"max_dim = {value}\n")
        argv += ["--config", str(job)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key 'max_dim': must be >= 0, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"),
                                          ("Infinity", "inf")])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["score", "persist"])
def test_cli_nonfinite_constant_value_is_usage_error(tmp_path, capsys, command, source,
                                                     value, shown):
    # a constant score must be a real number: inf would give bars
    # [inf, inf) and nan a filtration with no order, so either is a config
    # error naming its key
    argv = [command, "--cloud", str(write_square_inputs(tmp_path)), "--construction",
            "clique", "--scheme", "constant", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += [f"--constant-value={value}"]  # argparse reads a bare -inf as a flag
    else:
        job = tmp_path / "job.cfg"
        job.write_text(f"constant_value = {value}\n")
        argv += ["--config", str(job)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key 'constant_value': must be finite, got {shown}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["score", "persist"])
@pytest.mark.parametrize("variant", ["strong", "vr_strong", "weak", "vr_weak"])
def test_cli_witnesses_of_another_dimension_are_a_format_error(tmp_path, capsys, command,
                                                               variant):
    # a 3-D witness file beside a 2-D cloud is an input error naming the
    # witness file and both dimensions, found before any output is written
    witnesses = tmp_path / "wit.xyz"
    witnesses.write_text("w0 0 0 0\nw1 1 1 1\n")
    argv = [command, "--cloud", str(write_square_inputs(tmp_path)), "--construction", "clique",
            "--scheme", f"witness:{variant}", "--witnesses", str(witnesses),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {witnesses}:1: witness points have 3 coordinates, "
                            "the cloud's points have 2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, loaded", [
    ("1", True), ("TRUE", True), ("Yes", True),
    ("0", False), ("False", False), ("no", False),
    ("ture", None), ("yes please", None), ("2", None), ("", None)])
def test_cli_config_booleans_are_strict(tmp_path, capsys, value, loaded):
    # a boolean key takes 1/0, true/false or yes/no in any case; any other
    # value is a config error naming the key, not a silent False
    cloud = write_square_inputs(tmp_path)
    job = tmp_path / "job.cfg"
    job.write_text(f"experimental = {value}\nproperties = {value}\n")
    out = tmp_path / "out"
    code = main(["homology", "--cloud", str(cloud), "--construction", "clique",
                 "--config", str(job), "--out", str(out)])
    if loaded is None:
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config key 'experimental': bad bool {value!r} "
            f"(1/0, true/false or yes/no)\n")
        assert not out.exists()
    else:
        assert code == 0
        assert (out / "properties.txt").exists() == loaded


@pytest.mark.parametrize("base, code, last", [("vr", 0, "0.5"), ("cech", 0, "0.57735026919"),
                                              ("foo", 1, None), ("VR", 1, None)])
def test_cli_pullback_base_is_vr_or_cech(tmp_path, capsys, base, code, last):
    # on an equilateral unit triangle the Čech radius 1/sqrt(3) exceeds the
    # half diameter 1/2; a base other than vr or cech is a config error, not
    # a Čech run under another name
    cloud = tmp_path / "triangle.xy"
    cloud.write_text(f"a 0 0\nb 1 0\nc 0.5 {math.sqrt(3) / 2!r}\n")
    assert main(["score", "--cloud", str(cloud), "--construction", "clique",
                 "--scheme", "pullback", "--max-dim", "2",
                 "--pullback-base", base]) == code
    captured = capsys.readouterr()
    if last is None:
        assert captured.out == ""
        assert captured.err == (f"error: config key 'pullback_base': must be vr or cech, "
                                f"got {base!r}\n")
    else:
        assert captured.out.split()[-1] == last


def test_cli_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # one process serves a persist, a bad flag, a render and the same
    # persist again with the exit codes, messages and output bytes of four
    # separate processes
    cloud = write_square_inputs(tmp_path)

    def calls(out):
        persist = ["persist", "--cloud", str(cloud), "--construction", "clique",
                   "--scheme", "vr", "--max-dim", "2", "--out"]
        return [persist + [str(out / "first")],
                ["persist", "--cloud", str(cloud), "--no-such-flag", "1"],
                ["render", "--input", str(out / "first" / "barcodes.csv"),
                 "--output", str(out / "diagram.svg")],
                persist + [str(out / "again")]]

    def outputs(out):
        files = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                lines = path.read_bytes().splitlines(keepends=True)
                if path.name == "report.txt":  # timings differ from run to run
                    lines = [x for x in lines if not x.startswith(b"time ")]
                files[str(path.relative_to(out))] = lines
        return files

    in_process = []
    for argv in calls(tmp_path / "in_process"):
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    fresh = []
    for argv in calls(tmp_path / "fresh"):
        proc = subprocess.run([sys.executable, "-m", "superph.cli"] + argv, env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=False)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [c[0] for c in in_process] == [0, 1, 0, 0]
    assert in_process == fresh
    assert outputs(tmp_path / "in_process") == outputs(tmp_path / "fresh")
    assert set(outputs(tmp_path / "fresh")) == {
        "diagram.svg", *(f"{run}/{name}" for run in ("first", "again")
                         for name in ("barcodes.csv", "correlation.csv", "triangle.csv",
                                      "manifest.txt", "report.txt"))}


def test_cli_validate_reports_violation(tmp_path, capsys):
    delta = tmp_path / "bad.delta"
    # swapped faces of the 2-cell of a triangle: identity fails
    delta.write_text(
        "cell 0 a :\ncell 0 b :\ncell 0 c :\n"
        "cell 1 ab : b a\ncell 1 ac : c a\ncell 1 bc : c b\n"
        "cell 2 f : ab ac bc\n")
    code = main(["validate", "--delta", str(delta)])
    assert code == 2
    out = capsys.readouterr().out
    assert "violation" in out
    # a homology job on it is a validation failure (exit 2) too, each time
    # the file is read, and writes nothing
    for _ in range(2):
        assert main(["homology", "--delta", str(delta), "--out", str(tmp_path / "o")]) == 2
        assert "validation failure: Δ-identity violated" in capsys.readouterr().err
        assert main(["validate", "--delta", str(delta)]) == 2
        assert "violation: cell (2, 0)" in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


def test_cli_jobs_walk_the_identity_once(tmp_path, monkeypatch):
    # the Δ-identity is walked once per job: a homology job validates after
    # reading and again in boundary_matrices, a persist job after the
    # closure and in the filtration's boundary_matrices, on one kept report
    walks = count_identity_walks(monkeypatch)
    delta = tmp_path / "x.delta"
    delta.write_text(
        "cell 0 v :\ncell 1 e1 : v v\ncell 1 e2 : v v\n"
        "cell 2 f1 : e1 e2 e1\ncell 2 f2 : e1 e2 e1\n"
        "mark 0 v\nmark 2 f1\n")
    assert main(["homology", "--delta", str(delta), "--properties",
                 "--out", str(tmp_path / "h")]) == 0
    assert len(walks) == 1
    cloud = write_square_inputs(tmp_path)
    assert main(["persist", "--cloud", str(cloud), "--construction", "clique",
                 "--scheme", "vr", "--max-dim", "2", "--field", "gf2",
                 "--out", str(tmp_path / "p")]) == 0
    assert len(walks) == 2


def test_cli_validate_completeness(tmp_path, capsys):
    delta = tmp_path / "x.delta"
    delta.write_text(
        "cell 0 v :\ncell 1 e1 : v v\ncell 1 e2 : v v\n"
        "cell 2 f1 : e1 e2 e1\ncell 2 f2 : e1 e2 e1\n"
        "mark 0 v\nmark 2 f1\nmark 2 f2\n")
    code = main(["validate", "--delta", str(delta)])
    assert code == 0
    out = capsys.readouterr().out
    assert "regular: yes" in out
    assert "complete: no" in out and "matching_pair" in out


@pytest.mark.parametrize("text, shown, written", [
    # not regular: the edge is no face of a marked cell
    ("cell 0 a :\ncell 0 b :\ncell 1 ab : b a\nmark 0 a\nmark 0 b\n",
     "validate_delta: ok\nregular: no\n", "validate_delta ok\nregular 0\n"),
    # regular and complete: every cell marked
    ("cell 0 a :\ncell 0 b :\ncell 1 ab : b a\n",
     "validate_delta: ok\nregular: yes\ncomplete: yes\n",
     "validate_delta ok\nregular 1\ncomplete 1\n"),
    # regular, incomplete: two unmarked edges with the same faces
    ("cell 0 v :\ncell 1 e1 : v v\ncell 1 e2 : v v\n"
     "cell 2 f1 : e1 e2 e1\ncell 2 f2 : e1 e2 e1\nmark 0 v\nmark 2 f1\nmark 2 f2\n",
     "validate_delta: ok\nregular: yes\ncomplete: no\n"
     "certificate: ('matching_pair', (1, 0), (1, 1))\n",
     "validate_delta ok\nregular 1\ncomplete 0\n"
     "certificate ('matching_pair', (1, 0), (1, 1))\n"),
])
def test_cli_property_report(tmp_path, capsys, text, shown, written):
    # `validate` prints the property report and `homology --properties`
    # writes the same facts
    delta = tmp_path / "x.delta"
    delta.write_text(text)
    assert main(["validate", "--delta", str(delta)]) == 0
    assert capsys.readouterr().out == shown
    out = tmp_path / "out"
    assert main(["homology", "--delta", str(delta), "--properties", "--out", str(out)]) == 0
    assert (out / "properties.txt").read_text() == written


def test_property_report_computes_the_closure_once(tmp_path, monkeypatch, capsys):
    # `is_regular` and `is_complete` find the Δ-closure in `superph.delta`:
    # one property report builds it once
    calls = []
    closure = superph.delta.delta_closure
    monkeypatch.setattr(superph.delta, "delta_closure",
                        lambda sh: calls.append(sh) or closure(sh))
    path = tmp_path / "x.delta"
    path.write_text("cell 0 a :\ncell 0 b :\ncell 1 ab : b a\n")
    assert main(["validate", "--delta", str(path)]) == 0
    assert "complete: yes" in capsys.readouterr().out
    assert len(calls) == 1
    out = tmp_path / "out"
    assert main(["homology", "--delta", str(path), "--properties", "--out", str(out)]) == 0
    assert "complete 1" in (out / "properties.txt").read_text()
    assert len(calls) == 2


@pytest.mark.parametrize("command", ["persist", "score"])
@pytest.mark.parametrize("scheme, message", [
    ("vr", "vertex 'c' is not embedded"),
    ("cech", "vertex 'c' is not embedded"),
    ("witness:strong", "vertex 'c' is not embedded"),
    ("pullback", "reference map undefined on vertex 'c'"),
])
def test_cli_unembedded_vertex_is_validation_failure(tmp_path, capsys, command, scheme,
                                                     message):
    # a graph vertex with no point in the cloud fails validation (exit 2)
    # under every point-cloud scheme, before any output is written
    graph = tmp_path / "triangle.graph"
    graph.write_text("directed 0\nv a\nv b\nv c\ne ab a b\ne bc b c\ne ac a c\n")
    cloud = tmp_path / "two.xy"
    cloud.write_text("a 0 0\nb 1 0\n")
    out = tmp_path / "out"
    assert main([command, "--graph", str(graph), "--cloud", str(cloud), "--construction",
                 "clique", "--scheme", scheme, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"validation failure: {message}\n"
    assert not out.exists()


def test_readme_cli_section_names_every_job_key():
    # the config keys are listed once, in JobConfig.KEYS; the README's CLI
    # section names each of them
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert [key for key, _ in JobConfig.KEYS if f"`{key}`" not in section] == []


def test_cli_score_prints_critical_values(tmp_path, capsys):
    cloud = write_square_inputs(tmp_path)
    code = main(["score", "--cloud", str(cloud), "--construction", "clique",
                 "--scheme", "vr", "--max-dim", "3"])
    assert code == 0
    out = capsys.readouterr().out.split()
    assert out == ["0", "0.5", "0.707106781187"]


def test_cli_config_file_with_override(tmp_path):
    cloud = write_square_inputs(tmp_path)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"cloud = {cloud}\nconstruction = clique\nscheme = vr\n"
                   f"field = gf2\nmax_dim = 2\nout = {tmp_path / 'cfgout'}\n")
    code = main(["homology", "--config", str(cfg), "--field", "rational"])
    assert code == 0
    assert (tmp_path / "cfgout" / "betti.csv").exists()


def test_cli_render(tmp_path):
    bars = tmp_path / "bars.csv"
    bars.write_text("degree,birth,death,multiplicity,module\n"
                    "0,0,0.5,3,ambient\n0,0,inf,1,ambient\n")
    svg = tmp_path / "d.svg"
    assert main(["render", "--input", str(bars), "--output", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and 'width="800" height="600"' in text
    # re-render is byte identical
    svg2 = tmp_path / "d2.svg"
    main(["render", "--input", str(bars), "--output", str(svg2)])
    assert svg.read_text() == svg2.read_text()


@pytest.mark.parametrize("argv", [
    ["render", "--input", "{missing}", "--output", "{out}/d.svg"],
    ["persist", "--cloud", "{cloud}", "--construction", "clique", "--scheme",
     "witness:strong", "--witnesses", "{missing}", "--out", "{out}"],
])
def test_cli_missing_input_is_usage_error(tmp_path, capsys, argv):
    # a missing input file of `render`, as of a job (its witness file
    # included), is a usage error (exit 1) with one message, and nothing is
    # written
    missing = tmp_path / "missing.txt"
    names = {"missing": missing, "out": tmp_path / "out", "cloud": write_square_inputs(tmp_path)}
    assert main([a.format(**names) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: input file not found: {missing}\n"
    assert not (tmp_path / "out").exists()


def test_render_empty_and_infinite():
    empty = render_diagram([Barcode("ambient", ())])
    assert "<svg" in empty
    two = render_diagram([Barcode("ambient",
                                  (Bar(0, 0.0, 1.0, 1), Bar(1, 0.5, math.inf, 1)))])
    assert two.count("<circle") == 2
    assert "inf" in two


def test_render_square_marks():
    bars = Barcode("ambient", (Bar(0, 0.0, 0.5, 3), Bar(0, 0.0, math.inf, 1),
                               Bar(1, 0.5, 0.7071, 1)))
    svg = render_diagram([bars])
    assert svg.count("<circle") == 5  # 4 degree-0 marks + 1 degree-1 mark


def test_atomic_write_replaces(tmp_path):
    p = tmp_path / "f.txt"
    formats.atomic_write(p, "one\n")
    formats.atomic_write(p, "two\n")
    assert p.read_text() == "two\n"
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
