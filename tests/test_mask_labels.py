"""Labels stay masks: the rank-mask constructions keep (vertex mask, edge
mask) cells as their labels (with a third mask, the starting vertices, for
starting-vertex faces), ordered by their ranks as the labels are, the
filtration checks and the point-cloud scores read those masks, and a
`Subgraph` or `MarkedSubgraph` is built only where a label is read."""

import itertools
import random
from functools import cache, partial

import pytest
from hypothesis import example, given, settings, strategies as st

import superph.faceops
import superph.graphs
from superph import (Clustering, DeltaSet, GradedSubset, MarkedSubgraph, MultiGraph,
                     PointCloud, Subgraph, SubgraphFamily, SuperHypergraph, build_filtration,
                     cech_scheme, clique_delta, cliques, critical_values, full_subset,
                     link_blowup_faces, partition_faces, path_complex, primary_vertex_deletion,
                     secondary_vertex_deletion, seeded_random_scheme, starting_vertex_faces,
                     vr_points, vr_scheme, witness_scheme)
from superph import formats
from superph.cli import JobConfig, build_super_hypergraph, main
from superph.delta import close_under_faces
from superph.fields import GF2, _Masks
from superph.faceops import _start_key, edge_deletion_faces
from superph.graphs import (_clique_cells, _keep_cells, _rank_key, _rank_order, _ranks,
                            _union, neighborhood_delta, vertex_deletion_map)
from superph.persistence import DominationError
from superph.scoring import _cell_masks, _scores, cell_scores, pullback_scheme

from oracles import (checked_relabel, decoded_combine, decoded_induced_edges, decoded_relabel,
                     decoded_union, decoded_vertex_deletion_map, recursive_sort_key)


def mixed_inputs():
    """A seeded simple graph on nine points in the unit square, a family of
    vertex sets of size one to four with their induced edges, and a
    clustering into three blocks."""
    rng = random.Random(26)
    names = [f"v{i}" for i in range(9)]
    pc = PointCloud({v: (rng.random(), rng.random()) for v in names})
    edges = {f"e{i}{j}": (names[i], names[j])
             for i, j in itertools.combinations(range(9), 2) if rng.random() < 0.6}
    g = MultiGraph(names, edges)
    members = [g.induced(vs) for k in (1, 2, 3, 4) for vs in itertools.combinations(names, k)
               if rng.random() < 0.15]
    return g, pc, SubgraphFamily(g, members), Clustering(g, [names[0::3], names[1::3],
                                                            names[2::3]])


KINDS = ("clique", "primary_vd", "secondary_vd", "partition", "link_blowup")
# the graph-data constructions: the path complex is built on `oriented(g)`,
# starting-vertex faces on `marked_members(fam)`
GRAPH_KINDS = ("path", "neighborhood", "edge_del", "starting_vertex")


def oriented(g) -> MultiGraph:
    """A simple digraph on g's vertices: each edge of g from its first end
    to its second, every third one in both directions."""
    arcs = dict(g.edge_ends)
    arcs.update({f"back{e}": (v, u) for k, (e, (u, v)) in enumerate(sorted(arcs.items()))
                 if k % 3 == 0})
    return MultiGraph(g.vertices, arcs, directed=True)


def marked_members(fam) -> list:
    """Each member with its lowest-ranked vertex as the starting set when
    that reaches every vertex, else with all its vertices."""
    out = []
    for m in fam:
        try:
            out.append(MarkedSubgraph(m, frozenset([min(m.key[0])])))
        except ValueError:
            out.append(MarkedSubgraph(m, m.vertices))
    return out


def construct(kind, g, fam, clustering, members=None) -> SuperHypergraph:
    if kind in ("clique", "neighborhood"):
        x = clique_delta(g, max_dim=2) if kind == "clique" else neighborhood_delta(g)
        return SuperHypergraph(x, full_subset(x))
    if kind == "path":
        return path_complex(oriented(g), 2)
    if kind == "edge_del":
        return edge_deletion_faces(SubgraphFamily(g, [m for m in fam if m.edges]))
    if kind == "starting_vertex":
        return starting_vertex_faces(members or marked_members(fam), g)
    if kind in ("partition", "link_blowup"):
        return (partition_faces if kind == "partition" else link_blowup_faces)(fam, clustering)
    return (primary_vertex_deletion if kind == "primary_vd" else secondary_vertex_deletion)(fam)


def near_ties(names) -> PointCloud:
    """Points on a line, every third one lifted off it by 1e-7, so that a
    distance k between a lifted and an unlifted point reads sqrt(k² + 1e-14):
    distinct from k in the float, equal to it in 12 digits."""
    return PointCloud({v: (float(i), 1e-7 * (i % 3 == 0)) for i, v in enumerate(names)})


def assert_times_are_the_critical_values(sh, scheme, experimental=False):
    times = list(build_filtration(sh, scheme, experimental).times)
    assert times == critical_values(scheme, sh.x) == \
        sorted({v for row in cell_scores(scheme, sh.x) for v in row})


@pytest.mark.parametrize("kind", KINDS)
def test_mask_constructions_filter_and_score_without_a_subgraph(monkeypatch, kind):
    # construction, domination and injectivity checks, and the scores of
    # the schemes that read only vertex sets build no Subgraph at all; the
    # critical values are the distinct rounded cell scores, also where
    # distinct unrounded scores round to one value
    g, pc, fam, clustering = mixed_inputs()
    tied = near_ties(sorted(g.vertices))
    built = []
    init = Subgraph.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subgraph, "__init__", counted)
    sh = construct(kind, g, fam, clustering)
    assert sh.x.total_cells() > 20 and sh.x.dim_count > 1
    for cloud in (pc, tied):
        for scheme in (vr_scheme(cloud), cech_scheme(cloud), witness_scheme(cloud, "vr_strong"),
                       pullback_scheme(cloud.points, vr_points)):
            assert_times_are_the_critical_values(sh, scheme)
    assert built == []
    raw = {vr_points(tied.of(sh.x.label(n, j).vertices)) for n, j in sh.x.cells()}
    assert len(raw) > len(critical_values(vr_scheme(tied), sh.x))
    assert_times_are_the_critical_values(sh, seeded_random_scheme(5), experimental=True)


# ---------------------------------------------------------------------------
# the pairwise route
# ---------------------------------------------------------------------------

PAIRWISE = (vr_scheme, partial(witness_scheme, variant="vr_strong"))
PAIRWISE_IDS = ("vr", "witness_vr_strong")


def count_direct_scores(scheme) -> list:
    """Record each direct (of_points) score of a vertex scheme from now on."""
    point, of_points, pair = scheme._vertices
    calls = []

    def counted(points):
        calls.append(len(points))
        return of_points(points)

    scheme._vertices = (point, counted, pair)
    return calls


def assert_scores_are_the_direct_ones(scheme, x) -> list:
    """Every unrounded `_scores` value equals `scheme.score` of the cell's
    label, bit for bit; the sizes of the cells scored directly."""
    calls = count_direct_scores(scheme)
    got = _scores(scheme, *_cell_masks(x))
    assert got == [[scheme.score(x.label(n, j)) for j in range(x.counts[n])]
                   for n in range(x.dim_count)]
    return calls


@pytest.mark.parametrize("scheme_of", PAIRWISE, ids=PAIRWISE_IDS)
@pytest.mark.parametrize("kind", KINDS)
def test_pairwise_scores_equal_the_direct_route(kind, scheme_of):
    # on the plain cloud and on near ties, whose distances differ in the
    # float and not in 12 digits; the clique Δ-set scores most of its cells
    # from their deletions
    g, pc, fam, clustering = mixed_inputs()
    x = construct(kind, g, fam, clustering).x
    for cloud in (pc, near_ties(sorted(g.vertices))):
        direct = assert_scores_are_the_direct_ones(scheme_of(cloud), x)
        if kind == "clique":
            assert len(direct) < x.total_cells() and max(direct) == 2


@pytest.mark.parametrize("scheme_of", PAIRWISE, ids=PAIRWISE_IDS)
def test_pairwise_scores_of_a_large_partition_member(scheme_of):
    # partition faces delete whole clusters, so no cell of a 40-vertex
    # member has its one-vertex deletions: every cell is scored directly
    rng = random.Random(33)
    names = [f"u{i}" for i in range(44)]
    g = MultiGraph.complete(names)
    pc = PointCloud({v: (rng.random(), rng.random(), rng.random()) for v in names})
    fam = SubgraphFamily(g, [g.induced(names[:40]), g.induced(names[38:])])
    x = partition_faces(fam, Clustering(g, [names[k::4] for k in range(4)])).x
    direct = assert_scores_are_the_direct_ones(scheme_of(pc), x)
    assert len(direct) == x.total_cells() and max(direct) == 40


def first_unembedded(x, cloud) -> str:
    """The message of the first vertex, in cell order and then in rank
    order within a cell, that the cloud does not embed."""
    for n, j in x.cells():
        label = x.label(n, j)
        for v in getattr(label, "subgraph", label).key[0]:
            if v not in cloud.points:
                return f"vertex {v!r} is not embedded"
    raise AssertionError("every vertex is embedded")


@pytest.mark.parametrize("scheme_of", PAIRWISE, ids=PAIRWISE_IDS)
@pytest.mark.parametrize("kind", KINDS)
def test_pairwise_scores_name_the_first_unembedded_vertex(kind, scheme_of):
    g, pc, fam, clustering = mixed_inputs()
    x = construct(kind, g, fam, clustering).x
    cloud = PointCloud({v: p for v, p in pc.points.items() if v not in ("v2", "v7")})
    with pytest.raises(ValueError) as err:
        critical_values(scheme_of(cloud), x)
    assert str(err.value) == first_unembedded(x, cloud)


# ---------------------------------------------------------------------------
# walks over the set bits of a mask
# ---------------------------------------------------------------------------

WIDE = 10_050
# ranks at the ends of a word and far past one machine word
EDGE_RANKS = (0, 1, 2, 63, 64, 65, 127, 128, 9_999, 10_000, 10_001, WIDE - 1)


@cache
def wide_tables():
    """A multigraph on the ranks 0..WIDE-1 whose edges (loops and parallel
    edges among them) join EDGE_RANKS and a few other vertices; a table of
    WIDE nonzero masks; and a table of WIDE distinct targets."""
    rng = random.Random(33)
    ends = list(EDGE_RANKS) + rng.sample(range(WIDE), 30)
    pairs = [(0, 0), (0, 1), (0, 10_000), (64, 10_000), (10_000, 10_000), (0, 1)]
    pairs += [(rng.choice(ends), rng.choice(ends)) for _ in range(400)]
    host = MultiGraph(range(WIDE), dict(enumerate(pairs)))
    assert host._vids == tuple(range(WIDE))
    masks = [1 << r | 1 << rng.randrange(WIDE) for r in range(WIDE)]
    return host, masks, rng.sample(range(WIDE + 64), WIDE)


wide_masks = st.sets(st.one_of(st.sampled_from(EDGE_RANKS), st.integers(0, WIDE - 1)),
                     max_size=10).map(lambda ranks: sum(1 << r for r in ranks))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_masks, wide_masks, wide_masks)
@example(0, 0, 0)
@example(1, 1, 1)
@example(1 | 1 << 10_000, 1 << 64, 1 << 10_000)
@example(1 | 2 | 1 << 64 | 1 << 10_000, (1 << WIDE) - 1, 1 << 64 | 1)
def test_mask_walks_match_their_decoded_forms(vm, em, other):
    # the walks over set bits in place give what a decode into ranks gives:
    # the same unions and sums, and the same faces in the same order
    host, masks, targets = wide_tables()
    assert _union(masks, vm) == decoded_union(masks, vm)
    assert _union(host._inc, vm) == decoded_union(host._inc, vm)
    assert host._induced_edges(vm) == decoded_induced_edges(host, vm)
    assert vertex_deletion_map(host)((vm, em)) == decoded_vertex_deletion_map(host)((vm, em))
    assert _Masks.combine(GF2, vm, masks) == decoded_combine(vm, masks)
    assert _Masks.relabel(vm, targets) == decoded_relabel(vm, targets)
    assert _Masks.relabel(vm, targets, other) == decoded_relabel(vm, targets, other)


# ---------------------------------------------------------------------------
# the closure's order keys
# ---------------------------------------------------------------------------

@st.composite
def hosts_with_cells(draw):
    """A multigraph with mixed ids and parallel edges, often more than 64 of
    them, and distinct (vertex mask, edge mask, starting-vertex mask) cells
    over its ranks.  Each drawn vertex mask comes with its empty and its
    full induced edge mask beside a drawn one, and its own vertices as the
    starting set beside a drawn one that reaches them all."""
    directed = draw(st.booleans())
    vs = draw(st.lists(st.sampled_from((0, 1, 2, 10, "a", "b", (0, "x"), ("t", 1))),
                       min_size=2, max_size=6, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          min_size=1, max_size=12))
    copies = 65 // len(pairs) + 1 if draw(st.booleans()) else 1
    ids = (lambda k: k, lambda k: f"e{k}", lambda k: ("e", k))
    host = MultiGraph(vs, {ids[k % 3](k): pair
                           for k, pair in enumerate(pairs * copies)}, directed)
    cells = set()
    for vm in draw(st.lists(st.integers(1, (1 << len(vs)) - 1), min_size=1, max_size=8)):
        induced = host._induced_edges(vm)
        sm = draw(st.integers(1, (1 << len(vs)) - 1)) & vm
        for em in (0, induced, draw(st.integers(0, induced))):
            em &= induced
            for start in {vm, sm} - {0}:
                sub = host._cell_subgraph((vm, em))
                try:
                    marked = MarkedSubgraph(sub, frozenset(host._vids[r] for r in _ranks(start)))
                except ValueError:  # a starting set that does not reach every vertex
                    continue
                cells.add((vm, em, start, marked))
    return host, sorted(cells, key=lambda c: recursive_sort_key(c[3]))


def strictly_increasing(keys) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hosts_with_cells())
def test_rank_keys_order_cells_as_their_labels(drawn):
    # listed in the id order of their marked subgraphs, the cells' rank keys
    # increase strictly, as the subgraphs' and marked subgraphs' sort keys do
    host, cells = drawn
    assert strictly_increasing([c[3].sort_key for c in cells])
    assert strictly_increasing([_start_key(c[:3]) for c in cells])
    subgraph_cells = sorted({c[:2] for c in cells}, key=lambda c: recursive_sort_key(
        host._cell_subgraph(c)))
    assert strictly_increasing([host._cell_subgraph(c).sort_key for c in subgraph_cells])
    assert strictly_increasing([_rank_key(c) for c in subgraph_cells])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hosts_with_cells(), st.randoms(use_true_random=False))
def test_rank_order_is_the_sort_by_rank_keys(drawn, rnd):
    # drawn cells, several on each vertex mask, in any order: the level
    # order is the sort by the whole rank key
    _, cells = drawn
    pairs = list({c[:2] for c in cells})
    triples = [c[:3] for c in cells]
    rnd.shuffle(pairs)
    rnd.shuffle(triples)
    assert _rank_order(pairs) == sorted(pairs, key=_rank_key)
    assert _rank_order(triples, key=_start_key) == sorted(triples, key=_start_key)


def assert_levels_in_rank_key_order(x) -> int:
    """Each level of x's mask labels is in `_rank_key` order; the number
    of levels where two cells share a vertex mask."""
    for level in x._labels:
        assert list(level) == sorted(level, key=_rank_key)
    return sum(len({vm for vm, _ in level}) < len(level) for level in x._labels)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_closure_levels_in_rank_key_order(data):
    # clique Δ-sets of multigraphs (parallel edges: clique cells that share
    # a vertex mask) and secondary closures of members missing some induced
    # edges (bridges add edges to faces)
    nv = data.draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)).filter(
        lambda p: p[0] != p[1])
    pairs = data.draw(st.lists(pair, max_size=16))
    assert_levels_in_rank_key_order(clique_delta(MultiGraph(range(nv), dict(enumerate(pairs))),
                                                 max_dim=3))
    simple = MultiGraph(range(nv), dict(enumerate({tuple(sorted(p)) for p in pairs})))
    members = []
    for vs in data.draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=1), min_size=1,
                                 max_size=4)):
        edges = sorted(simple.induced(vs).edges)
        members.append(simple.subgraph(vs, [e for e in edges if data.draw(st.booleans())]))
    assert_levels_in_rank_key_order(secondary_vertex_deletion(SubgraphFamily(simple, members)).x)


def test_clique_delta_file_is_the_rank_key_sort(tmp_path):
    # a seeded multigraph whose clique cells share vertex masks: the Δ-set
    # file is the one of the closure sorted by the whole rank key
    rng = random.Random(30)
    g = MultiGraph(range(7), {k: tuple(rng.sample(range(7), 2)) for k in range(26)})
    x = clique_delta(g, max_dim=3)
    assert assert_levels_in_rank_key_order(x) >= 3
    by_key, _ = _keep_cells(g, close_under_faces(_clique_cells(g, 4), vertex_deletion_map(g),
                                                 partial(sorted, key=_rank_key)))
    formats.write_delta(tmp_path / "x.delta", x)
    formats.write_delta(tmp_path / "by_key.delta", by_key)
    assert (tmp_path / "x.delta").read_bytes() == (tmp_path / "by_key.delta").read_bytes()


@pytest.mark.parametrize("kind", KINDS + GRAPH_KINDS)
def test_mask_labels_read_as_the_checked_relabel(monkeypatch, kind):
    # label and labels decode the kept masks into the subgraphs (marked
    # subgraphs) the checked relabel of the same closure builds: equal, with
    # equal keys, sort keys and host, and for a marked subgraph equal
    # starting vertices and repr
    g, _, fam, clustering = mixed_inputs()
    closures = []
    keep = superph.graphs._keep_cells

    def captured(host, closure):
        closures.append((host, closure))
        return keep(host, closure)

    monkeypatch.setattr(superph.graphs, "_keep_cells", captured)
    monkeypatch.setattr(superph.faceops, "_keep_cells", captured)
    sh = construct(kind, g, fam, clustering)
    [(host, closure)] = closures
    want, want_marked = checked_relabel(host, closure)
    x = sh.x
    assert x.host is host and x == want and x.total_cells() > 20
    assert host is g or kind in ("path", "starting_vertex")
    if kind not in ("clique", "neighborhood", "path", "starting_vertex"):  # members marked
        assert sh.h == want_marked
    assert x.labels == want.labels
    for n, j in x.cells():
        got, ref = x.label(n, j), want.label(n, j)
        assert got == ref and getattr(got, "subgraph", got).host is host
        assert (got.key, got.sort_key) == (ref.key, ref.sort_key)
        if kind == "starting_vertex":
            assert got.sv == ref.sv and repr(got) == repr(ref)
    assert [[lab.key for lab in row] for row in x.labels] == \
        [[lab.key for lab in row] for row in want.labels]


def count_label_objects(monkeypatch) -> dict:
    """Count `Subgraph.__init__` and `MarkedSubgraph.__post_init__` calls
    from now on."""
    counts = {Subgraph: 0, MarkedSubgraph: 0}
    for cls, name in ((Subgraph, "__init__"), (MarkedSubgraph, "__post_init__")):
        def counted(self, *args, _real=getattr(cls, name), _cls=cls):
            counts[_cls] += 1
            _real(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return counts


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_graph_constructions_build_no_label_per_cell(tmp_path, monkeypatch, kind):
    # the library constructions and their VR scores build no Subgraph or
    # MarkedSubgraph; through the CLI, which reads the family, at most one
    # of each per family member
    g, pc, fam, clustering = mixed_inputs()
    members = marked_members(fam)
    counts = count_label_objects(monkeypatch)
    sh = construct(kind, g, fam, clustering, members)
    critical_values(vr_scheme(pc), sh.x)
    assert counts == {Subgraph: 0, MarkedSubgraph: 0}
    formats.write_graph(tmp_path / "g.txt", oriented(g) if kind == "path" else g)
    if kind == "edge_del":
        members = [m for m in members if m.subgraph.edges]
    formats.write_family(tmp_path / "fam.txt", [m.subgraph for m in members],
                         [m.sv for m in members])
    cfg = JobConfig(graph=str(tmp_path / "g.txt"), family=str(tmp_path / "fam.txt"),
                    construction=kind, max_dim=2)
    x = build_super_hypergraph(cfg).x
    assert x.counts == sh.x.counts and x.total_cells() > 2 * len(members)
    assert counts[Subgraph] <= len(members) and counts[MarkedSubgraph] <= len(members)


# ---------------------------------------------------------------------------
# the checks keep their errors
# ---------------------------------------------------------------------------

def stray_edge_map(host):
    """Vertex deletion that keeps every edge, those of the deleted vertex
    included."""
    return lambda cell: [(cell[0] ^ (1 << r), cell[1]) for r in _ranks(cell[0])]


@pytest.mark.parametrize("owner, build", [
    (superph.graphs, lambda g: clique_delta(g, max_dim=2)),
    (superph.faceops, lambda g: primary_vertex_deletion(SubgraphFamily(g, cliques(g, 3)))),
])
def test_a_stray_edge_fails_as_the_subgraph_constructor(monkeypatch, owner, build):
    # the first cell in order with an edge off its vertices, ({0}, {01}),
    # fails with the checked constructor's message
    monkeypatch.setattr(owner, "vertex_deletion_map", stray_edge_map)
    g = MultiGraph([0, 1, 2], {10: (0, 1), 11: (0, 2), 12: (1, 2)})
    with pytest.raises(ValueError, match=r"^edge 10 selected without its endpoints$"):
        build(g)


def labelled(labels_by_dim, counts, faces, hosts):
    """A Δ-set whose labels are the given vertex sets, each a subgraph
    without edges on hosts[k % len(hosts)] for its k-th label overall."""
    rows, k = [], 0
    for row in labels_by_dim:
        rows.append([])
        for vs in row:
            rows[-1].append(hosts[k % len(hosts)].subgraph(vs, ()))
            k += 1
    return DeltaSet(counts, faces).with_labels(rows)


def path_hosts(count: int):
    """count equal but distinct host objects on the path a - b - c."""
    return [MultiGraph(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")})
            for _ in range(count)]


@pytest.mark.parametrize("hosts", [1, 2])
def test_domination_errors_keep_their_messages(hosts):
    hs = path_hosts(hosts)
    scheme = seeded_random_scheme(1)
    same = labelled([[{"a"}, {"a"}]], [2], [()], hs)
    with pytest.raises(DominationError, match=r"^labels not injective: cells \(0, 0\) and "
                                              r"\(0, 1\)$"):
        build_filtration(SuperHypergraph(same, GradedSubset()), scheme, experimental=True)
    grows = labelled([[{"a", "b"}, {"c"}], [{"a", "c"}]], [2, 1], [(), [(0, 1)]], hs)
    with pytest.raises(DominationError, match=r"^face of cell \(1,0\) does not shrink its "
                                              r"vertex set$"):
        build_filtration(SuperHypergraph(grows, GradedSubset()), scheme, experimental=True)
    untyped = grows.with_labels([[grows.label(0, 0), "c"], [grows.label(1, 0)]])
    with pytest.raises(DominationError, match=r"^cell \(0,1\) label is not a subgraph$"):
        build_filtration(SuperHypergraph(untyped, GradedSubset()), scheme)
    with pytest.raises(DominationError, match=r"^cells carry no subgraph labels$"):
        build_filtration(SuperHypergraph(grows.with_labels(None), GradedSubset()), scheme)


def test_starting_vertex_cells_differing_in_starting_vertices_are_not_injective(tmp_path, capsys):
    # the filtration reads a starting-vertex cell as its vertex and edge
    # masks: ({a, b}, {e1}) with starting set {a, b} (a 0-cell) and with
    # starting set {a} (a 1-cell) are one label
    (tmp_path / "g.txt").write_text("directed 1\nv a\nv b\nv c\ne e1 a b\ne e2 b c\n")
    (tmp_path / "cloud.xy").write_text("a 0 0\nb 1 0\nc 1 1\n")
    (tmp_path / "fam.txt").write_text("member\nv a b\ne e1\nsv a\nmember\nv a b\ne e1\nsv a b\n")
    argv = ["persist", "--graph", str(tmp_path / "g.txt"), "--cloud", str(tmp_path / "cloud.xy"),
            "--family", str(tmp_path / "fam.txt"), "--construction", "starting_vertex",
            "--scheme", "vr", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "validation failure: labels not injective: cells (0, 1) and (1, 0)\n"


def test_subgraph_labels_on_several_hosts_filter_as_on_one():
    # subgraph labels spread over equal host objects: the same injectivity,
    # domination, scores and filtration as the same labels on one host
    g, pc, fam, _ = mixed_inputs()
    sh = primary_vertex_deletion(fam)
    twin = MultiGraph(g.vertices, g.edge_ends)
    spread = sh.x.with_labels([[Subgraph(twin if j % 2 else g, lab.vertices, lab.edges)
                                for j, lab in enumerate(row)] for row in sh.x.labels])
    assert spread.host is None
    spread_sh = SuperHypergraph(spread, sh.h)
    for scheme, experimental in ((vr_scheme(pc), False), (seeded_random_scheme(4), True)):
        want = build_filtration(sh, scheme, experimental)
        got = build_filtration(spread_sh, scheme, experimental)
        assert (got.times, got.entry, got.marked) == (want.times, want.entry, want.marked)
        assert critical_values(scheme, spread) == critical_values(scheme, sh.x)


@pytest.mark.parametrize("scheme, message", [
    ("vr", "vertex 'b' is not embedded"),
    ("cech", "vertex 'b' is not embedded"),
    ("witness:strong", "vertex 'b' is not embedded"),
    ("pullback", "reference map undefined on vertex 'b'"),
])
def test_unembedded_vertex_named_first_in_rank_order(tmp_path, capsys, scheme, message):
    # the first cell scored, ({b, c}, {bc}) after ({a}, {}), has two
    # unembedded vertices: the lower-ranked one is named, whatever the
    # string hashes of the process
    (tmp_path / "g.txt").write_text(
        "directed 0\nv a\nv b\nv c\ne ab a b\ne bc b c\ne ac a c\n")
    (tmp_path / "cloud.xy").write_text("a 0 0\n")
    (tmp_path / "fam.txt").write_text("member\nv a b c\ne ab bc ac\n")
    (tmp_path / "cl.txt").write_text("a 0\nb 1\nc 1\n")
    argv = ["score", "--graph", str(tmp_path / "g.txt"), "--cloud", str(tmp_path / "cloud.xy"),
            "--family", str(tmp_path / "fam.txt"), "--clustering", str(tmp_path / "cl.txt"),
            "--construction", "partition", "--scheme", scheme]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"validation failure: {message}\n"
