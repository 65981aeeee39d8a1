"""Face-operation constructors: examples plus closure/identity oracles."""

import itertools
import random

import pytest

import superph.faceops
import superph.graphs
from superph import (Clustering, MarkedSubgraph, MultiGraph, SubgraphFamily,
                     VertexOrder, cliques, clique_delta, edge_deletion_complex,
                     extend_graph, link_blowup_faces, partition_faces,
                     primary_vertex_deletion, secondary_vertex_deletion,
                     starting_vertex_faces)
from superph.delta import close_under_faces
from superph.faceops import bfs_layers

from oracles import brute_primary_closure_keys, two_pass_close_under_faces


def k4():
    return MultiGraph.complete([1, 2, 3, 4])


def random_graph(rng, n, p=0.5, directed=False):
    edges = {}
    pairs = itertools.permutations(range(n), 2) if directed \
        else itertools.combinations(range(n), 2)
    for i, j in pairs:
        if rng.random() < p:
            edges[f"e{i}_{j}"] = (i, j)
    return MultiGraph(range(n), edges, directed=directed)


def random_subgraph(rng, g):
    vs = [v for v in g.vertices if rng.random() < 0.7]
    if not vs:
        vs = [sorted(g.vertices)[0]]
    vset = set(vs)
    es = [e for e, (u, w) in g.edge_ends.items()
          if u in vset and w in vset and rng.random() < 0.7]
    return g.subgraph(vset, es)


# ---------------------------------------------------------------------------
# primary vertex deletion
# ---------------------------------------------------------------------------

def test_primary_on_cliques_reproduces_clique_delta():
    g = k4()
    fam = SubgraphFamily(g, cliques(g, 4))
    sh = primary_vertex_deletion(fam)
    ds = clique_delta(g, max_dim=3)
    assert sh.x.counts == ds.counts
    assert sh.h.members == {n: frozenset(range(c)) for n, c in enumerate(ds.counts)}


def test_primary_single_vertex_member():
    g = k4()
    sh = primary_vertex_deletion(SubgraphFamily(g, [g.subgraph({1}, ())]))
    assert sh.x.counts == (1,)


def test_primary_four_cycle_closure():
    g = k4()
    c4 = [e for e in g.edge_ends
          if set(e[1:]) in ({1, 2}, {2, 3}, {3, 4}, {1, 4})]
    fam = SubgraphFamily(g, [g.subgraph({1, 2, 3, 4}, c4)])
    sh = primary_vertex_deletion(fam)
    # oracle: least fixed point of single-vertex deletions
    keys = brute_primary_closure_keys(list(fam), VertexOrder.default(g))
    got = {sh.x.label(n, j).key for n, j in sh.x.cells()}
    assert got == keys
    assert sh.x.counts == (4, 6, 4, 1)


def test_primary_closure_matches_brute_force(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        members = [random_subgraph(rng, g) for _ in range(rng.randint(1, 4))]
        fam = SubgraphFamily(g, members)
        sh = primary_vertex_deletion(fam)
        assert sh.x.validate().ok
        keys = brute_primary_closure_keys(list(fam), VertexOrder.default(g))
        got = {sh.x.label(n, j).key for n, j in sh.x.cells()}
        assert got == keys


def test_primary_rejects_empty_member():
    g = k4()
    with pytest.raises(ValueError):
        primary_vertex_deletion(SubgraphFamily(g, [g.subgraph((), ())]))


# ---------------------------------------------------------------------------
# secondary vertex deletion
# ---------------------------------------------------------------------------

def test_secondary_adds_bridging_edge():
    host = MultiGraph("abc", {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")})
    fam = SubgraphFamily(host, [host.subgraph({"a", "b", "c"}, ["ab", "bc"])])
    sh = secondary_vertex_deletion(fam)
    d1 = sh.x.label(1, sh.x.faces[2][0][1])
    assert d1.key == (("a", "c"), ("ac",))


def test_secondary_single_vertex_no_faces():
    host = MultiGraph("ab", {"ab": ("a", "b")})
    sh = secondary_vertex_deletion(SubgraphFamily(host, [host.subgraph({"a"}, ())]))
    assert sh.x.counts == (1,)


def test_secondary_agrees_with_path_faces_on_interior():
    # on directed paths of a simple digraph the interior deletion re-adds the
    # shortcut edge exactly when the host has it
    host = MultiGraph("abc", {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
                      directed=True)
    member = host.subgraph({"a", "b", "c"}, ["ab", "bc"])
    sh = secondary_vertex_deletion(SubgraphFamily(host, [member]))
    labels1 = {sh.x.label(1, j).key for j in range(sh.x.counts[1])}
    assert (("a", "c"), ("ac",)) in labels1


def test_secondary_rejects_multigraph():
    host = MultiGraph("ab", {"e1": ("a", "b"), "e2": ("a", "b")})
    with pytest.raises(ValueError):
        secondary_vertex_deletion(SubgraphFamily(host, [host.full()]))


def test_secondary_random_validates(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        fam = SubgraphFamily(g, [random_subgraph(rng, g)
                                 for _ in range(rng.randint(1, 3))])
        sh = secondary_vertex_deletion(fam)
        assert sh.x.validate().ok


# ---------------------------------------------------------------------------
# edge deletion
# ---------------------------------------------------------------------------

def test_edge_deletion_all_triangle_subgraphs_closed():
    g = MultiGraph([1, 2, 3], {"a": (1, 2), "b": (2, 3), "c": (1, 3)})
    members = []
    for r in range(1, 4):
        for es in itertools.combinations(["a", "b", "c"], r):
            vs = {v for e in es for v in g.edge_ends[e]}
            members.append(g.subgraph(vs, es))
    res = edge_deletion_complex(SubgraphFamily(g, members))
    assert res.closed
    assert len(res.simplicial) == 7  # full 2-simplex on the edge universe


def test_edge_deletion_triangle_only_not_closed():
    g = MultiGraph([1, 2, 3], {"a": (1, 2), "b": (2, 3), "c": (1, 3)})
    res = edge_deletion_complex(SubgraphFamily(g, [g.full()]))
    assert not res.closed and res.simplicial is None


def test_edge_deletion_single_edge_member():
    g = MultiGraph([1, 2], {"a": (1, 2)})
    res = edge_deletion_complex(SubgraphFamily(g, [g.full()]))
    assert res.closed and res.hyperedges == (frozenset({"a"}),)


def test_edge_deletion_rejects_edgeless():
    g = MultiGraph([1], {})
    with pytest.raises(ValueError):
        edge_deletion_complex(SubgraphFamily(g, [g.subgraph({1}, ())]))


# ---------------------------------------------------------------------------
# partition faces
# ---------------------------------------------------------------------------

def test_partition_singletons_equals_primary(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randint(1, 5))
        fam = SubgraphFamily(g, [random_subgraph(rng, g)
                                 for _ in range(rng.randint(1, 3))])
        a = partition_faces(fam, Clustering.singletons(g))
        b = primary_vertex_deletion(fam)
        assert a.x.counts == b.x.counts
        assert all(a.x.label(n, j).key == b.x.label(n, j).key
                   for n, j in a.x.cells())
        assert a.x.faces == b.x.faces


def test_partition_one_cluster_all_zero_cells():
    g = k4()
    clus = Clustering(g, [[1, 2, 3, 4]])
    sh = partition_faces(SubgraphFamily(g, [g.full(), g.induced({1, 2})]), clus)
    assert sh.x.dim_count == 1


def test_partition_k4_cluster_face():
    g = k4()
    clus = Clustering(g, [[1, 2], [3], [4]])
    sh = partition_faces(SubgraphFamily(g, [g.full()]), clus)
    d0 = sh.x.label(1, sh.x.faces[2][0][0])
    assert d0.key == ((3, 4), (("k", 3, 4),))


def test_clustering_must_partition():
    g = k4()
    with pytest.raises(ValueError):
        Clustering(g, [[1, 2], [2, 3], [4]])
    with pytest.raises(ValueError):
        Clustering(g, [[1, 2], [3]])


# ---------------------------------------------------------------------------
# link-blowup faces
# ---------------------------------------------------------------------------

def test_link_blowup_star_adds_leaf_edges():
    host = MultiGraph(["c", "a", "b", "d"], {
        "ca": ("c", "a"), "cb": ("c", "b"), "cd": ("c", "d"),
        "ab": ("a", "b"), "ad": ("a", "d"), "bd": ("b", "d")})
    star = host.subgraph({"c", "a", "b", "d"}, ["ca", "cb", "cd"])
    cl = Clustering(host, [["c"], ["a", "b", "d"]])
    sh = link_blowup_faces(SubgraphFamily(host, [star]), cl)
    labels = {sh.x.label(0, sh.x.faces[1][j][0]).key for j in range(sh.x.counts[1])}
    assert (("a", "b", "d"), ("ab", "ad", "bd")) in labels


def test_link_blowup_same_vertices_as_partition(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 6))
        blocks = {}
        k = rng.randint(1, 3)
        for v in g.vertices:
            blocks.setdefault(rng.randint(0, k - 1), []).append(v)
        clus = Clustering(g, [b for b in blocks.values()])
        fam = SubgraphFamily(g, [random_subgraph(rng, g)])
        lk = link_blowup_faces(fam, clus)
        pt = partition_faces(fam, clus)
        assert lk.x.validate().ok
        member = fam.members[0]
        n = len(clus.touched(member)) - 1
        if n > 0:
            jl = next(j for j in range(lk.x.counts[n])
                      if lk.x.label(n, j) == member)
            jp = next(j for j in range(pt.x.counts[n])
                      if pt.x.label(n, j) == member)
            for i in range(n + 1):
                a = lk.x.label(n - 1, lk.x.faces[n][jl][i])
                b = pt.x.label(n - 1, pt.x.faces[n][jp][i])
                assert a.vertices == b.vertices
                assert b.edges <= a.edges  # blowup only adds edges


def test_link_blowup_one_cluster_member():
    g = k4()
    cl = Clustering(g, [[1, 2], [3, 4]])
    sh = link_blowup_faces(SubgraphFamily(g, [g.induced({1, 2})]), cl)
    assert sh.x.counts == (1,)


# ---------------------------------------------------------------------------
# starting-vertex faces
# ---------------------------------------------------------------------------

def test_sv_single_vertex():
    g = MultiGraph("a", {})
    sh = starting_vertex_faces([MarkedSubgraph(g.subgraph({"a"}, ()),
                                               frozenset("a"))], g)
    assert sh.x.counts == (1,)


def test_sv_directed_path_faces():
    g = MultiGraph("abc", {"e1": ("a", "b"), "e2": ("b", "c")}, directed=True)
    member = MarkedSubgraph(g.subgraph({"a", "b", "c"}, ["e1", "e2"]),
                            frozenset("a"))
    sh = starting_vertex_faces([member], g)
    top = sh.x.label(2, 0)
    faces = [sh.x.label(1, t) for t in sh.x.faces[2][0]]
    # d0 drops the starting layer: b -> c marked from b
    assert faces[0].subgraph.key == (("b", "c"), ("e2",))
    assert faces[0].sv == frozenset("b")
    # d1 removes the middle layer and patches with the formal edge
    assert faces[1].subgraph.key == (("a", "c"), (("inf", "a", "c"),))
    assert faces[1].sv == frozenset("a")
    # d2 drops the last layer
    assert faces[2].subgraph.key == (("a", "b"), ("e1",))
    assert faces[2].sv == frozenset("a")


def test_sv_reachability_enforced():
    g = MultiGraph("ab", {}, directed=True)
    with pytest.raises(ValueError):
        MarkedSubgraph(g.subgraph({"a", "b"}, ()), frozenset("a"))


def test_sv_marked_cells_are_ground_subgraphs():
    g = MultiGraph("abc", {"e1": ("a", "b"), "e2": ("b", "c")}, directed=True)
    member = MarkedSubgraph(g.subgraph({"a", "b", "c"}, ["e1", "e2"]),
                            frozenset("a"))
    sh = starting_vertex_faces([member], g)
    for n, j in sh.x.cells():
        lab = sh.x.label(n, j)
        has_inf = any(isinstance(e, tuple) and e[0] == "inf"
                      for e in lab.subgraph.edges)
        assert ((n, j) in sh.h) == (not has_inf)


def test_sv_delta_identity_exhaustive(rng):
    # d_i d_j = d_j d_{i+1} checked directly on every member and pair
    for _ in range(8):
        directed = rng.random() < 0.5
        g = random_graph(rng, rng.randint(2, 5), p=0.6, directed=directed)
        ghat = extend_graph(g)
        sub = random_subgraph(rng, g)
        sv = frozenset(sorted(sub.vertices)[:1])
        layers = bfs_layers(sub, sv)
        if set().union(*layers) != set(sub.vertices):
            continue
        sh = starting_vertex_faces([MarkedSubgraph(sub, sv)], g)
        assert sh.x.validate().ok


def test_extend_graph_edge_counts():
    g = MultiGraph("abc", {"e1": ("a", "b")}, directed=True)
    ghat = extend_graph(g)
    assert len(ghat.edge_ends) == 1 + 6
    gu = MultiGraph("abc", {"e1": ("a", "b")})
    assert len(extend_graph(gu).edge_ends) == 1 + 3


# ---------------------------------------------------------------------------
# the one-pass face closure against the two-pass oracle
# ---------------------------------------------------------------------------

def random_marked_member(rng, g):
    """A random subgraph cut down to what its first vertex reaches."""
    sub = random_subgraph(rng, g)
    sv = frozenset(sorted(sub.vertices)[:1])
    return MarkedSubgraph(sub.restrict(set().union(*bfs_layers(sub, sv))), sv)


def random_clustering(rng, g):
    blocks = {}
    for v in sorted(g.vertices):
        blocks.setdefault(rng.randint(0, 2), []).append(v)
    return Clustering(g, list(blocks.values()))


def test_close_under_faces_matches_two_pass_oracle(monkeypatch):
    compared = []

    def both(seeds, grade, face_fn):
        seeds = list(seeds)
        want_ds, want_marked = two_pass_close_under_faces(seeds, grade, face_fn)
        ds, marked = close_under_faces(seeds, grade, face_fn)
        assert ds.counts == want_ds.counts and ds.faces == want_ds.faces
        assert ds.labels == want_ds.labels
        assert marked == want_marked
        compared.append(ds.counts)
        return ds, marked

    monkeypatch.setattr(superph.graphs, "close_under_faces", both)
    monkeypatch.setattr(superph.faceops, "close_under_faces", both)
    rng = random.Random(0xFACE)
    for _ in range(6):
        g = random_graph(rng, rng.randint(3, 6), p=0.6)
        multi = MultiGraph(g.vertices, {**g.edge_ends, **{
            ("p", e): ends for e, ends in g.edge_ends.items() if rng.random() < 0.3}})
        fam = SubgraphFamily(g, [random_subgraph(rng, g) for _ in range(rng.randint(1, 4))])
        clus = random_clustering(rng, g)
        dg = random_graph(rng, rng.randint(2, 5), p=0.6, directed=rng.random() < 0.5)
        clique_delta(multi, max_dim=3)
        primary_vertex_deletion(fam)
        secondary_vertex_deletion(fam)
        partition_faces(fam, clus)
        link_blowup_faces(fam, clus)
        starting_vertex_faces([random_marked_member(rng, dg) for _ in range(2)], dg)
    assert len(compared) == 36
    assert sum(len(counts) > 2 for counts in compared) >= 12
