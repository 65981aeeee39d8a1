"""Face-operation constructors: examples plus closure/identity oracles."""

import itertools
import random

import pytest

from superph import (Clustering, MarkedSubgraph, MultiGraph, Subgraph, SubgraphFamily,
                     cliques, clique_delta, edge_deletion_complex,
                     extend_graph, link_blowup_faces, partition_faces,
                     primary_vertex_deletion, secondary_vertex_deletion,
                     starting_vertex_faces)
from superph.delta import GradedSubset, cell_sort_key, full_subset
from superph.faceops import bfs_layers

from oracles import (brute_cliques, brute_primary_closure_keys, cluster_grade,
                     link_blowup_face_map, partition_face_map, restrict,
                     secondary_deletion_faces, starting_vertex_face_map,
                     starting_vertex_grade, subgraph_bfs_layers,
                     two_pass_close_under_faces, vertex_deletion_faces,
                     vertex_deletion_grade)
from test_graphs import random_multigraph


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
    ordered = sorted(g.vertices, key=cell_sort_key)
    vs = [v for v in ordered if rng.random() < 0.7]
    if not vs:
        vs = ordered[:1]
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


def test_clique_delta_is_primary_deletion_of_cliques():
    # one face map: the clique Δ-set is the primary vertex-deletion closure
    # of the cliques, with the same counts, faces and labels
    rng = random.Random(15)
    for _ in range(40):
        g = random_multigraph(rng, directed=False)
        k = rng.randint(0, 3)
        x = clique_delta(g, max_dim=k)
        sh = primary_vertex_deletion(SubgraphFamily(g, cliques(g, k + 1)))
        assert sh.x == x and sh.x.labels == x.labels
        assert len(sh.h) == x.total_cells()


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
    keys = brute_primary_closure_keys(list(fam))
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
        keys = brute_primary_closure_keys(list(fam))
        got = {sh.x.label(n, j).key for n, j in sh.x.cells()}
        assert got == keys


def test_primary_rejects_empty_member():
    g = k4()
    with pytest.raises(ValueError):
        primary_vertex_deletion(SubgraphFamily(g, [g.subgraph((), ())]))


# ---------------------------------------------------------------------------
# the face order of the vertex deletions
# ---------------------------------------------------------------------------

def mixed_id_host():
    # int and string ids, vertices and edges inserted out of `cell_sort_key`
    # order; simple, with the pairs {1, "c"} and {"a", 10} left out
    vertices = ["b", 10, "a", 2, "c", 1]
    pairs = [(u, v) for u, v in itertools.combinations(vertices, 2)
             if {u, v} not in ({1, "c"}, {"a", 10})]
    random.Random(3).shuffle(pairs)
    return MultiGraph(vertices, {f"e{u}{v}": (u, v) for u, v in pairs})


def expected_face(host, label, i, bridge):
    """The label with its i-th vertex, in `cell_sort_key` order of the ids,
    deleted with its edges, plus the host edge joining its two neighbors in
    that order when bridge is set."""
    ordered = sorted(label.vertices, key=cell_sort_key)
    v = ordered[i]
    edges = {e for e in label.edges if v not in host.edge_ends[e]}
    if bridge and 0 < i < len(ordered) - 1:
        edges |= set(host.edges_between(ordered[i - 1], ordered[i + 1]))
    return label.vertices - {v}, edges


@pytest.mark.parametrize("construction", ["clique", "primary", "secondary"])
def test_vertex_deletion_faces_follow_the_id_order(construction):
    host = mixed_id_host()
    members = [host.full(), host.induced({"b", 2, "c", 1}),
               host.subgraph({"b", 10, 2, 1}, host.edges_between(1, 2)
                             + host.edges_between(10, "b"))]
    if construction == "clique":
        x = clique_delta(host, max_dim=5)
    elif construction == "primary":
        x = primary_vertex_deletion(SubgraphFamily(host, members)).x
    else:
        x = secondary_vertex_deletion(SubgraphFamily(host, members)).x
    checked = 0
    for n in range(1, x.dim_count):
        for j in range(x.counts[n]):
            label = x.label(n, j)
            for i, t in enumerate(x.faces[n][j]):
                face = x.label(n - 1, t)
                assert (face.vertices, face.edges) == \
                    expected_face(host, label, i, construction == "secondary")
                checked += 1
    assert checked > 50


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
        n = cluster_grade(clus)(member)
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


def test_extend_graph_rejects_an_edge_id_of_a_formal_edge():
    # g's edge a -> b carries the id of the formal a -> c edge, which would
    # silently replace it and leave c unreachable in a valid member
    g = MultiGraph("abc", {("inf", "a", "c"): ("a", "b"), "e2": ("b", "c")}, directed=True)
    with pytest.raises(ValueError, match="'inf', 'a', 'c'"):
        extend_graph(g)
    member = MarkedSubgraph(g.full(), frozenset("a"))
    with pytest.raises(ValueError, match="'inf', 'a', 'c'"):
        starting_vertex_faces([member], g)
    gu = MultiGraph("ab", {("inf", "a", "b"): ("a", "b")})
    with pytest.raises(ValueError, match="formal"):
        extend_graph(gu)


# ---------------------------------------------------------------------------
# the one-pass face closure against the two-pass oracle
# ---------------------------------------------------------------------------

def random_marked_member(rng, g):
    """A random subgraph cut down to what its first vertex reaches."""
    sub = random_subgraph(rng, g)
    sv = frozenset(sorted(sub.vertices, key=cell_sort_key)[:1])
    return MarkedSubgraph(restrict(sub, set().union(*subgraph_bfs_layers(sub, sv))), sv)


def random_clustering(rng, g):
    blocks = {}
    for v in sorted(g.vertices, key=cell_sort_key):
        blocks.setdefault(rng.randint(0, 2), []).append(v)
    return Clustering(g, list(blocks.values()))


def assert_matches_oracle(x, marked, seeds, grade, face_fn, marks=None):
    """A construction's Δ-set and marks against the two-pass oracle's
    closure of its seeds under a `Subgraph` face map of `oracles`, whose
    cell order compares ids: counts, faces, label keys and marks.  The
    oracle's marks are marks(its Δ-set) when given, else its seeds."""
    want_x, want_marked = two_pass_close_under_faces(seeds, grade, face_fn)
    assert x.counts == want_x.counts and x.faces == want_x.faces
    assert [[lab.key for lab in row] for row in x.labels] == \
        [[lab.key for lab in row] for row in want_x.labels]
    assert marked == (want_marked if marks is None else marks(want_x))


def formal_free_cells(x):
    """The cells of a starting-vertex Δ-set whose labels carry no formal
    ("inf", u, v) edge."""
    return GradedSubset.from_cells(
        (n, j) for n, j in x.cells()
        if not any(isinstance(e, tuple) and e[0] == "inf" for e in x.label(n, j).subgraph.edges))


def compare_with_two_pass_oracle():
    """A function running the six constructions on its arguments, each
    checked by `assert_matches_oracle`; starting-vertex faces are closed
    over their members rebuilt on the extension Ĝ, and marked where they
    carry no formal ∞ edge.  Returns the function and the list of compared
    Δ-set shapes."""
    compared = []

    def check(x, marked, seeds, grade, face_fn, marks=None):
        assert_matches_oracle(x, marked, seeds, grade, face_fn, marks)
        compared.append(x.counts)

    def run(clique_host, fam, secondary_fam, clus, sv_members, sv_host):
        x = clique_delta(clique_host, max_dim=3)
        check(x, full_subset(x), brute_cliques(clique_host, 4),
              vertex_deletion_grade, vertex_deletion_faces)
        sh = primary_vertex_deletion(fam)
        check(sh.x, sh.h, fam.members, vertex_deletion_grade, vertex_deletion_faces)
        sh = secondary_vertex_deletion(secondary_fam)
        check(sh.x, sh.h, secondary_fam.members, vertex_deletion_grade,
              secondary_deletion_faces)
        sh = partition_faces(fam, clus)
        check(sh.x, sh.h, fam.members, cluster_grade(clus), partition_face_map(clus))
        sh = link_blowup_faces(fam, clus)
        check(sh.x, sh.h, fam.members, cluster_grade(clus), link_blowup_face_map(clus))
        sh = starting_vertex_faces(sv_members, sv_host)
        ghat = extend_graph(sv_host)
        seeds = [MarkedSubgraph(Subgraph(ghat, m.subgraph.vertices, m.subgraph.edges), m.sv)
                 for m in sv_members]
        check(sh.x, sh.h, seeds, starting_vertex_grade, starting_vertex_face_map(ghat),
              formal_free_cells)

    return run, compared


def test_close_under_faces_matches_two_pass_oracle():
    run, compared = compare_with_two_pass_oracle()
    rng = random.Random(0xFACE)
    for _ in range(6):
        g = random_graph(rng, rng.randint(3, 6), p=0.6)
        multi = MultiGraph(g.vertices, {**g.edge_ends, **{
            ("p", e): ends for e, ends in g.edge_ends.items() if rng.random() < 0.3}})
        fam = SubgraphFamily(g, [random_subgraph(rng, g) for _ in range(rng.randint(1, 4))])
        clus = random_clustering(rng, g)
        dg = random_graph(rng, rng.randint(2, 5), p=0.6, directed=rng.random() < 0.5)
        run(multi, fam, fam, clus, [random_marked_member(rng, dg) for _ in range(2)], dg)
    assert len(compared) == 36
    assert sum(len(counts) > 2 for counts in compared) >= 12


def simple_part(g):
    """The first edge of each unordered pair of distinct vertices of g."""
    edges, pairs = {}, set()
    for e in sorted(g.edge_ends, key=cell_sort_key):
        u, v = g.edge_ends[e]
        if u != v and frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            edges[e] = (u, v)
    return MultiGraph(g.vertices, edges)


def test_close_under_faces_matches_two_pass_oracle_on_mixed_ids():
    # int, str and tuple ids, loops and parallel edges; some members are
    # built on a smaller host object, whose ranks differ from the family's
    run, compared = compare_with_two_pass_oracle()
    rng = random.Random(0xD1CE)
    hosts = 0
    while hosts < 6:
        g = random_multigraph(rng, directed=False)
        if len(g.vertices) < 3 or not g.edge_ends:
            continue
        hosts += 1
        part = g.induced(sorted(g.vertices, key=cell_sort_key)[1:])
        small = MultiGraph(part.vertices, {e: g.edge_ends[e] for e in
                                           sorted(part.edges, key=cell_sort_key)})
        members = [random_subgraph(rng, g) for _ in range(rng.randint(1, 3))]
        members.append(random_subgraph(rng, small))
        fam = SubgraphFamily(g, members)
        simple = simple_part(g)
        simple_fam = SubgraphFamily(simple, [random_subgraph(rng, simple)
                                             for _ in range(rng.randint(1, 4))])
        clus = random_clustering(rng, g)
        dg = random_multigraph(rng, directed=True)
        run(g, fam, simple_fam, clus, [random_marked_member(rng, dg) for _ in range(2)], dg)
    assert len(compared) == 36
    assert sum(len(counts) > 2 for counts in compared) >= 12


def test_secondary_matches_oracle_on_directed_hosts():
    # simple digraphs, often with both u -> v and v -> u, and members that
    # drop host edges: a bridge is only the host edge from v_{i-1} to v_{i+1}
    rng = random.Random(0xB1D6)
    shapes = 0
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 6), p=0.6, directed=True)
        fam = SubgraphFamily(g, [random_subgraph(rng, g) for _ in range(rng.randint(1, 4))])
        sh = secondary_vertex_deletion(fam)
        assert_matches_oracle(sh.x, sh.h, fam.members, vertex_deletion_grade,
                              secondary_deletion_faces)
        shapes += len(sh.x.counts) > 2
    assert shapes >= 6


def test_secondary_bridge_follows_the_edge_direction():
    # 1 -> 2 -> 3 with 3 -> 1 in the host: deleting 2 adds no edge, since
    # the host has none from 1 to 3
    g = MultiGraph([1, 2, 3], {"a": (1, 2), "b": (2, 3), "c": (3, 1)}, directed=True)
    sh = secondary_vertex_deletion(SubgraphFamily(g, [g.subgraph({1, 2, 3}, ["a", "b"])]))
    faces = [sh.x.label(1, t).key for t in sh.x.faces[2][0]]
    assert faces == [((2, 3), ("b",)), ((1, 3), ()), ((1, 2), ("a",))]
    back = MultiGraph([1, 2, 3], {"a": (1, 2), "b": (2, 3), "c": (1, 3)}, directed=True)
    sh = secondary_vertex_deletion(SubgraphFamily(back, [back.subgraph({1, 2, 3}, ["a", "b"])]))
    assert sh.x.label(1, sh.x.faces[2][0][1]).key == ((1, 3), ("c",))
