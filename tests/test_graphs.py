"""Graph model and the classical complexes."""

import itertools
import random

import pytest

from superph import (MultiGraph, Subgraph, VertexOrder, clique_delta, cliques,
                     completion, is_subgraph, neighborhood_complex,
                     path_complex)
from superph.delta import cell_sort_key

from oracles import scan_edges_between, scan_has_edge_between, scan_neighbors


def path_graph():
    return MultiGraph(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")})


def triangle_graph():
    return MultiGraph([1, 2, 3], {"a": (1, 2), "b": (2, 3), "c": (1, 3)})


def parallel_pair():
    return MultiGraph(["v", "w"], {"e1": ("v", "w"), "e2": ("v", "w")})


# ---------------------------------------------------------------------------
# subgraphs
# ---------------------------------------------------------------------------

def test_is_subgraph_full_and_empty():
    g = triangle_graph()
    assert is_subgraph(g.full(), g)
    assert is_subgraph(g.subgraph((), ()), g)


def test_subgraph_requires_endpoints():
    g = triangle_graph()
    with pytest.raises(ValueError):
        Subgraph(g, {1}, {"a"})


def test_subgraph_canonical_key_deduplicates():
    g = triangle_graph()
    s1 = g.subgraph({1, 2}, {"a"})
    s2 = g.subgraph([2, 1], ["a"])
    assert s1 == s2 and hash(s1) == hash(s2)


# ---------------------------------------------------------------------------
# the endpoint-pair index against scans of the incidence map
# ---------------------------------------------------------------------------

MIXED_VERTICES = (0, 1, 2, 10, "a", "b", "z", (0, "x"), ("t", 1), (2,))


def random_multigraph(rng, directed):
    """Mixed int/str/tuple vertex and edge ids, with loops and parallel
    edges more likely than in a uniform draw."""
    vs = rng.sample(MIXED_VERTICES, rng.randint(1, 7))
    edges = {}
    for k in range(rng.randint(0, 16)):
        eid = rng.choice((k, f"e{k}", ("e", k), (k, "p")))
        if rng.random() < 0.3 and edges:
            u, v = rng.choice(list(edges.values()))  # a parallel edge
            if not directed and rng.random() < 0.5:
                u, v = v, u
        elif rng.random() < 0.2:
            u = v = rng.choice(vs)  # a loop
        else:
            u, v = rng.choice(vs), rng.choice(vs)
        edges[eid] = (u, v)
    return MultiGraph(vs, edges, directed=directed)


def random_multigraph_subgraph(rng, g):
    vs = {v for v in g.vertices if rng.random() < 0.6}
    es = [e for e, (u, w) in g.edge_ends.items()
          if u in vs and w in vs and rng.random() < 0.6]
    return Subgraph(g, vs, es)


@pytest.mark.parametrize("directed", [False, True])
def test_edge_index_matches_scan(directed):
    rng = random.Random(5 + directed)
    loops = parallels = 0
    for _ in range(60):
        g = random_multigraph(rng, directed)
        ends = list(g.edge_ends.values())
        loops += sum(u == v for u, v in ends)
        parallels += len(ends) - len(set(ends))
        subs = [random_multigraph_subgraph(rng, g) for _ in range(3)]
        probe = sorted(g.vertices, key=cell_sort_key) + ["absent"]
        for u, v in itertools.product(probe, repeat=2):
            assert g.edges_between(u, v) == scan_edges_between(g, u, v), (g, u, v)
            for sub in subs:
                assert sub.has_edge_between(u, v) == scan_has_edge_between(sub, u, v)
        for v in g.vertices:
            assert g.neighbors(v) == scan_neighbors(g, v)
        for sub in subs:
            scanned = [e for e, (u, w) in g.edge_ends.items()
                       if u in sub.vertices and w in sub.vertices]
            assert g.induced(sub.vertices).edges == frozenset(scanned)
    assert loops and parallels


@pytest.mark.parametrize("directed", [False, True])
def test_subgraph_key_matches_cell_sort_key(directed):
    rng = random.Random(7 + directed)
    for _ in range(60):
        g = random_multigraph(rng, directed)
        for sub in [g.full(), g.subgraph((), ())] + \
                [random_multigraph_subgraph(rng, g) for _ in range(4)]:
            assert sub.key == (tuple(sorted(sub.vertices, key=cell_sort_key)),
                               tuple(sorted(sub.edges, key=cell_sort_key)))


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------

def test_cliques_triangle():
    got = cliques(triangle_graph(), 3)
    sizes = sorted(len(c.vertices) for c in got)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]


def test_cliques_parallel_edges_distinct():
    got = cliques(parallel_pair(), 2)
    two = [c for c in got if len(c.vertices) == 2]
    assert len(two) == 2
    assert {tuple(sorted(c.edges)) for c in two} == {("e1",), ("e2",)}


def test_cliques_path_no_triangle():
    got = cliques(path_graph(), 3)
    assert all(len(c.vertices) <= 2 for c in got)
    assert sorted(c.key[0] for c in got) == [("a",), ("a", "b"), ("b",),
                                             ("b", "c"), ("c",)]


def test_cliques_reject_directed():
    dg = MultiGraph(["a", "b"], {"e": ("a", "b")}, directed=True)
    with pytest.raises(ValueError):
        cliques(dg, 2)


def test_loops_never_in_cliques():
    g = MultiGraph(["a", "b"], {"e": ("a", "b"), "loop": ("a", "a")})
    got = cliques(g, 3)
    assert all("loop" not in c.edges for c in got)


# ---------------------------------------------------------------------------
# clique Δ-set
# ---------------------------------------------------------------------------

def test_clique_delta_parallel_pair():
    ds = clique_delta(parallel_pair(), max_dim=2)
    assert ds.counts == (2, 2)
    assert ds.faces[1][0] == ds.faces[1][1]
    assert ds.validate().ok


def test_clique_delta_k3_is_two_simplex():
    ds = clique_delta(triangle_graph(), max_dim=2)
    assert ds.counts == (3, 3, 1)
    assert ds.validate().ok


def test_clique_delta_four_cycle():
    g = MultiGraph([0, 1, 2, 3], {"a": (0, 1), "b": (1, 2), "c": (2, 3), "d": (0, 3)})
    ds = clique_delta(g, max_dim=3)
    assert ds.counts == (4, 4)


def test_clique_delta_cells_biject_with_cliques(rng):
    for _ in range(10):
        n = rng.randint(1, 5)
        edges = {}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.6:
                edges[f"e{i}{j}"] = (i, j)
        g = MultiGraph(range(n), edges)
        ds = clique_delta(g, max_dim=4)
        by_size = {}
        for c in cliques(g, 5):
            by_size[len(c.vertices) - 1] = by_size.get(len(c.vertices) - 1, 0) + 1
        for dim in range(ds.dim_count):
            assert ds.counts[dim] == by_size.get(dim, 0)
        assert ds.validate().ok


# ---------------------------------------------------------------------------
# neighborhood complex
# ---------------------------------------------------------------------------

def test_neighborhood_path():
    got = neighborhood_complex(path_graph())
    assert set(got) == {frozenset(s) for s in [("a", "c"), ("a",), ("b",), ("c",)]}


def test_neighborhood_isolated_vertex():
    g = MultiGraph(["a"], {})
    assert neighborhood_complex(g) == []


def test_neighborhood_k3():
    got = set(neighborhood_complex(triangle_graph()))
    expect = {frozenset(s) for s in [(1, 2), (1, 3), (2, 3), (1,), (2,), (3,)]}
    assert got == expect


def test_neighborhood_closed_under_subsets(rng):
    for _ in range(10):
        n = rng.randint(2, 6)
        edges = {}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                edges[f"e{i}{j}"] = (i, j)
        got = set(neighborhood_complex(MultiGraph(range(n), edges)))
        for s in got:
            for v in s:
                if len(s) > 1:
                    assert s - {v} in got


# ---------------------------------------------------------------------------
# path complex
# ---------------------------------------------------------------------------

def test_path_complex_single_edge():
    g = MultiGraph(["a", "b"], {"e": ("a", "b")}, directed=True)
    sh = path_complex(g, 1)
    marked = {sh.x.label(*c).key for c in sh.h.cells()}
    assert (("a", "b"), ("e",)) in marked
    assert len(sh.h.at(0)) == 2 and len(sh.h.at(1)) == 1


def test_path_complex_missing_shortcut():
    g = MultiGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")},
                   directed=True)
    sh = path_complex(g, 2)
    (j,) = sh.h.at(2)
    # d1 deletes the middle vertex: lands in the parental set, not in H
    face = (1, sh.x.faces[2][j][1])
    assert face not in sh.h
    lab = sh.x.label(*face)
    assert lab.key[0] == ("a", "c")


def test_path_complex_diamond():
    g = MultiGraph("abcd", {"e1": ("a", "b"), "e2": ("b", "d"),
                            "e3": ("a", "c"), "e4": ("c", "d")}, directed=True)
    sh = path_complex(g, 2)
    two = {sh.x.label(2, j).key[0] for j in sh.h.at(2)}
    assert two == {("a", "b", "d"), ("a", "c", "d")}


def test_path_complex_rejects_undirected_or_multi():
    with pytest.raises(ValueError):
        path_complex(path_graph(), 2)
    dg = MultiGraph(["a", "b"], {"e1": ("a", "b"), "e2": ("a", "b")}, directed=True)
    with pytest.raises(ValueError):
        path_complex(dg, 1)


def test_path_complex_validates_exhaustively(rng):
    # every simple digraph on 3 vertices (all 64 arc subsets), then random
    # larger instances up to 6 vertices
    pairs = list(itertools.permutations(range(3), 2))
    for mask in range(1 << len(pairs)):
        edges = {f"e{i}{j}": (i, j)
                 for k, (i, j) in enumerate(pairs) if mask >> k & 1}
        sh = path_complex(MultiGraph(range(3), edges, directed=True), 2)
        assert sh.x.validate().ok
    for _ in range(6):
        n = rng.randint(4, 6)
        edges = {}
        for i, j in itertools.permutations(range(n), 2):
            if rng.random() < 0.4:
                edges[f"e{i}{j}"] = (i, j)
        g = MultiGraph(range(n), edges, directed=True)
        assert path_complex(g, 3).x.validate().ok


def test_path_homology_of_directed_cycle_and_path():
    from superph import GF2, QQ, embedded_betti
    cyc = MultiGraph("abc", {"e1": ("a", "b"), "e2": ("b", "c"),
                             "e3": ("c", "a")}, directed=True)
    assert embedded_betti(path_complex(cyc, 2), QQ) == (1, 1, 0)
    line = MultiGraph("abc", {"e1": ("a", "b"), "e2": ("b", "c")}, directed=True)
    assert embedded_betti(path_complex(line, 2), GF2) == (1, 0, 0)


def test_completion_has_all_ordered_pairs():
    g = MultiGraph(["a", "b", "c"], {"e1": ("a", "b")}, directed=True)
    comp = completion(g)
    assert comp.is_simple()
    assert len(comp.edge_ends) == 6
    assert "e1" in comp.edge_ends


def test_vertex_order_rejects_duplicates():
    with pytest.raises(ValueError):
        VertexOrder(["a", "a"])
