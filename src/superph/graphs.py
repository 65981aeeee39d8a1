"""Directed/undirected multigraphs, subgraphs, and the classical complexes
built from them (clique Δ-set, neighborhood complex, path complex)."""

from __future__ import annotations

from itertools import combinations, product
from typing import Hashable, Iterable, Mapping

from .delta import (DeltaSet, GradedSubset, SuperHypergraph, cell_sort_key,
                    close_under_faces, tuple_faces, tuple_grade)


class MultiGraph:
    """A (multi-)graph: vertex ids, edge ids and an incidence map
    edge -> (initial vertex, terminal vertex).  For undirected graphs the
    incidence pair is treated as unordered.

    Built once per graph: the edges joining each endpoint pair (both orders
    when undirected), out- and in-adjacency, and the rank of every vertex
    and edge id in `cell_sort_key` order.  A subgraph's `key` lists its ids
    in rank order and its `sort_key` is its sorted ranks, so building either
    compares no ids.  The vertex-deletion face maps delete a subgraph's
    vertices in the same rank order."""

    __slots__ = ("vertices", "edge_ends", "directed", "_adj", "_in_adj",
                 "_between", "_vrank", "_erank")

    def __init__(self, vertices: Iterable[Hashable],
                 edges: Mapping[Hashable, tuple[Hashable, Hashable]],
                 directed: bool = False):
        self.vertices = frozenset(vertices)
        ends = {}
        for e, (u, v) in dict(edges).items():
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge {e!r} has endpoint outside the vertex set")
            ends[e] = (u, v)
        self.edge_ends = ends
        self.directed = bool(directed)
        self._vrank = {v: i for i, v in
                       enumerate(sorted(self.vertices, key=cell_sort_key))}
        self._erank = {e: i for i, e in enumerate(sorted(ends, key=cell_sort_key))}
        adj: dict[Hashable, set] = {v: set() for v in self.vertices}
        in_adj = {v: set() for v in self.vertices} if self.directed else adj
        between: dict[tuple, list] = {}
        for e, (u, v) in ends.items():
            between.setdefault((u, v), []).append(e)
            if u != v:
                adj[u].add(v)
                in_adj[v].add(u)
                if not self.directed:
                    between.setdefault((v, u), []).append(e)
        self._adj = adj
        self._in_adj = in_adj
        self._between = {pair: tuple(sorted(es, key=self._erank.__getitem__))
                         for pair, es in between.items()}

    @property
    def edges(self) -> frozenset:
        return frozenset(self.edge_ends)

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edge_ends.values():
            if u == v:
                return False
            key = (u, v) if self.directed else frozenset((u, v))
            if key in seen:
                return False
            seen.add(key)
        return True

    def neighbors(self, v) -> set:
        """Adjacent vertices ignoring direction and loops."""
        return self._adj[v] | self._in_adj[v]

    def edges_between(self, u, v) -> list:
        """Edge ids joining u and v (from u to v when directed), sorted."""
        return list(self._between.get((u, v), ()))

    def subgraph(self, vertices: Iterable, edges: Iterable) -> "Subgraph":
        return Subgraph(self, vertices, edges)

    def induced(self, vertices: Iterable) -> "Subgraph":
        vs = frozenset(vertices)
        between = self._between
        es = [e for u in vs for v in vs for e in between.get((u, v), ())]
        return Subgraph(self, vs, es)

    def full(self) -> "Subgraph":
        return Subgraph(self, self.vertices, self.edge_ends)

    @classmethod
    def complete(cls, vertices: Iterable[Hashable]) -> "MultiGraph":
        """Complete simple undirected graph with deterministic edge ids."""
        vs = sorted(set(vertices), key=cell_sort_key)
        edges = {}
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                edges[("k", vs[i], vs[j])] = (vs[i], vs[j])
        return cls(vs, edges, directed=False)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"MultiGraph({kind}, |V|={len(self.vertices)}, |E|={len(self.edge_ends)})"


class Subgraph:
    """A subgraph of a host graph: vertex and edge subsets with the host's
    incidence restricted; every endpoint of a selected edge is selected.

    Identity is the pair of id sets: two subgraphs are equal, and hash
    alike, when their vertex and edge ids are, whatever their hosts.  The
    canonical encoding `key` and the `cell_sort_key` value `sort_key` are
    built from the host's ranks on first read and cached, so a subgraph
    that is only looked up in a set of cells never builds them."""

    __slots__ = ("host", "vertices", "edges", "_key", "_sort_key")

    def __init__(self, host: MultiGraph, vertices: Iterable, edges: Iterable = ()):
        self.host = host
        self.vertices = vs = frozenset(vertices)
        self.edges = frozenset(edges)
        if not vs <= host.vertices:
            raise ValueError("subgraph vertices not in host")
        for e in self.edges:
            u, v = host.edge_ends[e]
            if u not in vs or v not in vs:
                raise ValueError(f"edge {e!r} selected without its endpoints")
        self._key = self._sort_key = None

    @property
    def key(self) -> tuple:
        """Canonical encoding (sorted vertex ids, sorted edge ids), in
        `cell_sort_key` order of the ids; built on first read."""
        if self._key is None:
            host = self.host
            self._key = (tuple(sorted(self.vertices, key=host._vrank.__getitem__)),
                         tuple(sorted(self.edges, key=host._erank.__getitem__)))
        return self._key

    @property
    def sort_key(self) -> tuple:
        """(4, sorted vertex ranks, sorted edge ranks) in the host; built on
        first read.  Among subgraphs of one host this orders as `key` does
        under `cell_sort_key`, since the ranks follow that order."""
        if self._sort_key is None:
            vrank, erank = self.host._vrank, self.host._erank
            self._sort_key = (4, tuple(sorted([vrank[v] for v in self.vertices])),
                              tuple(sorted([erank[e] for e in self.edges])))
        return self._sort_key

    def delete_vertex(self, v) -> "Subgraph":
        """Remove v together with all incident edges."""
        keep = self.vertices - {v}
        es = [e for e in self.edges if v not in self.host.edge_ends[e]]
        return Subgraph(self.host, keep, es)

    def restrict(self, vertices: Iterable) -> "Subgraph":
        """Induced subgraph of self on a vertex subset."""
        vs = frozenset(vertices) & self.vertices
        es = [e for e in self.edges
              if self.host.edge_ends[e][0] in vs and self.host.edge_ends[e][1] in vs]
        return Subgraph(self.host, vs, es)

    def add_edges(self, edges: Iterable) -> "Subgraph":
        return Subgraph(self.host, self.vertices, self.edges | frozenset(edges))

    def out_neighbors_in(self, vs: Iterable) -> set:
        """Vertices of self reachable by one (directed) edge from the set vs."""
        vs = set(vs)
        out = set()
        for e in self.edges:
            u, w = self.host.edge_ends[e]
            if u in vs and w not in vs:
                out.add(w)
            if not self.host.directed and w in vs and u not in vs:
                out.add(u)
        return out

    def has_edge_between(self, u, v) -> bool:
        """True iff self has an edge from u to v (between, when undirected)."""
        return any(e in self.edges for e in self.host._between.get((u, v), ()))

    def __eq__(self, other):
        return (isinstance(other, Subgraph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        vs, es = self.key
        return f"Subgraph(V={vs}, E={es})"


def is_subgraph(h: Subgraph, g: MultiGraph) -> bool:
    """Containment plus incidence restriction."""
    if not (h.vertices <= g.vertices and h.edges <= g.edges):
        return False
    for e in h.edges:
        u, v = h.host.edge_ends[e]
        if g.edge_ends[e] != (u, v):
            return False
        if u not in h.vertices or v not in h.vertices:
            return False
    return True


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------

def cliques(g: MultiGraph, max_size: int) -> list[Subgraph]:
    """All complete subgraphs with at most max_size vertices.

    A clique cell is a vertex set plus one chosen edge per unordered pair;
    on multigraphs every combination of edge choices is a distinct clique
    (distinct cells sharing the same vertices).  Loops never participate.
    Enumeration is lexicographic in (vertex set, edge choices).
    """
    if g.directed:
        raise ValueError("cliques are defined for undirected graphs")
    vs = sorted(g.vertices, key=cell_sort_key)
    pos = {v: i for i, v in enumerate(vs)}
    vertex_sets: list[tuple] = []

    def extend(current: tuple):
        vertex_sets.append(current)
        if len(current) >= max_size:
            return
        last = pos[current[-1]]
        for w in vs[last + 1:]:
            if all(w in g._adj[u] for u in current):
                extend(current + (w,))

    for v in vs:
        extend((v,))

    return [Subgraph(g, vset, combo) for vset in vertex_sets
            for combo in product(*(g.edges_between(a, b)
                                   for a, b in combinations(vset, 2)))]


def vertex_deletion_grade(sub: Subgraph) -> int:
    """Grade of a subgraph under vertex deletion: its vertex count minus one."""
    return len(sub.vertices) - 1


def vertex_deletion_faces(sub: Subgraph) -> list[Subgraph]:
    """d_i deletes the i-th vertex, in the host's rank order, together with
    its incident edges."""
    return [sub.delete_vertex(v) for v in sorted(sub.vertices, key=sub.host._vrank.__getitem__)]


def clique_delta(g: MultiGraph, max_dim: int = 3) -> DeltaSet:
    """Δ-set whose n-cells are the (n+1)-vertex cliques; d_i deletes the i-th
    vertex in the host's rank order with its incident edges."""
    if g.directed:
        raise ValueError("clique Δ-set is defined for undirected graphs")
    if max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    ds, _ = close_under_faces(cliques(g, max_dim + 1), vertex_deletion_grade,
                              vertex_deletion_faces)
    return ds


# ---------------------------------------------------------------------------
# Neighborhood complex
# ---------------------------------------------------------------------------

def neighborhood_complex(g: MultiGraph) -> list[frozenset]:
    """Simplices are vertex sets whose members are all adjacent to a common
    other vertex; closed under nonempty subsets by construction.  Every
    nonempty subset of each neighbourhood is listed, with no dimension
    bound, so a vertex of degree k alone gives 2^k - 1 simplices.  The CLI
    builds the same Δ-set as the closure of the neighbourhoods themselves
    (`delta.from_hypergraph`), without listing the subsets."""
    simplices: set[frozenset] = set()
    for w in g.vertices:
        nb = sorted(g.neighbors(w) - {w}, key=cell_sort_key)
        n = len(nb)
        for mask in range(1, 1 << n):
            simplices.add(frozenset(nb[i] for i in range(n) if mask >> i & 1))
    return sorted(simplices, key=cell_sort_key)


# ---------------------------------------------------------------------------
# Path complex
# ---------------------------------------------------------------------------

def completion(g: MultiGraph) -> MultiGraph:
    """Smallest complete simple digraph containing a simple digraph g.

    Between every ordered pair of distinct vertices there is exactly one
    edge: g's own edge when present, else a synthetic ("inf", u, v) edge.
    """
    if not g.directed or not g.is_simple():
        raise ValueError("completion requires a simple digraph")
    edges = dict(g.edge_ends)
    present = {ends for ends in g.edge_ends.values()}
    for u in g.vertices:
        for v in g.vertices:
            if u != v and (u, v) not in present:
                edges[("inf", u, v)] = (u, v)
    return MultiGraph(g.vertices, edges, directed=True)


def path_subgraph(host: MultiGraph, seq: tuple) -> Subgraph:
    """The subgraph of a complete simple digraph traced by a vertex sequence."""
    edges = []
    for a, b in zip(seq, seq[1:]):
        es = host.edges_between(a, b)
        if not es:
            raise ValueError(f"no edge {a!r} -> {b!r} in host")
        edges.append(es[0])
    return Subgraph(host, seq, edges)


def path_complex(g: MultiGraph, max_len: int) -> SuperHypergraph:
    """Directed paths of a simple digraph inside the path Δ-set of its
    completion.

    Parental cells in dimension k are the injective vertex sequences of
    length k+1 (k <= max_len), i.e. the directed paths of the completion;
    d_i deletes the i-th vertex.  Marked cells are the sequences whose every
    consecutive pair is an edge of g: the directed paths of g itself.
    Embedded homology of the result is the path homology input.
    """
    if not g.directed or not g.is_simple():
        raise ValueError("path complex requires a simple digraph")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    comp = completion(g)
    vs = sorted(g.vertices, key=cell_sort_key)

    sequences: list[tuple] = []

    def extend(seq: tuple):
        sequences.append(seq)
        if len(seq) > max_len:
            return
        for w in vs:
            if w not in seq:
                extend(seq + (w,))

    for v in vs:
        extend((v,))

    ds, _ = close_under_faces(sequences, tuple_grade, tuple_faces)

    edge_set = {ends: e for e, ends in g.edge_ends.items()}
    marked_cells = []
    for n, j in ds.cells():
        seq = ds.label(n, j)
        if all((a, b) in edge_set for a, b in zip(seq, seq[1:])):
            marked_cells.append((n, j))
    labels = [[path_subgraph(comp, ds.label(n, j)) for j in range(ds.counts[n])]
              for n in range(ds.dim_count)]
    return SuperHypergraph(ds.with_labels(labels), GradedSubset.from_cells(marked_cells))
