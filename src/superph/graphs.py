"""Directed/undirected multigraphs, subgraphs, and the classical complexes
built from them (clique Δ-set, neighborhood complex, path complex).

A `MultiGraph` keeps one index, built at construction: the ranks of its
ids and bitmask tables over them.  Its id lookups decode those masks, and
every construction closes subgraphs as (vertex mask, edge mask) cells over
them, with a third mask, the starting vertices, for a `MarkedSubgraph`.
The Δ-sets keep those cells as their labels, over their host
(`_keep_cells`, which checks each cell's edges as `Subgraph` does), and
`DeltaSet.label` decodes a `Subgraph` or `MarkedSubgraph` only when one
is read."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from .delta import (DeltaSet, GradedSubset, SuperHypergraph, cell_sort_key,
                    close_under_faces, tuple_faces)
from .fields import _ranks


class MultiGraph:
    """A (multi-)graph: vertex ids, edge ids and an incidence map
    edge -> (initial vertex, terminal vertex).  For undirected graphs the
    incidence pair is treated as unordered.

    Built once per graph, its one index: the rank of every vertex and edge
    id in `cell_sort_key` order, the ids by rank, and bitmask tables over
    the ranks, where bit r of a vertex (edge) mask stands for the vertex
    (edge) of rank r.  `_inc[r]` masks the edges incident to vertex r,
    loops included; `_pairs[a, b]` masks the edges from a to b, in both
    orders when undirected; `_nbrs[r]` masks the vertices adjacent to r
    ignoring direction and loops, `_out[r]` those reached from r by an edge
    (`_nbrs` itself when undirected); `_loops` masks the loops, and
    `_ends[r]` the endpoints of edge r.  `neighbors`, `edges_between` and
    `induced` decode these masks, and the constructions close subgraphs as
    masks over them.  A subgraph's `key` lists its ids in rank order and
    its `sort_key` is its sorted ranks, so building either compares no
    ids."""

    __slots__ = ("vertices", "edge_ends", "directed", "_vrank", "_erank", "_vids",
                 "_eids", "_inc", "_pairs", "_nbrs", "_out", "_loops", "_ends")

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
        self._vids = tuple(sorted(self.vertices, key=cell_sort_key))
        self._eids = tuple(sorted(ends, key=cell_sort_key))
        self._vrank = vrank = {v: i for i, v in enumerate(self._vids)}
        self._erank = {e: i for i, e in enumerate(self._eids)}
        self._inc = inc = [0] * len(vrank)
        self._nbrs = nbrs = [0] * len(vrank)
        self._out = out = [0] * len(vrank) if self.directed else nbrs
        self._pairs = pairs = {}
        self._ends = ends_of = [0] * len(self._eids)
        loops = 0
        for r, e in enumerate(self._eids):
            bit = 1 << r
            u, v = ends[e]
            a, b = vrank[u], vrank[v]
            ends_of[r] = 1 << a | 1 << b
            inc[a] |= bit
            inc[b] |= bit
            pairs[a, b] = pairs.get((a, b), 0) | bit
            if a == b:
                loops |= bit
                continue
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
            if self.directed:
                out[a] |= 1 << b
            else:
                pairs[b, a] = pairs.get((b, a), 0) | bit
        self._loops = loops

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
        vids = self._vids
        return {vids[r] for r in _ranks(self._nbrs[self._vrank[v]])}

    def edges_between(self, u, v) -> list:
        """Edge ids joining u and v (from u to v when directed), sorted;
        none when either id is not a vertex."""
        a, b = self._vrank.get(u), self._vrank.get(v)
        if a is None or b is None:
            return []
        eids = self._eids
        return [eids[r] for r in _ranks(self._pairs.get((a, b), 0))]

    def _induced_edges(self, vmask: int) -> int:
        """Mask of the edges with every endpoint in vmask: those met at two
        of its vertices, and its loops."""
        once = twice = 0
        while vmask:
            r = vmask.bit_length() - 1
            m = self._inc[r]
            twice |= once & m
            once |= m
            vmask ^= 1 << r
        return twice | (once & self._loops)

    def subgraph(self, vertices: Iterable, edges: Iterable) -> "Subgraph":
        return Subgraph(self, vertices, edges)

    def _cell_subgraph(self, cell: tuple[int, ...]):
        """The subgraph a (vertex mask, edge mask) cell over these ranks
        stands for, built by the checked constructor, its sort key filled
        in from the ranks; the `MarkedSubgraph` of a cell with a third
        mask, its starting vertices."""
        vr, er = _ranks(cell[0]), _ranks(cell[1])
        sub = Subgraph(self, [self._vids[r] for r in vr], [self._eids[r] for r in er])
        sub._sort_key = (4, vr, er)
        if len(cell) == 3:
            return MarkedSubgraph(sub, frozenset(self._vids[r] for r in _ranks(cell[2])))
        return sub

    def induced(self, vertices: Iterable) -> "Subgraph":
        vs = frozenset(vertices)
        if not vs <= self.vertices:
            raise ValueError("subgraph vertices not in host")
        eids = self._eids
        em = self._induced_edges(_vertex_mask(self, vs))
        return Subgraph(self, vs, [eids[r] for r in _ranks(em)])

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
    if not (h.vertices <= g.vertices and h.edges <= g.edge_ends.keys()):
        return False
    for e in h.edges:
        u, v = h.host.edge_ends[e]
        if g.edge_ends[e] != (u, v):
            return False
        if u not in h.vertices or v not in h.vertices:
            return False
    return True


@dataclass(frozen=True)
class MarkedSubgraph:
    """A subgraph with marked starting-vertices; every vertex must be
    reachable by a (directed) path out of the marked set.  The check runs
    on the subgraph's masks (`_check_reach`), as the starting-vertex
    closure checks each of its cells."""

    subgraph: Subgraph
    sv: frozenset

    def __post_init__(self):
        sub = self.subgraph
        if not self.sv <= sub.vertices:
            raise ValueError("starting vertices must lie in the subgraph")
        _check_reach(sub.host, *_cell_of(sub), _vertex_mask(sub.host, self.sv))

    @property
    def key(self):
        return (self.subgraph.key, tuple(sorted(self.sv, key=cell_sort_key)))

    def __repr__(self):
        # the starting vertices in `cell_sort_key` order, not a frozenset's
        # hash order, so a written cell name is the same in every process
        return f"MarkedSubgraph(subgraph={self.subgraph!r}, sv={self.key[1]!r})"

    @property
    def sort_key(self):
        """`cell_sort_key` order: that of the key, element by element."""
        return cell_sort_key(self.key)


def _layer_masks(host: MultiGraph, em: int, start: int) -> list[int]:
    """The neighborhood-extension partition of the subgraph of host with
    edge mask em from the vertex mask start, as vertex masks: V_0 = start,
    V_{j+1} = the vertices outside the layers so far reached by an edge
    (out of) V_j."""
    if not start:
        return []
    out, pairs = host._out, host._pairs
    layers = [start]
    assigned = start
    while True:
        nxt = 0
        for r in _ranks(layers[-1]):
            for w in _ranks(out[r] & ~assigned):
                if pairs[r, w] & em:
                    nxt |= 1 << w
        if not nxt:
            return layers
        layers.append(nxt)
        assigned |= nxt


def _check_reach(host: MultiGraph, vm: int, em: int, sm: int) -> None:
    """The check of a `MarkedSubgraph` on its cell over host's ranks, with
    its starting vertices sm inside its vertices vm: ValueError unless sm
    is nonempty when vm is and every vertex is reached out of sm."""
    if vm and not sm:
        raise ValueError("nonempty subgraph needs at least one starting vertex")
    covered = 0
    for layer in _layer_masks(host, em, sm):
        covered |= layer
    if covered != vm:
        missing = [host._vids[r] for r in _ranks(vm & ~covered)]
        raise ValueError(f"vertices unreachable from the starting set: {missing}")


# ---------------------------------------------------------------------------
# Subgraphs as rank bitmasks
# ---------------------------------------------------------------------------

def _union(table: list[int], mask: int) -> int:
    """The union of table[r] over the set bits r of mask."""
    out = 0
    while mask:
        r = mask.bit_length() - 1
        out |= table[r]
        mask ^= 1 << r
    return out


def _vertex_mask(host: MultiGraph, vertices: Iterable) -> int:
    """The mask of host vertex ids over the host's ranks."""
    vrank = host._vrank
    return sum(1 << vrank[v] for v in vertices)


def _rank_key(cell: tuple[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The order key of a closure of (vertex mask, edge mask) cells: the
    sorted ranks of each mask, which orders the cells as the `sort_key`s
    of the subgraphs they stand for."""
    return (_ranks(cell[0]), _ranks(cell[1]))


def _rank_order(cells: Iterable[tuple], key=_rank_key) -> list[tuple]:
    """`sorted(cells, key=key)` for distinct mask cells and a key that
    starts with the ranks of the vertex mask (`_rank_key`,
    `faceops._start_key`): the cells by their vertex ranks alone, and by
    the whole key only when two of them share a vertex mask."""
    out = sorted(cells, key=lambda cell: _ranks(cell[0]))
    if len(set(map(itemgetter(0), out))) < len(out):
        out.sort(key=key)
    return out


def _cell_of(sub: Subgraph, host: MultiGraph | None = None) -> tuple[int, int]:
    """The cell of a subgraph over the ranks of host, its own by default."""
    host = host or sub.host
    return (_vertex_mask(host, sub.vertices), sum(1 << host._erank[e] for e in sub.edges))


def _keep_cells(host: MultiGraph, closure: tuple[DeltaSet, GradedSubset]
               ) -> tuple[DeltaSet, GradedSubset]:
    """A `close_under_faces` result whose labels are cells over host's
    ranks, with those cells kept as its labels over host, so that
    `DeltaSet.label` reads them as subgraphs.  Each cell is checked once,
    as `Subgraph` checks its edges: ValueError names the lowest-ranked edge
    of a cell whose endpoints are not all in it."""
    ds, marked = closure
    bad = [c for row in ds.labels for c in row if _union(host._ends, c[1]) & ~c[0]]
    if bad:
        stray = bad[0][1] & ~host._induced_edges(bad[0][0])
        raise ValueError(f"edge {host._eids[(stray & -stray).bit_length() - 1]!r} "
                         "selected without its endpoints")
    return ds.with_labels(ds.labels, host), marked


def vertex_deletion_map(host: MultiGraph):
    """The face map on the cells of host whose d_i deletes the i-th vertex,
    in rank order, together with its incident edges."""
    keep = [~m for m in host._inc]

    def faces(cell: tuple[int, int]) -> list[tuple[int, int]]:
        vm, em = cell
        out, rest = [], vm
        while rest:
            low = rest & -rest
            out.append((vm ^ low, em & keep[low.bit_length() - 1]))
            rest ^= low
        return out

    return faces


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------

def _clique_cells(g: MultiGraph, max_size: int) -> list[tuple[int, int]]:
    """The cells of `cliques(g, max_size)`, in its order."""
    if g.directed:
        raise ValueError("cliques are defined for undirected graphs")
    nbrs = g._nbrs
    choices = {pair: [1 << r for r in _ranks(m)] for pair, m in g._pairs.items()}
    out = []

    def extend(ranks: tuple, vm: int, candidates: int):
        for combo in product(*[choices[pair] for pair in combinations(ranks, 2)]):
            out.append((vm, sum(combo)))
        if len(ranks) >= max_size:
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            extend(ranks + (w,), vm | low, candidates & nbrs[w])

    for v in range(len(g._vids)):
        extend((v,), 1 << v, nbrs[v] >> (v + 1) << (v + 1))
    return out


def cliques(g: MultiGraph, max_size: int) -> list[Subgraph]:
    """All complete subgraphs with at most max_size vertices.

    A clique cell is a vertex set plus one chosen edge per unordered pair;
    on multigraphs every combination of edge choices is a distinct clique
    (distinct cells sharing the same vertices).  Loops never participate.
    Enumeration is lexicographic in (vertex set, edge choices), in the
    host's rank order.
    """
    return [g._cell_subgraph(cell) for cell in _clique_cells(g, max_size)]


def clique_delta(g: MultiGraph, max_dim: int = 3) -> DeltaSet:
    """Δ-set whose n-cells are the (n+1)-vertex cliques; d_i deletes the i-th
    vertex in the host's rank order with its incident edges."""
    if g.directed:
        raise ValueError("clique Δ-set is defined for undirected graphs")
    if max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    ds, _ = _keep_cells(g, close_under_faces(_clique_cells(g, max_dim + 1),
                                            vertex_deletion_map(g), _rank_order))
    return ds


# ---------------------------------------------------------------------------
# Neighborhood complex
# ---------------------------------------------------------------------------

def neighborhood_delta(g: MultiGraph) -> DeltaSet:
    """Δ-set of the neighborhood complex: each vertex's neighbourhood
    (ignoring direction and loops) closed under vertex deletion; d_i
    deletes the i-th vertex in the host's rank order.  Its cells are the
    (vertex mask, 0) cells of the simplices, with no dimension bound."""
    ds, _ = _keep_cells(g, close_under_faces([(m, 0) for m in g._nbrs if m],
                                            vertex_deletion_map(g), _rank_order))
    return ds


def neighborhood_complex(g: MultiGraph) -> list[frozenset]:
    """Simplices are vertex sets whose members are all adjacent to a common
    other vertex: the vertex sets of the cells of `neighborhood_delta`, in
    `cell_sort_key` order."""
    vids = g._vids
    return sorted((frozenset(map(vids.__getitem__, _ranks(vm)))
                   for row in neighborhood_delta(g)._labels for vm, _ in row), key=cell_sort_key)


# ---------------------------------------------------------------------------
# Path complex
# ---------------------------------------------------------------------------

def completion(g: MultiGraph) -> MultiGraph:
    """Smallest complete simple digraph containing a simple digraph g.

    Between every ordered pair of distinct vertices there is exactly one
    edge: g's own edge when present, else a synthetic ("inf", u, v) edge.
    Raises when g has an edge with the id of a synthetic edge it needs.
    """
    if not g.directed or not g.is_simple():
        raise ValueError("completion requires a simple digraph")
    edges = dict(g.edge_ends)
    present = {ends for ends in g.edge_ends.values()}
    for u in g.vertices:
        for v in g.vertices:
            if u != v and (u, v) not in present:
                e = ("inf", u, v)
                if e in edges:
                    raise ValueError(f"edge id {e!r} is the id of a synthetic completion edge")
                edges[e] = (u, v)
    return MultiGraph(g.vertices, edges, directed=True)


def path_complex(g: MultiGraph, max_len: int) -> SuperHypergraph:
    """Directed paths of a simple digraph inside the path Δ-set of its
    completion.

    Parental cells in dimension k are the injective vertex sequences of
    length k+1 (k <= max_len), i.e. the directed paths of the completion;
    d_i deletes the i-th vertex.  Marked cells are the paths whose edges
    are all edges of g: the directed paths of g itself.  Embedded homology
    of the result is the path homology input.  A cell is kept as its
    (vertex mask, edge mask) over the completion, the cells of a dimension
    in the order of their vertex sequences.
    """
    if not g.directed or not g.is_simple():
        raise ValueError("path complex requires a simple digraph")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    comp = completion(g)
    size = len(comp._vids)
    words: list[tuple] = []  # the injective words of vertex ranks

    def extend(word: tuple):
        words.append(word)
        if len(word) > max_len:
            return
        for r in range(size):
            if r not in word:
                extend(word + (r,))

    for r in range(size):
        extend((r,))

    # ranks follow `cell_sort_key` order, so the word order is that of the
    # vertex tuples; a word's masks determine it, as comp is simple
    ds, _ = close_under_faces(words, tuple_faces, sorted)
    pairs = comp._pairs
    cells = [[(sum(1 << r for r in word), sum(pairs[ab] for ab in zip(word, word[1:])))
              for word in row] for row in ds.labels]
    ds, _ = _keep_cells(comp, (ds.with_labels(cells), None))
    formal = sum(1 << r for e, r in comp._erank.items() if e not in g.edge_ends)
    return SuperHypergraph(ds, GradedSubset({n: [j for j, (_, em) in enumerate(row)
                                                 if not em & formal]
                                             for n, row in enumerate(cells)}))
