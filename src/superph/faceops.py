"""Face operations turning families of subgraphs into super-hypergraphs.

Six constructions: primary and secondary vertex deletion, edge deletion,
partition (cluster) faces, link-blowup faces, and starting-vertex faces on
the ∞-extended working graph.  Each seeds `close_under_faces` with its
members and one face map, which also fixes each cell's grade (its face
count minus one), and returns the validated super-hypergraph whose
parental Δ-set cells are subgraphs (with their starting vertices, for
starting-vertex faces), so cells reached along different deletion
sequences coincide.  Every closure runs on the members as masks over the
host's one index, its rank-mask tables: a cell is a plain int tuple
(vertex mask, edge mask), with a third mask, the starting vertices, for
starting-vertex faces.  The ranks of its masks order the cells as the
(marked) subgraphs they stand for (`graphs._rank_key`, `_start_key`), and
the edge ranks alone for edge deletion, whose d_i deletes the i-th edge.
Every closure keeps its cells as the labels, over the host
(`graphs._keep_cells`), and a `Subgraph` or `MarkedSubgraph` is decoded
only where a label is read.  `edge_deletion_complex` returns the
members' edge sets and whether they are closed under single-edge
deletion.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple, Sequence

from .delta import (GradedSubset, SuperHypergraph, cell_sort_key, close_under_faces,
                    missing_face)
from .fields import _ranks
from .graphs import (MarkedSubgraph, MultiGraph, Subgraph, _cell_of, _check_reach,
                     _keep_cells, _layer_masks, _rank_key, _rank_order, _union, _vertex_mask,
                     is_subgraph, vertex_deletion_map)


class SubgraphFamily:
    """A finite family of subgraphs of a common host graph.

    Duplicate members (equal vertex and edge id sets) are dropped, the
    first one kept.  A member built on another host object is rebuilt on
    this host, so every cell of a construction sorts by one host's ranks.
    """

    __slots__ = ("host", "members")

    def __init__(self, host: MultiGraph, members: Iterable[Subgraph]):
        seen = set()
        uniq = []
        for m in members:
            if not is_subgraph(m, host):
                raise ValueError(f"not a subgraph of the host: {m!r}")
            if m not in seen:
                seen.add(m)
                uniq.append(m if m.host is host else Subgraph(host, m.vertices, m.edges))
        self.host = host
        self.members = tuple(uniq)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


class Clustering:
    """An ordered partition V_0, ..., V_m of the host's vertex set."""

    __slots__ = ("blocks",)

    def __init__(self, host: MultiGraph, blocks: Sequence[Iterable]):
        bl = [frozenset(b) for b in blocks]
        if any(not b for b in bl):
            raise ValueError("clusters must be nonempty")
        union = set()
        for b in bl:
            if union & b:
                raise ValueError("clusters must be disjoint")
            union |= b
        if union != set(host.vertices):
            raise ValueError("clusters must cover the vertex set")
        self.blocks = tuple(bl)

    @classmethod
    def singletons(cls, host: MultiGraph) -> "Clustering":
        return cls(host, [[v] for v in sorted(host.vertices, key=cell_sort_key)])


def bfs_layers(sub: Subgraph, start: frozenset) -> list[frozenset]:
    """Neighborhood-extension partition: V_0 = start, V_{j+1} = the (out-)
    link of the last layer outside the layers so far, until no new
    vertices appear."""
    host = sub.host
    vids = host._vids
    return [frozenset(vids[r] for r in _ranks(layer))
            for layer in _layer_masks(host, _cell_of(sub)[1], _vertex_mask(host, start))]


# ---------------------------------------------------------------------------
# Vertex-deletion topologies
# ---------------------------------------------------------------------------

def _close_family(fam: SubgraphFamily, face_fn) -> SuperHypergraph:
    """The family's cells closed under face_fn, with the members marked."""
    if any(not m.vertices for m in fam):
        raise ValueError("members must have at least one vertex")
    return SuperHypergraph(*_keep_cells(fam.host, close_under_faces([_cell_of(m) for m in fam],
                                                                    face_fn, _rank_order)))


def primary_vertex_deletion(fam: SubgraphFamily) -> SuperHypergraph:
    """Grade by vertex count minus one; d_i deletes the i-th vertex (in the
    host's rank order) together with its incident edges.  The parental
    Δ-set is the family plus all iterated faces."""
    return _close_family(fam, vertex_deletion_map(fam.host))


def secondary_vertex_deletion(fam: SubgraphFamily) -> SuperHypergraph:
    """d_i removes the i-th vertex (in the host's rank order) and adds the
    host edge from its order neighbor v_{i-1} to v_{i+1} when the host has
    one.  Host must be simple.  The Δ-identity is validated on the
    constructed family; a violation is surfaced as a construction error
    naming the witnessing triple."""
    host = fam.host
    if not host.is_simple():
        raise ValueError("secondary vertex-deletion requires a simple host graph")
    keep, pairs = [~m for m in host._inc], host._pairs

    def face_fn(cell: tuple[int, int]) -> list[tuple[int, int]]:
        vm, em = cell
        ranks = _ranks(vm)
        out = [(vm ^ (1 << r), em & keep[r]) for r in ranks]
        for i in range(1, len(ranks) - 1):
            bridge = pairs.get((ranks[i - 1], ranks[i + 1]))
            if bridge:
                out[i] = (out[i][0], out[i][1] | bridge)
        return out

    return _close_family(fam, face_fn)


# ---------------------------------------------------------------------------
# Edge-deletion topology
# ---------------------------------------------------------------------------

class EdgeDeletionResult(NamedTuple):
    """Members identified with their edge sets, plus single-edge-deletion
    closure data.  When closed, the family is a simplicial complex on the
    edge universe (a graph complex in the deletion sense)."""

    hyperedges: tuple[frozenset, ...]
    closed: bool
    simplicial: tuple[frozenset, ...] | None


def edge_deletion_complex(fam: SubgraphFamily) -> EdgeDeletionResult:
    if any(not m.edges for m in fam):
        raise ValueError("members must have at least one edge")
    edge_sets = {m.edges for m in fam}
    closed = missing_face(edge_sets) is None
    hyper = tuple(sorted(edge_sets, key=cell_sort_key))
    return EdgeDeletionResult(hyper, closed, hyper if closed else None)


def edge_deletion_faces(fam: SubgraphFamily) -> SuperHypergraph:
    """The members' edge sets closed under single-edge deletion, each cell
    an edge set with its endpoints: grade by edge count minus one, d_i
    deletes the i-th edge in the host's rank order, and the cells of a
    grade are in the order of their edge ranks.  Members with equal edge
    sets are one cell; the members are marked."""
    if any(not m.edges for m in fam):
        raise ValueError("members must have at least one edge")
    ends = fam.host._ends

    def face_fn(cell: tuple[int, int]) -> list[tuple[int, int]]:
        em = cell[1]
        return [(_union(ends, em ^ 1 << r), em ^ 1 << r) for r in _ranks(em)]

    seeds = [(_union(ends, em), em) for _, em in map(_cell_of, fam)]
    return SuperHypergraph(*_keep_cells(fam.host, close_under_faces(
        seeds, face_fn, partial(sorted, key=lambda cell: _ranks(cell[1])))))


# ---------------------------------------------------------------------------
# Partition and link-blowup faces
# ---------------------------------------------------------------------------

def _cluster_masks(host: MultiGraph, clustering: Clustering) -> list[tuple[int, int, int]]:
    """Per cluster: its vertex mask, and the complements of its vertex mask
    and of its incident-edge mask."""
    out = []
    for block in clustering.blocks:
        vm = _vertex_mask(host, block)
        out.append((vm, ~vm, ~_union(host._inc, vm)))
    return out


def partition_faces(fam: SubgraphFamily, clustering: Clustering) -> SuperHypergraph:
    """Grade by the number of touched clusters minus one; d_j removes every
    vertex of the j-th touched cluster with its incident edges."""
    masks = _cluster_masks(fam.host, clustering)

    def face_fn(cell: tuple[int, int]) -> list[tuple[int, int]]:
        vm, em = cell
        return [(vm & nbv, em & nbe) for bv, nbv, nbe in masks if vm & bv]

    return _close_family(fam, face_fn)


def link_blowup_faces(fam: SubgraphFamily, clustering: Clustering) -> SuperHypergraph:
    """Cluster deletion that re-adds working-graph edges among the deleted
    cluster's neighbors: d_j(H) = H[V(H) - V_j] ∪ G[lk(V_j) ∩ V(H)]."""
    nbrs, induced = fam.host._nbrs, fam.host._induced_edges
    masks = _cluster_masks(fam.host, clustering)

    def face_fn(cell: tuple[int, int]) -> list[tuple[int, int]]:
        vm, em = cell
        out = []
        for bv, nbv, nbe in masks:
            if vm & bv:
                keep = vm & nbv
                out.append((keep, em & nbe | induced(_union(nbrs, vm & bv) & keep)))
        return out

    return _close_family(fam, face_fn)


# ---------------------------------------------------------------------------
# Starting-vertex faces on the ∞-extension
# ---------------------------------------------------------------------------

def extend_graph(g: MultiGraph) -> MultiGraph:
    """The extension Ĝ: one formal ∞ edge ("inf", u, v) joining every pair
    of distinct vertices (two directed ∞ edges per pair when g is
    directed).  Raises when an edge id of g is the id of a formal edge."""
    edges = dict(g.edge_ends)
    vs = sorted(g.vertices, key=cell_sort_key)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            for a, b in ((u, v), (v, u)) if g.directed else ((u, v),):
                e = ("inf", a, b)
                if e in edges:
                    raise ValueError(f"edge id {e!r} is the id of a formal ∞ edge")
                edges[e] = (a, b)
    return MultiGraph(g.vertices, edges, directed=g.directed)


def _start_key(cell: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """`graphs._rank_key` of a (vertex mask, edge mask, starting-vertex mask)
    cell, then its starting vertices' ranks: the order of `MarkedSubgraph`."""
    return (*_rank_key(cell), _ranks(cell[2]))


def starting_vertex_faces(members: Sequence[MarkedSubgraph],
                          g: MultiGraph) -> SuperHypergraph:
    """Face operations on subgraphs with marked starting-vertices.

    d_j removes the j-th layer of the neighborhood-extension partition and,
    for interior layers, patches the removed layer with formal ∞ edges of
    the extension Ĝ from layer j-1 to layer j+1 wherever the subgraph has no
    own edge.  The result is dominated by Ĝ; marked cells are those whose
    edges are all edges of g, i.e. the subgraphs of g itself.
    """
    ghat = extend_graph(g)
    inc, pairs = ghat._inc, ghat._pairs
    formal = sum(1 << r for e, r in ghat._erank.items() if e not in g.edge_ends)
    seeds = []
    for m in members:
        if not m.subgraph.vertices:
            raise ValueError("members must have at least one vertex")
        if not is_subgraph(m.subgraph, g):
            raise ValueError(f"member is not a subgraph of the working graph: {m!r}")
        seeds.append((*_cell_of(m.subgraph, ghat), _vertex_mask(ghat, m.sv)))

    def face_fn(cell: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        vm, em, sm = cell
        layers = _layer_masks(ghat, em, sm)
        n = len(layers) - 1
        d0_start = layers[1] if n else 0  # a 0-cell's one face is the empty cell
        out = []
        for j, layer in enumerate(layers):
            face_em = em & ~_union(inc, layer)
            # no own edge joins layer j-1 to layer j+1: its head would be in layer j
            if 0 < j < n:
                for v in _ranks(layers[j - 1]):
                    for w in _ranks(layers[j + 1]):
                        face_em |= pairs[v, w] & formal
            out.append((vm ^ layer, face_em, d0_start if j == 0 else sm))
        return out

    ds, _ = _keep_cells(ghat, close_under_faces(seeds, face_fn,
                                                partial(_rank_order, key=_start_key)))
    # the `MarkedSubgraph` check of each cell, whose starting vertices lie in
    # its vertices: those of d_0 are layer 1 of its coface, other faces keep them
    for row in ds._labels:
        for cell in row:
            _check_reach(ghat, *cell)
    return SuperHypergraph(ds, GradedSubset({n: [j for j, (_, em, _) in enumerate(row)
                                                 if not em & formal]
                                             for n, row in enumerate(ds._labels)}))
