"""Face operations turning families of subgraphs into super-hypergraphs.

Five constructions: primary and secondary vertex deletion, edge deletion,
partition (cluster) faces, link-blowup faces, and starting-vertex faces on
the ∞-extended working graph.  Every constructor but edge deletion seeds
`close_under_faces` with its members and one face map, and returns the
validated super-hypergraph whose parental Δ-set cells are subgraphs, so
cells reached along different deletion sequences coincide.  The vertex
deletion, partition and link-blowup closures run on the members as host
rank bitmasks (`graphs._Cell`) and build each cell's subgraph once, after
the closure.  Edge deletion returns the members' edge sets and whether they
are closed under single-edge deletion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .delta import (GradedSubset, SuperHypergraph, cell_sort_key, close_under_faces,
                    missing_face)
from .graphs import (MultiGraph, Subgraph, _Cell, _cell_of, _ranks, is_subgraph,
                     subgraph_closure, vertex_deletion_map, vertex_grade)


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


@dataclass(frozen=True)
class MarkedSubgraph:
    """A subgraph with marked starting-vertices; every vertex must be
    reachable by a (directed) path out of the marked set."""

    subgraph: Subgraph
    sv: frozenset

    def __post_init__(self):
        if not self.sv <= self.subgraph.vertices:
            raise ValueError("starting vertices must lie in the subgraph")
        if self.subgraph.vertices and not self.sv:
            raise ValueError("nonempty subgraph needs at least one starting vertex")
        layers = bfs_layers(self.subgraph, self.sv)
        covered = set().union(*layers) if layers else set()
        if covered != set(self.subgraph.vertices):
            missing = sorted(self.subgraph.vertices - covered, key=cell_sort_key)
            raise ValueError(f"vertices unreachable from the starting set: {missing}")

    @property
    def key(self):
        return (self.subgraph.key, tuple(sorted(self.sv, key=cell_sort_key)))

    @property
    def sort_key(self):
        """`cell_sort_key` order: that of the key, element by element."""
        return cell_sort_key(self.key)


def bfs_layers(sub: Subgraph, start: frozenset) -> list[frozenset]:
    """Neighborhood-extension partition: V_0 = start, V_{j+1} = the (out-)
    link of the layer so far, until no new vertices appear."""
    if not start:
        return []
    layers = [frozenset(start)]
    assigned = set(start)
    while True:
        nxt = sub.out_neighbors_in(layers[-1]) - assigned
        if not nxt:
            break
        layers.append(frozenset(nxt))
        assigned |= nxt
    return layers


# ---------------------------------------------------------------------------
# Vertex-deletion topologies
# ---------------------------------------------------------------------------

def _close_family(fam: SubgraphFamily, grade, face_fn) -> SuperHypergraph:
    """The family's cells closed under face_fn, with the members marked."""
    if any(not m.vertices for m in fam):
        raise ValueError("members must have at least one vertex")
    return SuperHypergraph(*subgraph_closure(fam.host, close_under_faces(
        [_cell_of(m) for m in fam], grade, face_fn)))


def primary_vertex_deletion(fam: SubgraphFamily) -> SuperHypergraph:
    """Grade by vertex count minus one; d_i deletes the i-th vertex (in the
    host's rank order) together with its incident edges.  The parental
    Δ-set is the family plus all iterated faces."""
    return _close_family(fam, vertex_grade, vertex_deletion_map(fam.host))


def secondary_vertex_deletion(fam: SubgraphFamily) -> SuperHypergraph:
    """d_i removes the i-th vertex (in the host's rank order) and adds the
    host edge from its order neighbor v_{i-1} to v_{i+1} when the host has
    one.  Host must be simple.  The Δ-identity is validated on the
    constructed family; a violation is surfaced as a construction error
    naming the witnessing triple."""
    host = fam.host
    if not host.is_simple():
        raise ValueError("secondary vertex-deletion requires a simple host graph")
    masks = host._rank_masks()
    keep, pairs = [~m for m in masks.inc], masks.pairs

    def face_fn(cell: _Cell) -> list[_Cell]:
        vm, em = cell
        ranks = _ranks(vm)
        out = [_Cell((vm ^ (1 << r), em & keep[r])) for r in ranks]
        for i in range(1, len(ranks) - 1):
            bridge = pairs.get((ranks[i - 1], ranks[i + 1]))
            if bridge:
                out[i] = _Cell((out[i][0], out[i][1] | bridge))
        return out

    return _close_family(fam, vertex_grade, face_fn)


# ---------------------------------------------------------------------------
# Edge-deletion topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeDeletionResult:
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


# ---------------------------------------------------------------------------
# Partition and link-blowup faces
# ---------------------------------------------------------------------------

def _cluster_masks(host: MultiGraph, clustering: Clustering) -> list[tuple[int, int, int]]:
    """Per cluster: its vertex mask, and the complements of its vertex mask
    and of its incident-edge mask."""
    vrank, inc = host._vrank, host._rank_masks().inc
    out = []
    for block in clustering.blocks:
        vm = em = 0
        for v in block:
            vm |= 1 << vrank[v]
            em |= inc[vrank[v]]
        out.append((vm, ~vm, ~em))
    return out


def _cluster_grade(masks: list[tuple[int, int, int]]):
    """Grade of a cell: the number of clusters it meets, minus one."""

    def grade(cell: _Cell) -> int:
        vm = cell[0]
        return sum(1 for bv, _, _ in masks if vm & bv) - 1

    return grade


def partition_faces(fam: SubgraphFamily, clustering: Clustering) -> SuperHypergraph:
    """Grade by the number of touched clusters minus one; d_j removes every
    vertex of the j-th touched cluster with its incident edges."""
    masks = _cluster_masks(fam.host, clustering)

    def face_fn(cell: _Cell) -> list[_Cell]:
        vm, em = cell
        return [_Cell((vm & nbv, em & nbe)) for bv, nbv, nbe in masks if vm & bv]

    return _close_family(fam, _cluster_grade(masks), face_fn)


def link_blowup_faces(fam: SubgraphFamily, clustering: Clustering) -> SuperHypergraph:
    """Cluster deletion that re-adds working-graph edges among the deleted
    cluster's neighbors: d_j(H) = H[V(H) - V_j] ∪ G[lk(V_j) ∩ V(H)]."""
    host_masks = fam.host._rank_masks()
    nbrs, induced = host_masks.nbrs, host_masks.induced
    masks = _cluster_masks(fam.host, clustering)

    def face_fn(cell: _Cell) -> list[_Cell]:
        vm, em = cell
        out = []
        for bv, nbv, nbe in masks:
            if vm & bv:
                keep = vm & nbv
                link = 0
                for r in _ranks(vm & bv):
                    link |= nbrs[r]
                out.append(_Cell((keep, em & nbe | induced(link & keep))))
        return out

    return _close_family(fam, _cluster_grade(masks), face_fn)


# ---------------------------------------------------------------------------
# Starting-vertex faces on the ∞-extension
# ---------------------------------------------------------------------------

def extend_graph(g: MultiGraph) -> MultiGraph:
    """The extension Ĝ: one formal ∞ edge joining every pair of distinct
    vertices (two directed ∞ edges per pair when g is directed)."""
    edges = dict(g.edge_ends)
    vs = sorted(g.vertices, key=cell_sort_key)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if g.directed:
                edges[("inf", u, v)] = (u, v)
                edges[("inf", v, u)] = (v, u)
            else:
                edges[("inf", u, v)] = (u, v)
    return MultiGraph(g.vertices, edges, directed=g.directed)


def _is_inf_edge(e: Hashable) -> bool:
    return isinstance(e, tuple) and len(e) == 3 and e[0] == "inf"


def _inf_edge_id(g: MultiGraph, u, v):
    if g.directed:
        return ("inf", u, v)
    a, b = sorted((u, v), key=cell_sort_key)
    return ("inf", a, b)


def starting_vertex_faces(members: Sequence[MarkedSubgraph],
                          g: MultiGraph) -> SuperHypergraph:
    """Face operations on subgraphs with marked starting-vertices.

    d_j removes the j-th layer of the neighborhood-extension partition and,
    for interior layers, patches the removed layer with formal ∞ edges of
    the extension Ĝ from layer j-1 to layer j+1 wherever the subgraph has no
    own edge.  The result is dominated by Ĝ; marked cells are those carrying
    no ∞ edges, i.e. the subgraphs of g itself.
    """
    ghat = extend_graph(g)
    seeds = []
    for m in members:
        if not m.subgraph.vertices:
            raise ValueError("members must have at least one vertex")
        sub = m.subgraph
        if sub.host is not ghat:
            if not is_subgraph(sub, g):
                raise ValueError(f"member is not a subgraph of the working graph: {m!r}")
            sub = Subgraph(ghat, sub.vertices, sub.edges)
        seeds.append(MarkedSubgraph(sub, m.sv))

    def grade(cell: MarkedSubgraph) -> int:
        return len(bfs_layers(cell.subgraph, cell.sv)) - 1

    def face_fn(cell: MarkedSubgraph):
        layers = bfs_layers(cell.subgraph, cell.sv)
        n = len(layers) - 1
        out = []
        for j in range(n + 1):
            keep = cell.subgraph.vertices - layers[j]
            base = cell.subgraph.restrict(keep)
            if 0 < j < n:
                patch = []
                for v in layers[j - 1]:
                    for w in layers[j + 1]:
                        if not cell.subgraph.has_edge_between(v, w):
                            patch.append(_inf_edge_id(ghat, v, w))
                base = base.add_edges(patch)
            sv = layers[1] if j == 0 else layers[0]
            out.append(MarkedSubgraph(base, sv))
        return out

    ds, _ = close_under_faces(seeds, grade, face_fn)
    marked_cells = [(n, j) for n, j in ds.cells()
                    if not any(_is_inf_edge(e) for e in ds.label(n, j).subgraph.edges)]
    return SuperHypergraph(ds, GradedSubset.from_cells(marked_cells))
