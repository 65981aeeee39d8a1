"""Shared fixtures: hand-built Δ-sets and seeded random generators."""

from __future__ import annotations

import random

import pytest

from superph import (DeltaSet, GradedSubset, MultiGraph, PointCloud,
                     SuperHypergraph, from_hypergraph, full_subset)


def pillow_delta() -> DeltaSet:
    """Two 2-cells glued along the same pair of edges over a single vertex:
    d0 f_i = d2 f_i = e1, d1 f_i = e2, d_i e_j = v."""
    return DeltaSet([1, 2, 2], [(), [(0, 0), (0, 0)], [(0, 1, 0), (0, 1, 0)]])


def pillow_sh(include_vertex: bool = True) -> SuperHypergraph:
    """The pillow with the two 2-cells (and optionally the vertex) marked,
    edges unmarked."""
    marks = {2: {0, 1}}
    if include_vertex:
        marks[0] = {0}
    return SuperHypergraph(pillow_delta(), GradedSubset(marks))


def collapsed_tower(n: int) -> DeltaSet:
    """One cell per dimension 0..n, every face map the unique cell below."""
    counts = [1] * (n + 1)
    faces = [()] + [[(0,) * (k + 1)] for k in range(1, n + 1)]
    return DeltaSet(counts, faces)


def two_simplex_missing_vertex_sh() -> SuperHypergraph:
    """Full 2-simplex Δ-set with everything except the vertex {0} marked."""
    from superph import standard_simplex_delta
    x = standard_simplex_delta(2)
    v0 = next(j for j in range(x.counts[0]) if x.label(0, j) == (0,))
    h = GradedSubset({0: set(range(x.counts[0])) - {v0},
                      1: set(range(x.counts[1])),
                      2: set(range(x.counts[2]))})
    return SuperHypergraph(x, h)


def vertex_identified_quotient(which: int) -> SuperHypergraph:
    """Quotient of the 2-simplex identifying vertex {which} with vertex {0},
    with every cell except the merged extra vertex marked (which makes the
    marked set all of the quotient's cells)."""
    # vertices: 0 = merged class, 1 = the remaining vertex
    # edges follow the labels [01], [02], [12] of the simplex
    if which == 1:
        faces1 = [(0, 0), (1, 0), (1, 0)]   # d(01)=(v0,v0), d(02)=(v2,v0), d(12)=(v2,v0)
    elif which == 2:
        faces1 = [(1, 0), (0, 0), (0, 1)]   # identify {2}~{0}
    else:
        raise ValueError(which)
    x = DeltaSet([2, 3, 1], [(), faces1, [(2, 1, 0)]])
    return SuperHypergraph(x, full_subset(x))


def count_identity_walks(monkeypatch) -> list:
    """Record each walk of the Δ-identity (`DeltaSet._check`, which
    `DeltaSet.validate` runs once per Δ-set) from now on."""
    walks = []
    real = DeltaSet._check

    def counted(self):
        walks.append(self)
        return real(self)

    monkeypatch.setattr(DeltaSet, "_check", counted)
    return walks


def random_hypergraph(rng: random.Random, max_vertices: int = 6,
                      max_edges: int = 20) -> list[frozenset]:
    nv = rng.randint(1, max_vertices)
    out = set()
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, nv)
        out.add(frozenset(rng.sample(range(nv), size)))
    return sorted(out, key=lambda e: (len(e), sorted(e)))


def random_super_hypergraph(rng: random.Random, max_vertices: int = 6,
                            max_edges: int = 20, keep: float = 0.5,
                            cap_per_degree: int | None = None) -> SuperHypergraph:
    """Closure of a random hypergraph with a random graded subset marked."""
    base = from_hypergraph(random_hypergraph(rng, max_vertices, max_edges))
    x = base.x
    marks: dict[int, set[int]] = {}
    for n in range(x.dim_count):
        chosen = {j for j in range(x.counts[n]) if rng.random() < keep}
        if cap_per_degree is not None and len(chosen) > cap_per_degree:
            chosen = set(rng.sample(sorted(chosen), cap_per_degree))
        if chosen:
            marks[n] = chosen
    return SuperHypergraph(x, GradedSubset(marks))


def random_cloud(rng: random.Random, max_points: int = 6, dim: int = 2) -> PointCloud:
    n = rng.randint(2, max_points)
    return PointCloud({i: tuple(round(rng.uniform(0, 4), 3) for _ in range(dim))
                       for i in range(n)})


def unit_square_cloud() -> PointCloud:
    return PointCloud({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA11CE)


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph.complete(range(n))
