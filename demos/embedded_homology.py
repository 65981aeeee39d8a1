"""Embedded homology of hypergraphs and super-hypergraphs, step by step.

A hypergraph is a simplicial complex with faces possibly missing; its
embedded homology lives inside the chain complex of the simplicial closure.
A super-hypergraph generalizes this: any graded subset of any Δ-set.  This
script reproduces the small worked examples from the library's test corpus
and shows the infimum/supremum chain machinery behind them.

Run:  python3 demos/embedded_homology.py
"""

from superph import (GF2, QQ, DeltaSet, GradedSubset, SuperHypergraph,
                     delta_closure, embedded_betti, embedded_chain_data,
                     from_hypergraph, gap_series, geometric_gap_betti,
                     hypergraph_cone, is_complete, is_regular,
                     max_delta_subset)

print("=" * 72)
print("1. A triangle boundary whose vertices are not hyperedges")
print("=" * 72)
# Hyperedges: the three edges of a triangle, no vertices.  The simplicial
# closure supplies the vertices, but only edge chains count as marked.
sh = from_hypergraph([(0, 1), (0, 2), (1, 2)])
print("closure cell counts:", sh.x.counts)
print("embedded Betti over QQ: ", embedded_betti(sh, QQ))
print("embedded Betti over GF2:", embedded_betti(sh, GF2))
print("-> degree 0 vanishes: no topological space has this homology.")

print()
print("=" * 72)
print("2. A 2-simplex missing one edge, then missing two")
print("=" * 72)
sh1 = from_hypergraph([(0, 1, 2), (0, 1), (0, 2), (0,), (1,), (2,)])
sh2 = from_hypergraph([(0, 1, 2), (0, 1), (0,), (1,), (2,)])
print("missing {1,2}:        ", embedded_betti(sh1, QQ))
print("missing {1,2},{0,2}:  ", embedded_betti(sh2, QQ))
print("-> the second is ZZ^2 in degree 0: not the homology of any")
print("   path-connected space, yet perfectly computable.")

print()
print("=" * 72)
print("3. Two parallel 2-cells: a Δ-set no simplicial complex can express")
print("=" * 72)
# f1 and f2 share all three face slots (d0 = d2 = e1, d1 = e2); both edges
# run from the single vertex to itself.
pillow = DeltaSet([1, 2, 2], [(), [(0, 0), (0, 0)], [(0, 1, 0), (0, 1, 0)]])
print("Δ-identity holds:", pillow.validate().ok)
sh3 = SuperHypergraph(pillow, GradedSubset({2: {0, 1}}))
data = embedded_chain_data(sh3, QQ)
print("inf_2 dimension:", data.inf[2].dim,
      " contains f1 - f2:", data.inf[2].contains({0: 1, 1: -1}))
print("embedded Betti:", embedded_betti(sh3, QQ))
print("-> the difference of the parallel faces is an embedded 2-cycle.")

print()
print("=" * 72)
print("4. The same marked set under two parental Δ-sets")
print("=" * 72)
from superph import standard_simplex_delta
x = standard_simplex_delta(3)
shx = SuperHypergraph(x, GradedSubset({3: {0}}))
tower = DeltaSet([1, 1, 1, 1], [(), [(0, 0)], [(0, 0, 0)], [(0, 0, 0, 0)]])
shy = SuperHypergraph(tower, GradedSubset({3: {0}}))
print("inside the 3-simplex:     Betti", embedded_betti(shx, QQ),
      " gap series", gap_series(shx, QQ))
print("inside a collapsed tower: Betti", embedded_betti(shy, QQ),
      " gap series", gap_series(shy, QQ))
print("-> embedded homology depends on the parental Δ-set; the gap series")
print("   (dim sup_n - dim inf_n) measures how far the marking is from a")
print("   Δ-subset.")

print()
print("=" * 72)
print("5. Δ-closure, largest marked Δ-subset, geometric gap")
print("=" * 72)
shB = SuperHypergraph(sh.x, GradedSubset({1: {0, 1, 2}}))
print("Δ-closure of the edges:", dict(delta_closure(shB).members))
print("largest Δ-subset inside:", dict(max_delta_subset(shB).members))
print("geometric gap Betti:", geometric_gap_betti(shB, QQ))
print("-> closure/core homology sees the un-glued boundary circle plus the")
print("   extra point from the empty core.")

print()
print("=" * 72)
print("6. Regular and complete super-hypergraphs")
print("=" * 72)
x2 = standard_simplex_delta(2)
v0 = next(j for j in range(3) if x2.label(0, j) == (0,))
marks = GradedSubset({0: set(range(3)) - {v0}, 1: {0, 1, 2}, 2: {0}})
sh6 = SuperHypergraph(x2, marks)
print("regular:", is_regular(sh6))
res = is_complete(sh6)
print("complete:", res.complete, " certificate:", res.certificate)
print("-> the unmarked vertex can be folded onto a marked one; quotienting")
print("   it away yields a complete parental Δ-set (see tests/fixtures).")

print()
print("=" * 72)
print("7. Cones are acyclic")
print("=" * 72)
edges = [(0, 1), (1, 2), (0, 2), (3,)]
cone = hypergraph_cone(edges, "apex")
print("cone hyperedges:", [tuple(sorted(map(str, e))) for e in cone])
print("embedded Betti of the cone:", embedded_betti(from_hypergraph(cone), GF2))
