"""Starting-vertex face operations, the ∞-extension, and scoring schemes.

Subgraphs with marked starting-vertices carry a layered partition (the
neighborhood-extension partition); deleting an interior layer patches the
hole with formal ∞ edges of the extended graph so that the Δ-identity holds.
On directed paths this machinery reconstructs the path complex.  The second
half surveys the witness scoring schemes and the regularity check.

Run:  python3 demos/starting_vertices_and_schemes.py
"""

from superph import (GF2, MarkedSubgraph, MultiGraph, PointCloud,
                     SubgraphFamily, constant_scheme,
                     embedded_betti, is_regular_scheme, path_complex,
                     seeded_random_scheme, starting_vertex_faces, vr_scheme,
                     witness_scheme, witness_score)
from superph.faceops import bfs_layers

print("=" * 72)
print("1. Layers and faces of a marked directed path")
print("=" * 72)
g = MultiGraph("abc", {"e1": ("a", "b"), "e2": ("b", "c")}, directed=True)
member = MarkedSubgraph(g.subgraph({"a", "b", "c"}, ["e1", "e2"]), frozenset("a"))
print("layers:", [sorted(l) for l in bfs_layers(member.subgraph, member.sv)])
sh = starting_vertex_faces([member], g)
print("cells per dimension:", sh.x.counts)
for i, t in enumerate(sh.x.faces[2][0]):
    lab = sh.x.label(1, t)
    print(f"  d{i} -> {lab.subgraph.key}  start={sorted(lab.sv)}")
print("-> d1 removes the middle layer and joins a to c with the formal")
print("   edge ('inf','a','c'); marked cells are exactly the ∞-free ones.")

print()
print("=" * 72)
print("2. The path complex agrees with the completion picture")
print("=" * 72)
sh2 = path_complex(g, 2)
print("path-complex Betti:", embedded_betti(sh2, GF2))
print("starting-vertex Betti:", embedded_betti(sh, GF2))

print()
print("=" * 72)
print("3. Witness scorings on a line of landmarks")
print("=" * 72)
pc = PointCloud({0: (0.0,), 1: (1.0,), 2: (3.0,)})
# without a witness set, the witnesses are the cloud's own points
for variant in ("strong", "vr_strong", "weak", "vr_weak"):
    vals = {}
    for lam in ([0], [0, 1]):
        vals[tuple(lam)] = round(witness_score(lam, pc, variant), 4)
    print(f"  {variant:10s}: {vals}")
print("-> weak variants can DROP when the subset grows (the exclusion set")
print("   shrinks), so they are not regular scoring schemes.")

print()
print("=" * 72)
print("4. Checking regularity claims against a family")
print("=" * 72)
kg = MultiGraph.complete([0, 1, 2])
fam = SubgraphFamily(kg, [kg.full(), kg.induced({0, 1}), kg.induced({0})])
# one landmark more than the family ever uses keeps the weak variants total
pc2 = PointCloud({0: (0.0,), 1: (1.0,), 2: (2.5,), 3: (6.0,)})
for scheme in (vr_scheme(pc2), constant_scheme(1.0),
               witness_scheme(pc2, "weak"), seeded_random_scheme(5)):
    ok, pair = is_regular_scheme(scheme, fam)
    shown = None if pair is None else (pair[0].key[0], pair[1].key[0])
    print(f"  {scheme.name:16s} regular on family: {ok}   counterexample: {shown}")
print("-> non-regular schemes are rejected by persistence unless the")
print("   experimental infimum-chain mode is requested.")
