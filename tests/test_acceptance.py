"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import os
import random

from superph import (GF2, QQ, GradedSubset, MultiGraph, SuperHypergraph,
                     boundary_matrices, build_filtration, clique_delta,
                     embedded_betti, embedded_chain_data, from_hypergraph,
                     full_barcode, full_subset, gap_series, hypergraph_cone,
                     is_complete, mv_diagnostics, mod2_parity_check,
                     standard_simplex_delta, subcomplex_homology,
                     triangle_report, vr_scheme)
from superph import formats
from superph.cli import main
from superph.delta import DeltaSet, is_regular

from conftest import (collapsed_tower, pillow_delta, random_cloud,
                      random_hypergraph, random_super_hypergraph,
                      unit_square_cloud)
from oracles import (barcode, boundaries, boundary_of_span, brute_zb_dims_gf2,
                     dense_span, inf_zb, oracle_persistence_bars_gf2,
                     persistence_module, preimage_basis, subspace_intersect,
                     subspace_sum)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def pad(t, n):
    return tuple(t) + (0,) * (n - len(t))


def test_criterion_01_triangle_boundary_without_vertices():
    sh = from_hypergraph([(0, 1), (0, 2), (1, 2)])
    for field in (GF2, QQ):
        assert pad(embedded_betti(sh, field), 3) == (0, 1, 0)
    report(1, "edge-only triangle boundary has embedded Betti (0, 1, 0)")


def test_criterion_02_simplex_missing_edges():
    sh = from_hypergraph([(0, 1, 2), (0, 1), (0, 2), (0,), (1,), (2,)])
    sh2 = from_hypergraph([(0, 1, 2), (0, 1), (0,), (1,), (2,)])
    for field in (GF2, QQ):
        assert embedded_betti(sh, field) == (1, 0, 0)
        assert embedded_betti(sh2, field) == (2, 0, 0)
    report(2, "missing-edge hypergraphs give (1,0,0) and (2,0,0)")


def test_criterion_03_parallel_faces_and_mv():
    x = pillow_delta()
    h = GradedSubset({2: {0, 1}})
    sh = SuperHypergraph(x, h)
    assert embedded_betti(sh, GF2) == (0, 0, 1)
    assert embedded_betti(sh, QQ) == (0, 0, 1)
    data = embedded_chain_data(sh, QQ)
    assert data.inf[2].dim == 1 and data.inf[2].contains({0: 1, 1: -1})
    a = GradedSubset({0: {0}, 1: {0, 1}, 2: {0}})
    b = GradedSubset({0: {0}, 1: {0, 1}, 2: {1}})
    for half in (a, b):
        assert embedded_betti(SuperHypergraph(x, h.intersection(half)), QQ)[2] == 0
    rep = mv_diagnostics(sh, a, b, QQ)
    assert not (rep.left_quasi_iso and rep.right_quasi_iso)
    assert rep.middle_quasi_iso
    report(3, "parallel-face pair: Betti (0,0,1), inf_2 = span{f1 - f2}, "
              "half restrictions vanish, flanking inclusions fail")


def test_criterion_04_simplex_vs_collapsed_tower():
    x = standard_simplex_delta(3)
    shx = SuperHypergraph(x, GradedSubset({3: {0}}))
    shy = SuperHypergraph(collapsed_tower(3), GradedSubset({3: {0}}))
    for field in (GF2, QQ):
        assert embedded_betti(shx, field) == (0, 0, 0, 0)
        assert embedded_betti(shy, field) == (0, 0, 0, 1)
        assert gap_series(shx, field) == (0, 0, 1, 1)
        assert gap_series(shy, field) == (0, 0, 0, 0)
    report(4, "single-top-cell marking: simplex acyclic with gap t^2+t^3, "
              "collapsed tower has Betti (0,0,0,1) with zero gap")


def test_criterion_05_completeness_fixture_files():
    ds, marks = formats.read_delta(os.path.join(FIXTURES, "simplex_missing_vertex.delta"))
    sh = SuperHypergraph(ds, marks)
    assert is_regular(sh)
    res = is_complete(sh)
    assert not res.complete and res.certificate[0] == "extra_vertex"
    for name in ("quotient_first_vertex.delta", "quotient_second_vertex.delta"):
        q, qmarks = formats.read_delta(os.path.join(FIXTURES, name))
        assert q.validate().ok
        qres = is_complete(SuperHypergraph(q, qmarks))
        assert qres.complete and qres.certificate is None
    report(5, "missing-vertex pair incomplete with certificate; both "
              "vertex-identified quotient fixtures complete")


def test_criterion_06_cone_theorem():
    rng = random.Random(60601)
    for k in range(100):
        edges = random_hypergraph(rng, max_vertices=6, max_edges=20)
        cone = hypergraph_cone(edges, "apex")
        sh = from_hypergraph(cone)
        betti = embedded_betti(sh, GF2)
        assert betti[0] == 1 and all(v == 0 for v in betti[1:]), (k, betti)
        if k < 20:
            betti_q = embedded_betti(sh, QQ)
            assert betti_q[0] == 1 and all(v == 0 for v in betti_q[1:])
    report(6, "100 seeded cones all have embedded Betti (1, 0, 0, ...)")


def test_criterion_07_orientation_invariance():
    rng = random.Random(70707)
    for k in range(100):
        edges = random_hypergraph(rng, max_vertices=6, max_edges=20)
        vertices = sorted(set().union(*edges))
        perm = vertices[:]
        rng.shuffle(perm)
        base = from_hypergraph(edges, order=vertices)
        shuffled = from_hypergraph(edges, order=perm)
        assert embedded_betti(base, GF2) == embedded_betti(shuffled, GF2), k
        if k < 20:
            assert embedded_betti(base, QQ) == embedded_betti(shuffled, QQ)
    report(7, "100 seeded vertex permutations leave Betti tables unchanged")


def test_criterion_08_inf_sup_agreement_and_gap_acyclicity():
    rng = random.Random(80808)
    instances = [random_super_hypergraph(rng, max_vertices=5, max_edges=10)
                 for _ in range(40)]
    instances.append(SuperHypergraph(pillow_delta(), GradedSubset({2: {0, 1}})))
    instances.append(from_hypergraph([(0, 1), (0, 2), (1, 2)]))
    for k, sh in enumerate(instances):
        for field in (GF2, QQ):
            cc = boundary_matrices(sh.x, field)
            data = embedded_chain_data(sh, field, cc)
            from_inf = subcomplex_homology(cc, list(data.inf))
            from_sup = subcomplex_homology(cc, list(data.sup))
            assert from_inf == from_sup == embedded_betti(sh, field, cc=cc), k
            inf = [dense_span(s, c) for s, c in zip(data.inf, sh.x.counts)]
            sup = [dense_span(s, c) for s, c in zip(data.sup, sh.x.counts)]
            nd = sh.x.dim_count
            for n in range(nd):
                if n == 0:
                    zq = sup[0]
                else:
                    pre = preimage_basis(boundaries(cc)[n], inf[n - 1])
                    zq = subspace_intersect(sup[n], pre)
                up = sup[n + 1] if n + 1 < nd else None
                bq = subspace_sum(boundary_of_span(cc, n + 1, up), inf[n])
                assert zq.dim == bq.dim, (k, n)  # H(sup/inf) = 0
    report(8, "Betti from inf equals Betti from sup and sup/inf is acyclic "
              "on the whole corpus")


def test_criterion_09_gf2_brute_force_oracle():
    rng = random.Random(90909)
    for k in range(50):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=12,
                                     cap_per_degree=12)
        cc = boundary_matrices(sh.x, GF2)
        for n in range(sh.x.dim_count):
            z_brute, b_brute = brute_zb_dims_gf2(sh, n)
            z, b = inf_zb(cc, sh.h, n)
            assert (z.dim, b.dim) == (z_brute, b_brute), (k, n)
    report(9, "50 seeded pairs: exhaustive GF(2) chain enumeration matches "
              "dim Z and dim B per degree")


def test_criterion_10_classical_persistence_recovery():
    pc = unit_square_cloud()
    g = MultiGraph.complete(pc.ids())
    ds = clique_delta(g, max_dim=3)
    sh = SuperHypergraph(ds, full_subset(ds))
    filt = build_filtration(sh, vr_scheme(pc))
    amb = full_barcode(filt, GF2, "ambient")
    emb = full_barcode(filt, GF2, "embedded")
    assert amb.bars == emb.bars
    deg0 = [(b.birth, b.death, b.multiplicity) for b in amb.bars if b.degree == 0]
    assert deg0 == [(0.0, 0.5, 3), (0.0, math.inf, 1)]
    deg1 = [b for b in amb.bars if b.degree == 1]
    assert len(deg1) == 1 and deg1[0].multiplicity == 1
    assert abs(deg1[0].birth - 0.5) <= 1e-9
    assert abs(deg1[0].death - math.sqrt(2) / 2) <= 1e-9
    assert all(b.degree in (0, 1) for b in amb.bars)

    rng = random.Random(101010)
    for k in range(25):
        cloud = random_cloud(rng, max_points=6)
        gk = MultiGraph.complete(cloud.ids())
        dsk = clique_delta(gk, max_dim=4)
        shk = SuperHypergraph(dsk, full_subset(dsk))
        fk = build_filtration(shk, vr_scheme(cloud))
        full = full_barcode(fk, GF2, "ambient").bars
        for n in range(dsk.dim_count):
            rank_bars = barcode(persistence_module(fk, GF2, "ambient", n)).bars
            assert tuple(b for b in full if b.degree == n) == rank_bars, (k, n)
            got = sorted((b.birth, b.death, b.multiplicity) for b in rank_bars)
            want = oracle_persistence_bars_gf2(fk, n)
            assert len(got) == len(want), (k, n)
            for (b1, d1, m1), (b2, d2, m2) in zip(got, want):
                assert m1 == m2 and abs(b1 - b2) <= 1e-9, (k, n)
                assert (d1 == d2 == math.inf) or abs(d1 - d2) <= 1e-9, (k, n)
            emb_bars = barcode(persistence_module(fk, GF2, "embedded", n)).bars
            assert emb_bars == barcode(persistence_module(fk, GF2, "ambient", n)).bars
    report(10, "unit-square barcodes exact; 25 seeded clouds match the "
               "independent persistence oracle within 1e-9")


def test_criterion_11_delta_identity_and_mutation():
    from superph import (Clustering, MarkedSubgraph, SubgraphFamily,
                         link_blowup_faces, partition_faces, path_complex,
                         primary_vertex_deletion, secondary_vertex_deletion,
                         starting_vertex_faces)
    g = MultiGraph.complete([1, 2, 3, 4])
    dg = MultiGraph("abcd", {"e1": ("a", "b"), "e2": ("b", "c"),
                             "e3": ("a", "c"), "e4": ("c", "d")}, directed=True)
    fam = SubgraphFamily(g, [g.full(), g.induced({1, 2, 3})])
    produced = [
        clique_delta(g, max_dim=3),
        path_complex(dg, 3).x,
        primary_vertex_deletion(fam).x,
        secondary_vertex_deletion(fam).x,
        partition_faces(fam, Clustering(g, [[1, 2], [3], [4]])).x,
        link_blowup_faces(fam, Clustering(g, [[1], [2, 3], [4]])).x,
        starting_vertex_faces(
            [MarkedSubgraph(dg.subgraph({"a", "b", "c"}, ["e1", "e2"]),
                            frozenset("a"))], dg).x,
    ]
    for ds in produced:
        assert ds.validate().ok

    rng = random.Random(111111)
    caught = 0
    landed_valid = 0
    for _ in range(100):
        base = produced[rng.randrange(len(produced))]
        dims = [n for n in range(1, base.dim_count)
                if base.counts[n] and base.counts[n - 1] >= 2]
        n = rng.choice(dims)
        j = rng.randrange(base.counts[n])
        i = rng.randrange(n + 1)
        old = base.faces[n][j][i]
        new = rng.choice([t for t in range(base.counts[n - 1]) if t != old])
        faces = [list(map(list, lvl)) for lvl in base.faces]
        faces[n][j][i] = new
        corrupted = DeltaSet(base.counts, faces)
        rep = corrupted.validate()
        if rep.ok:
            landed_valid += 1
        else:
            assert rep.violations  # named (cell, i, j) witnesses
            caught += 1
    assert caught >= 99, (caught, landed_valid)
    report(11, f"all constructors validate; {caught}/100 corruptions caught "
               f"({landed_valid} landed on valid Δ-sets)")


def test_criterion_12_exact_triangle_on_seeded_filtrations():
    rng = random.Random(121212)
    for k in range(50):
        pc = random_cloud(rng, max_points=5)
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n])
                                  if rng.random() < 0.5}
                              for n in range(ds.dim_count)})
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
        assert triangle_report(filt, GF2).exact, k
    report(12, "rank bookkeeping of J, P and the connecting map closes on "
               "50 seeded filtrations")


def test_criterion_13_mod2_parity_equivalence():
    rng = random.Random(131313)
    for k in range(100):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=10)
        x = sh.x
        cc = boundary_matrices(x, GF2)
        n = rng.randrange(x.dim_count)
        cells = [(n, j) for j in range(x.counts[n]) if rng.random() < 0.5]
        rep = mod2_parity_check(x, cells)
        vec = [0] * x.counts[n]
        for _, j in cells:
            vec[j] ^= 1
        if n > 0:
            is_cycle = all(v == 0 for v in boundaries(cc)[n].apply(vec))
        else:
            is_cycle = True
        assert rep.is_cycle == is_cycle, k
    report(13, "100 seeded chains: in-degree parity agrees with the GF(2) "
               "boundary")


def test_criterion_14_determinism(tmp_path):
    cloud = tmp_path / "square.xy"
    cloud.write_text("p0 0 0\np1 1 0\np2 1 1\np3 0 1\n")
    cfg = tmp_path / "job.cfg"
    manifests = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        cfg.write_text(f"cloud = {cloud}\nconstruction = clique\nscheme = vr\n"
                       f"field = gf2\nmax_dim = 3\nout = {out}\n")
        assert main(["persist", "--config", str(cfg)]) == 0
        manifests.append((out / "manifest.txt").read_text())
    assert manifests[0] == manifests[1]
    report(14, "repeated persist runs hash-match on the output manifest")
