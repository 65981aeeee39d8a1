"""Homology engine: boundary matrices, embedded/relative/ambient homology,
gap series, induced maps, Mayer–Vietoris diagnostics, mod-2 parity."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superph import (GF2, QQ, GF, DeltaMorphism, DeltaSet, GradedSubset,
                     MultiGraph, SuperHypergraph, boundary_matrices,
                     clique_delta, embedded_betti, embedded_chain_data,
                     from_hypergraph, full_subset, gap_series,
                     geometric_gap_betti, induced_homology_map,
                     mod2_parity_check, mv_diagnostics, standard_simplex_delta,
                     subcomplex_homology)
from superph.delta import ValidationReport, delta_closure, max_delta_subset
from superph.fields import Span, relations
from superph.homology import inclusion_quasi_iso, inf_basis
from superph.persistence import embedded_homology_basis
from conftest import (collapsed_tower, pillow_delta, pillow_sh,
                      random_super_hypergraph)
from oracles import (SubspaceBasis, boundaries, boundary_of_span,
                     brute_zb_dims_gf2, contains_subspace, cycles_in_span,
                     dense_embedded_betti, dense_embedded_chain_data,
                     dense_gap_series, dense_geometric_gap_betti,
                     dense_inclusion_quasi_iso, dense_induced_homology_map,
                     dense_inf_space, dense_mv_diagnostics, dense_span,
                     dense_subcomplex_homology, dense_vector, inf_zb,
                     kernel_basis, preimage_basis, quotient_gap_betti, rank,
                     subspace_intersect, subspace_sum)


def pad(t, n):
    return tuple(t) + (0,) * (n - len(t))


# ---------------------------------------------------------------------------
# boundary matrices
# ---------------------------------------------------------------------------

def test_boundary_two_simplex_signs():
    cc = boundary_matrices(standard_simplex_delta(2), QQ)
    assert boundaries(cc)[2].column(0) == (Fraction(1), Fraction(-1), Fraction(1))


def test_boundary_gf2_unsigned():
    cc = boundary_matrices(standard_simplex_delta(2), GF2)
    assert set(boundaries(cc)[2].column(0)) == {1}


def test_boundary_pillow():
    cc = boundary_matrices(pillow_delta(), QQ)
    # d0 f = d2 f = e1, d1 f = e2: column is 2 e1 - e2
    assert boundaries(cc)[2].column(0) == (Fraction(2), Fraction(-1))
    cc2 = boundary_matrices(pillow_delta(), GF2)
    assert boundaries(cc2)[2].column(0) == (0, 1)


def test_boundary_validated_checks_boundary_squared(monkeypatch):
    # a 2-cell with the same edge as every face breaks the Δ-identity; with
    # validate() reporting ok, the ∂∂ = 0 check on the sparse columns still
    # raises
    x = standard_simplex_delta(2)
    broken = DeltaSet(x.counts, [x.faces[0], x.faces[1], [(0, 0, 0)]])
    monkeypatch.setattr(DeltaSet, "validate", lambda self: ValidationReport(True))
    for field in (GF2, GF(3), QQ):
        with pytest.raises(AssertionError, match="∂∂ != 0 between degrees 2 and 0"):
            boundary_matrices(broken, field)


def test_boundary_rejects_invalid_delta():
    x = standard_simplex_delta(2)
    row = list(x.faces[2][0])
    row[0], row[2] = row[2], row[0]
    broken = DeltaSet(x.counts, [x.faces[0], x.faces[1], [tuple(row)]])
    with pytest.raises(Exception):
        boundary_matrices(broken, GF2)


# ---------------------------------------------------------------------------
# embedded chain data
# ---------------------------------------------------------------------------

def test_chain_data_full_marking_is_everything():
    x = standard_simplex_delta(2)
    data = embedded_chain_data(SuperHypergraph(x, full_subset(x)), QQ)
    for n in range(x.dim_count):
        assert dense_span(data.inf[n], x.counts[n]) == SubspaceBasis.full(QQ, x.counts[n])
        assert dense_span(data.sup[n], x.counts[n]) == SubspaceBasis.full(QQ, x.counts[n])


def test_chain_data_pillow():
    data = embedded_chain_data(pillow_sh(), QQ)
    assert data.inf[2].dim == 1 and data.inf[2].contains({0: 1, 1: -1})
    assert data.inf[1].dim == 0


def test_chain_data_simplex_missing_edge():
    # marked: the 2-cell, edges [01], [02], all vertices
    x = standard_simplex_delta(2)
    idx = {x.label(1, j): j for j in range(3)}
    h = GradedSubset({0: {0, 1, 2}, 1: {idx[(0, 1)], idx[(0, 2)]}, 2: {0}})
    data = embedded_chain_data(SuperHypergraph(x, h), QQ)
    assert data.inf[1].dim == 2
    assert data.inf[2].dim == 0


def test_chain_data_invariants(rng):
    for _ in range(15):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        for field in (GF2, QQ):
            cc = boundary_matrices(sh.x, field)
            data = embedded_chain_data(sh, field, cc)
            inf = [dense_span(s, c) for s, c in zip(data.inf, sh.x.counts)]
            sup = [dense_span(s, c) for s, c in zip(data.sup, sh.x.counts)]
            for n in range(sh.x.dim_count):
                d_n = SubspaceBasis.coordinate(field, sh.x.counts[n], sh.h.at(n))
                assert contains_subspace(d_n, inf[n])
                assert contains_subspace(sup[n], d_n)
                if n > 0:
                    for v in inf[n].vectors:
                        assert inf[n - 1].contains(boundaries(cc)[n].apply(v))
                    for v in sup[n].vectors:
                        assert sup[n - 1].contains(boundaries(cc)[n].apply(v))


@pytest.mark.parametrize("field", [GF2, GF(3), QQ])
def test_dense_inf_matches_sparse_inf_basis(field, rng):
    # the dense oracle's inf_n, computed from its definition
    # D_n ∩ ∂⁻¹(D_{n-1}), and the sparse chain data's inf_n against the span
    # of the sparse engine's filtered basis of the one-step marking (entry 0
    # on H, never elsewhere), on partial markings (some not closed under
    # faces, so inf ≠ D) and on full markings
    proper = full = 0
    for case in range(16):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8,
                                     keep=(0.5, 0.8)[case % 2])
        x = sh.x
        if case % 4 == 3:
            sh = SuperHypergraph(x, full_subset(x))
            full += 1
        cc = boundary_matrices(x, field)
        data = embedded_chain_data(sh, field, cc)
        entry = tuple(tuple(0 if j in sh.h.at(n) else math.inf for j in range(count))
                      for n, count in enumerate(x.counts))
        for n, count in enumerate(x.counts):
            basis = inf_basis(cc, entry, n)
            assert set(basis.entries) <= {0}
            span = SubspaceBasis(field, count, [[v.get(j, field.zero) for j in range(count)]
                                                for v in basis.vectors])
            assert dense_inf_space(cc, sh.h, n) == span
            assert dense_span(data.inf[n], count) == span
            proper += span != SubspaceBasis.coordinate(field, count, sh.h.at(n))
    assert proper >= 3 and full == 4


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------

def test_betti_boundary_edges_only():
    sh = from_hypergraph([(0, 1), (0, 2), (1, 2)])
    for field in (GF2, QQ):
        assert pad(embedded_betti(sh, field), 3) == (0, 1, 0)


def test_betti_simplex_missing_edge_variants():
    sh = from_hypergraph([(0, 1, 2), (0, 1), (0, 2), (0,), (1,), (2,)])
    sh2 = from_hypergraph([(0, 1, 2), (0, 1), (0,), (1,), (2,)])
    for field in (GF2, QQ):
        assert embedded_betti(sh, field) == (1, 0, 0)
        assert embedded_betti(sh2, field) == (2, 0, 0)


def test_betti_pillow_parallel_faces():
    sh = pillow_sh()
    assert embedded_betti(sh, QQ) == (1, 0, 1)
    assert embedded_betti(sh, GF2) == (1, 0, 1)
    # with only the two parallel 2-cells marked the table is (0, 0, 1)
    assert embedded_betti(pillow_sh(include_vertex=False), QQ) == (0, 0, 1)


def test_betti_simplex_vs_collapsed_tower():
    x = standard_simplex_delta(3)
    shx = SuperHypergraph(x, GradedSubset({3: {0}}))
    assert embedded_betti(shx, QQ) == (0, 0, 0, 0)
    assert embedded_betti(shx, GF2) == (0, 0, 0, 0)
    y = collapsed_tower(3)
    shy = SuperHypergraph(y, GradedSubset({3: {0}}))
    assert embedded_betti(shy, QQ) == (0, 0, 0, 1)
    assert embedded_betti(shy, GF2) == (0, 0, 0, 1)


def test_relative_and_ambient_modes():
    x = standard_simplex_delta(2)
    sh = SuperHypergraph(x, full_subset(x))
    assert embedded_betti(sh, QQ, "relative") == (0, 0, 0)
    assert embedded_betti(sh, QQ, "ambient") == (1, 0, 0)
    # two edges with all vertices marked, edges unmarked
    x2 = from_hypergraph([(0, 1), (1, 2)]).x
    sh2 = SuperHypergraph(x2, GradedSubset({0: {0, 1, 2}}))
    assert embedded_betti(sh2, QQ, "absolute") == (3, 0)
    assert embedded_betti(sh2, QQ, "relative") == (0, 2)
    assert embedded_betti(sh2, QQ, "ambient") == (1, 0)


def test_known_surface_homology_torus_and_projective_plane():
    # torus: one vertex, three loop edges, two triangles glued a+b-c / b+a-c
    torus = DeltaSet([1, 3, 2],
                     [(), [(0, 0), (0, 0), (0, 0)],
                      [(1, 2, 0), (0, 2, 1)]])
    assert torus.validate().ok
    sht = SuperHypergraph(torus, full_subset(torus))
    for field in (GF2, QQ, GF(3)):
        assert embedded_betti(sht, field, "ambient") == (1, 2, 1)
    # projective plane: two vertices, edges a,b from v to w and a loop c at v
    rp2 = DeltaSet([2, 3, 2],
                   [(), [(1, 0), (1, 0), (0, 0)],
                    [(1, 0, 2), (0, 1, 2)]])
    assert rp2.validate().ok
    shp = SuperHypergraph(rp2, full_subset(rp2))
    assert embedded_betti(shp, GF2, "ambient") == (1, 1, 1)   # 2-torsion visible
    assert embedded_betti(shp, QQ, "ambient") == (1, 0, 0)
    assert embedded_betti(shp, GF(3), "ambient") == (1, 0, 0)


def test_euler_characteristic_consistency(rng):
    # alternating sums: cells vs ambient Betti
    for _ in range(10):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=10)
        betti = embedded_betti(sh, GF2, "ambient")
        euler_cells = sum((-1) ** n * c for n, c in enumerate(sh.x.counts))
        euler_betti = sum((-1) ** n * b for n, b in enumerate(betti))
        assert euler_cells == euler_betti


def test_betti_brute_force_gf2(rng):
    for _ in range(20):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8,
                                     cap_per_degree=12)
        betti = embedded_betti(sh, GF2)
        for n in range(sh.x.dim_count):
            z, b = brute_zb_dims_gf2(sh, n)
            assert betti[n] == z - b


def test_nonface_marking_detects_cycles(rng):
    # when only non-face cells are marked, embedded homology in degree n is
    # exactly span(H_n) ∩ ker boundary
    for _ in range(10):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        x = sh.x
        face_cells = {(n - 1, t) for n in range(1, x.dim_count)
                      for j in range(x.counts[n]) for t in x.faces[n][j]}
        marks = {}
        for n in range(x.dim_count):
            nonface = {j for j in range(x.counts[n]) if (n, j) not in face_cells}
            if nonface:
                marks[n] = nonface
        shn = SuperHypergraph(x, GradedSubset(marks))
        cc = boundary_matrices(x, GF2)
        betti = embedded_betti(shn, GF2, cc=cc)
        for n in range(x.dim_count):
            span = SubspaceBasis.coordinate(GF2, x.counts[n], shn.h.at(n))
            assert betti[n] == cycles_in_span(cc, n, span).dim


def test_static_relative_matches_filtration_final_step(rng):
    from superph import build_filtration, constant_scheme, triangle_report
    from superph import MultiGraph, clique_delta
    for _ in range(5):
        n = rng.randint(2, 4)
        g = MultiGraph.complete(range(n))
        ds = clique_delta(g, max_dim=2)
        marks = GradedSubset({k: {j for j in range(ds.counts[k])
                                  if rng.random() < 0.5}
                              for k in range(ds.dim_count)})
        sh = SuperHypergraph(ds, marks)
        filt = build_filtration(sh, constant_scheme(0.0))
        tr = triangle_report(filt, GF2)
        rel = embedded_betti(sh, GF2, "relative")
        by_degree = {r.degree: r.dim_relative for r in tr.rows}
        for k in range(ds.dim_count):
            assert rel[k] == by_degree[k]


def test_inf_sup_homology_agree(rng):
    for _ in range(12):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        for field in (GF2, QQ, GF(5)):
            cc = boundary_matrices(sh.x, field)
            data = embedded_chain_data(sh, field, cc)
            from_inf = subcomplex_homology(cc, list(data.inf))
            from_sup = subcomplex_homology(cc, list(data.sup))
            assert from_inf == from_sup == embedded_betti(sh, field, cc=cc)


def test_closure_stability(rng):
    # replacing X by the Δ-closure of H leaves embedded homology unchanged
    from superph import delta_closure
    for _ in range(10):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        closure = delta_closure(sh)
        idxs = [sorted(closure.at(n)) for n in range(sh.x.dim_count)]
        pos = [{j: k for k, j in enumerate(ix)} for ix in idxs]
        counts = [len(ix) for ix in idxs]
        faces = [[tuple(pos[n - 1][t] for t in sh.x.faces[n][j]) for j in idxs[n]]
                 for n in range(1, sh.x.dim_count)]
        sub = DeltaSet(counts, [()] + faces)
        h2 = GradedSubset({n: {pos[n][j] for j in sh.h.at(n)}
                           for n in range(sh.x.dim_count) if sh.h.at(n)})
        small = SuperHypergraph(sub, h2)
        assert pad(embedded_betti(small, GF2), sh.x.dim_count) == \
            pad(embedded_betti(sh, GF2), sh.x.dim_count)


# ---------------------------------------------------------------------------
# gap series and geometric gap
# ---------------------------------------------------------------------------

def test_relative_homology_inf_and_sup_quotients_agree(rng):
    # C/inf and C/sup have isomorphic homology; the engine uses the
    # inf-quotient, so recompute through the sup-quotient as a dual route
    for _ in range(10):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        for field in (GF2, QQ):
            cc = boundary_matrices(sh.x, field)
            data = embedded_chain_data(sh, field, cc)
            sup = [dense_span(s, c) for s, c in zip(data.sup, sh.x.counts)]
            via_inf = embedded_betti(sh, field, "relative", cc=cc)
            nd = sh.x.dim_count
            via_sup = []
            for n in range(nd):
                if n == 0:
                    zq = sh.x.counts[0]
                else:
                    zq = preimage_basis(boundaries(cc)[n], sup[n - 1]).dim
                im = boundary_of_span(
                    cc, n + 1,
                    SubspaceBasis.full(field, sh.x.counts[n + 1])
                    if n + 1 < nd else None)
                via_sup.append(zq - subspace_sum(im, sup[n]).dim)
            assert via_inf == tuple(via_sup)


def test_les_alternating_rank_sum_vanishes(rng):
    # exactness of inf -> C_*(X) -> quotient: the full alternating sum of
    # dimensions along the long exact sequence telescopes to zero
    for _ in range(12):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=10)
        for field in (GF2, QQ):
            emb = embedded_betti(sh, field, "absolute")
            amb = embedded_betti(sh, field, "ambient")
            rel = embedded_betti(sh, field, "relative")
            total = sum((-1) ** n * (emb[n] - amb[n] + rel[n])
                        for n in range(sh.x.dim_count))
            assert total == 0


def test_orientation_invariance_larger_corpus(rng):
    from conftest import random_hypergraph
    for _ in range(10):
        edges = random_hypergraph(rng, max_vertices=7, max_edges=30)
        vertices = sorted(set().union(*edges))
        perm = vertices[:]
        rng.shuffle(perm)
        assert embedded_betti(from_hypergraph(edges, order=vertices), GF2) == \
            embedded_betti(from_hypergraph(edges, order=perm), GF2)


def test_gap_series_examples():
    x = standard_simplex_delta(2)
    assert gap_series(SuperHypergraph(x, full_subset(x)), QQ) == (0, 0, 0)
    x3 = standard_simplex_delta(3)
    shx = SuperHypergraph(x3, GradedSubset({3: {0}}))
    assert gap_series(shx, QQ) == (0, 0, 1, 1)
    shy = SuperHypergraph(collapsed_tower(3), GradedSubset({3: {0}}))
    assert gap_series(shy, QQ) == (0, 0, 0, 0)


def test_gap_nonnegative_and_acyclic(rng):
    for _ in range(10):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        cc = boundary_matrices(sh.x, GF2)
        series = gap_series(sh, GF2, cc)
        assert all(v >= 0 for v in series)
        # homology of sup/inf is zero: dim Z(quotient) == dim B(quotient)
        data = embedded_chain_data(sh, GF2, cc)
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
            assert zq.dim - inf[n].dim == bq.dim - inf[n].dim


def test_geometric_gap_examples():
    x = standard_simplex_delta(2)
    assert geometric_gap_betti(SuperHypergraph(x, full_subset(x)), QQ) == (0, 0, 0)
    shB = from_hypergraph([(0, 1), (0, 2), (1, 2)])
    # closure is the triangle boundary, core is empty: unreduced homology
    sh = SuperHypergraph(shB.x, GradedSubset({1: {0, 1, 2}}))
    assert geometric_gap_betti(sh, QQ) == (1, 1)
    assert geometric_gap_betti(sh, GF2) == (1, 1)
    # one edge plus its faces: closure equals core
    sh2 = SuperHypergraph(shB.x, GradedSubset({0: {0, 1}, 1: {0}}))
    assert geometric_gap_betti(sh2, QQ) == (0, 0)


def test_geometric_gap_matches_quotient_oracle(rng):
    # relative (Z, B) spaces of (closure, core) against the quotient matrices
    # on closure ∖ core; every third marking drops its vertices, so its core
    # is empty
    empty_core = partial = 0
    for k in range(30):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        if k % 3 == 0:
            sh = SuperHypergraph(sh.x, GradedSubset(
                {n: sh.h.at(n) for n in sh.h.dims() if n}))
        empty_core += not max_delta_subset(sh)
        partial += delta_closure(sh) != sh.h
        for field in (GF2, GF(3), QQ):
            assert geometric_gap_betti(sh, field) == quotient_gap_betti(sh, field), \
                (k, field)
    assert empty_core >= 10 and partial > 0


def test_shared_memo_does_not_leak_between_markings(rng):
    # one chain complex serves two markings of the same X, in turn; every
    # result must equal the one computed on a fresh chain complex
    differ = 0
    for _ in range(6):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=10)
        x = sh.x
        other = SuperHypergraph(x, GradedSubset(
            {n: {j for j in range(x.counts[n]) if rng.random() < 0.5}
             for n in range(x.dim_count)}))
        for field in (GF2, GF(3), QQ):
            cc = boundary_matrices(x, field)
            tables = []
            for marked in (sh, other, sh, other):
                table = tuple(embedded_betti(marked, field, mode, cc=cc)
                              for mode in ("absolute", "relative", "ambient"))
                assert table == tuple(embedded_betti(marked, field, mode)
                                      for mode in ("absolute", "relative", "ambient"))
                gap = gap_series(marked, field, cc=cc)
                assert gap == gap_series(marked, field)
                tables.append((table, gap))
            differ += tables[0] != tables[1]
            # markings equal to sh except in one degree share every memo key
            # that leaves that degree out
            for k in range(x.dim_count):
                variant = SuperHypergraph(x, GradedSubset(
                    {n: sh.h.at(n) for n in sh.h.dims() if n != k}))
                for mode in ("absolute", "relative"):
                    assert embedded_betti(variant, field, mode, cc=cc) == \
                        embedded_betti(variant, field, mode)
                assert gap_series(variant, field, cc=cc) == gap_series(variant, field)
    assert differ > 0


def _static_tables(sh, field):
    return (tuple(embedded_betti(sh, field, mode)
                  for mode in ("absolute", "relative", "ambient")),
            gap_series(sh, field), geometric_gap_betti(sh, field))


def _dense_tables(sh, field):
    return (tuple(dense_embedded_betti(sh, field, mode)
                  for mode in ("absolute", "relative", "ambient")),
            dense_gap_series(sh, field), dense_geometric_gap_betti(sh, field))


def _random_clique_sh(rng, vertices=7, edges=15, marked=0.7):
    pairs = list(itertools.combinations(range(vertices), 2))
    g = MultiGraph(range(vertices), {f"e{u}_{v}": (u, v)
                                     for u, v in rng.sample(pairs, edges)})
    x = clique_delta(g, max_dim=3)
    return SuperHypergraph(x, GradedSubset(
        {n: rng.sample(range(x.counts[n]), round(marked * x.counts[n]))
         for n in range(x.dim_count)}))


def test_sparse_static_homology_matches_dense_oracle(rng):
    # Betti tables, gap series and geometric gap homology from the sparse
    # reduction against the dense (Z, B) route, on random closures of
    # hypergraphs, marked clique Δ-sets like the benchmark's, and the
    # non-simplicial pillow and collapsed towers
    cases = [random_super_hypergraph(rng, max_vertices=5, max_edges=10, keep=keep)
             for keep in (0.3, 0.6, 0.85) for _ in range(6)]
    cases += [_random_clique_sh(rng) for _ in range(4)]
    cases += [pillow_sh(), pillow_sh(include_vertex=False)]
    cases += [SuperHypergraph(collapsed_tower(k), GradedSubset({1: {0}, k: {0}}))
              for k in (2, 3, 4)]
    partial = 0
    for k, sh in enumerate(cases):
        for field in (GF2, GF(3), QQ):
            tables = _static_tables(sh, field)
            assert tables == _dense_tables(sh, field), (k, field)
            partial += any(tables[1])
    assert partial >= 30


def test_betti_tables_reduce_each_full_boundary_once(rng, monkeypatch):
    # the ambient table takes rk ∂_n from the reduction of the relative
    # table (the rank does not depend on the row order): one reduction of
    # ∂_n on H_n and one on X_n per degree n >= 1, not a third
    import superph.homology
    real = superph.homology.reduce_columns
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(superph.homology, "reduce_columns", counted)
    sh = _random_clique_sh(rng)
    assert all(0 < len(sh.h.at(n)) < sh.x.counts[n] for n in range(sh.x.dim_count))
    cc = boundary_matrices(sh.x, QQ)
    tables = tuple(embedded_betti(sh, QQ, mode, cc=cc)
                   for mode in ("absolute", "relative", "ambient"))
    assert gap_series(sh, QQ, cc=cc) == dense_gap_series(sh, QQ)
    assert len(calls) == 2 * (sh.x.dim_count - 1)
    assert tables == tuple(dense_embedded_betti(sh, QQ, mode)
                           for mode in ("absolute", "relative", "ambient"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_static_homology_property(data):
    # small Δ-sets (closures of drawn hypergraphs, or collapsed towers) with
    # drawn markings and fields: the sparse tables equal the dense oracle
    if data.draw(st.booleans()):
        edges = data.draw(st.lists(st.frozensets(st.integers(0, 4), min_size=1,
                                                 max_size=4), min_size=1, max_size=6))
        x = from_hypergraph(edges).x
    else:
        x = collapsed_tower(data.draw(st.integers(1, 4)))
    marks = GradedSubset({n: data.draw(st.sets(st.integers(0, x.counts[n] - 1)))
                          for n in range(x.dim_count)})
    field = data.draw(st.sampled_from((GF2, GF(3), QQ)))
    sh = SuperHypergraph(x, marks)
    assert _static_tables(sh, field) == _dense_tables(sh, field)


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

def test_induced_identity():
    sh = pillow_sh()
    x = sh.x
    ident = DeltaMorphism(x, x, [list(range(c)) for c in x.counts])
    m = induced_homology_map(ident, sh, sh, QQ, 2)
    assert m.rows == m.cols == 1
    assert m.entry(0, 0) == 1


def test_induced_collapse_tower():
    x = standard_simplex_delta(3)
    y = collapsed_tower(3)
    shx = SuperHypergraph(x, GradedSubset({3: {0}}))
    shy = SuperHypergraph(y, GradedSubset({3: {0}}))
    m = DeltaMorphism(x, y, [[0] * c for c in x.counts])
    mat = induced_homology_map(m, shx, shy, QQ, 3)
    assert (mat.rows, mat.cols) == (1, 0)  # source homology 0, target 1-dim


def test_induced_inclusion_rank_matches_brute(rng):
    # inclusion of a marked subset into the full marking of a simplex
    x = standard_simplex_delta(2)
    full = SuperHypergraph(x, full_subset(x))
    sub = SuperHypergraph(x, GradedSubset({0: {0, 1, 2}, 1: {0, 1, 2}}))
    ident = DeltaMorphism(x, x, [list(range(c)) for c in x.counts])
    mat = induced_homology_map(ident, sub, full, QQ, 1)
    # the boundary cycle dies in the full simplex
    assert (mat.rows, mat.cols) == (0, 1)


def test_induced_injective_onto_marked_is_invertible(rng):
    # an injective Δ-map carrying the marked set onto the marked set induces
    # an isomorphism: restrict a random pair to the Δ-closure of its marks
    from superph import delta_closure
    for _ in range(8):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        closure = delta_closure(sh)
        idxs = [sorted(closure.at(n)) for n in range(sh.x.dim_count)]
        pos = [{j: k for k, j in enumerate(ix)} for ix in idxs]
        counts = [len(ix) for ix in idxs]
        faces = [[tuple(pos[n - 1][t] for t in sh.x.faces[n][j]) for j in idxs[n]]
                 for n in range(1, sh.x.dim_count)]
        sub = DeltaSet(counts, [()] + faces)
        h_small = GradedSubset({n: {pos[n][j] for j in sh.h.at(n)}
                                for n in range(sh.x.dim_count) if sh.h.at(n)})
        small = SuperHypergraph(sub, h_small)
        inclusion = DeltaMorphism(sub, sh.x, [list(idxs[n]) for n in range(sub.dim_count)])
        for degree in range(sub.dim_count):
            mat = induced_homology_map(inclusion, small, sh, QQ, degree)
            assert mat.rows == mat.cols == rank(mat)  # invertible


def test_induced_invalid_morphism_rejected():
    x = standard_simplex_delta(1)
    sh = SuperHypergraph(x, GradedSubset({1: {0}}))
    tgt = SuperHypergraph(x, GradedSubset({0: {0}}))
    ident = DeltaMorphism(x, x, [list(range(c)) for c in x.counts])
    with pytest.raises(ValueError):
        induced_homology_map(ident, sh, tgt, QQ, 1)


# ---------------------------------------------------------------------------
# Mayer–Vietoris diagnostics
# ---------------------------------------------------------------------------

def pillow_cover():
    a = GradedSubset({0: {0}, 1: {0, 1}, 2: {0}})
    b = GradedSubset({0: {0}, 1: {0, 1}, 2: {1}})
    return a, b


def test_mv_trivial_cover():
    x = standard_simplex_delta(2)
    sh = SuperHypergraph(x, full_subset(x))
    rep = mv_diagnostics(sh, full_subset(x), full_subset(x), QQ)
    assert rep.sup_sum_equals_sup_x and rep.inf_intersect_equals_inf_of_intersection
    assert rep.left_quasi_iso and rep.middle_quasi_iso and rep.right_quasi_iso


def test_mv_pillow_failure():
    sh = pillow_sh(include_vertex=False)
    a, b = pillow_cover()
    rep = mv_diagnostics(sh, a, b, QQ)
    assert rep.sup_sum_equals_sup_x
    assert rep.inf_intersect_equals_inf_of_intersection
    assert rep.middle_quasi_iso
    assert not rep.left_quasi_iso or not rep.right_quasi_iso
    # half-terms vanish in degree 2 while the union carries one class
    assert rep.betti_summands[2] == (0, 0)
    assert embedded_betti(sh, QQ)[2] == 1


def test_mv_classical_rank_sum(rng):
    # with H = X the diagnostics reduce to classical Mayer–Vietoris: the
    # alternating sum over the long exact sequence vanishes
    x = standard_simplex_delta(2)
    sh = SuperHypergraph(x, full_subset(x))
    # A = star of vertex 0 (all cells touching 0 plus faces), B = opposite edge+vertices
    a_cells = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]
    a = GradedSubset.from_cells(a_cells)
    b = GradedSubset({0: {1, 2}, 1: {2}})
    rep = mv_diagnostics(sh, a, b, QQ)
    inter = rep.betti_intersection
    summand = [p + q for p, q in rep.betti_summands]
    union = rep.betti_union
    alt = sum((-1) ** n * (inter[n] - summand[n] + union[n])
              for n in range(len(union)))
    assert alt == 0
    assert rep.left_quasi_iso and rep.right_quasi_iso


def test_mv_precondition_checks():
    sh = pillow_sh()
    bad = GradedSubset({2: {0}})  # not a Δ-subset
    with pytest.raises(ValueError):
        mv_diagnostics(sh, bad, full_subset(sh.x), QQ)
    a, _ = pillow_cover()
    with pytest.raises(ValueError):
        mv_diagnostics(sh, a, a.intersection(GradedSubset({0: {0}})), QQ)


# ---------------------------------------------------------------------------
# sparse spans against the dense subspace layer
# ---------------------------------------------------------------------------

def _random_chains(rng, field, size, count):
    """count random sparse vectors over `size` coordinates, zero and
    dependent ones included."""
    out = []
    for _ in range(count):
        v = {i: field.of(rng.choice((1, -1, 2))) for i in range(size) if rng.random() < 0.4}
        out.append({i: a for i, a in v.items() if a})
    return out


def _dense_basis(field, size, chains):
    return SubspaceBasis(field, size, [dense_vector(field, size, v) for v in chains])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.3, 0.6, 0.85)),
       st.sampled_from((GF2, GF(3), QQ)))
def test_sparse_spans_match_dense_oracle_property(seed, keep, field):
    # on a random closure of a hypergraph with a partial marking: the sparse
    # span's sum, intersection and kernel, the chain data (whose inf is a
    # preimage), subcomplex homology, the inclusion test, the Mayer–Vietoris
    # report and the induced maps' shapes and ranks against the dense
    # subspace layer; the induced maps also compose
    rng = random.Random(seed)
    sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8, keep=keep)
    x, counts = sh.x, sh.x.counts
    cc = boundary_matrices(x, field)
    for n, size in enumerate(counts):
        a = _random_chains(rng, field, size, rng.randint(0, 4))
        b = _random_chains(rng, field, size, rng.randint(0, 4))
        sa, sb = Span(field, a), Span(field, b)
        da, db = _dense_basis(field, size, a), _dense_basis(field, size, b)
        assert dense_span(sa, size) == da and all(sa.contains(v) for v in a)
        assert dense_span(sa.sum(sb), size) == subspace_sum(da, db)
        assert dense_span(sa.intersect(sb), size) == subspace_intersect(da, db)
        # reduced echelon bases: equal spans compare equal
        assert sa.sum(sb) == sb.sum(sa) == Span(field, b + a)
        assert sa.intersect(sb) == sb.intersect(sa)
        if n:
            assert dense_span(Span(field, relations(field, cc.columns[n])), size) == \
                kernel_basis(boundaries(cc)[n])

    data = embedded_chain_data(sh, field, cc)
    dense = dense_embedded_chain_data(sh, field, cc)
    assert [dense_span(s, c) for s, c in zip(data.inf, counts)] == list(dense.inf)
    assert [dense_span(s, c) for s, c in zip(data.sup, counts)] == list(dense.sup)
    for spans, dense_spans in ((data.inf, dense.inf), (data.sup, dense.sup)):
        assert subcomplex_homology(cc, spans) == dense_subcomplex_homology(cc, dense_spans)
    assert inclusion_quasi_iso(cc, data.inf, data.sup) == \
        dense_inclusion_quasi_iso(cc, dense.inf, dense.sup)

    part = GradedSubset.from_cells(c for c in x.cells() if rng.random() < 0.5)
    rest = GradedSubset.from_cells(c for c in x.cells() if c not in part)
    cover_a = delta_closure(SuperHypergraph(x, part))
    cover_b = delta_closure(SuperHypergraph(x, rest))
    assert mv_diagnostics(sh, cover_a, cover_b, field) == \
        dense_mv_diagnostics(sh, cover_a, cover_b, field)

    ident = DeltaMorphism(x, x, [list(range(c)) for c in counts])
    sub = SuperHypergraph(x, sh.h.intersection(cover_a))
    subsub = SuperHypergraph(x, sub.h.intersection(cover_b))
    for degree in range(x.dim_count):
        got = induced_homology_map(ident, sub, sh, field, degree)
        want = dense_induced_homology_map(ident, sub, sh, field, degree)
        assert (got.rows, got.cols, rank(got)) == (want.rows, want.cols, rank(want))
        first = induced_homology_map(ident, subsub, sub, field, degree)
        assert got.matmul(first) == induced_homology_map(ident, subsub, sh, field, degree)
        # the homology basis: cycles of the infimum complex, independent
        # modulo its boundaries and as many as the Betti number
        reps, bounds = embedded_homology_basis(sh, field, degree)
        z, b = inf_zb(cc, sh.h, degree)
        assert dense_span(bounds, counts[degree]) == b
        dense_reps = [dense_vector(field, counts[degree], r) for r in reps]
        assert all(z.contains(r) for r in dense_reps)
        assert subspace_sum(b, SubspaceBasis(field, counts[degree], dense_reps)).dim == \
            b.dim + len(reps) == b.dim + embedded_betti(sh, field, cc=cc)[degree]


# ---------------------------------------------------------------------------
# mod-2 parity
# ---------------------------------------------------------------------------

def test_parity_empty_chain():
    assert mod2_parity_check(pillow_delta(), []).is_cycle


def test_parity_pillow_pair_and_single():
    x = pillow_delta()
    assert mod2_parity_check(x, [(2, 0), (2, 1)]).is_cycle
    rep = mod2_parity_check(x, [(2, 0)])
    assert not rep.is_cycle
    assert rep.odd_in_degree_cells == ((1, 1),)


def test_parity_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        mod2_parity_check(pillow_delta(), [(1, 0), (2, 0)])


def test_parity_matches_gf2_boundary(rng):
    for _ in range(30):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        x = sh.x
        cc = boundary_matrices(x, GF2)
        n = rng.randrange(x.dim_count)
        cells = [(n, j) for j in range(x.counts[n]) if rng.random() < 0.5]
        rep = mod2_parity_check(x, cells)
        vec = [0] * x.counts[n]
        for _, j in cells:
            vec[j] ^= 1
        bd = boundaries(cc)[n].apply(vec) if n > 0 else ()
        assert rep.is_cycle == all(v == 0 for v in bd)
