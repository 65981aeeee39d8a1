"""Filtrations, persistence modules, barcodes, correlation matrices and the
exact triangle."""

import itertools
import math
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from superph import (GF2, QQ, Bar, DeltaSet, GradedSubset, MultiGraph,
                     SuperHypergraph, build_filtration, clique_delta,
                     constant_scheme, correlation_matrix, full_barcode,
                     full_subset, partition_persistence, seeded_random_scheme,
                     triangle_report, vr_scheme)
from superph import fields, homology, persistence
from superph.faceops import Clustering, SubgraphFamily, primary_vertex_deletion
from superph.fields import GF, FieldMatrix, combine
from superph.homology import (ChainComplex, boundary_matrices, embedded_betti,
                              embedded_chain_data)
from superph.persistence import (ARROWS, MODULE_KINDS, DominationError,
                                 RegularityError, TriangleRow)
from superph.scoring import PointCloud, pullback_scheme, vr_points

from conftest import pillow_delta, random_cloud, unit_square_cloud
import oracles
from oracles import (PersistenceModule, SubspaceBasis, barcode, boundaries,
                     decomposition_barcode, dense_full_barcode, dense_inf_space,
                     dense_triangle_report, express_in_vectors, identity_matrix,
                     inf_zb, issubset, levels, matrix_from_rows, n_cells,
                     oracle_persistence_bars_gf2, persistence_module,
                     preimage_basis, rank as matrix_rank, rank_full_barcode,
                     subspace_intersect, total_at, zb_family)

SQ2 = float(f"{math.sqrt(2) / 2:.12g}")


def square_filtration(field_free=True):
    pc = unit_square_cloud()
    g = MultiGraph.complete([0, 1, 2, 3])
    ds = clique_delta(g, max_dim=3)
    sh = SuperHypergraph(ds, full_subset(ds))
    return build_filtration(sh, vr_scheme(pc))


def labeled_pillow_sh(marks=None):
    """The two-parallel-faces Δ-set made dominated: cells are labeled by
    loop subgraphs of a one-vertex multigraph."""
    host = MultiGraph(["v"], {f"l{i}": ("v", "v") for i in range(1, 5)})
    x = pillow_delta()
    labels = [
        [host.subgraph({"v"}, ())],
        [host.subgraph({"v"}, {"l1"}), host.subgraph({"v"}, {"l2"})],
        [host.subgraph({"v"}, {"l1", "l2", "l3"}),
         host.subgraph({"v"}, {"l1", "l2", "l4"})],
    ]
    if marks is None:
        marks = GradedSubset({0: {0}, 2: {0, 1}})
    return SuperHypergraph(x.with_labels(labels), marks)


# ---------------------------------------------------------------------------
# build_filtration
# ---------------------------------------------------------------------------

def test_constant_scheme_single_step():
    sh = labeled_pillow_sh()
    filt = build_filtration(sh, constant_scheme(0.0))
    assert filt.times == (0.0,)
    level_x, level_h = levels(filt)
    assert level_x[0] == full_subset(sh.x)
    assert level_h[0] == sh.h
    # single-column barcode equals the static Betti table
    from superph import embedded_betti
    bc = full_barcode(filt, GF2, "embedded")
    static = embedded_betti(sh, GF2)
    for n, want in enumerate(static):
        assert total_at(bc, n, 0.0) == want
        assert all(b.death == math.inf for b in bc.bars)


def test_square_filtration_steps():
    filt = square_filtration()
    assert filt.times == (0.0, 0.5, SQ2)
    level_x = levels(filt)[0]
    assert len(level_x[0]) == 4
    assert len(level_x[1]) == 4 + 4
    assert len(level_x[2]) == 15


def test_empty_filtration():
    sh = SuperHypergraph(DeltaSet((), ()), GradedSubset())
    filt = build_filtration(sh, constant_scheme(0.0))
    assert filt.times == ()
    assert full_barcode(filt, GF2, "ambient").bars == ()
    assert triangle_report(filt, GF2) == persistence.TriangleReport((), True)


def test_filtration_requires_labels():
    x = pillow_delta()
    sh = SuperHypergraph(x, GradedSubset({2: {0, 1}}))
    with pytest.raises(DominationError):
        build_filtration(sh, constant_scheme(0.0))


def test_filtration_rejects_noninjective_labels():
    host = MultiGraph(["v"], {"l1": ("v", "v")})
    x = DeltaSet([2], [()])
    labels = [[host.subgraph({"v"}, ()), host.subgraph({"v"}, ())]]
    sh = SuperHypergraph(x.with_labels(labels), GradedSubset({0: {0}}))
    with pytest.raises(DominationError):
        build_filtration(sh, constant_scheme(0.0))


def test_nonregular_scheme_rejected_then_experimental():
    sh = labeled_pillow_sh()
    bad = seeded_random_scheme(7)
    with pytest.raises(RegularityError):
        build_filtration(sh, bad)
    filt = build_filtration(sh, bad, experimental=True)
    assert filt.steps == 5
    # the experimental modules still decompose consistently
    for which in ("ambient", "embedded", "relative"):
        for n in range(sh.x.dim_count):
            rankbars = barcode(persistence_module(filt, GF2, which, n))
            decomp = decomposition_barcode(filt, GF2, which, n)
            assert rankbars.bars == decomp.bars


def test_zb_family_rejects_shrinking_flags(monkeypatch):
    filt = square_filtration()

    def shrink_last(cc, marks, n):
        if marks is levels(filt)[0][-1]:
            zero = SubspaceBasis.zero(cc.field, cc.space_dim(n))
            return zero, zero
        return inf_zb(cc, marks, n)

    monkeypatch.setattr("oracles.inf_zb", shrink_last)
    with pytest.raises(AssertionError, match="monotonicity"):
        zb_family(filt, GF2, "ambient", 0)


def test_filtration_levels_nested_and_delta_closed():
    filt = square_filtration()
    from superph.homology import boundary_matrices
    level_x = levels(filt)[0]
    for i in range(filt.steps):
        lv = level_x[i]
        if i:
            assert issubset(level_x[i - 1], lv)
        x = filt.sh.x
        for n in range(1, x.dim_count):
            for j in lv.at(n):
                assert all(t in lv.at(n - 1) for t in x.faces[n][j])


# ---------------------------------------------------------------------------
# persistence modules
# ---------------------------------------------------------------------------

def test_module_single_point():
    g = MultiGraph.complete([0])
    ds = clique_delta(g, max_dim=0)
    sh = SuperHypergraph(ds, full_subset(ds))
    filt = build_filtration(sh, vr_scheme(PointCloud({0: (0.0,)})))
    m = persistence_module(filt, GF2, "ambient", 0)
    assert m.dims == (1,)


def test_module_embedded_equals_ambient_when_fully_marked():
    filt = square_filtration()
    for n in range(filt.sh.x.dim_count):
        a = persistence_module(filt, GF2, "ambient", n)
        e = persistence_module(filt, GF2, "embedded", n)
        assert a.dims == e.dims
        assert [m.entries for m in a.maps] == [m.entries for m in e.maps]


def test_module_square_degree_one_dims():
    filt = square_filtration()
    m = persistence_module(filt, GF2, "ambient", 1)
    assert m.dims == (0, 1, 0)
    assert m.verify_composition()


def test_module_composition_law(rng):
    filt = square_filtration()
    for which in ("ambient", "relative"):
        for n in (0, 1, 2):
            assert persistence_module(filt, QQ, which, n).verify_composition()


# ---------------------------------------------------------------------------
# barcodes
# ---------------------------------------------------------------------------

def test_barcode_constant_module():
    m = PersistenceModule("ambient", 0, GF2, (1.0, 2.0, 3.0), (1, 1, 1),
                          (identity_matrix(GF2, 1),) * 2)
    bc = barcode(m)
    assert bc.bars == (Bar(0, 1.0, math.inf, 1),)


def test_barcode_zero_maps_module():
    zero01 = FieldMatrix.zeros(GF2, 0, 1)
    zero10 = FieldMatrix.zeros(GF2, 1, 0)
    m = PersistenceModule("ambient", 0, GF2, (1.0, 2.0, 3.0), (1, 0, 1),
                          (zero01, zero10))
    bc = barcode(m)
    assert bc.bars == (Bar(0, 1.0, 2.0, 1), Bar(0, 3.0, math.inf, 1))


def test_barcode_square_degrees():
    filt = square_filtration()
    deg0 = barcode(persistence_module(filt, GF2, "ambient", 0))
    assert deg0.bars == (Bar(0, 0.0, 0.5, 3), Bar(0, 0.0, math.inf, 1))
    deg1 = barcode(persistence_module(filt, GF2, "ambient", 1))
    assert deg1.bars == (Bar(1, 0.5, SQ2, 1),)


def test_barcode_counts_match_dims(rng):
    for _ in range(6):
        pc = random_cloud(rng, max_points=5)
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=3)
        sh = SuperHypergraph(ds, full_subset(ds))
        filt = build_filtration(sh, vr_scheme(pc))
        for which in ("ambient", "embedded", "relative"):
            for n in range(ds.dim_count):
                m = persistence_module(filt, GF2, which, n)
                bc = barcode(m)
                for i, t in enumerate(filt.times):
                    assert total_at(bc, n, t) == m.dims[i]
                # rank function reconstructed from the barcode
                for i in range(filt.steps):
                    for j in range(i, filt.steps):
                        alive = sum(b.multiplicity for b in bc.bars
                                    if b.birth <= filt.times[i]
                                    and filt.times[j] < b.death)
                        assert alive == m.rank(i, j)


def test_decomposition_matches_rank_barcode(rng):
    # full_barcode (interval decomposition) against the rank inclusion–exclusion
    # oracle, over three fields, with partial markings; every third case uses
    # a non-regular scheme in experimental mode
    nonregular = 0
    for case in range(9):
        pc = random_cloud(rng, max_points=5)
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n])
                                  if rng.random() < 0.6}
                              for n in range(ds.dim_count)})
        sh = SuperHypergraph(ds, marks)
        scheme = vr_scheme(pc)
        if case % 3 == 2:
            scheme = seeded_random_scheme(rng.randrange(10**6))
            try:
                build_filtration(sh, scheme)
            except RegularityError:
                nonregular += 1
        filt = build_filtration(sh, scheme, experimental=case % 3 == 2)
        for field in (GF2, GF(3), QQ):
            for which in ("ambient", "embedded", "relative"):
                for n in range(ds.dim_count):
                    a = barcode(persistence_module(filt, field, which, n)).bars
                    b = decomposition_barcode(filt, field, which, n).bars
                    assert a == b
                assert full_barcode(filt, field, which) == \
                    rank_full_barcode(filt, field, which), (case, field, which)
    assert nonregular == 3


def _inf_below_marking(filt) -> bool:
    """Whether inf(H(t)) ≠ D(H(t)) at some step: a marked cell with an
    unmarked face."""
    x = filt.sh.x
    return any(t not in lh.at(n - 1)
               for lh in levels(filt)[1] for n in range(1, x.dim_count)
               for j in lh.at(n) for t in x.faces[n][j])


def _assert_matches_dense(filt, field, label):
    for which in MODULE_KINDS:
        assert full_barcode(filt, field, which) == \
            dense_full_barcode(filt, field, which), (label, field, which)
    assert triangle_report(filt, field) == dense_triangle_report(filt, field), \
        (label, field)


def test_sparse_persistence_matches_dense_oracle(rng):
    # the sparse engine against the dense (Z, B) route: barcodes and every
    # triangle row, over three fields, partial markings p ∈ {0.3, 0.6, 0.85}
    # and non-regular schemes in experimental mode
    proper = nonregular = 0
    for case in range(12):
        pc = random_cloud(rng, max_points=5)
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=3)
        p = (0.3, 0.6, 0.85)[case % 3]
        marks = GradedSubset({n: {j for j in range(ds.counts[n]) if rng.random() < p}
                              for n in range(ds.dim_count)})
        sh = SuperHypergraph(ds, marks)
        experimental = case % 4 >= 2
        scheme = vr_scheme(pc)
        if experimental:
            scheme = seeded_random_scheme(rng.randrange(10**6))
            try:
                build_filtration(sh, scheme)
            except RegularityError:
                nonregular += 1
        filt = build_filtration(sh, scheme, experimental=experimental)
        proper += _inf_below_marking(filt)
        for field in (GF2, GF(3), QQ):
            _assert_matches_dense(filt, field, case)
    assert proper >= 6 and nonregular >= 4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_persistence_property(data):
    # drawn clouds on a small integer grid (so critical values tie), drawn
    # markings and fields, VR or a seeded random scheme in experimental mode
    points = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                min_size=1, max_size=5, unique=True))
    pc = PointCloud(dict(enumerate(points)))
    ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=data.draw(st.integers(1, 3)))
    marks = GradedSubset({n: data.draw(st.sets(st.integers(0, ds.counts[n] - 1)))
                          for n in range(ds.dim_count)})
    if data.draw(st.booleans()):
        filt = build_filtration(SuperHypergraph(ds, marks),
                                seeded_random_scheme(data.draw(st.integers(0, 10**6))),
                                experimental=True)
    else:
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
    _assert_matches_dense(filt, data.draw(st.sampled_from((GF2, GF(3), QQ))), "drawn")


def test_gf2_persistence_matches_dict_route(rng):
    # barcodes, every correlation matrix and the triangle over GF(2), on the
    # library's arithmetic and on the generic route, each on a fresh Δ-set
    # and filtration (the chain complex, in the kernel's vector format, is
    # kept on the Δ-set, and the reductions on the filtration)
    def outputs(pc, marks):
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=3)
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
        return ([full_barcode(filt, GF2, w) for w in MODULE_KINDS],
                [correlation_matrix(filt, GF2, a, n)
                 for a in ARROWS for n in range(ds.dim_count)],
                triangle_report(filt, GF2))

    for case in range(6):
        pc = random_cloud(rng, max_points=7)
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n]) if rng.random() < 0.7}
                              for n in range(ds.dim_count)})
        fast = outputs(pc, marks)
        with oracles.dict_route():
            slow = outputs(pc, marks)
        assert fast == slow, case


def _sublevel_betti(filt, field, i: int) -> dict:
    """The static Betti numbers of the sublevel pair (X(t), H(t)) at the
    i-th critical value, per module kind, padded to the filtration's
    degrees: the cells entering by step i are reindexed into a Δ-set of
    their own, with those marked by step i marked, and `embedded_betti`
    reads them in its ambient, absolute and relative modes."""
    x = filt.sh.x
    keep = [[j for j, e in enumerate(row) if e <= i] for row in filt.entry]
    index = [{j: k for k, j in enumerate(row)} for row in keep]
    faces = [[tuple(index[n - 1][t] for t in x.faces[n][j]) if n else () for j in row]
             for n, row in enumerate(keep)]
    sub = SuperHypergraph(DeltaSet([len(row) for row in keep], faces),
                          GradedSubset({n: [index[n][j] for j in row if filt.marked[n][j] <= i]
                                        for n, row in enumerate(keep)}))
    pad = (0,) * x.dim_count
    return {which: (embedded_betti(sub, field, mode) + pad)[:x.dim_count]
            for which, mode in (("ambient", "ambient"), ("embedded", "absolute"),
                                ("relative", "relative"))}


def _barcode_mismatches(filt, field) -> list:
    """(module, step) wherever the bars alive at a critical value differ
    from the static Betti numbers of the sublevel pair there."""
    bars = {which: full_barcode(filt, field, which) for which in MODULE_KINDS}
    found = []
    for i, t in enumerate(filt.times):
        static = _sublevel_betti(filt, field, i)
        for which in MODULE_KINDS:
            alive = tuple(total_at(bars[which], n, t) for n in range(filt.sh.x.dim_count))
            if alive != static[which]:
                found.append((which, i))
    return found


def test_barcodes_match_static_betti_of_sublevel_pairs(rng, monkeypatch):
    # a cross-route check at a few hundred cells: under a regular scheme the
    # bars of each module alive at every critical value t are the static
    # Betti numbers of (X(t), H(t)), a different reduction of different
    # matrices (`homology._ranks`), over GF(2), GF(3) and Q with partial
    # markings.  A summand born one step late must show.
    cells = 0
    for points in (9, 11):
        pc = PointCloud({i: (round(rng.uniform(0, 4), 3), round(rng.uniform(0, 4), 3))
                         for i in range(points)})
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=2)
        marks = GradedSubset({n: {j for j in range(ds.counts[n]) if rng.random() < 0.7}
                              for n in range(ds.dim_count)})
        sh = SuperHypergraph(ds, marks)
        cells += ds.total_cells()
        for field in (GF2, GF(3), QQ):
            filt = build_filtration(sh, vr_scheme(pc))
            assert filt.marked != filt.entry
            assert _barcode_mismatches(filt, field) == [], (points, field)
    assert 100 <= cells <= 1000
    real = persistence._Summand

    def late(birth, death, low):
        if death is not None and birth + 1 < death:
            birth += 1
        return real(birth, death, low)

    monkeypatch.setattr(persistence, "_Summand", late)
    assert _barcode_mismatches(build_filtration(sh, vr_scheme(pc)), GF2)


def _tampered(field):
    """The square's chain complex with ∂ of one triangle replaced by the
    first edge alone, so ∂∂ != 0 there: no check in `boundary_matrices`
    sees it."""
    filt = square_filtration()
    cc = boundary_matrices(filt.sh.x, field)
    first = min(range(cc.dims[1]), key=lambda e: (filt.entry[1][e], e))
    kernel = field.kernel
    triangle = next(j for j, col in enumerate(cc.columns[2]) if first in kernel.decode(col))
    columns = list(cc.columns)
    columns[2] = tuple(kernel.vector(field, ((first, 1),)) if j == triangle else col
                       for j, col in enumerate(columns[2]))
    return filt, ChainComplex(field, tuple(columns))


@pytest.mark.parametrize("which", MODULE_KINDS)
def test_filtered_complex_checks_boundary_squared(monkeypatch, which):
    # ∂∂ = 0 on the ambient and embedded complexes and on the cone
    filt, broken = _tampered(QQ)
    monkeypatch.setattr("superph.persistence.boundary_matrices", lambda x, f: broken)
    with pytest.raises(AssertionError, match="∂∂ != 0"):
        full_barcode(filt, QQ, which)


def test_filtered_complex_checks_boundaries_are_cycles(monkeypatch):
    # with the ∂∂ check off, the broken triangle's column keeps the first
    # edge, which kills a component, as its low: a boundary outside the
    # cycle space
    filt, broken = _tampered(GF2)
    monkeypatch.setattr("superph.persistence.boundary_matrices", lambda x, f: broken)
    monkeypatch.setattr("superph.persistence._check_filtered", lambda *a: None)
    with pytest.raises(AssertionError, match="boundary space not inside cycle space"):
        full_barcode(filt, GF2, "ambient")


def test_tampered_complex_reaches_a_new_filtration(monkeypatch):
    # the Δ-set keeps the checked complex that a first filtration's module
    # was built on; a new filtration of the same Δ-set fetches its complex
    # through the module global, so a patched one still reaches its modules,
    # while the first filtration's kept module fetches nothing
    filt, broken = _tampered(QQ)
    bars = full_barcode(filt, QQ, "ambient").bars
    monkeypatch.setattr("superph.persistence.boundary_matrices", lambda x, f: broken)
    assert full_barcode(filt, QQ, "ambient").bars == bars
    again = persistence.Filtration(filt.sh, range(filt.steps), filt.entry)
    assert again.entry == filt.entry
    with pytest.raises(AssertionError, match="∂∂ != 0"):
        full_barcode(again, QQ, "ambient")


def test_modules_are_freed_with_their_filtration():
    # bases and modules are kept on the filtration, not on the Δ-set's chain
    # complex: once the filtration is dropped its modules are collected,
    # while the Δ-set and its complex live on
    import gc
    import weakref
    filt = square_filtration()
    sh = filt.sh
    module = weakref.ref(persistence._complex(filt, GF2, "relative"))
    assert module() is not None and module().cc is boundary_matrices(sh.x, GF2)
    del filt
    gc.collect()
    assert module() is None
    assert boundary_matrices(sh.x, GF2).dims == sh.x.counts


@pytest.mark.parametrize("field", [GF2, QQ])
def test_solve_rejects_a_chain_outside_the_cycle_space(field):
    # a single edge of the square is in the ambient basis but is no cycle,
    # so writing it in the module's representatives must fail; the boundary
    # of a triangle is a cycle and is written back exactly
    filt = square_filtration()
    cx = persistence._complex(filt, field, "ambient")
    unit = field.kernel.vector(field, ((0, 1),))
    with pytest.raises(AssertionError, match="arrow image outside the target cycle space"):
        cx.solve(1, unit)
    chain = persistence._chain_boundary(filt.chain_complex(field), 2, unit)
    reps = {low: cx.chain(1, v) for low, v in cx.reps[1].items()}
    assert combine(field, cx.solve(1, chain), reps) == chain


@pytest.mark.parametrize("field", [GF2, QQ])
def test_solve_rejects_a_non_cycle_on_the_embedded_module(field):
    # with the vertices and edges of the square marked, a single edge is an
    # element of inf(H) but no cycle
    filt = square_filtration()
    x = filt.sh.x
    marked = SuperHypergraph(x, GradedSubset({0: range(x.counts[0]), 1: range(x.counts[1])}))
    filt = build_filtration(marked, vr_scheme(unit_square_cloud()))
    cx = persistence._complex(filt, field, "embedded")
    with pytest.raises(AssertionError, match="arrow image outside the target cycle space"):
        cx.solve(1, field.kernel.vector(field, ((0, 1),)))


@pytest.mark.parametrize("field", [GF2, QQ])
def test_solve_rejects_a_relative_chain_whose_boundary_leaves_the_infimum(field):
    # with one end of an edge marked, inf_0(H) is that vertex's line, and
    # the edge's boundary, which holds the other end, leaves it
    x = square_filtration().sh.x
    end = x.faces[1][0][0]
    filt = build_filtration(SuperHypergraph(x, GradedSubset({0: {end}})),
                            vr_scheme(unit_square_cloud()))
    cx = persistence._complex(filt, field, "relative")
    with pytest.raises(AssertionError, match="chain outside the infimum complex"):
        cx.solve(1, field.kernel.vector(field, ((0, 1),)))


@pytest.mark.parametrize("field", [GF2, QQ])
def test_full_marking_builds_one_absolute_module(field):
    # modules are keyed by the entry tables they are built from: under a
    # full marking H(t) = X(t), so the embedded module is the ambient one;
    # with a cell unmarked the tables differ and so do the modules
    filt = square_filtration()
    assert filt.marked == filt.entry
    assert persistence._complex(filt, field, "embedded") is \
        persistence._complex(filt, field, "ambient")
    x = filt.sh.x
    partial = SuperHypergraph(x, GradedSubset({n: range(count - (n == 2))
                                               for n, count in enumerate(x.counts)}))
    filt = build_filtration(partial, vr_scheme(unit_square_cloud()))
    assert persistence._complex(filt, field, "embedded") is not \
        persistence._complex(filt, field, "ambient")
    assert persistence._complex(filt, field, "relative") is \
        persistence._complex(filt, field, "relative")


def test_filtered_complex_checks_monotone_entries(monkeypatch):
    # a basis whose triangles enter before their edges is not a filtration
    real = persistence.inf_basis

    def early(cc, entry, n):
        basis = real(cc, entry, n)
        if n == 2:
            basis = basis._replace(entries=(0,) * len(basis.entries))
        return basis

    monkeypatch.setattr("superph.persistence.inf_basis", early)
    with pytest.raises(AssertionError, match="monotonicity"):
        full_barcode(square_filtration(), GF2, "ambient")


def test_inf_space_memo_and_shortcut_match_intersection(rng):
    # the oracle's inf_space returns D_n unreduced when the marking is closed
    # under faces (every sublevel set X(t)) and memoises its result; both
    # must agree with the oracle's plain dense_inf_space and with
    # D_n ∩ ∂⁻¹(D_{n-1}), also on the non-closed markings H(t)
    proper = 0
    for _ in range(3):
        pc = random_cloud(rng, max_points=5)
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n])
                                  if rng.random() < 0.6}
                              for n in range(ds.dim_count)})
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
        for field in (GF2, GF(3), QQ):
            cc = filt.chain_complex(field)
            for closed, marked in zip((True, False), levels(filt)):
                for level in marked:
                    for n in range(ds.dim_count):
                        d_n = SubspaceBasis.coordinate(field, cc.space_dim(n), level.at(n))
                        want = d_n
                        if n:
                            d_below = SubspaceBasis.coordinate(field, cc.space_dim(n - 1),
                                                               level.at(n - 1))
                            want = subspace_intersect(
                                d_n, preimage_basis(boundaries(cc)[n], d_below))
                        got = oracles.inf_space(cc, level, n)
                        assert got == want == dense_inf_space(cc, level, n)
                        assert oracles.inf_space(cc, level, n) is got
                        if closed:
                            assert want == d_n
                        elif want != d_n:
                            proper += 1
    assert proper > 0


def test_embedded_persistence_against_marked_oracle(rng):
    for _ in range(5):
        pc = random_cloud(rng, max_points=5)
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n])
                                  if rng.random() < 0.6}
                              for n in range(ds.dim_count)})
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
        for n in range(ds.dim_count):
            got = sorted((b.birth, b.death, b.multiplicity)
                         for b in barcode(persistence_module(filt, GF2,
                                                             "embedded", n)).bars)
            assert got == oracle_persistence_bars_gf2(filt, n, marked_only=True)


def test_classical_recovery_against_oracle(rng):
    for _ in range(5):
        pc = random_cloud(rng, max_points=5)
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=4)
        sh = SuperHypergraph(ds, full_subset(ds))
        filt = build_filtration(sh, vr_scheme(pc))
        for n in range(ds.dim_count):
            got = [(b.birth, b.death, b.multiplicity)
                   for b in barcode(persistence_module(filt, GF2, "ambient", n)).bars]
            assert sorted(got) == oracle_persistence_bars_gf2(filt, n)


# ---------------------------------------------------------------------------
# correlation matrices
# ---------------------------------------------------------------------------

def test_correlation_j_identity_when_fully_marked():
    filt = square_filtration()
    cm = correlation_matrix(filt, GF2, "J", 0)
    assert len(cm.rows) == len(cm.cols) == 4
    assert cm.entries == frozenset({(i, i) for i in range(4)})


def test_correlation_p_empty_when_fully_marked():
    filt = square_filtration()
    cm = correlation_matrix(filt, GF2, "P", 0)
    assert len(cm.cols) == 0 and not cm.entries


def test_correlation_boundary_two_edge_instance():
    # five cells: three marked vertices under two unmarked edges; the
    # connecting arrow carries both relative degree-1 classes onto
    # embedded degree-0 classes
    g = MultiGraph("abc", {"ab": ("a", "b"), "bc": ("b", "c")})
    ds = clique_delta(g, max_dim=1)
    sh = SuperHypergraph(ds, GradedSubset({0: {0, 1, 2}}))
    filt = build_filtration(sh, constant_scheme(0.0))
    tr = triangle_report(filt, QQ)
    assert tr.exact
    by = {(r.degree, r.step): r for r in tr.rows}
    assert by[(0, 0)].dim_embedded == 3
    assert by[(0, 0)].dim_ambient == 1
    assert by[(1, 0)].dim_relative == 2
    assert by[(1, 0)].rank_boundary == 2
    cm = correlation_matrix(filt, QQ, "boundary", 1)
    assert len(cm.rows) == 2 and len(cm.cols) == 3
    # hand bookkeeping: each relative class hits the two embedded classes of
    # its edge's endpoints
    assert cm.entries == frozenset({(0, 0), (0, 1), (1, 1), (1, 2)})


def _dense(chain, size: int, field) -> list:
    vec = [field.zero] * size
    for j, c in field.kernel.decode(chain).items():
        vec[j] = c
    return vec


def _alive(summand, i: int) -> bool:
    return summand.birth <= i and (summand.death is None or i < summand.death)


def test_correlation_coefficients_constant_on_overlap(rng):
    # naturality of the triangle arrows with interval-adapted bases forces
    # every (source, target) coefficient to be constant across the steps
    # where both summands are alive.  Each step solves the arrow's image of
    # the source representative densely in the alive target representatives
    # plus the dense oracle's B(t); the constant must be the coefficient of
    # the engine's one solve per representative.
    dead_targets = 0
    for _ in range(4):
        pc = random_cloud(rng, max_points=6)
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=2)
        marks = GradedSubset({n: {j for j in range(ds.counts[n])
                                  if rng.random() < 0.6}
                              for n in range(ds.dim_count)})
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
        for field in (GF2, GF(3)):
            cc = filt.chain_complex(field)
            for arrow, degree in itertools.product(ARROWS, range(ds.dim_count)):
                src, dst = persistence._arrow_ends(arrow, degree)
                src_sum, dst_sum, coeffs = persistence._arrow_coefficients(
                    filt, field, arrow, degree)
                if not src_sum or not dst_sum:
                    continue
                scx = persistence._complex(filt, field, src[0])
                dcx = persistence._complex(filt, field, dst[0])
                dst_zb = zb_family(filt, field, *dst)
                amb = n_cells(filt.sh.x, dst[1])
                seen: dict[tuple[int, int], object] = {}
                for i in range(filt.steps):
                    alive_dst = [(b, s) for b, s in enumerate(dst_sum) if _alive(s, i)]
                    if not alive_dst:
                        continue
                    basis = [_dense(dcx.representative(dst[1], s), amb, field)
                             for _, s in alive_dst] + list(dst_zb[i][1].vectors)
                    for a, s in enumerate(src_sum):
                        if not _alive(s, i):
                            continue
                        vec = _dense(scx.representative(degree, s), ds.counts[degree],
                                     field)
                        if arrow == "boundary":
                            vec = list(boundaries(cc)[degree].apply(vec))
                        coeffs_i = express_in_vectors(field, amb, basis, vec)
                        for k, (b, _) in enumerate(alive_dst):
                            key = (a, b)
                            if key in seen:
                                assert seen[key] == coeffs_i[k], (arrow, key)
                            else:
                                seen[key] = coeffs_i[k]
                for (a, b), c in seen.items():
                    assert coeffs[a].get(b, field.zero) == c, (arrow, a, b)
                # an entry is a nonzero block at some step where both are
                # alive; the solve may also reach targets dead by then
                assert correlation_matrix(filt, field, arrow, degree).entries == \
                    {key for key, c in seen.items() if c}
                dead_targets += sum(b not in {k[1] for k in seen if k[0] == a}
                                    for a, row in enumerate(coeffs) for b in row)
    assert dead_targets > 0


def test_correlation_block_ranks_equal_triangle_ranks(rng):
    # basis-free: at every step the arrow's coefficient block over the alive
    # summands has the rank the triangle report takes from sums of spaces
    checked = 0
    for case in range(6):
        pc = random_cloud(rng, max_points=5)
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n])
                                  if rng.random() < (0.3, 0.6, 0.85)[case % 3]}
                              for n in range(ds.dim_count)})
        experimental = case % 2 == 1
        scheme = seeded_random_scheme(rng.randrange(10**6)) if experimental \
            else vr_scheme(pc)
        filt = build_filtration(SuperHypergraph(ds, marks), scheme,
                                experimental=experimental)
        for field in (GF2, GF(3), QQ):
            rows = {(r.degree, r.step): r for r in triangle_report(filt, field).rows}
            for arrow in ARROWS:
                for n in range(ds.dim_count):
                    src_sum, dst_sum, coeffs = persistence._arrow_coefficients(
                        filt, field, arrow, n)
                    for i in range(filt.steps):
                        alive_a = [a for a, s in enumerate(src_sum) if _alive(s, i)]
                        alive_b = [b for b, s in enumerate(dst_sum) if _alive(s, i)]
                        got = matrix_rank(matrix_from_rows(
                            field, [[coeffs[a].get(b, field.zero) for b in alive_b]
                                    for a in alive_a])) if alive_a and alive_b else 0
                        row = rows[n, i]
                        want = {"J": row.rank_j, "P": row.rank_p,
                                "boundary": row.rank_boundary}[arrow]
                        assert got == want, (case, field, arrow, n, i)
                        checked += want > 0
    assert checked > 50


def test_correlation_entries_respect_overlap(rng):
    filt = square_filtration()
    for arrow, degree in (("J", 1), ("P", 1), ("boundary", 1)):
        cm = correlation_matrix(filt, GF2, arrow, degree)
        for (i, j) in cm.entries:
            a, b = cm.rows[i], cm.cols[j]
            assert a.birth < b.death and b.birth < a.death  # overlapping spans


# ---------------------------------------------------------------------------
# triangle report
# ---------------------------------------------------------------------------

def test_records_keep_their_fields_and_reprs():
    # Bar and TriangleRow keep their field names and order, and their repr
    # names each field; each unpacks as, and equals, the tuple of its values
    bar = Bar(1, 0.5, math.inf, 2)
    assert Bar._fields == ("degree", "birth", "death", "multiplicity")
    assert repr(bar) == "Bar(degree=1, birth=0.5, death=inf, multiplicity=2)"
    degree, birth, death, mult = bar
    assert (degree, birth, death, mult) == bar == (1, 0.5, math.inf, 2)
    row = TriangleRow(1, 2, 0.5, 1, 2, 1, 1, 1, 0, True, True, False)
    assert TriangleRow._fields == (
        "degree", "step", "t", "dim_embedded", "dim_ambient", "dim_relative", "rank_j",
        "rank_p", "rank_boundary", "exact_at_ambient", "exact_at_relative",
        "exact_at_embedded")
    assert repr(row) == (
        "TriangleRow(degree=1, step=2, t=0.5, dim_embedded=1, dim_ambient=2, "
        "dim_relative=1, rank_j=1, rank_p=1, rank_boundary=0, exact_at_ambient=True, "
        "exact_at_relative=True, exact_at_embedded=False)")
    assert row._replace(exact_at_embedded=True)[-1] is True and len(row) == 12


def test_triangle_fully_marked():
    filt = square_filtration()
    tr = triangle_report(filt, GF2)
    assert tr.exact
    for r in tr.rows:
        assert r.dim_relative == 0
        assert r.rank_j == r.dim_ambient  # J is an isomorphism


def test_triangle_nothing_marked():
    pc = unit_square_cloud()
    g = MultiGraph.complete([0, 1, 2, 3])
    ds = clique_delta(g, max_dim=2)
    sh = SuperHypergraph(ds, GradedSubset())
    filt = build_filtration(sh, vr_scheme(pc))
    tr = triangle_report(filt, GF2)
    assert tr.exact
    for r in tr.rows:
        assert r.dim_embedded == 0 and r.rank_j == 0
        assert r.rank_p == r.dim_ambient  # P is injective


def test_triangle_pillow_constant():
    sh = labeled_pillow_sh(GradedSubset({2: {0, 1}}))
    filt = build_filtration(sh, constant_scheme(0.0))
    tr = triangle_report(filt, QQ)
    assert tr.exact
    by = {(r.degree, r.step): r for r in tr.rows}
    assert by[(2, 0)].dim_embedded == 1   # span{f1 - f2}
    assert by[(2, 0)].dim_ambient == 1
    assert by[(2, 0)].dim_relative == 0


def test_triangle_random_subsets(rng):
    for _ in range(6):
        pc = random_cloud(rng, max_points=5)
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n])
                                  if rng.random() < 0.5}
                              for n in range(ds.dim_count)})
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
        assert triangle_report(filt, GF2).exact
        assert triangle_report(filt, QQ).exact


def test_triangle_reduces_only_sums_of_spaces(rng, monkeypatch):
    # each module's dimensions come from its own reduction, so once the three
    # modules are reduced the triangle reduces only the sums behind rank J,
    # rank P and the connecting rank: 3·nd - 1 reductions on an nd-degree
    # filtration, and the rows still equal the dense route's
    real = persistence.reduce_columns
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(persistence, "reduce_columns", counted)
    for field in (GF2, GF(3), QQ):
        pc = PointCloud({i: (round(rng.uniform(0, 4), 3), round(rng.uniform(0, 4), 3))
                         for i in range(5)})
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=3)
        marks = GradedSubset({n: {j for j in range(ds.counts[n]) if rng.random() < 0.6}
                              for n in range(ds.dim_count)})
        filt = build_filtration(SuperHypergraph(ds, marks), vr_scheme(pc))
        for which in MODULE_KINDS:
            full_barcode(filt, field, which)
        calls.clear()
        report = triangle_report(filt, field)
        assert len(calls) == 3 * ds.dim_count - 1 == 11
        assert report.exact
        assert report == dense_triangle_report(filt, field)


def test_rank_only_reductions_build_no_v(rng, monkeypatch):
    # the static ranks, the triangle's rank profiles and Span read only the
    # lows and reduced columns of their reductions, so none of them builds
    # a V column; relations, inf_basis and the modules read V and get it
    real = fields.reduce_columns
    built: dict = {}

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        code = sys._getframe(1).f_code
        caller = (os.path.basename(code.co_filename), code.co_name)
        built.setdefault(caller, set()).add(out[1] is not None)
        return out

    for module in (fields, homology, persistence):
        monkeypatch.setattr(module, "reduce_columns", counted)
    for field in (GF2, GF(3), QQ):
        pc = random_cloud(rng, max_points=6)
        ds = clique_delta(MultiGraph.complete(pc.ids()), max_dim=2)
        marks = GradedSubset({n: {j for j in range(ds.counts[n]) if rng.random() < 0.7}
                              for n in range(ds.dim_count)})
        sh = SuperHypergraph(ds, marks)
        for mode in ("absolute", "relative", "ambient"):
            embedded_betti(sh, field, mode)
        data = embedded_chain_data(sh, field)
        data.inf[1].sum(data.sup[1]).intersect(data.sup[1])
        filt = build_filtration(sh, vr_scheme(pc))
        for which in MODULE_KINDS:
            full_barcode(filt, field, which)
        assert triangle_report(filt, field).exact
    assert built == {("homology.py", "_ranks"): {False},
                     ("persistence.py", "_rank_profile"): {False},
                     ("fields.py", "__init__"): {False},
                     ("fields.py", "relations"): {True},
                     ("homology.py", "inf_basis"): {True},
                     ("persistence.py", "__init__"): {True}}


# ---------------------------------------------------------------------------
# partition persistence
# ---------------------------------------------------------------------------

def test_partition_single_cluster_degree_zero_only():
    g = MultiGraph.complete([0, 1, 2])
    fam = SubgraphFamily(g, [g.full(), g.induced({0, 1})])
    pc = PointCloud({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)})
    out = partition_persistence(fam, Clustering(g, [[0, 1, 2]]),
                                pullback_scheme(pc.points, vr_points), GF2)
    for bc in out.values():
        assert all(b.degree == 0 for b in bc.bars)


def test_partition_singletons_match_primary_persistence():
    g = MultiGraph.complete([0, 1, 2, 3])
    pc = unit_square_cloud()
    fam = SubgraphFamily(g, [g.full(), g.induced({0, 1, 2})])
    scheme = pullback_scheme(pc.points, vr_points)
    part = partition_persistence(fam, Clustering.singletons(g), scheme, GF2)
    sh = primary_vertex_deletion(fam)
    filt = build_filtration(sh, scheme)
    for which in ("ambient", "embedded", "relative"):
        assert part[which].bars == full_barcode(filt, GF2, which).bars


def test_partition_two_clusters_grading_bound():
    g = MultiGraph(["a", "b", "x", "y"],
                   {"e1": ("a", "x"), "e2": ("a", "y"), "e3": ("b", "x"),
                    "e4": ("b", "y")})
    fam = SubgraphFamily(g, [g.full(), g.subgraph({"a", "x"}, ["e1"]),
                             g.subgraph({"a", "b", "x"}, ["e1", "e3"])])
    clus = Clustering(g, [["a", "b"], ["x", "y"]])
    out = partition_persistence(fam, clus, constant_scheme(0.0), GF2)
    for bc in out.values():
        assert all(b.degree <= 1 for b in bc.bars)


# ---------------------------------------------------------------------------
# stability smoke test
# ---------------------------------------------------------------------------

def _bottleneck_le(bars_a, bars_b, delta):
    """Feasibility of a perfect matching within delta, allowing short bars to
    match the diagonal."""
    a = [b for b in bars_a for _ in range(b.multiplicity)]
    b = [c for c in bars_b for _ in range(c.multiplicity)]

    def close(u, v):
        du = u.death if u.death != math.inf else 1e18
        dv = v.death if v.death != math.inf else 1e18
        return abs(u.birth - v.birth) <= delta and abs(du - dv) <= delta

    def short(u):
        return u.death != math.inf and u.death - u.birth <= 2 * delta

    match_of_b = {}

    def augment(i, seen):
        for j in range(len(b)):
            if j in seen or not close(a[i], b[j]):
                continue
            seen.add(j)
            if j not in match_of_b or augment(match_of_b[j], seen):
                match_of_b[j] = i
                return True
        return short(a[i])

    for i in range(len(a)):
        if not augment(i, set()):
            return False
    return all(j in match_of_b or short(b[j]) for j in range(len(b)))


def test_vr_stability_smoke(rng):
    eps = 1e-3
    for _ in range(5):
        pc = random_cloud(rng, max_points=6)
        moved = PointCloud({v: tuple(c + rng.uniform(-eps, eps) for c in p)
                            for v, p in pc.points.items()})
        g = MultiGraph.complete(pc.ids())
        ds = clique_delta(g, max_dim=2)
        sh = SuperHypergraph(ds, full_subset(ds))
        bars1 = full_barcode(build_filtration(sh, vr_scheme(pc)), GF2, "ambient")
        bars2 = full_barcode(build_filtration(sh, vr_scheme(moved)), GF2, "ambient")
        for n in range(ds.dim_count):
            a = [b for b in bars1.bars if b.degree == n]
            b = [c for c in bars2.bars if c.degree == n]
            assert _bottleneck_le(a, b, 2 * eps)
