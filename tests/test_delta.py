"""Δ-set core: validation, closures, completeness, morphisms."""

from collections import Counter

import pytest

from superph import (DeltaMorphism, DeltaSet, GradedSubset, SuperHypergraph,
                     delta_closure, from_hypergraph, from_simplicial,
                     full_subset, hypergraph_cone, is_complete, is_regular,
                     max_delta_subset, standard_simplex_delta,
                     validate_morphism)
from superph.delta import (DeltaIdentityError, DeltaStructureError,
                           close_under_faces)

from conftest import (collapsed_tower, pillow_delta,
                      two_simplex_missing_vertex_sh, vertex_identified_quotient)


# ---------------------------------------------------------------------------
# validate_delta
# ---------------------------------------------------------------------------

def test_validate_standard_simplex():
    assert standard_simplex_delta(2).validate().ok


def test_validate_detects_swapped_faces():
    x = standard_simplex_delta(2)
    # swap d0 and d2 of the unique 2-cell
    row = list(x.faces[2][0])
    row[0], row[2] = row[2], row[0]
    broken = DeltaSet(x.counts, [x.faces[0], x.faces[1], [tuple(row)]])
    report = broken.validate()
    assert not report.ok
    # hand evaluation: d1 d0 f = d0 of [01] = {0}, d0 d2 f = d0 of [12] = {2}
    assert ((2, 0), 1, 0) in report.violations


def test_validate_pillow():
    assert pillow_delta().validate().ok


def test_validate_reports_out_of_range():
    ds = DeltaSet([1, 1], [(), [(5, 0)]])
    report = ds.validate()
    assert not report.ok and report.structural


def test_structure_error_on_bad_face_arity():
    with pytest.raises(DeltaStructureError):
        DeltaSet([1, 1], [(), [(0,)]])


# ---------------------------------------------------------------------------
# close_under_faces
# ---------------------------------------------------------------------------

def simplex_grade(s):
    return len(s) - 1


def simplex_faces(s):
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def test_close_under_faces_rejects_identity_violation():
    def swapped(s):
        faces = simplex_faces(s)
        if len(s) == 3:
            faces[0], faces[1] = faces[1], faces[0]
        return faces

    with pytest.raises(DeltaIdentityError) as err:
        close_under_faces([(0, 1, 2)], simplex_grade, swapped)
    assert err.value.report.violations


def test_close_under_faces_rejects_face_of_wrong_grade():
    def short(s):
        return [s[:1]] + simplex_faces(s)[1:] if len(s) == 3 else simplex_faces(s)

    with pytest.raises(DeltaStructureError, match="grade-2 label has grade 0"):
        close_under_faces([(0, 1, 2)], simplex_grade, short)


def test_close_under_faces_rejects_negative_grade():
    with pytest.raises(ValueError, match="negative grade") as err:
        close_under_faces([(0, 1)], simplex_grade, lambda s: [(), s[:1]])
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="negative grade"):
        close_under_faces([()], simplex_grade, simplex_faces)


def test_close_under_faces_calls_face_fn_once_per_cell():
    calls = Counter()

    def counting(s):
        calls[s] += 1
        return simplex_faces(s)

    # two tetrahedra sharing a triangle, one seed given twice
    ds, marked = close_under_faces([(0, 1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 3)],
                                   simplex_grade, counting)
    positive = {ds.label(n, j) for n, j in ds.cells() if n > 0}
    assert set(calls) == positive
    assert sum(calls.values()) == sum(ds.counts[1:]) == len(positive)
    assert ds.counts == (5, 9, 7, 2) and len(marked) == 2


# ---------------------------------------------------------------------------
# from_simplicial / from_hypergraph
# ---------------------------------------------------------------------------

def test_from_simplicial_single_vertex():
    ds = from_simplicial([{0}])
    assert ds.counts == (1,)


def test_from_simplicial_full_two_simplex():
    ds = from_simplicial([s for s in
                          [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}]])
    assert ds.counts == (3, 3, 1)
    assert ds.validate().ok


def test_from_simplicial_boundary_only():
    # enumerate proper faces of the 2-simplex
    ds = from_simplicial([{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}])
    assert ds.counts == (3, 3)


def test_from_simplicial_rejects_unclosed():
    with pytest.raises(ValueError):
        from_simplicial([{0, 1}])


def test_from_hypergraph_marks_hyperedges():
    sh = from_hypergraph([(0, 1, 2), (0, 1)])
    assert sh.x.counts == (3, 3, 1)
    assert len(sh.h) == 2


def test_hypergraph_cone_shape():
    cone = hypergraph_cone([(0, 1)], "w")
    assert frozenset(["w"]) in cone
    assert frozenset([0, 1, "w"]) in cone
    assert frozenset([0, 1]) in cone
    with pytest.raises(ValueError):
        hypergraph_cone([("w",)], "w")


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

def test_closure_of_everything_is_everything():
    x = standard_simplex_delta(2)
    sh = SuperHypergraph(x, full_subset(x))
    assert delta_closure(sh) == full_subset(x)


def test_closure_of_top_simplex_cell():
    x = standard_simplex_delta(2)
    sh = SuperHypergraph(x, GradedSubset({2: {0}}))
    assert len(delta_closure(sh)) == 7


def test_closure_in_pillow():
    # closure of {f1} reaches e1, e2 and v
    x = pillow_delta()
    got = delta_closure(SuperHypergraph(x, GradedSubset({2: {0}})))
    assert got == GradedSubset({0: {0}, 1: {0, 1}, 2: {0}})


def test_max_delta_subset_full():
    x = standard_simplex_delta(1)
    sh = SuperHypergraph(x, full_subset(x))
    assert max_delta_subset(sh) == full_subset(x)


def test_max_delta_subset_empty_without_vertices():
    x = standard_simplex_delta(2)
    h = GradedSubset({1: {0, 1, 2}, 2: {0}})
    assert len(max_delta_subset(SuperHypergraph(x, h))) == 0


def test_max_delta_subset_pillow_cases():
    x = pillow_delta()
    # {f1, e1, e2} misses the vertex: nothing survives
    h = GradedSubset({1: {0, 1}, 2: {0}})
    assert len(max_delta_subset(SuperHypergraph(x, h))) == 0
    # adding v keeps everything
    h2 = GradedSubset({0: {0}, 1: {0, 1}, 2: {0}})
    assert max_delta_subset(SuperHypergraph(x, h2)) == h2


def test_closure_monotone_idempotent(rng):
    from conftest import random_super_hypergraph
    for _ in range(20):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=8)
        cl = delta_closure(sh)
        assert sh.h.issubset(cl)
        again = delta_closure(SuperHypergraph(sh.x, cl))
        assert again == cl
        core = max_delta_subset(sh)
        assert core.issubset(sh.h)


# ---------------------------------------------------------------------------
# regular / complete
# ---------------------------------------------------------------------------

def test_regular_cases():
    x = standard_simplex_delta(2)
    assert is_regular(SuperHypergraph(x, full_subset(x)))
    assert is_regular(SuperHypergraph(x, GradedSubset({2: {0}})))
    # boundary edges only never reach the 2-cell
    assert not is_regular(SuperHypergraph(x, GradedSubset({1: {0, 1, 2}})))


def test_complete_requires_regular():
    x = standard_simplex_delta(2)
    with pytest.raises(ValueError):
        is_complete(SuperHypergraph(x, GradedSubset({1: {0}})))


def test_complete_simplex_full_marking():
    x = standard_simplex_delta(2)
    assert is_complete(SuperHypergraph(x, full_subset(x))).complete


def test_completeness_missing_vertex_and_quotients():
    sh = two_simplex_missing_vertex_sh()
    res = is_complete(sh)
    assert not res.complete
    assert res.certificate[0] == "extra_vertex"
    for which in (1, 2):
        q = vertex_identified_quotient(which)
        assert q.x.validate().ok
        assert is_complete(q).complete


def test_completeness_matching_face_certificate():
    # two 1-cells sharing both faces, only one marked; a marked 2-cell makes
    # the pair reachable so the input is regular
    x = DeltaSet([1, 2, 1], [(), [(0, 0), (0, 0)], [(0, 1, 0)]])
    sh = SuperHypergraph(x, GradedSubset({0: {0}, 1: {0}, 2: {0}}))
    assert is_regular(sh)
    res = is_complete(sh)
    assert not res.complete
    assert res.certificate == ("matching_pair", (1, 0), (1, 1))


def test_collapsed_tower_regular_not_complete_against_simplex():
    # the simplex with only the top cell marked is regular but fails the
    # vertex property (several vertices, none marked)
    x = standard_simplex_delta(3)
    sh = SuperHypergraph(x, GradedSubset({3: {0}}))
    assert is_regular(sh)
    assert not is_complete(sh).complete
    y = collapsed_tower(3)
    shy = SuperHypergraph(y, GradedSubset({3: {0}}))
    assert is_complete(shy).complete


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_identity_morphism_ok():
    x = standard_simplex_delta(2)
    m = DeltaMorphism(x, x, [list(range(c)) for c in x.counts])
    assert validate_morphism(m).ok


def test_collapse_morphism_to_tower():
    x = standard_simplex_delta(3)
    y = collapsed_tower(3)
    m = DeltaMorphism(x, y, [[0] * c for c in x.counts])
    assert validate_morphism(m).ok


def test_morphism_face_mismatch_reported():
    # two disjoint edges; map the first edge onto the second
    x = DeltaSet([4, 2], [(), [(1, 0), (3, 2)]])
    m = DeltaMorphism(x, x, [[0, 1, 2, 3], [1, 1]])
    report = validate_morphism(m)
    assert not report.ok
    assert ("face_mismatch", (1, 0), 0) in report.failures


def test_morphism_marked_preservation():
    x = standard_simplex_delta(1)
    ident = DeltaMorphism(x, x, [list(range(c)) for c in x.counts])
    src = GradedSubset({1: {0}})
    tgt = GradedSubset({0: {0}})
    report = validate_morphism(ident, src, tgt)
    assert not report.ok
    assert ("marked_not_preserved", (1, 0)) in report.failures


def test_every_package_delta_set_validates(rng):
    from conftest import random_super_hypergraph
    for _ in range(10):
        sh = random_super_hypergraph(rng, max_vertices=5, max_edges=10)
        assert sh.x.validate().ok
