"""Δ-set core: validation, closures, completeness, morphisms."""

import ast
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from superph import (GF2, QQ, DeltaMorphism, DeltaSet, GradedSubset, SuperHypergraph,
                     clique_delta, delta_closure, from_hypergraph, from_simplicial,
                     full_subset, hypergraph_cone, is_complete, is_regular,
                     max_delta_subset, standard_simplex_delta,
                     validate_morphism)
from superph.delta import (DeltaIdentityError, DeltaStructureError, ValidationReport,
                           close_under_faces, missing_face)
from superph.faceops import SubgraphFamily, edge_deletion_complex
from superph.graphs import MultiGraph
from superph.homology import boundary_matrices

from oracles import dfs_delta_closure, issubset, rowwise_delta_check, subset_closure

from conftest import (collapsed_tower, count_identity_walks, pillow_delta,
                      random_super_hypergraph, two_simplex_missing_vertex_sh,
                      vertex_identified_quotient)


# ---------------------------------------------------------------------------
# validate_delta
# ---------------------------------------------------------------------------

def test_validate_standard_simplex():
    assert standard_simplex_delta(2).validate().ok


def test_validate_detects_swapped_faces():
    broken = _broken_triangle()
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


def test_validate_reports_negative_face_index():
    # a negative reference is out of range, never read as an index from
    # the end of the dimension below
    report = DeltaSet([1, 1], [(), [(-1, 0)]]).validate()
    assert not report.ok and not report.violations
    assert report.structural == ("cell (1,0): d_0 -> index -1 out of range [0,1)",)
    x = standard_simplex_delta(2)
    rows = [x.faces[0], x.faces[1], [(x.faces[2][0][0], -3, x.faces[2][0][2])]]
    report = DeltaSet(x.counts, rows).validate()
    assert report == rowwise_delta_check(DeltaSet(x.counts, rows)) and report.structural


def _broken_triangle() -> DeltaSet:
    """The 2-simplex with d0 and d2 of its 2-cell swapped."""
    x = standard_simplex_delta(2)
    row = list(x.faces[2][0])
    row[0], row[2] = row[2], row[0]
    return DeltaSet(x.counts, [x.faces[0], x.faces[1], [tuple(row)]])


def test_validation_report_is_kept(monkeypatch):
    # the face rows are immutable: the first `validate` walks the identity,
    # later calls (and boundary_matrices) return the kept report
    walks = count_identity_walks(monkeypatch)
    x = standard_simplex_delta(3)
    assert walks == [x]  # close_under_faces validates what it builds
    report = x.validate()
    assert report.ok and x.validate() is report
    boundary_matrices(x, QQ)
    assert len(walks) == 1
    y = DeltaSet(x.counts, x.faces)
    assert y.validate() == report and len(walks) == 2


def test_failing_validation_raises_at_every_call(monkeypatch):
    # a kept failing report still fails every call site that checks it
    broken = _broken_triangle()
    walks = count_identity_walks(monkeypatch)
    for field in (GF2, QQ, GF2):
        with pytest.raises(DeltaIdentityError, match=r"cell \(2, 0\)") as err:
            boundary_matrices(broken, field)
        assert not err.value.report.ok and err.value.report.violations
    assert not broken.validate().ok
    assert len(walks) == 1
    relabelled = broken.with_labels([["a", "b", "c"], ["x", "y", "z"], ["f"]])
    with pytest.raises(DeltaIdentityError):
        boundary_matrices(relabelled, QQ)
    assert len(walks) == 1


def test_with_labels_carries_the_report(monkeypatch):
    # `with_labels` shares the face rows, so a validated Δ-set's report
    # comes along and the relabelled Δ-set is not walked again; an
    # unvalidated one stays unvalidated
    walks = count_identity_walks(monkeypatch)
    x = DeltaSet([1, 2, 2], [(), [(0, 0), (0, 0)], [(0, 1, 0), (0, 1, 0)]])
    fresh = x.with_labels([["v"], ["e1", "e2"], ["f1", "f2"]])
    assert walks == []
    report = x.validate()
    labelled = x.with_labels([["v"], ["e1", "e2"], ["f1", "f2"]])
    assert labelled.validate() is report and labelled.with_labels(None).validate() is report
    assert len(walks) == 1
    assert fresh.validate() == report and len(walks) == 2


def test_structure_error_on_bad_face_arity():
    with pytest.raises(DeltaStructureError):
        DeltaSet([1, 1], [(), [(0,)]])


def test_with_labels_shares_faces_and_checks_label_counts():
    x = standard_simplex_delta(2)
    y = x.with_labels([["a", "b", "c"], ("ab", "ac", "bc"), ["abc"]])
    assert y.counts is x.counts and y.faces is x.faces and y == x
    assert y.labels == (("a", "b", "c"), ("ab", "ac", "bc"), ("abc",))
    assert y.with_labels(None).labels is None and x.labels is not None
    with pytest.raises(DeltaStructureError, match="dimension 1: label count mismatch"):
        x.with_labels([["a", "b", "c"], ["ab", "ac"], ["abc"]])
    with pytest.raises(DeltaStructureError, match="dimension 2: label count mismatch"):
        x.with_labels([["a", "b", "c"], ["ab", "ac", "bc"]])


# ---------------------------------------------------------------------------
# close_under_faces
# ---------------------------------------------------------------------------

def simplex_faces(s):
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def test_close_under_faces_rejects_identity_violation():
    def swapped(s):
        faces = simplex_faces(s)
        if len(s) == 3:
            faces[0], faces[1] = faces[1], faces[0]
        return faces

    with pytest.raises(DeltaIdentityError) as err:
        close_under_faces([(0, 1, 2)], swapped)
    assert err.value.report.violations


def test_close_under_faces_rejects_face_of_wrong_grade():
    def short(s):
        return [s[:1]] + simplex_faces(s)[1:] if len(s) == 3 else simplex_faces(s)

    with pytest.raises(DeltaStructureError, match="grade-2 label has grade 0"):
        close_under_faces([(0, 1, 2)], short)
    # the misgraded face is also a seed, of its own grade: the error names
    # it and that grade, whichever seed comes first
    for seeds in ([(0, 1, 2), (0,)], [(0,), (0, 1, 2)], [(0,), (0, 1, 2), (3, 4)]):
        with pytest.raises(DeltaStructureError,
                           match=r"^face of a grade-2 label has grade 0: \(0,\)$"):
            close_under_faces(seeds, short)

    # a face list missing d_2 makes the triangle a grade-1 label of edges
    def miscounted(s):
        return simplex_faces(s)[:2] if len(s) == 3 else simplex_faces(s)

    with pytest.raises(DeltaStructureError, match="grade-1 label has grade 1"):
        close_under_faces([(0, 1, 2)], miscounted)


def test_close_under_faces_rejects_negative_grade():
    with pytest.raises(ValueError, match="negative grade") as err:
        close_under_faces([(0, 1)], lambda s: simplex_faces(s) if len(s) == 2 else [])
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="negative grade"):
        close_under_faces([()], simplex_faces)


def test_close_under_faces_calls_face_fn_once_per_cell():
    calls = Counter()

    def counting(s):
        calls[s] += 1
        return simplex_faces(s)

    # two tetrahedra sharing a triangle, one seed given twice
    ds, marked = close_under_faces([(0, 1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 3)], counting)
    labels = {ds.label(n, j) for n, j in ds.cells()}
    assert set(calls) == labels
    assert sum(calls.values()) == ds.total_cells() == len(labels)
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


def _shape(x, marked=None):
    return (x.counts, x.faces, x.labels, None if marked is None else marked.cells())


def test_simplicial_constructors_match_subset_closure_oracle():
    # seeded hypergraphs (mixed int/str vertices) and their cones, in the
    # default order and in random total orders
    rng = random.Random(15)
    for _ in range(60):
        verts = rng.sample([0, 1, 2, 3, 4, "a", "b", (1, "c")], rng.randint(1, 7))
        edges = [rng.sample(verts, rng.randint(1, min(4, len(verts))))
                 for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            edges = hypergraph_cone(edges, "apex")
            verts = verts + ["apex"]
        order = rng.sample(verts, len(verts))
        for o in (None, order):
            counts, faces, labels, marked = subset_closure(edges, o)
            sh = from_hypergraph(edges, o)
            assert _shape(sh.x, sh.h) == (counts, faces, labels, marked)
            simplices = {frozenset(s) for row in labels for s in row}
            assert _shape(from_simplicial(simplices, o)) == (counts, faces, labels, None)
    for n in range(-2, 6):
        counts, faces, labels, _ = subset_closure([range(n + 1)] if n >= 0 else [])
        assert _shape(standard_simplex_delta(n)) == (counts, faces, labels, None)


def test_constructors_keep_their_input_checks():
    with pytest.raises(ValueError, match="hyperedges must be nonempty"):
        from_hypergraph([(0, 1), ()])
    with pytest.raises(ValueError, match="order does not cover vertices"):
        from_hypergraph([(0, 1), (1, 2)], order=[0, 1])
    with pytest.raises(ValueError, match="order does not cover vertices"):
        from_simplicial([{0}, {1}], order=[1])
    with pytest.raises(ValueError, match="empty simplex"):
        from_simplicial([{0}, ()])
    assert from_hypergraph([]).x.counts == ()


def _closed_by_brute_force(family) -> bool:
    """Every nonempty proper subset of every member is a member."""
    return all(frozenset(c) in family for s in family
               for k in range(1, len(s)) for c in itertools.combinations(s, k))


def test_closure_check_matches_brute_force():
    # seeded families of nonempty subsets of {0..4} (singletons, the empty
    # family, subset-closed families and families with holes), read as
    # vertex sets by `from_simplicial` and as edge sets by
    # `edge_deletion_complex`
    rng = random.Random(29)
    universe = [frozenset(c) for k in range(1, 6) for c in itertools.combinations(range(5), k)]
    host = MultiGraph(range(6), {i: (i, i + 1) for i in range(5)})
    families = [set(), {frozenset([0])}, {frozenset([0]), frozenset([3])}]
    for _ in range(150):
        family = set(rng.sample(universe, rng.randint(1, 8)))
        if rng.random() < 0.4:  # close it, then maybe punch one hole
            family = {frozenset(c) for s in family for k in range(1, len(s) + 1)
                      for c in itertools.combinations(s, k)}
            if rng.random() < 0.5:
                family.discard(rng.choice(sorted(family, key=sorted)))
        families.append(family)
    verdicts = Counter()
    for family in families:
        closed = _closed_by_brute_force(family)
        verdicts[closed] += 1
        found = missing_face(family)
        assert (found is None) == closed
        if found is not None:
            assert found in family and any(found - {v} not in family for v in found)
        members = [host.subgraph({v for e in es for v in host.edge_ends[e]}, es)
                   for es in family]
        res = edge_deletion_complex(SubgraphFamily(host, members))
        assert res.closed == closed and (res.simplicial is not None) == closed
        if closed:
            assert from_simplicial(family).counts == from_hypergraph(family).x.counts
            continue
        with pytest.raises(ValueError, match="not closed under subsets") as err:
            from_simplicial(family)
        named = frozenset(ast.literal_eval(str(err.value).rsplit("missing face of ", 1)[1]))
        assert named in family and any(named - {v} not in family for v in named)
    assert verdicts[True] >= 20 and verdicts[False] >= 20


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
        assert issubset(sh.h, cl)
        again = delta_closure(SuperHypergraph(sh.x, cl))
        assert again == cl
        core = max_delta_subset(sh)
        assert issubset(core, sh.h)


def _assert_closure_matches_oracle(sh):
    closure = dfs_delta_closure(sh)
    assert delta_closure(sh) == closure
    assert is_regular(sh) == (closure == full_subset(sh.x))
    return closure == full_subset(sh.x)


def _markings(rng, x):
    """The empty marking, the top degree alone (all of it, and one cell),
    every cell, and random markings that keep each cell with probability
    0.2, 0.5 or 0.8."""
    top = x.dim_count - 1
    out = [GradedSubset(), full_subset(x)]
    if top >= 0:
        out += [GradedSubset({top: range(x.counts[top])}), GradedSubset({top: {0}})]
    out += [GradedSubset({n: {j for j in range(x.counts[n]) if rng.random() < keep}
                          for n in range(x.dim_count)})
            for keep in (0.2, 0.5, 0.8)]
    return out


def test_closure_by_levels_matches_depth_first_oracle(rng):
    # the closure by levels and `is_regular` against the depth-first
    # closure: closures of random hypergraphs, the pillow (repeated faces),
    # collapsed towers and a simplex, under empty, top-only, full and
    # random markings, regular and not
    spaces = [random_super_hypergraph(rng, max_vertices=6, max_edges=12).x
              for _ in range(25)]
    spaces += [pillow_delta(), standard_simplex_delta(3), DeltaSet((), ())]
    spaces += [collapsed_tower(k) for k in (1, 2, 4)]
    verdicts = Counter()
    for x in spaces:
        for marks in _markings(rng, x):
            verdicts[_assert_closure_matches_oracle(SuperHypergraph(x, marks))] += 1
    assert verdicts[True] >= 40 and verdicts[False] >= 40


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_closure_by_levels_property(data):
    # drawn Δ-sets (closures of drawn hypergraphs, the pillow, collapsed
    # towers) with drawn markings: the same closure and regularity verdict
    # as the depth-first oracle
    kind = data.draw(st.sampled_from(("hypergraph", "pillow", "tower")))
    if kind == "hypergraph":
        edges = data.draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1,
                                                 max_size=4), min_size=1, max_size=6))
        x = from_hypergraph(edges).x
    elif kind == "pillow":
        x = pillow_delta()
    else:
        x = collapsed_tower(data.draw(st.integers(0, 4)))
    marks = GradedSubset({n: data.draw(st.sets(st.integers(0, x.counts[n] - 1)))
                          for n in range(x.dim_count)})
    _assert_closure_matches_oracle(SuperHypergraph(x, marks))


# ---------------------------------------------------------------------------
# The check by columns against the row-by-row oracle
# ---------------------------------------------------------------------------

FAULTS = ("none", "swap", "swaps", "retarget", "range")


def _random_multigraph(rng: random.Random) -> MultiGraph:
    """Up to 7 vertices, edges drawn with repeats (parallel edges)."""
    nv = rng.randint(1, 7)
    pairs = [(a, b) for a, b in itertools.combinations(range(nv), 2) if rng.random() < 0.7]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3))] if pairs else []
    return MultiGraph(range(nv), dict(enumerate(pairs)))


def _with_fault(x: DeltaSet, fault: str, draw) -> DeltaSet:
    """x with a fault injected in its face rows: two faces of one cell
    swapped (`swap`), of several cells (`swaps`), one face reference moved
    to another cell below (`retarget`), or out of range, negative or past
    the end (`range`).  draw(k) picks an int in [0, k)."""
    faces = [list(rows) for rows in x.faces]
    dims = [n for n in range(1, x.dim_count) if x.counts[n]]
    for _ in range({"none": 0, "swaps": 3}.get(fault, 1) if dims else 0):
        n = dims[draw(len(dims))]
        j = draw(x.counts[n])
        row = list(faces[n][j])
        a = draw(n + 1)
        if fault in ("swap", "swaps"):
            b = (a + 1 + draw(n)) % (n + 1)
            row[a], row[b] = row[b], row[a]
        elif fault == "retarget":
            row[a] = draw(x.counts[n - 1])
        else:
            row[a] = (-1 - draw(2), x.counts[n - 1] + draw(2))[draw(2)]
        faces[n][j] = tuple(row)
    return DeltaSet(x.counts, faces)


def _assert_check_matches_oracle(x: DeltaSet) -> ValidationReport:
    """x's report by columns equals the row-by-row report: the verdict,
    the structural messages and the violations, each in order."""
    want = rowwise_delta_check(x)
    assert x._check() == want
    return want


def test_check_by_columns_matches_rowwise_oracle():
    # closures of random hypergraphs (up to degree 5) and clique Δ-sets of
    # random multigraphs (up to degree 4), each as built and with faults
    rng = random.Random(30)
    spaces = [random_super_hypergraph(rng, max_vertices=6, max_edges=8).x for _ in range(20)]
    spaces += [clique_delta(_random_multigraph(rng), max_dim=4) for _ in range(20)]
    spaces += [pillow_delta(), collapsed_tower(3), DeltaSet((), ())]
    seen = Counter()
    for x in spaces:
        for fault in FAULTS:
            report = _assert_check_matches_oracle(_with_fault(x, fault, rng.randrange))
            cells = {cell for cell, _, _ in report.violations}
            seen[fault, report.ok, bool(report.structural), len(cells) > 1] += 1
    assert seen["none", True, False, False] == len(spaces)
    assert seen["range", False, True, False] >= 30
    for fault in ("swap", "swaps", "retarget"):
        assert seen[fault, False, False, False] + seen[fault, False, False, True] >= 10
    assert seen["swaps", False, False, True] >= 10


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_check_by_columns_property(data):
    # drawn hypergraph closures and clique Δ-sets up to degree 4, with a
    # drawn fault: the report by columns is the row-by-row report
    if data.draw(st.booleans()):
        edges = data.draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=5),
                                   min_size=1, max_size=5))
        x = from_hypergraph(edges).x
    else:
        g = _random_multigraph(random.Random(data.draw(st.integers(0, 2**32 - 1))))
        x = clique_delta(g, max_dim=data.draw(st.integers(2, 4)))
    fault = data.draw(st.sampled_from(FAULTS))
    _assert_check_matches_oracle(
        _with_fault(x, fault, lambda k: data.draw(st.integers(0, k - 1))))


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
    # a result is true exactly when the input is complete
    assert not is_complete(sh) and is_complete(shy)


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
