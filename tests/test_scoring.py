"""Scoring schemes: frozen values, witness enumeration, regularity checks."""

import math
import random

import pytest

from superph import (MultiGraph, PointCloud, SubgraphFamily,
                     cech_points, cech_score, clique_delta, constant_scheme,
                     critical_values, is_regular_scheme, min_enclosing_ball,
                     pullback_score, seeded_random_scheme, vr_points,
                     vr_scheme, vr_score, witness_scheme, witness_score)
from superph.scoring import WITNESS_VARIANTS, _circumball, cell_scores, round_score

from oracles import monotone_on_covers, per_pair_witness_score

from conftest import unit_square_cloud


# ---------------------------------------------------------------------------
# Vietoris–Rips
# ---------------------------------------------------------------------------

def test_vr_singleton_zero():
    pc = PointCloud({0: (3.0, 4.0)})
    assert vr_score([0], pc) == 0.0


def test_vr_two_points():
    pc = PointCloud({0: (0.0,), 1: (1.0,)})
    assert vr_score([0, 1], pc) == 0.5


def test_vr_unit_square():
    pc = unit_square_cloud()
    assert abs(vr_score([0, 1, 2, 3], pc) - math.sqrt(2) / 2) < 1e-12


def test_vr_unembedded_vertex():
    pc = PointCloud({0: (0.0,)})
    with pytest.raises(ValueError, match="vertex 1 is not embedded"):
        vr_score([0, 1], pc)


# ---------------------------------------------------------------------------
# Čech / minimal enclosing ball
# ---------------------------------------------------------------------------

def test_cech_singleton_and_pair():
    pc = PointCloud({0: (0.0, 0.0), 1: (1.0, 0.0)})
    assert cech_score([0], pc) == 0.0
    assert abs(cech_score([0, 1], pc) - 0.5) < 1e-12


def test_cech_equilateral_triangle():
    pc = PointCloud({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, math.sqrt(3) / 2)})
    got = cech_score([0, 1, 2], pc)
    assert abs(got - 1 / math.sqrt(3)) < 1e-9
    # cross-check with a coarse grid minimization of the max distance
    pts = pc.of([0, 1, 2])
    best = min(max(math.dist((x / 200, y / 200), p) for p in pts)
               for x in range(0, 201) for y in range(0, 201))
    assert got <= best + 1e-3


def test_meb_on_collinear_and_dupes():
    center, r = min_enclosing_ball([(0.0,), (1.0,), (0.25,), (1.0,)])
    assert abs(r - 0.5) < 1e-9 and abs(center[0] - 0.5) < 1e-9


def test_meb_high_dimension():
    pts = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
           (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    _, r = min_enclosing_ball(pts)
    assert abs(r - math.sqrt(3) / 2) < 1e-9  # circumradius of the regular simplex


def test_cech_score_depth_does_not_grow_with_point_count():
    # Welzl's recursion goes one level deeper only when the support grows,
    # so 1 200 points score without a RecursionError; three points on the
    # unit circle spanning an acute triangle fix the ball, the rest lie
    # strictly inside it
    rng = random.Random(3)
    pts = []
    while len(pts) < 1197:
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if x * x + y * y < 0.98:
            pts.append((x, y))
    pts += [(1.0, 0.0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)]
    center, r = min_enclosing_ball(pts)
    assert math.dist(center, (0.0, 0.0)) < 1e-12 and abs(r - 1) < 1e-12
    assert cech_score(range(len(pts)), PointCloud(dict(enumerate(pts)))) == r


def test_circumball_consistent_singular_support():
    # four cocircular points in R^3: the Gram system is singular but
    # consistent, and the zero pivot's λ at 0 still gives the circumcentre
    center, r = _circumball([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0),
                             (0.0, -1.0, 0.0)])
    assert max(map(abs, center)) < 1e-12 and abs(r - 1) < 1e-12


@pytest.mark.parametrize("support", [
    [(2.0, 0.0), (0.0, 0.0), (5.0, 0.0)],
    [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
    [(0.5, -1.0), (2.0, 2.0), (-0.25, -2.5)],
    [(1.0, 2.0, 3.0), (3.0, 2.0, 1.0), (7.0, 2.0, -3.0)],
])
def test_circumball_inconsistent_singular_support(support):
    # no ball has three collinear points on its boundary; with the zero
    # pivot's λ at 0 the centre stays on their line, and the radius reaches
    # the farthest support point
    center, r = _circumball(support)
    p0, p1 = support[:2]
    u = [a - b for a, b in zip(p1, p0)]
    w = [a - b for a, b in zip(center, p0)]
    assert all(abs(u[i] * w[j] - u[j] * w[i]) < 1e-12
               for i in range(len(u)) for j in range(i))
    assert r == max(math.dist(p, center) for p in support)


def test_circumball_zero_pivot_rule():
    # 2Gλ = b reads [[2, 6], [6, 18]] λ = (1, 9): partial pivoting takes the
    # second row first, the other row then has a zero pivot, and its λ is 0
    assert _circumball([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]) == ((1.5, 0.0), 1.5)


def test_vr_cech_inequalities(rng):
    for _ in range(25):
        pts = [tuple(rng.uniform(0, 3) for _ in range(2))
               for _ in range(rng.randint(1, 8))]
        vr = vr_points(pts)
        cech = cech_points(pts)
        assert vr - 1e-9 <= cech <= 2 * vr + 1e-9


def test_monotone_under_inclusion(rng):
    for _ in range(20):
        pts = [tuple(rng.uniform(0, 3) for _ in range(2))
               for _ in range(rng.randint(2, 8))]
        sub = pts[:rng.randint(1, len(pts))]
        assert vr_points(sub) <= vr_points(pts) + 1e-12
        assert cech_points(sub) <= cech_points(pts) + 1e-9


# ---------------------------------------------------------------------------
# witness scores
# ---------------------------------------------------------------------------

def test_witness_strong_single_landmark():
    pc = PointCloud({"l": (2.0, 2.0)})
    assert witness_score(["l"], pc, "strong", witnesses=((2.0, 2.0),)) == 0.0


def test_witness_weak_two_point_line():
    pc = PointCloud({0: (0.0,), 1: (1.0,)})
    got = witness_score([0], pc, "weak")
    # enumerate both witnesses: x=0 gives -1, x=1 gives 1
    assert got == -1.0


def test_witness_strong_three_point_line():
    pc = PointCloud({0: (0.0,), 1: (1.0,), 2: (3.0,)})
    got = witness_score([0, 1], pc, "strong")
    assert got == 1.0  # values at x = 0, 1, 3 are 1, 1, 3


def test_witness_weak_rejects_full_subset():
    pc = PointCloud({0: (0.0,), 1: (1.0,)})
    with pytest.raises(ValueError):
        witness_score([0, 1], pc, "weak")


def test_witness_single_witness_degenerate_inf():
    pc = PointCloud({0: (0.0,), 1: (2.0,)})
    w = (5.0,)
    got = witness_score([0], pc, "strong", witnesses=[w])
    assert got == math.dist(w, (0.0,)) - math.dist(w, (2.0,))


def test_witness_vr_variants_singleton():
    pc = PointCloud({0: (0.0,), 1: (1.0,)})
    assert witness_score([0], pc, "vr_strong") == witness_score([0], pc, "strong")


def test_witness_set_given_empty_or_as_ints():
    pc = PointCloud({0: (0.0,), 1: (2.0,)})
    with pytest.raises(ValueError, match="witness set is empty"):
        witness_score([0], pc, "strong", witnesses=())
    assert witness_score([0], pc, "strong", witnesses=[(5,)]) == \
        witness_score([0], pc, "strong", witnesses=[(5.0,)])


@pytest.mark.parametrize("variant", ["strong", "vr_strong", "weak", "vr_weak"])
def test_witness_scheme_rejects_witnesses_of_another_dimension(variant):
    # checked once, when the scheme is built, before any cell is scored
    pc = PointCloud({0: (0.0, 0.0), 1: (2.0, 0.0)})
    with pytest.raises(ValueError, match=r"^witness points have 3 coordinates, the cloud's "
                                         r"points have 2$"):
        witness_scheme(pc, variant, witnesses=[(1.0, 1.0), (1.0, 1.0, 1.0)])
    assert witness_scheme(pc, variant, witnesses=[(1, 1)]).name == f"witness:{variant}"


@pytest.mark.parametrize("variant", ["strong", "vr_strong", "weak", "vr_weak"])
def test_witness_score_matches_per_pair_reference(variant):
    rng = random.Random(f"witness/{variant}")
    for _ in range(30):
        dim = rng.randint(1, 3)
        pc = PointCloud({f"p{i}": tuple(rng.uniform(-2, 2) for _ in range(dim))
                         for i in range(rng.randint(2, 9))})
        ids = pc.ids()
        lam = rng.sample(ids, rng.randint(1, len(ids) - 1))
        given = [tuple(rng.uniform(-3, 3) for _ in range(dim))
                 for _ in range(rng.randint(1, 6))]
        for witnesses in (None, given):
            assert witness_score(lam, pc, variant, witnesses) == \
                per_pair_witness_score(lam, pc, variant, witnesses)


@pytest.mark.parametrize("variant", WITNESS_VARIANTS)
def test_witness_cell_scores_match_per_cell_witness_score(variant):
    # the strong schemes read one nearest-landmark table per scheme, the
    # weak ones build it per cell: every cell of a clique Δ-set scores
    # bit-identically to `witness_score` on its vertex set, with the cloud
    # and with a given set as witnesses
    rng = random.Random(f"witness-cells/{variant}")
    pc = PointCloud({f"p{i}": (rng.uniform(-2, 2), rng.uniform(-2, 2)) for i in range(7)})
    x = clique_delta(MultiGraph.complete(pc.ids()), max_dim=2)
    given = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
    for witnesses in (None, given):
        want = [[round_score(witness_score(x.label(n, j).vertices, pc, variant, witnesses))
                 for j in range(x.counts[n])] for n in range(x.dim_count)]
        assert cell_scores(witness_scheme(pc, variant, witnesses), x) == want


def test_scores_ignore_vertex_order_and_repeats():
    # every score is a max or min over the vertex set (Čech sorts its own
    # points): a shuffled or repeating vertex list scores bit-identically
    rng = random.Random("vertex-order")
    for _ in range(30):
        dim = rng.randint(1, 3)
        ids = rng.sample([0, 1, 2, 10, "a", "b", "z", (0, "x"), ("t", 1)], rng.randint(2, 9))
        pc = PointCloud({v: tuple(rng.uniform(-2, 2) for _ in range(dim)) for v in ids})
        lam = rng.sample(ids, rng.randint(1, len(ids) - 1))
        shuffled = rng.sample(lam, len(lam))
        repeated = lam + rng.choices(lam, k=3)
        given = [tuple(rng.uniform(-3, 3) for _ in range(dim)) for _ in range(4)]
        scores = [lambda vs: vr_score(vs, pc), lambda vs: cech_score(vs, pc)] + \
            [lambda vs, v=variant, w=w: witness_score(vs, pc, v, w)
             for variant in ("strong", "vr_strong", "weak", "vr_weak")
             for w in (None, given)]
        for score in scores:
            want = score(lam).hex()
            assert score(shuffled).hex() == want and score(repeated).hex() == want


# ---------------------------------------------------------------------------
# pull-back scoring
# ---------------------------------------------------------------------------

def test_pullback_constant_is_zero():
    g = MultiGraph.complete([0, 1, 2])
    f = {v: (0.0, 0.0) for v in g.vertices}
    for sub in [g.full(), g.induced({0, 1})]:
        assert pullback_score(f, vr_points, sub) == 0.0


def test_pullback_injective_agrees_with_direct():
    g = MultiGraph.complete([0, 1, 2, 3])
    pc = unit_square_cloud()
    h = g.induced({0, 2})
    assert pullback_score(pc.points, vr_points, h) == vr_score([0, 2], pc)


def test_pullback_collapsing_pair():
    g = MultiGraph.complete([0, 1, 2])
    f = {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (3.0, 0.0)}
    h = g.full()
    assert pullback_score(f, vr_points, h) == 1.5


def test_pullback_undefined_vertex():
    g = MultiGraph.complete([0, 1])
    with pytest.raises(ValueError):
        pullback_score({0: (0.0,)}, vr_points, g.full())


# ---------------------------------------------------------------------------
# regularity and critical values
# ---------------------------------------------------------------------------

def test_vr_scheme_regular_on_family():
    g = MultiGraph.complete([0, 1, 2, 3])
    pc = unit_square_cloud()
    fam = SubgraphFamily(g, [g.full(), g.induced({0, 1}), g.induced({0, 2, 3})])
    ok, pair = is_regular_scheme(vr_scheme(pc), fam)
    assert ok and pair is None


def test_constant_scheme_regular():
    g = MultiGraph.complete([0, 1])
    ok, _ = is_regular_scheme(constant_scheme(2.0), SubgraphFamily(g, [g.full()]))
    assert ok


def test_weak_witness_not_regular_on_line():
    pc = PointCloud({0: (0.0,), 1: (1.0,), 2: (2.5,), 3: (6.0,)})
    g = MultiGraph.complete([0, 1, 2, 3])
    scheme = witness_scheme(pc, "weak")
    fam = SubgraphFamily(g, [g.induced(s) for s in
                             [{0}, {0, 1}, {0, 1, 2}, {1, 2}, {2}, {1}]])
    ok, pair = is_regular_scheme(scheme, fam)
    assert not ok
    small, large = pair
    assert small.vertices <= large.vertices
    assert scheme.score(small) > scheme.score(large)


def test_regularity_check_matches_oracle():
    # random families on random graphs: the flag of the cover oracle, and
    # a returned pair is a comparable pair whose score drops
    rng = random.Random(0x5C0E)
    flags = set()
    for _ in range(40):
        n = rng.randint(2, 6)
        g = MultiGraph(range(n), {f"e{i}_{j}": (i, j) for i in range(n)
                                  for j in range(i + 1, n) if rng.random() < 0.6})
        pc = PointCloud({v: (round(rng.uniform(0, 4), 3),) for v in range(n + 1)})
        members = []
        for _ in range(rng.randint(1, 4)):
            vs = {v for v in range(n) if rng.random() < 0.7} or {0}
            members.append(g.subgraph(vs, [e for e, (u, w) in g.edge_ends.items()
                                           if u in vs and w in vs and rng.random() < 0.7]))
        fam = SubgraphFamily(g, members)
        for scheme in (vr_scheme(pc), witness_scheme(pc, "weak"),
                       seeded_random_scheme(rng.randint(0, 99))):
            ok, pair = is_regular_scheme(scheme, fam)
            assert ok == monotone_on_covers(scheme, fam.members)
            flags.add(ok)
            if pair is not None:
                small, large = pair
                assert small.vertices <= large.vertices and small.edges <= large.edges
                assert scheme.score(small) > scheme.score(large) + 1e-12
    assert flags == {True, False}


def test_critical_values_unit_square():
    pc = unit_square_cloud()
    ds = clique_delta(MultiGraph.complete([0, 1, 2, 3]), max_dim=3)
    got = critical_values(vr_scheme(pc), ds)
    assert got == [0.0, 0.5, round_score(math.sqrt(2) / 2)]


def test_critical_values_constant_and_single_vertex():
    g = MultiGraph.complete([7])
    ds = clique_delta(g, max_dim=1)
    assert critical_values(constant_scheme(1.5), ds) == [1.5]
    assert critical_values(vr_scheme(PointCloud({7: (0.0,)})), ds) == [0.0]


def test_seeded_random_deterministic_across_instances():
    g = MultiGraph.complete([0, 1, 2])
    s1 = seeded_random_scheme(42)
    s2 = seeded_random_scheme(42)
    s3 = seeded_random_scheme(43)
    h = g.full()
    assert s1.score(h) == s2.score(h)
    assert s1.score(h) != s3.score(h)
    assert not s1.regular
