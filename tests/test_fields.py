"""Exact linear algebra: frozen examples plus exhaustive GF(2) oracles."""

import itertools
from fractions import Fraction

import pytest

from superph.fields import GF, GF2, QQ, FieldMatrix, Span, reduce_columns

from oracles import (SubspaceBasis, contains_subspace, dim_span_gf2_masks,
                     image_basis, kernel_basis, preimage_basis, rank, solve,
                     subspace_intersect, subspace_sum)


def gf2_vectors(n):
    return list(itertools.product((0, 1), repeat=n))


def mask(vec):
    return sum(1 << i for i, v in enumerate(vec) if v)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_empty_matrix():
    assert rank(FieldMatrix.zeros(GF2, 0, 0)) == 0


def test_rank_identity():
    assert rank(FieldMatrix.identity(GF2, 3)) == 3


def test_rank_gf2_dependent_rows():
    # oracle: largest independent column subset, checked exhaustively
    m = FieldMatrix.from_rows(GF2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    cols = [mask(m.column(j)) for j in range(3)]
    best = 0
    for r in range(4):
        for combo in itertools.combinations(range(3), r):
            if dim_span_gf2_masks([cols[j] for j in combo]) == r:
                best = max(best, r)
    assert best == 2
    assert rank(m) == 2


@pytest.mark.parametrize("field", [GF2, GF(5), QQ])
def test_rank_nullity(field, rng):
    for _ in range(25):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = FieldMatrix(field, rows, cols,
                        [rng.randint(-3, 3) for _ in range(rows * cols)])
        assert rank(m) + kernel_basis(m).dim == cols
        # row rank from the pivots equals the column space's dimension
        assert rank(m) == image_basis(m).dim


@pytest.mark.parametrize("field", [GF2, GF(3), QQ])
def test_reduce_columns_lows_and_v(field, rng):
    # random sparse columns and a random pivot order: the non-None lows are
    # distinct and count the dense rank; each V column is unit
    # upper-triangular and combines the input columns into the reduced
    # column, whose last row in the pivot order is its low (zero when the
    # low is None)
    for _ in range(25):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = FieldMatrix(field, rows, cols, [rng.choice((0, 0, 1, -1, 2))
                                            for _ in range(rows * cols)])
        order = list(range(rows))
        rng.shuffle(order)
        row_rank = {r: k for k, r in enumerate(order)}
        columns = [{i: a for i, a in enumerate(m.column(j)) if a} for j in range(cols)]
        lows, vs, reduced = reduce_columns(field, columns, row_rank)
        found = [low for low in lows if low is not None]
        assert len(found) == len(set(found)) == rank(m)
        for j, (low, v) in enumerate(zip(lows, vs)):
            assert v[j] == field.one and max(v) == j
            combo = m.apply([v.get(k, field.zero) for k in range(cols)])
            support = [i for i, a in enumerate(combo) if a]
            assert low == (max(support, key=row_rank.get) if support else None)
            assert reduced[j] == {i: combo[i] for i in support}


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_identity_trivial():
    assert kernel_basis(FieldMatrix.identity(QQ, 4)).dim == 0


def test_kernel_zero_matrix_full():
    assert kernel_basis(FieldMatrix.zeros(GF2, 2, 3)).dim == 3


def test_kernel_gf2_pair():
    # oracle: exhaust all four GF(2)^2 vectors
    m = FieldMatrix.from_rows(GF2, [[1, 1]])
    expect = [v for v in gf2_vectors(2) if (v[0] + v[1]) % 2 == 0 and any(v)]
    assert expect == [(1, 1)]
    k = kernel_basis(m)
    assert k.dim == 1 and k.contains((1, 1))


def test_kernel_vectors_annihilate(rng):
    for _ in range(20):
        m = FieldMatrix(QQ, 3, 4, [rng.randint(-4, 4) for _ in range(12)])
        for v in kernel_basis(m).vectors:
            assert all(x == 0 for x in m.apply(v))


# ---------------------------------------------------------------------------
# image
# ---------------------------------------------------------------------------

def test_image_zero_and_identity():
    assert image_basis(FieldMatrix.zeros(QQ, 3, 2)).dim == 0
    im = image_basis(FieldMatrix.identity(GF2, 3))
    assert im == SubspaceBasis.full(GF2, 3)


def test_image_proportional_columns():
    # both columns proportional to (2,1): cross-multiplication 2*2 == 4*1
    assert Fraction(2) * Fraction(2) == Fraction(4) * Fraction(1)
    im = image_basis(FieldMatrix.from_rows(QQ, [[2, 4], [1, 2]]))
    assert im.dim == 1 and im.contains((2, 1))


def test_image_matches_exhaustive_gf2(rng):
    # span(image) equals {m @ x} over all x, for GF(2) inputs with <= 12 cols
    for _ in range(10):
        cols = rng.randint(0, 12)
        rows = rng.randint(1, 5)
        m = FieldMatrix(GF2, rows, cols, [rng.randint(0, 1) for _ in range(rows * cols)])
        im = image_basis(m)
        col_masks = [mask(m.column(j)) for j in range(cols)]
        span = {0}
        for c in col_masks:
            span |= {s ^ c for s in span}
        assert im.dim == dim_span_gf2_masks(list(span))
        for v in span:
            assert im.contains([(v >> i) & 1 for i in range(rows)])


# ---------------------------------------------------------------------------
# intersection / sum / preimage
# ---------------------------------------------------------------------------

def test_intersect_with_full_space():
    b = SubspaceBasis(QQ, 3, [(1, 2, 0)])
    assert subspace_intersect(SubspaceBasis.full(QQ, 3), b) == b


def test_intersect_orthogonal_coordinates():
    e1 = SubspaceBasis.coordinate(GF2, 3, [0])
    e2 = SubspaceBasis.coordinate(GF2, 3, [1])
    assert subspace_intersect(e1, e2).dim == 0


def test_intersect_gf2_exhaustive():
    # oracle: membership over all 8 vectors of GF(2)^3.  (1,1,1) lies in both
    # spans, so this intersection is one-dimensional.
    a = SubspaceBasis(GF2, 3, [(1, 1, 0), (0, 0, 1)])
    b = SubspaceBasis(GF2, 3, [(1, 1, 1)])
    both = [v for v in gf2_vectors(3) if a.contains(v) and b.contains(v) and any(v)]
    assert both == [(1, 1, 1)]
    got = subspace_intersect(a, b)
    assert got.dim == 1 and got.contains((1, 1, 1))


def test_intersect_gf2_exhaustive_empty():
    a = SubspaceBasis(GF2, 3, [(1, 1, 0), (1, 0, 1)])
    b = SubspaceBasis(GF2, 3, [(1, 1, 1)])
    both = [v for v in gf2_vectors(3) if a.contains(v) and b.contains(v) and any(v)]
    assert both == []
    assert subspace_intersect(a, b).dim == 0


def test_intersect_commutative_and_dim_formula(rng):
    for _ in range(25):
        amb = rng.randint(1, 5)
        a = SubspaceBasis(QQ, amb, [[rng.randint(-2, 2) for _ in range(amb)]
                                    for _ in range(rng.randint(0, 3))])
        b = SubspaceBasis(QQ, amb, [[rng.randint(-2, 2) for _ in range(amb)]
                                    for _ in range(rng.randint(0, 3))])
        ab = subspace_intersect(a, b)
        ba = subspace_intersect(b, a)
        assert ab == ba
        assert ab.dim == a.dim + b.dim - subspace_sum(a, b).dim


@pytest.mark.parametrize("field", [GF2, GF(3), QQ])
def test_span_drops_explicit_zeros(field):
    # an entry that is zero, or zero mod p, is no entry: it is neither a low
    # nor a pivot to invert
    p = field.p or 0
    span = Span(field, [{0: 1, 1: 0}, {2: p, 1: 1}])
    assert span == Span(field, [{0: 1}, {1: 1}]) and span.dim == 2
    assert span.contains({0: 1, 1: 0}) and span.contains({0: 2, 1: -1, 2: 0})
    assert span.contains({3: p}) and not span.contains({2: 1, 3: 0})
    assert Span(field, [{0: 0}, {}]).dim == 0


def test_span_vectors_are_read_only():
    span = Span(QQ, [{0: 1, 1: 2}])
    with pytest.raises(TypeError):
        span.vectors[0][0] = 5
    assert dict(span.vectors[0]) == {0: Fraction(1, 2), 1: 1}


def test_preimage_full_and_zero():
    m = FieldMatrix.from_rows(GF2, [[1, 0], [0, 1]])
    assert preimage_basis(m, SubspaceBasis.full(GF2, 2)).dim == 2
    assert preimage_basis(m, SubspaceBasis.zero(GF2, 2)) == kernel_basis(m)


def test_preimage_gf2_exhaustive():
    m = FieldMatrix.from_rows(GF2, [[1, 0], [0, 1]])
    s = SubspaceBasis(GF2, 2, [(1, 1)])
    pre = preimage_basis(m, s)
    expect = [v for v in gf2_vectors(2) if s.contains(m.apply(v))]
    inside = [v for v in gf2_vectors(2) if pre.contains(v)]
    assert inside == expect
    assert pre.dim == 1 and pre.contains((1, 1))


def test_preimage_contains_kernel(rng):
    for _ in range(20):
        m = FieldMatrix(GF(3), 3, 4, [rng.randint(0, 2) for _ in range(12)])
        s = SubspaceBasis(GF(3), 3, [[rng.randint(0, 2) for _ in range(3)]])
        pre = preimage_basis(m, s)
        assert contains_subspace(pre, kernel_basis(m))
        for v in pre.vectors:
            assert s.contains(m.apply(v))


# ---------------------------------------------------------------------------
# determinism and misc
# ---------------------------------------------------------------------------

def test_row_shuffle_leaves_kernel_span(rng):
    for _ in range(15):
        rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(4)]
        m = FieldMatrix.from_rows(GF2, rows)
        perm = rows[:]
        rng.shuffle(perm)
        assert kernel_basis(m) == kernel_basis(FieldMatrix.from_rows(GF2, perm))


def test_solve_consistent_and_inconsistent():
    m = FieldMatrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert solve(m, (1, 2)) is not None
    assert solve(m, (1, 3)) is None


def test_gfp_inverse_and_reduction():
    f = GF(7)
    assert f.of(10) == 3
    assert f.mul(3, f.inv(3)) == 1
    with pytest.raises(ValueError):
        GF(9)


def test_rational_uses_exact_fractions():
    # elimination keeps exact arithmetic: a matrix engineered to blow up
    # floating point has exact rank 3
    m = FieldMatrix.from_rows(QQ, [[Fraction(1, 3), 1, 0],
                                   [0, Fraction(1, 7), 1],
                                   [1, 0, Fraction(10**12)]])
    assert rank(m) == 3


def test_matmul_apply_agree(rng):
    a = FieldMatrix(GF(5), 3, 4, [rng.randint(0, 4) for _ in range(12)])
    b = FieldMatrix(GF(5), 4, 2, [rng.randint(0, 4) for _ in range(8)])
    prod = a.matmul(b)
    for j in range(2):
        assert prod.column(j) == a.apply(b.column(j))
