"""Exact linear algebra: frozen examples plus exhaustive GF(2) oracles."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superph.fields import (GF, GF2, QQ, FieldMatrix, Span, _ranks, axpy, combine,
                            reduce_columns, reduce_vector)

from oracles import (SubspaceBasis, contains_subspace, dict_axpy, dict_combine, dict_route,
                     dim_span_gf2_masks, identity_matrix, image_basis, kernel_basis,
                     keyed_reduce_columns, keyed_reduce_vector, matrix_column,
                     matrix_from_rows, preimage_basis, rank, solve, subspace_intersect,
                     subspace_sum)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gf2_vectors(n):
    return list(itertools.product((0, 1), repeat=n))


def mask(vec):
    return sum(1 << i for i, v in enumerate(vec) if v)


def _vec(field, vec: dict):
    """A sparse vector {index: canonical scalar} in the field's vector
    format: a new dict, or an int mask over GF(2)."""
    return field.kernel.vector(field, vec.items())


def _dict(field, v) -> dict:
    """A vector in the field's format as a {index: scalar} dict."""
    return dict(field.kernel.decode(v))


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_empty_matrix():
    assert rank(FieldMatrix.zeros(GF2, 0, 0)) == 0


def test_rank_identity():
    assert rank(identity_matrix(GF2, 3)) == 3


def test_rank_gf2_dependent_rows():
    # oracle: largest independent column subset, checked exhaustively
    m = matrix_from_rows(GF2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    cols = [mask(matrix_column(m, j)) for j in range(3)]
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
    # random sparse columns with their rows relabelled to the positions of
    # a random pivot order: the non-None lows are distinct and count the
    # dense rank; each V column is unit upper-triangular and combines the
    # input columns into the reduced column, whose last row in the pivot
    # order is its low (zero when the low is None)
    for _ in range(25):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = FieldMatrix(field, rows, cols, [rng.choice((0, 0, 1, -1, 2))
                                            for _ in range(rows * cols)])
        order = list(range(rows))
        rng.shuffle(order)
        row_rank = {r: k for k, r in enumerate(order)}
        columns = [_vec(field, {row_rank[i]: a for i, a in enumerate(matrix_column(m, j)) if a})
                   for j in range(cols)]
        lows, vs, reduced = reduce_columns(field, columns)
        found = [low for low in lows if low is not None]
        assert len(found) == len(set(found)) == rank(m)
        for j, (low, v) in enumerate(zip(lows, vs)):
            v = _dict(field, v)
            assert v[j] == field.one and max(v) == j
            combo = m.apply([v.get(k, field.zero) for k in range(cols)])
            support = [i for i, a in enumerate(combo) if a]
            assert (None if low is None else order[low]) == \
                (max(support, key=row_rank.get) if support else None)
            assert _dict(field, reduced[j]) == {row_rank[i]: combo[i] for i in support}


def _relabel(vec: dict, labels) -> dict:
    """vec with index i renamed labels[i], in the same key order."""
    return {labels[i]: a for i, a in vec.items()}


@pytest.mark.parametrize("field", [GF2, GF(3), QQ])
def test_reduce_columns_on_positions_matches_keyed_oracle(field, rng):
    # seeded sparse columns, zero and repeated columns included, under a
    # shuffled row order: reducing the columns relabelled to pivot positions
    # without a key gives the keyed reference's lows (mapped back), V
    # columns and reduced columns, key order included, and so does the
    # echelon step on a probe vector against the reduced columns
    repeated = 0
    for _ in range(40):
        nrows = rng.randint(1, 8)

        def vector():
            vec = {i: field.of(rng.choice((1, -1, 2)))
                   for i in rng.sample(range(nrows), rng.randint(0, nrows))}
            return {i: a for i, a in vec.items() if a}

        columns = [vector() for _ in range(rng.randint(0, 7))]
        if columns:
            columns += [dict(rng.choice(columns)) for _ in range(rng.randint(0, 2))]
        columns.insert(rng.randint(0, len(columns)), {})
        nonzero = [tuple(c.items()) for c in columns if c]
        repeated += len(nonzero) > len(set(nonzero))
        order = list(range(nrows))
        rng.shuffle(order)
        position = {i: p for p, i in enumerate(order)}
        lows, vs, reduced = reduce_columns(field, [_vec(field, _relabel(c, position))
                                                   for c in columns])
        ref_lows, ref_vs, ref_reduced = keyed_reduce_columns(field, columns, position)
        assert [None if low is None else order[low] for low in lows] == ref_lows
        assert _items(field, vs) == _items(field, ref_vs)
        assert _items(field, [_relabel(_dict(field, r), order) for r in reduced]) == \
            _items(field, ref_reduced)
        probe = vector()
        r, ref_r = _vec(field, _relabel(probe, position)), dict(probe)
        low, multiples, r = reduce_vector(field, r, {low: j for j, low in enumerate(lows)
                                                     if low is not None}, reduced)
        ref_low, ref_multiples = keyed_reduce_vector(
            field, ref_r, {low: j for j, low in enumerate(ref_lows) if low is not None},
            ref_reduced, position.__getitem__)
        assert (None if low is None else order[low]) == ref_low
        assert _items(field, [multiples]) == _items(field, [ref_multiples])
        assert _items(field, [_relabel(_dict(field, r), order)]) == _items(field, [ref_r])
    assert repeated >= 10


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_identity_trivial():
    assert kernel_basis(identity_matrix(QQ, 4)).dim == 0


def test_kernel_zero_matrix_full():
    assert kernel_basis(FieldMatrix.zeros(GF2, 2, 3)).dim == 3


def test_kernel_gf2_pair():
    # oracle: exhaust all four GF(2)^2 vectors
    m = matrix_from_rows(GF2, [[1, 1]])
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
    im = image_basis(identity_matrix(GF2, 3))
    assert im == SubspaceBasis.full(GF2, 3)


def test_image_proportional_columns():
    # both columns proportional to (2,1): cross-multiplication 2*2 == 4*1
    assert Fraction(2) * Fraction(2) == Fraction(4) * Fraction(1)
    im = image_basis(matrix_from_rows(QQ, [[2, 4], [1, 2]]))
    assert im.dim == 1 and im.contains((2, 1))


def test_image_matches_exhaustive_gf2(rng):
    # span(image) equals {m @ x} over all x, for GF(2) inputs with <= 12 cols
    for _ in range(10):
        cols = rng.randint(0, 12)
        rows = rng.randint(1, 5)
        m = FieldMatrix(GF2, rows, cols, [rng.randint(0, 1) for _ in range(rows * cols)])
        im = image_basis(m)
        col_masks = [mask(matrix_column(m, j)) for j in range(cols)]
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
    m = matrix_from_rows(GF2, [[1, 0], [0, 1]])
    assert preimage_basis(m, SubspaceBasis.full(GF2, 2)).dim == 2
    assert preimage_basis(m, SubspaceBasis.zero(GF2, 2)) == kernel_basis(m)


def test_preimage_gf2_exhaustive():
    m = matrix_from_rows(GF2, [[1, 0], [0, 1]])
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
        m = matrix_from_rows(GF2, rows)
        perm = rows[:]
        rng.shuffle(perm)
        assert kernel_basis(m) == kernel_basis(matrix_from_rows(GF2, perm))


def test_solve_consistent_and_inconsistent():
    m = matrix_from_rows(QQ, [[1, 2], [2, 4]])
    assert solve(m, (1, 2)) is not None
    assert solve(m, (1, 3)) is None


def test_gfp_inverse_and_reduction():
    f = GF(7)
    assert f.of(10) == 3
    assert f.mul(3, f.inv(3)) == 1
    with pytest.raises(ValueError):
        GF(9)


@pytest.mark.parametrize("p", [2.5, 3.0, Fraction(3), True, "3"])
def test_field_rejects_a_non_int_modulus(p):
    # a modulus that is not an int (a bool neither) is refused at
    # construction, not left to fail in pow() or to print as GF(2.5)
    with pytest.raises(ValueError, match=r"modulus must be a prime in \[2, 2\^31\)"):
        GF(p)


def test_gfp_of_fraction_is_numerator_times_inverse():
    # n/d over GF(p) is n·d⁻¹ mod p, not int(n/d) truncated: 1/2 is 2 in
    # GF(3), so the span of {0: 1/2} is a line; p dividing d has no value
    assert GF(3).of(Fraction(1, 2)) == 2 and GF(3).of(Fraction(-1, 2)) == 1
    assert GF(5).of(Fraction(3, 4)) == 2 and GF(7).of(Fraction(14, 2)) == 0
    assert Span(GF(3), [{0: Fraction(1, 2)}]).dim == 1
    assert Span(GF(3), [{0: 1}]).contains({0: Fraction(1, 2)})
    for p, d in ((3, 3), (5, 10)):
        with pytest.raises(ZeroDivisionError):
            GF(p).of(Fraction(1, d))


def test_rational_scalars_are_ints_when_integral():
    # integral rationals are ints and the rest Fractions, with the values,
    # equality and hashes of the Fractions they stand for
    assert type(QQ.one) is int and type(QQ.zero) is int
    half = Fraction(1, 2)
    results = [QQ.of(3), QQ.of(Fraction(4, 2)), QQ.of(True), QQ.inv(half), QQ.inv(-1),
               QQ.mul(half, 2), QQ.add(half, half), QQ.sub(Fraction(3, 2), half), QQ.neg(2)]
    assert results == [3, 2, 1, 2, -1, 1, 1, 1, -2]
    assert all(type(a) is int for a in results)
    assert [QQ.of(1.5), QQ.inv(2), QQ.mul(half, 3), QQ.neg(half)] == \
        [Fraction(3, 2), half, Fraction(3, 2), -half]
    assert all(type(a) is Fraction for a in (QQ.of(1.5), QQ.inv(2), QQ.mul(half, 3)))
    assert {QQ.of(Fraction(6, 3)): "x"} == {Fraction(2): "x"}
    assert hash(QQ.of(Fraction(6, 3))) == hash(Fraction(2))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_rational_uses_exact_fractions():
    # elimination keeps exact arithmetic: a matrix engineered to blow up
    # floating point has exact rank 3
    m = matrix_from_rows(QQ, [[Fraction(1, 3), 1, 0],
                                   [0, Fraction(1, 7), 1],
                                   [1, 0, Fraction(10**12)]])
    assert rank(m) == 3


def test_matmul_apply_agree(rng):
    a = FieldMatrix(GF(5), 3, 4, [rng.randint(0, 4) for _ in range(12)])
    b = FieldMatrix(GF(5), 4, 2, [rng.randint(0, 4) for _ in range(8)])
    prod = a.matmul(b)
    for j in range(2):
        assert matrix_column(prod, j) == a.apply(matrix_column(b, j))


# ---------------------------------------------------------------------------
# The fields' inline arithmetic against the generic route
# ---------------------------------------------------------------------------

def _items(field, vectors):
    """Sparse vectors as item lists, so that the order of the keys counts;
    over GF(2), where the library's int masks have no key order, the items
    of a mask or a dict are sorted."""
    if field.p == 2:
        return [sorted(dict.fromkeys(_ranks(v), 1).items() if type(v) is int else v.items())
                for v in vectors]
    return [list(v.items()) for v in vectors]


def _scalars(field):
    """Nonzero canonical scalars to draw from: every residue over GF(p), and
    integral and non-integral rationals over Q."""
    if field.p:
        return list(range(1, field.p))
    return [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(5, 4)]


def _gf2_family(supports, repeats, cancels):
    """{i: 1} vectors on the drawn supports, plus copies of some (repeated
    vectors) and the sums of some pairs (cancelling triples)."""
    return _family(GF2, [[(i, 1) for i in s] for s in supports], [(k, 1) for k in repeats],
                   [(a, b, 1, 1) for a, b in cancels])


def _family(field, entries, scaled, cancels):
    """Vectors {i: scalar} from drawn (index, scalar) lists, plus scaled
    copies of some (repeated lows) and the combinations a·u + b·w of some
    pairs (cancelling triples), all with canonical scalars."""
    vectors = [_canonical(field, dict(e)) for e in entries]
    if vectors:
        vectors += [_canonical(field, dict_combine(field, {k % len(vectors): c}, vectors))
                    for k, c in scaled]
        vectors += [_canonical(field, dict_combine(field, {a % len(vectors): c,
                                                           b % len(vectors): d}, vectors))
                    for a, b, c, d in cancels]
    return vectors


def _canonical(field, vec):
    return {i: field.of(a) for i, a in vec.items() if field.of(a)}


def _assert_canonical(field, vectors):
    # no stored zero; over GF(p) a residue in [1, p), over Q an int when
    # integral and a Fraction otherwise (a GF(2) mask holds only ones)
    for v in vectors:
        for a in _dict(field, v).values():
            assert a
            if field.p:
                assert type(a) is int and 0 < a < field.p
            else:
                assert type(a) is int or (type(a) is Fraction and a.denominator != 1)


def _assert_matches_dict_route(field, vectors, coeffs, probe, row_rank):
    # the library's vectors (int masks over GF(2), dicts otherwise) against
    # the generic route's dicts, compared as items after decoding.  axpy of
    # every ordered pair: with a drawn multiple, and with the multiple that
    # cancels the entry of dst at the low of src
    scalars = _scalars(field)
    for n, dst in enumerate(vectors):
        for src in vectors:
            cs = [scalars[n % len(scalars)]]
            if src and max(src) in dst:
                cs.append(field.mul(dst[max(src)], field.inv(src[max(src)])))
            for k, c in enumerate(cs):
                fast = axpy(field, _vec(field, dst), c, _vec(field, src))
                slow = dict_axpy(field, dict(dst), c, src)
                assert _items(field, [fast]) == _items(field, [slow])
                _assert_canonical(field, [fast])
                assert k == 0 or max(src) not in _dict(field, fast)
    fast = combine(field, _vec(field, coeffs), [_vec(field, v) for v in vectors])
    assert _items(field, [fast]) == _items(field, [dict_combine(field, coeffs, vectors)])
    _assert_canonical(field, [fast])
    # the whole reduction, with and without V, on the rows as given and
    # relabelled to the positions of a row order
    for vs, pr in ((vectors, probe),
                   ([_relabel(v, row_rank) for v in vectors], _relabel(probe, row_rank))):
        fast = reduce_columns(field, [_vec(field, v) for v in vs])
        with dict_route():
            slow = reduce_columns(field, vs)
        assert fast[0] == slow[0]
        assert _items(field, fast[1]) == _items(field, slow[1])
        assert _items(field, fast[2]) == _items(field, slow[2])
        _assert_canonical(field, fast[1] + fast[2])
        lows, none, reduced = reduce_columns(field, [_vec(field, v) for v in vs], with_v=False)
        assert lows == fast[0] and none is None
        assert _items(field, reduced) == _items(field, fast[2])
        owner = {low: j for j, low in enumerate(fast[0]) if low is not None}
        out_fast = reduce_vector(field, _vec(field, pr), owner, fast[2])
        with dict_route():
            out_slow = reduce_vector(field, dict(pr), owner, slow[2])
        assert out_fast[0] == out_slow[0]
        assert _items(field, out_fast[1:]) == _items(field, out_slow[1:])
        _assert_canonical(field, out_fast[1:])
    # spans: bases, sums, intersections and membership
    half = len(vectors) // 2
    a, b = Span(field, vectors[:half]), Span(field, vectors[half:])
    fast = (a, b, a.sum(b), a.intersect(b))
    inside = a.contains(probe)
    with dict_route():
        a, b = Span(field, vectors[:half]), Span(field, vectors[half:])
        slow = [span.vectors for span in (a, b, a.sum(b), a.intersect(b))]
        assert a.contains(probe) == inside
    assert [span.vectors for span in fast] == slow
    for span in fast:
        _assert_canonical(field, span.basis)


def test_gf2_arithmetic_matches_dict_route(rng):
    # seeded families of up to 12 vectors on 10 rows, with empty, repeated
    # and cancelling vectors
    for _ in range(40):
        supports = [rng.sample(range(10), rng.randint(0, 6)) for _ in range(rng.randint(0, 8))]
        repeats = [rng.randrange(8) for _ in range(rng.randint(0, 2))]
        cancels = [(rng.randrange(8), rng.randrange(8)) for _ in range(rng.randint(0, 2))]
        vectors = _gf2_family(supports, repeats, cancels)
        coeffs = {k: 1 for k in range(len(vectors)) if rng.random() < 0.6}
        probe = dict.fromkeys(rng.sample(range(10), rng.randint(0, 6)), 1)
        order = list(range(10))
        rng.shuffle(order)
        _assert_matches_dict_route(GF2, vectors, coeffs, probe,
                                   {r: k for k, r in enumerate(order)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_gf2_arithmetic_matches_dict_route_property(data):
    indices = st.lists(st.integers(0, 7), unique=True, max_size=6)
    supports = data.draw(st.lists(indices, max_size=7))
    repeats = data.draw(st.lists(st.integers(0, 6), max_size=2))
    cancels = data.draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=2))
    vectors = _gf2_family(supports, repeats, cancels)
    coeffs = dict.fromkeys(data.draw(st.lists(st.integers(0, max(len(vectors) - 1, 0)),
                                              unique=True, max_size=len(vectors))), 1)
    probe = dict.fromkeys(data.draw(indices), 1)
    order = data.draw(st.permutations(range(8)))
    _assert_matches_dict_route(GF2, vectors, coeffs, probe,
                               {r: k for k, r in enumerate(order)})


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ])
def test_field_arithmetic_matches_dict_route(field, rng):
    # seeded families of up to 12 vectors on 10 rows with drawn scalars
    # (non-integral ones over Q), scaled copies and cancelling triples: the
    # inline arithmetic over GF(p) and Q gives the generic route's vectors,
    # key order included, and stores only canonical nonzero scalars
    scalars = _scalars(field)
    for _ in range(40):
        entries = [[(i, rng.choice(scalars)) for i in rng.sample(range(10), rng.randint(0, 6))]
                   for _ in range(rng.randint(0, 8))]
        scaled = [(rng.randrange(8), rng.choice(scalars)) for _ in range(rng.randint(0, 2))]
        cancels = [(rng.randrange(8), rng.randrange(8), rng.choice(scalars), rng.choice(scalars))
                   for _ in range(rng.randint(0, 2))]
        vectors = _family(field, entries, scaled, cancels)
        coeffs = {k: rng.choice(scalars) for k in range(len(vectors)) if rng.random() < 0.6}
        probe = {i: rng.choice(scalars) for i in rng.sample(range(10), rng.randint(0, 6))}
        order = list(range(10))
        rng.shuffle(order)
        _assert_matches_dict_route(field, vectors, coeffs, probe,
                                   {r: k for k, r in enumerate(order)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_field_arithmetic_matches_dict_route_property(data):
    field = data.draw(st.sampled_from((GF(3), GF(5), QQ)))
    scalar = st.sampled_from(_scalars(field))
    vector = st.dictionaries(st.integers(0, 7), scalar, max_size=6)
    entries = [list(v.items()) for v in data.draw(st.lists(vector, max_size=7))]
    scaled = data.draw(st.lists(st.tuples(st.integers(0, 6), scalar), max_size=2))
    cancels = data.draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), scalar, scalar),
                                 max_size=2))
    vectors = _family(field, entries, scaled, cancels)
    coeffs = data.draw(st.dictionaries(st.integers(0, max(len(vectors) - 1, 0)), scalar,
                                       max_size=len(vectors)))
    order = data.draw(st.permutations(range(8)))
    _assert_matches_dict_route(field, vectors, coeffs if vectors else {}, data.draw(vector),
                               {r: k for k, r in enumerate(order)})


def test_reduce_vector_fails_when_the_low_does_not_fall():
    # on dicts, an axpy that never removes a key keeps the low in place, so
    # its owner comes up again; on GF(2) masks, an owner without the low
    # bit sets it again.  The reduction must raise instead of looping.  It
    # runs in a subprocess with a time limit, so a loop fails the test
    # instead of hanging the suite.
    code = ("from superph import fields\n"
            "def union_axpy(field, dst, c, src):\n"
            "    dst.update(dict.fromkeys(src, 1))\n"
            "    return dst\n"
            "fields._Dicts.axpy = staticmethod(union_axpy)\n"
            "for field, r, vectors in ((fields.GF(3), {0: 1, 2: 1}, [{1: 1, 2: 1}]),\n"
            "                          (fields.GF2, 0b101, [0b010])):\n"
            "    try:\n"
            "        fields.reduce_vector(field, r, {2: 0}, vectors)\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("owner 0 used twice: the low 2 did not fall\n"
                           "owner 0 does not hold the low 2\n")
