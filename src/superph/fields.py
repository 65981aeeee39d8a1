"""Exact linear algebra over GF(2), GF(p) and the rationals.

Every homology computation in this package reduces to rank, kernel, image,
intersection and preimage problems over a coefficient field, and every one
of them is solved by one sparse lowest-one column reduction,
`reduce_columns`, on sparse vectors.  The low of a vector is its greatest
index.  A caller whose pivot order is not the order of its indices
relabels its vectors once, at the edge, into pivot positions: the places
of the indices in `pivot_order`, by (entry, index).  So the kernels take
no order argument and compare plain indices.  The echelon step,
`reduce_vector`, also writes a vector in any family with distinct lows
(the triangular solves of the persistence layer), and `combine` forms
Σ c·v.  A `Span` keeps the reduced echelon basis of a subspace, so equal
spans compare equal and results are bit-for-bit reproducible across runs:
a sum of spans is one reduction of their vectors, and a kernel
(`relations`) or an intersection is the relations among a concatenation
of columns.  All routines are exact.

Each field picks its vector kernel once, `Field.kernel`, and `axpy`,
`combine`, `reduce_vector` and `reduce_columns` hand their work to it.
Over GF(2), the default, a vector is a Python int with bit i set iff
index i is in its support (`_Masks`): the low is bit_length() - 1, a
subtraction is XOR, and the coefficients of a combination are a mask too.
Over GF(p) and Q a vector is a dict {index: nonzero scalar} (`_Dicts`)
whose scalar arithmetic is written inline, with no `Field` call per entry.
`tests/oracles.py` has the generic dict route, which runs GF(2) on dicts
too.

`FieldMatrix` is a small dense matrix, the return type of induced maps;
`rref` (Gauss–Jordan elimination) has no caller in the package and stays
beside it for the benchmark's traced run, which wraps both by name.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Sequence


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))


class Field:
    """A coefficient field by its characteristic: GF(p) for a prime p, or
    the rationals for p = None.

    GF(p) scalars are ints reduced mod p; rational scalars are exact, ints
    when integral and Fractions (arbitrary precision) otherwise.  `kernel`
    is the field's sparse vector format and its arithmetic, chosen once:
    int bitsets over GF(2), {index: scalar} dicts otherwise.
    """

    __slots__ = ("p", "kernel")
    zero = 0
    one = 1

    def __init__(self, p: int | None):
        if p is not None and (type(p) is not int or not 2 <= p < 2**31 or not _is_prime(p)):
            raise ValueError(f"modulus must be a prime in [2, 2^31), got {p!r}")
        self.p = p
        self.kernel = _Masks if p == 2 else _Dicts

    def of(self, x):
        """Canonical scalar from an int or Fraction (n/d mod p over GF(p))."""
        if not self.p:
            return x if type(x) is int else _rational(Fraction(x))
        if isinstance(x, Fraction):
            return x.numerator * self.inv(x.denominator) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p else _rational(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else _rational(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p else _rational(a * b)

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if not (a % self.p if self.p else a):
            raise ZeroDivisionError("inverse of zero")
        if self.p:
            return pow(a, -1, self.p)
        return int(a) if a == 1 or a == -1 else _rational(1 / Fraction(a))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"


def _rational(x):
    """A rational as an int when it is integral."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


# ---------------------------------------------------------------------------
# Sparse vector kernels
# ---------------------------------------------------------------------------

def _ranks(mask: int) -> tuple[int, ...]:
    """The set bits of mask, increasing."""
    out = []
    while mask:
        r = mask.bit_length() - 1
        out.append(r)
        mask ^= 1 << r
    out.reverse()
    return tuple(out)


class _Dicts:
    """Sparse vectors {index: nonzero scalar}, over GF(p) and Q.  `axpy`
    and `combine` write each field's scalar arithmetic inline: over GF(p)
    an entry is (a - c·b) mod p, over Q a - c·b, an int when integral."""

    @staticmethod
    def vector(field, items):
        return {i: a for i, a in items if a}

    @staticmethod
    def decode(v):
        return v

    @staticmethod
    def low(v):
        return max(v, default=-1)

    @staticmethod
    def relabel(v, table, out=None):
        moved = {table[i]: a for i, a in v.items()}
        return {**out, **moved} if out else moved

    @staticmethod
    def axpy(field, dst, c, src):
        p = field.p
        get = dst.get
        for i, b in src.items():
            t = get(i, 0) - c * b
            if p:
                t %= p
            elif type(t) is Fraction and t.denominator == 1:
                t = t.numerator
            if t:
                dst[i] = t
            else:
                del dst[i]
        return dst

    @staticmethod
    def combine(field, coeffs, vectors):
        p = field.p
        out = {}
        get = out.get
        for k, c in coeffs.items():
            for i, b in vectors[k].items():
                out[i] = get(i, 0) + c * b
        if p:
            return {i: a % p for i, a in out.items() if a % p}
        return {i: a if type(a) is int else _rational(a) for i, a in out.items() if a}

    @staticmethod
    def reduce_vector(field, r, owner, vectors):
        multiples = {}
        while r:
            low = max(r)
            k = owner.get(low)
            if k is None:
                return low, multiples, r
            if k in multiples:
                raise AssertionError(f"owner {k} used twice: the low {low!r} did not fall")
            v = vectors[k]
            a = v[low]
            c = multiples[k] = r[low] if a == 1 else field.mul(r[low], field.inv(a))
            _Dicts.axpy(field, r, c, v)
        return None, multiples, r

    @staticmethod
    def reduce_columns(field, columns, with_v):
        lows, vs, reduced, owner = [], [] if with_v else None, [], {}
        for j, col in enumerate(columns):
            low, multiples, r = _Dicts.reduce_vector(field, dict(col), owner, reduced)
            if with_v:
                v = {j: 1}
                for k, c in multiples.items():
                    _Dicts.axpy(field, v, c, vs[k])
                vs.append(dict(v) if multiples else v)  # compact: axpy grew and shrank v
            if low is not None:
                owner[low] = j
            lows.append(low)
            reduced.append(r)
        return lows, vs, reduced


class _Masks:
    """GF(2) vectors as Python ints: bit i is set iff index i is in the
    support, every nonzero scalar being 1.  The low is bit_length() - 1,
    subtraction is XOR, and a combination XORs the vectors its coefficient
    bits select."""

    @staticmethod
    def vector(field, items):
        return sum(1 << i for i, a in items if a)

    @staticmethod
    def decode(v):
        return dict.fromkeys(_ranks(v), 1)

    @staticmethod
    def low(v):
        return v.bit_length() - 1

    @staticmethod
    def relabel(v, table, out=0):
        while v:
            i = v.bit_length() - 1
            out |= 1 << table[i]
            v ^= 1 << i
        return out

    @staticmethod
    def axpy(field, dst, c, src):
        return dst ^ src if c else dst

    @staticmethod
    def combine(field, coeffs, vectors):
        out = 0
        while coeffs:
            k = coeffs.bit_length() - 1
            out ^= vectors[k]
            coeffs ^= 1 << k
        return out

    @staticmethod
    def reduce_vector(field, r, owner, vectors):
        multiples = 0
        while r:
            low = r.bit_length() - 1
            k = owner.get(low)
            if k is None:
                return low, multiples, r
            r ^= vectors[k]
            if r.bit_length() > low:
                raise AssertionError(f"owner {k} does not hold the low {low!r}")
            multiples |= 1 << k
        return None, multiples, r

    @staticmethod
    def reduce_columns(field, columns, with_v):
        lows, vs, reduced, owner = [], [] if with_v else None, [], {}
        for j, r in enumerate(columns):
            v = 1 << j
            while r:
                low = r.bit_length() - 1
                k = owner.get(low)
                if k is None:
                    owner[low] = j
                    break
                r ^= reduced[k]
                if r.bit_length() > low:
                    raise AssertionError(f"owner {k} does not hold the low {low!r}")
                if with_v:
                    v ^= vs[k]
            else:
                low = None
            if with_v:
                vs.append(v)
            lows.append(low)
            reduced.append(r)
        return lows, vs, reduced


GF2 = Field(2)
QQ = Field(None)
GF = Field


# ---------------------------------------------------------------------------
# Sparse lowest-one column reduction and spans
# ---------------------------------------------------------------------------

def axpy(field: Field, dst, c, src):
    """dst - c·src, dropping zeros; a dict dst is updated in place."""
    return field.kernel.axpy(field, dst, c, src)


def combine(field: Field, coeffs, vectors):
    """Σ c · vectors[k] over the entries k: c of the vector coeffs, without
    zeros."""
    return field.kernel.combine(field, coeffs, vectors)


def pivot_order(entries: Sequence) -> tuple[list, list]:
    """The indices of `entries` in pivot order, by (entry, index), and the
    table position[index] of their places in that order.  Relabelling
    vectors by the positions makes the greatest position the low."""
    order = sorted(range(len(entries)), key=entries.__getitem__)
    return order, sorted(range(len(order)), key=order.__getitem__)


def reduce_vector(field: Field, r, owner: dict, vectors) -> tuple:
    """Reduce the sparse vector r against vectors with distinct lows.

    The low of a nonzero vector is its greatest index.  owner[low] = k when
    vectors[k] has that low.  While the low of r is owned, the multiple of
    its owner that cancels it is subtracted, so the low only falls and each
    owner is used at most once.

    Returns (low, multiples, rest): rest is what is left of r (a dict r is
    reduced in place), low is its low, owned by no vector (None when r
    reduced to zero), and multiples is the vector {k: scalar} with
    r as given = rest + Σ scalar · vectors[k].
    """
    return field.kernel.reduce_vector(field, r, owner, vectors)


def reduce_columns(field: Field, columns: Iterable, with_v: bool = True) -> tuple:
    """Lowest-one column reduction (Edelsbrunner–Letscher–Zomorodian 2002,
    Zomorodian–Carlsson 2005) of sparse columns over any field.

    Each column is a sparse vector over rows numbered in pivot order;
    columns are reduced in the order given, each by the echelon step of
    `reduce_vector` against the earlier columns that own a low, its
    greatest row.  The columns given are not changed.

    Returns (lows, vs, reduced): lows[j] is the low of reduced column j,
    None when it reduced to zero, reduced[j] is that column, and vs[j] is
    the combination {input column index: scalar} of input columns that it
    equals.  The non-None lows are distinct, so their count is the rank of
    the input columns, and the vs of zero columns are a basis of the
    relations among them.  With with_v=False, vs is None.
    """
    return field.kernel.reduce_columns(field, columns, with_v)


def relations(field: Field, columns: Sequence) -> list:
    """A basis of the relations among sparse columns: the vectors
    {k: scalar} (masks over GF(2)) with Σ scalar · columns[k] = 0, as the V
    columns of the columns that `reduce_columns` reduces to zero."""
    lows, vs, _ = reduce_columns(field, columns)
    return [v for low, v in zip(lows, vs) if low is None]


def _clean(field: Field, vec):
    """A vector in the field's format: a mapping {index: scalar} from
    outside with canonical scalars and no zeros, or an int, which is
    already a GF(2) vector."""
    if type(vec) is int:
        return vec
    return field.kernel.vector(field, ((i, field.of(a)) for i, a in vec.items()))


class Span:
    """The span of sparse vectors, in its reduced echelon basis.

    `basis` has distinct lows (greatest indices), in increasing order, in
    the field's vector format; each vector has coefficient one at its own
    low and zero at every other vector's low.  That basis is unique, so
    equal spans compare equal.  `vectors` is the basis as read-only
    {index: scalar} mappings."""

    __slots__ = ("field", "basis", "_owner")

    def __init__(self, field: Field, vectors: Iterable = ()):
        kernel = field.kernel
        basis: dict = {}
        reduced = reduce_columns(field, (_clean(field, v) for v in vectors), with_v=False)[2]
        for v in sorted(filter(None, reduced), key=kernel.low):
            low, entries = kernel.low(v), kernel.decode(v)
            # the earlier vectors have lower lows and are reduced, so each
            # step clears one of their lows and leaves the other entries read
            for i in [i for i in entries if i in basis]:
                v = axpy(field, v, entries[i], basis[i])
            basis[low] = combine(field, kernel.vector(field, ((0, field.inv(entries[low])),)),
                                 (v,))
        self.field = field
        self.basis = tuple(basis.values())
        self._owner = {low: k for k, low in enumerate(basis)}

    @property
    def vectors(self) -> tuple:
        return tuple(MappingProxyType(self.field.kernel.decode(v)) for v in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        return reduce_vector(self.field, _clean(self.field, vec), self._owner,
                             self.basis)[0] is None

    def sum(self, other: "Span") -> "Span":
        return Span(self.field, self.basis + other.basis)

    def intersect(self, other: "Span") -> "Span":
        """Σ u_k · self.basis[k] over the relations (u, w) of the
        concatenated vectors [self | other]."""
        f = self.field
        zero = f.kernel.vector(f, ())
        padded = self.basis + (zero,) * other.dim
        return Span(f, [combine(f, v, padded) for v in relations(f, self.basis + other.basis)])

    def __eq__(self, other):
        return (isinstance(other, Span) and self.field == other.field
                and self.basis == other.basis)

    def __repr__(self):
        return f"Span({self.field!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Dense matrices
# ---------------------------------------------------------------------------

def rref(rows: Iterable[Sequence], ncols: int, field: Field):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Pivot columns are
    strictly increasing and every pivot entry is 1 with zeros elsewhere in
    its column, so the result is a canonical basis of the row space.
    """
    mat = [[field.of(v) for v in r] for r in rows]
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        piv = None
        for i in range(top, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        scale = field.inv(mat[top][col])
        if scale != field.one:
            mat[top] = [field.mul(scale, v) for v in mat[top]]
        support = [(k, b) for k, b in enumerate(mat[top]) if b]
        for i, row in enumerate(mat):
            c = row[col]
            if i != top and c:
                for k, b in support:
                    row[k] = field.sub(row[k], field.mul(c, b))
        pivots.append(col)
        top += 1
    return mat[:top], pivots


class FieldMatrix:
    """Dense matrix of exact field scalars, row-major and immutable."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Iterable):
        self.field = field
        self.rows = rows
        self.cols = cols
        ent = tuple(field.of(x) for x in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        self.entries = ent

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence], nrows: int) -> "FieldMatrix":
        nc = len(columns)
        flat = [columns[j][i] for i in range(nrows) for j in range(nc)]
        return cls(field, nrows, nc, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product m @ vec."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        f = self.field
        terms = [(j, f.of(v)) for j, v in enumerate(vec) if v]
        out = []
        for i in range(self.rows):
            row = self.row(i)
            acc = f.zero
            for j, v in terms:
                if row[j]:
                    acc = f.add(acc, f.mul(row[j], v))
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        f = self.field
        flat = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = f.zero
                for k in range(self.cols):
                    a = self.entry(i, k)
                    if a:
                        acc = f.add(acc, f.mul(a, other.entry(k, j)))
                flat.append(acc)
        return FieldMatrix(f, self.rows, other.cols, flat)

    def __eq__(self, other):
        return (isinstance(other, FieldMatrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"FieldMatrix({self.field!r}, {self.rows}x{self.cols})"
