"""Exact linear algebra over GF(2), GF(p) and the rationals.

Every homology computation in this package reduces to rank, kernel, image,
intersection and preimage problems over a coefficient field, and every one
of them is solved by one sparse lowest-one column reduction,
`reduce_columns`, on sparse vectors {index: nonzero scalar}.  The low of a
vector is its greatest index.  A caller whose pivot order is not the order
of its indices relabels its vectors once, at the edge, into pivot
positions: the places of the indices in `pivot_order`, by (entry, index).
So the kernels take no order argument and compare plain indices.  The
echelon step, `reduce_vector`, also writes a vector in any family with
distinct lows (the triangular solves of the persistence layer), and
`combine` forms Σ c·v.  A `Span` keeps the reduced echelon basis of a subspace, so equal
spans compare equal and results are bit-for-bit reproducible across runs:
a sum of spans is one reduction of their vectors, and a kernel
(`relations`) or an intersection is the relations among a concatenation
of columns.  All routines are exact.

Each field does its own scalar arithmetic in `axpy` and `combine`, which
call no `Field` method: over GF(2), the default, vectors are {index: 1}
dicts, subtracted as symmetric differences of supports and summed by
occurrence parity; over GF(p) an entry is (a - c·b) mod p, and over Q
a - c·b, an int when integral.  `tests/oracles.py` has the generic route.

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
    when integral and Fractions (arbitrary precision) otherwise.
    """

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int | None):
        if p is not None and (type(p) is not int or not 2 <= p < 2**31 or not _is_prime(p)):
            raise ValueError(f"modulus must be a prime in [2, 2^31), got {p!r}")
        self.p = p

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


GF2 = Field(2)
QQ = Field(None)
GF = Field


# ---------------------------------------------------------------------------
# Sparse lowest-one column reduction and spans
# ---------------------------------------------------------------------------

def axpy(field: Field, dst: dict, c, src: dict):
    """dst -= c * src on sparse vectors {index: scalar}, dropping zeros.

    Over GF(2) every nonzero scalar is 1, so for c = 1 this is the symmetric
    difference of the supports: an index of src leaves dst if it is there
    and enters it with coefficient 1 if not.  No `Field` method is called."""
    p = field.p
    if p == 2:
        if c:
            for i in src:
                if i in dst:
                    del dst[i]
                else:
                    dst[i] = 1
        return
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


def combine(field: Field, coeffs: dict, vectors) -> dict:
    """Σ c · vectors[k] over coeffs {k: c}, as a sparse vector without
    zeros.

    Over GF(2) an index keeps coefficient 1 when an odd number of the
    vectors with c = 1 hold it.  No `Field` method is called."""
    p = field.p
    if p == 2:
        odd: dict = {}
        get = odd.get
        for k, c in coeffs.items():
            if c:
                for i in vectors[k]:
                    odd[i] = not get(i)
        return {i: 1 for i, a in odd.items() if a}
    out: dict = {}
    get = out.get
    for k, c in coeffs.items():
        for i, b in vectors[k].items():
            out[i] = get(i, 0) + c * b
    if p:
        return {i: a % p for i, a in out.items() if a % p}
    return {i: a if type(a) is int else _rational(a) for i, a in out.items() if a}


def pivot_order(entries: Sequence) -> tuple[list, dict]:
    """The indices of `entries` in pivot order, by (entry, index), and
    {index: its position in that order}.  Relabelling vectors by the
    positions makes the greatest position the low."""
    order = sorted(range(len(entries)), key=entries.__getitem__)
    return order, {i: p for p, i in enumerate(order)}


def reduce_vector(field: Field, r: dict, owner: dict, vectors) -> tuple:
    """Reduce the sparse vector r, in place, against vectors with distinct
    lows.

    The low of a nonzero vector is its greatest index.  owner[low] = k when
    vectors[k] has that low.  While the low of r is owned, the multiple of
    its owner that cancels it is subtracted, so the low only falls and each
    owner is used at most once.

    Returns (low, multiples): the low of what is left of r, owned by no
    vector (None when r reduced to zero), and {k: scalar} with
    r as given = r as left + Σ scalar · vectors[k].
    """
    multiples: dict = {}
    while r:
        low = max(r)
        k = owner.get(low)
        if k is None:
            return low, multiples
        if k in multiples:
            raise AssertionError(f"owner {k} used twice: the low {low!r} did not fall")
        v = vectors[k]
        a = v[low]
        c = multiples[k] = r[low] if a == 1 else field.mul(r[low], field.inv(a))
        axpy(field, r, c, v)
    return None, multiples


def reduce_columns(field: Field, columns: Iterable[dict], with_v: bool = True) -> tuple:
    """Lowest-one column reduction (Edelsbrunner–Letscher–Zomorodian 2002,
    Zomorodian–Carlsson 2005) of sparse columns over any field.

    Each column is a dict {row: nonzero scalar} over rows numbered in pivot
    order; columns are reduced in the order given, each by `reduce_vector`
    against the earlier columns that own a low, its greatest row.

    Returns (lows, vs, reduced): lows[j] is the low of reduced column j,
    None when it reduced to zero, reduced[j] is that column as {row: nonzero
    scalar}, and vs[j] is the combination {input column index: scalar} of
    input columns that it equals.  The non-None lows are distinct, so their
    count is the rank of the input columns, and the vs of zero columns are a
    basis of the relations among them.  With with_v=False, vs is None.
    """
    lows: list = []
    vs: list | None = [] if with_v else None
    reduced: list[dict] = []
    owner: dict = {}
    for j, col in enumerate(columns):
        r = dict(col)
        low, multiples = reduce_vector(field, r, owner, reduced)
        if with_v:
            v = {j: 1}
            for k, c in multiples.items():
                axpy(field, v, c, vs[k])
            vs.append(v)
        if low is not None:
            owner[low] = j
        lows.append(low)
        reduced.append(r)
    return lows, vs, reduced


def relations(field: Field, columns: Sequence[dict]) -> list[dict]:
    """A basis of the relations among sparse columns: the {k: scalar} with
    Σ scalar · columns[k] = 0, as the V columns of the columns that
    `reduce_columns` reduces to zero."""
    lows, vs, _ = reduce_columns(field, columns)
    return [v for low, v in zip(lows, vs) if low is None]


def _clean(field: Field, vec: dict) -> dict:
    """A sparse vector given from outside: canonical scalars, no zeros."""
    return {i: c for i, c in ((i, field.of(a)) for i, a in vec.items()) if c}


class Span:
    """The span of sparse vectors {index: scalar}, in its reduced echelon
    basis.

    `vectors` have distinct lows (greatest indices), in increasing order;
    each has coefficient one at its own low and zero at every other
    vector's low.  That basis is unique, so equal spans compare equal.  The
    vectors are read-only mappings."""

    __slots__ = ("field", "vectors", "_owner")

    def __init__(self, field: Field, vectors: Iterable[dict] = ()):
        basis: dict = {}
        reduced = reduce_columns(field, (_clean(field, v) for v in vectors),
                                 with_v=False)[2]
        for v in sorted(filter(None, reduced), key=max):
            for low in [i for i in v if i in basis]:
                axpy(field, v, v[low], basis[low])
            basis[max(v)] = combine(field, {0: field.inv(v[max(v)])}, (v,))
        self.field = field
        self.vectors = tuple(MappingProxyType(v) for v in basis.values())
        self._owner = {low: k for k, low in enumerate(basis)}

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vec: dict) -> bool:
        return reduce_vector(self.field, _clean(self.field, vec), self._owner,
                             self.vectors)[0] is None

    def sum(self, other: "Span") -> "Span":
        return Span(self.field, self.vectors + other.vectors)

    def intersect(self, other: "Span") -> "Span":
        """Σ u_k · self.vectors[k] over the relations (u, w) of the
        concatenated vectors [self | other]."""
        n = self.dim
        return Span(self.field, [combine(self.field, {k: c for k, c in v.items() if k < n},
                                         self.vectors)
                                 for v in relations(self.field, self.vectors + other.vectors)])

    def __eq__(self, other):
        return (isinstance(other, Span) and self.field == other.field
                and self.vectors == other.vectors)

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
