"""Exact linear algebra over GF(2), GF(p) and the rationals.

Every homology computation in this package reduces to rank, kernel, image,
intersection and preimage problems over a coefficient field, and every one
of them is solved by one sparse lowest-one column reduction,
`reduce_columns`, on sparse vectors {index: nonzero scalar}.  Its echelon
step, `reduce_vector`, also writes a vector in any family with distinct
lows (the triangular solves of the persistence layer), and `combine` forms
Σ c·v.  A `Span` keeps the reduced echelon basis of a subspace, so equal
spans compare equal and results are bit-for-bit reproducible across runs:
a sum of spans is one reduction of their vectors, and a kernel
(`relations`) or an intersection is the relations among a concatenation
of columns.  All routines are exact.

`FieldMatrix` is a small dense matrix, the return type of induced maps;
`rref` (Gauss–Jordan elimination) has no caller in the package and stays
beside it for the benchmark's traced run, which wraps both by name.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Sequence


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """A coefficient field: GF(2), GF(p) for a prime p, or the rationals.

    GF(p) scalars are ints reduced mod p; rational scalars are Fractions
    (arbitrary precision, so elimination never overflows or rounds).
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "gf2":
            p = 2
        elif kind == "gfp":
            if p is None or not (2 <= p < 2**31) or not _is_prime(p):
                raise ValueError(f"modulus must be a prime in [2, 2^31), got {p!r}")
            if p == 2:
                kind = "gf2"
        elif kind == "rational":
            p = None
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @property
    def zero(self):
        return 0 if self.p else Fraction(0)

    @property
    def one(self):
        return 1 if self.p else Fraction(1)

    def of(self, x):
        """Canonical scalar from an int or Fraction."""
        if self.p:
            return int(x) % self.p
        return x if isinstance(x, Fraction) else Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "gf2":
            return "GF(2)"
        if self.kind == "gfp":
            return f"GF({self.p})"
        return "QQ"


GF2 = Field("gf2")
QQ = Field("rational")


def GF(p: int) -> Field:
    return Field("gf2") if p == 2 else Field("gfp", p)


# ---------------------------------------------------------------------------
# Sparse lowest-one column reduction and spans
# ---------------------------------------------------------------------------

def axpy(field: Field, dst: dict, c, src: dict):
    """dst -= c * src on sparse vectors {index: scalar}, dropping zeros."""
    for i, b in src.items():
        t = field.sub(dst[i], field.mul(c, b)) if i in dst else field.neg(field.mul(c, b))
        if t:
            dst[i] = t
        else:
            del dst[i]


def combine(field: Field, coeffs: dict, vectors) -> dict:
    """Σ c · vectors[k] over coeffs {k: c}, as a sparse vector without
    zeros."""
    out: dict = {}
    for k, c in coeffs.items():
        for i, b in vectors[k].items():
            out[i] = field.add(out[i], field.mul(c, b)) if i in out else field.mul(c, b)
    return {i: a for i, a in out.items() if a}


def reduce_vector(field: Field, r: dict, owner: dict, vectors, key=None) -> tuple:
    """Reduce the sparse vector r, in place, against vectors with distinct
    lows.

    The low of a nonzero vector is its index that comes last in the pivot
    order: the greatest `key(index)`, or the greatest index when key is
    None.  owner[low] = k when vectors[k] has that low.  While the low of r
    is owned, the multiple of its owner that cancels it is subtracted, so
    the low only falls and each owner is used at most once.

    Returns (low, multiples): the low of what is left of r, owned by no
    vector (None when r reduced to zero), and {k: scalar} with
    r as given = r as left + Σ scalar · vectors[k].
    """
    multiples: dict = {}
    while r:
        low = max(r, key=key)
        k = owner.get(low)
        if k is None:
            return low, multiples
        v = vectors[k]
        a = v[low]
        c = multiples[k] = r[low] if a == 1 else field.mul(r[low], field.inv(a))
        axpy(field, r, c, v)
    return None, multiples


def reduce_columns(field: Field, columns: Iterable[dict], row_rank: dict | None = None
                   ) -> tuple[list, list[dict], list[dict]]:
    """Lowest-one column reduction (Edelsbrunner–Letscher–Zomorodian 2002,
    Zomorodian–Carlsson 2005) of sparse columns over any field.

    Each column is a dict {row: nonzero scalar}; columns are reduced in the
    order given, each by `reduce_vector` against the earlier columns that
    own a low.  The pivot order of the rows is `row_rank[row]`, or the row
    index when `row_rank` is None.

    Returns (lows, vs, reduced): lows[j] is the low of reduced column j,
    None when it reduced to zero, reduced[j] is that column as {row: nonzero
    scalar}, and vs[j] is the combination {input column index: scalar} of
    input columns that it equals.  The non-None lows are distinct, so their
    count is the rank of the input columns, and the vs of zero columns are a
    basis of the relations among them.
    """
    key = None if row_rank is None else row_rank.__getitem__
    lows: list = []
    vs: list[dict] = []
    reduced: list[dict] = []
    owner: dict = {}
    for j, col in enumerate(columns):
        r = dict(col)
        low, multiples = reduce_vector(field, r, owner, reduced, key)
        v = {j: field.one}
        for k, c in multiples.items():
            axpy(field, v, c, vs[k])
        if low is not None:
            owner[low] = j
        lows.append(low)
        vs.append(v)
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
        reduced = reduce_columns(field, (_clean(field, v) for v in vectors))[2]
        for v in sorted(filter(None, reduced), key=max):
            for low in [i for i in v if i in basis]:
                axpy(field, v, v[low], basis[low])
            c = field.inv(v[max(v)])
            basis[max(v)] = {i: field.mul(c, a) for i, a in v.items()}
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
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "FieldMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = [x for r in rows for x in r]
        return cls(field, nr, nc, flat)

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence], nrows: int | None = None) -> "FieldMatrix":
        nc = len(columns)
        if nrows is None:
            if nc == 0:
                raise ValueError("nrows required for a matrix with no columns")
            nrows = len(columns[0])
        flat = [columns[j][i] for i in range(nrows) for j in range(nc)]
        return cls(field, nrows, nc, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        return cls(field, n, n, [field.one if i == j else field.zero
                                 for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

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
