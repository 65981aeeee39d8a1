"""Exact linear algebra over GF(2), GF(p) and the rationals.

Every homology computation in this package reduces to rank, kernel, image,
intersection and preimage problems over a coefficient field.  The static
ranks of boundary matrices and every persistence module come from one
sparse lowest-one column reduction, `reduce_columns`, on sparse vectors
{index: nonzero scalar}.  Its echelon step, `reduce_vector`, also writes a
vector in any family with distinct lows (the triangular solves of the
persistence layer), and `combine` forms Σ c·v.  The dense subspace
routines are plain Gauss–Jordan elimination (`rref`), one loop for every
field; they serve homology bases, induced maps and the Mayer–Vietoris
diagnostics on small inputs.  All routines are exact.
Dense pivots are always the first nonzero entry in column order, so every
derived basis is canonical and results are bit-for-bit reproducible across
runs.
"""

from __future__ import annotations

from fractions import Fraction
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
# Reduced row echelon form (dense subspaces)
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


# ---------------------------------------------------------------------------
# Sparse lowest-one column reduction
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
    def from_sparse_columns(cls, field: Field, nrows: int,
                            columns: Sequence[dict]) -> "FieldMatrix":
        """Dense matrix from sparse columns {row: nonzero entry}."""
        nc = len(columns)
        flat = [field.zero] * (nrows * nc)
        for j, col in enumerate(columns):
            for i, a in col.items():
                flat[i * nc + j] = a
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

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

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


class SubspaceBasis:
    """A linear subspace of F^n, stored as its canonical RREF row basis."""

    __slots__ = ("field", "ambient_dim", "vectors", "_pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors: Iterable[Sequence] = (),
                 _canonical: bool = False):
        self.field = field
        self.ambient_dim = ambient_dim
        if _canonical:
            self.vectors = tuple(tuple(v) for v in vectors)
            self._pivots = None
        else:
            reduced, pivots = rref(vectors, ambient_dim, field)
            self.vectors = tuple(tuple(r) for r in reduced)
            self._pivots = tuple(pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, (), _canonical=True)

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls.coordinate(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinate(cls, field: Field, ambient_dim: int, indices: Iterable[int]) -> "SubspaceBasis":
        """Span of the unit vectors at the given coordinate indices."""
        vecs = []
        for i in sorted(set(indices)):
            v = [field.zero] * ambient_dim
            v[i] = field.one
            vecs.append(tuple(v))
        return cls(field, ambient_dim, vecs, _canonical=True)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def pivots(self) -> list[int]:
        if self._pivots is None:
            self._pivots = tuple(next(j for j, x in enumerate(v) if x != 0)
                                 for v in self.vectors)
        return list(self._pivots)

    def reduce_vector(self, vec: Sequence) -> list:
        """Remainder of vec after elimination against the basis rows."""
        f = self.field
        v = [f.of(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for row, p in zip(self.vectors, self.pivots()):
            c = v[p]
            if c != 0:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce_vector(vec))

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.field == other.field
                and self.ambient_dim == other.ambient_dim and self.vectors == other.vectors)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.vectors))

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

def kernel_basis(m: FieldMatrix) -> SubspaceBasis:
    """Basis of the null space {x : m @ x = 0}."""
    f = m.field
    reduced, pivots = rref(m.row_lists(), m.cols, f)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vecs = []
    for fc in free:
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(reduced[r][fc])
        vecs.append(v)
    return SubspaceBasis(f, m.cols, vecs)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    _check_compatible(a, b)
    return SubspaceBasis(a.field, a.ambient_dim, list(a.vectors) + list(b.vectors))


def subspace_intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Basis of span(a) ∩ span(b)."""
    _check_compatible(a, b)
    f = a.field
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis.zero(f, a.ambient_dim)
    # Kernel vectors (u, v) of [A | B] satisfy A u = -B v, so A u runs over
    # the intersection as (u, v) runs over the kernel.
    cols = [list(v) for v in a.vectors] + [list(v) for v in b.vectors]
    ker = kernel_basis(FieldMatrix.from_columns(f, cols, a.ambient_dim))
    vecs = []
    for k in ker.vectors:
        u = k[:a.dim]
        vec = [f.zero] * a.ambient_dim
        for ci, c in enumerate(u):
            if c:
                row = a.vectors[ci]
                vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, row)]
        vecs.append(vec)
    return SubspaceBasis(f, a.ambient_dim, vecs)


def preimage_basis(m: FieldMatrix, s: SubspaceBasis) -> SubspaceBasis:
    """Basis of {x : m @ x ∈ span(s)}; always contains the kernel of m."""
    if s.ambient_dim != m.rows:
        raise ValueError(f"subspace ambient {s.ambient_dim} != matrix rows {m.rows}")
    f = m.field
    cols = [list(m.column(j)) for j in range(m.cols)] + [list(v) for v in s.vectors]
    ker = kernel_basis(FieldMatrix.from_columns(f, cols, m.rows))
    vecs = [list(k[:m.cols]) for k in ker.vectors]
    return SubspaceBasis(f, m.cols, vecs)


def solve(m: FieldMatrix, target: Sequence):
    """A solution x of m @ x = target, or None if inconsistent."""
    f = m.field
    if len(target) != m.rows:
        raise ValueError("target length mismatch")
    aug = [list(m.row(i)) + [f.of(target[i])] for i in range(m.rows)]
    reduced, pivots = rref(aug, m.cols + 1, f)
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][m.cols]
    return tuple(x)


def express_in_vectors(field: Field, ambient_dim: int, vectors: Sequence[Sequence], target: Sequence):
    """Coefficients c with sum(c_i * vectors_i) = target, or None."""
    if not vectors:
        return () if all(field.of(x) == 0 for x in target) else None
    m = FieldMatrix.from_columns(field, [list(v) for v in vectors], ambient_dim)
    return solve(m, target)


def extend_independent(base: SubspaceBasis, candidates: Iterable[Sequence]) -> list[tuple]:
    """Candidates (in order) that successively enlarge span(base)."""
    f = base.field
    work = [list(v) for v in base.vectors]
    added = []
    for cand in candidates:
        rows, pivots = rref(work + [list(cand)], base.ambient_dim, f)
        if len(rows) > len(work):
            work = rows
            added.append(tuple(f.of(x) for x in cand))
    return added


def _check_compatible(a: SubspaceBasis, b: SubspaceBasis):
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimension mismatch: {a.ambient_dim} != {b.ambient_dim}")
