"""Independent oracles used to pin expected values.

Everything here is deliberately written from scratch against the raw
definitions (bitmask enumeration, forward elimination, fixed-point closure)
so the main library is checked by a second route, not by itself.  Some
exceptions read library pieces but compute by another route:

- the generic sparse arithmetic (`dict_axpy`, `dict_combine`, and
  `dict_route` to run the library on them): Σ c·v on {index: scalar}
  dicts through `Field` calls over GF(2) and GF(p) and plain Fractions
  over Q, where the library XORs int bitsets over GF(2), reduces inline
  mod p and keeps integral rationals as ints;
- the keyed reduction (`keyed_reduce_vector`, `keyed_reduce_columns`):
  the lowest-one reduction with the pivot order passed in as a key on the
  vectors' own indices, on the generic arithmetic, where the library
  relabels vectors into pivot positions and takes the greatest one;
- the dense subspace layer: dense matrices from rows, their columns and
  identities, canonical RREF bases (`SubspaceBasis`) from the library's
  `rref`, with kernel, sum, intersection, preimage, solve and
  independent-extension routines, dense boundary matrices, and on them the
  embedded chain data, subcomplex homology, inclusion quasi-isomorphism
  test, Mayer–Vietoris report, homology bases and induced maps, each
  straight from its definition, where the library reduces sparse spans or
  one-step filtered complexes;
- the dense persistence route: per-step (Z, B) subspaces of every module
  from that layer's `inf_zb`/`inf_space` (memoised here, since the route
  asks for the same marked spans at every step), their interval
  decomposition, barcodes and triangle ranks from sums of those subspaces,
  where the library reduces one sparse filtered complex per module;
- the rank inclusion–exclusion barcode, which computes bars from ranks of
  dense composite maps between those (Z, B) families;
- the static Betti numbers, gap series and geometric gap homology from the
  dense (Z, B) subspaces and chain data, where the library takes ranks of
  one sparse column reduction;
- the geometric gap homology by dense quotient matrices on closure ∖ core.

The depth-first Δ-closure (`dfs_delta_closure`) is the route the library's
closure by levels replaced: it pushes one (dim, index) cell at a time, and
the geometric gap oracles take their closure from it.  The row-by-row
Δ-identity check (`rowwise_delta_check`) is the route the library's check
by columns replaced: it reads every face reference and every instance of
the identity one entry at a time.

The scanning graph lookups and the two-pass face closure are the routes the
library's indexed ones replaced: they read a graph's incidence map or build
the library's `DeltaSet`, but scan every edge per query and call face_fn
twice per cell.  The closure orders its cells by `recursive_sort_key`,
which compares the labels' ids, where the library compares a subgraph's
host ranks.  The subgraph face operations (vertex deletion, restriction,
edge addition, one-edge reach and the layer BFS on a `Subgraph`) and on
them the face maps of the vertex-deletion, partition, link-blowup and
starting-vertex constructions, and the clique enumeration, build every
face as a checked `Subgraph` (a `MarkedSubgraph` for starting-vertex
faces) from id sets and those scans, where the library closes bitmasks
over the host's ranks.  The checked relabel (`checked_relabel`) is the
route that labelled the rank-mask constructions before their labels stayed
masks: one checked `Subgraph` per cell, built from the ids of the cell's
set bits (one checked `MarkedSubgraph` for a starting-vertex cell), where
the library keeps the masks and decodes a label only when one is read.
The decoded mask walks (`decoded_union`, `decoded_induced_edges`,
`decoded_vertex_deletion_map`, `decoded_combine`, `decoded_relabel`)
decode a mask into its ranks with `fields._ranks` and loop over them,
where the library walks the mask's bits in place.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from superph.delta import (DeltaIdentityError, DeltaSet, DeltaStructureError,
                           GradedSubset, SuperHypergraph, ValidationReport,
                           cell_sort_key, full_subset, max_delta_subset)
from superph.faceops import MarkedSubgraph
from superph.fields import GF2, Field, FieldMatrix, Span, _ranks, rref
from superph.graphs import Subgraph
from superph.homology import MvReport, MvRow, boundary_matrices
from superph.persistence import (MODULE_KINDS, Bar, Barcode, TriangleReport,
                                 TriangleRow)


# ---------------------------------------------------------------------------
# Generic sparse arithmetic and the keyed reduction, for every field
# ---------------------------------------------------------------------------

def _generic(field: Field):
    """(sub, mul, add) of the generic route: `Field` calls over GF(p), and
    plain Fraction arithmetic over Q, which keeps integral results as
    Fractions, where the library stores them as ints."""
    if field.p:
        return field.sub, field.mul, field.add
    return ((lambda a, b: Fraction(a) - b), (lambda a, b: Fraction(a) * b),
            (lambda a, b: Fraction(a) + b))


def dict_axpy(field: Field, dst: dict, c, src: dict) -> dict:
    """dst -= c * src, in place, through `Field` calls, or Fractions over
    Q: the generic route of `fields.axpy`."""
    sub, mul, _ = _generic(field)
    for i, b in src.items():
        t = sub(dst[i] if i in dst else 0, mul(c, b))
        if t:
            dst[i] = t
        else:
            del dst[i]
    return dst


def dict_combine(field: Field, coeffs: dict, vectors) -> dict:
    """Σ c · vectors[k] through `Field` calls, or Fractions over Q: the
    generic route of `fields.combine`."""
    _, mul, add = _generic(field)
    out: dict = {}
    for k, c in coeffs.items():
        for i, b in vectors[k].items():
            out[i] = add(out[i], mul(c, b)) if i in out else mul(c, b)
    return {i: a for i, a in out.items() if a}


@contextlib.contextmanager
def dict_route():
    """Run the library on the generic arithmetic over every field, GF(2)
    included: both vector kernels become the dict kernel with `axpy` and
    `combine` swapped for the two routines above, so GF(2) vectors are
    {index: 1} dicts too, and are restored on exit."""
    from superph.fields import _Dicts, _Masks
    names = [name for name in vars(_Dicts) if not name.startswith("__")]
    generic = dict(vars(_Dicts), axpy=staticmethod(dict_axpy),
                   combine=staticmethod(dict_combine))
    saved = [(kernel, name, vars(kernel)[name]) for kernel in (_Dicts, _Masks) for name in names]
    for kernel, name, _ in saved:
        setattr(kernel, name, generic[name])
    try:
        yield
    finally:
        for kernel, name, fn in saved:
            setattr(kernel, name, fn)


def keyed_reduce_vector(field: Field, r: dict, owner: dict, vectors, key=None) -> tuple:
    """`fields.reduce_vector` with the pivot order as an argument: the low
    of a nonzero vector is its index with the greatest `key(index)`, or the
    greatest index when key is None.  Returns (low, multiples) as the
    library does."""
    multiples: dict = {}
    while r:
        low = max(r, key=key)
        k = owner.get(low)
        if k is None:
            return low, multiples
        if k in multiples:
            raise AssertionError(f"owner {k} used twice: the low {low!r} did not fall")
        v = vectors[k]
        a = v[low]
        c = multiples[k] = r[low] if a == 1 else field.mul(r[low], field.inv(a))
        dict_axpy(field, r, c, v)
    return None, multiples


def keyed_reduce_columns(field: Field, columns, row_rank: dict | None = None):
    """`fields.reduce_columns` with the pivot order of the rows as an
    argument, `row_rank[row]` (the row itself when None): (lows, vs,
    reduced) with the lows and reduced columns over the rows as given."""
    key = None if row_rank is None else row_rank.__getitem__
    lows, vs, reduced, owner = [], [], [], {}
    for j, col in enumerate(columns):
        r = dict(col)
        low, multiples = keyed_reduce_vector(field, r, owner, reduced, key)
        v = {j: field.one}
        for k, c in multiples.items():
            dict_axpy(field, v, c, vs[k])
        if low is not None:
            owner[low] = j
        lows.append(low)
        vs.append(v)
        reduced.append(r)
    return lows, vs, reduced


# ---------------------------------------------------------------------------
# Dense subspaces: canonical RREF bases and the spec operations
# ---------------------------------------------------------------------------

def row_lists(m: FieldMatrix) -> list[list]:
    return [list(m.row(i)) for i in range(m.rows)]


def matrix_from_rows(field: Field, rows: Sequence[Sequence]) -> FieldMatrix:
    """Dense matrix from equal-length rows."""
    nc = len(rows[0]) if rows else 0
    return FieldMatrix(field, len(rows), nc, [x for r in rows for x in r])


def matrix_column(m: FieldMatrix, j: int) -> tuple:
    return tuple(m.entries[i * m.cols + j] for i in range(m.rows))


def identity_matrix(field: Field, n: int) -> FieldMatrix:
    return FieldMatrix(field, n, n, [field.one if i == j else field.zero
                                     for i in range(n) for j in range(n)])


def from_sparse_columns(field: Field, nrows: int, columns) -> FieldMatrix:
    """Dense matrix from sparse columns in the field's vector format."""
    nc = len(columns)
    flat = [field.zero] * (nrows * nc)
    for j, col in enumerate(columns):
        for i, a in field.kernel.decode(col).items():
            flat[i * nc + j] = a
    return FieldMatrix(field, nrows, nc, flat)


def boundaries(cc) -> tuple[FieldMatrix, ...]:
    """Dense ∂_n of a chain complex: boundaries(cc)[n] maps C_n -> C_{n-1};
    degree 0 has zero rows.  Built once per chain complex."""
    if "oracle_boundaries" not in cc.memo:
        cc.memo["oracle_boundaries"] = tuple(
            from_sparse_columns(cc.field, cc.space_dim(n - 1), cols)
            for n, cols in enumerate(cc.columns))
    return cc.memo["oracle_boundaries"]


class SubspaceBasis:
    """A linear subspace of F^n, stored as its canonical RREF row basis."""

    __slots__ = ("field", "ambient_dim", "vectors", "_pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors=(), _canonical: bool = False):
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
    def coordinate(cls, field: Field, ambient_dim: int, indices) -> "SubspaceBasis":
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


def _kernel_vectors(m: FieldMatrix) -> list[list]:
    """Null-space basis of m, one vector per free column of its RREF."""
    f = m.field
    reduced, pivots = rref(row_lists(m), m.cols, f)
    pivot_set = set(pivots)
    vecs = []
    for fc in (j for j in range(m.cols) if j not in pivot_set):
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(reduced[r][fc])
        vecs.append(v)
    return vecs


def kernel_basis(m: FieldMatrix) -> SubspaceBasis:
    """Canonical basis of the null space {x : m @ x = 0}."""
    return SubspaceBasis(m.field, m.cols, _kernel_vectors(m))


def _combination(field: Field, ambient: int, coeffs, vectors) -> list:
    vec = [field.zero] * ambient
    for c, row in zip(coeffs, vectors):
        if c:
            vec = [field.add(a, field.mul(c, b)) for a, b in zip(vec, row)]
    return vec


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
    ker = _kernel_vectors(FieldMatrix.from_columns(f, cols, a.ambient_dim))
    return SubspaceBasis(f, a.ambient_dim, [_combination(f, a.ambient_dim, k[:a.dim], a.vectors)
                                            for k in ker])


def preimage_basis(m: FieldMatrix, s: SubspaceBasis) -> SubspaceBasis:
    """Basis of {x : m @ x ∈ span(s)}; always contains the kernel of m."""
    if s.ambient_dim != m.rows:
        raise ValueError(f"subspace ambient {s.ambient_dim} != matrix rows {m.rows}")
    f = m.field
    cols = [list(matrix_column(m, j)) for j in range(m.cols)] + [list(v) for v in s.vectors]
    ker = _kernel_vectors(FieldMatrix.from_columns(f, cols, m.rows))
    return SubspaceBasis(f, m.cols, [k[:m.cols] for k in ker])


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


def express_in_vectors(field: Field, ambient_dim: int, vectors, target: Sequence):
    """Coefficients c with sum(c_i * vectors_i) = target, or None."""
    if not vectors:
        return () if all(field.of(x) == 0 for x in target) else None
    m = FieldMatrix.from_columns(field, [list(v) for v in vectors], ambient_dim)
    return solve(m, target)


def extend_independent(base: SubspaceBasis, candidates) -> list[tuple]:
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


def rank(m: FieldMatrix) -> int:
    """Dimension of the column space: the number of pivots of the rows'
    reduced echelon form."""
    return len(rref(row_lists(m), m.cols, m.field)[1])


def image_basis(m: FieldMatrix) -> SubspaceBasis:
    """Canonical basis of the column space."""
    return SubspaceBasis(m.field, m.rows, [matrix_column(m, j) for j in range(m.cols)])


def contains_subspace(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether span(b) ⊆ span(a)."""
    return all(a.contains(v) for v in b.vectors)


def dense_vector(field: Field, size: int, chain: dict) -> list:
    """The sparse vector {index: scalar} as a list of length size."""
    vec = [field.zero] * size
    for i, c in chain.items():
        vec[i] = c
    return vec


def dense_span(span: Span, size: int) -> SubspaceBasis:
    """A sparse span as a dense subspace of F^size."""
    return SubspaceBasis(span.field, size, [dense_vector(span.field, size, v)
                                            for v in span.vectors])


# ---------------------------------------------------------------------------
# Dense chain data, homology bases, induced maps and Mayer–Vietoris
# ---------------------------------------------------------------------------

def _coordinates(cc, marks, n: int) -> SubspaceBasis:
    """D_n: the coordinate span of the marked n-cells inside C_n."""
    return SubspaceBasis.coordinate(cc.field, cc.space_dim(n), marks.at(n))


def boundary_of_span(cc, n: int, span: SubspaceBasis | None) -> SubspaceBasis:
    """∂_n applied to a subspace of C_n, as a subspace of C_{n-1}."""
    ambient = cc.space_dim(n - 1)
    if span is None or span.dim == 0 or n >= cc.dim_count or n <= 0:
        return SubspaceBasis.zero(cc.field, ambient)
    bd = boundaries(cc)[n]
    return SubspaceBasis(cc.field, ambient, [bd.apply(v) for v in span.vectors])


def cycles_in_span(cc, n: int, span: SubspaceBasis) -> SubspaceBasis:
    """span ∩ ker ∂_n."""
    if n == 0 or n >= cc.dim_count or span.dim == 0:
        return span
    bd = boundaries(cc)[n]
    restricted = FieldMatrix.from_columns(cc.field, [list(bd.apply(v)) for v in span.vectors],
                                          bd.rows)
    return SubspaceBasis(cc.field, span.ambient_dim,
                         [_combination(cc.field, span.ambient_dim, k, span.vectors)
                          for k in _kernel_vectors(restricted)])


def dense_inf_space(cc, marks, n: int) -> SubspaceBasis:
    """inf_n of the marked span, D_n ∩ ∂⁻¹(D_{n-1}), from its definition."""
    d_n = _coordinates(cc, marks, n)
    if not 0 < n < cc.dim_count:
        return d_n
    return subspace_intersect(
        d_n, preimage_basis(boundaries(cc)[n], _coordinates(cc, marks, n - 1)))


@dataclass(frozen=True)
class DenseChainData:
    inf: tuple[SubspaceBasis, ...]
    sup: tuple[SubspaceBasis, ...]


def dense_embedded_chain_data(sh, field: Field, cc=None) -> DenseChainData:
    """inf_n and sup_n = D_n + ∂(D_{n+1}) as dense subspaces."""
    if cc is None:
        cc = boundary_matrices(sh.x, field)
    nd = sh.x.dim_count
    return DenseChainData(
        tuple(dense_inf_space(cc, sh.h, n) for n in range(nd)),
        tuple(subspace_sum(_coordinates(cc, sh.h, n),
                           boundary_of_span(cc, n + 1, _coordinates(cc, sh.h, n + 1)))
              for n in range(nd)))


def dense_subcomplex_homology(cc, spaces) -> tuple[int, ...]:
    """Betti numbers of a family of dense subspaces V_n ⊆ C_n closed under ∂."""
    nd = len(spaces)
    return tuple(cycles_in_span(cc, n, spaces[n]).dim
                 - boundary_of_span(cc, n + 1, spaces[n + 1] if n + 1 < nd else None).dim
                 for n in range(nd))


def dense_inclusion_quasi_iso(cc, sub, sup):
    """(flag, per-degree (dim H(sub), dim H(sup), rank of induced map))."""
    rows = []
    nd = len(sub)
    for n in range(nd):
        b_v = boundary_of_span(cc, n + 1, sub[n + 1] if n + 1 < nd else None)
        b_w = boundary_of_span(cc, n + 1, sup[n + 1] if n + 1 < nd else None)
        z_v = cycles_in_span(cc, n, sub[n])
        hv = z_v.dim - b_v.dim
        hw = cycles_in_span(cc, n, sup[n]).dim - b_w.dim
        rows.append((hv, hw, subspace_sum(z_v, b_w).dim - b_w.dim))
    return all(hv == hw == rk for hv, hw, rk in rows), tuple(rows)


def dense_mv_diagnostics(sh, a, b, field: Field) -> MvReport:
    """The Mayer–Vietoris report from dense chain data."""
    x = sh.x
    cc = boundary_matrices(x, field)
    data_a, data_b, data_ab, data_x = (
        dense_embedded_chain_data(SuperHypergraph(x, marks), field, cc)
        for marks in (sh.h.intersection(a), sh.h.intersection(b),
                      sh.h.intersection(a).intersection(b), sh.h))
    nd = x.dim_count
    sup_int = [subspace_intersect(data_a.sup[n], data_b.sup[n]) for n in range(nd)]
    sup_sum = [subspace_sum(data_a.sup[n], data_b.sup[n]) for n in range(nd)]
    inf_int = [subspace_intersect(data_a.inf[n], data_b.inf[n]) for n in range(nd)]
    inf_sum = [subspace_sum(data_a.inf[n], data_b.inf[n]) for n in range(nd)]
    rows = tuple(MvRow(n, sup_int[n].dim, sup_sum[n].dim, inf_int[n].dim,
                       inf_sum[n].dim, data_a.inf[n].dim, data_b.inf[n].dim,
                       data_a.sup[n].dim, data_b.sup[n].dim)
                 for n in range(nd))
    betti_a = dense_subcomplex_homology(cc, data_a.inf)
    betti_b = dense_subcomplex_homology(cc, data_b.inf)
    return MvReport(
        rows=rows,
        sup_sum_equals_sup_x=all(sup_sum[n] == data_x.sup[n] for n in range(nd)),
        inf_intersect_equals_inf_of_intersection=all(inf_int[n] == data_ab.inf[n]
                                                     for n in range(nd)),
        left_quasi_iso=dense_inclusion_quasi_iso(cc, inf_int, sup_int)[0],
        middle_quasi_iso=(dense_inclusion_quasi_iso(cc, data_a.inf, data_a.sup)[0]
                          and dense_inclusion_quasi_iso(cc, data_b.inf, data_b.sup)[0]),
        right_quasi_iso=dense_inclusion_quasi_iso(cc, inf_sum, sup_sum)[0],
        betti_intersection=dense_subcomplex_homology(cc, inf_int),
        betti_summands=tuple(zip(betti_a, betti_b)),
        betti_union=dense_subcomplex_homology(cc, inf_sum),
    )


def dense_embedded_homology_basis(sh, field: Field, n: int):
    """(representatives, boundary basis) of the degree-n embedded homology:
    the cycles D_n ∩ ker ∂ that successively enlarge B = D_n ∩ ∂(D_{n+1})."""
    z, b = inf_zb(boundary_matrices(sh.x, field), sh.h, n)
    return extend_independent(b, z.vectors), b


def dense_induced_homology_map(m, source, target, field: Field, degree: int) -> FieldMatrix:
    """The induced map on embedded homology in the dense bases of source and
    target."""
    reps_s, _ = dense_embedded_homology_basis(source, field, degree)
    reps_t, b_t = dense_embedded_homology_basis(target, field, degree)
    nt = target.x.n_cells(degree)
    cols = []
    for rep in reps_s:
        img = [field.zero] * nt
        for j, c in enumerate(rep):
            if c:
                tj = m.maps[degree][j]
                img[tj] = field.add(img[tj], c)
        coeffs = express_in_vectors(field, nt, list(reps_t) + list(b_t.vectors), img)
        if coeffs is None:
            raise AssertionError("image class not in target homology; morphism broken")
        cols.append(list(coeffs[:len(reps_t)]))
    if not cols:
        return FieldMatrix.zeros(field, len(reps_t), 0)
    return FieldMatrix.from_columns(field, cols, len(reps_t))


# ---------------------------------------------------------------------------
# GF(2) chain enumeration on a super-hypergraph
# ---------------------------------------------------------------------------

def face_masks(x, n):
    """For each n-cell the GF(2) boundary as a bitmask over (n-1)-cells."""
    masks = []
    for j in range(x.counts[n]):
        m = 0
        for t in x.faces[n][j]:
            m ^= 1 << t
        masks.append(m)
    return masks


def brute_zb_dims_gf2(sh, n):
    """(dim Z_n, dim B_n) of the infimum complex over GF(2) by exhausting
    all chains supported on the marked cells."""
    x = sh.x
    hn = sorted(sh.h.at(n))
    bd = face_masks(x, n) if n > 0 else [0] * x.counts[n]
    z_count = 0
    for bits in range(1 << len(hn)):
        m = 0
        for k, j in enumerate(hn):
            if bits >> k & 1:
                m ^= bd[j]
        if m == 0:
            z_count += 1
    z_dim = z_count.bit_length() - 1

    hn_mask = 0
    for j in hn:
        hn_mask |= 1 << j
    boundaries = set()
    if n + 1 < x.dim_count:
        up = sorted(sh.h.at(n + 1))
        bd_up = face_masks(x, n + 1)
        for bits in range(1 << len(up)):
            m = 0
            for k, j in enumerate(up):
                if bits >> k & 1:
                    m ^= bd_up[j]
            if m & ~hn_mask == 0:
                boundaries.add(m)
    b_dim = len(boundaries).bit_length() - 1 if boundaries else 0
    return z_dim, b_dim


# ---------------------------------------------------------------------------
# Independent elimination (forward only, no reuse of the library)
# ---------------------------------------------------------------------------

def dim_span_gf2_masks(masks):
    """Dimension of the span of bitmask vectors, echelon keyed by leading bit."""
    basis: dict[int, int] = {}
    for v in masks:
        while v:
            low = v.bit_length() - 1
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                break
    return len(basis)


def intersect_span_with_inside_gf2(masks, inside_cols, width):
    """Generators of span(masks) ∩ (coordinate span of inside_cols), by
    elimination with the outside coordinates remapped to high positions."""
    inside = sorted(inside_cols)
    outside = [c for c in range(width) if c not in set(inside)]
    newpos = {c: k for k, c in enumerate(inside)}
    newpos.update({c: len(inside) + k for k, c in enumerate(outside)})

    def remap(v, table):
        out = 0
        for c, p in table.items():
            if v >> c & 1:
                out |= 1 << p
        return out

    back = {p: c for c, p in newpos.items()}
    # echelon keyed by leading bit: a vector with an inside leading bit is
    # entirely inside (outside coordinates sit above every inside one), and
    # such vectors span the whole intersection
    basis: dict[int, int] = {}
    inside_limit = 1 << len(inside)
    for v in masks:
        v = remap(v, newpos)
        while v:
            low = v.bit_length() - 1
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                break
    return [remap(v, back) for v in basis.values() if v < inside_limit]


# ---------------------------------------------------------------------------
# Independent classical persistence over GF(2)
# ---------------------------------------------------------------------------

def oracle_persistence_bars_gf2(filt, degree, marked_only=False):
    """Bars of the degree-n persistence module by recomputing homology at
    each critical value and applying rank inclusion–exclusion, entirely with
    bitmask elimination.

    With marked_only the chains are restricted to the marked subset at each
    level (the embedded module); otherwise all sublevel cells are used.
    """
    x = filt.sh.x
    n = degree
    bd = face_masks(x, n) if n > 0 else [0] * x.n_cells(n)
    bd_up = face_masks(x, n + 1) if n + 1 < x.dim_count else []
    steps = filt.steps
    z_gens = []
    b_gens = []
    for i in range(steps):
        level = levels(filt)[1 if marked_only else 0][i]
        cols = sorted(level.at(n))
        up = sorted(level.at(n + 1))
        # kernel of the restricted boundary, via column elimination on
        # (boundary mask, combination mask) pairs
        basis: dict[int, tuple[int, int]] = {}
        kernel = []
        for j in cols:
            m, comb = bd[j], 1 << j
            while m:
                low = m.bit_length() - 1
                if low in basis:
                    bm, bc = basis[low]
                    m ^= bm
                    comb ^= bc
                else:
                    basis[low] = (m, comb)
                    break
            if m == 0:
                kernel.append(comb)
        z_gens.append(kernel)
        bnd = [bd_up[j] for j in up]
        if marked_only:
            bnd = intersect_span_with_inside_gf2(bnd, cols, x.n_cells(n))
        b_gens.append(bnd)

    def rank(i, j):
        if i < 0 or j < 0:
            return 0
        zb = z_gens[i] + b_gens[j]
        return dim_span_gf2_masks(zb) - dim_span_gf2_masks(b_gens[j])

    bars = []
    for i in range(steps):
        for j in range(i + 1, steps):
            mult = rank(i, j - 1) - (rank(i - 1, j - 1) if i else 0) \
                - rank(i, j) + (rank(i - 1, j) if i else 0)
            if mult:
                bars.append((filt.times[i], filt.times[j], mult))
        mult = rank(i, steps - 1) - (rank(i - 1, steps - 1) if i else 0)
        if mult:
            bars.append((filt.times[i], float("inf"), mult))
    return sorted(bars)


# ---------------------------------------------------------------------------
# Dense persistence: per-step (Z, B) subspaces (differential oracle)
# ---------------------------------------------------------------------------

def levels(filt):
    """(level_x, level_h): the cells of X(t_i) and of H(t_i) = H ∩ X(t_i)
    at every step i, built once per filtration: they depend on no field, so
    they are memoised on its GF(2) chain complex."""
    memo = filt.chain_complex(GF2).memo
    if "oracle_levels" not in memo:
        level_x = [GradedSubset({n: [j for j, e in enumerate(row) if e <= i]
                                 for n, row in enumerate(filt.entry)})
                   for i in range(filt.steps)]
        memo["oracle_levels"] = (level_x, [filt.sh.h.intersection(lx) for lx in level_x])
    return memo["oracle_levels"]


def inf_space(cc, marks, n: int) -> SubspaceBasis:
    """`dense_inf_space`, memoised on the chain complex by the marked cells
    in degrees n and n-1.

    When ∂_n maps every marked n-cell into D_{n-1}, inf_n = D_n, so the
    definition is not evaluated; that holds for every Δ-subset, such as a
    sublevel set X(t) of a regular scheme."""
    key = ("oracle_inf", n, marks.at(n), marks.at(n - 1))
    if key not in cc.memo:
        below = marks.at(n - 1)
        if 0 < n < cc.dim_count and all(i in below for j in marks.at(n)
                                        for i in cc.field.kernel.decode(cc.columns[n][j])):
            inf = SubspaceBasis.coordinate(cc.field, cc.space_dim(n), marks.at(n))
        else:
            inf = dense_inf_space(cc, marks, n)
        cc.memo[key] = inf
    return cc.memo[key]


def inf_zb(cc, marks, n: int):
    """Cycles and boundaries of the infimum complex of the marked span,
    Z = D_n ∩ ker ∂ and B = D_n ∩ ∂(D_{n+1}), memoised on the chain complex
    by the marked cells in degrees n and n+1."""
    key = ("oracle_zb", n, marks.at(n), marks.at(n + 1))
    if key not in cc.memo:
        d_n = _coordinates(cc, marks, n)
        cc.memo[key] = (cycles_in_span(cc, n, d_n), subspace_intersect(
            d_n, boundary_of_span(cc, n + 1, _coordinates(cc, marks, n + 1))))
    return cc.memo[key]


def relative_zb(cc, xs, hs, n: int):
    """Cycles and boundaries presenting H_n(inf(xs) / inf(hs)), for markings
    hs ⊆ xs."""
    inf_x_n = inf_space(cc, xs, n)
    inf_h_n = inf_space(cc, hs, n)
    if n == 0:
        z = inf_x_n
    else:
        pre = preimage_basis(boundaries(cc)[n], inf_space(cc, hs, n - 1))
        z = subspace_intersect(inf_x_n, pre)
    if n + 1 < cc.dim_count:
        b = subspace_sum(boundary_of_span(cc, n + 1, inf_space(cc, xs, n + 1)), inf_h_n)
    else:
        b = inf_h_n
    return z, b


def zb_family(filt, field: Field, which: str, degree: int):
    """Per-step (Z, B) subspaces of F^{X_degree} whose quotients are the
    requested homology; B ⊆ Z and both flags monotone in the step are
    checked here."""
    if which not in MODULE_KINDS:
        raise ValueError(f"unknown module kind {which!r}")
    cc = filt.chain_complex(field)
    out = []
    for xs, hs in zip(*levels(filt)):
        if which == "ambient":
            z, b = inf_zb(cc, xs, degree)
        elif which == "embedded":
            z, b = inf_zb(cc, hs, degree)
        else:
            z, b = relative_zb(cc, xs, hs, degree)
        if not contains_subspace(z, b):
            raise AssertionError("boundary space not inside cycle space")
        if out and not (contains_subspace(z, out[-1][0])
                        and contains_subspace(b, out[-1][1])):
            raise AssertionError("monotonicity of the subquotient family broken")
        out.append((z, b))
    return out


@dataclass(frozen=True)
class IntervalSummand:
    """One interval summand with a representative vector: its class is a
    basis element of Z(t)/B(t) for birth <= t < death and zero afterwards."""

    degree: int
    birth_index: int
    death_index: int | None
    rep: tuple

    def alive_at(self, i: int) -> bool:
        return self.birth_index <= i and (self.death_index is None or i < self.death_index)


def _interval_decomposition(zb, field: Field, ambient: int,
                            degree: int) -> list[IntervalSummand]:
    """Decompose the subquotient family (Z(i) / B(i)) into intervals.

    Builds a flag basis of the Z spaces with entry times, expresses a flag
    basis of the B spaces in those coordinates, and column-reduces with the
    classical lowest-one pairing.  The reduced boundary columns themselves
    are the representatives of the finite bars.
    """
    zvecs: list[tuple] = []
    zentry: list[int] = []
    zspan = SubspaceBasis.zero(field, ambient)
    bcols: list[tuple[int, list]] = []  # (step, column over z-coordinates)
    bspan = SubspaceBasis.zero(field, ambient)
    for i, (z, b) in enumerate(zb):
        added = extend_independent(zspan, z.vectors)
        if added:
            zvecs.extend(added)
            zentry.extend([i] * len(added))
            zspan = subspace_sum(zspan, SubspaceBasis(field, ambient, added))
        new_b = extend_independent(bspan, b.vectors)
        if new_b:
            bspan = subspace_sum(bspan, SubspaceBasis(field, ambient, new_b))
            for vec in new_b:
                coeffs = express_in_vectors(field, ambient, zvecs, vec)
                if coeffs is None:
                    raise AssertionError("boundary vector outside the cycle flag")
                bcols.append((i, list(coeffs)))

    def low(col: list) -> int | None:
        for r in range(len(col) - 1, -1, -1):
            if col[r]:
                return r
        return None

    paired: dict[int, tuple[int, list]] = {}  # low z-row -> (death step, column)
    for step, col in bcols:
        col = col + [field.zero] * (len(zvecs) - len(col))
        l = low(col)
        while l is not None and l in paired:
            other = paired[l][1]
            factor = field.mul(col[l], field.inv(other[l]))
            col = [field.sub(a, field.mul(factor, b)) for a, b in zip(col, other)]
            l = low(col)
        if l is None:
            raise AssertionError("dependent boundary generator escaped the flag")
        paired[l] = (step, col)

    out = []
    for idx in range(len(zvecs)):
        birth = zentry[idx]
        if idx in paired:
            death, col = paired[idx]
            if death == birth:
                continue  # zero-length interval: a zero object
            vec = [field.zero] * ambient
            for c, zv in zip(col, zvecs):
                if c:
                    vec = [field.add(a, field.mul(c, b)) for a, b in zip(vec, zv)]
            out.append(IntervalSummand(degree, birth, death, tuple(vec)))
        else:
            out.append(IntervalSummand(degree, birth, None, tuple(zvecs[idx])))
    out.sort(key=lambda s: (s.birth_index,
                            math.inf if s.death_index is None else s.death_index))
    return out


def decomposition(filt, field: Field, which: str, degree: int) -> list[IntervalSummand]:
    return _interval_decomposition(zb_family(filt, field, which, degree), field,
                                   filt.sh.x.n_cells(degree), degree)


def decomposition_barcode(filt, field: Field, which: str, degree: int) -> Barcode:
    """Barcode of one degree read off the dense interval decomposition:
    each summand is one copy of its interval."""
    acc: dict[tuple[float, float], int] = {}
    for s in decomposition(filt, field, which, degree):
        birth = filt.times[s.birth_index]
        death = math.inf if s.death_index is None else filt.times[s.death_index]
        acc[(birth, death)] = acc.get((birth, death), 0) + 1
    bars = tuple(Bar(degree, b, d, m) for (b, d), m in sorted(acc.items()))
    return Barcode(which, bars)


def dense_full_barcode(filt, field: Field, which: str) -> Barcode:
    """Barcode across all degrees from the dense interval decompositions."""
    bars: list[Bar] = []
    if filt.steps:
        for n in range(filt.sh.x.dim_count):
            bars.extend(decomposition_barcode(filt, field, which, n).bars)
    bars.sort(key=lambda b: (b.degree, b.birth, b.death))
    return Barcode(which, tuple(bars))


def _connecting_rank(cc, n: int, rel_z, emb_b_below) -> int:
    """Rank of the connecting map out of relative degree n: classes of
    boundaries of relative cycles modulo embedded boundaries below."""
    if rel_z is None or n <= 0 or n >= cc.dim_count:
        return 0
    image = boundary_of_span(cc, n, rel_z)
    if emb_b_below is None:
        emb_b_below = SubspaceBasis.zero(cc.field, cc.space_dim(n - 1))
    return subspace_sum(image, emb_b_below).dim - emb_b_below.dim


def dense_triangle_report(filt, field: Field) -> TriangleReport:
    """The exact-triangle rank bookkeeping from sums of the dense (Z, B)
    subspaces at every critical value."""
    cc = filt.chain_complex(field)
    nd = filt.sh.x.dim_count
    fam = {(w, n): zb_family(filt, field, w, n) for w in MODULE_KINDS for n in range(nd)}
    rows = []
    exact = True
    for n in range(nd):
        emb, amb, rel = fam["embedded", n], fam["ambient", n], fam["relative", n]
        emb_below = fam.get(("embedded", n - 1))
        rel_above = fam.get(("relative", n + 1))
        for i in range(filt.steps):
            ez, eb = emb[i]
            az, ab = amb[i]
            rz, rb = rel[i]
            dim_e, dim_a, dim_r = ez.dim - eb.dim, az.dim - ab.dim, rz.dim - rb.dim
            rank_j = subspace_sum(ez, ab).dim - ab.dim
            rank_p = subspace_sum(az, rb).dim - rb.dim
            rank_bd = _connecting_rank(cc, n, rz, emb_below[i][1] if emb_below else None)
            rank_bd_above = _connecting_rank(cc, n + 1, rel_above[i][0], eb) \
                if rel_above else 0
            ok_amb = rank_j + rank_p == dim_a
            ok_rel = rank_p + rank_bd == dim_r
            ok_emb = rank_bd_above + rank_j == dim_e
            exact = exact and ok_amb and ok_rel and ok_emb
            rows.append(TriangleRow(n, i, filt.times[i], dim_e, dim_a, dim_r,
                                    rank_j, rank_p, rank_bd, ok_amb, ok_rel, ok_emb))
    return TriangleReport(tuple(rows), exact)


# ---------------------------------------------------------------------------
# Rank inclusion–exclusion barcodes (dense differential oracle)
# ---------------------------------------------------------------------------

class PersistenceModule:
    """Finite persistence module: one space per critical value with chosen
    homology bases, and the inclusion-induced step maps between them."""

    __slots__ = ("which", "degree", "field", "times", "dims", "maps", "_rank_cache")

    def __init__(self, which: str, degree: int, field: Field, times: Sequence[float],
                 dims: Sequence[int], maps: Sequence[FieldMatrix]):
        self.which = which
        self.degree = degree
        self.field = field
        self.times = tuple(times)
        self.dims = tuple(dims)
        self.maps = tuple(maps)
        if len(self.maps) != max(len(self.dims) - 1, 0):
            raise ValueError("need one step map per consecutive pair of spaces")
        for i, m in enumerate(self.maps):
            if m.cols != self.dims[i] or m.rows != self.dims[i + 1]:
                raise ValueError(f"step map {i} has shape {m.rows}x{m.cols}, "
                                 f"expected {self.dims[i + 1]}x{self.dims[i]}")
        self._rank_cache: dict[tuple[int, int], int] = {}

    @property
    def steps(self) -> int:
        return len(self.dims)

    def composite(self, i: int, j: int) -> FieldMatrix:
        """v_{t_i}^{t_j} as a matrix (i <= j)."""
        if not 0 <= i <= j < self.steps:
            raise IndexError((i, j))
        m = identity_matrix(self.field, self.dims[i])
        for k in range(i, j):
            m = self.maps[k].matmul(m)
        return m

    def rank(self, i: int, j: int) -> int:
        """Rank of v_{t_i}^{t_j}; 0 out of range, the dimension when i = j."""
        if i > j or i < 0 or j >= self.steps:
            return 0
        if i == j:
            return self.dims[i]
        key = (i, j)
        if key not in self._rank_cache:
            self._rank_cache[key] = rank(self.composite(i, j))
        return self._rank_cache[key]

    def verify_composition(self) -> bool:
        for r in range(self.steps):
            for s in range(r, self.steps):
                for t in range(s, self.steps):
                    lhs = self.composite(s, t).matmul(self.composite(r, s))
                    if lhs != self.composite(r, t):
                        return False
        return True


def persistence_module(filt, field: Field, which: str, degree: int) -> PersistenceModule:
    """Homology spaces at each critical value with inclusion-induced maps,
    in the deterministic bases (boundary basis extended by representatives)."""
    zb = zb_family(filt, field, which, degree)
    reps: list[list[tuple]] = []
    for z, b in zb:
        reps.append(extend_independent(b, z.vectors))
    dims = [len(r) for r in reps]
    maps = []
    ambient = filt.sh.x.n_cells(degree) if degree < filt.sh.x.dim_count else 0
    for i in range(len(zb) - 1):
        z1, b1 = zb[i + 1]
        basis = list(reps[i + 1]) + list(b1.vectors)
        cols = []
        for rep in reps[i]:
            coeffs = express_in_vectors(field, ambient, basis, rep)
            if coeffs is None:
                raise AssertionError("monotonicity of the subquotient family broken")
            cols.append(list(coeffs[:dims[i + 1]]))
        maps.append(FieldMatrix.from_columns(field, cols, dims[i + 1]) if cols
                    else FieldMatrix.zeros(field, dims[i + 1], 0))
    return PersistenceModule(which, degree, field, filt.times, dims, maps)


def barcode(module: PersistenceModule) -> Barcode:
    """Interval multiplicities by rank inclusion–exclusion:
    mult[t_i, t_j) = r(i, j-1) - r(i-1, j-1) - r(i, j) + r(i-1, j)."""
    k = module.steps
    bars = []
    for i in range(k):
        for j in range(i + 1, k):
            mult = (module.rank(i, j - 1) - module.rank(i - 1, j - 1)
                    - module.rank(i, j) + module.rank(i - 1, j))
            if mult < 0:
                raise AssertionError("negative interval multiplicity")
            if mult:
                bars.append(Bar(module.degree, module.times[i], module.times[j], mult))
        mult = module.rank(i, k - 1) - module.rank(i - 1, k - 1)
        if mult:
            bars.append(Bar(module.degree, module.times[i], math.inf, mult))
    bars.sort(key=lambda b: (b.birth, b.death))
    return Barcode(module.which, tuple(bars))


def rank_full_barcode(filt, field: Field, which: str) -> Barcode:
    """Barcode across all degrees by rank inclusion–exclusion."""
    bars: list[Bar] = []
    if filt.steps:
        for n in range(filt.sh.x.dim_count):
            bars.extend(barcode(persistence_module(filt, field, which, n)).bars)
    bars.sort(key=lambda b: (b.degree, b.birth, b.death))
    return Barcode(which, tuple(bars))


# ---------------------------------------------------------------------------
# Static homology from dense (Z, B) subspaces (differential oracle)
# ---------------------------------------------------------------------------

def dense_embedded_betti(sh, field: Field, mode: str = "absolute") -> tuple[int, ...]:
    """dim Z - dim B of the library's dense (Z, B) subspaces: `inf_zb` of H
    (absolute) or of every cell (ambient), `relative_zb` of (X, H)."""
    cc = boundary_matrices(sh.x, field)
    full = full_subset(sh.x)
    out = []
    for n in range(sh.x.dim_count):
        if mode == "absolute":
            z, b = inf_zb(cc, sh.h, n)
        elif mode == "ambient":
            z, b = inf_zb(cc, full, n)
        else:
            z, b = relative_zb(cc, full, sh.h, n)
        out.append(z.dim - b.dim)
    return tuple(out)


def dense_gap_series(sh, field: Field) -> tuple[int, ...]:
    """dim sup_n - dim inf_n of the library's dense chain data."""
    data = dense_embedded_chain_data(sh, field)
    return tuple(s.dim - i.dim for s, i in zip(data.sup, data.inf))


def dense_geometric_gap_betti(sh, field: Field) -> tuple[int, ...]:
    """dim Z - dim B of the dense `relative_zb` of (closure, core)."""
    closure = dfs_delta_closure(sh)
    core = max_delta_subset(sh)
    cc = boundary_matrices(sh.x, field)
    out = []
    for n in range(sh.x.dim_count):
        z, b = relative_zb(cc, closure, core, n)
        out.append(z.dim - b.dim)
    return tuple(out)


def dfs_delta_closure(sh) -> GradedSubset:
    """Smallest Δ-subset of sh.x containing sh.h, by a depth-first search
    over (dim, index) cells: each cell popped adds its faces to the stack."""
    x = sh.x
    seen: set = set()
    stack = list(sh.h.cells())
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        dim, idx = cell
        if dim > 0:
            for t in x.faces[dim][idx]:
                stack.append((dim - 1, t))
    return GradedSubset.from_cells(seen)


def rowwise_delta_check(x) -> ValidationReport:
    """The validation report of x's face rows, entry by entry: every face
    reference against the cell count below, then, when all are in range,
    d_i d_j = d_j d_{i+1} (i >= j) on each n-cell, by cell, then j, then i."""
    structural = []
    for n in range(1, x.dim_count):
        below = x.counts[n - 1]
        for j, row in enumerate(x.faces[n]):
            for i, t in enumerate(row):
                if not (0 <= t < below):
                    structural.append(
                        f"cell ({n},{j}): d_{i} -> index {t} out of range [0,{below})")
    if structural:
        return ValidationReport(False, tuple(structural), ())
    violations = []
    for n in range(2, x.dim_count):
        for c in range(x.counts[n]):
            row = x.faces[n][c]
            for j in range(n + 1):
                for i in range(j, n):
                    lhs = x.faces[n - 1][row[j]][i]
                    rhs = x.faces[n - 1][row[i + 1]][j]
                    if lhs != rhs:
                        violations.append(((n, c), i, j))
    return ValidationReport(not violations, (), tuple(violations))


# ---------------------------------------------------------------------------
# Geometric gap homology by quotient matrices
# ---------------------------------------------------------------------------

def quotient_gap_betti(sh, field: Field) -> tuple[int, ...]:
    """Betti numbers of C(closure) / C(core), with ∂ restricted to the cells
    of closure ∖ core (closure = Δ-closure of H, core = largest Δ-subset
    inside H)."""
    closure = dfs_delta_closure(sh)
    core = max_delta_subset(sh)
    x = sh.x
    cc = boundary_matrices(x, field)
    idxs = [sorted(closure.at(n) - core.at(n)) for n in range(x.dim_count)]
    pos = [{i: k for k, i in enumerate(ix)} for ix in idxs]
    mats = []
    for n in range(x.dim_count):
        rows, cols = len(idxs[n - 1]) if n else 0, len(idxs[n])
        ent = [[field.zero] * cols for _ in range(rows)]
        if n:
            bd = boundaries(cc)[n]
            for jj, j in enumerate(idxs[n]):
                for i, v in enumerate(matrix_column(bd, j)):
                    if v and i in pos[n - 1]:
                        ent[pos[n - 1][i]][jj] = v
        mats.append(matrix_from_rows(field, ent) if rows
                    else FieldMatrix.zeros(field, 0, cols))
    out = []
    for n in range(x.dim_count):
        z = len(idxs[n]) - rank(mats[n])
        b = rank(mats[n + 1]) if n + 1 < x.dim_count else 0
        out.append(z - b)
    return tuple(out)


# ---------------------------------------------------------------------------
# Brute-force closures
# ---------------------------------------------------------------------------

def brute_primary_closure_keys(members):
    """Least fixed point of single-vertex deletions, as canonical keys; the
    vertices are deleted in `cell_sort_key` order of their ids."""
    seen = set()
    stack = list(members)
    while stack:
        sub = stack.pop()
        if sub.key in seen:
            continue
        seen.add(sub.key)
        if len(sub.vertices) > 1:
            for v in sorted(sub.vertices, key=cell_sort_key):
                stack.append(delete_vertex(sub, v))
        elif len(sub.vertices) == 1:
            pass
    return seen


def subset_closure(hyperedges, order=None):
    """The simplicial closure of a hypergraph by bitmask enumeration of every
    nonempty subset of every hyperedge, as (counts, faces, labels, marked
    cells).  Labels are vertex tuples in the total order (`cell_sort_key`
    order by default), indexed per dimension in `cell_sort_key` order;
    d_i deletes the i-th vertex; the marked cells are the hyperedges."""
    edges = {frozenset(e) for e in hyperedges}
    if order is None:
        order = sorted(set().union(*edges), key=cell_sort_key)
    pos = {v: i for i, v in enumerate(order)}
    simplices = set()
    for e in edges:
        elems = sorted(e, key=pos.__getitem__)
        for mask in range(1, 1 << len(elems)):
            simplices.add(tuple(v for i, v in enumerate(elems) if mask >> i & 1))
    top = max((len(s) for s in simplices), default=0) - 1
    labels = tuple(tuple(sorted((s for s in simplices if len(s) == n + 1), key=cell_sort_key))
                   for n in range(top + 1))
    index = {s: j for row in labels for j, s in enumerate(row)}
    faces = tuple(tuple(tuple(index[s[:i] + s[i + 1:]] for i in range(len(s))) for s in row)
                  if n else () for n, row in enumerate(labels))
    marked = sorted((len(e) - 1, index[tuple(sorted(e, key=pos.__getitem__))]) for e in edges)
    return tuple(len(row) for row in labels), faces, labels, marked


def recursive_sort_key(obj):
    """Total order on labels from their ids alone: a label with a `key`
    (a subgraph or a marked subgraph) sorts by its key; numbers, strings,
    tuples and sets sort by kind, then by value, element-wise."""
    key = getattr(obj, "key", None)
    if key is not None and not isinstance(obj, type):
        return recursive_sort_key(key)
    if isinstance(obj, bool):
        return (0, int(obj))
    if isinstance(obj, (int, float, Fraction)):
        return (0, obj)
    if isinstance(obj, str):
        return (1, obj)
    if isinstance(obj, tuple):
        return (2, tuple(recursive_sort_key(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return (3, tuple(sorted(recursive_sort_key(x) for x in obj)))
    return (9, repr(obj))


def two_pass_close_under_faces(seeds, grade, face_fn):
    """Least family containing the seeds and closed under face_fn, as a
    Δ-set: one pass discovers the labels, a second calls face_fn again on
    every label of positive grade to index its faces."""
    by_dim: dict[int, set] = {}
    seed_list = list(seeds)
    stack = list(seed_list)
    seen = set()
    while stack:
        lab = stack.pop()
        if lab in seen:
            continue
        seen.add(lab)
        n = grade(lab)
        if n < 0:
            raise ValueError(f"negative grade for label {lab!r}")
        by_dim.setdefault(n, set()).add(lab)
        if n > 0:
            for fl in face_fn(lab):
                stack.append(fl)
    if not by_dim:
        return DeltaSet((), (), ()), GradedSubset()
    top = max(by_dim)
    ordered = [sorted(by_dim.get(n, ()), key=recursive_sort_key) for n in range(top + 1)]
    index = {}
    for n, labs in enumerate(ordered):
        for j, lab in enumerate(labs):
            index[lab] = (n, j)
    counts = [len(labs) for labs in ordered]
    faces: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
    for n in range(1, top + 1):
        for lab in ordered[n]:
            row = []
            for fl in face_fn(lab):
                fd, fi = index[fl]
                if fd != n - 1:
                    raise DeltaStructureError(
                        f"face of a grade-{n} label has grade {fd}: {fl!r}")
                row.append(fi)
            faces[n].append(tuple(row))
    ds = DeltaSet(counts, faces, ordered)
    report = ds.validate()
    if not report.ok:
        raise DeltaIdentityError(report)
    marked = GradedSubset.from_cells(index[lab] for lab in seed_list)
    return ds, marked


# ---------------------------------------------------------------------------
# Witness scores
# ---------------------------------------------------------------------------

def per_pair_witness_score(lam, pc, variant, witnesses=None):
    """The four witness scores straight from their definitions: for every
    vertex pair (or the one point) and every witness, the farthest point of
    the pair less the witness's distance to its nearest landmark, that
    distance recomputed each time; inf over witnesses, sup over pairs."""
    lam = sorted(set(lam), key=repr)
    pts = [pc.points[v] for v in lam]
    ws = list(pc.points.values()) if witnesses is None else \
        [tuple(float(c) for c in w) for w in witnesses]
    if variant.endswith("weak"):
        near = [p for v, p in pc.points.items() if v not in set(lam)]
    else:
        near = list(pc.points.values())

    def value(group):
        return min(max(math.dist(x, y) for y in group) - min(math.dist(x, z) for z in near)
                   for x in ws)

    if variant in ("strong", "weak"):
        return value(pts)
    if len(pts) == 1:
        return value(pts)
    return max(value([p, q]) for p, q in itertools.combinations(pts, 2))


# ---------------------------------------------------------------------------
# Scheme regularity
# ---------------------------------------------------------------------------

def monotone_on_covers(scheme, members) -> bool:
    """Whether a scheme's scores never drop from a member to a larger one,
    nor from a member's single-vertex (`delete_vertex`) or single-edge
    deletion to the member, within 1e-12."""
    pairs = [(p, q) for p in members for q in members
             if p is not q and p.vertices <= q.vertices and p.edges <= q.edges]
    for m in members:
        if len(m.vertices) > 1:
            pairs += [(delete_vertex(m, v), m) for v in m.vertices]
        pairs += [(Subgraph(m.host, m.vertices, m.edges - {e}), m) for e in m.edges]
    return all(scheme.score(small) <= scheme.score(large) + 1e-12 for small, large in pairs)


# ---------------------------------------------------------------------------
# Scanning graph lookups
# ---------------------------------------------------------------------------

def scan_edges_between(g, u, v):
    """Edge ids joining u and v (from u to v when directed), sorted, by a
    scan of every edge of g."""
    out = []
    for e, (a, b) in g.edge_ends.items():
        if (a, b) == (u, v) or (not g.directed and (a, b) == (v, u)):
            out.append(e)
    return sorted(out, key=cell_sort_key)


def scan_neighbors(g, v):
    """Vertices joined to v by an edge in either direction, loops excluded."""
    out = set()
    for a, b in g.edge_ends.values():
        if a != b and v in (a, b):
            out.add(b if a == v else a)
    return out


# ---------------------------------------------------------------------------
# Subgraph face operations
# ---------------------------------------------------------------------------

def delete_vertex(sub, v):
    """The subgraph without v and its incident edges."""
    ends = sub.host.edge_ends
    return Subgraph(sub.host, sub.vertices - {v}, [e for e in sub.edges if v not in ends[e]])


def restrict(sub, vertices):
    """The subgraph induced by sub on a vertex subset."""
    vs = frozenset(vertices) & sub.vertices
    ends = sub.host.edge_ends
    return Subgraph(sub.host, vs, [e for e in sub.edges if ends[e][0] in vs and ends[e][1] in vs])


def add_edges(sub, edges):
    return Subgraph(sub.host, sub.vertices, sub.edges | frozenset(edges))


def out_neighbors_in(sub, vs):
    """Vertices of sub outside vs reached by one (directed) edge of sub
    from vs."""
    vs = set(vs)
    out = set()
    for e in sub.edges:
        u, w = sub.host.edge_ends[e]
        if u in vs and w not in vs:
            out.add(w)
        if not sub.host.directed and w in vs and u not in vs:
            out.add(u)
    return out


def has_edge_between(sub, u, v):
    """True iff the subgraph has an edge from u to v (between, when
    undirected), by a scan of the host's edges."""
    return any(e in sub.edges for e in scan_edges_between(sub.host, u, v))


def subgraph_bfs_layers(sub, start):
    """Neighborhood-extension partition: V_0 = start, V_{j+1} = the (out-)
    link of V_j outside the layers so far, until no new vertices appear."""
    if not start:
        return []
    layers = [frozenset(start)]
    assigned = set(start)
    while True:
        nxt = out_neighbors_in(sub, layers[-1]) - assigned
        if not nxt:
            return layers
        layers.append(frozenset(nxt))
        assigned |= nxt


# ---------------------------------------------------------------------------
# Subgraph face maps and cliques
# ---------------------------------------------------------------------------

def vertex_deletion_grade(sub):
    """Grade of a subgraph under vertex deletion: its vertex count minus one."""
    return len(sub.vertices) - 1


def vertex_deletion_faces(sub):
    """d_i deletes the i-th vertex, in `cell_sort_key` order of the ids,
    together with its incident edges."""
    return [delete_vertex(sub, v) for v in sorted(sub.vertices, key=cell_sort_key)]


def secondary_deletion_faces(sub):
    """The vertex-deletion faces, d_i of an interior vertex with the host
    edges from its order neighbor v_{i-1} to v_{i+1} added."""
    ordered = sorted(sub.vertices, key=cell_sort_key)
    out = vertex_deletion_faces(sub)
    for i in range(1, len(ordered) - 1):
        out[i] = add_edges(out[i], scan_edges_between(sub.host, ordered[i - 1], ordered[i + 1]))
    return out


def touched_clusters(clustering, sub):
    """Indices of the clusters that meet the subgraph, increasing."""
    return [k for k, block in enumerate(clustering.blocks) if block & sub.vertices]


def cluster_grade(clustering):
    """Grade of a subgraph under cluster faces: the number of clusters it
    meets, minus one."""
    return lambda sub: len(touched_clusters(clustering, sub)) - 1


def partition_face_map(clustering):
    """d_j restricts a subgraph to the vertices outside its j-th touched
    cluster."""
    def faces(sub):
        return [restrict(sub, sub.vertices - clustering.blocks[k])
                for k in touched_clusters(clustering, sub)]

    return faces


def link_blowup_face_map(clustering):
    """d_j(H) = H[V(H) - V_j] ∪ G[lk(V_j) ∩ V(H)], the link and the induced
    edges found by scans of the host's incidence map."""
    def faces(sub):
        host = sub.host
        out = []
        for k in touched_clusters(clustering, sub):
            vj = sub.vertices & clustering.blocks[k]
            link = set().union(*(scan_neighbors(host, v) for v in vj)) - vj
            blow = link & sub.vertices
            induced = [e for e, (u, w) in host.edge_ends.items() if u in blow and w in blow]
            out.append(add_edges(restrict(sub, sub.vertices - vj), induced))
        return out

    return faces


def starting_vertex_grade(cell):
    """Grade of a marked subgraph: its number of layers minus one."""
    return len(subgraph_bfs_layers(cell.subgraph, cell.sv)) - 1


def formal_edge_id(ghat, u, v):
    """The id of the formal ∞ edge of the extension Ĝ from u to v (between
    them, in `cell_sort_key` order, when undirected)."""
    if ghat.directed:
        return ("inf", u, v)
    return ("inf",) + tuple(sorted((u, v), key=cell_sort_key))


def starting_vertex_face_map(ghat):
    """d_j removes layer j of a marked subgraph of the extension Ĝ with its
    incident edges; for an interior layer it adds the formal edge from each
    vertex of layer j-1 to each vertex of layer j+1 that the subgraph has
    no edge from.  d_0 starts from layer 1, every other face from layer 0."""
    def faces(cell):
        sub = cell.subgraph
        layers = subgraph_bfs_layers(sub, cell.sv)
        n = len(layers) - 1
        out = []
        for j in range(n + 1):
            face = restrict(sub, sub.vertices - layers[j])
            if 0 < j < n:
                face = add_edges(face, [formal_edge_id(ghat, v, w)
                                        for v in layers[j - 1] for w in layers[j + 1]
                                        if not has_edge_between(sub, v, w)])
            out.append(MarkedSubgraph(face, layers[1] if j == 0 else layers[0]))
        return out

    return faces


def brute_cliques(g, max_size):
    """Every vertex set of at most max_size pairwise adjacent vertices, with
    every choice of one edge per pair, from scans of the incidence map."""
    ordered = sorted(g.vertices, key=cell_sort_key)
    out = []
    for size in range(1, max_size + 1):
        for vs in itertools.combinations(ordered, size):
            choices = [scan_edges_between(g, u, v) for u, v in itertools.combinations(vs, 2)]
            out += [g.subgraph(vs, combo) for combo in itertools.product(*choices)]
    return out


# ---------------------------------------------------------------------------
# The checked relabel of mask cells
# ---------------------------------------------------------------------------

def relabel(closure, label):
    """A (Δ-set, marks) pair, such as a `close_under_faces` result, with
    every cell label replaced by label(cell label)."""
    ds, marked = closure
    return ds.with_labels([list(map(label, row)) for row in ds.labels]), marked


def checked_relabel(host, closure):
    """A `close_under_faces` result over host's ranks with every (vertex
    mask, edge mask) cell relabelled by the checked `Subgraph` constructor,
    from the ids of its set bits, scanned bit by bit; a cell with a third
    mask, its starting vertices, by the checked `MarkedSubgraph`."""
    vids, eids = host._vids, host._eids

    def label(cell):
        sub = Subgraph(host, [v for r, v in enumerate(vids) if cell[0] >> r & 1],
                       [e for r, e in enumerate(eids) if cell[1] >> r & 1])
        if len(cell) == 2:
            return sub
        return MarkedSubgraph(sub, frozenset(v for r, v in enumerate(vids) if cell[2] >> r & 1))

    return relabel(closure, label)


# ---------------------------------------------------------------------------
# Mask walks through a decode
# ---------------------------------------------------------------------------

def decoded_union(table, mask: int) -> int:
    """The union of table[r] over the decoded ranks r of mask."""
    out = 0
    for r in _ranks(mask):
        out |= table[r]
    return out


def decoded_induced_edges(host, vmask: int) -> int:
    """The edges of host met twice by the decoded vertices of vmask, and
    the loops met once."""
    once = twice = 0
    for r in _ranks(vmask):
        twice |= once & host._inc[r]
        once |= host._inc[r]
    return twice | (once & host._loops)


def decoded_vertex_deletion_map(host):
    """The vertex-deletion faces of a cell: one per decoded vertex rank r,
    increasing, without r and its incident edges."""
    return lambda cell: [(cell[0] & ~(1 << r), cell[1] & ~host._inc[r])
                         for r in _ranks(cell[0])]


def decoded_combine(coeffs: int, vectors) -> int:
    """The GF(2) sum of vectors[k] over the decoded ranks k of coeffs."""
    out = 0
    for k in _ranks(coeffs):
        out ^= vectors[k]
    return out


def decoded_relabel(v: int, table, out: int = 0) -> int:
    """out with bit table[i] set for every decoded rank i of v."""
    for i in _ranks(v):
        out |= 1 << table[i]
    return out
