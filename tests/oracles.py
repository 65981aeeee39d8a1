"""Independent oracles used to pin expected values.

Everything here is deliberately written from scratch against the raw
definitions (bitmask enumeration, forward elimination, fixed-point closure)
so the main library is checked by a second route, not by itself.  Some
exceptions read library pieces but compute by another route:

- the dense subspace layer: canonical RREF bases (`SubspaceBasis`) from the
  library's `rref`, with kernel, sum, intersection, preimage, solve and
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

The scanning graph lookups and the two-pass face closure are the routes the
library's indexed ones replaced: they read a graph's incidence map or build
the library's `DeltaSet`, but scan every edge per query and call face_fn
twice per cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from superph.delta import (DeltaIdentityError, DeltaSet, DeltaStructureError,
                           GradedSubset, SuperHypergraph, cell_sort_key,
                           delta_closure, full_subset, max_delta_subset)
from superph.fields import Field, FieldMatrix, Span, rref
from superph.homology import MvReport, MvRow, boundary_matrices
from superph.persistence import (MODULE_KINDS, Bar, Barcode, TriangleReport,
                                 TriangleRow)


# ---------------------------------------------------------------------------
# Dense subspaces: canonical RREF bases and the spec operations
# ---------------------------------------------------------------------------

def row_lists(m: FieldMatrix) -> list[list]:
    return [list(m.row(i)) for i in range(m.rows)]


def from_sparse_columns(field: Field, nrows: int, columns) -> FieldMatrix:
    """Dense matrix from sparse columns {row: nonzero entry}."""
    nc = len(columns)
    flat = [field.zero] * (nrows * nc)
    for j, col in enumerate(columns):
        for i, a in col.items():
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
    cols = [list(m.column(j)) for j in range(m.cols)] + [list(v) for v in s.vectors]
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
    return SubspaceBasis(m.field, m.rows, [m.column(j) for j in range(m.cols)])


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


def gf2_span_members(vectors):
    """All elements of the GF(2) span of bitmask vectors."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


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


def dim_span_fractions(vectors):
    """Dimension of the span of rational vectors, echelon keyed by pivot."""
    basis: dict[int, list[Fraction]] = {}
    for v in vectors:
        v = [Fraction(x) for x in v]
        while True:
            nz = next((i for i, a in enumerate(v) if a), None)
            if nz is None:
                break
            if nz in basis:
                b = basis[nz]
                c = v[nz] / b[nz]
                v = [a - c * x for a, x in zip(v, b)]
            else:
                basis[nz] = v
                break
    return len(basis)


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
    at every step i, built once per filtration."""
    if "oracle_levels" not in filt._memo:
        level_x = [GradedSubset({n: [j for j, e in enumerate(row) if e <= i]
                                 for n, row in enumerate(filt.entry)})
                   for i in range(filt.steps)]
        filt._memo["oracle_levels"] = (level_x,
                                       [filt.sh.h.intersection(lx) for lx in level_x])
    return filt._memo["oracle_levels"]


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
                                        for i in cc.columns[n][j]):
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
        m = FieldMatrix.identity(self.field, self.dims[i])
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
    closure = delta_closure(sh)
    core = max_delta_subset(sh)
    cc = boundary_matrices(sh.x, field)
    out = []
    for n in range(sh.x.dim_count):
        z, b = relative_zb(cc, closure, core, n)
        out.append(z.dim - b.dim)
    return tuple(out)


# ---------------------------------------------------------------------------
# Geometric gap homology by quotient matrices
# ---------------------------------------------------------------------------

def quotient_gap_betti(sh, field: Field) -> tuple[int, ...]:
    """Betti numbers of C(closure) / C(core), with ∂ restricted to the cells
    of closure ∖ core (closure = Δ-closure of H, core = largest Δ-subset
    inside H)."""
    closure = delta_closure(sh)
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
                for i, v in enumerate(bd.column(j)):
                    if v and i in pos[n - 1]:
                        ent[pos[n - 1][i]][jj] = v
        mats.append(FieldMatrix.from_rows(field, ent) if rows
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

def brute_primary_closure_keys(members, order):
    """Least fixed point of single-vertex deletions, as canonical keys."""
    seen = set()
    stack = list(members)
    while stack:
        sub = stack.pop()
        if sub.key in seen:
            continue
        seen.add(sub.key)
        if len(sub.vertices) > 1:
            for v in order.sorted(sub.vertices):
                stack.append(sub.delete_vertex(v))
        elif len(sub.vertices) == 1:
            pass
    return seen


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
    ordered = [sorted(by_dim.get(n, ()), key=cell_sort_key) for n in range(top + 1)]
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


def exhaustive_subsets(items, max_size=None):
    items = list(items)
    n = len(items) if max_size is None else min(len(items), max_size)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield combo


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


def scan_has_edge_between(sub, u, v):
    """True iff the subgraph has an edge from u to v (between, when
    undirected), by a scan of its edges."""
    return any(e in sub.edges for e in scan_edges_between(sub.host, u, v))
