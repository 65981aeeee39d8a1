"""Chain complexes of Δ-sets and embedded homology of super-hypergraphs.

For a marked graded subset H of a Δ-set X with chain complex C_*(X), write
D_n for the coordinate span of H_n.  The infimum complex is the largest
subcomplex of C_*(X) inside D_*, inf_n = D_n ∩ ∂⁻¹(D_{n-1}); the supremum
complex is the smallest subcomplex containing it, sup_n = D_n + ∂(D_{n+1}).
Their common homology — cycles D_n ∩ ker ∂ modulo boundaries
D_n ∩ ∂(D_{n+1}) — is the embedded homology of the pair.

The static invariants are ranks of pieces of ∂, read off one sparse
lowest-one column reduction (`fields.reduce_columns`) of the boundary
columns, memoised on the chain complex.  With M_n = ∂_n restricted to the
rows X_{n-1} ∖ H_{n-1} and the columns H_n:

- ambient β_n = |X_n| - rk ∂_n - rk ∂_{n+1};
- embedded β_n = |H_n| - rk ∂_n|H_n - rk ∂_{n+1}|H_{n+1} + rk M_{n+1};
- gap_n = dim sup_n - dim inf_n = rk M_n + rk M_{n+1};
- relative β_n = |X_n| - dim inf_n - r_n - r_{n+1}, the homology of
  C_*(X)/inf_*, where dim inf_n = |H_n| - rk M_n and r_n, the rank of ∂_n
  modulo inf_{n-1}, is the rank of ∂_n on the rows X_{n-1} ∖ H_{n-1};
- geometric gap homology, of the pair (Δ-closure of H, largest Δ-subset
  inside H), from the ranks of ∂ restricted to closure ∖ core.

Every one of these is the rank of ∂_n on a set of columns, or of its block
on the rows outside a set of marked rows; one reduction with the unmarked
rows ordered last gives both, and the ambient and relative tables share the
reduction of each full ∂_n.  The persistence modules (`superph.persistence`)
are filtered versions of the same reduction.

Homology bases, induced maps and the Mayer–Vietoris diagnostics are the
only dense code: paper features on small inputs, built on `inf_space` (a
marking's infimum chains) and `inf_zb` (its cycles and boundaries), each
computed straight from its definition with the chain complex's dense
boundary matrices, which are built on first use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

from .delta import (CellId, DeltaIdentityError, DeltaMorphism, DeltaSet,
                    GradedSubset, SuperHypergraph, delta_closure, full_subset,
                    max_delta_subset, validate_morphism)
from .fields import (Field, FieldMatrix, SubspaceBasis, combine,
                     express_in_vectors, extend_independent, kernel_basis,
                     preimage_basis, reduce_columns, subspace_intersect,
                     subspace_sum)


@dataclass(frozen=True)
class ChainComplex:
    """Per-degree boundary maps of a Δ-set over a field.

    columns[n][j] is ∂_n of the j-th n-cell as a sparse column {row: nonzero
    entry} in row order, rows indexing (n-1)-cells; the columns of degree 0
    are empty.
    `boundaries` gives the same maps as dense matrices, built on first read
    by the subspace routes.  `memo` holds the column reductions and dense
    matrices built on this complex.
    """

    field: Field
    dims: tuple[int, ...]
    columns: tuple[tuple[dict, ...], ...]
    memo: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    @property
    def dim_count(self) -> int:
        return len(self.dims)

    def space_dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n < len(self.dims) else 0

    @property
    def boundaries(self) -> tuple[FieldMatrix, ...]:
        """Dense ∂_n: boundaries[n] maps C_n -> C_{n-1}; boundaries[0] has
        zero rows."""
        mats = self.memo.get("boundaries")
        if mats is None:
            mats = self.memo["boundaries"] = tuple(
                FieldMatrix.from_sparse_columns(self.field, self.space_dim(n - 1), cols)
                for n, cols in enumerate(self.columns))
        return mats


def boundary_matrices(x: DeltaSet, field: Field) -> ChainComplex:
    """∂_n(cell) = Σ_i (-1)^i d_i(cell); over GF(2) the unsigned face count.

    The Δ-identity is validated first.  Each degree's sparse columns are
    built once from the face lists, and ∂∂ = 0 is checked on them."""
    report = x.validate()
    if not report.ok:
        raise DeltaIdentityError(report)
    columns = []
    for n in range(x.dim_count):
        cols = []
        for j in range(x.counts[n]):
            col: dict = {}
            if n > 0:
                sign = field.one
                for t in x.faces[n][j]:
                    col[t] = field.add(col.get(t, field.zero), sign)
                    sign = field.neg(sign)
            cols.append({i: a for i, a in sorted(col.items()) if a})
        columns.append(tuple(cols))
    for n in range(2, x.dim_count):
        if any(combine(field, col, columns[n - 1]) for col in columns[n]):
            raise AssertionError(f"∂∂ != 0 between degrees {n} and {n - 2}")
    return ChainComplex(field, x.counts, tuple(columns))


@dataclass(frozen=True)
class EmbeddedChainData:
    """Infimum and supremum subcomplex bases inside each C_n(X)."""

    field: Field
    inf: tuple[SubspaceBasis, ...]
    sup: tuple[SubspaceBasis, ...]


def embedded_chain_data(sh: SuperHypergraph, field: Field,
                        cc: ChainComplex | None = None) -> EmbeddedChainData:
    if cc is None:
        cc = boundary_matrices(sh.x, field)
    nd = sh.x.dim_count
    inf = []
    sup = []
    for n in range(nd):
        inf.append(inf_space(cc, sh.h, n))
        image_next = _boundary_of_span(cc, n + 1, _coordinates(cc, sh.h, n + 1))
        sup.append(subspace_sum(_coordinates(cc, sh.h, n), image_next))
    return EmbeddedChainData(field, tuple(inf), tuple(sup))


def _boundary_of_span(cc: ChainComplex, n: int, span: SubspaceBasis | None) -> SubspaceBasis:
    """∂_n applied to a subspace of C_n, as a subspace of C_{n-1}."""
    ambient = cc.space_dim(n - 1)
    if span is None or span.dim == 0 or n >= cc.dim_count or n <= 0:
        return SubspaceBasis.zero(cc.field, ambient)
    bd = cc.boundaries[n]
    return SubspaceBasis(cc.field, ambient, [bd.apply(v) for v in span.vectors])


def cycles_in_span(cc: ChainComplex, n: int, span: SubspaceBasis) -> SubspaceBasis:
    """span ∩ ker ∂_n."""
    if n == 0 or n >= cc.dim_count:
        return span
    bd = cc.boundaries[n]
    if span.dim == 0:
        return span
    restricted = FieldMatrix.from_columns(cc.field,
                                          [list(bd.apply(v)) for v in span.vectors],
                                          bd.rows)
    coeff_kernel = kernel_basis(restricted)
    vecs = []
    f = cc.field
    for k in coeff_kernel.vectors:
        vec = [f.zero] * span.ambient_dim
        for c, row in zip(k, span.vectors):
            if c:
                vec = [f.add(a, f.mul(c, b)) for a, b in zip(vec, row)]
        vecs.append(vec)
    return SubspaceBasis(f, span.ambient_dim, vecs)


# ---------------------------------------------------------------------------
# Infimum chains, cycles and boundaries of a marked span
# ---------------------------------------------------------------------------

def _coordinates(cc: ChainComplex, marks: GradedSubset, n: int) -> SubspaceBasis:
    """D_n: the coordinate span of the marked n-cells inside C_n."""
    return SubspaceBasis.coordinate(cc.field, cc.space_dim(n), marks.at(n))


def inf_space(cc: ChainComplex, marks: GradedSubset, n: int) -> SubspaceBasis:
    """inf_n of the marked span, D_n ∩ ∂⁻¹(D_{n-1})."""
    d_n = _coordinates(cc, marks, n)
    if not 0 < n < cc.dim_count:
        return d_n
    return subspace_intersect(
        d_n, preimage_basis(cc.boundaries[n], _coordinates(cc, marks, n - 1)))


def inf_zb(cc: ChainComplex, marks: GradedSubset, n: int):
    """Cycles and boundaries of the infimum complex of the marked span:
    Z = D_n ∩ ker ∂ and B = D_n ∩ ∂(D_{n+1})."""
    d_n = _coordinates(cc, marks, n)
    b = subspace_intersect(
        d_n, _boundary_of_span(cc, n + 1, _coordinates(cc, marks, n + 1)))
    return cycles_in_span(cc, n, d_n), b


# ---------------------------------------------------------------------------
# Betti numbers from ranks of the sparse reduction
# ---------------------------------------------------------------------------

def _ranks(cc: ChainComplex, n: int, cols: frozenset, marked_rows: frozenset):
    """(rk of ∂_n on the columns `cols`, rk of its block on the rows
    X_{n-1} ∖ marked_rows); memoised on the arguments.

    The columns are reduced with the unmarked rows ordered last, so a reduced
    column has an unmarked low exactly when it has an unmarked entry: the
    columns with unmarked lows are independent on the unmarked rows, and the
    others vanish there."""
    if not 0 < n < cc.dim_count:
        return 0, 0
    key = ("ranks", n, cols, marked_rows)
    ranks = cc.memo.get(key)
    if ranks is None:
        rows = cc.space_dim(n - 1)
        row_rank = {i: i if i in marked_rows else rows + i for i in range(rows)}
        lows = reduce_columns(cc.field, [cc.columns[n][j] for j in sorted(cols)],
                              row_rank)[0]
        ranks = cc.memo[key] = (len(lows) - lows.count(None),
                                sum(low is not None and low not in marked_rows
                                    for low in lows))
    return ranks


def embedded_betti(sh: SuperHypergraph, field: Field, mode: str = "absolute",
                   cc: ChainComplex | None = None) -> tuple[int, ...]:
    """Betti numbers of the embedded (absolute), relative, or ambient homology.

    With M_n = ∂_n on the rows X_{n-1} ∖ H_{n-1} and the columns H_n:

    absolute: homology of the infimum complex of the marked span,
              β_n = |H_n| - rk ∂_n|H_n - rk ∂_{n+1}|H_{n+1} + rk M_{n+1};
    relative: homology of C_*(X)/inf_*,
              β_n = |X_n| - dim inf_n - r_n - r_{n+1}, where
              dim inf_n = |H_n| - rk M_n and r_n, the rank of ∂_n into
              C_{n-1}/inf_{n-1}, is the rank of ∂_n on the rows
              X_{n-1} ∖ H_{n-1} (im ∂_n ∩ inf_{n-1} = im ∂_n ∩ D_{n-1},
              since boundaries are cycles);
    ambient:  homology of C_*(X), β_n = |X_n| - rk ∂_n - rk ∂_{n+1}.
    """
    if mode not in ("absolute", "relative", "ambient"):
        raise ValueError(f"unknown mode {mode!r}")
    if cc is None:
        cc = boundary_matrices(sh.x, field)
    x, h = full_subset(sh.x), sh.h
    out = []
    for n in range(sh.x.dim_count):
        if mode == "absolute":
            rank_n = _ranks(cc, n, h.at(n), h.at(n - 1))[0]
            rank_up, rank_m_up = _ranks(cc, n + 1, h.at(n + 1), h.at(n))
            out.append(len(h.at(n)) - rank_n - rank_up + rank_m_up)
            continue
        # rk ∂_n on X_n does not depend on the row order, so the ambient
        # table reads it off the reduction of the relative table
        full_n = _ranks(cc, n, x.at(n), h.at(n - 1))
        full_up = _ranks(cc, n + 1, x.at(n + 1), h.at(n))
        if mode == "ambient":
            out.append(cc.dims[n] - full_n[0] - full_up[0])
        else:
            dim_inf = len(h.at(n)) - _ranks(cc, n, h.at(n), h.at(n - 1))[1]
            out.append(cc.dims[n] - dim_inf - full_n[1] - full_up[1])
    return tuple(out)


def gap_series(sh: SuperHypergraph, field: Field,
               cc: ChainComplex | None = None) -> tuple[int, ...]:
    """Coefficients of the Hilbert–Poincaré series of sup/inf:
    coefficient n = dim sup_n - dim inf_n = rk M_n + rk M_{n+1}."""
    if cc is None:
        cc = boundary_matrices(sh.x, field)
    h = sh.h
    ranks = [_ranks(cc, n, h.at(n), h.at(n - 1))[1] for n in range(sh.x.dim_count + 1)]
    return tuple(ranks[n] + ranks[n + 1] for n in range(sh.x.dim_count))


def geometric_gap_betti(sh: SuperHypergraph, field: Field) -> tuple[int, ...]:
    """Homology of the pair (Δ-closure of H, largest Δ-subset inside H):
    the chain complex of the closure modulo the chain complex of the core,
    on the cells of closure ∖ core with ∂ restricted to them.  With an empty
    core this is the (unreduced) homology of the closure."""
    closure = delta_closure(sh)
    core = max_delta_subset(sh)
    cc = boundary_matrices(sh.x, field)
    x = full_subset(sh.x)
    nd = sh.x.dim_count
    cells = [closure.at(n) - core.at(n) for n in range(nd)]
    ranks = [0] + [_ranks(cc, n, cells[n], x.at(n - 1) - cells[n - 1])[1]
                   for n in range(1, nd)] + [0]
    return tuple(len(cells[n]) - ranks[n] - ranks[n + 1] for n in range(nd))


# ---------------------------------------------------------------------------
# Homology bases and induced maps
# ---------------------------------------------------------------------------

def embedded_homology_basis(sh: SuperHypergraph, field: Field, n: int,
                            cc: ChainComplex | None = None):
    """(representatives, boundary basis) for the degree-n embedded homology,
    chosen deterministically."""
    if cc is None:
        cc = boundary_matrices(sh.x, field)
    z, b = inf_zb(cc, sh.h, n)
    reps = extend_independent(b, z.vectors)
    return reps, b


def induced_homology_map(m: DeltaMorphism, source: SuperHypergraph,
                         target: SuperHypergraph, field: Field,
                         degree: int) -> FieldMatrix:
    """Matrix of the induced map on embedded homology in the deterministic
    bases of source and target."""
    report = validate_morphism(m, source.h, target.h)
    if not report.ok:
        raise ValueError(f"invalid morphism: {report.failures[0]}")
    cc_s = boundary_matrices(source.x, field)
    cc_t = boundary_matrices(target.x, field)
    reps_s, _ = embedded_homology_basis(source, field, degree, cc_s)
    reps_t, b_t = embedded_homology_basis(target, field, degree, cc_t)
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
# Subcomplex homology and Mayer–Vietoris diagnostics
# ---------------------------------------------------------------------------

def subcomplex_homology(cc: ChainComplex, spaces: Sequence[SubspaceBasis]) -> tuple[int, ...]:
    """Betti numbers of a family of subspaces V_n ⊆ C_n closed under ∂."""
    out = []
    nd = len(spaces)
    for n in range(nd):
        z = cycles_in_span(cc, n, spaces[n])
        b = _boundary_of_span(cc, n + 1, spaces[n + 1] if n + 1 < nd else None)
        out.append(z.dim - b.dim)
    return tuple(out)


def inclusion_quasi_iso(cc: ChainComplex, sub: Sequence[SubspaceBasis],
                        sup: Sequence[SubspaceBasis]) -> tuple[bool, tuple[tuple[int, int, int], ...]]:
    """Whether the inclusion of subcomplexes induces isomorphisms on homology.

    Returns (flag, per-degree (dim H(sub), dim H(sup), rank of induced map)).
    """
    rows = []
    ok = True
    nd = len(sub)
    for n in range(nd):
        z_v = cycles_in_span(cc, n, sub[n])
        b_v = _boundary_of_span(cc, n + 1, sub[n + 1] if n + 1 < nd else None)
        z_w = cycles_in_span(cc, n, sup[n])
        b_w = _boundary_of_span(cc, n + 1, sup[n + 1] if n + 1 < nd else None)
        hv = z_v.dim - b_v.dim
        hw = z_w.dim - b_w.dim
        rk = subspace_sum(z_v, b_w).dim - b_w.dim
        rows.append((hv, hw, rk))
        if not (hv == hw == rk):
            ok = False
    return ok, tuple(rows)


@dataclass(frozen=True)
class MvRow:
    degree: int
    dim_sup_intersect: int
    dim_sup_sum: int
    dim_inf_intersect: int
    dim_inf_sum: int
    dim_inf_a: int
    dim_inf_b: int
    dim_sup_a: int
    dim_sup_b: int


@dataclass(frozen=True)
class MvReport:
    rows: tuple[MvRow, ...]
    sup_sum_equals_sup_x: bool
    inf_intersect_equals_inf_of_intersection: bool
    left_quasi_iso: bool
    middle_quasi_iso: bool
    right_quasi_iso: bool
    betti_intersection: tuple[int, ...]
    betti_summands: tuple[tuple[int, int], ...]
    betti_union: tuple[int, ...]


def _is_delta_subset(x: DeltaSet, sub: GradedSubset) -> bool:
    for n in range(1, x.dim_count):
        for idx in sub.at(n):
            if any(t not in sub.at(n - 1) for t in x.faces[n][idx]):
                return False
    return True


def mv_diagnostics(sh: SuperHypergraph, a: GradedSubset, b: GradedSubset,
                   field: Field) -> MvReport:
    """Chain-level data of the Mayer–Vietoris square for a cover X = A ∪ B.

    Verifies the identities sup^A + sup^B = sup^X and
    inf^{A∩B} = inf^A ∩ inf^B, reports the dimensions of the six chain rows
    and whether the flanking inclusions (left: inf^A ∩ inf^B into
    sup^A ∩ sup^B, right: inf^A + inf^B into sup^A + sup^B) are
    quasi-isomorphisms; the middle inclusion always is.
    """
    x = sh.x
    if not (_is_delta_subset(x, a) and _is_delta_subset(x, b)):
        raise ValueError("A and B must be Δ-subsets of the parental Δ-set")
    if a.union(b) != full_subset(x):
        raise ValueError("A ∪ B must cover every cell of X")
    cc = boundary_matrices(x, field)

    def chain_data(marks: GradedSubset) -> EmbeddedChainData:
        return embedded_chain_data(SuperHypergraph(x, marks), field, cc)

    h_a = sh.h.intersection(a)
    h_b = sh.h.intersection(b)
    h_ab = sh.h.intersection(a).intersection(b)
    data_a = chain_data(h_a)
    data_b = chain_data(h_b)
    data_ab = chain_data(h_ab)
    data_x = chain_data(sh.h)

    nd = x.dim_count
    sup_int = [subspace_intersect(data_a.sup[n], data_b.sup[n]) for n in range(nd)]
    sup_sum = [subspace_sum(data_a.sup[n], data_b.sup[n]) for n in range(nd)]
    inf_int = [subspace_intersect(data_a.inf[n], data_b.inf[n]) for n in range(nd)]
    inf_sum = [subspace_sum(data_a.inf[n], data_b.inf[n]) for n in range(nd)]

    sup_ok = all(sup_sum[n] == data_x.sup[n] for n in range(nd))
    inf_ok = all(inf_int[n] == data_ab.inf[n] for n in range(nd))

    left_ok, _ = inclusion_quasi_iso(cc, inf_int, sup_int)
    right_ok, _ = inclusion_quasi_iso(cc, inf_sum, sup_sum)
    mid_a, _ = inclusion_quasi_iso(cc, list(data_a.inf), list(data_a.sup))
    mid_b, _ = inclusion_quasi_iso(cc, list(data_b.inf), list(data_b.sup))

    rows = tuple(MvRow(n, sup_int[n].dim, sup_sum[n].dim, inf_int[n].dim,
                       inf_sum[n].dim, data_a.inf[n].dim, data_b.inf[n].dim,
                       data_a.sup[n].dim, data_b.sup[n].dim)
                 for n in range(nd))
    betti_a = subcomplex_homology(cc, list(data_a.inf))
    betti_b = subcomplex_homology(cc, list(data_b.inf))
    return MvReport(
        rows=rows,
        sup_sum_equals_sup_x=sup_ok,
        inf_intersect_equals_inf_of_intersection=inf_ok,
        left_quasi_iso=left_ok,
        middle_quasi_iso=mid_a and mid_b,
        right_quasi_iso=right_ok,
        betti_intersection=subcomplex_homology(cc, inf_int),
        betti_summands=tuple(zip(betti_a, betti_b)),
        betti_union=subcomplex_homology(cc, inf_sum),
    )


# ---------------------------------------------------------------------------
# Mod-2 diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityReport:
    is_cycle: bool
    odd_in_degree_cells: tuple[CellId, ...]


def mod2_parity_check(x: DeltaSet, chain: Iterable[CellId]) -> ParityReport:
    """A mod-2 chain is a cycle iff every face target has even in-degree in
    the multiset of faces of its cells (multiplicities reduced mod 2 first)."""
    counts: dict[CellId, int] = {}
    for cell in chain:
        counts[cell] = counts.get(cell, 0) + 1
    cells = [c for c, k in counts.items() if k % 2]
    dims = {dim for dim, _ in cells}
    if len(dims) > 1:
        raise ValueError(f"chain mixes dimensions {sorted(dims)}")
    in_degree: dict[CellId, int] = {}
    for dim, idx in cells:
        if dim == 0:
            continue
        for t in x.faces[dim][idx]:
            key = (dim - 1, t)
            in_degree[key] = in_degree.get(key, 0) + 1
    odd = tuple(sorted(c for c, k in in_degree.items() if k % 2))
    return ParityReport(not odd, odd)
