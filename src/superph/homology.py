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

A basis of inf_n is the filtered basis of a marking (`inf_basis`), which
the persistence modules also build on: the marked n-cells reduced against
rows with the unmarked ones last.  The chain data, Mayer–Vietoris
diagnostics and subcomplex homology work on `fields.Span`s of sparse
chains: a sum is one reduction, and an intersection or the cycles of a
span are the relations of one reduction.  Homology bases and induced maps
are the one-step case of the persistence engine
(`persistence.embedded_homology_basis`, `persistence.induced_homology_map`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .delta import (CellId, DeltaIdentityError, DeltaSet, GradedSubset,
                    SuperHypergraph, delta_closure, full_subset, max_delta_subset)
from .fields import Field, Span, combine, reduce_columns, reduce_vector, relations


@dataclass(frozen=True)
class ChainComplex:
    """Per-degree boundary maps of a Δ-set over a field.

    columns[n][j] is ∂_n of the j-th n-cell as a sparse column {row: nonzero
    entry} in row order, rows indexing (n-1)-cells; the columns of degree 0
    are empty.  `memo` holds the column reductions built on this complex.
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


# ---------------------------------------------------------------------------
# Infimum complexes
# ---------------------------------------------------------------------------

class FilteredBasis(NamedTuple):
    """Filtered basis of one degree of an infimum complex: vectors[k], a
    sparse chain {cell: scalar}, enters at entries[k].  lead[cell] = k when
    vectors[k] has coefficient one on that cell and its other cells come
    earlier in the order `rank` of the marked cells."""

    entries: tuple
    vectors: tuple
    lead: dict
    rank: dict

    def coordinates(self, field: Field, chain: dict) -> dict:
        """{k: scalar} with chain = Σ scalar · vectors[k], by a triangular
        solve by lead."""
        low, out = reduce_vector(field, dict(chain), self.lead, self.vectors,
                                 lambda cell: self.rank.get(cell, math.inf))
        if low is not None:
            raise AssertionError("chain outside the infimum complex")
        return out


def inf_basis(cc: ChainComplex, entry: Sequence[Sequence], n: int) -> FilteredBasis:
    """Filtered basis of inf_n of the marking whose cells enter at `entry`
    (math.inf: never marked).

    The marked n-cells are reduced in (entry, index) order against rows in
    (entry, index) order, never-marked rows last: the V column of cell σ
    enters at e(σ), or at e(low) when its low is later, and is dropped when
    that is never.  When every marked cell's faces enter no later than the
    cell, the marking is a filtered Δ-subset and the basis is its cells."""
    e = entry[n]
    cells = sorted((j for j in range(len(e)) if e[j] != math.inf), key=lambda j: (e[j], j))
    rank = {j: r for r, j in enumerate(cells)}
    one = cc.field.one
    below = entry[n - 1] if n else ()
    if all(below[i] <= e[j] for j in cells for i in cc.columns[n][j]):
        return FilteredBasis(tuple(e[j] for j in cells), tuple({j: one} for j in cells),
                             {j: k for k, j in enumerate(cells)}, rank)
    rows = sorted(range(len(below)), key=lambda i: (below[i], i))
    lows, vs, _ = reduce_columns(cc.field, [cc.columns[n][j] for j in cells],
                                 {i: r for r, i in enumerate(rows)})
    kept = []
    for j, low, v in zip(cells, lows, vs):
        at = e[j] if low is None else max(e[j], below[low])
        if at != math.inf:
            kept.append((at, {cells[k]: c for k, c in v.items()}, j))
    return FilteredBasis(tuple(k[0] for k in kept), tuple(k[1] for k in kept),
                         {k[2]: p for p, k in enumerate(kept)}, rank)


@dataclass(frozen=True)
class EmbeddedChainData:
    """Infimum and supremum subcomplexes inside each C_n(X), as spans of
    chains {n-cell: scalar}."""

    field: Field
    inf: tuple[Span, ...]
    sup: tuple[Span, ...]


def embedded_chain_data(sh: SuperHypergraph, field: Field,
                        cc: ChainComplex | None = None) -> EmbeddedChainData:
    """inf_n = D_n ∩ ∂⁻¹(D_{n-1}) and sup_n = D_n + ∂(D_{n+1}), where D_n
    is the coordinate span of the marked n-cells; inf_n is spanned by the
    basis of the marking entering at one step."""
    if cc is None:
        cc = boundary_matrices(sh.x, field)
    h = sh.h
    entry = tuple(tuple(0 if j in h.at(n) else math.inf for j in range(count))
                  for n, count in enumerate(cc.dims))
    inf = []
    sup = []
    for n in range(cc.dim_count):
        inf.append(Span(field, inf_basis(cc, entry, n).vectors))
        up = [cc.columns[n + 1][j] for j in h.at(n + 1)] if n + 1 < cc.dim_count else []
        sup.append(Span(field, [{j: field.one} for j in h.at(n)] + up))
    return EmbeddedChainData(field, tuple(inf), tuple(sup))


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
# Subcomplex homology and Mayer–Vietoris diagnostics
# ---------------------------------------------------------------------------

def _zb(cc: ChainComplex, spaces: Sequence[Span], n: int) -> tuple[Span, Span]:
    """Cycles and boundaries in degree n of the subcomplex V_* ⊆ C_*."""
    f = cc.field
    span = spaces[n]
    kernel = relations(f, [combine(f, v, cc.columns[n]) for v in span.vectors])
    up = spaces[n + 1].vectors if n + 1 < len(spaces) else ()
    return (Span(f, (combine(f, u, span.vectors) for u in kernel)),
            Span(f, (combine(f, v, cc.columns[n + 1]) for v in up)))


def subcomplex_homology(cc: ChainComplex, spaces: Sequence[Span]) -> tuple[int, ...]:
    """Betti numbers of a family of spans V_n ⊆ C_n closed under ∂."""
    return tuple(z.dim - b.dim for z, b in (_zb(cc, spaces, n) for n in range(len(spaces))))


def inclusion_quasi_iso(cc: ChainComplex, sub: Sequence[Span],
                        sup: Sequence[Span]) -> tuple[bool, tuple[tuple[int, int, int], ...]]:
    """Whether the inclusion of subcomplexes induces isomorphisms on homology.

    Returns (flag, per-degree (dim H(sub), dim H(sup), rank of induced map)).
    """
    rows = []
    ok = True
    for n in range(len(sub)):
        z_v, b_v = _zb(cc, sub, n)
        z_w, b_w = _zb(cc, sup, n)
        hv = z_v.dim - b_v.dim
        hw = z_w.dim - b_w.dim
        rk = z_v.sum(b_w).dim - b_w.dim
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
    sup_int = [data_a.sup[n].intersect(data_b.sup[n]) for n in range(nd)]
    sup_sum = [data_a.sup[n].sum(data_b.sup[n]) for n in range(nd)]
    inf_int = [data_a.inf[n].intersect(data_b.inf[n]) for n in range(nd)]
    inf_sum = [data_a.inf[n].sum(data_b.inf[n]) for n in range(nd)]

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
