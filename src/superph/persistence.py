"""Persistent filtrations and super-persistent homology.

A regular scoring scheme on the working graph filters a dominated
super-hypergraph (H, X) by sublevel sets X(t); ambient, embedded and
relative embedded homology at the critical values form persistence modules
whose interval decompositions give three barcodes, linked by the exact
triangle J : emb -> ambient, P : ambient -> relative, and the degree -1
connecting map back to embedded homology.

Every module here is a subquotient family Z(t)/B(t) of a fixed chain group
with Z and B both monotone in t (checked when the family is built).  The
spaces come from the one (Z, B) builder per module kind in
`superph.homology`, memoised on the chain complex: `inf_zb` of X(t) or H(t)
for the ambient and embedded modules, `relative_zb` of (X(t), H(t)) for the
relative one.  The static Betti numbers are the one-step case.  A
module's barcode is read off an interval decomposition: a flag basis of the
B spaces, written in a flag basis of the Z spaces, is column-reduced with
the lowest-one pairing of Zomorodian–Carlsson, over the finitely many critical
values.  The infimum complexes of the embedded theory are not a cell-wise
filtration, but their Z and B flags are, so the column algorithm applies to
them.  The reduced columns are interval-adapted representatives, which also
give the correlation matrices.  Rank inclusion–exclusion over composite
inclusion-induced maps is kept only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .delta import GradedSubset, SuperHypergraph
from .fields import (Field, SubspaceBasis, express_in_vectors,
                     extend_independent, subspace_sum)
from .homology import (ChainComplex, boundary_matrices, inf_zb, relative_zb,
                       _boundary_of_span)
from .scoring import round_score

MODULE_KINDS = ("ambient", "embedded", "relative")


class DominationError(ValueError):
    """The Δ-set is not (visibly) dominated by a working graph."""


class RegularityError(ValueError):
    """The scoring scheme is not regular on this input."""


def _label_subgraph(label):
    return getattr(label, "subgraph", label)


class Filtration:
    """Sublevel filtration of a super-hypergraph at its critical values.

    level_x[i] / level_h[i] are the cells of X(t_i) and H(t_i) = H ∩ X(t_i).
    """

    __slots__ = ("sh", "times", "scores", "level_x", "level_h", "scheme_name",
                 "_cc", "_zb", "_decomp")

    def __init__(self, sh: SuperHypergraph, times: Sequence[float],
                 scores: Sequence[Sequence[float]], scheme_name: str = ""):
        self.sh = sh
        self.times = tuple(times)
        self.scores = tuple(tuple(s) for s in scores)
        self.scheme_name = scheme_name
        self.level_x = []
        self.level_h = []
        for t in self.times:
            cells = {n: {j for j in range(sh.x.counts[n]) if self.scores[n][j] <= t}
                     for n in range(sh.x.dim_count)}
            lx = GradedSubset(cells)
            self.level_x.append(lx)
            self.level_h.append(sh.h.intersection(lx))
        self._cc: dict[Field, ChainComplex] = {}
        self._zb: dict = {}
        self._decomp: dict = {}

    @property
    def steps(self) -> int:
        return len(self.times)

    def chain_complex(self, field: Field) -> ChainComplex:
        if field not in self._cc:
            self._cc[field] = boundary_matrices(self.sh.x, field)
        return self._cc[field]

    # -- subquotient families ------------------------------------------------

    def zb_family(self, field: Field, which: str, degree: int):
        """Per-step (Z, B) subspaces of F^{X_degree} whose quotients are the
        requested homology; both flags are monotone in the step, which is
        checked here."""
        key = (field, which, degree)
        if key in self._zb:
            return self._zb[key]
        if which not in MODULE_KINDS:
            raise ValueError(f"unknown module kind {which!r}")
        cc = self.chain_complex(field)
        n = degree
        out = []
        for xs, hs in zip(self.level_x, self.level_h):
            if which == "ambient":
                z, b = inf_zb(cc, xs, n)
            elif which == "embedded":
                z, b = inf_zb(cc, hs, n)
            else:
                z, b = relative_zb(cc, xs, hs, n)
            if not z.contains_subspace(b):
                raise AssertionError("boundary space not inside cycle space")
            if out and not (z.contains_subspace(out[-1][0])
                            and b.contains_subspace(out[-1][1])):
                raise AssertionError("monotonicity of the subquotient family broken")
            out.append((z, b))
        self._zb[key] = out
        return out

    def decomposition(self, field: Field, which: str, degree: int):
        key = (field, which, degree)
        if key not in self._decomp:
            self._decomp[key] = _interval_decomposition(
                self.zb_family(field, which, degree), field,
                self.sh.x.n_cells(degree), degree)
        return self._decomp[key]


def build_filtration(sh: SuperHypergraph, scheme, experimental: bool = False) -> Filtration:
    """Score every cell label, validate domination and regularity, and return
    the filtration at the sorted distinct critical values.

    Requires every cell to carry a finite-subgraph label, labels to be
    injective, and faces to be labeled by subgraphs of their cofaces.  With
    experimental=True a non-regular scheme is allowed (the modules are then
    built from infimum chains of the graded sublevel sets).
    """
    x = sh.x
    if x.labels is None and x.total_cells() > 0:
        raise DominationError("cells carry no subgraph labels")
    seen = {}
    for n, j in x.cells():
        sub = _label_subgraph(x.label(n, j))
        key = getattr(sub, "key", None)
        if key is None:
            raise DominationError(f"cell ({n},{j}) label is not a subgraph")
        if key in seen:
            raise DominationError(f"labels not injective: cells {seen[key]} and {(n, j)}")
        seen[key] = (n, j)
    # Faces must live over vertex subsets of their cofaces.  Edge containment
    # is not required: the secondary, path and starting-vertex face
    # operations patch deleted layers with working-graph or formal edges, so
    # their faces are not literal edge-subgraphs; sublevel sets still form
    # Δ-subsets because score monotonicity is validated below.
    for n in range(1, x.dim_count):
        for j in range(x.counts[n]):
            big = _label_subgraph(x.label(n, j))
            for t in x.faces[n][j]:
                small = _label_subgraph(x.label(n - 1, t))
                if not small.vertices <= big.vertices:
                    raise DominationError(
                        f"face of cell ({n},{j}) does not shrink its vertex set")
    scores = []
    for n in range(x.dim_count):
        scores.append([round_score(scheme.score(_label_subgraph(x.label(n, j))))
                       for j in range(x.counts[n])])
    monotone = all(scores[n - 1][t] <= scores[n][j]
                   for n in range(1, x.dim_count)
                   for j in range(x.counts[n])
                   for t in x.faces[n][j])
    if not monotone and not experimental:
        raise RegularityError(
            "scheme is not regular on this input; pass experimental=True to "
            "use infimum chains of the sublevel sets")
    times = sorted({v for row in scores for v in row})
    return Filtration(sh, times, scores, getattr(scheme, "name", ""))


# ---------------------------------------------------------------------------
# Barcodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bar:
    degree: int
    birth: float
    death: float  # math.inf for a bar that never dies
    multiplicity: int


@dataclass(frozen=True)
class Barcode:
    module: str
    bars: tuple[Bar, ...]

    def total_at(self, degree: int, t: float) -> int:
        return sum(b.multiplicity for b in self.bars
                   if b.degree == degree and b.birth <= t < b.death)


# ---------------------------------------------------------------------------
# Interval-adapted representatives
# ---------------------------------------------------------------------------

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
    are the representatives of the finite bars, so the adapted-basis maps
    send representatives to representatives or to zero.
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


def decomposition_barcode(filt: Filtration, field: Field, which: str,
                          degree: int) -> Barcode:
    """Barcode of one degree read off the interval-adapted decomposition:
    each summand is one copy of its interval."""
    summands = filt.decomposition(field, which, degree)
    acc: dict[tuple[float, float], int] = {}
    for s in summands:
        birth = filt.times[s.birth_index]
        death = math.inf if s.death_index is None else filt.times[s.death_index]
        acc[(birth, death)] = acc.get((birth, death), 0) + 1
    bars = tuple(Bar(degree, b, d, m) for (b, d), m in sorted(acc.items()))
    return Barcode(which, bars)


def full_barcode(filt: Filtration, field: Field, which: str) -> Barcode:
    """Barcode across all degrees of the Δ-set."""
    bars: list[Bar] = []
    for n in range(filt.sh.x.dim_count):
        if filt.steps == 0:
            continue
        bars.extend(decomposition_barcode(filt, field, which, n).bars)
    bars.sort(key=lambda b: (b.degree, b.birth, b.death))
    return Barcode(which, tuple(bars))


# ---------------------------------------------------------------------------
# Correlation matrices of the exact triangle
# ---------------------------------------------------------------------------

ARROWS = ("J", "P", "boundary")


@dataclass(frozen=True)
class IntervalId:
    module: str
    degree: int
    index: int
    birth: float
    death: float

    @property
    def ident(self) -> str:
        death = "inf" if self.death == math.inf else f"{self.death:.12g}"
        return f"{self.module}:d{self.degree}:{self.index}:[{self.birth:.12g},{death})"


@dataclass(frozen=True)
class CorrelationMatrix:
    arrow: str
    rows: tuple[IntervalId, ...]  # source interval summands
    cols: tuple[IntervalId, ...]  # target interval summands
    entries: frozenset  # (row index, col index) pairs holding 1


def _interval_ids(filt: Filtration, which: str, degree: int,
                  summands) -> tuple[IntervalId, ...]:
    out = []
    for k, s in enumerate(summands):
        birth = filt.times[s.birth_index]
        death = math.inf if s.death_index is None else filt.times[s.death_index]
        out.append(IntervalId(which, degree, k, birth, death))
    return tuple(out)


def correlation_matrix(filt: Filtration, field: Field, arrow: str,
                       degree: int) -> CorrelationMatrix:
    """0/1 matrix over interval summands: entry (α, β) is 1 iff the arrow's
    block from summand α to summand β is nonzero at some critical value in
    the overlap of their intervals, in the fixed interval-adapted bases.

    J : embedded -> ambient and P : ambient -> relative are degree-preserving;
    the connecting arrow maps relative degree n to embedded degree n-1.
    """
    if arrow not in ARROWS:
        raise ValueError(f"unknown arrow {arrow!r}; one of {ARROWS}")
    cc = filt.chain_complex(field)
    if arrow == "J":
        src = ("embedded", degree)
        dst = ("ambient", degree)
    elif arrow == "P":
        src = ("ambient", degree)
        dst = ("relative", degree)
    else:
        src = ("relative", degree)
        dst = ("embedded", degree - 1)
    src_sum = filt.decomposition(field, src[0], src[1]) if src[1] >= 0 else []
    dst_sum = filt.decomposition(field, dst[0], dst[1]) if dst[1] >= 0 else []
    rows = _interval_ids(filt, src[0], src[1], src_sum)
    cols = _interval_ids(filt, dst[0], dst[1], dst_sum)
    if not src_sum or not dst_sum:
        return CorrelationMatrix(arrow, rows, cols, frozenset())
    dst_zb = filt.zb_family(field, dst[0], dst[1])
    dst_ambient = filt.sh.x.n_cells(dst[1])
    entries = set()
    for i in range(filt.steps):
        alive_src = [(a, s) for a, s in enumerate(src_sum) if s.alive_at(i)]
        alive_dst = [(b, s) for b, s in enumerate(dst_sum) if s.alive_at(i)]
        if not alive_src or not alive_dst:
            continue
        _, b_space = dst_zb[i]
        basis = [s.rep for _, s in alive_dst] + list(b_space.vectors)
        for a, s in alive_src:
            vec = list(s.rep)
            if arrow == "boundary":
                vec = list(cc.boundaries[degree].apply(vec))
            coeffs = express_in_vectors(field, dst_ambient, basis, vec)
            if coeffs is None:
                raise AssertionError("arrow image outside the target cycle space")
            for k, (b, _) in enumerate(alive_dst):
                if coeffs[k]:
                    entries.add((a, b))
    return CorrelationMatrix(arrow, rows, cols, frozenset(entries))


# ---------------------------------------------------------------------------
# Exact-triangle report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleRow:
    degree: int
    step: int
    t: float
    dim_embedded: int
    dim_ambient: int
    dim_relative: int
    rank_j: int
    rank_p: int
    rank_boundary: int  # out of relative degree `degree` into embedded degree-1
    exact_at_ambient: bool
    exact_at_relative: bool
    exact_at_embedded: bool


@dataclass(frozen=True)
class TriangleReport:
    rows: tuple[TriangleRow, ...]
    exact: bool


def triangle_report(filt: Filtration, field: Field) -> TriangleReport:
    """Rank bookkeeping of the long exact sequence
    ... -> emb_n -> amb_n -> rel_n -> emb_{n-1} -> ... at every critical
    value; flags any failure of exactness (there must be none)."""
    cc = filt.chain_complex(field)
    nd = filt.sh.x.dim_count
    rows = []
    exact = True

    def family(which, n):
        if n < 0 or n >= nd:
            return None
        return filt.zb_family(field, which, n)

    for n in range(nd):
        emb = family("embedded", n)
        amb = family("ambient", n)
        rel = family("relative", n)
        emb_below = family("embedded", n - 1)
        rel_above = family("relative", n + 1)
        for i in range(filt.steps):
            ez, eb = emb[i]
            az, ab = amb[i]
            rz, rb = rel[i]
            dim_e = ez.dim - eb.dim
            dim_a = az.dim - ab.dim
            dim_r = rz.dim - rb.dim
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
                                    rank_j, rank_p, rank_bd,
                                    ok_amb, ok_rel, ok_emb))
    return TriangleReport(tuple(rows), exact)


def _connecting_rank(cc: ChainComplex, n: int, rel_z: SubspaceBasis | None,
                     emb_b_below: SubspaceBasis | None) -> int:
    """Rank of the connecting map out of relative degree n: classes of
    boundaries of relative cycles modulo embedded boundaries below."""
    if rel_z is None or n <= 0 or n >= cc.dim_count:
        return 0
    image = _boundary_of_span(cc, n, rel_z)
    if emb_b_below is None:
        emb_b_below = SubspaceBasis.zero(cc.field, cc.space_dim(n - 1))
    return subspace_sum(image, emb_b_below).dim - emb_b_below.dim


# ---------------------------------------------------------------------------
# Persistent partition homology
# ---------------------------------------------------------------------------

def partition_persistence(fam, clustering, scheme, field: Field,
                          experimental: bool = False) -> dict[str, Barcode]:
    """Partition faces + filtration + the three barcode families."""
    from .faceops import partition_faces
    sh = partition_faces(fam, clustering)
    filt = build_filtration(sh, scheme, experimental=experimental)
    return {which: full_barcode(filt, field, which) for which in MODULE_KINDS}
