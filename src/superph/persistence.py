"""Persistent filtrations and super-persistent homology.

A regular scoring scheme on the working graph filters a dominated
super-hypergraph (H, X) by sublevel sets X(t); ambient, embedded and
relative embedded homology at the critical values form persistence modules
whose interval decompositions give three barcodes, linked by the exact
triangle J : emb -> ambient, P : ambient -> relative, and the degree -1
connecting map back to embedded homology.

A filtration stores one entry step per cell.  Each module is the homology
of a mapping cone, a filtered chain complex written in a filtered basis
(every basis element enters at one step), and all three are read off one
sparse lowest-one column reduction per degree (`fields.reduce_columns`,
Zomorodian–Carlsson 2005).  The cone of inf(H(t)) -> inf(X(t)) has
Cone_n = inf_{n-1}(H) ⊕ inf_n(X) and d(a, c) = (-∂a, ι(a) + ∂c):

- relative: that cone, whose homology is that of inf(X(t)) / inf(H(t))
  (relative persistence, Cohen-Steiner–Edelsbrunner–Harer 2009);
- ambient: the cone of the zero map into inf(X(t)), which is inf(X(t));
  under a regular scheme X(t) is a Δ-subset and the basis is the cells
  themselves;
- embedded: the cone of the zero map into inf(H(t)).

Every reduction here uses one pivot order, (entry, index), fixed once at
the edge: cells and basis elements are relabelled to their positions in
`fields.pivot_order` of the entries when a basis or a cone is built (cone
coordinates land there directly), so the kernels compare plain ints, and
chains go back to cells only through the stored cell chains.

The filtered basis of an infimum complex (`homology.inf_basis`) comes from
the same reduction: the marked n-cells, in pivot order, are reduced
against the rows in pivot order (never-marked rows last); the V column of
cell σ enters at the entry of σ, or of its low when that is later, and is
dropped if that is never.  The basis vectors have distinct lead positions,
so coordinates in the basis are a triangular solve by lead
(`fields.reduce_vector`, the echelon step of the column reduction).

In a complex reduced in pivot order, a pair (low ρ, column τ) is the bar
[e(ρ), e(τ)), kept when it has positive length, with the reduced column as
its representative; an unpaired zero column σ is the bar [e(σ), ∞) with
its V column as representative.  These representatives have distinct
lows, so a cycle is written in them by one triangular solve by low,
whatever the step: that gives the correlation matrices.  The triangle
reads each module's dimension dim Z(t) - dim B(t) off the same
reduction, whose cycle pivots and killing columns are bases of Z(t) and
B(t); only its ranks J, P and the connecting rank reduce sums of two
modules' spaces, dim(Z' + B)(t) - dim B(t), in entry order, so its
exactness checks the modules' reductions against independent ones.

Static homology bases and induced maps are the one-step case: in the
filtration where every cell enters at step 0, the never-dying bars of the
embedded module are a basis of the embedded homology, and a pushed-forward
representative is written in the target's representatives by the same
solve as an arrow of the triangle.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .delta import DeltaMorphism, SuperHypergraph, validate_morphism
from .fields import (Field, FieldMatrix, Span, axpy, combine, pivot_order, reduce_columns,
                     reduce_vector)
from .homology import ChainComplex, FilteredBasis, boundary_matrices, inf_basis
from .scoring import DominationError, _cell_masks, _scores, round_score

MODULE_KINDS = ("ambient", "embedded", "relative")


class RegularityError(ValueError):
    """The scoring scheme is not regular on this input."""


class Filtration:
    """Sublevel filtration of a super-hypergraph at its critical values.

    entry[n][j] is the step at which cell (n, j) joins X(t): the first i with
    scores[n][j] <= times[i], or math.inf if there is none; marked[n][j] is
    the step at which it joins H(t), math.inf for a cell outside H.  The
    chain complex over each field is memoised, and the reduced filtered
    complexes on its `memo`, keyed by the entry tables they are built from.
    """

    __slots__ = ("sh", "times", "entry", "marked", "_cc")

    def __init__(self, sh: SuperHypergraph, times: Sequence[float],
                 scores: Sequence[Sequence[float]]):
        self.sh = sh
        self.times = tuple(times)
        steps = len(self.times)
        self.entry = tuple(
            tuple(i if i < steps else math.inf
                  for i in (bisect.bisect_left(self.times, s) for s in row))
            for row in scores)
        self.marked = tuple(tuple(e if j in sh.h.at(n) else math.inf for j, e in enumerate(row))
                            for n, row in enumerate(self.entry))
        self._cc: dict[Field, ChainComplex] = {}

    @property
    def steps(self) -> int:
        return len(self.times)

    def chain_complex(self, field: Field) -> ChainComplex:
        if field not in self._cc:
            self._cc[field] = boundary_matrices(self.sh.x, field)
        return self._cc[field]


def build_filtration(sh: SuperHypergraph, scheme, experimental: bool = False) -> Filtration:
    """Score every cell label, validate domination and regularity, and return
    the filtration at the sorted distinct critical values.

    Requires every cell to carry a finite-subgraph label, labels to be
    injective, and faces to be labeled by subgraphs of their cofaces.  The
    labels are read as (vertex mask, edge mask) cells over one host
    (`scoring._cell_masks`), so these checks compare masks.  With
    experimental=True a non-regular scheme is allowed (the modules are then
    built from infimum chains of the graded sublevel sets).
    """
    x = sh.x
    host, cells = _cell_masks(x)
    seen = {}
    for n, row in enumerate(cells):
        for j, cell in enumerate(row):
            if cell in seen:
                raise DominationError(f"labels not injective: cells {seen[cell]} and {(n, j)}")
            seen[cell] = (n, j)
    # Faces must live over vertex subsets of their cofaces.  Edge containment
    # is not required: the secondary, path and starting-vertex face
    # operations patch deleted layers with working-graph or formal edges, so
    # their faces are not literal edge-subgraphs; sublevel sets still form
    # Δ-subsets because score monotonicity is validated below.
    for n in range(1, len(cells)):
        for j, (big, _) in enumerate(cells[n]):
            for t in x.faces[n][j]:
                if cells[n - 1][t][0] & ~big:
                    raise DominationError(
                        f"face of cell ({n},{j}) does not shrink its vertex set")
    scores = [list(map(round_score, row)) for row in _scores(scheme, host, cells)]
    monotone = all(scores[n - 1][t] <= scores[n][j]
                   for n in range(1, x.dim_count)
                   for j in range(x.counts[n])
                   for t in x.faces[n][j])
    if not monotone and not experimental:
        raise RegularityError(
            "scheme is not regular on this input; pass experimental=True to "
            "use infimum chains of the sublevel sets")
    times = sorted({v for row in scores for v in row})
    return Filtration(sh, times, scores)


# ---------------------------------------------------------------------------
# Filtered complexes, reduced once
# ---------------------------------------------------------------------------

def _chain_boundary(cc: ChainComplex, n: int, chain):
    """∂_n of a sparse chain over the n-cells."""
    return combine(cc.field, chain, cc.columns[n])


class _Summand(NamedTuple):
    """One interval summand [birth, death) of a module degree (death None:
    never dies); `low` names its representative cycle."""

    birth: int
    death: int | None
    low: int

    def overlaps(self, other: "_Summand") -> bool:
        end = min(math.inf if self.death is None else self.death,
                  math.inf if other.death is None else other.death)
        return max(self.birth, other.birth) < end


def _check_filtered(field: Field, entries, columns):
    """The differential respects entries and squares to zero.  Each degree's
    entries are in pivot order, so a column's latest entry is at its low."""
    low = field.kernel.low
    for n in range(1, len(entries)):
        for k, col in enumerate(columns[n]):
            if col and entries[n - 1][low(col)] > entries[n][k]:
                raise AssertionError("monotonicity of the filtered basis broken")
            if n > 1 and combine(field, col, columns[n - 1]):
                raise AssertionError(f"∂∂ != 0 between degrees {n} and {n - 2}")


class _Complex:
    """The mapping cone of inf(H) -> inf(X) as a filtered chain complex,
    reduced degree by degree.

    It is given the filtered bases hb of inf(H) and xb of inf(X).  Cone_n
    lists the basis hb[n-1] (the a-part) and then the basis xb[n] (the
    c-part), with d(a, c) = (-∂a, ι(a) + ∂c); its homology is that of
    inf(X) / inf(H).  The ambient and embedded modules are the cone of the
    zero map, hb = (), where Cone_n = xb[n] and d = ∂.  Once, when it is
    built, each degree's elements are renumbered in pivot order
    (`fields.pivot_order` of the entries; a-part element k moves to
    position[n][0][k], c-part element k to position[n][1][k], or stays at k
    when that table is None: no a-part and the entries already in pivot
    order, as for a basis of cells), so `entries`, `chains` (the c-part
    chain each element stands for), the reduction and the solves are all
    indexed by position.
    Module degrees are 0 .. len(xb)-1.

    Checked here: the differential respects entries (the filtration is
    monotone), d∘d = 0, and every boundary column's low is a cycle pivot
    (boundaries lie in the cycle space).
    """

    def __init__(self, cc: ChainComplex, hb: Sequence[FilteredBasis],
                 xb: Sequence[FilteredBasis]):
        self.cc = cc
        self.field = field = cc.field
        self.zero = zero = field.kernel.vector(field, ())
        none = FilteredBasis((), (), [])
        self.parts = [(hb[n - 1] if 0 < n <= len(hb) else none, xb[n] if n < len(xb) else none)
                      for n in range(len(xb) + 1)]
        self.position, self.entries, self.chains, columns = [], [], [], []
        for n, (a, c) in enumerate(self.parts):
            e = a.entries + c.entries
            order, position = pivot_order(e)
            shift = len(a.entries)
            moved = shift or order != list(range(len(e)))
            self.position.append((position[:shift], position[shift:] if moved else None))
            self.entries.append([e[k] for k in order])
            chains = (zero,) * shift + c.vectors
            self.chains.append([chains[k] for k in order])
            # d(v, 0) = (-∂v, v) and d(0, v) = (0, ∂v) in Cone_{n-1}; degree-0
            # columns are zero
            cols = ([self.lift(n - 1, v) for v in a.vectors]
                    + [self.coordinates(n - 1, zero, _chain_boundary(cc, n, v))
                       for v in c.vectors]
                    if n else [zero] * len(e))
            columns.append([cols[k] for k in order])
        entries = self.entries
        _check_filtered(field, entries, columns)
        # cycles[n]: V column of each zero column of degree n (every element
        # of degree 0, whose columns are empty); killers[n]: positive element
        # of degree n -> (killing element of degree n+1, its reduced column)
        self.cycles: list[dict] = []
        self.killers = killers = [{} for _ in entries]
        for n in range(len(entries)):
            lows, vs, reduced = reduce_columns(field, columns[n])
            cyc = {}
            for k, (low, v, r) in enumerate(zip(lows, vs, reduced)):
                if low is None:
                    cyc[k] = v
                elif low not in self.cycles[n - 1]:
                    raise AssertionError("boundary space not inside cycle space")
                else:
                    killers[n - 1][low] = (k, r)
            self.cycles.append(cyc)
        # reps[n]: the representative of each degree-n cycle pivot, keyed by
        # its low; each owns its own low in `solve`
        self.reps: list[dict] = []
        self.owners: list[dict] = []
        self.summands: list[list[_Summand]] = []
        for n in range(len(xb)):
            reps, summands = {}, []
            for s, v in self.cycles[n].items():
                birth = entries[n][s]
                if s in killers[n]:
                    t, reps[s] = killers[n][s]
                    if entries[n + 1][t] > birth:
                        summands.append(_Summand(birth, entries[n + 1][t], s))
                else:
                    reps[s] = v
                    summands.append(_Summand(birth, None, s))
            summands.sort(key=lambda u: (u.birth, math.inf if u.death is None else u.death,
                                         u.low))
            self.reps.append(reps)
            self.owners.append(dict(zip(reps, reps)))
            self.summands.append(summands)

    def chain(self, n: int, coords):
        return combine(self.field, coords, self.chains[n])

    def representative(self, n: int, summand: _Summand):
        """The representative cycle of a summand, as a chain."""
        return self.chain(n, self.reps[n][summand.low])

    def coordinates(self, n: int, a, c):
        """The vector over positions of the Cone_n element (a, c), for
        chains a of inf_{n-1}(H) and c of inf_n(X)."""
        ha, xc = self.parts[n]
        pa, pc = self.position[n]
        relabel = self.field.kernel.relabel
        out = xc.coordinates(self.field, c)
        if not a:
            return out if pc is None else relabel(out, pc)
        return relabel(out, pc, relabel(ha.coordinates(self.field, a), pa))

    def lift(self, n: int, chain):
        """Cone_n coordinates of (-∂c, c) for a chain c of inf_n(X): the cone
        cycle that a module cycle c stands for.  The a-part is solved only
        where inf_{n-1}(H) has basis elements; elsewhere a is zero on every
        cone cycle, and the reduction against the representatives is what
        checks that c is a cycle."""
        f = self.field
        a = (axpy(f, f.kernel.vector(f, ()), f.one, _chain_boundary(self.cc, n, chain))
             if self.parts[n][0].entries else self.zero)
        return self.coordinates(n, a, chain)

    def solve(self, n: int, chain):
        """Coefficients of a degree-n cycle of the module, given by its
        chain, in the representatives, as a vector over their lows: its cone
        coordinates, then one triangular solve by low."""
        low, out, _ = reduce_vector(self.field, self.lift(n, chain), self.owners[n],
                                    self.reps[n])
        if low is not None:
            raise AssertionError("arrow image outside the target cycle space")
        return out

    def cycle_chains(self, n: int) -> list[tuple[int, dict]]:
        """(entry, chain) generators of the cycle spaces Z(t) in degree n."""
        return [(self.entries[n][k], self.chain(n, v)) for k, v in self.cycles[n].items()]

    def boundary_chains(self, n: int) -> list[tuple[int, dict]]:
        """(entry, chain) bases of the boundary spaces B(t) in degree n: the
        reduced killing columns."""
        return [(self.entries[n + 1][t], self.chain(n, r))
                for t, r in self.killers[n].values()]


def _bases(cc: ChainComplex, entry) -> tuple[FilteredBasis, ...]:
    """The filtered bases of inf(·) of the marking entering at `entry`, in
    every degree, memoised on the chain complex under that entry table."""
    key = ("bases", entry)
    if key not in cc.memo:
        cc.memo[key] = tuple(inf_basis(cc, entry, n) for n in range(cc.dim_count))
    return cc.memo[key]


def _complex(filt: Filtration, field: Field, which: str) -> _Complex:
    """The reduced filtered complex of one module kind, memoised on the chain
    complex under the entry tables of its a-part and c-part: the relative
    module is the cone of inf(H(t)) -> inf(X(t)), the ambient and embedded
    ones the cone of the zero map into inf(X(t)) and inf(H(t)).  Under a full
    marking the two tables are equal, so the embedded module is the ambient
    one."""
    if which not in MODULE_KINDS:
        raise ValueError(f"unknown module kind {which!r}")
    cc = filt.chain_complex(field)
    relative = which == "relative"
    h_entry = filt.marked if relative else None
    x_entry = filt.marked if which == "embedded" else filt.entry
    key = ("cone", h_entry, x_entry)
    if key not in cc.memo:
        cc.memo[key] = _Complex(cc, _bases(cc, h_entry) if relative else (),
                                _bases(cc, x_entry))
    return cc.memo[key]


def _summands(filt: Filtration, field: Field, which: str, degree: int) -> list[_Summand]:
    if filt.steps == 0 or not 0 <= degree < filt.sh.x.dim_count:
        return []
    return _complex(filt, field, which).summands[degree]


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


def full_barcode(filt: Filtration, field: Field, which: str) -> Barcode:
    """Barcode across all degrees of the Δ-set: each interval summand of the
    module's reduction is one copy of its interval."""
    if which not in MODULE_KINDS:
        raise ValueError(f"unknown module kind {which!r}")
    acc: dict[tuple[int, float, float], int] = {}
    for n in range(filt.sh.x.dim_count):
        for s in _summands(filt, field, which, n):
            key = (n, filt.times[s.birth],
                   math.inf if s.death is None else filt.times[s.death])
            acc[key] = acc.get(key, 0) + 1
    return Barcode(which, tuple(Bar(n, b, d, m) for (n, b, d), m in sorted(acc.items())))


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
    return tuple(IntervalId(which, degree, k, filt.times[s.birth],
                            math.inf if s.death is None else filt.times[s.death])
                 for k, s in enumerate(summands))


def _arrow_ends(arrow: str, degree: int):
    if arrow not in ARROWS:
        raise ValueError(f"unknown arrow {arrow!r}; one of {ARROWS}")
    if arrow == "J":
        return ("embedded", degree), ("ambient", degree)
    if arrow == "P":
        return ("ambient", degree), ("relative", degree)
    return ("relative", degree), ("embedded", degree - 1)


def _arrow_coefficients(filt: Filtration, field: Field, arrow: str, degree: int):
    """(source summands, target summands, coefficients): coefficients[a] is
    {target summand index: nonzero scalar} of the arrow's image of source
    representative a, written in the target's representatives."""
    src, dst = _arrow_ends(arrow, degree)
    src_sum = _summands(filt, field, *src)
    dst_sum = _summands(filt, field, *dst)
    coeffs: list[dict] = []
    if src_sum and dst_sum:
        scx, dcx = _complex(filt, field, src[0]), _complex(filt, field, dst[0])
        column = {s.low: b for b, s in enumerate(dst_sum)}
        for s in src_sum:
            chain = scx.representative(degree, s)
            if arrow == "boundary":
                chain = _chain_boundary(filt.chain_complex(field), degree, chain)
            solved = field.kernel.decode(dcx.solve(dst[1], chain))
            coeffs.append({column[low]: c for low, c in solved.items() if low in column})
    return src_sum, dst_sum, coeffs


def correlation_matrix(filt: Filtration, field: Field, arrow: str,
                       degree: int) -> CorrelationMatrix:
    """0/1 matrix over interval summands: entry (α, β) is 1 iff the arrow's
    image of α's representative, written in the target's representatives,
    has a nonzero coefficient on β and the two intervals overlap.  The
    representatives are interval-adapted, so that coefficient is the arrow's
    block from α to β at every critical value where both are alive.

    J : embedded -> ambient and P : ambient -> relative are degree-preserving;
    the connecting arrow maps relative degree n to embedded degree n-1.
    """
    src, dst = _arrow_ends(arrow, degree)
    src_sum, dst_sum, coeffs = _arrow_coefficients(filt, field, arrow, degree)
    entries = frozenset((a, b) for a, row in enumerate(coeffs) for b in row
                        if src_sum[a].overlaps(dst_sum[b]))
    return CorrelationMatrix(arrow, _interval_ids(filt, src[0], src[1], src_sum),
                             _interval_ids(filt, dst[0], dst[1], dst_sum), entries)


# ---------------------------------------------------------------------------
# Homology bases and induced maps
# ---------------------------------------------------------------------------

def _one_step_module(sh: SuperHypergraph, field: Field, n: int):
    """(reduced complex, degree-n summands) of the embedded module of the
    one-step filtration, in which every cell enters at step 0: no summand
    dies, and their representatives are a basis of the embedded homology."""
    filt = Filtration(sh, (0.0,), [[0.0] * count for count in sh.x.counts])
    return _complex(filt, field, "embedded"), _summands(filt, field, "embedded", n)


def embedded_homology_basis(sh: SuperHypergraph, field: Field, n: int):
    """(representatives, boundaries) for the degree-n embedded homology:
    representative cycles as chains {n-cell: scalar}, and the span of the
    boundaries of the infimum complex, chosen deterministically."""
    cx, summands = _one_step_module(sh, field, n)
    killed = cx.boundary_chains(n) if 0 <= n < sh.x.dim_count else ()
    return ([field.kernel.decode(cx.representative(n, s)) for s in summands],
            Span(field, (chain for _, chain in killed)))


def induced_homology_map(m: DeltaMorphism, source: SuperHypergraph,
                         target: SuperHypergraph, field: Field,
                         degree: int) -> FieldMatrix:
    """Matrix of the induced map on embedded homology in the bases of
    `embedded_homology_basis`: column k holds the pushed-forward k-th source
    representative, written in the target's representatives."""
    report = validate_morphism(m, source.h, target.h)
    if not report.ok:
        raise ValueError(f"invalid morphism: {report.failures[0]}")
    scx, src = _one_step_module(source, field, degree)
    dcx, dst = _one_step_module(target, field, degree)
    kernel = field.kernel
    units = [kernel.vector(field, ((t, 1),)) for t in m.maps[degree]]
    cols = []
    for s in src:
        solved = kernel.decode(dcx.solve(degree,
                                         combine(field, scx.representative(degree, s), units)))
        cols.append([solved.get(t.low, field.zero) for t in dst])
    return FieldMatrix.from_columns(field, cols, len(dst))


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


def _step_counts(entries, steps: int) -> list[int]:
    """The number of entries at or before each step."""
    new = [0] * steps
    for i in entries:
        new[i] += 1
    return list(itertools.accumulate(new))


def _rank_profile(field: Field, gens: list[tuple[int, dict]], steps: int) -> list[int]:
    """dim span{v : (i, v) in gens, i <= s} at every step s, from one
    reduction of the generators in entry order."""
    gens = sorted(gens, key=lambda g: g[0])
    lows = reduce_columns(field, [v for _, v in gens], with_v=False)[0]
    return _step_counts([i for (i, _), low in zip(gens, lows) if low is not None], steps)


def triangle_report(filt: Filtration, field: Field) -> TriangleReport:
    """Rank bookkeeping of the long exact sequence
    ... -> emb_n -> amb_n -> rel_n -> emb_{n-1} -> ... at every critical
    value; flags any failure of exactness (there must be none).

    With Z and B the cycle and boundary spaces of each module as chains of
    X_n (the relative ones presenting inf(X)/inf(H)), each module's
    dimension dim Z(t) - dim B(t) is read off its own reduction: its cycle
    pivots and its killing columns, each entering at one step, are bases of
    Z(t) and B(t).  The ranks are dim(Z' + B)(t) - dim B(t), each from one
    reduction of a sum of two modules' spaces: rank J from (Z_emb, B_amb),
    rank P from (Z_amb, B_rel) and the connecting rank from (∂Z_rel, B_emb
    one degree down).  So exactness checks the three modules' reductions
    against three independent ones."""
    steps, nd = filt.steps, filt.sh.x.dim_count
    if not steps:
        return TriangleReport((), True)
    cc = filt.chain_complex(field)
    cxs = {w: _complex(filt, field, w) for w in MODULE_KINDS}
    z = {(w, n): cxs[w].cycle_chains(n) for w in MODULE_KINDS for n in range(nd)}
    b = {(w, n): cxs[w].boundary_chains(n) for w in MODULE_KINDS for n in range(nd)}

    def dim(basis):
        return _step_counts([i for i, _ in basis], steps)

    def quotient(span, bs):
        return [s - t for s, t in zip(span, dim(bs))]

    def rank(zs, bs):
        return quotient(_rank_profile(field, zs + bs, steps), bs)

    zero = [0] * steps
    connecting = [zero] + [
        rank([(i, _chain_boundary(cc, n, v)) for i, v in z["relative", n]],
             b["embedded", n - 1])
        for n in range(1, nd)] + [zero]
    rows = []
    exact = True
    for n in range(nd):
        dims = [quotient(dim(z[w, n]), b[w, n]) for w in ("embedded", "ambient", "relative")]
        rank_j = rank(z["embedded", n], b["ambient", n])
        rank_p = rank(z["ambient", n], b["relative", n])
        for i in range(steps):
            dim_e, dim_a, dim_r = (d[i] for d in dims)
            ok_amb = rank_j[i] + rank_p[i] == dim_a
            ok_rel = rank_p[i] + connecting[n][i] == dim_r
            ok_emb = connecting[n + 1][i] + rank_j[i] == dim_e
            exact = exact and ok_amb and ok_rel and ok_emb
            rows.append(TriangleRow(n, i, filt.times[i], dim_e, dim_a, dim_r,
                                    rank_j[i], rank_p[i], connecting[n][i],
                                    ok_amb, ok_rel, ok_emb))
    return TriangleReport(tuple(rows), exact)


# ---------------------------------------------------------------------------
# Persistent partition homology
# ---------------------------------------------------------------------------

def partition_persistence(fam, clustering, scheme, field: Field) -> dict[str, Barcode]:
    """Partition faces + filtration + the three barcode families."""
    from .faceops import partition_faces
    filt = build_filtration(partition_faces(fam, clustering), scheme)
    return {which: full_barcode(filt, field, which) for which in MODULE_KINDS}
