"""Persistent filtrations and super-persistent homology.

A regular scoring scheme on the working graph filters a dominated
super-hypergraph (H, X) by sublevel sets X(t); ambient, embedded and
relative embedded homology at the critical values form persistence modules
whose interval decompositions give three barcodes, linked by the exact
triangle J : emb -> ambient, P : ambient -> relative, and the degree -1
connecting map back to embedded homology.

A filtration stores one entry step per cell.  Each module is the homology
of a filtered chain complex written in a filtered basis (every basis
element enters at one step), and all three are read off one sparse
lowest-one column reduction per degree (`fields.reduce_columns`,
Zomorodian–Carlsson 2005):

- ambient: the infimum complex inf(X(t)); under a regular scheme X(t) is a
  Δ-subset and the basis is the cells themselves;
- embedded: the infimum complex inf(H(t));
- relative: the mapping cone of inf(H(t)) -> inf(X(t)), with
  Cone_n = inf_{n-1}(H) ⊕ inf_n(X) and d(a, c) = (-∂a, ι(a) + ∂c), whose
  homology is that of inf(X(t)) / inf(H(t)) (relative persistence,
  Cohen-Steiner–Edelsbrunner–Harer 2009).

The filtered basis of an infimum complex (`homology.inf_basis`) comes from
the same reduction: the marked n-cells, in order of entry, are reduced
against rows ordered by entry (never-marked rows last); the V column of
cell σ enters at the entry of σ, or of its low when that is later, and is
dropped if that is never.  The basis vectors have distinct lead cells, so
coordinates in the basis are a triangular solve by lead
(`fields.reduce_vector`, the echelon step of the column reduction).

In a complex reduced in (entry, position) order, a pair (low ρ, column τ)
is the bar [e(ρ), e(τ)), kept when it has positive length, with the
reduced column as its representative; an unpaired zero column σ is the bar
[e(σ), ∞) with its V column as representative.  These representatives
have distinct lows, so a cycle is written in them by one triangular solve
by low, whatever the step: that gives the correlation matrices.  The
triangle reads each module's dimension dim Z(t) - dim B(t) off the same
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
from .fields import Field, FieldMatrix, Span, combine, reduce_columns, reduce_vector
from .homology import ChainComplex, FilteredBasis, boundary_matrices, inf_basis
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

    entry[n][j] is the step at which cell (n, j) joins X(t): the first i with
    scores[n][j] <= times[i], or math.inf if there is none.  The chain
    complexes and reduced filtered complexes built on it are memoised.
    """

    __slots__ = ("sh", "times", "entry", "_cc", "_memo")

    def __init__(self, sh: SuperHypergraph, times: Sequence[float],
                 scores: Sequence[Sequence[float]]):
        self.sh = sh
        self.times = tuple(times)
        steps = len(self.times)
        self.entry = tuple(
            tuple(i if i < steps else math.inf
                  for i in (bisect.bisect_left(self.times, s) for s in row))
            for row in scores)
        self._cc: dict[Field, ChainComplex] = {}
        self._memo: dict = {}

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
    return Filtration(sh, times, scores)


# ---------------------------------------------------------------------------
# Filtered bases of infimum complexes
# ---------------------------------------------------------------------------

def _chain_boundary(cc: ChainComplex, n: int, chain: dict) -> dict:
    """∂_n of a sparse chain {n-cell: scalar}."""
    return combine(cc.field, chain, cc.columns[n])


# ---------------------------------------------------------------------------
# Filtered complexes, reduced once
# ---------------------------------------------------------------------------

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
    """The differential respects entries and squares to zero."""
    for n in range(1, len(entries)):
        for k, col in enumerate(columns[n]):
            if any(entries[n - 1][r] > entries[n][k] for r in col):
                raise AssertionError("monotonicity of the filtered basis broken")
            if n > 1 and combine(field, col, columns[n - 1]):
                raise AssertionError(f"∂∂ != 0 between degrees {n} and {n - 2}")


class _Complex:
    """A filtered chain complex in a filtered basis, reduced degree by degree.

    entries[n][k] is the entry step of basis element k of degree n;
    columns[n][k] is its differential as {element of degree n-1: scalar};
    chains[n][k] is the chain of X_n it stands for (for the cone, the
    inf(X) part).  `coordinates(n, chain)` writes a cycle of the module,
    given by its chain, in the basis.  Module degrees are 0 .. top-1.

    Checked here: the differential respects entries (the filtration is
    monotone), d∘d = 0, and every boundary column's low is a cycle pivot
    (boundaries lie in the cycle space).
    """

    def __init__(self, field: Field, entries, columns, chains, coordinates, top: int):
        self.field = field
        self.entries = entries
        self.chains = chains
        self.coordinates = coordinates
        self.rank = [{k: p for p, k in enumerate(sorted(range(len(e)),
                                                       key=lambda k: (e[k], k)))}
                     for e in entries]
        _check_filtered(field, entries, columns)
        f = field
        # cycles[n]: V column of each zero column of degree n; killers[n]:
        # positive element of degree n -> (killing element of degree n+1,
        # its reduced column)
        self.cycles: list[dict] = []
        self.killers = killers = [{} for _ in entries]
        for n, e in enumerate(entries):
            if n == 0:
                self.cycles.append({k: {k: f.one} for k in range(len(e))})
                continue
            order = sorted(range(len(e)), key=self.rank[n].__getitem__)
            lows, vs, reduced = reduce_columns(f, [columns[n][k] for k in order],
                                               self.rank[n - 1])
            cyc = {}
            for k, low, v, r in zip(order, lows, vs, reduced):
                if low is None:
                    cyc[k] = {order[p]: c for p, c in v.items()}
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
        for n in range(top):
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
                                         self.rank[n][u.low]))
            self.reps.append(reps)
            self.owners.append(dict(zip(reps, reps)))
            self.summands.append(summands)

    def chain(self, n: int, coords: dict) -> dict:
        return combine(self.field, coords, self.chains[n])

    def representative(self, n: int, summand: _Summand) -> dict:
        """The representative cycle of a summand, as a chain."""
        return self.chain(n, self.reps[n][summand.low])

    def solve(self, n: int, chain: dict) -> dict:
        """Coefficients {low: scalar} of a degree-n cycle of the module,
        given by its chain, in the representatives: its basis coordinates,
        then one triangular solve by low."""
        low, out = reduce_vector(self.field, self.coordinates(n, chain), self.owners[n],
                                 self.reps[n], self.rank[n].__getitem__)
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


def _bases(filt: Filtration, field: Field, which: str) -> tuple[FilteredBasis, ...]:
    key = (field, "bases", which)
    if key not in filt._memo:
        cc = filt.chain_complex(field)
        entry = filt.entry
        if which == "embedded":
            h = filt.sh.h
            entry = tuple(tuple(e if j in h.at(n) else math.inf for j, e in enumerate(row))
                          for n, row in enumerate(entry))
        filt._memo[key] = tuple(inf_basis(cc, entry, n) for n in range(cc.dim_count))
    return filt._memo[key]


def _basis_complex(cc: ChainComplex, bases: Sequence[FilteredBasis]) -> _Complex:
    f = cc.field
    columns = [[{} for _ in b.vectors] if n == 0 else
               [bases[n - 1].coordinates(f, _chain_boundary(cc, n, v)) for v in b.vectors]
               for n, b in enumerate(bases)]
    return _Complex(f, [b.entries for b in bases], columns, [b.vectors for b in bases],
                    lambda n, chain: bases[n].coordinates(f, chain), len(bases))


def _cone(cc: ChainComplex, hb: Sequence[FilteredBasis], xb: Sequence[FilteredBasis]) -> _Complex:
    """Mapping cone of inf(H) -> inf(X): Cone_n lists the inf_{n-1}(H)
    basis (a-part) and then the inf_n(X) basis (c-part), with
    d(a, c) = (-∂a, ι(a) + ∂c)."""
    f = cc.field
    nd = len(xb)
    none = FilteredBasis((), (), {}, {})

    def part(bases, n):
        return bases[n] if 0 <= n < nd else none

    def pair(n, a, c):
        """Cone_n coordinates of (a, c), for chains a ∈ inf_{n-1}(H) and
        c ∈ inf_n(X)."""
        out = part(hb, n - 1).coordinates(f, a)
        shift = len(part(hb, n - 1).entries)
        out.update((shift + r, s) for r, s in part(xb, n).coordinates(f, c).items())
        return out

    def minus_boundary(n, chain):
        return {i: f.neg(s) for i, s in _chain_boundary(cc, n, chain).items()}

    entries, columns, chains = [], [], []
    for n in range(nd + 1):
        a, c = part(hb, n - 1), part(xb, n)
        entries.append(a.entries + c.entries)
        columns.append([pair(n - 1, minus_boundary(n - 1, v), v) for v in a.vectors]
                       + [pair(n - 1, {}, _chain_boundary(cc, n, v)) for v in c.vectors])
        chains.append(({},) * len(a.vectors) + c.vectors)
    # a relative cycle c stands for the cone cycle (-∂c, c)
    return _Complex(f, entries, columns, chains,
                    lambda n, chain: pair(n, minus_boundary(n, chain), chain), nd)


def _complex(filt: Filtration, field: Field, which: str) -> _Complex:
    """The reduced filtered complex of one module kind, memoised."""
    if which not in MODULE_KINDS:
        raise ValueError(f"unknown module kind {which!r}")
    key = (field, which)
    if key not in filt._memo:
        cc = filt.chain_complex(field)
        if which == "relative":
            cx = _cone(cc, _bases(filt, field, "embedded"), _bases(filt, field, "ambient"))
        else:
            cx = _basis_complex(cc, _bases(filt, field, which))
        filt._memo[key] = cx
    return filt._memo[key]


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
            solved = dcx.solve(dst[1], chain)
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
    return ([cx.representative(n, s) for s in summands],
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
    if not src:
        return FieldMatrix.zeros(field, len(dst), 0)
    units = [{t: field.one} for t in m.maps[degree]]
    cols = []
    for s in src:
        solved = dcx.solve(degree, combine(field, scx.representative(degree, s), units))
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
    lows = reduce_columns(field, [v for _, v in gens])[0]
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

def partition_persistence(fam, clustering, scheme, field: Field,
                          experimental: bool = False) -> dict[str, Barcode]:
    """Partition faces + filtration + the three barcode families."""
    from .faceops import partition_faces
    sh = partition_faces(fam, clustering)
    filt = build_filtration(sh, scheme, experimental=experimental)
    return {which: full_barcode(filt, field, which) for which in MODULE_KINDS}
