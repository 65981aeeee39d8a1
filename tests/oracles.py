"""Independent oracles used to pin expected values.

Everything here is deliberately written from scratch against the raw
definitions (bitmask enumeration, forward elimination, fixed-point closure)
so the main library is checked by a second route, not by itself.  Two
exceptions read library pieces but compute by another route: the rank
inclusion–exclusion barcode, which reads the library's (Z, B) families but
computes bars from ranks of dense composite maps instead of the interval
decomposition, and the geometric gap homology, which takes the library's
closure, core and ∂ but reduces the quotient matrices on closure ∖ core
instead of the relative (Z, B) spaces.  The scanning graph lookups and the
two-pass face closure are the routes the library's indexed ones replaced:
they read a graph's incidence map or build the library's `DeltaSet`, but
scan every edge per query and call face_fn twice per cell.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from superph.delta import (DeltaIdentityError, DeltaSet, DeltaStructureError,
                           GradedSubset, cell_sort_key, delta_closure,
                           max_delta_subset)
from superph.fields import (Field, FieldMatrix, express_in_vectors,
                            extend_independent, rank as matrix_rank)
from superph.homology import boundary_matrices
from superph.persistence import Bar, Barcode


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
        level = filt.level_h[i] if marked_only else filt.level_x[i]
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
            self._rank_cache[key] = matrix_rank(self.composite(i, j))
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
    zb = filt.zb_family(field, which, degree)
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
            bd = cc.boundaries[n]
            for jj, j in enumerate(idxs[n]):
                for i, v in enumerate(bd.column(j)):
                    if v and i in pos[n - 1]:
                        ent[pos[n - 1][i]][jj] = v
        mats.append(FieldMatrix.from_rows(field, ent) if rows
                    else FieldMatrix.zeros(field, 0, cols))
    out = []
    for n in range(x.dim_count):
        z = len(idxs[n]) - matrix_rank(mats[n])
        b = matrix_rank(mats[n + 1]) if n + 1 < x.dim_count else 0
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
