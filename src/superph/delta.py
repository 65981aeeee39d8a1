"""Graded cell structures: Δ-sets, graded subsets and super-hypergraphs.

A Δ-set is a graded family of cells with face maps d_i : X_n -> X_{n-1}
(0 <= i <= n) satisfying d_i d_j = d_j d_{i+1} for i >= j.  A
super-hypergraph is a Δ-set together with a marked graded subset of its
cells; all homology in this package is computed from such pairs.

Cells are addressed as (dim, index) pairs.  Labels are opaque payloads
(vertex tuples, subgraphs, ...) so the same core serves simplicial
complexes, clique Δ-sets and subgraph collections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

CellId = tuple[int, int]


def cell_sort_key(obj):
    """Total order on heterogeneous label atoms, for deterministic indexing."""
    key = getattr(obj, "key", None)
    if key is not None and not isinstance(obj, type):
        return cell_sort_key(key)
    if isinstance(obj, bool):
        return (0, int(obj))
    if isinstance(obj, (int, float, Fraction)):
        return (0, obj)
    if isinstance(obj, str):
        return (1, obj)
    if isinstance(obj, tuple):
        return (2, tuple(cell_sort_key(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return (3, tuple(sorted(cell_sort_key(x) for x in obj)))
    return (9, repr(obj))


class DeltaStructureError(ValueError):
    """Malformed Δ-set data (shape errors, not identity violations)."""


class DeltaIdentityError(ValueError):
    """A constructor produced face maps violating the Δ-identity."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        first = report.violations[0] if report.violations else None
        msg = "Δ-identity violated"
        if first:
            cell, i, j = first
            msg += f" at cell {cell}, (i={i}, j={j})"
        if report.structural:
            msg += f"; structural errors: {report.structural[0]}"
        super().__init__(msg)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    structural: tuple[str, ...] = ()
    violations: tuple[tuple[CellId, int, int], ...] = ()


class DeltaSet:
    """Graded cell sets with face maps.

    counts[n] is the number of n-cells; faces[n][j] is the ordered face list
    (d_0 .. d_n) of the j-th n-cell, as indices into dimension n-1.
    """

    __slots__ = ("counts", "faces", "labels")

    def __init__(self, counts: Sequence[int], faces: Sequence[Sequence[Sequence[int]]],
                 labels: Sequence[Sequence] | None = None):
        counts = list(counts)
        while counts and counts[-1] == 0:
            counts.pop()
        self.counts = tuple(counts)
        norm_faces: list[tuple] = []
        for n in range(len(self.counts)):
            if n == 0:
                norm_faces.append(())
                continue
            fl = faces[n] if n < len(faces) else ()
            if len(fl) != self.counts[n]:
                raise DeltaStructureError(
                    f"dimension {n}: {len(fl)} face lists for {self.counts[n]} cells")
            rows = []
            for j, row in enumerate(fl):
                row = tuple(int(x) for x in row)
                if len(row) != n + 1:
                    raise DeltaStructureError(
                        f"cell ({n},{j}): face list has length {len(row)}, expected {n + 1}")
                rows.append(row)
            norm_faces.append(tuple(rows))
        self.faces = tuple(norm_faces)
        if labels is None:
            self.labels = None
        else:
            lab = []
            for n in range(len(self.counts)):
                ln = tuple(labels[n]) if n < len(labels) else ()
                if len(ln) != self.counts[n]:
                    raise DeltaStructureError(f"dimension {n}: label count mismatch")
                lab.append(ln)
            self.labels = tuple(lab)

    @property
    def dim_count(self) -> int:
        return len(self.counts)

    @property
    def top_dim(self) -> int:
        return len(self.counts) - 1

    def n_cells(self, dim: int) -> int:
        return self.counts[dim] if 0 <= dim < len(self.counts) else 0

    def total_cells(self) -> int:
        return sum(self.counts)

    def face(self, dim: int, idx: int, i: int) -> int:
        return self.faces[dim][idx][i]

    def label(self, dim: int, idx: int):
        if self.labels is None:
            raise ValueError("Δ-set carries no labels")
        return self.labels[dim][idx]

    def cells(self) -> Iterable[CellId]:
        for n, c in enumerate(self.counts):
            for j in range(c):
                yield (n, j)

    def with_labels(self, labels) -> "DeltaSet":
        return DeltaSet(self.counts, self.faces, labels)

    def validate(self) -> ValidationReport:
        """Check face-reference ranges, then every instance of the Δ-identity."""
        structural = []
        for n in range(1, self.dim_count):
            below = self.counts[n - 1]
            for j, row in enumerate(self.faces[n]):
                for i, t in enumerate(row):
                    if not (0 <= t < below):
                        structural.append(
                            f"cell ({n},{j}): d_{i} -> index {t} out of range [0,{below})")
        if structural:
            return ValidationReport(False, tuple(structural), ())
        violations = []
        for n in range(2, self.dim_count):
            for x in range(self.counts[n]):
                row = self.faces[n][x]
                for j in range(n + 1):
                    for i in range(j, n):
                        # d_i d_j = d_j d_{i+1} on an n-cell, i >= j
                        lhs = self.faces[n - 1][row[j]][i]
                        rhs = self.faces[n - 1][row[i + 1]][j]
                        if lhs != rhs:
                            violations.append(((n, x), i, j))
        return ValidationReport(not violations, (), tuple(violations))

    def __eq__(self, other):
        return (isinstance(other, DeltaSet) and self.counts == other.counts
                and self.faces == other.faces)

    def __hash__(self):
        return hash((self.counts, self.faces))

    def __repr__(self):
        return f"DeltaSet(counts={list(self.counts)})"


class GradedSubset:
    """Per-dimension sets of cell indices into a host Δ-set."""

    __slots__ = ("members",)

    def __init__(self, members: Mapping[int, Iterable[int]] = ()):
        md = {}
        for dim, idxs in dict(members).items():
            s = frozenset(int(i) for i in idxs)
            if s:
                md[int(dim)] = s
        self.members = md

    @classmethod
    def from_cells(cls, cells: Iterable[CellId]) -> "GradedSubset":
        md: dict[int, set[int]] = {}
        for dim, idx in cells:
            md.setdefault(dim, set()).add(idx)
        return cls(md)

    def at(self, dim: int) -> frozenset[int]:
        return self.members.get(dim, frozenset())

    def dims(self) -> list[int]:
        return sorted(self.members)

    def cells(self) -> list[CellId]:
        return [(d, i) for d in sorted(self.members) for i in sorted(self.members[d])]

    def __contains__(self, cell: CellId) -> bool:
        dim, idx = cell
        return idx in self.members.get(dim, frozenset())

    def __len__(self) -> int:
        return sum(len(s) for s in self.members.values())

    def __bool__(self) -> bool:
        return bool(self.members)

    def union(self, other: "GradedSubset") -> "GradedSubset":
        dims = set(self.members) | set(other.members)
        return GradedSubset({d: self.at(d) | other.at(d) for d in dims})

    def intersection(self, other: "GradedSubset") -> "GradedSubset":
        dims = set(self.members) & set(other.members)
        return GradedSubset({d: self.at(d) & other.at(d) for d in dims})

    def issubset(self, other: "GradedSubset") -> bool:
        return all(s <= other.at(d) for d, s in self.members.items())

    def __eq__(self, other):
        return isinstance(other, GradedSubset) and self.members == other.members

    def __hash__(self):
        return hash(tuple(sorted((d, s) for d, s in self.members.items())))

    def __repr__(self):
        return f"GradedSubset({{{', '.join(f'{d}: {sorted(s)}' for d, s in sorted(self.members.items()))}}})"


def full_subset(x: DeltaSet) -> GradedSubset:
    return GradedSubset({n: range(x.counts[n]) for n in range(x.dim_count)})


class SuperHypergraph:
    """A Δ-set together with a marked graded subset of its cells."""

    __slots__ = ("x", "h")

    def __init__(self, x: DeltaSet, h: GradedSubset):
        for dim, idxs in h.members.items():
            if dim >= x.dim_count or (idxs and max(idxs) >= x.counts[dim]):
                raise DeltaStructureError(
                    f"marked subset references missing cells in dimension {dim}")
        self.x = x
        self.h = h

    def __repr__(self):
        return f"SuperHypergraph(x={self.x!r}, |h|={len(self.h)})"


class DeltaMorphism:
    """A dimension-preserving cell map between Δ-sets."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: DeltaSet, target: DeltaSet,
                 maps: Sequence[Sequence[int]]):
        self.source = source
        self.target = target
        norm = []
        for n in range(source.dim_count):
            row = tuple(int(i) for i in (maps[n] if n < len(maps) else ()))
            if len(row) != source.counts[n]:
                raise DeltaStructureError(f"dimension {n}: map covers {len(row)} of "
                                          f"{source.counts[n]} cells")
            norm.append(row)
        self.maps = tuple(norm)

    def apply(self, cell: CellId) -> CellId:
        dim, idx = cell
        return (dim, self.maps[dim][idx])

    def apply_subset(self, sub: GradedSubset) -> GradedSubset:
        return GradedSubset.from_cells(self.apply(c) for c in sub.cells())


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    failures: tuple[tuple, ...] = ()


def validate_morphism(m: DeltaMorphism,
                      source_marked: GradedSubset | None = None,
                      target_marked: GradedSubset | None = None) -> MorphismReport:
    """Check range, face-commutation and (optionally) marked-set preservation."""
    failures = []
    for n in range(m.source.dim_count):
        if n >= m.target.dim_count and m.source.counts[n] > 0:
            failures.append(("out_of_range", (n, 0)))
            continue
        for j, t in enumerate(m.maps[n]):
            if not (0 <= t < m.target.counts[n]):
                failures.append(("out_of_range", (n, j)))
    if failures:
        return MorphismReport(False, tuple(failures))
    for n in range(1, m.source.dim_count):
        for j in range(m.source.counts[n]):
            for i in range(n + 1):
                lhs = m.maps[n - 1][m.source.faces[n][j][i]]
                rhs = m.target.faces[n][m.maps[n][j]][i]
                if lhs != rhs:
                    failures.append(("face_mismatch", (n, j), i))
    if source_marked is not None and target_marked is not None:
        for cell in source_marked.cells():
            if m.apply(cell) not in target_marked:
                failures.append(("marked_not_preserved", cell))
    return MorphismReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Closures and the regular/complete predicates
# ---------------------------------------------------------------------------

def delta_closure(sh: SuperHypergraph) -> GradedSubset:
    """Smallest Δ-subset of sh.x containing sh.h: h plus all iterated faces."""
    x = sh.x
    seen: set[CellId] = set()
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


def max_delta_subset(sh: SuperHypergraph) -> GradedSubset:
    """Largest Δ-subset of sh.x contained in sh.h (cells whose iterated faces
    all stay in h), built bottom-up."""
    x, h = sh.x, sh.h
    kept: dict[int, set[int]] = {}
    for n in range(x.dim_count):
        good = set()
        for idx in h.at(n):
            if n == 0 or all(t in kept.get(n - 1, ()) for t in x.faces[n][idx]):
                good.add(idx)
        if good:
            kept[n] = good
    return GradedSubset(kept)


def is_regular(sh: SuperHypergraph) -> bool:
    """True iff every cell of x is an iterated face of a marked cell."""
    return delta_closure(sh) == full_subset(sh.x)


@dataclass(frozen=True)
class CompletenessResult:
    complete: bool
    certificate: tuple | None = None

    def __bool__(self):
        return self.complete


def is_complete(sh: SuperHypergraph) -> CompletenessResult:
    """Completeness criterion for a regular super-hypergraph.

    Vertex property: X_0 = H_0 when H_0 is nonempty, else |X_0| = 1.
    Matching-face property: distinct n-cells (n > 0) with identical face
    lists only when both are marked.  Raises on non-regular input.
    """
    if not is_regular(sh):
        raise ValueError("completeness criterion requires a regular super-hypergraph")
    x, h = sh.x, sh.h
    if x.dim_count == 0:
        return CompletenessResult(True, None)
    h0 = h.at(0)
    if h0:
        extra = sorted(set(range(x.counts[0])) - h0)
        if extra:
            return CompletenessResult(False, ("extra_vertex", (0, extra[0])))
    elif x.counts[0] != 1:
        return CompletenessResult(False, ("vertex_count", x.counts[0]))
    for n in range(1, x.dim_count):
        by_faces: dict[tuple, int] = {}
        hn = h.at(n)
        for j in range(x.counts[n]):
            row = x.faces[n][j]
            if row in by_faces:
                j0 = by_faces[row]
                if j0 not in hn or j not in hn:
                    return CompletenessResult(False, ("matching_pair", (n, j0), (n, j)))
            else:
                by_faces[row] = j
    return CompletenessResult(True, None)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def close_under_faces(seeds: Iterable[Hashable], grade: Callable[[Hashable], int],
                      face_fn: Callable[[Hashable], Sequence[Hashable]],
                      ) -> tuple[DeltaSet, GradedSubset]:
    """Least family containing *seeds* and closed under face_fn, as a Δ-set.

    grade(label) gives the dimension; face_fn(label) returns the ordered face
    labels (d_0 .. d_n) of a label of positive grade.  face_fn runs once per
    distinct label: the face lists of the discovery pass become the face
    rows, holding the first instance seen of each label.  Cells are indexed
    in deterministic label order per dimension.  Raises DeltaStructureError
    if a face has the wrong grade and DeltaIdentityError if the face maps
    violate the Δ-identity.
    """
    seed_list = list(seeds)
    canon: dict = {}  # label -> the first instance seen of it
    for lab in seed_list:
        canon.setdefault(lab, lab)
    stack = list(canon)
    by_dim: dict[int, list] = {}
    face_labels: dict[int, list] = {}  # id(label) -> canonical face labels
    while stack:
        lab = stack.pop()
        n = grade(lab)
        if n < 0:
            raise ValueError(f"negative grade for label {lab!r}")
        by_dim.setdefault(n, []).append(lab)
        if n > 0:
            row = []
            for fl in face_fn(lab):
                c = canon.get(fl)
                if c is None:
                    canon[fl] = c = fl
                    stack.append(fl)
                row.append(c)
            face_labels[id(lab)] = row
    if not by_dim:
        return DeltaSet((), (), ()), GradedSubset()
    top = max(by_dim)
    ordered = [sorted(by_dim.get(n, ()), key=cell_sort_key) for n in range(top + 1)]
    # Face rows hold canonical instances only, so identity finds their cells.
    index = {id(lab): (n, j) for n, labs in enumerate(ordered) for j, lab in enumerate(labs)}
    counts = [len(labs) for labs in ordered]
    faces: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
    for n in range(1, top + 1):
        for lab in ordered[n]:
            row = []
            for fl in face_labels.pop(id(lab)):
                fd, fi = index[id(fl)]
                if fd != n - 1:
                    raise DeltaStructureError(
                        f"face of a grade-{n} label has grade {fd}: {fl!r}")
                row.append(fi)
            faces[n].append(tuple(row))
    ds = DeltaSet(counts, faces, ordered)
    report = ds.validate()
    if not report.ok:
        raise DeltaIdentityError(report)
    marked = GradedSubset.from_cells(index[id(canon[lab])] for lab in seed_list)
    return ds, marked


def from_simplicial(complex_: Iterable[Iterable], order: Sequence | None = None) -> DeltaSet:
    """Δ-set of a simplicial complex (one cell per simplex, d_i deletes the
    i-th vertex in the total order).  The complex must be closed under
    nonempty subsets."""
    simplices = {frozenset(s) for s in complex_}
    if any(not s for s in simplices):
        raise ValueError("empty simplex not allowed")
    vertices = set().union(*simplices) if simplices else set()
    if order is None:
        order = sorted(vertices, key=cell_sort_key)
    pos = {v: i for i, v in enumerate(order)}
    missing = set(vertices) - set(pos)
    if missing:
        raise ValueError(f"order does not cover vertices: {sorted(missing, key=cell_sort_key)}")
    for s in simplices:
        if len(s) > 1:
            for v in s:
                if s - {v} not in simplices:
                    raise ValueError(f"complex not closed under subsets: missing face of "
                                     f"{tuple(sorted(s, key=cell_sort_key))}")

    def grade(lab):
        return len(lab) - 1

    def face_fn(lab):
        return [lab[:i] + lab[i + 1:] for i in range(len(lab))]

    seeds = [tuple(sorted(s, key=lambda v: pos[v])) for s in simplices]
    ds, _ = close_under_faces(seeds, grade, face_fn)
    return ds


def from_hypergraph(hyperedges: Iterable[Iterable], order: Sequence | None = None) -> SuperHypergraph:
    """Super-hypergraph of a hypergraph: parental Δ-set is the simplicial
    closure, marked cells are the hyperedges themselves."""
    edges = {frozenset(e) for e in hyperedges}
    if any(not e for e in edges):
        raise ValueError("hyperedges must be nonempty")
    closure = set()
    for e in edges:
        elems = sorted(e, key=cell_sort_key)
        n = len(elems)
        for mask in range(1, 1 << n):
            closure.add(frozenset(elems[i] for i in range(n) if mask >> i & 1))
    ds = from_simplicial(closure, order)
    label_index = {frozenset(ds.label(n, j)): (n, j) for n, j in ds.cells()}
    marked = GradedSubset.from_cells(label_index[e] for e in edges)
    return SuperHypergraph(ds, marked)


def hypergraph_cone(hyperedges: Iterable[Iterable], apex) -> list[frozenset]:
    """Join with a new apex vertex: E ∪ {e ∪ {apex}} ∪ {{apex}}."""
    edges = [frozenset(e) for e in hyperedges]
    if any(apex in e for e in edges):
        raise ValueError("apex already occurs in a hyperedge")
    out = set(edges)
    out.update(e | {apex} for e in edges)
    out.add(frozenset([apex]))
    return sorted(out, key=cell_sort_key)


def standard_simplex_delta(n: int) -> DeltaSet:
    """Δ-set of the full n-simplex on vertices 0..n."""
    simplices = []
    for mask in range(1, 1 << (n + 1)):
        simplices.append(frozenset(i for i in range(n + 1) if mask >> i & 1))
    return from_simplicial(simplices)
