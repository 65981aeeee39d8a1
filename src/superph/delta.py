"""Graded cell structures: Δ-sets, graded subsets and super-hypergraphs.

A Δ-set is a graded family of cells with face maps d_i : X_n -> X_{n-1}
(0 <= i <= n) satisfying d_i d_j = d_j d_{i+1} for i >= j.  A
super-hypergraph is a Δ-set together with a marked graded subset of its
cells; all homology in this package is computed from such pairs.

Cells are addressed as (dim, index) pairs.  Labels are opaque payloads
(vertex tuples, subgraphs, ...) so the same core serves simplicial
complexes, clique Δ-sets and subgraph collections.  Every construction on
graph data stores its labels as (vertex mask, edge mask) cells over a
graph's rank masks (with a third mask, the starting vertices, for
starting-vertex faces) together with that host, and decodes a subgraph
(or marked subgraph) only where a label is read (`DeltaSet.label`,
`DeltaSet.labels`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from operator import itemgetter, ne
from typing import AbstractSet, Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

CellId = tuple[int, int]


def cell_sort_key(obj):
    """Total order on heterogeneous label atoms, for deterministic indexing.

    An object with a `sort_key` attribute sorts by that value (a subgraph
    by its host's vertex and edge ranks); numbers, strings, tuples and sets
    sort by kind, then by value, tuples and sets element-wise."""
    own = getattr(obj, "sort_key", None)
    if own is not None and not isinstance(obj, type):
        return own
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


class ValidationReport(NamedTuple):
    ok: bool
    structural: tuple[str, ...] = ()
    violations: tuple[tuple[CellId, int, int], ...] = ()


class DeltaSet:
    """Graded cell sets with face maps.

    counts[n] is the number of n-cells; faces[n][j] is the ordered face list
    (d_0 .. d_n) of the j-th n-cell, as indices into dimension n-1.  When
    `host` is a graph, the stored labels `_labels` are (vertex mask, edge
    mask) cells over its ranks, or (vertex, edge, starting-vertex) mask
    triples, and `label` and `labels` decode them into subgraphs of it, or
    marked subgraphs (`MultiGraph._cell_subgraph`); otherwise they are the
    labels themselves.  `_complexes` holds the chain complex of each field
    (`homology.boundary_matrices`), built from the face rows once.
    """

    __slots__ = ("counts", "faces", "_labels", "host", "_report", "_complexes")

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
                row = tuple(map(int, row))
                if len(row) != n + 1:
                    raise DeltaStructureError(
                        f"cell ({n},{j}): face list has length {len(row)}, expected {n + 1}")
                rows.append(row)
            norm_faces.append(tuple(rows))
        self.faces = tuple(norm_faces)
        self._labels = _label_rows(self.counts, labels)
        self.host = None
        self._report = None
        self._complexes = {}

    @property
    def dim_count(self) -> int:
        return len(self.counts)

    def total_cells(self) -> int:
        return sum(self.counts)

    @property
    def labels(self) -> tuple[tuple, ...] | None:
        """The labels, one tuple per dimension, or None."""
        if self.host is None:
            return self._labels
        return tuple(tuple(map(self.host._cell_subgraph, row)) for row in self._labels)

    def label(self, dim: int, idx: int):
        if self._labels is None:
            raise ValueError("Δ-set carries no labels")
        lab = self._labels[dim][idx]
        return lab if self.host is None else self.host._cell_subgraph(lab)

    def cells(self) -> Iterable[CellId]:
        for n, c in enumerate(self.counts):
            for j in range(c):
                yield (n, j)

    @classmethod
    def _built(cls, counts: tuple, faces: tuple, labels, host=None,
               report: ValidationReport | None = None,
               complexes: dict | None = None) -> "DeltaSet":
        """Counts and face rows in normal form (no trailing zero count, int
        rows of length n + 1) kept as they are, labels as `with_labels`, and
        the validation report and chain complexes of those rows when they
        are known."""
        ds = cls.__new__(cls)
        ds.counts, ds.faces, ds.host, ds._report = counts, faces, host, report
        ds._complexes = {} if complexes is None else complexes
        ds._labels = _label_rows(counts, labels)
        return ds

    def with_labels(self, labels, host=None) -> "DeltaSet":
        """This Δ-set's counts and face rows, shared, with other labels (or
        none), stored over host when given; only the label counts are
        checked.  The validation report of the shared rows comes along, and
        so do their chain complexes, one dict for both Δ-sets."""
        return DeltaSet._built(self.counts, self.faces, labels, host, self._report,
                               self._complexes)

    def validate(self) -> ValidationReport:
        """Check face-reference ranges, then every instance of the Δ-identity.

        The face rows are immutable tuples, so the report is computed once,
        by `_check` on the first call, and kept: later calls return it
        without checking the rows again.  A failing report fails every
        caller that checks it."""
        if self._report is None:
            self._report = self._check()
        return self._report

    def _check(self) -> ValidationReport:
        """The validation report of the face rows, degree by degree.

        A degree whose references (as a set) span [0, count below) is in
        range; otherwise each reference outside it is reported, cell by
        cell, and the identity is not checked.  The identity
        d_i d_j = d_j d_{i+1} (i >= j) is checked by columns: slot j's face
        rows below[row[j]] over all n-cells, entry i of slot j against
        entry j of slot i + 1.  Only a degree with a failing column is
        walked cell by cell, for its violations by cell, then j, then i."""
        structural = []
        for n in range(1, self.dim_count):
            size = self.counts[n - 1]
            refs = set(chain.from_iterable(self.faces[n]))
            if refs and not (0 <= min(refs) and max(refs) < size):
                structural += [f"cell ({n},{j}): d_{i} -> index {t} out of range [0,{size})"
                               for j, row in enumerate(self.faces[n])
                               for i, t in enumerate(row) if not 0 <= t < size]
        if structural:
            return ValidationReport(False, tuple(structural), ())
        violations = []
        for n in range(2, self.dim_count):
            below, rows = self.faces[n - 1], self.faces[n]
            cols = [list(map(below.__getitem__, map(itemgetter(j), rows))) for j in range(n + 1)]
            if any(any(map(ne, map(itemgetter(i), cols[j]), map(itemgetter(j), cols[i + 1])))
                   for j in range(n + 1) for i in range(j, n)):
                violations += [((n, x), i, j) for x, row in enumerate(rows)
                               for j in range(n + 1) for i in range(j, n)
                               if below[row[j]][i] != below[row[i + 1]][j]]
        return ValidationReport(not violations, (), tuple(violations))

    def __eq__(self, other):
        return (isinstance(other, DeltaSet) and self.counts == other.counts
                and self.faces == other.faces)

    def __hash__(self):
        return hash((self.counts, self.faces))

    def __repr__(self):
        return f"DeltaSet(counts={list(self.counts)})"


def _label_rows(counts: tuple[int, ...], labels) -> tuple[tuple, ...] | None:
    """Labels as one tuple per dimension, checked against the cell counts."""
    if labels is None:
        return None
    rows = []
    for n, count in enumerate(counts):
        row = tuple(labels[n]) if n < len(labels) else ()
        if len(row) != count:
            raise DeltaStructureError(f"dimension {n}: label count mismatch")
        rows.append(row)
    return tuple(rows)


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


class MorphismReport(NamedTuple):
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
    """Smallest Δ-subset of sh.x containing sh.h: h plus all iterated faces,
    by levels from the top degree down, closure_n = h_n ∪ the faces of
    closure_{n+1}."""
    x, h = sh.x, sh.h
    levels: list = [None] * x.dim_count
    cells: set[int] = set()
    for n in reversed(range(x.dim_count)):
        cells.update(h.at(n))
        levels[n] = cells
        cells = set().union(*map(x.faces[n].__getitem__, cells)) if n else set()
    return GradedSubset(dict(enumerate(levels)))


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


class CompletenessResult(NamedTuple):
    complete: bool
    certificate: tuple | None = None

    def __bool__(self):
        return self.complete


def is_complete(sh: SuperHypergraph, *, regular: bool | None = None) -> CompletenessResult:
    """Completeness criterion for a regular super-hypergraph.

    Vertex property: X_0 = H_0 when H_0 is nonempty, else |X_0| = 1.
    Matching-face property: distinct n-cells (n > 0) with identical face
    lists only when both are marked.  Raises on non-regular input; a caller
    that already has `is_regular(sh)` passes it as `regular`, and the
    Δ-closure is not computed again.
    """
    if not (is_regular(sh) if regular is None else regular):
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

def close_under_faces(seeds: Iterable[Hashable],
                      face_fn: Callable[[Hashable], Sequence[Hashable]],
                      order: Callable[[list], list] = partial(sorted, key=cell_sort_key),
                      ) -> tuple[DeltaSet, GradedSubset]:
    """Least family containing *seeds* and closed under face_fn, as a Δ-set.

    face_fn(label) returns the ordered face labels (d_0 .. d_n) of a label,
    so a label's grade is its face count minus one; a 0-cell's one face
    (the empty cell) is not a cell.  face_fn runs once per distinct label:
    the face lists of the discovery pass become the face rows, holding the
    first instance seen of each label.  Cells are indexed per dimension in
    the order order(labels) returns, increasing `cell_sort_key` by default
    (the mask constructions pass `graphs._rank_order`).  Raises ValueError
    for an empty face list, DeltaStructureError if a face has the wrong
    grade and DeltaIdentityError if the face maps violate the Δ-identity.
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
        faces = face_fn(lab)
        n = len(faces) - 1
        if n < 0:
            raise ValueError(f"negative grade for label {lab!r}")
        by_dim.setdefault(n, []).append(lab)
        if n > 0:
            row = []
            for fl in faces:
                c = canon.get(fl)
                if c is None:
                    canon[fl] = c = fl
                    stack.append(fl)
                row.append(c)
            face_labels[id(lab)] = row
    if not by_dim:
        return DeltaSet((), (), ()), GradedSubset()
    top = max(by_dim)
    ordered = [order(by_dim.get(n, ())) for n in range(top + 1)]
    # Face rows hold canonical instances only, so identity finds their cells.
    index = [{id(lab): j for j, lab in enumerate(labs)} for labs in ordered]
    faces: list[tuple] = [()]
    for n in range(1, top + 1):
        find = index[n - 1].__getitem__
        rows = []
        for lab in ordered[n]:
            row = face_labels.pop(id(lab))
            try:
                rows.append(tuple(map(find, map(id, row))))
            except KeyError:
                fl = next(fl for fl in row if id(fl) not in index[n - 1])
                fd = next(d for d, at in enumerate(index) if id(fl) in at)
                raise DeltaStructureError(
                    f"face of a grade-{n} label has grade {fd}: {fl!r}") from None
        faces.append(tuple(rows))
    # in normal form as built: counts end at top, an n-cell's row is n + 1 ints
    ds = DeltaSet._built(tuple(map(len, ordered)), tuple(faces), ordered)
    report = ds.validate()
    if not report.ok:
        raise DeltaIdentityError(report)
    seed_ids = set(map(id, map(canon.__getitem__, seed_list)))
    marked = GradedSubset({n: map(at.__getitem__, at.keys() & seed_ids)
                           for n, at in enumerate(index)})
    return ds, marked


def tuple_faces(lab: tuple) -> list[tuple]:
    """Faces of a vertex-tuple label: d_i deletes the i-th vertex."""
    return [lab[:i] + lab[i + 1:] for i in range(len(lab))]


def _vertex_positions(vertices: set, order: Sequence | None) -> dict:
    """Position of each vertex in the total order (cell_sort_key order by
    default); the order must cover every vertex."""
    if order is None:
        order = sorted(vertices, key=cell_sort_key)
    pos = {v: i for i, v in enumerate(order)}
    missing = vertices - set(pos)
    if missing:
        raise ValueError(f"order does not cover vertices: {sorted(missing, key=cell_sort_key)}")
    return pos


def missing_face(family: AbstractSet[frozenset]) -> frozenset | None:
    """A member of the family whose deletion of some single element is not
    a member, or None when no member with two or more elements has one."""
    return next((s for s in family if len(s) > 1 and any(s - {v} not in family for v in s)),
                None)


def from_simplicial(complex_: Iterable[Iterable], order: Sequence | None = None) -> DeltaSet:
    """Δ-set of a simplicial complex (one cell per simplex, d_i deletes the
    i-th vertex in the total order).  The complex must be closed under
    nonempty subsets; it is then the closure of its simplices as
    hyperedges."""
    simplices = {frozenset(s) for s in complex_}
    if any(not s for s in simplices):
        raise ValueError("empty simplex not allowed")
    s = missing_face(simplices)
    if s is not None:
        raise ValueError(f"complex not closed under subsets: missing face of "
                         f"{tuple(sorted(s, key=cell_sort_key))}")
    return from_hypergraph(simplices, order).x


def from_hypergraph(hyperedges: Iterable[Iterable], order: Sequence | None = None) -> SuperHypergraph:
    """Super-hypergraph of a hypergraph: parental Δ-set is the simplicial
    closure (the hyperedges closed under vertex deletion), marked cells are
    the hyperedges themselves."""
    edges = {frozenset(e) for e in hyperedges}
    if any(not e for e in edges):
        raise ValueError("hyperedges must be nonempty")
    pos = _vertex_positions(set().union(*edges), order)
    seeds = [tuple(sorted(e, key=pos.__getitem__)) for e in edges]
    return SuperHypergraph(*close_under_faces(seeds, tuple_faces))


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
    """Δ-set of the full n-simplex on vertices 0..n (empty for n < 0)."""
    seeds = [tuple(range(n + 1))] if n >= 0 else []
    ds, _ = close_under_faces(seeds, tuple_faces)
    return ds
