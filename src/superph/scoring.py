"""Scoring schemes on finite subgraphs.

A scoring scheme assigns a real number to every finite subgraph of the
working graph; a regular (monotone) scheme induces a persistent filtration.
The six point-cloud schemes use a reference embedding of the vertices into
R^m: Vietoris–Rips (half diameter), Čech (minimal enclosing ball radius) and
the four witness variants, whose infimum over ambient points is restricted
to a finite user-supplied witness set.

Cell labels are scored as (vertex mask, edge mask) cells over one host's
ranks (`_cell_masks`).  A scheme that reads only a subgraph's vertex set
(the point-cloud and pull-back schemes) scores a cell from its vertex ranks
through one rank -> point table per call; any other scheme scores the
`Subgraph` the cell stands for, built for the call and not kept.  A
pairwise scheme (VR, VR-strong witness), whose score is the maximum of a
symmetric pair value over the vertex pairs, scores a cell of three or more
vertices from its two one-vertex deletions when both were scored
(Zomorodian 2010): every pair of the cell but the lowest two lies in one
of them.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from itertools import combinations, starmap
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .fields import _ranks
from .graphs import MultiGraph, Subgraph, _cell_of, vertex_deletion_map

Point = tuple[float, ...]


def round_score(x: float) -> float:
    """Canonical 12-significant-digit rounding; critical-value ties merge
    by exact equality of the rounded scores."""
    if x == 0:
        return 0.0
    return float(f"{x:.12g}")


class PointCloud:
    """Finite vertex set embedded in R^m."""

    __slots__ = ("points", "dim")

    def __init__(self, points: Mapping[object, Sequence[float]]):
        pts = {v: tuple(float(c) for c in p) for v, p in dict(points).items()}
        if not pts:
            raise ValueError("point cloud is empty")
        dims = {len(p) for p in pts.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent coordinate lengths: {sorted(dims)}")
        self.points = pts
        self.dim = dims.pop()

    def coords(self, v) -> Point:
        if v not in self.points:
            raise ValueError(f"vertex {v!r} is not embedded")
        return self.points[v]

    def of(self, vertices: Iterable) -> list[Point]:
        return [self.coords(v) for v in vertices]

    def ids(self) -> list:
        return list(self.points)

    def all_points(self) -> list[Point]:
        return list(self.points.values())


# ---------------------------------------------------------------------------
# Point-set scores (also the pull-back bases)
# ---------------------------------------------------------------------------

def vr_points(points: Sequence[Point]) -> float:
    """Half the diameter; 0 for a singleton."""
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    return max(starmap(math.dist, combinations(pts, 2)), default=0.0) / 2.0


def _circumball(support: Sequence[Point]) -> tuple[Point, float]:
    """Ball through the support points with center in their affine hull
    (Gärtner 1999): the center is p0 + Σ_k λ_k (p_k − p0), where
    2Gλ = (|p_k − p0|²)_k and G is the Gram matrix of the differences
    p_k − p0.  The system is solved by Gaussian elimination with partial
    pivoting in floats, and a zero pivot (an affinely dependent support)
    leaves its λ at 0.  The radius is the largest distance from the center
    to a support point, so the ball covers the support either way."""
    if not support:
        return (), 0.0
    p0 = support[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in support[1:]]
    rows = [[2.0 * sum(map(mul, u, v)) for v in diffs] + [sum(map(mul, u, u))]
            for u in diffs]
    n = len(rows)
    for k in range(n):
        top = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[top] = rows[top], rows[k]
        pivot = rows[k]
        if pivot[k]:
            for row in rows[k + 1:]:
                f = row[k] / pivot[k]
                for j in range(k + 1, n + 1):
                    row[j] -= f * pivot[j]
    lam = [0.0] * n
    for k in reversed(range(n)):
        if rows[k][k]:
            lam[k] = rows[k][n] / rows[k][k]
            for row in rows[:k]:
                row[n] -= lam[k] * row[k]
    center = tuple(c + sum(l * u[i] for l, u in zip(lam, diffs)) for i, c in enumerate(p0))
    return center, max(math.dist(p, center) for p in support)


def min_enclosing_ball(points: Sequence[Point]) -> tuple[Point, float]:
    """Welzl's minimal enclosing ball (1991), deterministic via a fixed
    shuffle seed.  `ball(i, support)` starts from the support's circumball
    and takes pts[j] for j from the end down to i: a point outside the ball
    joins the support, and the ball is rebuilt over pts[j + 1:].  Only a
    grown support recurses, so the depth is at most dim + 2 whatever the
    number of points."""
    pts = sorted({tuple(float(c) for c in p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    rng = random.Random(0xB0BA)
    rng.shuffle(pts)
    full = len(pts[0]) + 1

    def ball(i: int, support: list[Point]) -> tuple[Point, float]:
        center, radius = _circumball(support)
        if len(support) < full:
            for j in reversed(range(i, len(pts))):
                p = pts[j]
                if not (center and math.dist(p, center) <= radius * (1 + 1e-12) + 1e-14):
                    center, radius = ball(j + 1, support + [p])
        return center, radius

    center, radius = ball(0, [])
    # a point that float rounding leaves just outside widens the radius
    worst = max(math.dist(p, center) for p in pts)
    if worst > radius * (1 + 1e-9) + 1e-12:
        radius = worst
    return center, radius


def cech_points(points: Sequence[Point]) -> float:
    """Radius of the minimal enclosing ball."""
    return min_enclosing_ball(points)[1]


# ---------------------------------------------------------------------------
# Vertex-subset scores
# ---------------------------------------------------------------------------

def vr_score(lam: Iterable, pc: PointCloud) -> float:
    return vr_points(pc.of(_nonempty(lam)))


def cech_score(lam: Iterable, pc: PointCloud) -> float:
    return cech_points(pc.of(_nonempty(lam)))


WITNESS_VARIANTS = ("strong", "vr_strong", "weak", "vr_weak")


def witness_score(lam: Iterable, pc: PointCloud, variant: str,
                  witnesses: Sequence[Sequence[float]] | None = None) -> float:
    """The four witness schemes, with inf over x restricted to the finite
    witness set, the cloud's own points when `witnesses` is None.  Weak
    variants require the subset to be proper in the landmark set."""
    if variant not in WITNESS_VARIANTS:
        raise ValueError(f"unknown witness variant {variant!r}")
    lam = _nonempty(lam)
    lam_pts = pc.of(lam)
    witnesses = _witness_points(pc, witnesses)
    near = pc.all_points()  # the landmarks; the weak variants exclude lam
    if variant in ("weak", "vr_weak"):
        near = [p for v, p in pc.points.items() if v not in lam]
        if not near:
            raise ValueError("weak witness scoring needs a proper landmark subset")
    return _witness_value(lam_pts, variant, _offsets(witnesses, near))


def _witness_points(pc: PointCloud, witnesses) -> list[Point]:
    """The witness set as float points, the cloud's own when None."""
    if witnesses is None:
        return pc.all_points()
    if not witnesses:
        raise ValueError("witness set is empty")
    return [tuple(float(c) for c in p) for p in witnesses]


def _offsets(witnesses: list[Point], near: list[Point]) -> list[tuple[Point, float]]:
    """Each witness with its distance to the nearest landmark in `near`."""
    return [(x, min(math.dist(x, z) for z in near)) for x in witnesses]


def _witness_value(lam_pts: list[Point], variant: str, offsets) -> float:
    """A witness score from the subset's points and the `_offsets` table."""
    if variant in ("strong", "weak"):
        return min(max(math.dist(x, y) for y in lam_pts) - nx for x, nx in offsets)
    # VR variants: outer sup over vertex pairs (a singleton degenerates to
    # the plain variant on that point).
    pairs = [(p, q) for i, p in enumerate(lam_pts) for q in lam_pts[i + 1:]] \
        or [(lam_pts[0], lam_pts[0])]
    return max(min(max(math.dist(x, p), math.dist(x, q)) - nx for x, nx in offsets)
               for p, q in pairs)


def _image(f: Mapping | Callable) -> Callable[[object], Point]:
    """The point a reference map takes a vertex to."""
    getter = f.__getitem__ if isinstance(f, Mapping) else f

    def point(v) -> Point:
        try:
            return tuple(float(c) for c in getter(v))
        except KeyError as exc:
            raise ValueError(f"reference map undefined on vertex {exc.args[0]!r}") from exc

    return point


def pullback_score(f: Mapping | Callable, base: Callable[[Sequence[Point]], float],
                   h: Subgraph) -> float:
    """Score of the image point set of the subgraph's vertices (duplicates
    collapse)."""
    return base(sorted(set(map(_image(f), h.vertices))))


def _nonempty(lam: Iterable) -> set:
    """The distinct vertices of lam, in no particular order: every score
    takes a max or min over them, and Čech sorts its own points."""
    out = set(lam)
    if not out:
        raise ValueError("vertex subset is empty")
    return out


# ---------------------------------------------------------------------------
# Scheme objects
# ---------------------------------------------------------------------------

class ScoringScheme:
    """An evaluation contract Subgraph -> R plus a declared regularity claim
    (monotone under subgraph inclusion).  A scheme that reads only a
    subgraph's vertex set also keeps that reading as `_vertices`, a triple
    (point, of_points, pair): the score is of_points of the list of point(v)
    over the vertices v, and when pair is not None it is also the maximum of
    pair(p, q), a symmetric value, over the pairs of those points."""

    __slots__ = ("name", "regular", "_fn", "_vertices")

    def __init__(self, name: str, fn: Callable[[Subgraph], float], regular: bool):
        self.name = name
        self._fn = fn
        self.regular = regular
        self._vertices = None

    def score(self, sub: Subgraph) -> float:
        return float(self._fn(sub))

    def __repr__(self):
        return f"ScoringScheme({self.name!r}, regular={self.regular})"


def _vertex_scheme(name: str, point: Callable, of_points: Callable[[list], float],
                   regular: bool = True, pair: Callable | None = None) -> ScoringScheme:
    """A scheme that reads only a subgraph's vertex set: of_points of the
    list of point(v) over its vertices v; `pair` as in `ScoringScheme`."""
    s = ScoringScheme(name, lambda h: of_points([point(v) for v in h.vertices]), regular)
    s._vertices = (point, of_points, pair)
    return s


def vr_scheme(pc: PointCloud) -> ScoringScheme:
    return _vertex_scheme("vr", pc.coords, vr_points,
                          pair=lambda p, q: math.dist(p, q) / 2.0)


def cech_scheme(pc: PointCloud) -> ScoringScheme:
    return _vertex_scheme("cech", pc.coords, cech_points)


def witness_scheme(pc: PointCloud, variant: str,
                   witnesses: Sequence[Sequence[float]] | None = None) -> ScoringScheme:
    """The witness scheme of a variant.  The strong variants' landmarks are
    the whole cloud, so their nearest-landmark table is built once, on the
    first score, and read by every cell; the weak variants exclude the
    cell's vertices and build it per cell (`witness_score`).  Witness
    points of another dimension than the cloud's are refused here, once.
    VR-strong is pairwise: its pair value is the score of the two points."""
    if variant not in WITNESS_VARIANTS:
        raise ValueError(f"unknown witness variant {variant!r}")
    dims = sorted({len(x) for x in witnesses or ()} - {pc.dim})
    if dims:
        raise ValueError(f"witness points have {dims[0]} coordinates, "
                         f"the cloud's points have {pc.dim}")
    pair = None
    if variant in ("weak", "vr_weak"):
        def of_points(lam):
            return witness_score(lam, pc, variant, witnesses)
    else:
        offsets = functools.cache(lambda: _offsets(_witness_points(pc, witnesses),
                                                   pc.all_points()))

        def of_points(lam):
            return _witness_value(pc.of(_nonempty(lam)), variant, offsets())

        if variant == "vr_strong":
            def pair(p, q):
                return _witness_value(pc.of((p, q)), variant, offsets())
    # a vertex stands for itself, once the cloud is found to embed it
    return _vertex_scheme(f"witness:{variant}", lambda v: (pc.coords(v), v)[1], of_points,
                          regular=variant in ("strong", "vr_strong"), pair=pair)


def pullback_scheme(f: Mapping | Callable, base: Callable[[Sequence[Point]], float],
                    name: str = "pullback") -> ScoringScheme:
    return _vertex_scheme(name, _image(f), lambda pts: base(sorted(set(pts))))


def constant_scheme(value: float = 0.0) -> ScoringScheme:
    return ScoringScheme("constant", lambda h: value, regular=True)


def seeded_random_scheme(seed: int) -> ScoringScheme:
    """Uniform scores in [0, 1) keyed by a stable digest of (seed, canonical
    subgraph encoding); deterministic across processes.  Not regular in
    general."""

    def fn(h: Subgraph) -> float:
        digest = hashlib.sha256(f"{seed}:{h.key!r}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    return ScoringScheme(f"seeded_random:{seed}", fn, regular=False)


# ---------------------------------------------------------------------------
# Regularity checking and critical values
# ---------------------------------------------------------------------------

def is_regular_scheme(s: ScoringScheme, fam) -> tuple[bool, tuple | None]:
    """Monotonicity check over all comparable member pairs plus all
    single-deletion covers of members (the vertex-deletion faces, then the
    single-edge deletions); returns a violating (smaller, larger) pair when
    one exists."""
    members = list(fam)
    pairs = [(p, q) for p in members for q in members
             if p is not q and p.vertices <= q.vertices and p.edges <= q.edges]
    for m in members:
        if len(m.vertices) > 1:
            pairs += [(m.host._cell_subgraph(cell), m)
                      for cell in vertex_deletion_map(m.host)(_cell_of(m))]
        pairs += [(Subgraph(m.host, m.vertices, m.edges - {e}), m)
                  for e in sorted(m.edges, key=repr)]
    bad = next(((p, q) for p, q in pairs if not s.score(p) <= s.score(q) + 1e-12), None)
    return bad is None, bad


class DominationError(ValueError):
    """The Δ-set is not (visibly) dominated by a working graph."""


def _cell_masks(x) -> tuple[MultiGraph, Sequence[Sequence]]:
    """(host, rows): every cell label of a Δ-set as a (vertex mask, edge
    mask) cell over one host's ranks, per dimension.  Labels stored as
    cells are read as they are, a starting-vertex cell as its first two
    masks; subgraph labels (or marked subgraphs) that a caller gives by
    hand are converted once, over their host, or over the union of their
    hosts' vertices and edges when they sit on several, so equal id sets
    give equal cells."""
    if x.host is not None:
        rows = x._labels
        if rows and rows[0] and len(rows[0][0]) == 3:
            rows = [[cell[:2] for cell in row] for row in rows]
        return x.host, rows
    if x._labels is None and x.total_cells():
        raise DominationError("cells carry no subgraph labels")
    # a marked subgraph stands for its subgraph
    subs = [[getattr(lab, "subgraph", lab) for lab in row] for row in x._labels or ()]
    bad = next(((n, j) for n, row in enumerate(subs) for j, sub in enumerate(row)
                if not isinstance(sub, Subgraph)), None)
    if bad:
        raise DominationError("cell ({},{}) label is not a subgraph".format(*bad))
    hosts = list({id(sub.host): sub.host for row in subs for sub in row}.values())
    host = hosts[0] if len(hosts) == 1 else MultiGraph(
        set().union(*(h.vertices for h in hosts)),
        {e: ends for h in reversed(hosts) for e, ends in h.edge_ends.items()},
        any(h.directed for h in hosts))
    return host, [[_cell_of(sub, host) for sub in row] for row in subs]


def _scores(s: ScoringScheme, host: MultiGraph, cells) -> list[list[float]]:
    """Unrounded score of every cell of `_cell_masks`, per dimension.  A
    vertex scheme maps each vertex rank once, in the order the cells first
    reach it, and reads a cell's points in rank order.

    A pairwise scheme keeps the score of every vertex mask scored so far.
    A cell with at least three vertices whose two lowest ranks are a < b
    and whose deletions V∖a and V∖b were both scored takes
    max(pair(p_a, p_b), s(V∖a), s(V∖b)): every other pair lies in one of
    them, and max returns one of the floats the pairs give, so the score
    is the one of_points gives.  Both were scored, so every vertex of the
    cell is in the table already, and the vertices are looked up in the
    same order as without the shortcut."""
    if s._vertices is None:
        return [[s.score(host._cell_subgraph(c)) for c in row] for row in cells]
    point, of_points, pair = s._vertices
    vids, table = host._vids, {}

    def direct(vm: int) -> float:
        return of_points([table[r] if r in table else
                          table.setdefault(r, point(vids[r])) for r in _ranks(vm)])

    if pair is None:
        return [[direct(vm) for vm, _ in row] for row in cells]
    seen = {}

    def score(vm: int) -> float:
        rest = vm & (vm - 1)  # without the lowest vertex a
        if rest & (rest - 1):
            second = rest & -rest
            without_a, without_b = seen.get(rest), seen.get(vm ^ second)
            if without_a is not None and without_b is not None:
                value = seen[vm] = max(pair(table[(vm ^ rest).bit_length() - 1],
                                            table[second.bit_length() - 1]),
                                       without_a, without_b)
                return value
        value = seen[vm] = direct(vm)
        return value

    return [[score(vm) for vm, _ in row] for row in cells]


def cell_scores(s: ScoringScheme, x) -> list[list[float]]:
    """Rounded score of every cell label of a Δ-set, per dimension."""
    return [list(map(round_score, row)) for row in _scores(s, *_cell_masks(x))]


def critical_values(s: ScoringScheme, x) -> list[float]:
    """Sorted distinct (rounded) scores of all cell labels of a Δ-set."""
    return sorted(set(map(round_score, {v for row in _scores(s, *_cell_masks(x)) for v in row})))
