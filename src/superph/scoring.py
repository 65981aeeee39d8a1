"""Scoring schemes on finite subgraphs.

A scoring scheme assigns a real number to every finite subgraph of the
working graph; a regular (monotone) scheme induces a persistent filtration.
The six point-cloud schemes use a reference embedding of the vertices into
R^m: Vietoris–Rips (half diameter), Čech (minimal enclosing ball radius) and
the four witness variants, whose infimum over ambient points is restricted
to a finite user-supplied witness set.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Iterable, Mapping, Sequence

from .graphs import Subgraph, _cell_of, _subgraph_of, vertex_deletion_map

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


def _dist(p: Point, q: Point) -> float:
    return math.dist(p, q)


# ---------------------------------------------------------------------------
# Point-set scores (also the pull-back bases)
# ---------------------------------------------------------------------------

def vr_points(points: Sequence[Point]) -> float:
    """Half the diameter; 0 for a singleton."""
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = _dist(pts[i], pts[j])
            if d > best:
                best = d
    return best / 2.0


def _circumball(support: Sequence[Point]) -> tuple[Point, float]:
    """Ball through the support points with center in their affine hull."""
    import numpy as np  # only Čech scores need it; deferred to keep imports light

    if not support:
        return (), 0.0
    p0 = np.asarray(support[0], dtype=float)
    if len(support) == 1:
        return tuple(p0.tolist()), 0.0
    diffs = np.asarray([np.asarray(p, dtype=float) - p0 for p in support[1:]])
    gram = 2.0 * diffs @ diffs.T
    rhs = np.einsum("ij,ij->i", diffs, diffs)
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        lam = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    center = p0 + diffs.T @ lam
    radius = max(float(np.linalg.norm(np.asarray(p) - center)) for p in support)
    return tuple(center.tolist()), radius


def min_enclosing_ball(points: Sequence[Point]) -> tuple[Point, float]:
    """Welzl's move-to-front minimal enclosing ball, deterministic via a
    fixed shuffle seed."""
    pts = sorted({tuple(float(c) for c in p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    rng = random.Random(0xB0BA)
    rng.shuffle(pts)
    dim = len(pts[0])

    def welzl(i: int, support: list[Point]) -> tuple[Point, float]:
        if i == len(pts) or len(support) == dim + 1:
            return _circumball(support)
        center, radius = welzl(i + 1, support)
        p = pts[i]
        if center and _dist(p, center) <= radius * (1 + 1e-12) + 1e-14:
            return center, radius
        return welzl(i + 1, support + [p])

    # Iterative restarts guard against float flutter in degenerate inputs.
    center, radius = welzl(0, [])
    worst = max(_dist(p, center) for p in pts)
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
    pts = pc.of(_nonempty(lam))
    return vr_points(pts)


def cech_score(lam: Iterable, pc: PointCloud) -> float:
    pts = pc.of(_nonempty(lam))
    return cech_points(pts)


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
    if witnesses is None:
        witnesses = pc.all_points()
    elif not witnesses:
        raise ValueError("witness set is empty")
    else:
        witnesses = [tuple(float(c) for c in p) for p in witnesses]
    landmarks = pc.all_points()
    if variant in ("weak", "vr_weak"):
        excl = [p for v, p in pc.points.items() if v not in lam]
        if not excl:
            raise ValueError("weak witness scoring needs a proper landmark subset")
        near = excl
    else:
        near = landmarks

    # each witness with its distance to the nearest landmark
    offsets = [(x, min(_dist(x, z) for z in near)) for x in witnesses]
    if variant in ("strong", "weak"):
        return min(max(_dist(x, y) for y in lam_pts) - nx for x, nx in offsets)
    # VR variants: outer sup over vertex pairs (a singleton degenerates to
    # the plain variant on that point).
    best = -math.inf
    for i in range(len(lam_pts)):
        for j in range(i, len(lam_pts)):
            if len(lam_pts) > 1 and i == j:
                continue
            pi, pj = lam_pts[i], lam_pts[j]
            val = min(max(_dist(x, pi), _dist(x, pj)) - nx for x, nx in offsets)
            best = max(best, val)
    return best


def pullback_score(f: Mapping | Callable, base: Callable[[Sequence[Point]], float],
                   h: Subgraph) -> float:
    """Score of the image point set of the subgraph's vertices (duplicates
    collapse)."""
    getter = f.__getitem__ if isinstance(f, Mapping) else f
    try:
        image = {tuple(float(c) for c in getter(v)) for v in h.vertices}
    except KeyError as exc:
        raise ValueError(f"reference map undefined on vertex {exc.args[0]!r}") from exc
    return base(sorted(image))


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
    (monotone under subgraph inclusion)."""

    __slots__ = ("name", "regular", "_fn")

    def __init__(self, name: str, fn: Callable[[Subgraph], float], regular: bool):
        self.name = name
        self._fn = fn
        self.regular = regular

    def score(self, sub: Subgraph) -> float:
        return float(self._fn(sub))

    def __repr__(self):
        return f"ScoringScheme({self.name!r}, regular={self.regular})"


def vr_scheme(pc: PointCloud) -> ScoringScheme:
    return ScoringScheme("vr", lambda h: vr_score(h.vertices, pc), regular=True)


def cech_scheme(pc: PointCloud) -> ScoringScheme:
    return ScoringScheme("cech", lambda h: cech_score(h.vertices, pc), regular=True)


def witness_scheme(pc: PointCloud, variant: str,
                   witnesses: Sequence[Sequence[float]] | None = None) -> ScoringScheme:
    if variant not in WITNESS_VARIANTS:
        raise ValueError(f"unknown witness variant {variant!r}")
    regular = variant in ("strong", "vr_strong")
    return ScoringScheme(f"witness:{variant}",
                         lambda h: witness_score(h.vertices, pc, variant, witnesses),
                         regular=regular)


def pullback_scheme(f: Mapping | Callable, base: Callable[[Sequence[Point]], float],
                    name: str = "pullback") -> ScoringScheme:
    return ScoringScheme(name, lambda h: pullback_score(f, base, h), regular=True)


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
    tol = 1e-12

    def check(small: Subgraph, large: Subgraph):
        return s.score(small) <= s.score(large) + tol

    for p in members:
        for q in members:
            if p is q:
                continue
            if p.vertices <= q.vertices and p.edges <= q.edges:
                if not check(p, q):
                    return False, (p, q)
    for m in members:
        if len(m.vertices) > 1:
            for cell in vertex_deletion_map(m.host)(_cell_of(m)):
                small = _subgraph_of(m.host, cell)
                if not check(small, m):
                    return False, (small, m)
        for e in sorted(m.edges, key=repr):
            small = Subgraph(m.host, m.vertices, m.edges - {e})
            if not check(small, m):
                return False, (small, m)
    return True, None


def label_subgraph(label):
    """The subgraph a cell label stands for: a marked subgraph's subgraph,
    else the label itself."""
    return getattr(label, "subgraph", label)


def cell_scores(s: ScoringScheme, x) -> list[list[float]]:
    """Rounded score of every cell label of a Δ-set, per dimension."""
    return [[round_score(s.score(label_subgraph(x.label(n, j)))) for j in range(x.counts[n])]
            for n in range(x.dim_count)]


def critical_values(s: ScoringScheme, x) -> list[float]:
    """Sorted distinct (rounded) scores of all cell labels of a Δ-set."""
    return sorted({v for row in cell_scores(s, x) for v in row})
