"""Exact rational convex geometry: hulls, Minkowski sums, volumes, lattice
points and a numeric Hausdorff diagnostic, for ambient dimensions 1 to 4.

All values are immutable and every operation is a pure function.  Exact
rational arithmetic is used throughout; floating point is confined to
:func:`hausdorff_distance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct

from . import _hull

MAX_DIM = 4

Point = tuple[Fraction, ...]


def _as_point(p) -> Point:
    return tuple(Fraction(c) for c in p)


@dataclass(frozen=True)
class LatticePolytope:
    """Convex body given by its extreme points, in canonical lex order."""

    ambient_dim: int
    vertices: tuple[Point, ...]
    affine_dim: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.ambient_dim <= MAX_DIM:
            raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}")
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.ambient_dim


@dataclass(frozen=True)
class SupportSet:
    """Finite set of integer exponent vectors."""

    ambient_dim: int
    points: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        for p in self.points:
            if len(p) != self.ambient_dim:
                raise ValueError("point dimension mismatch")

    def sorted_points(self) -> list[tuple[int, ...]]:
        return sorted(self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.sorted_points())


def support_set(dim: int, points) -> SupportSet:
    return SupportSet(dim, frozenset(tuple(int(c) for c in p) for p in points))


def _lift(points: list[Point]):
    """Clear denominators: returns (scale L, integer points)."""
    lcm = 1
    for p in points:
        for c in p:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    lifted = [tuple(int(c * lcm) for c in p) for p in points]
    return lcm, lifted


class _AffineFrame:
    """Exact coordinates on the affine hull of a point set.

    Carries a base point and an echelonized rational basis of the difference
    space; `coords` maps a point of the affine hull to its frame coordinates
    and returns None for points outside the hull.
    """

    def __init__(self, points: list[Point]):
        self.base = points[0]
        n = len(self.base)
        basis: list[list[Fraction]] = []
        pivots: list[int] = []
        for p in points[1:]:
            row = [a - b for a, b in zip(p, self.base)]
            for br, pc in zip(basis, pivots):
                if row[pc] != 0:
                    f = row[pc] / br[pc]
                    row = [x - f * y for x, y in zip(row, br)]
            piv = next((j for j in range(n) if row[j] != 0), None)
            if piv is not None:
                basis.append(row)
                pivots.append(piv)
                if len(basis) == n:  # full rank: the remaining points add nothing
                    break
        self.basis = basis
        self.pivots = pivots
        self.rank = len(basis)

    def coords(self, p: Point):
        row = [a - b for a, b in zip(p, self.base)]
        ys = []
        for br, pc in zip(self.basis, self.pivots):
            f = row[pc] / br[pc]
            ys.append(f)
            if f != 0:
                row = [x - f * y for x, y in zip(row, br)]
        if any(x != 0 for x in row):
            return None
        return tuple(ys)


class _HullCore:
    """Shared exact hull data for one polytope."""

    def __init__(self, points: list[Point], ambient_dim: int):
        pts = sorted(set(points))
        self.ambient_dim = ambient_dim
        self.frame = _AffineFrame(pts)
        self.affine_dim = self.frame.rank
        if self.affine_dim == 0:
            self.vertices = [pts[0]]
            self.scale = 1
            self.lifted = None
            self.result = None
            self.inner = None
            return
        if self.affine_dim == ambient_dim:
            self.scale, self.lifted = _lift(pts)
            self.result = _hull.hull_of_lifted(self.lifted, ambient_dim)
            self.vertices = [pts[i] for i in self.result.vertex_indices]
            self.inner = None
        else:
            framed = [self.frame.coords(p) for p in pts]
            self.inner = _HullCore(framed, self.affine_dim)
            framed_vs = set(self.inner.vertices)
            self.vertices = [
                p for p, f in zip(pts, framed) if f in framed_vs
            ]
            self.scale, self.lifted, self.result = None, None, None

    def facet_inequalities(self):
        """Facets a.x <= b in original coordinates (full-dimensional only)."""
        if self.result is None:
            raise ValueError("facets exist only for full-dimensional bodies")
        return [
            (a, Fraction(b, self.scale)) for a, b in self.result.planes
        ]

    def volume(self) -> Fraction:
        if self.affine_dim < self.ambient_dim:
            return Fraction(0)
        raw = _hull.hull_volume_lifted(self.lifted, self.result)
        n = self.ambient_dim
        return Fraction(raw, math.factorial(n) * self.scale**n)

    def contains(self, p: Point) -> bool:
        if self.affine_dim == 0:
            return p == self.vertices[0]
        if self.affine_dim == self.ambient_dim:
            return all(
                sum(ai * ci for ai, ci in zip(a, p)) <= b
                for a, b in self.facet_inequalities()
            )
        framed = self.frame.coords(p)
        return framed is not None and self.inner.contains(framed)


def _core(P: LatticePolytope) -> _HullCore:
    core = P._cache.get("core")
    if core is None:
        core = _HullCore(list(P.vertices), P.ambient_dim)
        P._cache["core"] = core
    return core


def _from_core(core: _HullCore, n: int) -> LatticePolytope:
    P = LatticePolytope(n, tuple(sorted(core.vertices)), core.affine_dim)
    P._cache["core"] = core
    return P


def convex_hull(points) -> LatticePolytope:
    """Convex hull of a nonempty list of rational points of one dimension."""
    pts = [_as_point(p) for p in points]
    if not pts:
        raise ValueError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimensions")
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}")
    return _from_core(_HullCore(pts, n), n)


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    """Hull of all pairwise vertex sums."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("Minkowski sum needs equal ambient dimensions")
    sums = {
        tuple(a + b for a, b in zip(p, q))
        for p in P.vertices
        for q in Q.vertices
    }
    return convex_hull(sums)


def scale(P: LatticePolytope, lam) -> LatticePolytope:
    """Dilate by a nonnegative rational factor; factor 0 gives the origin."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("scaling factor must be nonnegative")
    if lam == 0:
        origin = tuple(Fraction(0) for _ in range(P.ambient_dim))
        return convex_hull([origin])
    return convex_hull([tuple(lam * c for c in v) for v in P.vertices])


def translate(P: LatticePolytope, t) -> LatticePolytope:
    tv = _as_point(t)
    return convex_hull([tuple(a + b for a, b in zip(v, tv)) for v in P.vertices])


def volume(P: LatticePolytope) -> Fraction:
    """Exact Euclidean volume; zero for lower-dimensional bodies."""
    vol = P._cache.get("volume")
    if vol is None:
        vol = _core(P).volume()
        P._cache["volume"] = vol
    return vol


def contains_point(P: LatticePolytope, point) -> bool:
    return _core(P).contains(_as_point(point))


def bounding_box(P: LatticePolytope) -> list[tuple[Fraction, Fraction]]:
    return [
        (min(v[c] for v in P.vertices), max(v[c] for v in P.vertices))
        for c in range(P.ambient_dim)
    ]


def lattice_points(P: LatticePolytope, max_candidates: int = 20_000_000) -> SupportSet:
    """All integer vectors of P, bounding-box enumeration with exact membership."""
    box = bounding_box(P)
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box]
    count = reduce(lambda acc, r: acc * len(r), ranges, 1)
    if count > max_candidates:
        raise ValueError("bounding box too large for lattice enumeration")
    core = _core(P)
    found = []
    if core.affine_dim == core.ambient_dim:
        facets = core.facet_inequalities()
        for cand in iproduct(*ranges):
            if all(sum(ai * ci for ai, ci in zip(a, cand)) <= b for a, b in facets):
                found.append(cand)
    else:
        for cand in iproduct(*ranges):
            if core.contains(tuple(Fraction(c) for c in cand)):
                found.append(cand)
    return SupportSet(P.ambient_dim, frozenset(found))


def polytope_of_support(A: SupportSet) -> LatticePolytope:
    if not A.points:
        raise ValueError("cannot take the hull of an empty support set")
    return convex_hull([tuple(Fraction(c) for c in p) for p in A.points])


def _support_value(P: LatticePolytope, u) -> float:
    return max(sum(float(c) * ui for c, ui in zip(v, u)) for v in P.vertices)


def _edge_vectors(P: LatticePolytope) -> list[tuple[float, ...]]:
    core = _core(P)
    if core.result is None:
        vs = P.vertices
        return [
            tuple(float(a - b) for a, b in zip(vs[i], vs[j]))
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        ]
    edges = set()
    for simplex in core.result.simplices:
        for i in simplex:
            for j in simplex:
                if i < j:
                    edges.add((i, j))
    pts = core.lifted
    return [tuple(float(a - b) for a, b in zip(pts[i], pts[j])) for i, j in edges]


def _unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    if norm == 0:
        return None
    return tuple(x / norm for x in v)


def hausdorff_distance(P: LatticePolytope, Q: LatticePolytope) -> float:
    """Numeric symmetric Hausdorff distance via support-function sampling.

    For convex bodies the distance equals sup over unit directions of the
    support-function gap; the supremum is evaluated on candidate directions
    (facet normals, vertex differences and, in 3D, edge cross products),
    which is exhaustive in the plane and a diagnostic elsewhere.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("Hausdorff distance needs equal ambient dimensions")
    n = P.ambient_dim
    if n > 3:
        raise ValueError("Hausdorff diagnostic supports dimensions 1..3")
    candidates: list[tuple[float, ...]] = []
    if n == 1:
        candidates = [(1.0,), (-1.0,)]
    else:
        for body in (P, Q):
            core = _core(body)
            if core.result is not None:
                candidates.extend(
                    tuple(float(x) for x in a) for a, _ in core.result.planes
                )
        for p in P.vertices:
            for q in Q.vertices:
                d = tuple(float(a - b) for a, b in zip(p, q))
                candidates.append(d)
                candidates.append(tuple(-x for x in d))
        if n == 3:
            ep, eq = _edge_vectors(P), _edge_vectors(Q)
            for a in ep:
                for b in eq:
                    cx = (
                        a[1] * b[2] - a[2] * b[1],
                        a[2] * b[0] - a[0] * b[2],
                        a[0] * b[1] - a[1] * b[0],
                    )
                    candidates.append(cx)
                    candidates.append(tuple(-x for x in cx))
    best = 0.0
    for cand in candidates:
        u = _unit(cand)
        if u is None:
            continue
        gap = abs(_support_value(P, u) - _support_value(Q, u))
        best = max(best, gap)
    return best
