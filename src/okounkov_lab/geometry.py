"""Exact rational convex geometry: hulls, Minkowski sums, volumes and lattice
points, for ambient dimensions 1 to 4.

All values are immutable and every operation is a pure function.  A body's
points are kept as integers over one common scale (its least common
denominator), so hulls, sums, dilations, volumes and membership tests are
exact integer arithmetic; only input points and output vertices are
Fractions.  No floating point is used.
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
    lcm = math.lcm(*(c.denominator for p in points for c in p))
    lifted = [tuple(c.numerator * (lcm // c.denominator) for c in p) for p in points]
    return lcm, lifted


class _HullCore:
    """Exact hull of the points ``lifted / scale``, kept as integers.

    The common factor of the scale and every coordinate is divided out first,
    so ``scale`` is the least common denominator of the points.  A
    lower-dimensional body is hulled in the coordinates at the pivot columns
    of its difference rows' echelon form, an injective projection on its
    affine hull; ``result`` is then None.  The extreme points are
    ``vertex_indices`` into ``lifted``; their Fraction coordinates are formed
    only when :func:`_polytope` makes a polytope.
    """

    def __init__(self, scale: int, lifted, ambient_dim: int):
        g = math.gcd(scale, *(c for p in lifted for c in p))
        pts = sorted({tuple(c // g for c in p) for p in lifted})
        self.scale = scale // g
        self.lifted = pts
        self.ambient_dim = ambient_dim
        base = pts[0]
        diffs = ([a - b for a, b in zip(p, base)] for p in pts[1:])
        self.rows = [r for _, r in _hull.echelon(diffs)]
        self.pivots = sorted(next(j for j, x in enumerate(r) if x) for r in self.rows)
        self.affine_dim = len(self.rows)
        self.result = None
        if self.affine_dim == 0:
            self.planes, self.vertex_indices = [], [0]
        elif self.affine_dim == ambient_dim:
            self.result = _hull.hull_of_lifted(pts, ambient_dim)
            self.planes, self.vertex_indices = self.result.planes, self.result.vertex_indices
        else:
            projected = [tuple(p[j] for j in self.pivots) for p in pts]
            order = sorted(range(len(pts)), key=projected.__getitem__)
            inner = _hull.hull_of_lifted([projected[i] for i in order], self.affine_dim)
            self.planes = inner.planes
            self.vertex_indices = sorted(order[i] for i in inner.vertex_indices)

    def facet_inequalities(self):
        """Facets a.x <= b in original coordinates (full-dimensional only)."""
        if self.result is None:
            raise ValueError("facets exist only for full-dimensional bodies")
        return [(a, Fraction(b, self.scale)) for a, b in self.planes]

    def volume(self) -> Fraction:
        if self.result is None:
            return Fraction(0)
        raw = _hull.hull_volume_lifted(self.lifted, self.result)
        n = self.ambient_dim
        return Fraction(raw, math.factorial(n) * self.scale**n)

    def contains(self, p: Point) -> bool:
        q = [c * self.scale for c in p]
        if self.result is None:
            den = math.lcm(*(c.denominator for c in q))
            diff = [c.numerator * (den // c.denominator) - den * b
                    for c, b in zip(q, self.lifted[0])]
            if len(_hull.echelon(self.rows + [diff])) > self.affine_dim:
                return False  # off the affine hull
            q = [q[j] for j in self.pivots]
        return all(sum(ai * ci for ai, ci in zip(a, q)) <= b for a, b in self.planes)


def _lifted(P: LatticePolytope):
    """(scale, integer vertices) with vertices == lifted / scale, cached."""
    got = P._cache.get("lifted")
    if got is None:
        got = P._cache["lifted"] = _lift(P.vertices)
    return got


def _core(P: LatticePolytope) -> _HullCore:
    core = P._cache.get("core")
    if core is None:
        core = P._cache["core"] = _HullCore(*_lifted(P), P.ambient_dim)
    return core


def _polytope(scale: int, lifted, n: int) -> LatticePolytope:
    """The polytope conv(lifted / scale), with its hull core cached."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}")
    core = _HullCore(scale, lifted, n)
    vs = [core.lifted[i] for i in core.vertex_indices]
    P = LatticePolytope(
        n, tuple(tuple(Fraction(c, core.scale) for c in v) for v in vs), core.affine_dim
    )
    P._cache["core"] = core
    P._cache["lifted"] = (core.scale, vs)
    return P


def convex_hull(points) -> LatticePolytope:
    """Convex hull of a nonempty list of rational points of one dimension."""
    pts = [_as_point(p) for p in points]
    if not pts:
        raise ValueError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimensions")
    return _polytope(*_lift(pts), n)


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    """Hull of all pairwise vertex sums."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("Minkowski sum needs equal ambient dimensions")
    (sp, vp), (sq, vq) = _lifted(P), _lifted(Q)
    lcm = math.lcm(sp, sq)
    fp, fq = lcm // sp, lcm // sq
    sums = {tuple(fp * a + fq * b for a, b in zip(p, q)) for p in vp for q in vq}
    return _polytope(lcm, sums, P.ambient_dim)


def scale(P: LatticePolytope, lam) -> LatticePolytope:
    """Dilate by a nonnegative rational factor; factor 0 gives the origin."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("scaling factor must be nonnegative")
    s, vs = _lifted(P)
    num = lam.numerator
    dilated = [tuple(num * c for c in v) for v in vs]
    return _polytope(s * lam.denominator, dilated, P.ambient_dim)


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
    found = [cand for cand in iproduct(*ranges) if core.contains(cand)]
    return SupportSet(P.ambient_dim, frozenset(found))


def polytope_of_support(A: SupportSet) -> LatticePolytope:
    if not A.points:
        raise ValueError("cannot take the hull of an empty support set")
    return _polytope(1, A.points, A.ambient_dim)
