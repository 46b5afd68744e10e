"""Exact rational convex geometry: hulls, Minkowski sums, volumes and lattice
points, for ambient dimensions 1 to 4.

All values are immutable and every operation is a pure function.  A body's
points are kept as integers over one common scale (its least common
denominator), so hulls, sums, dilations, volumes and membership tests are
exact integer arithmetic; only input points and output vertices are
Fractions.  No floating point is used.

Every polytope is born with its exact hull, ``P.core``: the integer face
``P.core.face`` (scale, sorted integer vertices), the facet planes and the
volume, all plain Python integers and Fractions.  This module alone puts
faces over a common scale (:func:`_sum_points`, :func:`_union`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct

from . import _hull

MAX_DIM = 4
# bounding-box candidates lattice_points may test
MAX_LATTICE_CANDIDATES = 20_000_000

Point = tuple[Fraction, ...]


def _as_point(p) -> Point:
    return tuple(Fraction(c) for c in p)


@dataclass(frozen=True)
class LatticePolytope:
    """Convex body given by its extreme points, in canonical lex order.

    Only :func:`_polytope` builds one, with the exact hull ``core`` the
    vertices were read from.
    """

    ambient_dim: int
    vertices: tuple[Point, ...]
    affine_dim: int
    core: _HullCore = field(repr=False, compare=False)

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


def _sum_points(faces, n):
    """The integer face of the faces' Minkowski sum, (scale, sorted points):
    all sums of one point per face, at the faces' common scale."""
    scale = math.lcm(*(s for s, _ in faces))
    points = {(0,) * n}
    for s, pts in faces:
        f = scale // s
        points = {tuple(a + f * c for a, c in zip(p, q)) for p in points for q in pts}
    return scale, sorted(points)


def _union(faces):
    """The faces' points together at their common scale: (scale, points)."""
    scale = math.lcm(*(s for s, _ in faces))
    return scale, [tuple(scale // s * c for c in p) for s, pts in faces for p in pts]


class _HullCore:
    """Exact hull of the points ``lifted / scale``, kept as integers.

    The common factor of the scale and every coordinate is divided out first,
    so ``scale`` is the least common denominator of the points.  A
    lower-dimensional body is hulled in the coordinates at the pivot columns
    of its difference rows' echelon form, an injective projection on its
    affine hull; ``result`` is then None.  The extreme points are
    ``vertex_indices`` into ``lifted``, and ``face`` is the integer face
    (scale, sorted integer vertices); their Fraction coordinates are formed
    only when :func:`_polytope` makes a polytope.  ``volume`` is the exact
    volume, zero for a lower-dimensional body.
    """

    def __init__(self, scale: int, lifted, ambient_dim: int):
        g = math.gcd(scale, *(c for p in lifted for c in p))
        pts = sorted({tuple(c // g for c in p) for p in lifted})
        self.scale = scale // g
        self.lifted = pts
        base = pts[0]
        diffs = ([a - b for a, b in zip(p, base)] for p in pts[1:])
        self.rows = [r for _, r in _hull.echelon(diffs)]
        self.pivots = sorted(next(j for j, x in enumerate(r) if x) for r in self.rows)
        self.affine_dim = len(self.rows)
        self.result = None
        self.volume = Fraction(0)
        if self.affine_dim == 0:
            self.planes, self.vertex_indices = [], [0]
        elif self.affine_dim == ambient_dim:
            n = ambient_dim
            self.result = _hull.hull_of_lifted(pts, n)
            self.planes, self.vertex_indices = self.result.planes, self.result.vertex_indices
            self.volume = Fraction(self.result.volume, math.factorial(n) * self.scale**n)
        else:
            projected = [tuple(p[j] for j in self.pivots) for p in pts]
            order = sorted(range(len(pts)), key=projected.__getitem__)
            inner = _hull.hull_of_lifted([projected[i] for i in order], self.affine_dim)
            self.planes = inner.planes
            self.vertex_indices = sorted(order[i] for i in inner.vertex_indices)
        self.face = self.scale, tuple(pts[i] for i in self.vertex_indices)

    def facet_inequalities(self):
        """Facets a.x <= b in original coordinates (full-dimensional only)."""
        if self.result is None:
            raise ValueError("facets exist only for full-dimensional bodies")
        return [(a, Fraction(b, self.scale)) for a, b in self.planes]

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


def _polytope(scale: int, lifted, n: int) -> LatticePolytope:
    """The polytope conv(lifted / scale), carrying its hull core."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}")
    core = _HullCore(scale, lifted, n)
    s, vs = core.face
    return LatticePolytope(
        n, tuple(tuple(Fraction(c, s) for c in v) for v in vs), core.affine_dim, core
    )


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
    n = P.ambient_dim
    return _polytope(*_sum_points([P.core.face, Q.core.face], n), n)


def scale(P: LatticePolytope, lam) -> LatticePolytope:
    """Dilate by a nonnegative rational factor; factor 0 gives the origin."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("scaling factor must be nonnegative")
    s, vs = P.core.face
    num = lam.numerator
    dilated = [tuple(num * c for c in v) for v in vs]
    return _polytope(s * lam.denominator, dilated, P.ambient_dim)


def translate(P: LatticePolytope, t) -> LatticePolytope:
    tv = _as_point(t)
    return convex_hull([tuple(a + b for a, b in zip(v, tv)) for v in P.vertices])


def volume(P: LatticePolytope) -> Fraction:
    """Exact Euclidean volume; zero for lower-dimensional bodies."""
    return P.core.volume


def contains_point(P: LatticePolytope, point) -> bool:
    return P.core.contains(_as_point(point))


def bounding_box(P: LatticePolytope) -> list[tuple[Fraction, Fraction]]:
    return [
        (min(v[c] for v in P.vertices), max(v[c] for v in P.vertices))
        for c in range(P.ambient_dim)
    ]


def lattice_points(P: LatticePolytope) -> SupportSet:
    """All integer vectors of P, bounding-box enumeration with exact membership."""
    box = bounding_box(P)
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in box]
    count = reduce(lambda acc, r: acc * len(r), ranges, 1)
    if count > MAX_LATTICE_CANDIDATES:
        raise ValueError("bounding box too large for lattice enumeration")
    contains = P.core.contains
    found = [cand for cand in iproduct(*ranges) if contains(cand)]
    return SupportSet(P.ambient_dim, frozenset(found))


def polytope_of_support(A: SupportSet) -> LatticePolytope:
    if not A.points:
        raise ValueError("cannot take the hull of an empty support set")
    return _polytope(1, A.points, A.ambient_dim)
