"""Exact rational convex geometry: hulls, Minkowski sums, volumes and lattice
points, for ambient dimensions 1 to 4.

All values are immutable and every operation is a pure function.  A body's
points are kept as integers over one common scale (its least common
denominator), so hulls, sums, dilations, volumes and membership tests are
exact integer arithmetic; only input points and output vertices are
Fractions.  No floating point is used.

A polytope is its exact hull: the integer face ``P.face`` (scale, sorted
integer vertices, in lowest terms), the inequalities that cut it out and
its volume, in Python integers and Fractions, with ``P.contains``.  This
module alone puts faces over a common scale (:func:`_sum_points`, :func:`_union`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product as iproduct
from operator import itemgetter

from . import _hull

MAX_DIM = 4
# bounding-box candidates lattice_points, and so every completion, may test
MAX_LATTICE_CANDIDATES = 10_000

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class LatticePolytope:
    """Convex body stored as its exact hull; only :func:`_polytope` builds one.

    ``face`` is the integer face (scale, sorted integer vertices) in lowest
    terms, so two bodies are equal, with equal hashes, exactly when their
    vertices are.  The body is {x : a.x <= b for (a, b) in ``planes``} at
    that scale: a full body's facets; a flat body's relative facets and each
    equation a.x = b of its affine hull as (a, b) and (-a, -b).  ``volume``
    is exact, zero for a lower-dimensional body.
    """

    ambient_dim: int
    face: tuple[int, tuple[tuple[int, ...], ...]]
    affine_dim: int = field(compare=False)
    volume: Fraction = field(compare=False)
    planes: tuple = field(compare=False, repr=False)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        s, vs = self.face
        return tuple(tuple(Fraction(c, s) for c in v) for v in vs)

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.ambient_dim

    def contains(self, p) -> bool:
        """Whether the point p, a tuple of Fractions or ints, lies in the body."""
        den, (q,) = _lift([p])  # p = q / den, so a.(s p) <= b iff s a.q <= b den
        return all(self.face[0] * _hull._dot(a, q) <= b * den for a, b in self.planes)


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


def support_set(dim: int, points) -> SupportSet:
    return SupportSet(dim, frozenset(tuple(int(c) for c in p) for p in points))


def _lift(points: list[Point]):
    """Clear denominators: (L, the points times L), with L the lcm of the
    denominators of their coordinates, ints or Fractions.  The package's one
    place where rational coordinates or coefficients become integers."""
    lcm = math.lcm(*[c.denominator for p in points for c in p])
    return lcm, [tuple([c.numerator * (lcm // c.denominator) for c in p]) for p in points]


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


def check_dim(n: int) -> None:
    """Reject an ambient dimension the exact hull does not cover."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}")


def _polytope(scale: int, points, n: int) -> LatticePolytope:
    """The polytope conv(points / scale), hulled exactly in integers.

    A lower-dimensional body is hulled in the pivot coordinates of its
    difference rows' echelon form, injective on its affine hull, and its
    relative facets get zeros off the pivots.  Its affine hull's equations
    a.x = a.v, v the lex-min vertex, are the :func:`_hull.null_space` of the
    vertex differences, which the body alone fixes.  The face and the offsets
    (each plane meets a vertex) are divided by the gcd of scale and vertices.
    """
    check_dim(n)
    pts = sorted(set(points))
    rows = tuple(r for _, r in _hull.echelon(_hull._sub(p, pts[0]) for p in pts[1:]))
    d = len(rows)
    planes, vertex_indices, volume = [], [0], Fraction(0)
    if d == n:
        res = _hull.hull_of_lifted(pts, n)
        planes, vertex_indices = res.planes, res.vertex_indices
        volume = Fraction(res.volume, math.factorial(n) * scale**n)
    elif d:
        pivots = sorted(next(j for j, x in enumerate(r) if x) for r in rows)
        projected = [tuple(p[j] for j in pivots) for p in pts]
        order = sorted(range(len(pts)), key=projected.__getitem__)
        inner = _hull.hull_of_lifted([projected[i] for i in order], d)
        spread = itemgetter(*(pivots.index(j) if j in pivots else d for j in range(n)))
        planes = [(spread((*a, 0)), b) for a, b in inner.planes]
        vertex_indices = sorted(order[i] for i in inner.vertex_indices)
    vs = [pts[i] for i in vertex_indices]
    if d < n:
        for a in _hull.null_space([_hull._sub(v, vs[0]) for v in vs[1:]], n):
            b = _hull._dot(a, vs[0])
            planes += [(a, b), (tuple([-x for x in a]), -b)]
    g = math.gcd(scale, *(c for v in vs for c in v))
    face = scale // g, tuple(tuple(c // g for c in v) for v in vs)
    planes = tuple((a, b // g) for a, b in planes)
    return LatticePolytope(n, face, d, volume, planes)


def convex_hull(points) -> LatticePolytope:
    """Convex hull of a nonempty list of rational points of one dimension."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
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
    return _polytope(*_sum_points([P.face, Q.face], n), n)


def scale(P: LatticePolytope, lam) -> LatticePolytope:
    """Dilate by a nonnegative rational factor; factor 0 gives the origin."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("scaling factor must be nonnegative")
    s, vs = P.face
    num = lam.numerator
    dilated = [tuple(num * c for c in v) for v in vs]
    return _polytope(s * lam.denominator, dilated, P.ambient_dim)


def volume(P: LatticePolytope) -> Fraction:
    """Exact Euclidean volume; zero for lower-dimensional bodies."""
    return P.volume


def lattice_points(P: LatticePolytope) -> SupportSet:
    """All integer vectors of P: the candidates fill the box of the integer
    face's extremes, and an integer q is in P iff s a.q <= b for each of its
    planes (a, b) at the face's scale s, as in ``P.contains``."""
    s, vs = P.face
    ranges = [range(-(-min(col) // s), max(col) // s + 1) for col in zip(*vs)]
    count = reduce(lambda acc, r: acc * len(r), ranges, 1)
    if count > MAX_LATTICE_CANDIDATES:
        raise ValueError(
            f"bounding box too large for lattice enumeration: {count} candidates;"
            f" the limit is {MAX_LATTICE_CANDIDATES}"
        )
    planes = [(tuple([s * x for x in a]), b) for a, b in P.planes]
    dot = _hull._dot
    found = [q for q in iproduct(*ranges) if all(dot(a, q) <= b for a, b in planes)]
    return SupportSet(P.ambient_dim, frozenset(found))


def polytope_of_support(A: SupportSet) -> LatticePolytope:
    if not A.points:
        raise ValueError("cannot take the hull of an empty support set")
    return _polytope(1, A.points, A.ambient_dim)
