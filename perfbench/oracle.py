"""Independent exact planar geometry for the benchmark's known-answer checks.

These few functions re-derive areas, mixed areas and lattice indices with
plain Fractions, without calling okounkov_lab, so a check does not trust the
layer it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2(points):
    """Strictly convex counterclockwise ring of planar points (monotone chain)."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def area2(ring) -> Fraction:
    """Area of a counterclockwise ring (shoelace); 0 for points and segments."""
    n = len(ring)
    twice = sum(
        ring[i][0] * ring[(i + 1) % n][1] - ring[(i + 1) % n][0] * ring[i][1]
        for i in range(n)
    )
    return Fraction(twice, 2) if n >= 3 else Fraction(0)


def mixed_area2(p_ring, q_ring) -> Fraction:
    """V(P, Q) = 1/2 * sum over CCW edges e of P of max_{q in Q} (e_y, -e_x) . q."""
    n = len(p_ring)
    if n < 2:
        return Fraction(0)
    total = Fraction(0)
    for i in range(n):
        a, b = p_ring[i], p_ring[(i + 1) % n]
        nx, ny = b[1] - a[1], a[0] - b[0]
        total += max(nx * q[0] + ny * q[1] for q in q_ring)
    return total / 2


def minkowski2(p_ring, q_ring):
    return hull2([(a[0] + b[0], a[1] + b[1]) for a in p_ring for b in q_ring])


def lattice_index2(points) -> int:
    """Index in Z^2 of the lattice spanned by differences; 0 if rank < 2."""
    pts = sorted(points)
    diffs = [(x - pts[0][0], y - pts[0][1]) for x, y in pts[1:]]
    g = 0
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            g = math.gcd(g, diffs[i][0] * diffs[j][1] - diffs[i][1] * diffs[j][0])
    return g
