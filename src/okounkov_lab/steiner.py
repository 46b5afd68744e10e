"""Planar Steiner symmetrization and section-profile concavity data.

A symmetrization step maps the polygon to a frame whose first axis is the
symmetrization line H and whose second axis is the chord direction,
recenters every chord on H, and rebuilds the piecewise-linear chord-length
profile into a polygon.  No normalization is needed because recentering
commutes with scaling of the chord axis.

One routine, `_symmetrize`, runs that step for both number types: exact
rounds feed it `Fraction`s with zero tolerance, float rounds feed it
doubles with a small tolerance and a vertex budget.  `ConvexPolygon` keeps
a `Fraction` per vertex rather than integers over one common denominator:
each new vertex carries the interpolation divisor of its own edge, so the
least common denominator of a ring multiplies them together (on the
criterion-10 quad at seed 3 it has 79,116 bits after round 8, while no
vertex coordinate has more than 1,934).

Iterated symmetrization doubles the vertex count almost every round (each
interior kink of the chord profile spawns two vertices), so an unbounded
exact iteration is physically impossible; see `iterate_symmetrize` for the
hybrid policy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _hull
from .geometry import LatticePolytope, _lift, minkowski_sum, scale, volume
from .rng import derive_seed

Pt = tuple[Fraction, Fraction]

# exact rounds hand off to floats past either cap
EXACT_VERTEX_CAP = 600
EXACT_BIT_CAP = 1200
FLOAT_EPS = 1e-13
FLOAT_MAX_VERTICES = 1024
# input budgets: at most 500 rounds (float rounds cost 15-35 ms each),
# 1000 profile samples (4-10 ms each on small 3D bodies), and a polygon of
# at most as many vertices as a float round keeps (the first round's
# diagnostics peak at 80 MiB for 1024 input vertices)
MAX_ROUNDS = 500
MAX_SAMPLES = 1000
MAX_POLYGON_VERTICES = FLOAT_MAX_VERTICES


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon: CCW vertices, no collinear triples."""

    vertices: tuple[Pt, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least three vertices")


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _canonical_ring(points: list[Pt]) -> tuple[Pt, ...]:
    """CCW ring with collinear points pruned, starting at the lex-min vertex."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("degenerate polygon")
    _, lifted = _lift(pts)
    res = _hull.hull_of_lifted(lifted, 2)
    ring = [res.simplices[0][0]]
    follow = {i: j for i, j in res.simplices}
    while len(ring) < len(res.simplices):
        ring.append(follow[ring[-1]])
    ring_pts = [pts[i] for i in ring]
    if len(ring_pts) < 3:
        raise ValueError("degenerate polygon")
    start = min(range(len(ring_pts)), key=lambda i: ring_pts[i])
    return tuple(ring_pts[start:] + ring_pts[:start])


def polygon(points) -> ConvexPolygon:
    """Convex polygon through the extreme points of the input."""
    pts = [(Fraction(p[0]), Fraction(p[1])) for p in points]
    return ConvexPolygon(_canonical_ring(pts))


def area(p: ConvexPolygon) -> Fraction:
    twice = Fraction(0)
    vs = p.vertices
    for i in range(len(vs)):
        x1, y1 = vs[i]
        x2, y2 = vs[(i + 1) % len(vs)]
        twice += x1 * y2 - x2 * y1
    return twice / 2  # positive for the CCW ring


def _symmetrize(ring, direction, eps, max_vertices):
    """One Steiner step on a convex CCW ring of (x, y) pairs; a CCW ring out.

    The same code serves both number types.  Exact rounds pass `Fraction`s
    with `eps = 0` and `max_vertices = math.inf`: abscissae merge only when
    equal, only truly collinear vertices are pruned, and nothing is thinned,
    so the result is the exact symmetral.  Float rounds pass floats with
    `eps = 1e-13` and a vertex budget: abscissae within `eps` merge, an edge
    serves the breaks within `10 * eps` of its span, vertices within `eps` of
    collinear go, and the flattest vertices are thinned to the budget.  The
    ring is mapped to the frame t = u^perp . p, s = u . p, every chord over a
    break of the t-profile is recentered on s = 0, and the bottom and top
    chains are mapped back.
    """
    ux, uy = direction
    ts = [-uy * x + ux * y for x, y in ring]
    ss = [ux * x + uy * y for x, y in ring]
    breaks = []
    for t in sorted(ts):
        if not breaks or t > breaks[-1] + eps * (1 + abs(breaks[-1])):
            breaks.append(t)
    hi = [-math.inf] * len(breaks)
    lo = [math.inf] * len(breaks)
    reach = 10 * eps
    n = len(ring)
    for i in range(n):
        t1, s1 = ts[i], ss[i]
        t2, s2 = ts[(i + 1) % n], ss[(i + 1) % n]
        if t1 > t2:
            t1, t2, s1, s2 = t2, t1, s2, s1
        first = bisect.bisect_left(breaks, t1 - reach * (1 + abs(t1)))
        for bi in range(first, len(breaks)):
            t = breaks[bi]
            if t > t2 + reach * (1 + abs(t2)):
                break
            if t1 == t2:
                s_lo, s_hi = min(s1, s2), max(s1, s2)
            else:
                s_lo = s_hi = s1 + (s2 - s1) * (t - t1) / (t2 - t1)
            hi[bi] = max(hi[bi], s_hi)
            lo[bi] = min(lo[bi], s_lo)
    halves = [(hi[bi] - lo[bi]) / 2 for bi in range(len(breaks))]
    frame = [(t, -half) for t, half in zip(breaks, halves)]  # bottom, t ascending
    frame += [(t, half) for t, half in zip(breaks[::-1], halves[::-1]) if half > 0]
    norm2 = ux * ux + uy * uy
    out = [((-uy * t + ux * s) / norm2, (ux * t + uy * s) / norm2) for t, s in frame]
    # the frame map has determinant -|u|^2 < 0, so the CCW frame ring comes
    # back clockwise
    out.reverse()
    return _prune(out, eps, max_vertices)


def _prune(ring, eps, max_vertices):
    """Drop (nearly) collinear vertices, then thin the flattest to the budget.

    Every dropped vertex lies on or inside the kept ring, so the result is
    inscribed and the perimeter never grows.
    """
    pts = ring
    changed = True
    while changed:
        changed = False
        keep = []
        n = len(pts)
        for i in range(n):
            a = pts[i]
            flat = eps * (1 + abs(a[0]) + abs(a[1])) ** 2
            if _cross(pts[i - 1], a, pts[(i + 1) % n]) <= flat:
                changed = True
            else:
                keep.append(a)
        pts = keep
        if len(pts) < 3:
            raise ValueError("polygon degenerated to a segment")
    while len(pts) > max_vertices:
        # batch-remove the flattest vertices, never two adjacent in one pass
        n = len(pts)
        crosses = [_cross(pts[i - 1], pts[i], pts[(i + 1) % n]) for i in range(n)]
        excess = n - max_vertices
        threshold = sorted(crosses)[min(excess * 2, n - 1)]
        keep = []
        dropped_prev = False
        for i in range(n):
            if not dropped_prev and excess > 0 and crosses[i] <= threshold:
                dropped_prev = True
                excess -= 1
                continue
            dropped_prev = False
            keep.append(pts[i])
        if len(keep) == n:
            break
        pts = keep
    return pts


def steiner_symmetrize(p: ConvexPolygon, direction) -> ConvexPolygon:
    """Recenter all chords in the given direction onto the orthogonal line.

    `direction` is the chord direction as a rational vector; the fixed line
    H runs orthogonally through the origin.  The result is exact, and it is
    assembled directly from the concave chord-length profile, so no convex
    hull pass is needed.
    """
    ux, uy = Fraction(direction[0]), Fraction(direction[1])
    if ux == 0 and uy == 0:
        raise ValueError("direction must be nonzero")
    if area(p) <= 0:
        raise ValueError("degenerate polygon")
    ring = _symmetrize(p.vertices, (ux, uy), 0, math.inf)
    start = min(range(len(ring)), key=lambda i: ring[i])
    return ConvexPolygon(tuple(ring[start:] + ring[:start]))


def _float_perimeter(vs) -> float:
    return sum(
        math.hypot(vs[(i + 1) % len(vs)][0] - vs[i][0], vs[(i + 1) % len(vs)][1] - vs[i][1])
        for i in range(len(vs))
    )


def _float_centroid(vs):
    a6 = cx = cy = 0.0
    for i in range(len(vs)):
        x1, y1 = vs[i]
        x2, y2 = vs[(i + 1) % len(vs)]
        w = x1 * y2 - x2 * y1
        a6 += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    return cx / (3 * a6), cy / (3 * a6)


def hausdorff_to_disc(vs, center, radius) -> float:
    """Support-function gap between a float polygon and a disc.

    Candidate directions are a uniform grid plus every vertex direction and
    edge normal, where the piecewise-linear support gap attains extrema.
    """
    cx, cy = center
    arr = np.asarray(vs, dtype=float)
    angles = [2 * math.pi * k / 1024 for k in range(1024)]
    angles.extend(np.arctan2(arr[:, 1] - cy, arr[:, 0] - cx).tolist())
    edges = np.roll(arr, -1, axis=0) - arr
    angles.extend(np.arctan2(edges[:, 0], -edges[:, 1]).tolist())
    thetas = np.asarray(angles)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    supports = (dirs @ arr.T).max(axis=1)
    gaps = np.abs(supports - (dirs[:, 0] * cx + dirs[:, 1] * cy + radius))
    return float(gaps.max())


@dataclass(frozen=True)
class RoundStat:
    round: int
    area: Fraction
    perimeter: float
    hausdorff_to_disc: float
    vertex_count: int
    exact: bool


def _bit_size(poly: ConvexPolygon) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for v in poly.vertices
        for c in v
    )


def iterate_symmetrize(
    p: ConvexPolygon,
    rounds: int,
    seed: int = 0,
) -> list[RoundStat]:
    """Random-direction symmetrization rounds with convergence diagnostics.

    The area column is the exact invariant area: rounds run in exact
    arithmetic (with the invariance asserted) while the polygon stays under
    the vertex and coordinate-size caps.  Each exact round roughly doubles
    both, so past the caps the iteration hands off to float rounds of the
    same `_symmetrize`, with near-collinear pruning and a vertex budget; the
    pruned polygon is inscribed, so the reported perimeter stays
    nonincreasing up to roundoff.  Perimeter and disc distance are always
    double-precision diagnostics.
    """
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}")
    if len(p.vertices) > MAX_POLYGON_VERTICES:
        raise ValueError(
            f"polygon has {len(p.vertices)} vertices; the limit is {MAX_POLYGON_VERTICES}"
        )
    import random as _random

    rng = _random.Random(derive_seed(seed, "steiner-directions"))
    invariant_area = area(p)
    exact_poly: ConvexPolygon | None = p
    float_vs: list | None = None
    stats = []
    radius = math.sqrt(float(invariant_area) / math.pi)
    for r in range(1, rounds + 1):
        direction = (0, 0)
        while direction == (0, 0):
            direction = (rng.randint(-10, 10), rng.randint(-10, 10))
        if exact_poly is not None:
            exact_poly = steiner_symmetrize(exact_poly, direction)
            if area(exact_poly) != invariant_area:
                raise AssertionError("exact symmetrization changed the area")
            vs_float = [(float(x), float(y)) for x, y in exact_poly.vertices]
            exact_round = True
            if (
                len(exact_poly.vertices) > EXACT_VERTEX_CAP
                or _bit_size(exact_poly) > EXACT_BIT_CAP
            ):
                float_vs = vs_float  # hand off to float rounds
                exact_poly = None
        else:
            float_vs = _symmetrize(
                float_vs,
                (float(direction[0]), float(direction[1])),
                FLOAT_EPS,
                FLOAT_MAX_VERTICES,
            )
            vs_float = float_vs
            exact_round = False
        per = _float_perimeter(vs_float)
        c = _float_centroid(vs_float)
        hd = hausdorff_to_disc(vs_float, c, radius)
        stats.append(
            RoundStat(r, invariant_area, per, hd, len(vs_float), exact_round)
        )
    return stats


def section_profile(d1: LatticePolytope, d2: LatticePolytope, samples: int):
    """Exact volumes of the convex combinations h*D1 + (1-h)*D2.

    Returns (h, volume) pairs at h = j/samples; the acceptance harness
    checks midpoint concavity of the n-th root by exact cross powers.
    """
    if d1.ambient_dim != d2.ambient_dim:
        raise ValueError("section profile needs equal ambient dimensions")
    if d1.ambient_dim > 3:
        raise ValueError("section profile supports dimensions 1..3")
    if not 3 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in 3..{MAX_SAMPLES}")
    rows = []
    for j in range(samples + 1):
        h = Fraction(j, samples)
        body = minkowski_sum(scale(d1, h), scale(d2, 1 - h))
        rows.append((h, volume(body)))
    return rows
