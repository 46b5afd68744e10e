"""Planar Steiner symmetrization and section-profile concavity data.

A symmetrization step is exact: the polygon is mapped to a rational frame
whose first axis is the symmetrization line H and whose second axis is the
chord direction, every chord is recentered on H, and the piecewise-linear
chord-length profile is rebuilt into a polygon.  No normalization is needed
because recentering commutes with scaling of the chord axis.

Iterated symmetrization doubles the vertex count almost every round (each
interior kink of the chord profile spawns two vertices), so an unbounded
exact iteration is physically impossible; see `iterate_symmetrize` for the
hybrid policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _hull
from .geometry import LatticePolytope, _lift, minkowski_sum, scale, volume
from .rng import derive_seed

Pt = tuple[Fraction, Fraction]


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


def _profile(ts, ss):
    """Chord endpoints of a convex frame polygon at each distinct abscissa."""
    import bisect

    breaks = sorted(set(ts))
    n = len(ts)
    hi: dict = {t: None for t in breaks}
    lo: dict = {t: None for t in breaks}
    for i in range(n):
        t1, s1 = ts[i], ss[i]
        t2, s2 = ts[(i + 1) % n], ss[(i + 1) % n]
        if t1 == t2:
            candidates = ((t1, s1), (t1, s2))
        else:
            lo_t, hi_t = (t1, t2) if t1 < t2 else (t2, t1)
            first = bisect.bisect_left(breaks, lo_t)
            last = bisect.bisect_right(breaks, hi_t)
            candidates = tuple(
                (t, s1 + (s2 - s1) * (t - t1) / (t2 - t1))
                for t in breaks[first:last]
            )
        for t, s in candidates:
            if hi[t] is None or s > hi[t]:
                hi[t] = s
            if lo[t] is None or s < lo[t]:
                lo[t] = s
    return breaks, hi, lo


def _prune_collinear(ring: list[Pt]) -> list[Pt]:
    """Remove vertices lying on the segment of their cyclic neighbours."""
    pts = ring
    changed = True
    while changed:
        changed = False
        keep = []
        n = len(pts)
        for i in range(n):
            if _cross(pts[i - 1], pts[i], pts[(i + 1) % n]) == 0:
                changed = True
            else:
                keep.append(pts[i])
        pts = keep
        if len(pts) < 3:
            raise ValueError("polygon degenerated to a segment")
    return pts


def _finish_ring(ring: list[Pt]) -> ConvexPolygon:
    """Canonical polygon from an ordered convex ring (either orientation)."""
    signed2 = sum(
        ring[i][0] * ring[(i + 1) % len(ring)][1]
        - ring[(i + 1) % len(ring)][0] * ring[i][1]
        for i in range(len(ring))
    )
    if signed2 < 0:
        ring = list(reversed(ring))
    ring = _prune_collinear(ring)
    start = min(range(len(ring)), key=lambda i: ring[i])
    return ConvexPolygon(tuple(ring[start:] + ring[:start]))


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
    vs = p.vertices
    ts = [-uy * x + ux * y for x, y in vs]
    ss = [ux * x + uy * y for x, y in vs]
    breaks, hi, lo = _profile(ts, ss)
    frame_ring: list[tuple[Fraction, Fraction]] = []
    for t in breaks:  # bottom chain, t ascending
        frame_ring.append((t, (lo[t] - hi[t]) / 2))
    for t in reversed(breaks):  # top chain, t descending
        half = (hi[t] - lo[t]) / 2
        if half != 0:
            frame_ring.append((t, half))
    det = -(ux * ux + uy * uy)
    out = []
    for t, s in frame_ring:
        # solve (-uy) x + ux y = t ; ux x + uy y = s
        x = (t * uy - s * ux) / det
        y = (-uy * s - ux * t) / det
        out.append((x, y))
    return _finish_ring(out)


# -- floating-point twin used once exact iteration becomes too large ---------

def _float_symmetrize(vs, direction, max_vertices=1024):
    ux, uy = direction
    ts = [-uy * x + ux * y for x, y in vs]
    ss = [ux * x + uy * y for x, y in vs]
    order = sorted(range(len(vs)), key=lambda i: ts[i])
    breaks: list[float] = []
    for i in order:
        if not breaks or ts[i] > breaks[-1] + 1e-13 * (1 + abs(breaks[-1])):
            breaks.append(ts[i])
    n = len(vs)
    hi = [-math.inf] * len(breaks)
    lo = [math.inf] * len(breaks)
    import bisect

    for i in range(n):
        t1, s1 = ts[i], ss[i]
        t2, s2 = ts[(i + 1) % n], ss[(i + 1) % n]
        if t1 > t2:
            t1, t2, s1, s2 = t2, t1, s2, s1
        first = bisect.bisect_left(breaks, t1 - 1e-12 * (1 + abs(t1)))
        for bi in range(first, len(breaks)):
            t = breaks[bi]
            if t > t2 + 1e-12 * (1 + abs(t2)):
                break
            s = s1 if t2 == t1 else s1 + (s2 - s1) * (t - t1) / (t2 - t1)
            if t1 == t2:
                s_lo, s_hi = min(s1, s2), max(s1, s2)
            else:
                s_lo = s_hi = s
            hi[bi] = max(hi[bi], s_hi)
            lo[bi] = min(lo[bi], s_lo)
    norm2 = ux * ux + uy * uy
    ring = []
    for bi, t in enumerate(breaks):
        half = (hi[bi] - lo[bi]) / 2.0
        ring.append((t, -half))
    for bi in range(len(breaks) - 1, -1, -1):
        t = breaks[bi]
        half = (hi[bi] - lo[bi]) / 2.0
        if half > 0:
            ring.append((t, half))
    out = []
    for t, s in ring:
        x = (-uy * t + ux * s) / norm2
        y = (ux * t + uy * s) / norm2
        out.append((x, y))
    signed2 = sum(
        out[i][0] * out[(i + 1) % len(out)][1] - out[(i + 1) % len(out)][0] * out[i][1]
        for i in range(len(out))
    )
    if signed2 < 0:  # the frame inverse flips orientation
        out.reverse()
    return _float_prune(out, max_vertices)


def _float_prune(ring, max_vertices):
    """Drop nearly collinear vertices; inscribed, so perimeter never grows."""
    def crossf(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = ring
    changed = True
    while changed:
        changed = False
        keep = []
        n = len(pts)
        for i in range(n):
            o, a, b = pts[i - 1], pts[i], pts[(i + 1) % n]
            if crossf(o, a, b) <= 1e-13 * (1 + abs(a[0]) + abs(a[1])) ** 2:
                changed = True
                continue
            keep.append(a)
        pts = keep
        if len(pts) < 3:
            raise ValueError("float polygon collapsed")
    while len(pts) > max_vertices:
        # batch-remove the flattest vertices, never two adjacent in one pass
        n = len(pts)
        crosses = [crossf(pts[i - 1], pts[i], pts[(i + 1) % n]) for i in range(n)]
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
    exact_vertex_cap: int = 600,
    exact_bit_cap: int = 1200,
) -> list[RoundStat]:
    """Random-direction symmetrization rounds with convergence diagnostics.

    The area column is the exact invariant area: rounds run in exact
    arithmetic (with the invariance asserted) while the polygon stays under
    the vertex and coordinate-size caps.  Each exact round roughly doubles
    both, so past the caps the iteration hands off to a floating-point twin
    with near-collinear pruning; the pruned polygon is inscribed, so the
    reported perimeter stays nonincreasing up to roundoff.  Perimeter and
    disc distance are always double-precision diagnostics.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
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
                len(exact_poly.vertices) > exact_vertex_cap
                or _bit_size(exact_poly) > exact_bit_cap
            ):
                float_vs = vs_float  # hand off to the float twin next round
                exact_poly = None
        else:
            float_vs = _float_symmetrize(
                float_vs, (float(direction[0]), float(direction[1]))
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
    if samples < 3:
        raise ValueError("need at least three sample points")
    rows = []
    for j in range(samples + 1):
        h = Fraction(j, samples)
        body = minkowski_sum(scale(d1, h), scale(d2, 1 - h))
        rows.append((h, volume(body)))
    return rows
