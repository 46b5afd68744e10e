"""Planar Steiner symmetrization and section-profile concavity data.

A symmetrization step maps the polygon to a frame whose first axis is the
symmetrization line H and whose second axis is the chord direction,
recenters every chord on H, and rebuilds the piecewise-linear chord-length
profile into a polygon.  No normalization is needed because recentering
commutes with scaling of the chord axis.

Exact rounds, `_exact_round`, work on reduced integer triples (X, Y, D),
the vertex (X / D, Y / D) with D > 0 and gcd(X, Y, D) = 1, and the chord
direction scaled to a primitive integer vector; they never build a
`Fraction`.  Floating point proposes and exact arithmetic decides: the
breaks are sorted, and the start vertex picked, by correctly rounded float
keys X / D, which are monotone in the exact value, so cross-multiplication
runs only where two keys are equal (or a key is past double range).
A round relies on a strictly convex input ring: `_ring` keeps only the
hull's corners, and the symmetral of a strictly convex ring is strictly
convex.  Each chord end that interpolates an edge is divided by its gcd as
it is formed, so the later products run on shorter integers, and the two
output vertices of a chord share one big gcd.
Each vertex keeps its own denominator: a new vertex carries the
interpolation divisor of its edge, so the least common denominator of a
ring multiplies them together (on the criterion-10 quad at seed 3 it has
79,116 bits after round 8, while no vertex coordinate has more than 1,934).
Only the shoelace area checked after every exact round meets that common
denominator, and only in its last additions: `_ring_area` sums the edge
terms in integers per denominator D1 D2 and adds the groups' Fractions
pairwise in a balanced tree.  The hand-off test (`_over_bit_cap`) reduces
only vertices whose raw X, Y or D is longer than the bit cap, and stops at
the first reduced coordinate over it.  Float rounds, `_symmetrize` and
`_prune`, run the same step on doubles with a small tolerance and a vertex
budget, on parallel lists of coordinates with no call per vertex.  At the
API a polygon is a planar, full-dimensional `geometry.LatticePolytope`; its
ring of triples is read off the polytope's cached lifted vertices
(`_ring`).  The convergence diagnostics are plain float arithmetic, the
disc distance in closed form (`hausdorff_to_disc`).  A section profile
is the bodies' mixed-volume polynomial, with no hull per sample.

Iterated symmetrization doubles the vertex count almost every round (each
interior kink of the chord profile spawns two vertices), so an unbounded
exact iteration is physically impossible; see `iterate_symmetrize` for the
hybrid policy.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby

from . import _hull, mixedvol
from .geometry import LatticePolytope, _lift, _polytope, _union, volume
from .rng import derive_seed

Tri = tuple[int, int, int]  # (X, Y, D): the vertex (X / D, Y / D), D > 0, gcd 1

# exact rounds hand off to floats past either cap
EXACT_VERTEX_CAP = 600
EXACT_BIT_CAP = 1200
FLOAT_EPS = 1e-13
FLOAT_MAX_VERTICES = 1024
# input budgets: at most 500 rounds (float rounds of 1024 vertices cost
# 3-10 ms each; all 500 on the criterion-10 quad take about 4 s), 1000
# profile samples (0.04-0.06 ms each on small 3D bodies, after at most 1 ms
# of mixed volumes), and a polygon of at most as many vertices as a float
# round keeps
MAX_ROUNDS = 500
MAX_SAMPLES = 1000
MAX_POLYGON_VERTICES = FLOAT_MAX_VERTICES


def _ring(p: LatticePolytope) -> list[Tri]:
    """The vertices of a planar, full-dimensional polytope as a CCW ring of triples.

    The ring is strictly convex, as `_hull.ring_2d` drops collinear points,
    and starts at the lex-min vertex; each lifted vertex (x, y) over
    the polytope's scale is reduced by its own gcd.
    """
    if p.ambient_dim != 2:
        raise ValueError("polygons are two-dimensional")
    if not p.is_full_dimensional:
        raise ValueError("degenerate polygon")
    den, lifted = p.face
    out = []
    for i in _hull.ring_2d(lifted):
        x, y = lifted[i]
        g = math.gcd(x, y, den)
        out.append((x // g, y // g, den // g))
    return out


def _ring_area(ring: list[Tri]) -> Fraction:
    """Exact shoelace area of a ring of triples; positive for a CCW ring.

    The edge terms (X1 Y2 - X2 Y1) / (D1 D2) are summed in integers per
    denominator D1 D2, and the Fractions of the groups are added pairwise in
    a balanced tree, so no partial sum carries the whole ring's common
    denominator until the last additions.
    """
    groups: dict[int, int] = {}
    x1, y1, d1 = ring[-1]
    for x2, y2, d2 in ring:
        d = d1 * d2
        groups[d] = groups.get(d, 0) + x1 * y2 - x2 * y1
        x1, y1, d1 = x2, y2, d2
    terms = [Fraction(m, d) for d, m in groups.items()]
    while len(terms) > 1:
        pairs = [a + b for a, b in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[2 * len(pairs):]
    return terms[0] / 2


def _primitive(direction) -> tuple[int, int]:
    """The rational chord direction scaled to a primitive integer vector.

    The symmetral depends only on the line the direction spans, so neither
    the length nor the sign matters.
    """
    ux, uy = Fraction(direction[0]), Fraction(direction[1])
    if ux == 0 and uy == 0:
        raise ValueError("direction must be nonzero")
    _, ((a, b),) = _lift([(ux, uy)])
    g = math.gcd(a, b)
    return a // g, b // g


def _exact_round(ring: list[Tri], ux: int, uy: int) -> list[Tri]:
    """One exact Steiner step on a strictly convex CCW ring of triples.

    The ring is a `_ring` or an earlier round's output, so no vertex is
    collinear with its neighbours.  The chord direction (ux, uy) is a
    primitive integer vector.  A vertex maps to the frame point
    (T / D, S / D) with T = -uy X + ux Y and S = ux X + uy Y.  The breaks are
    the distinct abscissae T / D.  Floats propose their order and exact
    arithmetic decides: a correctly rounded key T / D is monotone in the
    exact value, so the vertices are sorted by their keys, and only a run
    of equal keys is ordered, and merged into breaks, by cross-multiplication
    (when a key is past double range, the whole ring is one such run).  At
    each break the chord ends come from the vertices there and, strictly
    inside an edge's span, from the edge interpolation s = num / den with

        num = S1 (T2 Dk - Tk D2) + S2 (Tk D1 - T1 Dk),  den = Dk span,
        span = T2 D1 - T1 D2 > 0,

    num and span divided by their gcd as the chord end is formed.  Every
    chord is recentered on s = 0, and its bottom and top ends are mapped
    back over one common denominator, one big gcd serving both ends.
    The lex-min output vertex is picked by the float keys X / D the same
    way, exact comparisons deciding only among equal keys.

    The result is a strictly convex CCW ring starting at its lex-min vertex,
    with no pass over it: each interior break is a strict kink of the upper
    chain U or the lower chain L of the strictly convex input, and either
    kink adds to the concavity of the half-width h = (U - L) / 2, so h has a
    strict kink there and both output vertices are strict turns; the two
    end breaks are corners.
    """
    ts = [(-uy * x + ux * y, d) for x, y, d in ring]
    ss = [ux * x + uy * y for x, y, _ in ring]
    keys = _float_keys(ts)
    order = sorted(range(len(ring)), key=keys.__getitem__)
    if len(set(keys)) < len(keys):
        exact = cmp_to_key(lambda i, j: ts[i][0] * ts[j][1] - ts[j][0] * ts[i][1])
        order = [i for _, run in groupby(order, keys.__getitem__) for i in sorted(run, key=exact)]
    breaks: list[tuple[int, int]] = []  # (T, D): the abscissa T / D
    rank = [0] * len(ring)
    last = bt = bd = None  # the key and (T, D) of the last break
    for i in order:
        t, d = ts[i]
        if keys[i] != last or t * bd != bt * d:
            breaks.append((t, d))
            last, bt, bd = keys[i], t, d
        rank[i] = len(breaks) - 1
    # chord ends at break k as pairs (m, e), the value m / (Dk e) with e > 0
    hi: list = [None] * len(breaks)
    lo: list = [None] * len(breaks)

    def widen(k, m, e):
        top, bottom = hi[k], lo[k]
        if top is None:
            hi[k] = lo[k] = (m, e)
        elif m * top[1] > top[0] * e:
            hi[k] = (m, e)
        elif m * bottom[1] < bottom[0] * e:
            lo[k] = (m, e)

    for i, (_, _, d) in enumerate(ring):
        dk = breaks[rank[i]][1]
        widen(rank[i], *((ss[i], 1) if d == dk else (ss[i] * dk, d)))
    for v in range(len(ring)):
        i, j = v - 1, v
        if rank[i] > rank[j]:
            i, j = j, i
        (t1, d1), s1 = ts[i], ss[i]
        (t2, d2), s2 = ts[j], ss[j]
        span = t2 * d1 - t1 * d2
        for k in range(rank[i] + 1, rank[j]):
            tk, dk = breaks[k]
            num = s1 * (t2 * dk - tk * d2) + s2 * (tk * d1 - t1 * dk)
            g = math.gcd(num, span)
            widen(k, num // g, span // g)
    norm2 = ux * ux + uy * uy
    bottom, top = [], []
    for (tk, dk), (m1, e1), (m2, e2) in zip(breaks, hi, lo):
        # the frame points (tk / dk, -+half / (dk f)), with (hi - lo) / 2 =
        # half / (dk f), map back to (x, y) / den with den = norm2 dk f.
        # g = gcd(half, p, den) divides both ends; as u . (x, y) = -+norm2 half
        # and u^perp . (x, y) = norm2 p, and half / g, p / g, den / g are
        # coprime, an end's remaining common factor divides norm2: one big
        # gcd for the pair, then one with the small norm2 per end
        half, f = m1 * e2 - m2 * e1, 2 * e1 * e2
        p, den = tk * f, norm2 * dk * f
        g = math.gcd(half, p, den)
        if g > 1:
            half, p, den = half // g, p // g, den // g
        x, y = -uy * p - ux * half, ux * p - uy * half
        r = math.gcd(norm2, x, y, den)
        bottom.append((x // r, y // r, den // r) if r > 1 else (x, y, den))
        if half > 0:
            x, y = -uy * p + ux * half, ux * p + uy * half
            r = math.gcd(norm2, x, y, den)
            top.append((x // r, y // r, den // r) if r > 1 else (x, y, den))
    # the frame map has determinant -|u|^2 < 0, so the CCW frame ring
    # (bottom ascending, top descending) comes back clockwise
    out = top + bottom[::-1]
    xkeys = _float_keys([(x, d) for x, _, d in out])
    low = min(xkeys)
    start, *ties = [i for i, key in enumerate(xkeys) if key == low]
    for i in ties:
        x, y, d = out[i]
        x0, y0, d0 = out[start]
        if x * d0 < x0 * d or (x * d0 == x0 * d and y * d0 < y0 * d):
            start = i
    return out[start:] + out[:start]


def _float_keys(pairs) -> list[float]:
    """The correctly rounded floats N / D of pairs (N, D), D > 0.

    They are monotone in the exact value; when one is past double range
    they are all 0.0, so every comparison falls to exact arithmetic.
    """
    try:
        return [n / d for n, d in pairs]
    except OverflowError:
        return [0.0] * len(pairs)


def _symmetrize(ring, direction):
    """One float Steiner step on a convex CCW ring of (x, y) pairs; a CCW ring out.

    Abscissae within `FLOAT_EPS` merge, an edge serves the breaks within
    `10 * FLOAT_EPS` of its span, and the result is pruned to the float
    vertex budget (`_prune`).  The ring is mapped to the frame
    t = u^perp . p, s = u . p, every chord over a break of the t-profile is
    recentered on s = 0, and the bottom and top chains are mapped back.  The
    step runs on parallel lists of floats, one pass per edge over the breaks
    it serves, with no call per vertex.
    """
    eps = FLOAT_EPS
    ux, uy = direction
    ts = [-uy * x + ux * y for x, y in ring]
    ss = [ux * x + uy * y for x, y in ring]
    ordered = sorted(ts)
    breaks = [ordered[0]]
    merge = ordered[0] + eps * (1 + abs(ordered[0]))
    for t in ordered:
        if t > merge:
            breaks.append(t)
            merge = t + eps * (1 + abs(t))
    hi = [-math.inf] * len(breaks)
    lo = [math.inf] * len(breaks)
    reach = 10 * eps
    for t1, s1, t2, s2 in zip(ts, ss, ts[1:] + ts[:1], ss[1:] + ss[:1]):
        if t1 > t2:
            t1, t2, s1, s2 = t2, t1, s2, s1
        first = bisect.bisect_left(breaks, t1 - reach * (1 + abs(t1)))
        end = bisect.bisect_right(breaks, t2 + reach * (1 + abs(t2)), first)
        if t1 == t2:
            s_lo = s2 if s2 < s1 else s1
            s_hi = s2 if s2 > s1 else s1
            for k in range(first, end):
                if s_hi > hi[k]:
                    hi[k] = s_hi
                if s_lo < lo[k]:
                    lo[k] = s_lo
        else:
            ds, dt = s2 - s1, t2 - t1
            for k in range(first, end):
                s = s1 + ds * (breaks[k] - t1) / dt
                if s > hi[k]:
                    hi[k] = s
                if s < lo[k]:
                    lo[k] = s
    halves = [(h - l) / 2 for h, l in zip(hi, lo)]
    # the frame ring runs bottom ascending, then top descending; the frame
    # map has determinant -|u|^2 < 0, so the ring comes back clockwise and
    # is read in reverse
    tops = [(t, half) for t, half in zip(breaks, halves) if half > 0]
    frame_t = [t for t, _ in tops] + breaks[::-1]
    frame_s = [half for _, half in tops] + [-half for half in halves[::-1]]
    norm2 = ux * ux + uy * uy
    xs = [(-uy * t + ux * s) / norm2 for t, s in zip(frame_t, frame_s)]
    ys = [(ux * t + uy * s) / norm2 for t, s in zip(frame_t, frame_s)]
    return list(zip(*_prune(xs, ys)))


def _prune(xs, ys):
    """Drop nearly collinear float vertices, then thin the flattest to the budget.

    The ring is the parallel lists xs, ys; the pruned lists come back.  A
    vertex goes when its turn is within `FLOAT_EPS` (relative) of straight;
    then the flattest vertices go until `FLOAT_MAX_VERTICES` are left, the
    first thinning pass reusing the turns of the last flatness pass.  Every
    dropped vertex lies on or inside the kept ring, so the result is
    inscribed and the perimeter never grows.
    """
    eps = FLOAT_EPS
    while True:
        turns = _turns(xs, ys)
        flat = [c <= eps * (1 + abs(x) + abs(y)) ** 2 for c, x, y in zip(turns, xs, ys)]
        kept = flat.count(False)
        if kept < 3:
            raise ValueError("polygon degenerated to a segment")
        if kept == len(xs):
            break
        xs = [x for x, f in zip(xs, flat) if not f]
        ys = [y for y, f in zip(ys, flat) if not f]
    while len(xs) > FLOAT_MAX_VERTICES:
        # batch-remove the flattest vertices, never two adjacent in one pass
        n = len(xs)
        excess = n - FLOAT_MAX_VERTICES
        threshold = sorted(turns)[min(excess * 2, n - 1)]
        drop = [False] * n
        dropped_prev = False
        for i, c in enumerate(turns):
            if dropped_prev or not c <= threshold:
                dropped_prev = False
            else:
                drop[i] = dropped_prev = True
                excess -= 1
                if not excess:
                    break
        if True not in drop:
            break
        xs = [x for x, f in zip(xs, drop) if not f]
        ys = [y for y, f in zip(ys, drop) if not f]
        turns = _turns(xs, ys)
    return xs, ys


def _turns(xs, ys):
    """The cross product (a - o) x (b - o) at each vertex a of a ring of
    parallel float lists, o and b its neighbours."""
    return [
        (xa - xo) * (yb - yo) - (ya - yo) * (xb - xo)
        for xo, yo, xa, ya, xb, yb in zip(
            xs[-1:] + xs[:-1], ys[-1:] + ys[:-1], xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]
        )
    ]


def steiner_symmetrize(p: LatticePolytope, direction) -> LatticePolytope:
    """Recenter all chords in the given direction onto the orthogonal line.

    `p` is a planar, full-dimensional polytope and `direction` the chord
    direction as a rational vector; the fixed line H runs orthogonally
    through the origin.  The result is exact: its ring is assembled directly
    from the concave chord-length profile and strictly convex, so the hull
    that builds the polytope keeps every ring vertex.
    """
    ux, uy = _primitive(direction)
    ring = _exact_round(_ring(p), ux, uy)
    return _polytope(*_union([(d, [(x, y)]) for x, y, d in ring]), 2)


def _float_perimeter(vs) -> float:
    return sum(math.hypot(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1]))


def _float_centroid(vs):
    a6 = cx = cy = 0.0
    for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1]):
        w = x1 * y2 - x2 * y1
        a6 += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if a6:
        return cx / (3 * a6), cy / (3 * a6)
    # far from the origin the sums can cancel to 0 (the unit square at
    # (10^9, 10^9)); only then are they taken again about the first vertex.
    # If they still cancel, the ring is flat in doubles (the unit square at
    # (10^17, 10^17) rounds to one point)
    x0, y0 = vs[0]
    if not (x0 or y0):
        raise ValueError("polygon degenerated to a segment")
    cx, cy = _float_centroid([(x - x0, y - y0) for x, y in vs])
    return x0 + cx, y0 + cy


def hausdorff_to_disc(vs, center, radius) -> float:
    """Hausdorff distance from a float CCW polygon to a disc, in closed form.

    For convex bodies it is the largest gap between support functions.  With
    the center c inside the polygon, h_P(u) - u.c ranges over [r_in, R] on
    unit vectors u: R is the largest vertex distance from c, attained toward
    that vertex, and r_in the smallest signed distance from c to an edge
    line, attained at that edge's outward normal.
    """
    cx, cy = center
    far = max(math.hypot(x - cx, y - cy) for x, y in vs)
    near = math.inf
    x1, y1 = vs[-1]
    for x2, y2 in vs:
        ex, ey = x2 - x1, y2 - y1
        if ex or ey:  # an edge whose ends round to one double has no support line
            gap = (ey * (x1 - cx) - ex * (y1 - cy)) / math.hypot(ex, ey)
            if gap < near:
                near = gap
        x1, y1 = x2, y2
    return max(abs(far - radius), abs(radius - near))


@dataclass(frozen=True)
class RoundStat:
    """One round of :func:`iterate_symmetrize`, one row of the `steiner`
    report; ``vertices`` is the ring's vertex count."""

    round: int
    area: Fraction
    perimeter: float
    hausdorff_to_disc: float
    vertices: int
    exact: bool


def _over_bit_cap(ring: list[Tri]) -> bool:
    """Whether a reduced vertex coordinate X / D or Y / D has a numerator or
    denominator of more than `EXACT_BIT_CAP` bits.

    Reducing never lengthens X, Y or D, so a vertex whose raw X, Y and D
    all fit under the cap is skipped without a gcd, and the scan stops at
    the first vertex over it.
    """
    cap = EXACT_BIT_CAP
    for x, y, d in ring:
        if x.bit_length() <= cap and y.bit_length() <= cap and d.bit_length() <= cap:
            continue
        gx, gy = math.gcd(x, d), math.gcd(y, d)
        if max((x // gx).bit_length(), (y // gy).bit_length(),
               (d // min(gx, gy)).bit_length()) > cap:
            return True
    return False


def iterate_symmetrize(
    p: LatticePolytope,
    rounds: int,
    seed: int = 0,
) -> list[RoundStat]:
    """Random-direction symmetrization rounds with convergence diagnostics.

    The area column is the exact invariant area: rounds run on integer
    triples (`_exact_round`, with the shoelace area asserted after each)
    while the polygon stays under the vertex cap and the bit cap on its
    reduced coordinates.  Each exact round roughly doubles both, so past
    the caps the iteration hands off to float rounds (`_symmetrize`), with
    near-collinear pruning and a vertex budget; the pruned polygon is
    inscribed, so the reported perimeter stays nonincreasing up to
    roundoff.  Perimeter and disc distance are always double-precision
    diagnostics, the exact vertices read as correctly rounded X / D.

    So the polygon must lie in double range: every vertex coordinate at
    most 2^256 in absolute value, and the area at least 2^-256.  A step
    along a line through the origin maps the disc of radius R about the
    origin into itself, so every ring lies within R = 2^256.5 of it and
    has at most 2048 vertices; the largest float formed, the centroid sum
    of (x1 + x2)(x1 y2 - x2 y1), stays under 2^11 * 2 R^3 < 2^782, and
    the float area, near twice the exact one, is a normal double.
    """
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}")
    ring: list[Tri] | None = _ring(p)
    if len(ring) > MAX_POLYGON_VERTICES:
        raise ValueError(
            f"polygon has {len(ring)} vertices; the limit is {MAX_POLYGON_VERTICES}"
        )
    if any(max(abs(x), abs(y)) > d << 256 for x, y, d in ring):
        raise ValueError("polygon vertex coordinates must be at most 2^256 in absolute value")
    rng = random.Random(derive_seed(seed, "steiner-directions"))
    invariant_area = volume(p)
    if invariant_area < Fraction(1, 1 << 256):
        raise ValueError("polygon area must be at least 2^-256")
    float_vs: list | None = None
    stats = []
    radius = math.sqrt(float(invariant_area) / math.pi)
    for r in range(1, rounds + 1):
        direction = (0, 0)
        while direction == (0, 0):
            direction = (rng.randint(-10, 10), rng.randint(-10, 10))
        if ring is not None:
            ring = _exact_round(ring, *_primitive(direction))
            if _ring_area(ring) != invariant_area:
                raise AssertionError("exact symmetrization changed the area")
            vs_float = [(x / d, y / d) for x, y, d in ring]
            exact_round = True
            if len(ring) > EXACT_VERTEX_CAP or _over_bit_cap(ring):
                float_vs = vs_float  # hand off to float rounds
                ring = None
        else:
            float_vs = _symmetrize(float_vs, (float(direction[0]), float(direction[1])))
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
    checks midpoint concavity of the n-th root by exact cross powers.  The
    volume is the mixed-volume polynomial sum_i C(n, i) h^i (1-h)^(n-i) V_i,
    V_i = V(D1[i], D2[n-i]) (Schneider, *Convex Bodies*, section 5.1), so the
    n + 1 mixed volumes are taken once and no sample builds a hull.
    """
    if d1.ambient_dim != d2.ambient_dim:
        raise ValueError("section profile needs equal ambient dimensions")
    if d1.ambient_dim > 3:
        raise ValueError("section profile supports dimensions 1..3")
    if not 3 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in 3..{MAX_SAMPLES}")
    n = d1.ambient_dim
    coeffs = [math.comb(n, i) * mixedvol.mixed_volume((d1,) * i + (d2,) * (n - i))
              for i in range(n + 1)]
    hs = [Fraction(j, samples) for j in range(samples + 1)]
    return [(h, sum(c * h**i * (1 - h) ** (n - i) for i, c in enumerate(coeffs))) for h in hs]
