import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F

import mpmath
import pytest

from okounkov_lab import _hull, mixedvol
from okounkov_lab import geometry as g
from okounkov_lab import steiner as stn
from okounkov_lab.jsonio import float_to_str
from okounkov_lab.radicals import compare_root_sums
from okounkov_lab.rng import derive_seed
from oracles import (
    composed_section_profile,
    float_steiner_round,
    fraction_steiner_round,
    ring_sorted,
    shoelace_area,
    strictly_convex,
)


def polygon(points):
    """The convex hull of planar points, full-dimensional or rejected."""
    p = g.convex_hull(points)
    if not p.is_full_dimensional:
        raise ValueError("degenerate polygon")
    return p


def random_polygon(rng, span=6, k=6):
    while True:
        pts = [
            (F(rng.randint(-span, span), rng.randint(1, 3)),
             F(rng.randint(-span, span), rng.randint(1, 3)))
            for _ in range(k)
        ]
        try:
            return polygon(pts)
        except ValueError:
            continue


def ccw(p):
    """A polygon's vertices as a CCW ring, ordered without the library."""
    return ring_sorted(p.vertices)


def triples(vertices):
    """Reduced integer triples (X, Y, D) of rational vertices."""
    out = []
    for v in vertices:
        x, y = F(v[0]), F(v[1])
        d = math.lcm(x.denominator, y.denominator)
        out.append((x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d))
    return out


def lex_first(ring):
    start = ring.index(min(ring))
    return list(ring[start:]) + list(ring[:start])


def starts_lex_min(ring):
    """Whether a ring of triples starts at its lex-min vertex X / D, Y / D."""
    values = [(F(x, d), F(y, d)) for x, y, d in ring]
    return values[0] == min(values)


def random_direction(rng):
    while True:
        u = (rng.randint(-10, 10), rng.randint(-10, 10))
        if u != (0, 0):
            return u


def reduced(ring):
    """Whether every triple (X, Y, D) has D > 0 and gcd(X, Y, D) = 1."""
    return all(d > 0 and math.gcd(x, y, d) == 1 for x, y, d in ring)


class TestPolygonType:
    def test_collinear_input_pruned(self):
        p = g.convex_hull([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert stn._ring(p) == [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1)]

    def test_degenerate_rejected(self):
        segment = g.convex_hull([(0, 0), (1, 1), (2, 2)])
        solid = g.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for p, message in ((segment, "degenerate polygon"), (solid, "two-dimensional")):
            with pytest.raises(ValueError, match=message):
                stn.steiner_symmetrize(p, (0, 1))
            with pytest.raises(ValueError, match=message):
                stn.iterate_symmetrize(p, 1)

    def test_ccw_positive_area(self):
        ring = stn._ring(g.convex_hull([(0, 3), (3, 0), (0, 0)]))
        assert ring == [(0, 0, 1), (3, 0, 1), (0, 3, 1)]
        assert stn._ring_area(ring) == F(9, 2)

    def test_ring_is_the_reduced_fraction_ring(self):
        # the ring read off the lifted vertices equals the lex-first CCW ring
        # of each vertex reduced over its own denominators
        rng = random.Random(31)
        done = 0
        while done < 300:
            pts = [(F(rng.randint(-9, 9), rng.randint(1, 12)), F(rng.randint(-9, 9), rng.randint(1, 12)))
                   for _ in range(rng.randint(3, 9))]
            p = g.convex_hull(pts)
            if p.is_full_dimensional:
                assert stn._ring(p) == triples(lex_first(ccw(p)))
                done += 1


class TestSymmetrize:
    def test_fixed_point_on_own_axis(self):
        # symmetric about the x-axis; vertical chord direction fixes it
        p = polygon([(0, 1), (0, -1), (2, 0)])
        assert stn.steiner_symmetrize(p, (0, 1)) == p

    def test_triangle_area_preserved(self):
        t = polygon([(0, 0), (1, 0), (0, 1)])
        out = stn.steiner_symmetrize(t, (0, 1))
        assert g.volume(out) == F(1, 2)

    def test_area_preservation_random(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_polygon(rng)
            u = random_direction(rng)
            assert g.volume(stn.steiner_symmetrize(p, u)) == g.volume(p)

    def test_mirror_symmetry(self):
        rng = random.Random(8)
        for _ in range(40):
            p = random_polygon(rng)
            ux, uy = random_direction(rng)
            q = stn.steiner_symmetrize(p, (ux, uy))
            frame = {
                (-F(uy) * x + F(ux) * y, F(ux) * x + F(uy) * y)
                for x, y in q.vertices
            }
            assert frame == {(t, -s) for t, s in frame}

    def test_idempotence(self):
        rng = random.Random(9)
        for _ in range(40):
            p = random_polygon(rng)
            u = random_direction(rng)
            q = stn.steiner_symmetrize(p, u)
            assert stn.steiner_symmetrize(q, u).vertices == q.vertices

    def test_convexity_of_output(self):
        # the exact round returns a strictly convex CCW ring, so the polytope
        # built from it keeps every ring vertex
        rng = random.Random(10)
        for _ in range(40):
            p, u = random_polygon(rng), random_direction(rng)
            ring = stn._exact_round(stn._ring(p), *stn._primitive(u))
            assert strictly_convex(ring)
            vs = [(F(x, d), F(y, d)) for x, y, d in ring]
            assert stn.steiner_symmetrize(p, u).vertices == tuple(sorted(vs))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            stn.steiner_symmetrize(polygon([(0, 0), (1, 0), (0, 1)]), (0, 0))


class TestExactOracle:
    """The integer-triple exact round against a `Fraction` oracle."""

    @staticmethod
    def pairs():
        rng = random.Random(4242)
        for case in range(320):
            while True:
                pts = [
                    (F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)))
                    for _ in range(rng.randint(3, 12))
                ]
                try:
                    p = polygon(pts)
                    break
                except ValueError:
                    continue
            kind = case % 4
            if kind == 0:
                u = random_direction(rng)
            elif kind == 1:  # rational, not parallel to an axis
                u = (F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 9)),
                     F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 9)))
            else:  # parallel to an edge: a frame-vertical edge
                vs = ccw(p)
                i = rng.randrange(len(vs))
                a, b = vs[i], vs[(i + 1) % len(vs)]
                u = (b[0] - a[0], b[1] - a[1]) if kind == 2 else (F(a[0] - b[0], 3), F(a[1] - b[1], 3))
            yield p, u
        rect = polygon([(0, 0), (F(7, 2), 0), (F(7, 2), F(5, 3)), (0, F(5, 3))])
        hexagon = polygon([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)])
        for u in [(1, 0), (0, 1), (F(1, 2), F(-3, 4)), (0, F(-2, 7))]:
            yield rect, u
            yield hexagon, u

    def test_equals_fraction_round(self):
        count = 0
        for p, u in self.pairs():
            want = fraction_steiner_round(ccw(p), u)
            assert stn.steiner_symmetrize(p, u).vertices == tuple(sorted(want))
            count += 1
        assert count >= 300

    def test_parabola(self):
        parabola = polygon([(i, i * i) for i in range(600)])
        # (1, 3) and (1, 599) are parallel to the edges from (1, 1) and from (0, 0)
        for u in [(1, 2), (F(1, 2), F(-3, 4)), (1, 3), (1, 599)]:
            got = stn.steiner_symmetrize(parabola, u).vertices
            assert got == tuple(sorted(fraction_steiner_round(ccw(parabola), u)))

    def test_input_rings_strictly_convex(self):
        # `_exact_round` relies on this: the ring `_ring` hands it is
        # strictly convex and CCW, whatever points on edges, repeated points
        # or interior points built the polytope
        rng = random.Random(223)
        for _ in range(200):
            corners = ccw(random_polygon(rng, span=9, k=rng.randint(3, 7)))
            pts = list(corners)
            for a, b in zip(corners, corners[1:] + corners[:1]):
                for _ in range(rng.randint(0, 3)):  # points on the edge ab
                    t = F(rng.randint(0, 12), 12)
                    pts.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
            pts.append(tuple(sum(c) / len(corners) for c in zip(*corners)))  # interior
            pts += rng.choices(pts, k=rng.randint(1, 4))  # repeated points
            rng.shuffle(pts)
            ring = stn._ring(g.convex_hull(pts))
            assert strictly_convex(ring) and starts_lex_min(ring)
            assert ring == triples(lex_first(corners))

    def test_bit_size_reads_reduced_coordinates(self, monkeypatch):
        # the cap test flips exactly at the reduced bit size: over at
        # want - 1, not over at want
        rng = random.Random(77)
        for _ in range(50):
            top = rng.choice([2**8, 2**40])  # the numerators or a denominator decide
            vs = [(F(rng.randint(-top, top), rng.choice([1, rng.randint(1, 2**20)])),
                   F(rng.randint(-top, top), rng.choice([1, rng.randint(1, 2**30)]))) for _ in range(5)]
            want = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for v in vs for c in v)
            for cap, over in ((want - 1, True), (want, False)):
                monkeypatch.setattr(stn, "EXACT_BIT_CAP", cap)
                assert stn._over_bit_cap(triples(vs)) is over

    def test_bit_cap_at_the_real_cap(self):
        # raw X, Y, D over the cap with every reduced coordinate under it (X
        # and D, and Y and D, share a long factor), the reverse (raw and
        # reduced over), and rings near the cap on either side
        cap = stn.EXACT_BIT_CAP
        rng = random.Random(78)

        def big(bits):
            return rng.getrandbits(bits) | (1 << (bits - 1)) | 1

        seen = Counter()
        for _ in range(200):
            kind = rng.randrange(4)
            ring = []
            for _ in range(rng.randint(3, 8)):
                if kind == 0:  # shared factors: (p a / p q, q b / p q)
                    p, q = big(rng.randint(cap // 2 + 10, cap - 20)), big(rng.randint(cap // 2 + 10, cap - 20))
                    x, y, d = p * rng.randint(-9, 9), q * rng.randint(-9, 9), p * q
                elif kind == 1:  # odd X over a power of two: X / D is already reduced
                    x, y, d = big(rng.randint(cap - 3, cap + 3)), rng.randint(-9, 9), 2 ** rng.randint(cap - 3, cap + 3)
                elif kind == 2:  # small raw values
                    x, y, d = rng.randint(-2**40, 2**40), rng.randint(-2**40, 2**40), rng.randint(1, 2**40)
                else:  # shared factors, the reduced denominators q h and p h near the cap
                    p, q, h = big(30), big(30), big(cap - 30 + rng.randint(0, 1))
                    x, y, d = p * rng.randint(-9, 9), q * rng.randint(-9, 9), p * q * h
                g = math.gcd(x, y, d)
                ring.append((x // g, y // g, d // g))
            want = max(max(F(x, d).numerator.bit_length(), F(x, d).denominator.bit_length(),
                           F(y, d).numerator.bit_length(), F(y, d).denominator.bit_length())
                       for x, y, d in ring)
            raw = max(c.bit_length() for t in ring for c in t)
            assert stn._over_bit_cap(ring) is (want > cap)
            seen[raw > cap, want > cap] += 1
        # raw over with reduced under, raw and reduced over, both under
        assert min(seen.values()) >= 20 and len(seen) == 3

    def test_ring_area_matches_shoelace_on_criterion10_rings(self):
        # every exact ring of the criterion-10 iteration, whose vertices carry
        # pairwise different denominators, against a plain Fraction shoelace
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        count = 0
        for seed in range(5):
            rng = random.Random(derive_seed(seed, "steiner-directions"))
            ring = stn._ring(quad)
            while len(ring) <= stn.EXACT_VERTEX_CAP and not stn._over_bit_cap(ring):
                direction = (0, 0)
                while direction == (0, 0):
                    direction = (rng.randint(-10, 10), rng.randint(-10, 10))
                ring = stn._exact_round(ring, *stn._primitive(direction))
                assert stn._ring_area(ring) == shoelace_area([(F(x, d), F(y, d)) for x, y, d in ring])
                count += 1
        assert count >= 25

    def test_outputs_strictly_convex(self):
        # the exact round has no output pass: its rings must come out strictly
        # convex and lex-first on every oracle pair and on the iterated
        # criterion-10 rounds
        count = 0
        for p, u in self.pairs():
            ring = stn._exact_round(stn._ring(p), *stn._primitive(u))
            assert strictly_convex(ring) and starts_lex_min(ring)
            count += 1
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        for seed in range(5):
            rng = random.Random(derive_seed(seed, "steiner-directions"))
            ring = stn._ring(quad)
            while len(ring) <= stn.EXACT_VERTEX_CAP and not stn._over_bit_cap(ring):
                direction = (0, 0)
                while direction == (0, 0):
                    direction = (rng.randint(-10, 10), rng.randint(-10, 10))
                ring = stn._exact_round(ring, *stn._primitive(direction))
                assert strictly_convex(ring) and starts_lex_min(ring)
                count += 1
        assert count >= 325

    def test_exact_rings_pinned(self):
        # the 8 exact rings of the criterion-10 quad at seed 3, triple for triple
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        rng = random.Random(derive_seed(3, "steiner-directions"))
        ring, rings = stn._ring(quad), []
        for _ in range(8):
            direction = (0, 0)
            while direction == (0, 0):
                direction = (rng.randint(-10, 10), rng.randint(-10, 10))
            ring = stn._exact_round(ring, *stn._primitive(direction))
            rings.append(ring)
        assert [len(r) for r in rings] == [6, 10, 18, 34, 66, 130, 258, 514]
        assert hashlib.sha256(repr(rings).encode()).hexdigest() == (
            "9d8d10854144aace51a93f9bdcd5a4707a00f97c67dd454ad3766713ce21ed55"
        )

    def test_abscissae_within_one_ulp(self):
        # vertices c + k u + k^2 eps u^perp: every abscissa T / D is within a
        # few ulps of T(c) / D, so the float keys tie in runs (k and -k tie
        # exactly too) and cross-multiplication orders and merges each run
        eps = F(1, 2**70)
        count = 0
        for a, b in [(1, 0), (0, 1), (2, 1), (-3, 5), (7, -4)]:
            for c in [(F(1, 3), F(2, 7)), (F(10**6, 3), F(-5, 11))]:
                for width in (3, 6):
                    pts = [(c[0] + k * a - k * k * eps * b, c[1] + k * b + k * k * eps * a)
                           for k in range(-width, width + 1)]
                    p = polygon(pts)
                    keys = [(-b * x + a * y) for x, y in p.vertices]
                    assert len({float(t) for t in keys}) < len(set(keys))
                    ring = stn._exact_round(stn._ring(p), a, b)
                    assert ring == triples(fraction_steiner_round(ccw(p), (a, b)))
                    assert reduced(ring) and strictly_convex(ring)
                    count += 1
        assert count == 20

    def test_lex_min_among_float_ties(self):
        # a left side x = 1 + (|y| - 1)^2 eps, eps far below an ulp of 1, so
        # with vertical chords every output vertex on it has the float key
        # 1.0 for X / D, and the lex-min (1, -1) is decided exactly: by x
        # among the breaks, by y within the break x = 1
        eps = F(1, 2**80)
        left = [(1 + (abs(y) - 1) ** 2 * eps, y) for y in range(-6, 7) if y]
        count = 0
        for right in [[(9, 0)], [(9, -7), (9, 7)], [(F(9, 2), F(-1, 3)), (6, 2)]]:
            p = polygon(left + right)
            for u in [(0, 1), (0, F(-2, 3)), (1, 2**90), (-1, 2**90)]:
                ring = stn._exact_round(stn._ring(p), *stn._primitive(u))
                want = triples(fraction_steiner_round(ccw(p), u))
                assert ring == want and reduced(ring) and starts_lex_min(ring)
                ties = [x / d for x, _, d in ring].count(ring[0][0] / ring[0][2])
                assert ties > 1
                count += 1
        assert count == 12

    def test_far_coordinates_order_exactly(self):
        # a key past double range sends the whole ring to exact comparisons
        far = 10**400
        vs = [(0, 0), (4 * far, far), (5 * far, 4 * far), (far, 3 * far)]  # CCW
        quad = polygon(vs)
        for u in [(1, 2), (0, 1), (3, -1), (F(1, 2), F(-3, 4))]:
            want = fraction_steiner_round(vs, u)
            ring = stn._exact_round(stn._ring(quad), *stn._primitive(u))
            assert ring == triples(want) and reduced(ring) and starts_lex_min(ring)
            assert stn.steiner_symmetrize(quad, u).vertices == tuple(sorted(want))
        assert len(stn.steiner_symmetrize(quad, (1, 2)).vertices) == 6

    def test_outputs_reduced(self):
        for p, u in self.pairs():
            assert reduced(stn._exact_round(stn._ring(p), *stn._primitive(u)))

    def test_iterate_rows_match_oracle_loop(self):
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        invariant = shoelace_area(ccw(quad))
        radius = math.sqrt(float(invariant) / math.pi)
        for seed in range(5):
            got = stn.iterate_symmetrize(quad, 12, seed=seed)
            rng = random.Random(derive_seed(seed, "steiner-directions"))
            vertices = ccw(quad)
            want = []
            for r in range(1, 13):
                direction = (0, 0)
                while direction == (0, 0):
                    direction = (rng.randint(-10, 10), rng.randint(-10, 10))
                vertices = fraction_steiner_round(vertices, direction)
                assert shoelace_area(vertices) == invariant
                floats = [(float(x), float(y)) for x, y in vertices]
                centroid = stn._float_centroid(floats)
                want.append(stn.RoundStat(
                    r, invariant, stn._float_perimeter(floats),
                    stn.hausdorff_to_disc(floats, centroid, radius), len(floats), True,
                ))
                bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                           for v in vertices for c in v)
                if len(vertices) > stn.EXACT_VERTEX_CAP or bits > stn.EXACT_BIT_CAP:
                    break  # the float hand-off
            assert 1 <= len(want) < 12
            assert got[:len(want)] == want
            assert not any(s.exact for s in got[len(want):])


def diagnosed_rounds(p, rounds, seed):
    """Each round's ring, as `iterate_symmetrize` runs it, in `mpmath` numbers.

    Exact rounds give the exact vertices, rounded to the working precision;
    float rounds give their doubles, which `mpmath` holds exactly.
    """
    rng = random.Random(derive_seed(seed, "steiner-directions"))
    ring, floats = stn._ring(p), None
    for _ in range(rounds):
        direction = (0, 0)
        while direction == (0, 0):
            direction = (rng.randint(-10, 10), rng.randint(-10, 10))
        if ring is not None:
            ring = stn._exact_round(ring, *stn._primitive(direction))
            yield [(mpmath.mpf(x) / d, mpmath.mpf(y) / d) for x, y, d in ring]
            if len(ring) > stn.EXACT_VERTEX_CAP or stn._over_bit_cap(ring):
                floats = [(x / d, y / d) for x, y, d in ring]
                ring = None
        else:
            floats = stn._symmetrize(floats, (float(direction[0]), float(direction[1])))
            yield [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in floats]


def disc_distance(vs, area):
    """Hausdorff distance from a CCW ring to the disc of the given area about
    its centroid: max(|R - r|, |r - r_in|), R the farthest vertex from the
    centroid and r_in the nearest edge line.  Evaluate at high precision."""
    edges = list(zip(vs, vs[1:] + vs[:1]))
    a6 = cx = cy = 0
    for (x1, y1), (x2, y2) in edges:
        w = x1 * y2 - x2 * y1
        a6, cx, cy = a6 + 3 * w, cx + (x1 + x2) * w, cy + (y1 + y2) * w
    cx, cy = cx / a6, cy / a6
    far = max(mpmath.hypot(x - cx, y - cy) for x, y in vs)
    near = min(((y2 - y1) * (x1 - cx) - (x2 - x1) * (y1 - cy)) / mpmath.hypot(x2 - x1, y2 - y1)
               for (x1, y1), (x2, y2) in edges)
    r = mpmath.sqrt(mpmath.mpf(area.numerator) / area.denominator / mpmath.pi)
    if len(vs) <= 40:
        # the support gap h_P(u) - u.c - r, by brute force over the vertices,
        # at every vertex direction and outward edge normal
        dirs = [(x - cx, y - cy) for x, y in vs] + [(y2 - y1, x1 - x2) for (x1, y1), (x2, y2) in edges]
        gaps = []
        for ux, uy in dirs:
            norm = mpmath.hypot(ux, uy)
            gaps.append(max(ux * x + uy * y for x, y in vs) / norm - (ux * cx + uy * cy) / norm - r)
        assert abs(max(abs(far - r), abs(r - near)) - max(abs(t) for t in gaps)) < mpmath.mpf(10) ** -40
    return max(abs(far - r), abs(r - near))


class TestDiscDistance:
    """`hausdorff_to_disc` against a 60-digit `mpmath` evaluation."""

    def test_matches_mpmath_on_212_rounds(self):
        # the criterion-10 quad through its float rounds, then 40 hexagons
        cases = [(polygon([(0, 0), (4, 1), (5, 4), (1, 3)]), 12, 3)]
        rng = random.Random(1212)
        cases += [(random_polygon(rng), 5, seed) for seed in range(40)]
        count = 0
        with mpmath.workdps(60):
            for p, rounds, seed in cases:
                stats = stn.iterate_symmetrize(p, rounds, seed=seed)
                for stat, vs in zip(stats, diagnosed_rounds(p, rounds, seed)):
                    assert stat.vertices == len(vs)
                    want = disc_distance(vs, stat.area)
                    assert abs(stat.hausdorff_to_disc - want) <= 1e-12 * want
                    count += 1
        assert count == 212


def float_ring(rng, n, scale):
    """A strictly convex CCW float ring of n vertices on a circle of radius
    `scale` about a random center, at random angles."""
    cx, cy = rng.uniform(-3, 3) * scale, rng.uniform(-3, 3) * scale
    angles = sorted({rng.uniform(0, 2 * math.pi) for _ in range(n)})
    return [(cx + scale * math.cos(a), cy + scale * math.sin(a)) for a in angles]


def bits(ring):
    return [(x.hex(), y.hex()) for x, y in ring]


class TestFloatOracle:
    """The float round on parallel lists against the list-of-tuples loop
    kept in `oracles.float_steiner_round`: the same ring, bit for bit, and
    the same error."""

    @staticmethod
    def check(ring, direction):
        try:
            want = float_steiner_round(ring, direction, stn.FLOAT_EPS, stn.FLOAT_MAX_VERTICES)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                stn._symmetrize(ring, direction)
            assert str(got.value) == str(exc)
            return None
        got = stn._symmetrize(ring, direction)
        assert bits(got) == bits(want)
        return got

    @staticmethod
    def direction(rng):
        ux, uy = random_direction(rng)
        return float(ux), float(uy)

    def test_random_rings_across_scales(self):
        rng = random.Random(2601)
        rounds = 0
        for _ in range(120):
            ring = float_ring(rng, rng.randint(3, 40), 10.0 ** rng.uniform(-3, 4))
            for _ in range(3):
                ring = self.check(ring, self.direction(rng))
                rounds += 1
                if ring is None:
                    break
        assert rounds >= 300

    def test_integer_rings(self):
        # integer vertices and integer directions give frame-vertical edges
        # (t1 == t2) and vertices merged into one break
        rng = random.Random(2602)
        vertical = merged = 0
        for _ in range(150):
            p = random_polygon(rng, span=rng.choice([3, 9, 40]), k=rng.randint(3, 12))
            ring = [(float(x), float(y)) for x, y in ccw(p)]
            if rng.random() < 0.5:  # along an edge
                (x1, y1), (x2, y2) = ring[0], ring[1]
                direction = (x2 - x1, y2 - y1)
            else:
                direction = self.direction(rng)
            ts = [-direction[1] * x + direction[0] * y for x, y in ring]
            vertical += any(a == b for a, b in zip(ts, ts[1:] + ts[:1]))
            merged += len(set(ts)) < len(ts)
            for _ in range(2):
                ring = self.check(ring, direction)
                if ring is None:
                    break
                direction = self.direction(rng)
        assert vertical >= 50 and merged >= 50

    def test_budget_thinning(self):
        # 600- to 1024-gons come out past the vertex budget and are thinned
        rng = random.Random(2603)
        for n in (600, 777, 1024):
            ring = float_ring(rng, n, rng.choice([1.0, 250.0]))
            for _ in range(2):
                ring = self.check(ring, self.direction(rng))
                assert len(ring) == stn.FLOAT_MAX_VERTICES

    def test_collapse_error_matches(self):
        # flatness is absolute below unit size, so tiny rings collapse
        rng = random.Random(2604)
        for scale in (1e-7, 1e-9, 2.0**-128):
            ring = [(0.0, 0.0), (scale, 0.0), (0.0, scale)]
            assert self.check(ring, self.direction(rng)) is None
        assert self.check(float_ring(rng, 12, 1e-8), (1.0, 2.0)) is None
        # slivers, whose far vertices turn within the tolerance and whose
        # near ones may not: some collapse to two vertices, some survive
        collapsed = 0
        for _ in range(300):
            length, height = 10 ** rng.uniform(0, 3), 10 ** rng.uniform(-16, -11)
            shift = rng.choice([0.0, 10 ** rng.uniform(-2, 3)])
            apex = shift + rng.uniform(-length, 2 * length)
            ring = [(shift, 0.0), (shift + length, 0.0), (apex, height)]
            collapsed += self.check(ring, self.direction(rng)) is None
        assert collapsed >= 20 and 300 - collapsed >= 20

    def test_near_tied_abscissae(self):
        # a direction within an angle 10^-15..10^-10 of an edge puts the
        # edge's ends at abscissae merged into one break, apart but within
        # an edge's reach of each other, or farther; the edge is at the
        # lowest or, with the direction reversed, the highest abscissa
        rng = random.Random(2606)
        for _ in range(300):
            ring = float_ring(rng, rng.randint(3, 30), 10.0 ** rng.uniform(-1, 2))
            i = rng.randrange(len(ring))
            (x1, y1), (x2, y2) = ring[i - 1], ring[i]
            sign = rng.choice([-1, 1])
            ex, ey = sign * (x2 - x1), sign * (y2 - y1)
            angle = rng.choice([-1, 1]) * 10 ** rng.uniform(-15, -10)
            self.check(ring, (ex - angle * ey, ey + angle * ex))

    def test_iterated_rings(self):
        # the float rounds of the criterion-10 quad at seeds 0..3
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        for seed in range(4):
            rng = random.Random(derive_seed(seed, "steiner-directions"))
            ring = [(x / d, y / d) for x, y, d in stn._ring(quad)]
            for _ in range(14):
                ring = self.check(ring, self.direction(rng))


class TestIterate:
    def test_area_constant_exact_rounds(self):
        quad = polygon([(0, 0), (3, 1), (4, 3), (1, 2)])
        stats = stn.iterate_symmetrize(quad, 8, seed=5)
        assert all(s.exact for s in stats)
        assert {s.area for s in stats} == {g.volume(quad)}

    def test_perimeter_nonincreasing(self):
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        stats = stn.iterate_symmetrize(quad, 30, seed=3)
        pers = [s.perimeter for s in stats]
        assert all(b <= a + 1e-9 for a, b in zip(pers, pers[1:]))

    def test_converges_to_disc(self):
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        stats = stn.iterate_symmetrize(quad, 50, seed=3)
        radius = math.sqrt(float(g.volume(quad)) / math.pi)
        assert stats[-1].hausdorff_to_disc < 0.05 * radius

    def test_float_rounds_golden(self):
        # 8 exact rounds, then 4 float rounds of the shared routine
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        rows = [
            (float_to_str(s.perimeter), float_to_str(s.hausdorff_to_disc), s.vertices, s.exact)
            for s in stn.iterate_symmetrize(quad, 12, seed=3)
        ]
        assert rows == [
            ("14.246201219220477", "1.2423508092851772", 6, True),
            ("14.111775169267784", "1.2183075462372148", 10, True),
            ("13.54885012221558", "1.0597639435603328", 18, True),
            ("13.280489608583139", "0.9722525339989927", 34, True),
            ("12.205825987403818", "0.50056346334806356", 66, True),
            ("11.873633600290344", "0.14256182180422394", 130, True),
            ("11.802530865973326", "0.075734295014053821", 258, True),
            ("11.784829481881756", "0.038998505875459166", 514, True),
            ("11.763803577450679", "0.022119073548037882", 1024, False),
            ("11.75941463797035", "0.012021852067921612", 1024, False),
            ("11.758474124321303", "0.011278944384149447", 1024, False),
            ("11.757559064062173", "0.0045485018950335299", 1024, False),
        ]

    def test_exact_rounds_never_thinned(self):
        # past the float vertex budget, yet an exact round keeps every vertex
        parabola = polygon([(i, i * i) for i in range(600)])
        assert len(stn.steiner_symmetrize(parabola, (1, 2)).vertices) == 1196
        (stat,) = stn.iterate_symmetrize(parabola, 1, seed=0)
        assert stat.exact and stat.vertices > stn.FLOAT_MAX_VERTICES
        assert stat.area == g.volume(parabola)

    def test_far_unit_square_runs_its_exact_rounds(self):
        # the float shoelace sums of the unit square at (10^9, 10^9) cancel
        # to 0, so its centroid is taken about the first vertex
        far = [(10**9 + x, 10**9 + y) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        assert stn._float_centroid([(float(x), float(y)) for x, y in far]) == (
            1_000_000_000.5, 1_000_000_000.5
        )
        stats = stn.iterate_symmetrize(polygon(far), 8, seed=0)
        assert [s.exact for s in stats] == [True] * 8 and {s.area for s in stats} == {1}

    def test_deterministic(self):
        quad = polygon([(0, 0), (4, 1), (5, 4), (1, 3)])
        a = stn.iterate_symmetrize(quad, 12, seed=11)
        b = stn.iterate_symmetrize(quad, 12, seed=11)
        assert a == b


class TestSectionProfile:
    def test_constant_for_equal_bodies(self):
        sq = g.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        rows = stn.section_profile(sq, sq, 6)
        assert {v for _, v in rows} == {F(1)}

    def test_square_simplex_concavity(self):
        sq = g.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        si = g.convex_hull([(0, 0), (1, 0), (0, 1)])
        rows = stn.section_profile(sq, si, 10)
        assert rows[0][1] == F(1, 2) and rows[-1][1] == 1
        for (_, v1), (_, v2), (_, v3) in zip(rows, rows[1:], rows[2:]):
            assert compare_root_sums([4 * v2], [v1, v3], 2) >= 0

    def test_segments_linear(self):
        s1 = g.convex_hull([(0,), (2,)])
        s2 = g.convex_hull([(0,), (5,)])
        rows = stn.section_profile(s1, s2, 5)
        for (h1, v1), (h2, v2), (h3, v3) in zip(rows, rows[1:], rows[2:]):
            assert 2 * v2 == v1 + v3

    def test_equals_composed_oracle(self):
        # h D1 + (1 - h) D2 from the integer faces in one hull, against
        # minkowski_sum(scale(d1, h), scale(d2, 1 - h)), h = 0 and 1 included
        rng = random.Random(2605)

        def body(n):
            k = rng.choice([1, 2, n + 1, n + 3])  # points and segments too
            return g.convex_hull([tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
                                  for _ in range(k)])

        count = 0
        for n in (1, 2, 3):
            for _ in range(12):
                d1, d2 = body(n), body(n)
                samples = rng.randint(3, 7)
                rows = stn.section_profile(d1, d2, samples)
                assert rows == composed_section_profile(d1, d2, samples)
                assert rows[0][0] == 0 and rows[-1][0] == 1
                count += 1
        assert count == 36

    def test_mixed_volumes_once_and_no_hull_per_sample(self, monkeypatch):
        # a 3D profile takes its n + 1 = 4 mixed volumes once, and the hulls
        # they build do not grow with the number of samples
        calls = Counter()

        def spy(m, module, name):
            inner = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return inner(*args)

            m.setattr(module, name, counted)

        hulls = {}
        for samples in (3, 50):
            box = g.convex_hull([(x, y, z) for x in (0, 1) for y in (0, 2) for z in (0, 3)])
            tet = g.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
            calls.clear()
            with monkeypatch.context() as m:
                spy(m, mixedvol, "mixed_volume")
                spy(m, _hull, "hull_of_lifted")
                rows = stn.section_profile(box, tet, samples)
            assert rows == composed_section_profile(box, tet, samples)
            assert calls["mixed_volume"] == 4
            hulls[samples] = calls["hull_of_lifted"]
        assert hulls[3] == hulls[50]

    def test_dimension_guards(self):
        sq = g.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        seg = g.convex_hull([(0,), (1,)])
        with pytest.raises(ValueError):
            stn.section_profile(sq, seg, 5)
        with pytest.raises(ValueError):
            stn.section_profile(sq, sq, 2)
