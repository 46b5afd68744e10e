import ast
import math
import random
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _monotone_chain, brute_hull_volume, in_convex_hull, ring_sorted, shoelace_area
from okounkov_lab import _hull, geometry as g


def fr(a, b=1):
    return F(a, b)


def square(side=1):
    return g.convex_hull([(0, 0), (side, 0), (0, side), (side, side)])


def simplex(n, d=1):
    pts = [tuple(0 for _ in range(n))]
    for i in range(n):
        e = [0] * n
        e[i] = d
        pts.append(tuple(e))
    return g.convex_hull(pts)


def translate(P, t):
    """The hull of P's vertices shifted by t, with no Minkowski sum."""
    return g.convex_hull([tuple(a + F(b) for a, b in zip(v, t)) for v in P.vertices])


class TestConvexHull:
    def test_interior_point_removed(self):
        P = g.convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))])
        assert P.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))

    def test_boundary_midpoint_removed(self):
        P = g.convex_hull([(0, 0), (2, 0), (0, 2), (1, 1)])
        assert P.vertices == ((F(0), F(0)), (F(0), F(2)), (F(2), F(0)))

    def test_idempotent(self):
        pts = [(0, 0), (3, 1), (1, 3), (2, 2), (1, 1)]
        P = g.convex_hull(pts)
        assert g.convex_hull(P.vertices) == P

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            g.convex_hull([])
        with pytest.raises(ValueError, match="cannot take the hull of an empty support set"):
            g.polytope_of_support(g.support_set(2, []))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            g.convex_hull([(0, 0), (1, 0, 0)])
        with pytest.raises(ValueError, match="point dimension mismatch"):
            g.support_set(2, [(0, 0), (1,)])

    def test_random_3d_extremality_oracle(self):
        # hull vertices verified extreme by brute-force LP feasibility
        rng = random.Random(20240505)
        pts = [
            (F(rng.randint(0, 16), 16), F(rng.randint(0, 16), 16), F(rng.randint(0, 16), 16))
            for _ in range(50)
        ]
        P = g.convex_hull(pts)
        vs = set(P.vertices)
        for p in set(pts):
            others = [q for q in set(pts) if q != p]
            assert (p not in vs) == in_convex_hull(p, others)

    def test_degenerate_collinear(self):
        P = g.convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert P.affine_dim == 1
        assert P.vertices == ((F(0), F(0)), (F(3), F(3)))

    def test_large_3d_set_extremality(self):
        # 150 draws on a 10^3 grid; spot-check extremality
        rng = random.Random(314)
        pts = list(
            {(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)) for _ in range(150)}
        )
        P = g.convex_hull(pts)
        vs = set(P.vertices)
        sample = rng.sample(pts, 40)
        for p in sample:
            pf = tuple(F(c) for c in p)
            others = [q for q in pts if q != p]
            assert (pf in vs) == (not in_convex_hull(p, others))

    def test_single_point(self):
        P = g.convex_hull([(F(1, 2), F(1, 3))])
        assert P.affine_dim == 0 and g.volume(P) == 0


def _sum_points(rng, n):
    """Lex-sorted point set of a criterion-5 Minkowski sum (all pairwise vertex
    sums of two random span-2 lattice bodies), or None if it is not full-dimensional."""
    A, B = (
        g.convex_hull([tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(5)])
        for _ in range(2)
    )
    pts = sorted({tuple(int(a + b) for a, b in zip(p, q)) for p in A.vertices for q in B.vertices})
    return pts if g.convex_hull(pts).affine_dim == n else None


def _dtype_of(points, n):
    """The dtype the 3D/4D insertion uses for these points."""
    return _hull._dtype_for(max(abs(c) for p in points for c in p), n)


def _planes_by_normal(planes):
    """Facet planes as {primitive normal: offset}."""
    out = {}
    for a, b in planes:
        k = math.gcd(*a)
        out[tuple(x // k for x in a)] = F(b, k)
    return out


class TestHullEngine:
    """The int64 and the exact-int (object) paths of the array engine agree."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_int64_and_exact_int_paths_agree(self, n):
        rng = random.Random(5555 + n)
        checked = 0
        while checked < 12:
            pts = _sum_points(rng, n)
            if pts is None:
                continue
            shift = tuple(rng.randint(-50, 50) for _ in range(n))
            big = [tuple(10**6 * c + t for c, t in zip(p, shift)) for p in pts]
            res, res_big = _hull.hull_of_lifted(pts, n), _hull.hull_of_lifted(big, n)
            assert _dtype_of(pts, n) is np.int64 and _dtype_of(big, n) is object
            assert res_big.vertex_indices == res.vertex_indices
            assert _planes_by_normal(res_big.planes) == {
                a: 10**6 * b + sum(x * t for x, t in zip(a, shift))
                for a, b in _planes_by_normal(res.planes).items()
            }
            assert res_big.volume == 10 ** (6 * n) * res.volume
            checked += 1

    def test_largest_int64_coordinate_matches_exact_ints(self):
        lo, hi = 1, 2**62  # int64 at lo, object at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _hull._dtype_for(mid, 4) is np.int64 else (lo, mid)
        M = lo
        rng = random.Random(4444)
        corners = list(product((-M, M), repeat=4))
        inner = [tuple(rng.randint(-M + 1, M - 1) for _ in range(4)) for _ in range(40)]
        pts = sorted(set(corners + inner))
        moved = [(p[0] + 1,) + p[1:] for p in pts]  # max |coordinate| M + 1
        res, res_moved = _hull.hull_of_lifted(pts, 4), _hull.hull_of_lifted(moved, 4)
        assert _dtype_of(pts, 4) is np.int64 and _dtype_of(moved, 4) is object
        assert [pts[i] for i in res.vertex_indices] == sorted(corners)
        assert res_moved.vertex_indices == res.vertex_indices
        assert res_moved.planes == [(a, b + a[0]) for a, b in res.planes]
        assert len(res.planes) == 8
        box = math.factorial(4) * (2 * M) ** 4
        assert res.volume == box
        assert res_moved.volume == box

    def test_4d_vertices_are_extreme(self):
        rng = random.Random(5560)
        checked = 0
        while checked < 3:
            pts = _sum_points(rng, 4)
            if pts is None:
                continue
            vs = set(_hull.hull_of_lifted(pts, 4).vertex_indices)
            for i, p in enumerate(pts):
                assert (i in vs) == (not in_convex_hull(p, pts[:i] + pts[i + 1:]))
            checked += 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_results_are_plain_integers(self, n):
        """Planes, vertex indices and volume are Python ints in every
        dimension, on the int64 path and on the exact-int (object) path."""
        rng = random.Random(5570 + n)
        corners = [(0,) * n] + [tuple(3 * (i == k) for i in range(n)) for k in range(n)]
        pts = sorted(set(corners) | {tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(12)})
        big = [tuple(10**12 * c for c in p) for p in pts]
        if n >= 3:
            assert _dtype_of(pts, n) is np.int64 and _dtype_of(big, n) is object
        res, res_big = _hull.hull_of_lifted(pts, n), _hull.hull_of_lifted(big, n)
        for r in (res, res_big):
            assert type(r.volume) is int
            assert all(type(i) is int for i in r.vertex_indices)
            for a, b in r.planes:
                assert type(a) is tuple and all(type(x) is int for x in a + (b,))
        assert res_big.volume == 10 ** (12 * n) * res.volume
        if n <= 3:
            assert res.volume == math.factorial(n) * brute_hull_volume(pts)

    def test_only_the_hull_engine_imports_numpy(self):
        importers = set()
        for path in Path(g.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "numpy" for name in names):
                    importers.add(path.name)
        assert importers == {"_hull.py"}


def _oracle_checked_hull(pts, n):
    """Hull of lex-sorted ``pts``, its vertex indices checked point by point.

    Every reported non-vertex must lie in the hull of the reported vertices,
    so the true vertices are among them; then a reported vertex is extreme
    iff it is outside the hull of the other reported vertices.  Together this
    is the same verdict as testing each point against all the others, with
    far fewer generators per linear program.
    """
    res = _hull.hull_of_lifted(pts, n)
    vs = res.vertex_indices
    gens = [pts[v] for v in vs]
    for i, p in enumerate(pts):
        if i not in vs:
            assert in_convex_hull(p, gens)
    for k, v in enumerate(vs):
        assert not in_convex_hull(pts[v], gens[:k] + gens[k + 1:])
    return res


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


class TestRing2d:
    """`_hull.ring_2d` against an independent monotone chain over every
    point and against the angular order."""

    @staticmethod
    def check(points):
        pts = sorted(set(points))
        got = _hull.ring_2d(pts)
        index = {p: i for i, p in enumerate(pts)}
        assert got == [index[tuple(int(c) for c in p)] for p in _monotone_chain(pts)]
        if len(got) >= 3:
            want = [tuple(int(c) for c in p) for p in ring_sorted([pts[i] for i in got])]
            start = want.index(pts[0])
            assert [pts[i] for i in got] == want[start:] + want[:start]
        return got

    def test_seeded_clouds_with_full_columns(self):
        rng = random.Random(2020)
        for _ in range(200):
            width, height = rng.randint(1, 6), rng.randint(1, 60)
            cloud = [(rng.randint(0, width), rng.randint(-height, height))
                     for _ in range(rng.randint(3, 80))]
            self.check(cloud)

    def test_degenerate_inputs(self):
        assert self.check([(3, y) for y in range(-4, 9)]) == [0, 12]  # one column
        assert self.check([(0, 0), (1, 5)]) == [0, 1]
        assert self.check([(i, 2 * i - 1) for i in range(10)]) == [0, 9]  # collinear
        assert self.check([(5, 5)]) == []


class TestHullEngineDegenerate:
    """Inputs with coplanar facets and non-extreme points on the boundary."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_lattice_box(self, n):
        pts = list(product(range(3), repeat=n))
        res = _oracle_checked_hull(pts, n)
        assert [pts[i] for i in res.vertex_indices] == list(product((0, 2), repeat=n))
        assert len(res.planes) == 2 * n
        assert res.volume == math.factorial(n) * 2**n

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 5), (4, 4), (4, 5)])
    def test_zonotope(self, n, k):
        """Sums of k segments [0, g]; volume = sum over n-subsets of |det|."""
        rng = random.Random(7000 + 10 * n + k)
        checked = 0
        while checked < 3:
            gens = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(k)]
            volume = sum(abs(_det([list(v) for v in c])) for c in combinations(gens, n))
            if volume == 0:
                continue  # the segments span a hyperplane at most
            pts = sorted({
                tuple(sum(v[c] for v, b in zip(gens, bits) if b) for c in range(n))
                for bits in product((0, 1), repeat=k)
            })
            res = _oracle_checked_hull(pts, n)
            assert res.volume == math.factorial(n) * volume
            checked += 1

    @pytest.mark.parametrize("n,sizes", [(3, (3, 3, 3, 2)), (4, (3, 3, 2, 2))])
    def test_span8_four_body_sums(self, n, sizes):
        rng = random.Random(7100 + n)
        for _ in range(2):
            bodies = [[tuple(rng.randint(0, 8) for _ in range(n)) for _ in range(s)] for s in sizes]
            pts = sorted({tuple(map(sum, zip(*choice))) for choice in product(*bodies)})
            _oracle_checked_hull(pts, n)

    @pytest.mark.parametrize("n,k", [(3, 12), (4, 6)])
    def test_lattice_points_of_dilated_simplex(self, n, k):
        """Every lattice point of k times the standard simplex, on the int64
        path and scaled by 10**12 on the exact-int path: the vertices are
        the n + 1 corners, the planes x_i >= 0 and sum(x) <= k, and n! times
        the volume is k^n."""
        pts = [p for p in product(range(k + 1), repeat=n) if sum(p) <= k]
        corners = [(0,) * n] + [tuple(k * (i == j) for i in range(n)) for j in range(n)]
        facets = sorted(
            [((1,) * n, k)] + [(tuple(-(i == j) for i in range(n)), 0) for j in range(n)]
        )
        for scale, dtype in ((1, np.int64), (10**12, object)):
            scaled = [tuple(scale * c for c in p) for p in pts]
            assert _dtype_of(scaled, n) is dtype
            res = _hull.hull_of_lifted(scaled, n)
            assert [pts[i] for i in res.vertex_indices] == sorted(corners)
            assert res.planes == [(a, scale * b) for a, b in facets]
            assert res.volume == (scale * k) ** n


class TestMinkowskiSum:
    def test_unit_square_from_segments(self):
        s1 = g.convex_hull([(0, 0), (1, 0)])
        s2 = g.convex_hull([(0, 0), (0, 1)])
        assert g.minkowski_sum(s1, s2) == square()

    def test_simplex_plus_diagonal_is_pentagon(self):
        seg = g.convex_hull([(0, 0), (1, 1)])
        P = g.minkowski_sum(simplex(2), seg)
        expected = g.convex_hull([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)])
        assert P == expected

    def test_single_point_translates(self):
        P = g.convex_hull([(0, 0), (2, 1), (1, 3)])
        t = g.convex_hull([(5, -2)])
        assert g.minkowski_sum(P, t) == translate(P, (5, -2))

    def test_commutative_associative(self):
        rng = random.Random(5)
        mk = lambda: g.convex_hull(
            [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(4)]
        )
        for _ in range(10):
            A, B, C = mk(), mk(), mk()
            assert g.minkowski_sum(A, B) == g.minkowski_sum(B, A)
            assert g.minkowski_sum(g.minkowski_sum(A, B), C) == g.minkowski_sum(
                A, g.minkowski_sum(B, C)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            g.minkowski_sum(square(), simplex(3))


class TestScaleVolume:
    def test_scale_square(self):
        assert g.scale(square(), 2) == square(2)

    def test_scale_zero_gives_origin(self):
        P = g.scale(square(), 0)
        assert P.vertices == ((F(0), F(0)),)

    def test_scale_fractional(self):
        P = g.scale(simplex(2), F(3, 2))
        assert P.vertices == ((F(0), F(0)), (F(0), F(3, 2)), (F(3, 2), F(0)))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            g.scale(square(), -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unit_simplex_volume(self, n):
        import math

        assert g.volume(simplex(n)) == F(1, math.factorial(n))

    def test_pentagon_volume_vs_shoelace(self):
        assert g.volume(
            g.convex_hull([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)])
        ) == shoelace_area([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)])

    def test_shoelace_equivalence_500_random_polygons(self):
        from oracles import ring_sorted

        rng = random.Random(99)
        for _ in range(500):
            pts = {
                (rng.randint(0, 7), rng.randint(0, 7))
                for _ in range(rng.randint(3, 8))
            }
            P = g.convex_hull(pts)
            if P.affine_dim < 2:
                assert g.volume(P) == 0
                continue
            assert g.volume(P) == shoelace_area(ring_sorted(P.vertices))


class TestLatticePoints:
    def test_unit_square(self):
        assert set(g.lattice_points(square()).points) == {
            (0, 0), (1, 0), (0, 1), (1, 1)
        }

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_scaled_square_count(self, k):
        assert len(g.lattice_points(g.scale(square(), k))) == (k + 1) ** 2

    def test_segment(self):
        P = g.convex_hull([(0,), (3,)])
        assert set(g.lattice_points(P).points) == {(0,), (1,), (2,), (3,)}

    def test_candidate_bound_is_checked_before_enumeration(self, monkeypatch):
        def enumerated(a, q):
            raise AssertionError("a candidate was tested")

        too_long = g.convex_hull([(0,), (g.MAX_LATTICE_CANDIDATES,)])  # bound + 1 points
        monkeypatch.setattr(_hull, "_dot", enumerated)
        with pytest.raises(ValueError, match="too large"):
            g.lattice_points(too_long)

    def test_candidate_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(g, "MAX_LATTICE_CANDIDATES", 5)
        assert len(g.lattice_points(g.convex_hull([(0,), (4,)]))) == 5
        with pytest.raises(ValueError, match="too large"):
            g.lattice_points(g.convex_hull([(0,), (5,)]))

    def test_fractional_body_without_lattice_points(self):
        P = g.convex_hull([(F(1, 3), F(1, 3)), (F(2, 3), F(1, 3)), (F(1, 2), F(2, 3))])
        assert len(g.lattice_points(P)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force_on_seeded_bodies(self, n):
        # rational full bodies and flat ones of every lower dimension; the
        # reference tests every point of the box by exact LP feasibility
        rng = random.Random(4700 + n)
        dims = []
        for i in range(8):
            k = rng.randint(0, n - 1) if i % 2 else n
            if k < n:
                pts = _flat_body(rng, n, k)[0]
            else:
                pts = [tuple(F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(n))
                       for _ in range(n + 2)]
            P = g.convex_hull(pts)
            vs = list(P.vertices)
            box = [range(math.ceil(min(col)), math.floor(max(col)) + 1) for col in zip(*vs)]
            expected = {q for q in product(*box) if in_convex_hull(q, vs)}
            found = g.lattice_points(P)
            assert len(found) == len(expected) and set(found.points) == expected
            dims.append(P.affine_dim)
        assert n in dims and min(dims) < n

    def test_monotone_under_sum_with_zero(self):
        rng = random.Random(12)
        for _ in range(25):
            P = g.convex_hull([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)])
            Q = g.convex_hull([(0, 0), (rng.randint(0, 2), rng.randint(0, 2))])
            assert set(g.lattice_points(P).points) <= set(
                g.lattice_points(g.minkowski_sum(P, Q)).points
            )


coord = st.integers(min_value=-6, max_value=6)
point2 = st.tuples(coord, coord)


class TestProperties:
    @given(st.lists(point2, min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_hull_idempotence(self, pts):
        P = g.convex_hull(pts)
        assert g.convex_hull(P.vertices) == P

    @given(st.lists(point2, min_size=1, max_size=7), point2)
    @settings(max_examples=60, deadline=None)
    def test_volume_translation_invariance(self, pts, t):
        P = g.convex_hull(pts)
        assert g.volume(translate(P, t)) == g.volume(P)

    @given(
        st.lists(point2, min_size=1, max_size=7),
        st.fractions(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_volume_homogeneity(self, pts, lam):
        P = g.convex_hull(pts)
        assert g.volume(g.scale(P, lam)) == lam ** P.ambient_dim * g.volume(P)


def _rank(vectors):
    return int(np.linalg.matrix_rank(np.array(vectors, dtype=float))) if vectors else 0


def _flat_body(rng, n, k):
    """Rational points spanning a k-dimensional affine subspace of R^n whose
    directions have no zero coordinate (so the subspace is not axis-aligned)."""
    while True:
        dirs = [tuple(rng.choice((-1, 1)) for _ in range(n)) for _ in range(k)]
        if _rank(dirs) == k:
            break
    base = tuple(F(rng.randint(-2, 2), rng.choice((1, 1, 1, 1, 2))) for _ in range(n))
    while True:
        ts = [[F(rng.randint(0, 12), 6) for _ in range(k)] for _ in range(k + rng.randint(3, 6))]
        pts = [
            tuple(b + sum(t * v[c] for t, v in zip(row, dirs)) for c, b in enumerate(base))
            for row in ts
        ]
        if _rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == k:
            return pts, dirs


def _centroid(points):
    return tuple(sum(c) / len(points) for c in zip(*points))


class TestLowerDimensional:
    @pytest.mark.parametrize(
        "n,k", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3)]
    )
    def test_flat_bodies_against_oracles(self, n, k):
        rng = random.Random(1000 * n + k)
        for _ in range(3):
            pts, dirs = _flat_body(rng, n, k)
            P = g.convex_hull(pts)
            vs = list(P.vertices)
            assert P.affine_dim == k and g.volume(P) == 0
            # every vertex satisfies every plane, each plane is tight at a
            # vertex, and the vertices alone fix the planes
            ivs = P.face[1]
            heights = [[sum(x * y for x, y in zip(a, v)) - b for v in ivs] for a, b in P.planes]
            assert all(max(h) == 0 for h in heights)
            assert g.convex_hull(vs).planes == P.planes
            # the vertices are extreme and generate every input point
            assert all(not in_convex_hull(v, vs[:i] + vs[i + 1:]) for i, v in enumerate(vs))
            assert all(in_convex_hull(p, vs) for p in pts)
            # inside, beyond a vertex on the affine hull, and off the affine hull
            c = _centroid(vs)
            probes = [c] + [_centroid(rng.sample(pts, 2)) for _ in range(3)]
            probes += [tuple(a + (a - b) / 3 for a, b in zip(v, c)) for v in vs[:3]]
            while True:
                w = tuple(rng.randint(-1, 1) for _ in range(n))
                if _rank(dirs + [w]) == k + 1:
                    break
            probes += [tuple(a + F(t, 5) * b for a, b in zip(c, w)) for t in (1, -2)]
            for q in probes:
                assert P.contains(q) == in_convex_hull(q, vs)
            # lattice points: brute force over the bounding box
            box = [range(math.ceil(min(col)), math.floor(max(col)) + 1) for col in zip(*vs)]
            expected = {q for q in product(*box) if in_convex_hull(q, vs)}
            assert set(g.lattice_points(P).points) == expected

    def test_flat_membership_runs_no_echelon(self, monkeypatch):
        """A flat body answers membership from its planes alone, as a full
        one does: the lattice points of the triangle (0,0,0), (4,0,0),
        (0,4,0) and an off-hull Fraction point take no echelon."""
        P = g.convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0)])
        calls = []
        real = _hull.echelon
        monkeypatch.setattr(_hull, "echelon", lambda rows: calls.append(1) or real(rows))
        assert g.lattice_points(P).points == {(x, y, 0) for x in range(5) for y in range(5 - x)}
        assert not P.contains((F(1, 2), F(1, 3), F(1, 7)))
        assert P.contains((F(1, 2), F(1, 3), 0)) and not P.contains((F(7, 2), F(2, 3), 0))
        assert calls == []


def _rational_body(rng, n, dens, odd=False):
    """Random rational body; with `odd`, every numerator is odd."""
    def coord():
        num = rng.randint(-6, 6)
        return F(2 * num + 1 if odd else num, rng.choice(dens))

    return g.convex_hull([tuple(coord() for _ in range(n)) for _ in range(n + 3)])


def _same_core(P, Q):
    """Equal bodies with equal hulls: integer face, planes and volume."""
    assert P == Q
    assert (P.face, P.planes) == (Q.face, Q.planes)
    assert g.volume(P) == g.volume(Q)


class TestIntegerSumsAndDilations:
    """Minkowski sums and dilations on lifted vertices against the Fraction route."""

    def test_half_plus_half_is_integral(self):
        P = g.convex_hull([(F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)), (F(1, 2), F(5, 2))])
        Q = g.convex_hull([(F(1, 2), F(1, 2)), (F(-1, 2), F(3, 2))])
        S = g.minkowski_sum(P, Q)
        assert S.face[0] == 1
        _same_core(S, g.convex_hull([
            tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices
        ]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_sums_match_fraction_route(self, n):
        rng = random.Random(40 + n)
        cases = [((1, 2, 3), (1, 4, 6), False), ((2,), (2,), True), ((1,), (3, 5), False),
                 ((2, 6), (3,), False), ((2, 6), (2, 6), True)]
        for dens_p, dens_q, odd in cases:
            for _ in range(6):
                P, Q = _rational_body(rng, n, dens_p, odd), _rational_body(rng, n, dens_q, odd)
                sums = [tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices]
                _same_core(g.minkowski_sum(P, Q), g.convex_hull(sums))

    @pytest.mark.parametrize("n", [2, 3])
    def test_dilations_match_fraction_route(self, n):
        rng = random.Random(50 + n)
        for _ in range(12):
            P = _rational_body(rng, n, (1, 2, 3, 4))
            for lam in (F(0), F(1), F(2), F(3, 2), F(2, 3), F(5, 4)):
                dilated = [tuple(lam * c for c in v) for v in P.vertices]
                _same_core(g.scale(P, lam), g.convex_hull(dilated))

    def test_equal_exactly_when_vertices_are(self):
        """Bodies built by different routes compare and hash by their vertices alone."""
        rng = random.Random(19)
        for n in (1, 2, 3):
            for _ in range(10):
                P = _rational_body(rng, n, (1, 2, 6))
                s, vs = P.face
                doubled = (2 * s, [tuple(2 * c for c in v) for v in vs])
                pool = [
                    P,
                    g.convex_hull(list(P.vertices) + [_centroid(P.vertices)]),
                    g.scale(g.scale(P, 6), F(1, 6)),
                    g.minkowski_sum(P, g.convex_hull([(0,) * n])),
                    g._polytope(*g._union([P.face, doubled]), n),
                    translate(P, (F(1, 2),) * n),
                    _rational_body(rng, n, (1, 2, 6)),
                ]
                for A, B in product(pool, repeat=2):
                    assert (A == B) == (A.vertices == B.vertices)
                    if A == B:
                        assert A.face == B.face and hash(A) == hash(B)
