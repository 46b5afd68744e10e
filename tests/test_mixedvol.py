import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import permutations

import pytest
import sympy

from okounkov_lab import _hull
from okounkov_lab import geometry as g
from okounkov_lab import mixedvol as mv
from okounkov_lab.radicals import compare_root_sums


def poly(*pts):
    return g.convex_hull(pts)


SQ = poly((0, 0), (1, 0), (0, 1), (1, 1))
SI = poly((0, 0), (1, 0), (0, 1))
SEG_DIAG = poly((0, 0), (1, 1))
CUBE = poly(*[(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
FLAT_SQ = poly((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
SI3 = poly((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _axis_segments(n):
    origin = (0,) * n
    return tuple(poly(origin, tuple(int(i == k) for i in range(n))) for k in range(n))


def random_polygon(rng, span=3, k=5):
    return poly(*[(rng.randint(0, span), rng.randint(0, span)) for _ in range(k)])


def random_body3(rng, span=2, k=5):
    return poly(
        *[(rng.randint(0, span), rng.randint(0, span), rng.randint(0, span)) for _ in range(k)]
    )


def random_body(rng, n, span=2, k=5):
    return poly(*[tuple(rng.randint(0, span) for _ in range(n)) for _ in range(k)])


def _count_hulls(monkeypatch) -> Counter:
    """Count the exact hulls built from now on, by dimension."""
    calls: Counter = Counter()
    real = _hull.hull_of_lifted

    def counting(points, d):
        calls[d] += 1
        return real(points, d)

    monkeypatch.setattr(_hull, "hull_of_lifted", counting)
    return calls


class TestMixedVolume:
    def test_diagonal_is_volume_cube(self):
        assert mv.mixed_volume((CUBE, CUBE, CUBE)) == 1

    def test_segments_give_half(self):
        e1, e2 = poly((0, 0), (1, 0)), poly((0, 0), (0, 1))
        assert mv.mixed_volume((e1, e2)) == F(1, 2)

    def test_simplex_with_diagonal_segment(self):
        assert mv.mixed_volume((SI, SEG_DIAG)) == 1

    def test_symmetry_small(self):
        rng = random.Random(1)
        for _ in range(20):
            bodies = (random_polygon(rng), random_polygon(rng))
            assert mv.mixed_volume(bodies) == mv.mixed_volume(bodies[::-1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mv.mixed_volume((SQ, CUBE))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            mv.mixed_volume((SQ, SQ, SI))


class TestInterpOracle:
    @pytest.mark.parametrize(
        "bodies,expected",
        [
            ((CUBE, CUBE, CUBE), F(1)),
            ((poly((0, 0), (1, 0)), poly((0, 0), (0, 1))), F(1, 2)),
            ((SI, SEG_DIAG), F(1)),
            ((SQ, SQ), F(1)),
            (_axis_segments(3), F(1, 6)),
            (_axis_segments(4), F(1, 24)),
            ((FLAT_SQ, FLAT_SQ, poly((0, 0, 0), (1, 2, 0))), F(0)),  # all in z = 0
            ((SI3, FLAT_SQ, FLAT_SQ), F(1, 3)),  # flat sum of the last two
            ((poly((-1,), (F(3, 2),)),), F(5, 2)),  # 1D: length
            ((poly((0, 0), (1, 1)), poly((1, 0), (3, 2))), F(0)),  # parallel segments
            ((poly((0, 0), (F(1, 2), 0), (0, F(1, 3))), SQ), F(5, 12)),  # (width_x + width_y) / 2
            ((g.scale(CUBE, F(1, 2)), CUBE, poly((0, 0, 0), (F(2, 3), 0, F(1, 5)))), F(13, 90)),
        ],
    )
    def test_examples(self, bodies, expected):
        assert mv.mixed_volume_interp(bodies) == expected
        assert mv.mixed_volume(bodies) == expected

    def test_agreement_on_random_pairs(self):
        rng = random.Random(77)
        for _ in range(60):
            bodies = (random_polygon(rng), random_polygon(rng))
            assert mv.mixed_volume(bodies) == mv.mixed_volume_interp(bodies)

    def test_agreement_on_4d_quadruples(self):
        """No other exact check of 4D mixed volumes exists; criterion 5's sizes."""
        rng = random.Random(4040)
        for _ in range(20):
            bodies = tuple(
                poly(*[tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(5)])
                for _ in range(4)
            )
            assert mv.mixed_volume(bodies) == mv.mixed_volume_interp(bodies)


class TestRecursionAgainstInclusionExclusion:
    """The production recursion against the inclusion-exclusion oracle."""

    @pytest.mark.parametrize("span", [4, 5, 6, 7, 8])
    def test_wide_3d_triples(self, span):
        rng = random.Random(600 + span)
        for _ in range(3):
            bodies = tuple(random_body(rng, 3, span, 6) for _ in range(3))
            assert mv.mixed_volume(bodies) == mv.mixed_volume_interp(bodies)

    @pytest.mark.parametrize("span", [4, 6, 8])
    def test_wide_4d_quadruples(self, span):
        rng = random.Random(700 + span)
        bodies = tuple(random_body(rng, 4, span) for _ in range(4))
        assert mv.mixed_volume(bodies) == mv.mixed_volume_interp(bodies) > 0

    def test_repeated_tuples(self):
        rng = random.Random(801)
        d, k, l = (random_body(rng, 4, 3) for _ in range(3))
        for bodies in [(d, d, d, k), (d, k, d, d), (d, d, k, l), (k, d, l, d)]:
            assert mv.mixed_volume(bodies) == mv.mixed_volume_interp(bodies)
        d3, k3 = random_body(rng, 3, 4), random_body(rng, 3, 4)
        for bodies in [(d3, d3, k3), (k3, d3, d3)]:
            assert mv.mixed_volume(bodies) == mv.mixed_volume_interp(bodies)

    def test_point_body_gives_zero(self):
        rng = random.Random(802)
        for n in (2, 3, 4):
            point = poly(tuple(rng.randint(-3, 3) for _ in range(n)))
            others = tuple(random_body(rng, n, 3) for _ in range(n - 1))
            for bodies in [(point,) + others, others + (point,), (point,) * n]:
                assert mv.mixed_volume(bodies) == 0 == mv.mixed_volume_interp(bodies)

    @pytest.mark.parametrize(
        "directions",
        [
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)],  # three segments in one plane
            [(1, 2, 0), (2, 4, 0), (0, 0, 1)],  # two parallel segments
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, -1, 2, 0)],
            [(1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 2), (0, 0, 1, 0)],
        ],
    )
    def test_dependent_segments_give_zero(self, directions):
        n = len(directions[0])
        bodies = tuple(poly((0,) * n, d) for d in directions)
        assert mv.mixed_volume(bodies) == 0 == mv.mixed_volume_interp(bodies)

    def test_independent_segments_give_the_determinant(self):
        # V(segments) = |det(directions)| / n!
        directions = [(1, 0, 0, 1), (0, 2, 0, 1), (1, 1, 3, 0), (0, 0, 1, 1)]
        bodies = tuple(poly((0, 0, 0, 0), d) for d in directions)
        expected = F(abs(int(sympy.Matrix(directions).det())), 24)
        assert mv.mixed_volume(bodies) == expected == mv.mixed_volume_interp(bodies)

    def test_flat_and_lower_dimensional_bodies(self):
        rng = random.Random(803)
        flat3 = poly((0, 0, 1), (2, 0, 1), (0, 3, 1), (1, 1, 1))  # a polygon in z = 1
        slab4 = poly((0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 0))
        plane4 = poly((0, 0, 0, 0), (1, 2, 0, 0), (0, 0, 1, 1), (1, 2, 1, 1))  # 2D
        seg4 = poly((0, 0, 0, 0), (1, 1, 1, 1))
        cases = [
            (flat3, random_body(rng, 3, 3), random_body(rng, 3, 3)),
            (flat3, flat3, random_body(rng, 3, 3)),
            (flat3, flat3, flat3),
            (slab4, random_body(rng, 4), random_body(rng, 4), random_body(rng, 4)),
            (slab4, slab4, slab4, random_body(rng, 4)),
            (plane4, plane4, random_body(rng, 4), random_body(rng, 4)),
            (plane4, slab4, seg4, random_body(rng, 4)),
            (plane4, plane4, plane4, random_body(rng, 4)),  # 0: three copies of a 2D body
        ]
        values = []
        for bodies in cases:
            got = mv.mixed_volume(bodies)
            assert got == mv.mixed_volume_interp(bodies)
            values.append(got)
        assert values[2] == 0 == values[-1] and values[0] > 0 and values[4] > 0

    def test_rational_denominators(self):
        rng = random.Random(804)

        def rational_body(n):
            return poly(*[tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
                                for _ in range(n)) for _ in range(5)])

        for n in (2, 3, 4):
            for _ in range(2):
                bodies = tuple(rational_body(n) for _ in range(n))
                assert mv.mixed_volume(bodies) == mv.mixed_volume_interp(bodies)

    def test_permutation_invariance_4d_with_repeats(self):
        rng = random.Random(805)
        d, k, l = (random_body(rng, 4, 3) for _ in range(3))
        values = {mv.mixed_volume(p) for p in set(permutations((d, d, k, l)))}
        assert values == {mv.mixed_volume_interp((d, d, k, l))}


class TestMixedVolumeInternals:
    def test_null_space_reads_rows_only_up_to_rank_n(self):
        """The null space stops reading rows once they reach rank n, so the
        many points of a full-dimensional sum cost no more than its first."""
        read = []
        rows = [(1, 2, 0), (2, 4, 0), (0, 1, 0), (0, 0, 5), (7, 7, 7)]
        got = _hull.null_space((read.append(i) or r for i, r in enumerate(rows)), 3)
        assert got == [] and read == [0, 1, 2, 3]

    def test_null_space_matches_sympy(self):
        """The null space against sympy, on the seeded rows that pinned the
        flat-sum cofactor normal: small rows, rows past int64 and dependent
        rows.  The vectors are primitive Python ints orthogonal to every
        row, n - rank of them spanning sympy's null space; for independent
        rows the one vector is +-(-1)^c det(rows without column c) over its
        content.  No rows give the n unit vectors."""
        rng = random.Random(806)
        for n in (2, 3, 4):
            assert _hull.null_space([], n) == [tuple(int(i == j) for i in range(n)) for j in range(n)]
            for bound in (9, 10**20):
                for _ in range(30):
                    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n - 1)]
                    dependent = n > 2 and rng.random() < 0.2
                    if dependent:
                        rows[-1] = [3 * x for x in rows[0]]
                    got = _hull.null_space(rows, n)
                    assert all(type(x) is int for a in got for x in a)
                    assert all(math.gcd(*a) == 1 for a in got)
                    assert all(sum(x * y for x, y in zip(r, a)) == 0 for r in rows for a in got)
                    want = [list(v) for v in sympy.Matrix(rows).nullspace()]
                    rank = sympy.Matrix(rows).rank()
                    assert len(got) == n - rank == len(want)
                    assert sympy.Matrix([list(a) for a in got]).rank() == len(got)
                    assert sympy.Matrix([list(a) for a in got] + want).rank() == len(got)
                    if dependent:
                        assert len(got) >= 2
                    if rank == n - 1:
                        cofactors = [
                            (-1) ** c * int(sympy.Matrix([r[:c] + r[c + 1:] for r in rows]).det())
                            for c in range(n)
                        ]
                        content = math.gcd(*cofactors)
                        (a,) = got
                        assert a in {tuple(x // content for x in cofactors),
                                     tuple(-x // content for x in cofactors)}

    def test_4d_hull_count_guard(self, monkeypatch):
        """A cost guard without timing: at most half the 436 4D hulls that
        inclusion-exclusion needs for the 20 quadruples of
        test_agreement_on_4d_quadruples, bodies built inside the count.
        Faces are never hulled, so the 1D and 2D hulls (2,204 and 837 when
        every face was a polytope) stay far below their guards too."""
        calls = _count_hulls(monkeypatch)
        rng = random.Random(4040)
        for _ in range(20):
            bodies = tuple(random_body(rng, 4) for _ in range(4))
            assert mv.check_alexandrov_fenchel(bodies).holds
        assert calls[4] <= 218
        assert calls[1] <= 100 and calls[2] <= 600

    def test_planar_af_builds_no_1d_hull(self, monkeypatch):
        """The faces of a planar measure are segments, whose mixed volume is
        their length, so a 2D check builds no 1D hull (2,711 on 300 integer
        pairs when each segment was hulled).  Its three mixed volumes match
        inclusion-exclusion, at scales 1 to 3."""
        rng = random.Random(9)
        pairs = [
            tuple(
                poly(*[(F(rng.randint(0, 9), den), F(rng.randint(0, 9), den)) for _ in range(8)])
                for den in (rng.randint(1, 3), rng.randint(1, 3))
            )
            for _ in range(40)
        ]
        calls = _count_hulls(monkeypatch)
        reports = [mv.check_alexandrov_fenchel(pair) for pair in pairs]
        assert calls[1] == 0
        for (a, b), r in zip(pairs, reports):
            want = {"v12": (a, b), "v11": (a, a), "v22": (b, b)}
            assert r.witness["mixed_volumes"] == {
                k: mv.mixed_volume_interp(t) for k, t in want.items()
            }

    def test_a_rest_of_one_top_level_body_builds_no_hull(self, monkeypatch):
        """A measure whose rest is one full-dimensional input body reads that
        body's facet normals, so 300 planar checks (600 such measures) and
        3D V(K, L, L) (rest L + L) build no hull; values match
        inclusion-exclusion."""
        rng = random.Random(9)
        pairs = [
            tuple(poly(*[(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(8)]) for _ in range(2))
            for _ in range(300)
        ]
        triples = [(random_body3(rng), body, body) for body in (random_body3(rng, 3, 6) for _ in range(10))]
        calls = _count_hulls(monkeypatch)
        reports = [mv.check_alexandrov_fenchel(pair) for pair in pairs]
        values = [mv.mixed_volume(t) for t in triples]
        assert sum(calls.values()) == 0
        monkeypatch.undo()
        for (a, b), r in zip(pairs, reports):
            want = {"v12": (a, b), "v11": (a, a), "v22": (b, b)}
            assert r.witness["mixed_volumes"] == {
                k: mv.mixed_volume_interp(t) for k, t in want.items()
            }
        assert values == [mv.mixed_volume_interp(t) for t in triples]


def _lowest_terms(measure) -> dict:
    """A measure as {u in lowest terms: w rescaled to that u}, one atom per u."""
    atoms = {}
    for u, w in measure:
        g_ = math.gcd(*u)
        v = tuple(x // g_ for x in u)
        assert v not in atoms, f"two atoms at {v}"
        atoms[v] = w * g_
    return atoms


class TestTransversalPath:
    """The transversal normals of :func:`_hull.transversal_normals` against
    the hull of the sum, selected by ``TRANSVERSALS_PER_POINT``."""

    @staticmethod
    def _rests():
        rng = random.Random(2424)
        frac = poly(*[tuple(F(rng.randint(-6, 6), rng.choice((2, 3, 5))) for _ in range(3))
                      for _ in range(6)])
        big3 = poly(*[tuple(10**12 * rng.randint(-3, 3) for _ in range(3)) for _ in range(7)])
        big4 = [poly(*[tuple(10**12 * rng.randint(0, 2) for _ in range(4)) for _ in range(6)])
                for _ in range(2)]
        rests = []
        for k in (4, 5, 6, 8):
            rests += [mv._grouped((random_body(rng, 3, 3, k), random_body(rng, 3, 3, k)))
                      for _ in range(4)]
        for k in (5, 6, 7):
            rests += [mv._grouped([random_body(rng, 4, 2, k) for _ in range(3)]) for _ in range(3)]
            k4, l4 = random_body(rng, 4, 2, k), random_body(rng, 4, 2, k)
            rests += [mv._grouped((k4, k4, l4)), mv._grouped((l4, k4, l4))]
        flat = [poly((0, 0, 1), (2, 0, 1), (0, 3, 1), (1, 1, 1)),
                poly((0, 0, 1), (1, 2, 1), (3, 1, 1))]  # both in z = 1
        slab = [poly(*[(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), 2)
                       for _ in range(6)]) for _ in range(2)]  # both in x4 = 2
        plane = [poly((0, 0, 0, 0), (2, 1, 0, 0), (1, 3, 0, 0)),
                 poly((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)),
                 poly((0, 0, 0, 0), (1, 2, 0, 0))]  # all in x3 = x4 = 0
        rests += [mv._grouped(bodies) for bodies in [
            flat, (flat[0], random_body(rng, 3)),
            (slab[0], slab[0], slab[1]), (*slab, random_body(rng, 4)),
            (poly((0, 0, 0), (1, 2, 0)), flat[1]),
            plane, (poly((1, 1, 1)), CUBE),
            (frac, random_body(rng, 3, 3, 6)), (frac, big3), (*big4, big4[0]),
        ]]
        return rests

    def test_both_paths_give_the_same_atoms(self, monkeypatch):
        """Forced to the hull (0) and to the transversals (10^9), every
        measure has the same atoms once each u is in lowest terms: random 3D
        and 4D rests, repeated faces, flat sums (both normals), lower-
        dimensional sums (no atom), fractional scales and coordinates that
        take the exact ``object`` dtype."""
        calls = Counter()
        real = _hull.transversal_normals

        def counting(faces):
            calls[len(faces[0][0][0])] += 1
            return real(faces)

        monkeypatch.setattr(_hull, "transversal_normals", counting)
        rests = self._rests()
        assert _hull._dtype_for(3 * 10**12, 3) is object
        found = []
        for rest in rests:
            monkeypatch.setattr(mv, "TRANSVERSALS_PER_POINT", 0)
            hulled = _lowest_terms(mv._measure(rest, {}))
            monkeypatch.setattr(mv, "TRANSVERSALS_PER_POINT", 10**9)
            before = sum(calls.values())
            crossed = _lowest_terms(mv._measure(rest, {}))
            assert sum(calls.values()) > before
            assert crossed == hulled
            found.append(crossed)
        assert calls[3] >= 20 and calls[4] >= 15
        assert set(found[-10]) == {(0, 0, 1), (0, 0, -1)}  # both normals of a flat sum
        assert found[-5] == found[-4] == {}  # a 2D sum in R^4; a point face
        assert all(found[:16]) and all(found[-3:])

    def test_a_flat_sum_takes_one_elimination(self, request):
        """Two non-parallel edges in R^3 sum to a parallelogram: its corank
        and its normal come from one null space, with no echelon outside it."""
        rest = mv._grouped((poly((0, 0, 0), (1, 2, 0)), poly((1, 0, 0), (3, 1, 1))))
        log = request.getfixturevalue("elimination_log")
        atoms = _lowest_terms(mv._measure(rest, {}))
        assert log == [("null_space", 3), "echelon in null_space", "echelon in null_space"]
        assert set(atoms) == {(2, -1, -3), (-2, 1, 3)}

    def test_4d_alexandrov_fenchel_against_inclusion_exclusion(self, monkeypatch):
        """4D checks on bodies of 6 to 8 vertices, whose measures fall on
        both sides of the crossover, against inclusion-exclusion."""
        rng = random.Random(2425)
        quads = []
        while len(quads) < 3:
            bodies = tuple(random_body(rng, 4, 2, 9) for _ in range(4))
            if all(6 <= len(b.face[1]) <= 8 for b in bodies):
                quads.append(bodies)
        paths = Counter()
        real = _hull.transversal_normals
        monkeypatch.setattr(_hull, "transversal_normals",
                            lambda faces: paths.update(["transversal"]) or real(faces))
        hulls = _count_hulls(monkeypatch)
        reports = [mv.check_alexandrov_fenchel(q) for q in quads]
        assert paths["transversal"] > 0 and hulls[4] > 0
        monkeypatch.undo()
        for (d1, d2, d3, d4), r in zip(quads, reports):
            want = {"v12": (d1, d2), "v11": (d1, d1), "v22": (d2, d2)}
            assert r.witness["mixed_volumes"] == {
                k: mv.mixed_volume_interp(t + (d3, d4)) for k, t in want.items()
            }
            assert r.holds

    def test_small_bodies_build_no_4d_sum_hull(self, monkeypatch):
        """20 random 4D checks on 5-point bodies take every normal from the
        transversals, while bodies of 9 vertices still hull their sums."""
        rng = random.Random(2426)
        quads = [tuple(random_body(rng, 4) for _ in range(4)) for _ in range(20)]
        cross = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        cross = cross + [tuple(-x for x in e) for e in cross]
        nines = tuple(poly(*cross, corner) for corner in
                      [(1, 1, 1, 1), (1, 1, 1, -1), (1, -1, 1, 1), (-1, 1, 1, 1)])
        assert all(len(b.face[1]) == 9 for b in nines)
        calls = _count_hulls(monkeypatch)
        assert all(mv.check_alexandrov_fenchel(q).holds for q in quads)
        assert calls[4] == 0
        assert mv.check_alexandrov_fenchel(nines).holds
        assert calls[4] > 0


class TestPlanarMixed:
    """The closed-form planar level against inclusion-exclusion."""

    @staticmethod
    def check(a, b):
        want = mv.mixed_volume_interp((a, b))
        assert mv._planar_mixed(a.face, b.face) == want
        assert mv._planar_mixed(b.face, a.face) == want
        return want

    def test_random_rational_polygons_with_different_scales(self):
        rng = random.Random(2024)
        for _ in range(40):
            a, b = (
                poly(*[(F(rng.randint(-6, 6), den), F(rng.randint(-6, 6), den))
                       for _ in range(rng.randint(1, 6))])
                for den in (rng.randint(1, 5), rng.randint(1, 7))
            )
            self.check(a, b)

    def test_segments(self):
        rng = random.Random(2025)
        for _ in range(20):
            a = poly((0, 0), (rng.randint(-4, 4), rng.randint(1, 4)))
            b = poly((F(1, 3), 0), (rng.randint(1, 4), F(rng.randint(-4, 4), 2)))
            self.check(a, b)
            self.check(a, random_polygon(rng))
        assert self.check(poly((0, 0), (1, 1)), poly((1, 0), (3, 2))) == 0
        assert self.check(poly((0, 0), (2, 0)), poly((0, 1), (F(1, 2), 1))) == 0
        assert self.check(poly((0, 0), (2, 0)), poly((0, 0), (0, 3))) == 3

    def test_equal_faces_give_the_area(self):
        rng = random.Random(2026)
        for _ in range(20):
            p = random_polygon(rng, span=5, k=6)
            assert mv._planar_mixed(p.face, p.face) == g.volume(p)
            self.check(p, p)

    def test_collinear_points(self):
        line = (1, ((0, 0), (1, 1), (2, 2), (3, 3)))
        tri = (2, ((0, 0), (0, 3), (5, 1)))
        half_tri = poly((0, 0), (0, F(3, 2)), (F(5, 2), F(1, 2)))
        want = mv.mixed_volume_interp((poly((0, 0), (3, 3)), half_tri))
        assert mv._planar_mixed(line, tri) == mv._planar_mixed(tri, line) == want
        square = (1, ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)))
        assert mv._planar_mixed(square, square) == 4

    def test_a_point_gives_zero(self):
        point = poly((F(2, 3), 5))
        assert self.check(point, SQ) == 0
        assert self.check(point, poly((0, 0), (1, 2))) == 0
        assert mv._planar_mixed(point.face, point.face) == 0


class TestRepeated:
    def test_double_is_volume(self):
        assert mv.mixed_volume((SQ, SQ)) == g.volume(SQ)

    def test_unit_multiplicities(self):
        assert mv.mixed_volume((SQ, SI)) == 1 == mv.mixed_volume_interp((SQ, SI))

    def test_expansion_identity_3d(self):
        # V(K, K, L) = Area(K) * width_L(u) / 3 for K planar with normal u
        assert mv.mixed_volume((FLAT_SQ, FLAT_SQ, SI3)) == F(1, 3)
        assert mv.mixed_volume((FLAT_SQ, SI3, FLAT_SQ)) == F(1, 3)


class TestAlexandrovFenchel:
    def test_equal_bodies_equality(self):
        r = mv.check_alexandrov_fenchel((SQ, SQ))
        assert r.holds and r.lhs == r.rhs

    def test_square_simplex(self):
        r = mv.check_alexandrov_fenchel((SQ, SI))
        assert r.holds and r.lhs == 1 and r.rhs == F(1, 2)

    def test_random_triples_3d(self):
        rng = random.Random(4242)
        for _ in range(40):
            bodies = tuple(random_body3(rng) for _ in range(3))
            assert mv.check_alexandrov_fenchel(bodies).holds

    def test_witness_matches_independent_mixed_volumes(self):
        rng = random.Random(5150)
        cases = [tuple(random_body3(rng) for _ in range(3)) for _ in range(4)]
        a, b, c = cases[0]
        cases += [(a, a, b), (a, b, a), (a, b, b), (a, a, a)]
        cases.append(tuple(random_body(rng, 4) for _ in range(4)))
        p, q = random_body(rng, 4, 3), random_body(rng, 4, 3)
        # the two measures see the same bodies with swapped multiplicities
        cases.append((p, q, p, q))
        for bodies in cases:
            d1, d2, rest = bodies[0], bodies[1], bodies[2:]
            witness = mv.check_alexandrov_fenchel(bodies).witness["mixed_volumes"]
            # mixed_volume shares the measures with the check, so the
            # witness is compared with inclusion-exclusion
            assert witness == {
                "v12": mv.mixed_volume_interp(bodies),
                "v11": mv.mixed_volume_interp((d1, d1) + rest),
                "v22": mv.mixed_volume_interp((d2, d2) + rest),
            }
            assert all(type(v) is F for v in witness.values())


class TestGeneralizedBM:
    def test_homogeneity_equality(self):
        r = mv.check_generalized_bm(2, SQ, SQ, [])
        assert r.holds

    def test_square_simplex(self):
        r = mv.check_generalized_bm(2, SQ, SI, [])
        assert r.holds
        # 1 + sqrt(1/2) <= sqrt(7/2) with strict inequality
        assert compare_root_sums([1, F(1, 2)], [F(7, 2)], 2) == -1

    def test_random_pairs(self):
        rng = random.Random(11)
        for _ in range(40):
            assert mv.check_generalized_bm(
                2, random_polygon(rng), random_polygon(rng), []
            ).holds

    def test_mixed_slot_3d(self):
        rng = random.Random(13)
        for _ in range(10):
            d1, d2, fx = random_body3(rng), random_body3(rng), random_body3(rng)
            assert mv.check_generalized_bm(2, d1, d2, [fx]).holds

    def test_bad_fixed_arity(self):
        with pytest.raises(ValueError):
            mv.check_generalized_bm(1, SQ, SI, [])


class TestIsoperimetric:
    def test_equal_bodies(self):
        r = mv.check_isoperimetric(SI, SI)
        assert r.holds and r.lhs == r.rhs

    def test_square_simplex(self):
        r = mv.check_isoperimetric(SQ, SI)
        assert r.holds and r.lhs == F(1, 2) and r.rhs == 1
        assert r.witness["expansion_identity"]

    def test_requires_plane(self):
        with pytest.raises(ValueError):
            mv.check_isoperimetric(CUBE, CUBE)

    def test_one_hull_of_the_sum(self, monkeypatch):
        """The oracle and the expansion identity share one 2D hull of D1 + D2."""
        rng = random.Random(14)
        pairs = [(random_polygon(rng, 5, 6), random_polygon(rng, 5, 6)) for _ in range(10)]
        want = [mv.mixed_volume_interp(pair) for pair in pairs]
        calls = _count_hulls(monkeypatch)
        reports = [mv.check_isoperimetric(d1, d2) for d1, d2 in pairs]
        assert calls == Counter({2: len(pairs)})
        assert [r.witness["mixed_area_interp"] for r in reports] == want
        assert [r.witness["mixed_area"] for r in reports] == want
        assert all(r.holds for r in reports)


class TestAxioms:
    def test_multilinearity(self):
        rng = random.Random(8)
        for _ in range(40):
            a, b, c = (random_polygon(rng) for _ in range(3))
            lhs = mv.mixed_volume((g.minkowski_sum(a, b), c))
            assert lhs == mv.mixed_volume((a, c)) + mv.mixed_volume((b, c))

    def test_permutation_invariance_3d(self):
        rng = random.Random(9)
        bodies = tuple(random_body3(rng) for _ in range(3))
        vals = {mv.mixed_volume(p) for p in permutations(bodies)}
        assert len(vals) == 1

    def test_monotone(self):
        rng = random.Random(10)
        for _ in range(30):
            big = random_polygon(rng, span=4)
            pts = list(g.lattice_points(big).points)
            sub = rng.sample(pts, max(1, len(pts) // 2))
            small = g.convex_hull(sub)
            other = random_polygon(rng)
            assert mv.mixed_volume((small, other)) <= mv.mixed_volume((big, other))

    def test_corollary_power_inequality(self):
        # V^m(k1*D1, k2*D2, fixed) >= prod V^{kj}(m*Dj, fixed), exact powers
        rng = random.Random(21)
        for _ in range(20):
            d1, d2, fx = random_body3(rng), random_body3(rng), random_body3(rng)
            m = 2
            lhs = mv.mixed_volume((d1, d2, fx))
            r1 = mv.mixed_volume((d1,) * m + (fx,))
            r2 = mv.mixed_volume((d2,) * m + (fx,))
            assert lhs**m >= r1 * r2
