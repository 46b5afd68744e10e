import random
from fractions import Fraction as F
from itertools import permutations

import pytest

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
        cases.append(
            tuple(
                poly(*[tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(5)])
                for _ in range(4)
            )
        )
        for bodies in cases:
            d1, d2, rest = bodies[0], bodies[1], bodies[2:]
            witness = mv.check_alexandrov_fenchel(bodies).witness["mixed_volumes"]
            assert witness == {
                "v12": str(mv.mixed_volume(bodies)),
                "v11": str(mv.mixed_volume((d1, d1) + rest)),
                "v22": str(mv.mixed_volume((d2, d2) + rest)),
            }


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
