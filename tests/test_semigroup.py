import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_hull_volume,
    brute_kfold_sums,
    brute_sumset,
    brute_sumset_power,
    check_superadditive,
    density_of_slice,
    is_level_dict,
    joint_lattice_index,
    newton_body,
    sympy_lattice_index,
)
from okounkov_lab import algebra as alg
from okounkov_lab import geometry as g
from okounkov_lab import semigroup as sg


def S(dim, pts):
    return g.support_set(dim, pts)


A013 = S(1, [(0,), (1,), (3,)])
SIMPLEX_PTS = S(2, [(0, 0), (1, 0), (0, 1)])
A02 = S(1, [(0,), (2,)])


def random_support(rng, dim, span=4, size=4):
    pts = {tuple(rng.randint(0, span) for _ in range(dim)) for _ in range(size)}
    return S(dim, pts)


class TestSumsetPower:
    def test_examples(self):
        assert set(sg.sumset_power(A013, 2).points) == {(0,), (1,), (2,), (3,), (4,), (6,)}
        assert len(sg.sumset_power(SIMPLEX_PTS, 3)) == 10
        assert set(sg.sumset_power(A02, 5).points) == {(0,), (2,), (4,), (6,), (8,), (10,)}

    def test_identity_at_one(self):
        assert sg.sumset_power(A013, 1).points == A013.points

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sg.sumset_power(A013, 0)

    def test_against_brute_force(self):
        rng = random.Random(31)
        for _ in range(25):
            a = random_support(rng, 2, span=3, size=3)
            k = rng.randint(1, 4)
            got = set(sg.sumset_power(a, k).points)
            assert got == brute_sumset_power(a.points, k)
            assert got == brute_kfold_sums(a.points, k)

    def test_superadditive(self):
        rng = random.Random(17)
        for _ in range(15):
            a = random_support(rng, 2, span=3, size=3)
            j, k = rng.randint(1, 3), rng.randint(1, 3)
            left = {
                tuple(x + y for x, y in zip(p, q))
                for p in sg.sumset_power(a, j).points
                for q in sg.sumset_power(a, k).points
            }
            assert left <= set(sg.sumset_power(a, j + k).points)

    def test_containment_in_dilated_hull(self):
        rng = random.Random(23)
        for _ in range(15):
            a = random_support(rng, 2, span=3, size=4)
            k = rng.randint(1, 4)
            dilated = g.scale(g.polytope_of_support(a), k)
            allowed = set(g.lattice_points(dilated).points)
            assert set(sg.sumset_power(a, k).points) <= allowed

    def test_sumset_against_brute_force_in_dimensions_1_to_4(self):
        rng = random.Random(414)
        for dim in (1, 2, 3, 4):
            for _ in range(30):
                a = random_support(rng, dim, span=rng.randint(0, 5), size=rng.randint(1, 12))
                b = random_support(rng, dim, span=rng.randint(0, 5), size=rng.randint(1, 40))
                for x in (a, b):
                    twice = brute_sumset(x.points, x.points)
                    assert set(sg.sumset_power(x, 2).points) == twice
                    assert set(sg.sumset_power(x, 3).points) == brute_sumset(twice, x.points)


class TestCompletion:
    def test_examples(self):
        assert set(sg.completion(A013).points) == {(0,), (1,), (2,), (3,)}
        assert set(sg.completion(A02).points) == {(0,), (1,), (2,)}
        two_simplex = S(2, [(0, 0), (2, 0), (0, 2)])
        assert len(sg.completion(two_simplex)) == 6

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_support(rng, 2)
            c = sg.completion(a)
            assert sg.completion(c).points == c.points

    def test_absorbs_sumsets(self):
        rng = random.Random(6)
        for _ in range(20):
            a, b = random_support(rng, 2, 3, 3), random_support(rng, 2, 3, 3)
            lhs = sg.completion(S(2, brute_sumset(a.points, b.points)))
            rhs = sg.completion(S(2, brute_sumset(sg.completion(a).points, sg.completion(b).points)))
            assert lhs.points == rhs.points


def completed_sum(a, c):
    """compl(compl(A) + compl(C)): the cancelation law's left-hand side."""
    return sg.completion(S(a.ambient_dim, brute_sumset(sg.completion(a).points, sg.completion(c).points))).points


class TestCancelation:
    """compl(compl(A) + compl(C)) = compl(compl(B) + compl(C)) implies
    compl(A) = compl(B)."""

    def test_trivial_equal_inputs(self):
        # C = {0} adds nothing: both sides are compl(A) itself
        zero = S(1, [(0,)])
        assert completed_sum(A013, zero) == sg.completion(A013).points == {(i,) for i in range(4)}

    def test_worked_example(self):
        b = S(1, [(0,), (2,), (3,)])
        c = S(1, [(0,), (1,)])
        assert sg.completion(A013).points == sg.completion(b).points
        assert completed_sum(A013, c) == completed_sum(b, c) == {(i,) for i in range(5)}

    def test_random_triples(self):
        rng = random.Random(300)
        equal_sums = 0
        for _ in range(300):
            a = random_support(rng, 2, 3, 3)
            b = random_support(rng, 2, 3, 3)
            c = random_support(rng, 2, 2, 2)
            if completed_sum(a, c) == completed_sum(b, c):
                assert sg.completion(a).points == sg.completion(b).points
                equal_sums += 1
        assert equal_sums > 0


class TestDifferenceLatticeIndex:
    def test_standard_basis(self):
        assert sg.difference_lattice_index(SIMPLEX_PTS) == 1

    def test_even_segment(self):
        assert sg.difference_lattice_index(A02) == 2

    def test_snf_example(self):
        assert sg.difference_lattice_index(S(2, [(0, 0), (2, 0), (0, 3)])) == 6

    def test_rank_deficient_is_infinite(self):
        assert sg.difference_lattice_index(S(2, [(0, 0), (1, 0)])) == sg.INFINITE

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="support sets must be nonempty"):
            sg.difference_lattice_index(S(2, []))

    def test_union_of_sets_can_generate(self):
        sets = [S(2, [(0, 0), (1, 0)]), S(2, [(5, 5), (5, 6)])]
        assert joint_lattice_index(sets) == 1
        assert [sg.difference_lattice_index(s) for s in sets] == [sg.INFINITE] * 2

    def test_invariant_under_sumset_power(self):
        rng = random.Random(41)
        for _ in range(15):
            a = random_support(rng, 2, 3, 3)
            base = sg.difference_lattice_index(a)
            for k in (2, 3):
                assert sg.difference_lattice_index(sg.sumset_power(a, k)) == base

    def test_smith_normal_form_divisibility(self):
        divs = sg.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert divs == [2, 2, 156]
        for a, b in zip(divs, divs[1:]):
            if b != 0:
                assert b % a == 0


class TestHermiteBasis:
    @staticmethod
    def check_shape(rows, n):
        """Pivots positive and moving strictly right, zeros left of each,
        every entry above a pivot in [0, pivot)."""
        pivots = []
        for row in rows:
            assert len(row) == n
            j = next(i for i, x in enumerate(row) if x)
            assert row[j] > 0 and (not pivots or j > pivots[-1])
            pivots.append(j)
        for i, j in enumerate(pivots):
            assert all(0 <= upper[j] < rows[i][j] for upper in rows[:i])

    @staticmethod
    def sympy_form(vectors):
        """sympy's Hermite normal form of the lattice the vectors span, as
        rows; unique for the lattice, so equal forms mean equal lattices."""
        from sympy import Matrix
        from sympy.matrices.normalforms import hermite_normal_form

        if not any(any(v) for v in vectors):
            return []
        form = hermite_normal_form(Matrix([list(v) for v in vectors]).T)
        return [tuple(int(x) for x in form[:, j]) for j in range(form.shape[1])]

    def test_small_examples(self):
        assert sg.hermite_basis([]) == sg.hermite_basis([(0, 0)]) == []
        assert sg.hermite_basis([(-6,), (4,), (0,)]) == [(2,)]
        assert sg.hermite_basis([(2, 4, 4), (-6, 6, 12), (10, 4, 16)]) == [
            (2, 0, 120), (0, 2, 20), (0, 0, 156)]
        # rank 1 in Z^2: one row, its pivot made positive
        assert sg.hermite_basis([(-3, 6), (6, -12), (0, 0)]) == [(3, -6)]

    def test_random_vectors_against_sympy(self):
        rng = random.Random(320)
        for n in range(1, 5):
            for t in range(60):
                bits = (4, 20, 60)[t % 3]
                vectors = [tuple(rng.randint(-2**bits, 2**bits) for _ in range(n))
                           for _ in range(rng.randint(0, 6))]
                if vectors and t % 2:
                    # rank 1: every vector a multiple of the first
                    vectors = [tuple(rng.randint(-3, 3) * x for x in vectors[0]) for _ in vectors]
                vectors += [(0,) * n] * rng.randint(0, 2) + vectors[: rng.randint(0, 2)]
                rows = sg.hermite_basis(vectors)
                self.check_shape(rows, n)
                assert self.sympy_form(rows) == self.sympy_form(vectors)
                rng.shuffle(vectors)
                assert sg.hermite_basis(vectors) == rows


class TestNewtonBody:
    def test_simplex_slice(self):
        for kmax in (1, 2, 4):
            body = newton_body(sg.slice_of_support(SIMPLEX_PTS, kmax))
            assert body == g.polytope_of_support(SIMPLEX_PTS)

    def test_face_is_in_lowest_terms(self):
        """Levels 1 and 2 join at scale 2, and the face is divided back down."""
        body = newton_body(sg.slice_of_support(SIMPLEX_PTS, 2))
        simplex = g.polytope_of_support(SIMPLEX_PTS)
        assert body.face == simplex.face == (1, ((0, 0), (0, 1), (1, 0)))
        assert body == simplex and hash(body) == hash(simplex)

    def test_one_dim_example(self):
        body = newton_body(sg.slice_of_support(A013, 1))
        assert body == g.convex_hull([(0,), (3,)])

    def test_single_ray(self):
        ray = {k: S(2, [(k, 0)]) for k in range(1, 5)}
        body = newton_body(ray)
        assert body.affine_dim == 0
        assert body.vertices == ((F(1), F(0)),)

    def test_matches_fraction_hull_of_levels(self):
        """The integer lift equals the hull of every S_j / j as `Fraction`s."""
        rng = random.Random(59)
        for _ in range(40):
            dim, kmax = rng.randint(1, 3), rng.randint(1, 6)
            levels = {j: random_support(rng, dim, 3 * j, rng.randint(1, 5)) for j in range(1, kmax + 1)}
            pts = [tuple(F(c, j) for c in p) for j, level in levels.items() for p in level.points]
            body, expected = newton_body(levels), g.convex_hull(pts)
            assert body == expected and g.volume(body) == g.volume(expected)
            assert (body.face, body.planes) == (expected.face, expected.planes)

    def test_ambient_dimension_above_four_is_a_value_error(self):
        unit = S(5, [(0,) * 5] + [tuple(int(i == k) for i in range(5)) for k in range(5)])
        s = sg.slice_of_support(unit, 2)
        for build in (newton_body, density_of_slice):
            with pytest.raises(ValueError, match="ambient dimension"):
                build(s)
        with pytest.raises(ValueError, match="ambient dimension"):
            sg.density_sequence(unit, 2)

    def test_monotone_in_kmax(self):
        rng = random.Random(53)
        for _ in range(10):
            a = random_support(rng, 2, 3, 3)
            prev = None
            for kmax in (1, 2, 3, 4):
                body = newton_body(sg.slice_of_support(a, kmax))
                if prev is not None:
                    assert all(body.contains(v) for v in prev.vertices)
                prev = body


class TestDensity:
    def test_simplex_closed_form(self):
        rep = sg.density_sequence(SIMPLEX_PTS, 12)
        for row in rep.rows:
            k = row.k
            assert row.ratio == F((k + 1) * (k + 2), 2 * k**2)
        assert rep.ample and rep.final_volume == F(1, 2)

    def test_non_ample_flagged(self):
        rep = sg.density_sequence(A02, 12)
        assert not rep.ample and rep.index == 2
        assert rep.final_ratio == F(13, 12)
        assert rep.final_volume == 2

    def test_one_dim_converges(self):
        rep = sg.density_sequence(A013, 25)
        assert rep.ample
        assert abs(rep.final_ratio - 3) < F(2, 10)

    def test_ample_is_index_one(self):
        rows = sg.density_sequence(SIMPLEX_PTS, 2).rows
        assert sg.DensityReport(rows, 1).ample
        assert not sg.DensityReport(rows, 2).ample
        assert not sg.DensityReport(rows, sg.INFINITE).ample


def random_levels(rng, dim, kmax, size, reach):
    """Seeded levels S_1..S_kmax of `size` points each within k * [-reach, reach]^dim."""
    return {
        k: S(dim, [tuple(rng.randint(-reach * k, reach * k) for _ in range(dim)) for _ in range(size)])
        for k in range(1, kmax + 1)
    }


class TestDensityOracle:
    """The reference `density_of_slice` against a brute `Fraction` hull of
    the union of S_j / j, on levels that need not be sumset powers."""

    @staticmethod
    def check(levels):
        dim = next(iter(levels.values())).ambient_dim
        rep = density_of_slice(levels)
        scaled = []
        for row in rep.rows:
            k = row.k
            scaled.extend(tuple(F(c, k) for c in p) for p in levels[k].points)
            assert row.ratio == F(len(levels[k]), k**dim)
            assert row.volume == brute_hull_volume(scaled)
        assert rep.index == sympy_lattice_index([set(s.points) for s in levels.values()])
        return rep

    def test_hand_built_levels(self):
        # none of these is a sumset power of its level 1
        self.check({1: S(1, [(0,), (1,)]), 2: S(1, [(0,), (5,)]), 3: S(1, [(-4,), (2,), (3,)]),
                    4: S(1, [(9,)])})
        self.check({
            k: S(2, [(0, 0), (k, 0), (0, k)] + [(j, k - j) for j in range(1, k, 2)] + ([(k, k)] if k % 3 == 0 else []))
            for k in range(1, 8)
        })
        self.check({1: S(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                    2: S(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 3)]),
                    3: S(3, [(1, 1, 1), (-1, 0, 0), (3, 3, 0)])})

    def test_seeded_levels(self):
        rng = random.Random(909)
        for dim, kmax, size in [(1, 9, 3), (2, 7, 4), (2, 5, 6), (3, 4, 3), (3, 3, 4)]:
            for _ in range(4):
                self.check(random_levels(rng, dim, kmax, size, reach=2))

    def test_collinear_support(self):
        rep = self.check(sg.slice_of_support(S(2, [(0, 0), (1, 2), (3, 6)]), 6))
        assert rep.final_volume == 0 and rep.index == sg.INFINITE
        rep = self.check({k: S(3, [(k, 0, -k), (0, 0, 0), (2 * k, 0, -2 * k)][: 1 + k % 3]) for k in range(1, 6)})
        assert rep.final_volume == 0


def seeded_supports(rng):
    """(support, kmax) pairs in 1-4D: one-point, collinear, dilated (so
    non-ample) and general supports, with negative coordinates."""
    for dim, kmax in ((1, 12), (2, 8), (3, 5), (4, 4)):
        for case in range(50):
            base = tuple(rng.randint(-4, 4) for _ in range(dim))
            if case % 4 == 0:
                pts = [base]
            elif case % 4 == 1:
                step = tuple(rng.randint(-2, 2) for _ in range(dim))
                pts = [tuple(b + t * c for b, c in zip(base, step)) for t in rng.sample(range(-3, 4), 3)]
            else:
                factor = 1 + case % 4 // 3  # every fourth support is dilated by 2
                size = rng.randint(2, 2 * dim + 4)
                pts = [tuple(b + factor * rng.randint(-2, 2) for b in base) for _ in range(size)]
            yield S(dim, pts), rng.randint(1, kmax)


class TestDensityCounting:
    """`density_sequence` counts kA on packed integers and reads the body and
    the index off A; the reference `density_of_slice` hulls every level."""

    def test_matches_reference_on_seeded_supports(self):
        kinds = {"ample": 0, "non-ample": 0, "one-point": 0, "collinear": 0, "negative": 0}
        for a, kmax in seeded_supports(random.Random(2828)):
            rep = sg.density_sequence(a, kmax)
            assert rep == density_of_slice(sg.slice_of_support(a, kmax))
            kinds["ample" if rep.ample else "non-ample"] += 1
            kinds["one-point"] += len(a) == 1
            kinds["collinear"] += len(a) > 1 and g.polytope_of_support(a).affine_dim == 1
            kinds["negative"] += any(c < 0 for p in a.points for c in p)
        assert all(count >= 20 for count in kinds.values()), kinds

    @pytest.mark.parametrize("n,k_max", [(2, 124), (3, 48), (4, 27)])
    def test_simplex_closed_form_at_the_budget_edge(self, n, k_max):
        """#(k Delta_n) = C(k + n, n) at every level up to the largest kmax
        the pair-sum budget admits."""
        simplex = S(n, [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)])
        with pytest.raises(ValueError, match="pair sums"):
            sg.density_sequence(simplex, k_max + 1)
        rep = sg.density_sequence(simplex, k_max)
        assert [r.ratio for r in rep.rows] == [F(math.comb(k + n, n), k**n) for k in range(1, k_max + 1)]
        assert rep.ample and rep.final_volume == F(1, math.factorial(n))


def box_supports(rng):
    """Supports for the level box in 1-4D: strides above 1, one point,
    negative coordinates, then the seeded supports of the density tests."""
    yield S(1, [(0,), (2,), (6,)]), 6
    yield S(2, [(0, 0), (4, 0), (2, 6)]), 5
    yield S(3, [(-3, 1, 5), (3, 1, 5), (-3, 7, -1)]), 4
    yield S(4, [(-1, 2, -3, 4)]), 3
    yield from seeded_supports(rng)


class TestLevelBox:
    """`LevelBox` slots: additive across levels, order-respecting within a
    level, and decoding to the brute-force sumsets."""

    @staticmethod
    def orders(rng, dim):
        return [alg.LEX, alg.MonomialOrder(tuple(rng.randint(1, 3) for _ in range(dim)))]

    def test_slots_add_across_levels(self):
        rng = random.Random(2929)
        for a, kmax in box_supports(rng):
            pts = sorted(a.points)
            for order in self.orders(rng, a.ambient_dim):
                box = sg.level_box(pts, kmax, order.grading)
                for _ in range(5):
                    j = rng.randint(1, kmax)
                    chosen = [rng.choice(pts) for _ in range(j)]
                    got = box.exponent(sum(map(box.slot, chosen)), j)
                    assert got == tuple(map(sum, zip(*chosen)))
                levels = list(sg._levels(box, a.points, kmax))
                for _ in range(5):
                    j, k = rng.randint(1, kmax), rng.randint(1, kmax)
                    if j + k > kmax:
                        continue
                    s, t = rng.choice(sorted(levels[j - 1])), rng.choice(sorted(levels[k - 1]))
                    want = tuple(x + y for x, y in zip(box.exponent(s, j), box.exponent(t, k)))
                    assert box.exponent(s + t, j + k) == want

    def test_slots_rise_with_the_order_within_a_level(self):
        rng = random.Random(3030)
        for a, kmax in box_supports(rng):
            for order in self.orders(rng, a.ambient_dim):
                box = sg.level_box(a.points, kmax, order.grading)
                for k, level in enumerate(sg._levels(box, a.points, kmax), 1):
                    decoded = [box.exponent(s, k) for s in sorted(level)]
                    assert set(decoded) == brute_sumset_power(a.points, k)
                    keys = list(map(order.key, decoded))
                    assert all(x < y for x, y in zip(keys, keys[1:]))

    def test_grading_length_is_checked(self):
        message = "grading length does not match the exponent"
        with pytest.raises(ValueError, match=message):
            sg.level_box([(0, 0), (1, 2)], 3, (1, 2, 3))
        l = alg.monomial_subspace(S(2, [(0, 0), (1, 2)]))
        with pytest.raises(ValueError, match=message):
            alg.semigroup_of_subspace(l, alg.MonomialOrder((1, 2, 3)), 3)
        with pytest.raises(ValueError, match=message):
            alg.MonomialOrder((1, 2, 3)).key((1, 2))

    def test_powers_and_slices_match_brute_force(self):
        count = 0
        for a, kmax in box_supports(random.Random(3131)):
            levels = sg.slice_of_support(a, kmax)
            assert is_level_dict(levels, kmax, a.ambient_dim)
            for k in range(1, kmax + 1):
                assert set(levels[k].points) == brute_sumset_power(a.points, k)
            assert set(sg.sumset_power(a, kmax).points) == brute_sumset_power(a.points, kmax)
            count += 1
        assert count >= 150

    def test_triangle_at_the_budget_edge(self):
        triangle = S(2, [(0, 0), (1, 0), (0, 1)])
        level = sg.sumset_power(triangle, 124).points
        assert len(level) == math.comb(126, 2)
        assert level == {(i, j) for i in range(125) for j in range(125 - i)}


class TestLatticeIndexOracle:
    """`difference_lattice_index`, the multi-set reference
    `joint_lattice_index` and `smith_normal_form` against sympy."""

    def test_repeated_and_single_point_sets(self):
        rng = random.Random(31)
        for _ in range(120):
            dim = rng.randint(1, 3)
            sets = []
            for _ in range(rng.randint(1, 4)):
                pts = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))}
                sets.extend([pts] * rng.randint(1, 2))  # a repeated set repeats every row
            sets.append(set(sets[0]))
            got = joint_lattice_index([S(dim, s) for s in sets])
            assert got == sympy_lattice_index(sets)
            for s in sets:
                assert sg.difference_lattice_index(S(dim, s)) == sympy_lattice_index([s])

    def test_known_cases(self):
        line = {(0, 0), (1, 1), (3, 3)}
        assert joint_lattice_index([S(2, line)] * 3) == sympy_lattice_index([line] * 3) == sg.INFINITE
        assert sg.difference_lattice_index(S(2, line)) == sg.INFINITE
        point = {(2, 5)}
        assert sg.difference_lattice_index(S(2, point)) == sympy_lattice_index([point]) == sg.INFINITE
        grid = {(0, 0), (2, 0), (0, 3), (2, 3)}
        assert joint_lattice_index([S(2, grid), S(2, grid)]) == sympy_lattice_index([grid] * 2) == 6
        assert sg.difference_lattice_index(S(2, grid)) == 6

    def test_first_set_shortcut(self):
        cases = [
            ([{(0, 0), (1, 0), (0, 1)}, {(0, 0), (4, 0), (0, 6)}], 1),  # the first set is ample
            ([{(0,), (2,)}, {(0,), (3,)}], 1),  # only the second set completes Z
            ([{(0, 0), (2, 0), (0, 2)}, {(0, 0), (2, 0), (1, 1)}], 2),
            ([{(0, 0), (1, 1)}, {(0, 0), (3, 3), (5, 5)}], sg.INFINITE),
        ]
        for sets, want in cases:
            dim = len(next(iter(sets[0])))
            assert joint_lattice_index([S(dim, p) for p in sets]) == want
            assert sympy_lattice_index(sets) == want

    def test_smith_form_runs_at_most_twice(self, monkeypatch):
        """A cost guard without timing on the reference: one Smith normal
        form on an ample slice, whose level 1 already spans Z^2, and two on a
        non-ample one, never one per level."""
        calls = []
        real = sg.smith_normal_form
        monkeypatch.setattr(sg, "smith_normal_form", lambda rows: calls.append(len(rows)) or real(rows))
        for support, index, runs in ([(0, 0), (1, 0), (0, 1)], 1, 1), ([(0, 0), (2, 0), (0, 2)], 4, 2):
            calls.clear()
            levels = sg.slice_of_support(S(2, support), 40)
            assert joint_lattice_index(list(levels.values())) == index
            assert len(calls) == runs

    def test_smith_form_with_zero_and_repeated_rows(self):
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form

        # (seed, draws, most rows, most columns, largest |entry|)
        for seed, draws, max_rows, max_cols, entry in (32, 150, 6, 4, 6), (33, 60, 9, 7, 2**30):
            rng = random.Random(seed)
            for _ in range(draws):
                cols = rng.randint(1, max_cols)
                rows = [[rng.randint(-entry, entry) for _ in range(cols)]
                        for _ in range(rng.randint(1, max_rows))]
                rows += [[0] * cols] * rng.randint(0, 2) + [list(r) for r in rows[: rng.randint(0, 2)]]
                rng.shuffle(rows)
                form = smith_normal_form(Matrix(rows), domain=ZZ)
                want = [abs(int(form[i, i])) for i in range(min(form.shape))]
                assert sg.smith_normal_form(rows) == want


def margin_rows(a, k_max, c):
    """(k, deep missing, squared depth of the deepest missing point) for
    k = 1..k_max: the lattice points of k conv(A) absent from the k-fold
    sumset, counted where their Euclidean depth exceeds c.

    A facet a.x <= b / s of the dilated hull leaves p a gap g = b / s - a.p,
    at distance g / |a|, so depths are compared exactly by g^2 / |a|^2.
    """
    base = g.polytope_of_support(a)
    rows = []
    for k, level in sg.slice_of_support(a, k_max).items():
        body = g.scale(base, k)
        s = body.face[0]
        depths = [
            min(F(b - s * sum(x * y for x, y in zip(n, p)), s) ** 2 / sum(x * x for x in n)
                for n, b in body.planes)
            for p in g.lattice_points(body).points if p not in level.points
        ]
        rows.append((k, sum(d > c * c for d in depths), max(depths, default=0)))
    return rows


class TestInteriorMargin:
    """Khovanskii: the level S_k of an ample semigroup holds every lattice
    point of k conv(S_1) deeper than a constant C inside."""

    def test_simplex_saturates_at_zero(self):
        assert all(deep == 0 for _, deep, _ in margin_rows(SIMPLEX_PTS, 10, 0))

    def test_a013_needs_margin_one(self):
        assert any(deep > 0 for _, deep, _ in margin_rows(A013, 10, 0))
        assert all(deep == 0 for k, deep, _ in margin_rows(A013, 10, 1) if k >= 2)

    def test_two_simplex_small_margin(self):
        # the vertex set of the doubled simplex has difference lattice 2Z^2,
        # so the deep-interior theorem needs its (ample) lattice-point set;
        # C = 2 suffices from level 6 on
        verts = S(2, [(0, 0), (2, 0), (0, 2)])
        assert sg.difference_lattice_index(verts) == 4
        a = sg.completion(verts)
        assert all(deep == 0 for k, deep, _ in margin_rows(a, 12, 2) if k >= 6)

    def test_normalized_depth_trend(self):
        # the deepest missing point's depth grows slower than k
        squared = [d / k**2 for k, _, d in margin_rows(A013, 16, 1)]
        assert squared[-1] <= squared[1]
        assert squared[-1] < F(1, 25)

    def test_depth_exactly_c_is_not_deep(self):
        # every level of A013 misses one point (2, 5, 8, ...) at depth exactly 1
        rows = margin_rows(A013, 6, 1)
        assert [(deep, d) for _, deep, d in rows] == [(0, 1)] * 6

    def test_just_deeper_than_c_is_deep(self):
        c = 1 - F(1, 10**12)
        assert [deep for _, deep, _ in margin_rows(A013, 6, c)] == [1] * 6

    def test_exact_depth_across_a_slanted_facet(self):
        # k = 1: (1, 1) is the only interior lattice point of the triangle
        # (0,0), (3,0), (0,3) missing from S_1; its depth 1/sqrt(2), to
        # x + y <= 3, is irrational
        a = S(2, [(0, 0), (1, 0), (0, 1), (3, 0), (0, 3)])
        below, above = F(7071067811865475, 10**16), F(7071067811865476, 10**16)
        assert margin_rows(a, 1, below)[0][1] == 1
        assert margin_rows(a, 1, above)[0][1] == 0


class TestSliceType:
    def test_superadditivity_checker(self):
        assert check_superadditive(sg.slice_of_support(SIMPLEX_PTS, 5))
        bad = {1: S(1, [(0,), (1,)]), 2: S(1, [(5,)])}
        assert not check_superadditive(bad)

    @given(st.sets(st.integers(0, 5), min_size=1, max_size=4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_power_size_grows(self, pts, k):
        a = S(1, [(p,) for p in pts])
        assert len(sg.sumset_power(a, k)) >= len(a) if k >= 1 else True
