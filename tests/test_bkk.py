import hashlib
import math
import random
import re
from fractions import Fraction as F

import pytest

from okounkov_lab import algebra as alg
from okounkov_lab import bkk
from okounkov_lab import geometry as g
from okounkov_lab import jsonio
from oracles import sylvester_determinant, sympy_lattice_index, sympy_torus_root_count

S = g.support_set
L = alg.laurent
SIMPLEX = S(2, [(0, 0), (1, 0), (0, 1)])
DIAGONAL = S(2, [(0, 0), (1, 1)])


class TestBkkNumber:
    def test_segment(self):
        assert bkk.bkk_number([S(1, [(0,), (2,)])]) == 2

    def test_simplex_pair(self):
        assert bkk.bkk_number([SIMPLEX, SIMPLEX]) == 1

    def test_mixed_pair(self):
        assert bkk.bkk_number([SIMPLEX, DIAGONAL]) == 2

    def test_kushnirenko_consistency(self):
        rng = random.Random(1)
        for _ in range(20):
            a = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)})
            import math

            expected = 2 * g.volume(g.polytope_of_support(a))
            assert bkk.bkk_number([a, a]) == expected

    def test_monotone_in_supports(self):
        rng = random.Random(2)
        for _ in range(20):
            big1 = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)})
            big2 = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)})
            sub1 = S(2, set(list(sorted(big1.points))[: max(1, len(big1) - 1)]))
            sub2 = S(2, set(list(sorted(big2.points))[: max(1, len(big2) - 1)]))
            assert bkk.bkk_number([sub1, sub2]) <= bkk.bkk_number([big1, big2])


class TestRandomSystems:
    def test_determinism(self):
        s1 = bkk.random_generic_system([SIMPLEX, DIAGONAL], 7)
        s2 = bkk.random_generic_system([SIMPLEX, DIAGONAL], 7)
        assert s1 == s2

    def test_different_seeds_differ(self):
        s1 = bkk.random_generic_system([SIMPLEX, DIAGONAL], 7)
        s3 = bkk.random_generic_system([SIMPLEX, DIAGONAL], 8)
        assert s1 != s3

    def test_supports_saturated(self):
        for p, a in zip(
            bkk.random_generic_system([SIMPLEX, DIAGONAL], 3), [SIMPLEX, DIAGONAL]
        ):
            assert {e for e, _ in p.terms} == a.points
            assert all(c.denominator == 1 and 2**16 <= abs(c) <= 2**17 for _, c in p.terms)

    def test_draws_pinned(self):
        # the draws of the dyadic coefficients k / 2^17 these integers replaced
        system = bkk.random_generic_system([SIMPLEX, DIAGONAL], 3)
        assert [p.terms for p in system] == [
            (((0, 0), -97948), ((0, 1), -91109), ((1, 0), 119916)),
            (((0, 0), 121176), ((1, 1), 108377)),
        ]


class TestCountRoots1D:
    def test_quadratic(self):
        assert bkk.count_roots_1d(L(1, {(0,): 1, (2,): 1})) == 2

    def test_random_on_013(self):
        rng = random.Random(4)
        for _ in range(10):
            sys_ = bkk.random_generic_system([S(1, [(0,), (1,), (3,)])], rng.randint(0, 10**6))
            assert bkk.count_roots_1d(sys_[0]) == 3

    def test_laurent_normalization(self):
        p = L(1, {(-1,): 1, (0,): 1, (1,): 1})
        assert bkk.count_roots_1d(p) == 2

    def test_multiplicativity(self):
        p = L(1, {(0,): F(13, 10), (1,): F(-1, 3), (3,): F(7, 10)})
        q = L(1, {(0,): F(9, 10), (2,): F(1, 2)})
        assert bkk.count_roots_1d(p * q) == bkk.count_roots_1d(p) + bkk.count_roots_1d(q) == 5

    def test_monomial_shift_invariance(self):
        p = L(1, {(0,): F(13, 10), (1,): F(-1, 3), (3,): F(7, 10)})
        shift = L(1, {(-3,): F(2, 7)})
        assert bkk.count_roots_1d(p * shift) == bkk.count_roots_1d(p) == 3

    def test_rational_and_float_coefficients_clear_exactly(self):
        # the lcm of the denominators, 6, scales every term to an integer
        p = L(1, {(0,): F(1, 3), (1,): F(-1, 2), (4,): 2})
        assert p.terms == (((0,), 2), ((1,), -3), ((4,), 12))
        # a float's exact binary fraction, 0.1 included
        q = L(1, {(0,): F(0.1), (2,): -1})
        assert q.terms == (((0,), 3602879701896397), ((2,), -(2**55)))
        assert bkk.count_roots_1d(q) == 2

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            bkk.count_roots_1d(L(1, {}))

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            bkk.count_roots_1d(L(2, {(0, 0): 1, (1, 1): 1}))
        one = L(1, {(0,): 1, (1,): 1})
        with pytest.raises(ValueError, match="count_solutions_2d needs two variables"):
            bkk.count_solutions_2d(one, one)

    def test_degree_budget(self):
        # the polynomial is its own eliminant: dense Laurent draws of degree
        # 160 are counted, 161 is past MAX_ELIMINANT_DEGREE
        at_limit = S(1, [(e,) for e in range(-80, 81)])
        (p,) = bkk.random_generic_system([at_limit], 5)
        assert bkk.count_roots_1d(p) == bkk.MAX_ELIMINANT_DEGREE == 160
        (q,) = bkk.random_generic_system([S(1, [(e,) for e in range(-80, 82)])], 5)
        with pytest.raises(ValueError, match="degree bound 161; the limit is 160"):
            bkk.count_roots_1d(q)


class TestCountSolutions2D:
    def test_zero_polynomial(self):
        q = L(2, {(0, 0): 1, (1, 1): 1})
        for p1, p2 in ((L(2, {}), q), (q, L(2, {}))):
            with pytest.raises(ValueError, match="the zero polynomial has no root count"):
                bkk.count_solutions_2d(p1, p2)

    def test_two_lines(self):
        p1 = L(2, {(0, 0): -1, (1, 0): 1})
        p2 = L(2, {(0, 0): -1, (0, 1): 1})
        assert bkk.count_solutions_2d(p1, p2) == 1

    def test_simplex_diagonal_pair(self):
        sys_ = bkk.random_generic_system([SIMPLEX, DIAGONAL], 3)
        assert bkk.count_solutions_2d(*sys_) == 2

    def test_dense_degree_two(self):
        dense = S(2, [(i, j) for i in range(3) for j in range(3) if i + j <= 2])
        sys_ = bkk.random_generic_system([dense, dense], 5)
        assert bkk.count_solutions_2d(*sys_) == 4

    def test_even_supports_with_multiple_eliminant_roots(self):
        sup = S(2, [(0, 0), (2, 0), (0, 2)])
        sys_ = bkk.random_generic_system([sup, sup], 11)
        assert bkk.count_solutions_2d(*sys_) == 4

    def test_univariate_flat_member(self):
        flat = S(2, [(0, 0), (2, 0)])  # no y at all
        sys_ = bkk.random_generic_system([flat, SIMPLEX], 9)
        predicted = bkk.bkk_number([flat, SIMPLEX])
        assert bkk.count_solutions_2d(*sys_) == predicted

    def test_two_flat_supports(self):
        f1 = S(2, [(0, 0), (2, 0)])
        f2 = S(2, [(0, 0), (3, 0)])
        sys_ = bkk.random_generic_system([f1, f2], 13)
        assert bkk.count_solutions_2d(*sys_) == 0
        assert bkk.bkk_number([f1, f2]) == 0


class TestResultant:
    """Per-point differential test of the subresultant PRS against the
    Bareiss determinant of the Sylvester matrix in tests/oracles.py."""

    @pytest.mark.parametrize(
        "case,seed",
        [("generic", 0), ("f-lead-zero", 1), ("g-lead-zero", 2), ("both-leads-zero", 3),
         ("constant", 4)],
    )
    def test_matches_sylvester_determinant(self, case, seed):
        rng = random.Random(seed)

        def coefficient():
            return 0 if rng.random() < 0.2 else rng.randint(-(2**17), 2**17)

        for _ in range(1000):
            d1, d2 = rng.randint(0, 10), rng.randint(0, 10)
            if case == "constant":
                d1, d2 = rng.choice([(0, d2), (d1, 0), (0, 0)])
            c1 = [coefficient() for _ in range(d1 + 1)]
            c2 = [coefficient() for _ in range(d2 + 1)]
            if case in ("f-lead-zero", "both-leads-zero"):
                c1[0] = 0
            if case in ("g-lead-zero", "both-leads-zero"):
                c2[0] = 0
            if case == "constant" and rng.random() < 0.3:
                c1 = [0] * len(c1)  # the zero polynomial as well
            got = bkk._resultant(c1, c2)
            assert type(got) is int and got == sylvester_determinant(c1, c2), (c1, c2)

    @pytest.mark.parametrize(
        "case,seed", [("generic", 5), ("f-lead-zero", 6), ("g-lead-zero", 7), ("both-leads-zero", 8)]
    )
    def test_matches_sylvester_determinant_on_big_coefficients(self, case, seed):
        # the packed eliminant hands the PRS coefficients of thousands of bits
        rng = random.Random(seed)

        def coefficient():
            return 0 if rng.random() < 0.2 else rng.randint(-(2**2000), 2**2000)

        for _ in range(12):
            d1, d2 = rng.randint(1, 6), rng.randint(1, 6)
            c1 = [coefficient() for _ in range(d1 + 1)]
            c2 = [coefficient() for _ in range(d2 + 1)]
            if case in ("f-lead-zero", "both-leads-zero"):
                c1[0] = 0
            if case in ("g-lead-zero", "both-leads-zero"):
                c2[0] = 0
            for f, g in ((c1, c2), (c2, c1)):  # both degree orders
                assert bkk._resultant(f, g) == sylvester_determinant(f, g), (f, g)

    def test_two_constants(self):
        # Res of two nonzero constants over degree 0 is the empty determinant
        assert bkk._subresultant([3], [5]) == 1
        assert type(bkk._subresultant([3], [5])) is int


class TestEliminant:
    """Whole eliminants against sympy's resultant in y, coefficient by coefficient."""

    @staticmethod
    def _draw():
        # the first 20 pairs of a [0,7]^2 draw with 3-6 points per support
        rng = random.Random(1)
        return [
            [S(2, {(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(rng.randint(3, 6))})
             for _ in range(2)]
            for _ in range(20)
        ]

    @staticmethod
    def _check(system, shear):
        from sympy import Poly, expand, resultant, symbols

        x, y = symbols("x y")
        terms = [p.terms for p in system]
        _, (e1, e2), bound = bkk._lattice_coordinates([[e for e, _ in t] for t in terms], shear)
        rows = [bkk._y_rows(list(zip(e, (c for _, c in t)))) for e, t in zip((e1, e2), terms)]
        got = bkk._eliminant(*rows, bound)
        f, g = (
            sum(c * x**ex * y**ey for (ex, ey), (_, c) in zip(e, t))
            for e, t in zip((e1, e2), terms)
        )
        # sympy's resultant comes out with the wrong sign when deg f < deg g and
        # both degrees are odd, so it is taken with the longer polynomial first
        d1, d2 = (len(r) - 1 for r in rows)
        res = resultant(f, g, y) if d1 >= d2 else (-1) ** (d1 * d2) * resultant(g, f, y)
        expected = Poly(res, x).all_coeffs()[::-1]
        expected += [0] * (len(got) - len(expected))
        assert got == [expand(c) for c in expected]

    @pytest.mark.parametrize("shear", [0, 2])
    def test_random_pairs(self, shear):
        for t, pair in enumerate(self._draw()):
            self._check(bkk.random_generic_system(pair, t), shear)

    @staticmethod
    def _rows(system, shear):
        terms = [p.terms for p in system]
        _, es, bound = bkk._lattice_coordinates([[e for e, _ in t] for t in terms], shear)
        return [bkk._y_rows(list(zip(e, (c for _, c in t)))) for e, t in zip(es, terms)], bound

    @staticmethod
    def _grid_rows():
        # the budget edge: Sylvester order 20, degree bound 160
        grid = S(2, [(i, j) for i in range(9) for j in range(11)])
        return TestEliminant._rows(bkk.random_generic_system([grid, grid], 0), 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_packing_bound_is_tight(self, sign):
        # Res(1 + y + ... + y^5, +-3) = (+-3)^5 = +-243, equal to the bound
        # M = ||p1||_1^0 * ||p2||_1^5, so only the full K = 9 holds it as a balanced digit
        assert bkk._eliminant([[1]] * 6, [[3 * sign]], 0) == [243 * sign]

    def test_digits_past_the_bound_are_an_assertion(self):
        # pair 8 of the draw has an eliminant of degree exactly its bound B = 8,
        # so B - 1 leaves its top coefficient over as a digit past the bound
        rows, bound = self._rows(bkk.random_generic_system(self._draw()[8], 8), 0)
        assert bound == 8 and bkk._eliminant(*rows, bound)[-1] != 0
        with pytest.raises(AssertionError, match="digits past the eliminant's degree bound"):
            bkk._eliminant(*rows, bound - 1)

    @pytest.mark.parametrize("case", ["draw-shear-0", "draw-shear-2", "grid"])
    def test_packed_and_interpolated_paths_agree(self, monkeypatch, case):
        if case == "grid":
            cases = [self._grid_rows()]
        else:
            shear = int(case[-1])
            cases = [self._rows(bkk.random_generic_system(pair, t), shear)
                     for t, pair in enumerate(self._draw())]
        for rows, bound in cases:
            got = []
            for bits in (0, 2**64):  # points and interpolation always, then packing always
                monkeypatch.setattr(bkk, "PACKED_BITS", bits)
                got.append(bkk._eliminant(*rows, bound))
            assert got[0] == got[1] and len(got[0]) == bound + 1

    def test_path_selection(self, monkeypatch):
        calls = []
        interpolate = bkk._interpolate
        monkeypatch.setattr(bkk, "_interpolate", lambda *a: calls.append(1) or interpolate(*a))
        for t, pair in enumerate(self._draw()):
            rows, bound = self._rows(bkk.random_generic_system(pair, t), 0)
            bkk._eliminant(*rows, bound)
        # 19 of the 20 [0,7]^2 eliminants pack; pair 14 (B = 72, K = 231) is
        # 16,632 bits, just past PACKED_BITS = 16,384
        assert len(calls) == 1
        rows, bound = self._grid_rows()
        bkk._eliminant(*rows, bound)
        assert len(calls) == 2  # the budget edge, 74,400 bits


class TestVerify:
    def test_dense_quadric_pair(self):
        sup = S(2, [(0, 0), (2, 0), (0, 2)])
        report = bkk.verify_bkk([sup, sup], trials=5, seed=2)
        assert report.predicted == 4 and report.agreed

    def test_completion_invariance_1d(self):
        report = bkk.verify_bkk([S(1, [(0,), (2,)])], trials=5, seed=1)
        assert report.predicted == 2 and report.agreed
        assert report.diagnostics["completion_modal"] == 2

    def test_completion_budget_is_checked_before_any_trial(self, monkeypatch):
        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bkk, "_run_trials", trial)
        wide = S(1, [(0,), (g.MAX_LATTICE_CANDIDATES,)])  # bound + 1 candidates
        with pytest.raises(ValueError, match="too large"):
            bkk.verify_bkk([wide], trials=3)

    def test_simplex_diagonal(self):
        report = bkk.verify_bkk([SIMPLEX, DIAGONAL], trials=5, seed=7)
        assert report.predicted == 2 and report.modal == 2 and report.agreed

    def test_budget_edge(self):
        # Sylvester order 10 + 10 = 20 and degree bound 10*8 + 10*8 = 160: both at the limit
        grid = S(2, [(i, j) for i in range(9) for j in range(11)])
        _, (e1, e2), bound = bkk._lattice_coordinates([grid.sorted_points()] * 2, 0)
        assert bkk._eliminant_size(e1, e2) == (20, bound) == (20, 160)
        report = bkk.verify_bkk([grid, grid], trials=3, seed=0)
        assert report.predicted == report.modal == 160 and report.agreed

    def test_reports_pinned(self, monkeypatch):
        """Trial counts and degenerate reasons of three reports, as they were
        when trials drew dyadic coefficients k / 2^17 instead of the integers
        k: that scales each polynomial by a power of two, a unit modulo PRIME,
        so no certificate check can change.  Seeded trials are practically
        never degenerate (none on 3,000 small random pairs), so in the pair's
        report the second system of each batch is made degenerate: its
        members share a factor."""

        def fields(supports, seed):
            r = bkk.verify_bkk(supports, trials=5, seed=seed)
            d = r.diagnostics
            return r.trials, d["completion_trials"], r.degenerate_trials, d["degenerate_reasons"]

        assert fields([S(1, [(-2,), (0,), (1,), (3,)])], 5) == ((5,) * 5, [5] * 5, 0, {})
        assert fields([SIMPLEX, DIAGONAL], 7) == ((2,) * 5, [2] * 5, 0, {})
        real, calls = bkk.random_generic_system, []

        def second_of_each_batch_degenerate(supports, seed):
            calls.append(seed)
            system = real(supports, seed)
            if len(calls) in (2, 8):
                return [system[0], system[0] * alg.monomial(2, (1, 0))]
            return system

        monkeypatch.setattr(bkk, "random_generic_system", second_of_each_batch_degenerate)
        pair = [S(2, [(0, 0), (2, 1), (1, 3), (3, 2)]), S(2, [(0, 1), (1, 0), (3, 3), (2, 2)])]
        assert fields(pair, 11) == (
            (12,) * 5, [12] * 5, 2, {"eliminant vanishes identically": 2}
        )
        assert len(calls) == 12

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            bkk.verify_bkk([SIMPLEX, DIAGONAL], trials=2, seed=1)

    def test_random_support_pairs(self):
        rng = random.Random(99)
        for t in range(8):
            a = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 5))})
            b = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 5))})
            report = bkk.verify_bkk([a, b], trials=3, seed=400 + t)
            assert report.agreed, (sorted(a.points), sorted(b.points), report)


def seeded_lattice_cases(seed, count):
    """Seeded (exponent lists, shear) inputs of `_lattice_coordinates`, in
    turn: random points in a box of side 2..8 at an offset up to 10^6;
    points p + c b1 + c' b2 (c, c' in 0..3) of a sublattice whose basis has
    entries up to a span of 2 to 10^6, half of them in Hermite form; and
    points on one line of such a span, the second list on the same line or
    not.  Each case takes one of the five shears 0, -2, -1, 1, 2."""
    rng = random.Random(seed)

    def span():
        return int(10 ** rng.uniform(math.log10(2), 6))

    def vector(s):
        return (rng.randint(-s, s), rng.randint(-s, s))

    cases = []
    for i in range(count):
        kind, s = i % 3, span()
        if kind == 1 and rng.random() < 0.5:  # a basis in Hermite form
            w = rng.randint(1, s)
            basis = [(rng.randint(1, s), rng.randint(0, w - 1)), (0, w)]
        else:
            basis = [vector(s), vector(s)]
        lists = []
        for _ in range(2):
            p, size = vector(10**6), rng.randint(1, 6)
            if kind == 0:
                side = rng.randint(2, 8)
                offsets = {(rng.randint(0, side), rng.randint(0, side)) for _ in range(size)}
            elif kind == 1:
                offsets = {
                    tuple(c1 * u + c2 * v for u, v in zip(*basis))
                    for c1, c2 in ((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(size))
                }
            else:
                if rng.random() < 0.5:  # the second list on a line of its own
                    basis[0] = vector(s)
                offsets = {tuple(t * u for u in basis[0]) for t in rng.sample(range(6), min(size, 6))}
            lists.append(sorted(tuple(x + y for x, y in zip(p, o)) for o in offsets))
        cases.append((lists, rng.choice((0, -2, -1, 1, 2))))
    return cases


def lattice_coordinates_digest(cases):
    """sha256 of each case's (index, lists, bound), or its error message."""
    out = []
    for lists, shear in cases:
        try:
            index, es, bound = bkk._lattice_coordinates(lists, shear)
            out.append([index, [[list(e) for e in l] for l in es], bound])
        except ValueError as exc:
            out.append(str(exc))
    return hashlib.sha256(jsonio.dumps_canonical(out).encode()).hexdigest()


class TestCertificate:
    @pytest.mark.parametrize(
        "p1,p2,reason",
        [
            ({(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
             "eliminant vanishes identically"),
            ({(0, 0): -1, (0, 1): 1}, {(2, 0): 1, (1, 0): -2, (0, 1): 1}, "not squarefree mod p"),
            ({(1, 1): 1, (0, 1): -2, (0, 0): 1}, {(1, 1): 1, (0, 1): -2, (0, 0): 3},
             "shares a root with a leading coefficient"),
            ({(0, 1): 1, (1, 0): 1, (0, 0): -2}, {(0, 2): 1, (0, 1): 1, (1, 0): 3, (0, 0): -6},
             "shares a root with p1(x, 0)"),
        ],
        ids=["common-factor", "tangency", "leading", "axis"],
    )
    def test_failed_check_is_named(self, p1, p2, reason):
        with pytest.raises(bkk.DegenerateSystemError, match=re.escape(reason)):
            bkk.count_solutions_2d(L(2, p1), L(2, p2))

    def test_coefficient_vanishing_mod_the_prime_is_degenerate(self):
        p = L(1, {(0,): 1, (1,): bkk.PRIME})
        with pytest.raises(bkk.DegenerateSystemError, match="degree drops mod p"):
            bkk.count_roots_1d(p)

    def test_lattice_index_matches_smith_normal_form(self):
        rng = random.Random(8)
        for _ in range(40):
            a = S(2, {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))})
            b = S(2, {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))})
            index, _, _ = bkk._lattice_coordinates([a.sorted_points(), b.sorted_points()], 0)
            expected = sympy_lattice_index([set(a.points), set(b.points)])
            assert index == (1 if expected == math.inf else expected)

    def test_lattice_coordinates_are_unchanged(self):
        # sha256 of 2,000 seeded cases under the two-variable Euclid basis
        # that `semigroup.hermite_basis` replaced
        digest = lattice_coordinates_digest(seeded_lattice_cases(32, 2000))
        assert digest == "8b2684eaeb8bf27e5fc7e2a4f331d19cd2642a4a5043633d5759b2fe302f2517"

    @pytest.mark.parametrize(
        "supports,first",
        [
            ([S(1, [(0,), (1,), (2,)])], [L(1, {(0,): 1, (1,): -2, (2,): 1})]),
            ([SIMPLEX, SIMPLEX], [L(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
                                  L(2, {(0, 0): 1, (1, 0): 2, (0, 1): 2})]),
        ],
        ids=["double-root", "no-roots"],
    )
    def test_thrown_away_trial_reports_its_reason(self, monkeypatch, supports, first):
        real = bkk.random_generic_system
        calls = []

        def first_degenerate(sup, seed):
            calls.append(seed)
            return first if len(calls) == 1 else real(sup, seed)

        monkeypatch.setattr(bkk, "random_generic_system", first_degenerate)
        report = bkk.verify_bkk(supports, trials=3, seed=0)
        reason = "not squarefree mod p" if len(supports) == 1 else "fewer roots than predicted"
        assert report.agreed and report.degenerate_trials == 1
        assert report.diagnostics["degenerate_reasons"] == {reason: 1}
        assert len(report.trials) == 3 and len(calls) == 7


class TestOracle:
    """Differential test against the independent sympy count of tests/oracles.py."""

    def _corpus(self):
        rng = random.Random(61)
        pairs = [
            [S(2, {(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(rng.randint(3, 7))})
             for _ in range(2)]
            for _ in range(12)
        ]
        return pairs + [
            [S(2, [(2, 5), (4, 5), (7, 3)]), S(2, [(0, 5), (1, 5), (2, 1), (6, 5)])],  # index 2
            [S(2, [(0, 0), (2, 0), (0, 2)])] * 2,  # index 4
            [S(2, [(0, 0), (3, 0)]), S(2, [(0, 0), (1, 0), (0, 1), (2, 3)])],  # flat
            [S(2, [(0, 0), (2, 0)]), S(2, [(0, 0), (0, 3)])],  # flat and vertical
            [S(2, [(0, 0), (7, 0), (0, 7), (7, 7)]), S(2, [(0, 0), (7, 1), (1, 7), (6, 6)])],
        ]

    def test_random_and_structured_pairs(self):
        seen = set()
        for t, pair in enumerate(self._corpus()):
            system = bkk.random_generic_system(pair, 50 + t)
            count = bkk.count_solutions_2d(*system)
            assert count == sympy_torus_root_count([p.terms for p in system])
            assert count == bkk.bkk_number(pair)
            # a retry's shear (or, past the budget, none) certifies the same count
            assert bkk.count_solutions_2d(*system, shear=bkk.SHEARS[t % 4]) == count
            seen.add(count)
        assert max(seen) >= 90

    def test_one_variable_rational(self):
        p = L(1, {(-2,): F(1, 3), (0,): F(-1, 2), (3,): F(3, 4)})
        assert bkk.count_roots_1d(p) == sympy_torus_root_count([p.terms]) == 5
        double = L(1, {(0,): F(1, 9), (1,): F(-2, 3), (2,): 1})  # (x - 1/3)^2
        assert sympy_torus_root_count([double.terms]) == 1
        with pytest.raises(bkk.DegenerateSystemError, match="not squarefree mod p"):
            bkk.count_roots_1d(double)
