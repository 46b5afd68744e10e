import hashlib
import math
import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okounkov_lab import _hull
from okounkov_lab import algebra as alg
from okounkov_lab import bkk
from okounkov_lab import geometry as g
from okounkov_lab import jsonio
from okounkov_lab import semigroup as sg

from oracles import (
    brute_sumset,
    check_superadditive,
    combination,
    is_level_dict,
    laurent_to_json,
    newton_body,
    power,
    subspace_to_json,
    subspaces_equal,
    sympy_power_leads,
    valuation_image,
)

L = alg.laurent
ONE2 = L(2, {(0, 0): 1})
X = L(2, {(1, 0): 1})
Y = L(2, {(0, 1): 1})
XPY = L(2, {(1, 0): 1, (0, 1): 1})


def parse(dim, *polys):
    """The subspace that ``jsonio`` reads from the wire form of ``polys``."""
    return jsonio.subspace_from_json(
        {"dim": dim, "basis": [laurent_to_json(f) for f in polys]}
    )


def random_poly(rng, dim=2, terms=3, span=2):
    d = {}
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in range(dim))
        d[e] = rng.randint(-4, 4)
    d[tuple(rng.randint(-span, span) for _ in range(dim))] = rng.randint(1, 4)
    return L(dim, d)


class TestPolynomials:
    def test_zero_is_distinct(self):
        z = L(2, {})
        assert z.is_zero
        with pytest.raises(ValueError):
            alg.valuation(z)

    def test_arithmetic(self):
        assert dict((XPY * XPY).terms).get((1, 1), 0) == 2

    def test_no_zero_coefficients_stored(self):
        f = L(2, {(0, 0): F(1, 2), (1, 0): 0})
        assert len(f.terms) == 1

    @pytest.mark.parametrize(
        "terms,message",
        [((((0, 0), F(0)),), "zero coefficients must not be stored"),
         ((((0,), F(1)),), "exponent dimension mismatch")],
        ids=["zero-coefficient", "short-exponent"],
    )
    def test_constructor_rejects(self, terms, message):
        with pytest.raises(ValueError, match=message):
            alg.LaurentPolynomial(2, terms)

    def test_every_built_polynomial_holds_int_coefficients(self):
        rng = random.Random(27)
        half = L(2, {(0, 0): F(1, 2), (1, 0): F(-2, 3)})
        read = parse(2, half, L(2, {(0, 1): F(5, 4), (1, 1): 1}))
        other = alg.span(2, [half, L(2, {(2, 0): F(3, 7)}), random_poly(rng)])
        supports = [g.support_set(2, [(0, 0), (1, 0), (0, 1)]), g.support_set(2, [(0, 0), (1, 1)])]
        built = [half, half * half, *read.basis, *other.basis,
                 *alg.product(read, other).basis, *bkk.random_generic_system(supports, 3)]
        assert all(type(c) is int for f in built for _, c in f.terms)


class TestMonomialOrder:
    def test_lex_examples(self):
        f = L(2, {(0, 0): 3, (1, 0): 1})
        assert alg.valuation(f) == (0, 0)
        f2 = L(2, {(1, -1): 1, (2, 0): 1})
        assert alg.valuation(f2) == (1, -1)

    def test_grlex_orders_by_weight_first(self):
        o = alg.MonomialOrder((1, 3))
        f = L(2, {(2, 0): 1, (0, 1): 1})
        assert alg.valuation(f, o) == (2, 0)  # weight 2 beats weight 3

    def test_grlex_requires_grading(self):
        for grading in [(), (0, 1), (2, -1)]:
            with pytest.raises(ValueError, match="graded lex needs a positive integer grading"):
                alg.MonomialOrder(grading)

    @given(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=80, deadline=None)
    def test_additivity(self, a, b, c):
        for order in (alg.LEX, alg.MonomialOrder((2, 1))):
            if order.key(a) < order.key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert order.key(ac) < order.key(bc)


class TestValuationAxioms:
    def test_multiplicative_on_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(500):
            a, b = random_poly(rng), random_poly(rng)
            va, vb = alg.valuation(a), alg.valuation(b)
            assert alg.valuation(a * b) == tuple(x + y for x, y in zip(va, vb))

    def test_scalar_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_poly(rng)
            assert alg.valuation(combination(2, (3, f))) == alg.valuation(f)

    def test_ultrametric_sum(self):
        rng = random.Random(4)
        for _ in range(200):
            a, b = random_poly(rng), random_poly(rng)
            s = combination(2, (1, a), (1, b))
            if s.is_zero:
                continue
            low = min(alg.valuation(a), alg.valuation(b))
            assert alg.valuation(s) >= low

    def test_equal_values_admit_cancellation(self):
        rng = random.Random(5)
        found = 0
        for _ in range(400):
            a, b = random_poly(rng), random_poly(rng)
            va, vb = alg.valuation(a), alg.valuation(b)
            if va != vb:
                continue
            found += 1
            lam = F(dict(b.terms)[vb], dict(a.terms)[va])
            c = combination(2, (1, b), (-lam, a))
            if not c.is_zero:
                assert alg.valuation(c) > va
        assert found > 10


class TestSubspaces:
    def test_monomial_examples(self):
        A = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        assert alg.monomial_subspace(A).dim == 3
        A1 = g.support_set(1, [(0,), (2,)])
        assert alg.monomial_subspace(A1).dim == 2

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="basis polynomials are linearly dependent"):
            parse(2, X, Y, XPY)

    @pytest.mark.parametrize(
        "build,message",
        [(lambda: parse(2, X, L(3, {(0, 0, 1): 1})), "basis dimension mismatch"),
         (lambda: alg.span(2, [L(2, {}), L(2, {})]), "the zero subspace is not representable"),
         (lambda: alg.monomial_subspace(g.support_set(2, [])),
          "monomial subspace needs a nonempty support"),
         (lambda: alg.product(alg.span(2, [X]), alg.span(1, [L(1, {(1,): 1})])),
          "dimension mismatch"),
         (lambda: alg.superadditivity_check(alg.span(2, [X]), alg.span(1, [L(1, {(1,): 1})])),
          "dimension mismatch")],
        ids=["basis-dimension", "zero-span", "empty-support", "product-dimensions",
             "superadditivity-dimensions"],
    )
    def test_rejects(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_span_skips_zero_polynomials(self):
        assert alg.span(2, [X, L(2, {}), Y]).basis == alg.span(2, [X, Y]).basis

    def test_product_examples(self):
        l1 = alg.span(2, [ONE2, X])
        l2 = alg.span(2, [ONE2, Y])
        assert alg.product(l1, l2).dim == 4
        lxy = alg.span(2, [ONE2, XPY])
        assert alg.product(lxy, lxy).dim == 3

    def test_product_is_monomial_sumset(self):
        rng = random.Random(6)
        for _ in range(20):
            A = g.support_set(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)})
            B = g.support_set(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)})
            got = alg.product(alg.monomial_subspace(A), alg.monomial_subspace(B))
            assert subspaces_equal(got, alg.monomial_subspace(g.support_set(2, brute_sumset(A.points, B.points))))

    def test_shift_by_monomial_preserves_dim(self):
        lxy = alg.span(2, [ONE2, XPY, X * Y])
        shift = alg.span(2, [L(2, {(2, -1): F(3, 7)})])
        assert alg.product(lxy, shift).dim == lxy.dim

    def test_power_examples(self):
        px = alg.span(1, [L(1, {(0,): 1}), L(1, {(1,): 1})])
        p3 = power(px, 3)
        assert p3.dim == 4
        A = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        LA = alg.monomial_subspace(A)
        assert subspaces_equal(
            power(LA, 3), alg.monomial_subspace(sg.sumset_power(A, 3))
        )

    def test_power_rank_against_brute_product(self):
        lq = alg.span(2, [ONE2, XPY, X * Y])
        direct = alg.product(lq, lq)
        assert power(lq, 2).dim == direct.dim
        brute = alg.span(2, [f * h for f in lq.basis for h in lq.basis])
        assert brute.dim == direct.dim

    def test_power_rejects_zero(self):
        with pytest.raises(ValueError):
            power(alg.span(2, [ONE2]), 0)


class TestValuationImage:
    def test_already_triangular(self):
        l = alg.span(2, [ONE2, X, Y])
        assert set(valuation_image(l).points) == {(0, 0), (1, 0), (0, 1)}

    def test_reduction_finds_hidden_pivots(self):
        l = alg.span(1, [L(1, {(0,): 1, (1,): 1}), L(1, {(0,): 1, (1,): -1})])
        assert set(valuation_image(l).points) == {(0,), (1,)}

    def test_three_dims_three_exponents(self):
        l = alg.span(2, [XPY, L(2, {(1, 0): 1, (0, 1): -1}), ONE2])
        assert len(valuation_image(l)) == 3

    def test_cardinality_matches_dimension(self):
        rng = random.Random(7)
        for _ in range(40):
            polys = [random_poly(rng, terms=2, span=1) for _ in range(3)]
            try:
                l = alg.span(2, polys)
            except ValueError:
                continue
            assert len(valuation_image(l)) == l.dim

    def test_pivot_sets_of_coordinate_subspaces(self):
        # valuation image of a k-dim subspace of span{z^e1..z^em} is a
        # k-element index set, the combinatorial shadow of a pivot cell
        rng = random.Random(8)
        m = 4
        coords = [alg.monomial(m, tuple(int(i == j) for j in range(m))) for i in range(m)]
        for _ in range(30):
            k = rng.randint(1, m)
            vecs = []
            for _ in range(k):
                vecs.append(combination(m, *((rng.randint(-3, 3), c) for c in coords)))
            try:
                sub = alg.span(m, vecs)
            except ValueError:
                continue
            img = valuation_image(sub)
            assert len(img) == sub.dim
            units = {tuple(int(i == j) for j in range(m)) for i in range(m)}
            assert set(img.points) <= units


class TestSemigroupOfSubspace:
    def test_monomial_levels_are_sumsets(self):
        A = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        sl = alg.semigroup_of_subspace(alg.monomial_subspace(A), k_max=4)
        for k in range(1, 5):
            assert sl[k].points == sg.sumset_power(A, k).points

    def test_segment_subspace_levels(self):
        l = alg.span(2, [ONE2, XPY])
        sl = alg.semigroup_of_subspace(l, k_max=6)
        for k in range(1, 7):
            assert len(sl[k]) == k + 1
        assert check_superadditive(sl)

    def test_superadditive_on_random_subspaces(self):
        rng = random.Random(9)
        done = 0
        while done < 10:
            polys = [random_poly(rng, terms=2, span=1) for _ in range(2)]
            try:
                l = alg.span(2, polys)
            except ValueError:
                continue
            sl = alg.semigroup_of_subspace(l, k_max=4)
            assert check_superadditive(sl)
            done += 1


class TestHilbert:
    def test_simplex_dimension_formula(self):
        A = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        hs = alg.hilbert_function(alg.monomial_subspace(A), 6)
        assert all(d == (k + 1) * (k + 2) // 2 for k, d in hs)

    def test_square_dimension_formula(self):
        A = g.support_set(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        hs = alg.hilbert_function(alg.monomial_subspace(A), 5)
        assert all(d == (k + 1) ** 2 for k, d in hs)

    def test_segment_subspace_linear_growth(self):
        hs = alg.hilbert_function(alg.span(2, [ONE2, XPY]), 6)
        assert all(d == k + 1 for k, d in hs)


class TestOkounkovBody:
    def test_simplex_subspace(self):
        A = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        nb = alg.newton_okounkov_body(alg.monomial_subspace(A), k_max=3)
        assert nb == g.polytope_of_support(A)

    def test_monomial_bodies_exact_at_every_level(self):
        A = g.support_set(2, [(0, 0), (2, 0), (0, 3)])
        for k in (1, 2, 4):
            nb = alg.newton_okounkov_body(alg.monomial_subspace(A), k_max=k)
            assert nb == g.polytope_of_support(A)

    def test_segment_body_is_one_dimensional(self):
        nb = alg.newton_okounkov_body(alg.span(2, [ONE2, XPY]), k_max=6)
        assert nb.affine_dim == 1
        hs = alg.hilbert_function(alg.span(2, [ONE2, XPY]), 6)
        # tail degree of the Hilbert data matches the body dimension
        diffs = [b - a for (_, a), (_, b) in zip(hs, hs[1:])]
        assert all(d == diffs[0] for d in diffs)


class TestSuperadditivity:
    def test_monomial_equality(self):
        A = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        B = g.support_set(2, [(0, 0), (1, 1)])
        r = alg.superadditivity_check(
            alg.monomial_subspace(A), alg.monomial_subspace(B), k_max=4
        )
        assert r.holds

    def test_mixed_example(self):
        r = alg.superadditivity_check(
            alg.span(2, [ONE2, XPY]), alg.span(2, [ONE2, X]), k_max=5
        )
        assert r.holds

    def test_random_small_pairs(self):
        rng = random.Random(10)
        done = 0
        while done < 15:
            try:
                l1 = alg.span(2, [random_poly(rng, terms=2, span=1) for _ in range(2)])
                l2 = alg.span(2, [random_poly(rng, terms=2, span=1)])
            except ValueError:
                continue
            assert alg.superadditivity_check(l1, l2, k_max=4).holds
            done += 1


def _rational_subspace(rng, dim, size):
    """Subspace drawn with only non-integer rational coefficients, and the
    drawn mappings: an independent basis held as ``laurent`` scales it, not
    as the primitive rows of ``span``."""
    while True:
        drawn, polys = [], []
        for _ in range(size):
            terms = {
                tuple(rng.randint(-1, 1) for _ in range(dim)): F(
                    rng.choice((-7, -5, -1, 1, 5, 7)), rng.choice((2, 3, 6))
                )
                for _ in range(rng.randint(1, 3))
            }
            drawn.append(terms)
            polys.append(L(dim, terms))
        if alg.span(dim, polys).dim == size:
            return alg.LaurentSubspace(dim, tuple(polys)), drawn


class TestPowerLevelsAgainstProduct:
    """Integer power rows against valuation images of the reference Fraction power."""

    @pytest.mark.parametrize(
        "dim,order",
        [
            (2, alg.LEX),
            (2, alg.MonomialOrder((1, 2))),
            (3, alg.LEX),
            (3, alg.MonomialOrder((2, 1, 1))),
        ],
    )
    def test_levels_and_hilbert_match_powers(self, dim, order):
        rng = random.Random(60 + dim)
        for _ in range(6):
            l, drawn = _rational_subspace(rng, dim, rng.randint(2, 3))
            assert all(c.denominator > 1 for terms in drawn for c in terms.values())
            levels = alg.semigroup_of_subspace(l, order, 4)
            assert is_level_dict(levels, 4, dim)
            dims = dict(alg.hilbert_function(l, 4))
            for k in range(1, 5):
                lk = power(l, k)
                assert levels[k] == valuation_image(lk, order)
                assert dims[k] == lk.dim


def _terms(l):
    return [[(e, c) for e, c in f.terms] for f in l.basis]


def _echelon(l, slot, k_max):
    """The lead slots of levels 1..k_max from the echelon kernel alone,
    whichever route ``_power_levels`` takes."""
    levels = islice(alg._echelon_levels(l.basis, slot), k_max)
    return {k: list(pivots) for k, (pivots, _) in enumerate(levels, 1)}


def _width_spy(monkeypatch):
    """Record the slot width of every power-level pass.

    A span is level 1 of the same loop; the passes that echelonize one
    (``product`` inside ``superadditivity_check``, say) are not recorded.
    """
    widths, powers = [], []
    level, power_levels = alg._power_level, alg._power_levels

    def spy(parents, basis, width, pivots):
        if powers:
            widths.append(width)
        return level(parents, basis, width, pivots)

    def within(*args):
        powers.append(True)
        try:
            return power_levels(*args)
        finally:
            powers.pop()

    monkeypatch.setattr(alg, "_power_level", spy)
    monkeypatch.setattr(alg, "_power_levels", within)
    return widths


GRLEX12 = alg.MonomialOrder((1, 2))
GRLEX31 = alg.MonomialOrder((3, 1))
GRLEX211 = alg.MonomialOrder((2, 1, 1))
GRLEX1213 = alg.MonomialOrder((1, 2, 1, 3))

# (id, ambient dim, basis as {exponent: coefficient}, order, deepest level)
ORACLE_CORPUS = [
    ("2d-lex-laurent", 2, [{(-1, 0): 2, (0, 1): F(-1, 3)}, {(0, -1): 1, (1, 1): 3},
                           {(-1, -1): F(5, 2), (1, 0): -1}], alg.LEX, 6),
    ("2d-grlex12", 2, [{(0, 0): 1, (1, -1): 2}, {(-1, 1): 3, (1, 0): -1}, {(0, 1): F(1, 2)}],
     GRLEX12, 6),
    ("2d-grlex31", 2, [{(1, 0): 1, (0, 2): -2, (-1, 1): 1}, {(0, 0): 4, (1, 1): 1}], GRLEX31, 6),
    # 1, x + y and (x + y)^2 span powers of dimension 2k + 1, below the
    # C(k + 2, 2) products at every level past the first
    ("2d-rank-deficient", 2, [{(0, 0): 1}, {(1, 0): 1, (0, 1): 1},
                              {(2, 0): 1, (1, 1): 2, (0, 2): 1}], alg.LEX, 6),
    ("2d-rank-deficient-grlex", 2, [{(0, 0): 1, (1, 0): 1}, {(1, 0): 1, (2, 0): 1},
                                    {(0, 0): 1, (2, 0): -1}], GRLEX31, 6),
    ("3d-lex", 3, [{(0, 0, 0): 1, (1, -1, 0): -2}, {(0, 1, 1): 3, (-1, 0, 0): 1},
                   {(0, 0, -1): F(2, 3), (1, 1, 0): 1}], alg.LEX, 6),
    ("3d-grlex211", 3, [{(1, 0, 0): 1, (0, 1, -1): -1}, {(0, 0, 1): 2, (-1, 1, 0): 1},
                        {(0, 0, 0): 1, (1, 1, 1): -4}], GRLEX211, 6),
    # exponents on the lattices 2Z x 3Z and 3Z x 4Z x 2Z: the box strides
    ("2d-grlex12-stride", 2, [{(-2, 3): 1, (0, 0): 2}, {(2, 3): -1, (-2, 6): 1},
                              {(0, 6): 3}], GRLEX12, 6),
    ("3d-lex-stride", 3, [{(0, 0, 0): 1, (3, 0, 2): -1}, {(0, 4, 2): 2},
                          {(3, 4, 0): 1, (6, 0, 0): 1}], alg.LEX, 6),
    # coefficients near 2^70 start the rows past 64 bits and widen them
    ("2d-near-2^70", 2, [{(0, 0): 2**70 + 3, (1, 0): -(2**70) + 1, (0, 1): 5},
                         {(1, 1): 2**69 - 7, (0, 1): 2**70 - 11},
                         {(1, 0): 1, (0, 0): -(2**70) - 17}], alg.LEX, 5),
    # the same size of coefficient, with the collinear lex leads 1, y, y^2
    ("2d-near-2^70-dependent", 2, [{(0, 0): 2**70 + 3, (1, 0): -(2**70) + 1, (0, 1): 5},
                                   {(1, 1): 2**69 - 7, (0, 1): 2**70 - 11},
                                   {(0, 2): 2**70 + 5, (1, 0): -3}], alg.LEX, 5),
]


def _corpus_case(name):
    return next(case[1:] for case in ORACLE_CORPUS if case[0] == name)


class TestPowerLevelsAgainstSympy:
    """Levels and Hilbert dimensions against sympy's rref of all products."""

    @pytest.mark.parametrize(
        "dim,basis,order,k_max",
        [case[1:] for case in ORACLE_CORPUS],
        ids=[case[0] for case in ORACLE_CORPUS],
    )
    def test_levels_and_hilbert_match_oracle(self, dim, basis, order, k_max):
        l = alg.span(dim, [L(dim, terms) for terms in basis])
        levels = alg.semigroup_of_subspace(l, order, k_max)
        dims = dict(alg.hilbert_function(l, k_max))
        for k in range(1, k_max + 1):
            expected = sympy_power_leads(_terms(l), order.grading, k)
            assert set(levels[k].points) == expected, k
            assert dims[k] == len(expected), k

    def test_rank_deficient_case_has_fewer_leads_than_products(self):
        _, dim, basis, order, _ = ORACLE_CORPUS[3]
        l = alg.span(dim, [L(dim, terms) for terms in basis])
        dims = dict(alg.hilbert_function(l, 6))
        assert dims == {k: 2 * k + 1 for k in range(1, 7)}

    def test_near_2_70_case_widens_the_slots(self):
        # its lex leads are affinely independent, so _power_levels takes the
        # sumsets; the kernel is called directly
        dim, basis, order, k_max = _corpus_case("2d-near-2^70")
        l = alg.span(dim, [L(dim, terms) for terms in basis])
        slot = alg._level_box(l, order, k_max).slot
        widths = [width for _, width in islice(alg._echelon_levels(l.basis, slot), k_max)]
        assert widths[0] > alg._WIDTH and max(widths) > widths[0]

    def test_dependent_near_2_70_case_widens_through_the_power_levels(self, monkeypatch):
        widths = _width_spy(monkeypatch)
        dim, basis, order, k_max = _corpus_case("2d-near-2^70-dependent")
        l = alg.span(dim, [L(dim, terms) for terms in basis])
        alg.hilbert_function(l, k_max)
        assert widths[0] > alg._WIDTH and max(widths) > widths[0]
        # its leads' relation (1, -2, 1) lifts to a new lead at level 2
        assert alg._power_levels(l, order, k_max)[1] is None


def _seeded_span_cases():
    rng = random.Random(20240807)
    orders = {
        1: [alg.LEX, alg.MonomialOrder((2,))],
        2: [alg.LEX, GRLEX12, GRLEX31],
        3: [alg.LEX, GRLEX211],
    }
    cases = []
    while len(cases) < 20:
        dim = 1 + len(cases) % 3
        order = orders[dim][len(cases) % len(orders[dim])]
        polys = []
        for _ in range(rng.randint(2, 5)):
            terms = {
                tuple(rng.randint(-2, 2) for _ in range(dim)):
                    F(rng.randint(-40, 40), rng.choice((1, 2, 3, 7)))
                for _ in range(rng.randint(1, 4))
            }
            polys.append(L(dim, terms))
        a, b = rng.randint(-5, 5), F(rng.randint(1, 9), rng.randint(1, 4))
        polys.append(combination(dim, (a, polys[0]), (b, polys[-1])))
        if all(f.is_zero for f in polys):
            continue
        cases.append((dim, order, polys))
    return cases


def _ordered_span(dim, polys, order):
    """The echelon basis of the span of ``polys`` whose leads are minimal in
    ``order``: level 1 of the kernel, slotted by the exponents' ranks in that
    order.  ``alg.span`` is the lex case."""
    columns = sorted({e for f in polys for e, _ in f.terms}, key=order.key)
    rank = {e: s for s, e in enumerate(columns)}
    pivots, width = next(alg._echelon_levels(polys, rank.__getitem__))
    return alg.LaurentSubspace(dim, tuple(
        L(dim, dict(zip(columns[lead:], alg._unpack(pivots[lead][0], width))))
        for lead in sorted(pivots)
    ))


class TestKernelEdgeCases:
    def test_span_bases_and_images_are_unchanged(self):
        # sha256 of the same 20 spans and valuation images under the dict
        # echelon that the packed kernel replaced
        out = []
        for dim, order, polys in _seeded_span_cases():
            l = _ordered_span(dim, polys, order)
            if order == alg.LEX:
                assert l == alg.span(dim, polys)
            img = valuation_image(l, order)
            out.append({
                "span": subspace_to_json(l),
                "image": [list(e) for e in img.sorted_points()],
            })
        digest = hashlib.sha256(jsonio.dumps_canonical(out).encode()).hexdigest()
        assert digest == "e8d8f9deb8013fb189786d39d50fa4f8a91d930af648e128a638037642ba612b"

    @pytest.mark.parametrize("order", [alg.LEX, GRLEX31], ids=["lex", "grlex31"])
    @pytest.mark.parametrize("bits,start", [(30, 32), (62, 64)])
    def test_span_steps_outgrow_the_array_widths(self, monkeypatch, bits, start, order):
        # dense rows whose six |coefficients| sum below 2^(start - 1): the
        # echelon starts at that width, and its minors outgrow it twice
        rng = random.Random(bits)
        exponents = [(i, j) for i in range(3) for j in range(2)]
        polys = [
            L(2, {e: rng.choice((-1, 1)) * rng.randint(2**(bits - 3), 2**(bits - 2))
                  for e in exponents})
            for _ in range(5)
        ]
        widths = []
        level = alg._power_level

        def spy(parents, basis, width, pivots):
            widths.append(width)
            return level(parents, basis, width, pivots)

        monkeypatch.setattr(alg, "_power_level", spy)
        l = _ordered_span(2, polys, order)
        assert widths[:3] == [start, 2 * start, 4 * start]
        expected = sympy_power_leads([list(f.terms) for f in polys], order.grading, 1)
        assert {alg.valuation(f, order) for f in l.basis} == expected
        assert set(valuation_image(l, order).points) == expected
        assert subspaces_equal(l, alg.LaurentSubspace(2, tuple(polys)))

    @pytest.mark.parametrize("order", [alg.LEX, alg.MonomialOrder((3,))],
                             ids=["lex", "grlex"])
    def test_one_variable_subspace(self, order):
        t = lambda *pairs: L(1, dict(((e,), c) for e, c in pairs))  # noqa: E731
        l = alg.span(1, [t((0, 1), (1, 1)), t((1, 1), (3, -2)), t((-1, F(1, 2)), (2, 1))])
        levels = alg.semigroup_of_subspace(l, order, 6)
        dims = dict(alg.hilbert_function(l, 6))
        for k in range(1, 7):
            expected = sympy_power_leads(_terms(l), order.grading, k)
            assert set(levels[k].points) == expected
            assert dims[k] == len(expected)

    def test_one_dimensional_subspace_stays_one_dimensional(self):
        l = alg.span(2, [L(2, {(0, 0): 1, (1, 0): 1})])
        k_max = alg.MAX_KMAX
        levels = alg.semigroup_of_subspace(l, alg.LEX, k_max)
        assert all(set(levels[k].points) == {(0, 0)} for k in range(1, k_max + 1))
        assert alg.hilbert_function(l, k_max) == [(k, 1) for k in range(1, k_max + 1)]
        assert alg.hilbert_function(alg.span(2, [ONE2, XPY, XPY * XPY]), 6) == [
            (k, 2 * k + 1) for k in range(1, 7)
        ]


class TestLevelBudgets:
    def test_kmax_bound_is_admitted_and_bound_plus_one_rejected(self, monkeypatch):
        l = alg.span(2, [L(2, {(0, 0): 1, (1, 0): 1})])
        m = alg.MAX_KMAX
        assert len(alg.hilbert_function(l, m)) == m
        assert max(alg.semigroup_of_subspace(l, alg.LEX, m)) == m
        assert alg.superadditivity_check(l, l, k_max=m).holds
        widths = _width_spy(monkeypatch)
        for call in (
            lambda: alg.hilbert_function(l, m + 1),
            lambda: alg.semigroup_of_subspace(l, alg.LEX, m + 1),
            lambda: alg.superadditivity_check(l, l, k_max=m + 1),
            lambda: alg.hilbert_function(l, 0),
        ):
            with pytest.raises(ValueError, match=f"k_max must be in 1..{m}"):
                call()
        assert widths == []  # rejected before any level is built

    def test_cell_bound_is_admitted_and_bound_plus_one_rejected(self, monkeypatch):
        def line(*xs):
            return alg.monomial_subspace(g.support_set(1, [(x,) for x in xs]))

        assert alg.MAX_LEVEL_CELLS == 65536 * 256 == 65281 * 257 - 1
        at = line(*range(255), 65535)  # 65536 slots x 256 rows
        assert alg.hilbert_function(at, 1) == [(1, 256)]
        over = line(*range(256), 65280)  # 65281 slots x 257 rows
        widths = _width_spy(monkeypatch)
        # monomial subspaces take their levels from the sumset kernel
        sumsets, levels = [], sg._levels
        monkeypatch.setattr(sg, "_levels", lambda *args: sumsets.append(1) or levels(*args))
        message = (f"power levels would need 65281 slots x 257 rows = "
                   f"{alg.MAX_LEVEL_CELLS + 1} cells; the limit is {alg.MAX_LEVEL_CELLS}")
        with pytest.raises(ValueError, match=message):
            alg.hilbert_function(over, 1)
        with pytest.raises(ValueError, match=message):
            alg.semigroup_of_subspace(over, alg.LEX, 1)
        # the product's box (2^19 + 1 slots x 48 rows) is checked before the
        # factors' levels (2^18 + 1 slots x 17 rows each) are built
        half = line(*range(16), 2**18)
        with pytest.raises(ValueError, match="= 25165872 cells; the limit is"):
            alg.superadditivity_check(half, half, k_max=1)
        assert widths == [] and sumsets == []

    def test_small_sparse_supports_are_admitted_at_the_default_kmax(self):
        # each shifted coordinate is divided by its gcd before the box is sized
        tri = alg.monomial_subspace(g.support_set(2, [(0, 0), (6, 0), (0, 6)]))
        assert alg._level_box(tri, alg.LEX, 12).slots == 13 * 13
        assert alg.hilbert_function(tri, 12)[-1] == (12, 91)
        wide = alg.monomial_subspace(g.support_set(2, [(0, 0), (1000, 0), (0, 1000)]))
        assert alg.semigroup_of_subspace(wide, alg.LEX, 8)[8].points == {
            (1000 * i, 1000 * j) for i in range(9) for j in range(9 - i)
        }
        gap = alg.span(1, [L(1, {(0,): 1}), L(1, {(342,): 1})])
        assert alg.hilbert_function(gap, 12)[-1] == (12, 13)
        # few generators in a wide box: 15625 slots, at most C(15, 12) = 455 rows
        sparse = alg.monomial_subspace(
            g.support_set(3, [(0, 0, 0), (2, 0, 1), (0, 2, 2), (1, 1, 0)])
        )
        assert alg._level_box(sparse, alg.LEX, 12).slots == 25**3
        assert alg.hilbert_function(sparse, 12)[-1] == (12, 455)

    def test_grlex_box_counts_the_grade(self):
        # grade of (1, 1) under (3, 1) is 4: slots (4 k + 1) * (k + 1)
        l = alg.monomial_subspace(g.support_set(2, [(0, 0), (1, 1)]))
        assert alg._level_box(l, GRLEX31, 5).slots == 21 * 6

    def test_grlex_box_divides_the_grade_by_its_gcd(self):
        # stride 1000 scales the grading (1, 2) to (1000, 2000); over their gcd
        # the grades are 0..24 again, above 13 slots of x: 325, not 312013
        points = [(0, 0), (1000, 0), (0, 1000)]
        wide = alg.monomial_subspace(g.support_set(2, points))
        box = alg._level_box(wide, GRLEX12, 12)
        assert (box.slots, box.grading) == (25 * 13, (1, 2))
        # a positive rescaling of the grading leaves the box as it is
        assert sg.level_box(points, 12, (3, 6)) == sg.level_box(points, 12, (1, 2))

    def test_newton_body_checks_the_dimension_before_any_level(self, monkeypatch):
        # the body is hulled, so 1..4 variables; hilbert counts 0 variables too
        point = alg.LaurentSubspace(0, (L(0, {(): 1}),))
        five = alg.span(5, [L(5, {(0,) * 5: 1}), L(5, {(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 2})])
        assert alg.hilbert_function(point, 3) == [(1, 1), (2, 1), (3, 1)]
        widths = _width_spy(monkeypatch)
        for l in (point, five):
            for call in (
                lambda: alg.newton_okounkov_body(l, alg.LEX, 3),
                lambda: alg.superadditivity_check(l, l, k_max=3),
                # the dimension is named before the k_max budget
                lambda: alg.newton_okounkov_body(l, alg.LEX, alg.MAX_KMAX + 1),
                lambda: alg.superadditivity_check(l, l, k_max=alg.MAX_KMAX + 1),
            ):
                with pytest.raises(ValueError, match=r"ambient dimension must be in 1\.\.4"):
                    call()
        assert widths == []


def _plain_pack(values, width):
    return sum(v << (width * s) for s, v in enumerate(values))


def _packing_rows(width, rng):
    top = (1 << (width - 1)) - 1
    rows = [
        [0], [1], [-1], [top], [-top],  # single slots, the zero row first
        [0, 0, 0, 7], [0, 0, -top], [0, top, 0, -top],  # zero slots below the lead
        [top, -top, -1, 1, 0, top], [-top] * 9, [top] * 9,
    ]
    rows += [[rng.randint(-top, top) for _ in range(rng.randint(1, 12))] for _ in range(40)]
    return rows


def _trimmed(values):
    """The slots that unpacking returns: trailing zeros dropped, at least one."""
    n = len(values)
    while n > 1 and values[n - 1] == 0:
        n -= 1
    return values[:n]


class TestPacking:
    """Balanced-digit packing against the plain sum of shifted slots."""

    @pytest.mark.parametrize("path", ["array", "bytes"])
    @pytest.mark.parametrize("width", [32, 64, 128, 256])
    def test_round_trip_matches_the_plain_sum(self, monkeypatch, width, path):
        if path == "bytes":
            monkeypatch.setattr(alg, "_ARRAY_CODES", {})
        else:
            assert (width in alg._ARRAY_CODES) == (width <= 64)
        for values in _packing_rows(width, random.Random(width)):
            packed = alg._pack(values, width)
            assert packed == _plain_pack(values, width), values
            assert alg._unpack(packed, width) == _trimmed(values), values
        assert alg._unpack(0, width) == [0]


# the okounkov corpus's dim-5 product: L1 L2 for a simplex pair of criterion 8
DIM5_FACTORS = (
    [{(-3, 1): F(-4, 3), (-2, 1): F(-2, 3)}, {(-3, 2): 3, (-2, 1): -1}, {(-2, 1): 2}],
    [{(0, 0): -1, (0, 1): -1}, {(0, 1): F(3, 2)}],
)
# a square pair of criterion 8's pair stream, whose product has dimension 4
CRITERION8_FACTORS = (
    [{(0, 0): -1, (0, 1): 1}, {(1, 0): 1}],
    [{(0, 0): 1, (1, 0): 1}, {(0, 1): 3, (1, 0): 1}],
)
MONOMIAL4 = [(3, 1), (3, 3), (4, 1), (4, 2)]


def _product_of(factors):
    l1, l2 = (alg.span(2, [L(2, terms) for terms in basis]) for basis in factors)
    return alg.product(l1, l2)


def _monomial4():
    return alg.monomial_subspace(g.support_set(2, MONOMIAL4))


def _reduce_spy(monkeypatch):
    """Record what each _reduce call returns: a lead, or None for a row
    reduced to zero."""
    leads = []
    reduce = alg._reduce

    def spy(*args):
        leads.append(reduce(*args))
        return leads[-1]

    monkeypatch.setattr(alg, "_reduce", spy)
    return leads


class TestPrefixProducts:
    """Each level multiplies only the multisets whose prefix installed."""

    @pytest.mark.parametrize("order", [alg.LEX, GRLEX12], ids=["lex", "grlex12"])
    @pytest.mark.parametrize(
        "make,k_max",
        [(lambda: _product_of(DIM5_FACTORS), 6),
         (lambda: _product_of(CRITERION8_FACTORS), 6),
         (_monomial4, 12)],
        ids=["dim5-product", "criterion8-product", "monomial4"],
    )
    def test_levels_match_oracle(self, make, k_max, order):
        # both the public levels and the prefix-product kernel's, which
        # _power_levels skips for the two monomial spaces
        l = make()
        levels = alg.semigroup_of_subspace(l, order, k_max)
        box = alg._level_box(l, order, k_max)
        echelon = _echelon(l, box.slot, k_max)
        for k in range(1, k_max + 1):
            expected = sympy_power_leads(_terms(l), order.grading, k)
            assert set(levels[k].points) == expected, k
            assert {box.exponent(s, k) for s in echelon[k]} == expected, k

    def test_products_have_relations(self):
        assert _product_of(DIM5_FACTORS).dim == 5
        assert _product_of(CRITERION8_FACTORS).dim == 4
        # fewer leads than multisets from level 2 on
        assert alg.hilbert_function(_product_of(CRITERION8_FACTORS), 3) == [
            (1, 4), (2, 9), (3, 16)
        ]

    @pytest.mark.parametrize(
        "make,support,reduces",
        [(lambda: _product_of(DIM5_FACTORS), 5, False),
         (lambda: _product_of(CRITERION8_FACTORS), 6, True)],
        ids=["dim5-product", "criterion8-product"],
    )
    def test_route_is_set_by_the_support(self, monkeypatch, make, support, reduces):
        # dim 5 over 5 exponents is a monomial space; dim 4 over 6 is not,
        # and its level 1 is reduced
        l = make()
        assert len({e for f in l.basis for e, _ in f.terms}) == support
        calls = _reduce_spy(monkeypatch)
        alg._power_levels(l, alg.LEX, 8)
        assert bool(calls) == reduces

    @pytest.mark.parametrize(
        "make,k_max,zeros",
        [(lambda: _product_of(DIM5_FACTORS), 8, 231), (_monomial4, 12, 55)],
        ids=["dim5-product", "monomial4"],
    )
    def test_zero_reductions(self, monkeypatch, make, k_max, zeros):
        # multiplying every distinct multiset reduces 532 and 385 rows to zero;
        # both are monomial spaces, so the kernel is called directly, since
        # _power_levels takes their levels from their sumsets
        l = make()
        leads = _reduce_spy(monkeypatch)
        _echelon(l, alg._level_box(l, alg.LEX, k_max).slot, k_max)
        assert leads.count(None) == zeros

    def test_monomial_levels_reduce_no_row(self, monkeypatch):
        l = _monomial4()  # span echelonizes its basis once
        calls = _reduce_spy(monkeypatch)
        _, _, levels = alg._power_levels(l, alg.LEX, 12)
        assert alg.hilbert_function(l, 12) == [(k, len(slots)) for k, slots in levels]
        alg.newton_okounkov_body(l, GRLEX12, 12)
        assert calls == []
        _monomial4()
        assert calls  # the spy sees span's echelon


# 1 + x, 1 + y, x + y + xy: the first two share the lex lead 1, and the
# four exponents are one more than the dimension
RAW_BASIS = (L(2, {(0, 0): 1, (1, 0): 1}), L(2, {(0, 0): 1, (0, 1): 1}),
             L(2, {(1, 0): 1, (0, 1): 1, (1, 1): 1}))


class TestOneEchelonPerSubspace:
    """A subspace is built once, by ``span``: its rows are reduced once."""

    def test_parsing_reduces_each_basis_row_once(self, monkeypatch):
        leads = _reduce_spy(monkeypatch)
        l = parse(2, *RAW_BASIS)
        assert len(leads) == len(RAW_BASIS) and None not in leads
        assert subspaces_equal(l, alg.LaurentSubspace(2, RAW_BASIS))

    @pytest.mark.parametrize("factors", [DIM5_FACTORS, CRITERION8_FACTORS],
                             ids=["dim5-product", "criterion8-product"])
    def test_product_reduces_each_pairwise_product_once(self, monkeypatch, factors):
        l1, l2 = (alg.span(2, [L(2, terms) for terms in basis]) for basis in factors)
        leads = _reduce_spy(monkeypatch)
        alg.product(l1, l2)
        assert len(leads) == l1.dim * l2.dim

    def test_span_rows_are_primitive_with_increasing_lex_leads(self):
        l = parse(2, *RAW_BASIS)
        leads = [alg.valuation(f) for f in l.basis]
        assert leads == sorted(set(leads))
        for f in l.basis:
            coefficients = [c for _, c in f.terms]
            assert all(c.denominator == 1 for c in coefficients)
            assert math.gcd(*(c.numerator for c in coefficients)) == 1


def _monomial_cases():
    """Seeded monomial supports in 1-3 variables with exponents in -3..3,
    some scaled by 1000 (strided), each with a lex or graded lex order and
    the largest k_max of 1, 5 and 12 that the level budget admits.  The
    strided graded case runs at k_max 5, its fallback while a graded box
    kept the stride in its grades, and, last, at k_max 12."""
    rng = random.Random(3434)
    gradings = {1: (2,), 2: (1, 2), 3: (1, 2, 1)}
    strided = [(0, 0), (1000, 0), (0, 1000)]
    cases = [(2, strided, alg.LEX, 12), (2, strided, GRLEX12, 5)]
    while len(cases) < 24:
        dim = 1 + len(cases) % 3
        scale = 1000 if len(cases) % 4 == 0 else 1
        points = sorted({tuple(scale * rng.randint(-3, 3) for _ in range(dim))
                         for _ in range(rng.randint(1, 5))})
        order = alg.LEX if len(cases) % 2 else alg.MonomialOrder(gradings[dim])
        l = alg.monomial_subspace(g.support_set(dim, points))
        for k_max in (12, 5, 1):
            try:
                alg._level_box(l, order, k_max)
                break
            except ValueError:
                continue
        cases.append((dim, points, order, k_max))
    return cases + [(2, strided, GRLEX12, 12)]


MONOMIAL_CASES = _monomial_cases()


class TestMonomialLevels:
    """A subspace spanned by monomials x^a, a in A: its levels are the
    sumsets kA, and its Newton body is conv(A)."""

    @staticmethod
    def subspace(dim, points, seed):
        rng = random.Random(seed)
        return alg.LaurentSubspace(dim, tuple(
            L(dim, {p: F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))}) for p in points
        ))

    @pytest.mark.parametrize("case", range(25))
    def test_levels_are_the_sumsets(self, case):
        dim, points, order, k_max = MONOMIAL_CASES[case]
        l = self.subspace(dim, points, case)
        a = g.support_set(dim, points)
        box, _, levels = alg._power_levels(l, order, k_max)
        echelon = _echelon(l, box.slot, k_max)
        assert {k: set(slots) for k, slots in levels} == {
            k: set(slots) for k, slots in echelon.items()
        }
        assert alg.hilbert_function(l, k_max) == [
            (k, len(sg.sumset_power(a, k))) for k in range(1, k_max + 1)
        ]
        assert alg.newton_okounkov_body(l, order, k_max) == g.polytope_of_support(a)

    @pytest.mark.parametrize("case", [2, 6, 7, 13, 22])
    def test_pinned_levels_match_oracle(self, case):
        dim, points, order, _ = MONOMIAL_CASES[case]
        l = self.subspace(dim, points, case)
        levels = alg.semigroup_of_subspace(l, order, 4)
        for k in range(1, 5):
            assert set(levels[k].points) == sympy_power_leads(_terms(l), order.grading, k), k

    @staticmethod
    def rewritten(dim, points, seed):
        """The monomial basis of ``points`` times a random invertible integer
        matrix LU, L and U unit triangular with off-diagonal entries in
        +-1, +-2: the first element has every exponent as a term."""
        rng = random.Random(seed)
        n = len(points)
        lower = [[1 if i == j else rng.choice((-2, -1, 1, 2)) * (j < i) for j in range(n)]
                 for i in range(n)]
        upper = [[1 if i == j else rng.choice((-2, -1, 1, 2)) * (j > i) for j in range(n)]
                 for i in range(n)]
        rows = [[sum(lower[i][m] * upper[m][j] for m in range(n)) for j in range(n)]
                for i in range(n)]
        return alg.LaurentSubspace(dim, tuple(
            L(dim, dict(zip(points, row))) for row in rows
        ))

    @pytest.mark.parametrize("case", range(25))
    def test_rewritten_basis_takes_the_sumsets(self, monkeypatch, case):
        dim, points, order, k_max = MONOMIAL_CASES[case]
        l = self.rewritten(dim, points, case)
        a = g.support_set(dim, points)
        assert len(l.basis[0].terms) == len(points)
        calls = _reduce_spy(monkeypatch)
        box, _, levels = alg._power_levels(l, order, k_max)
        levels = dict(levels)
        assert alg.newton_okounkov_body(l, order, k_max) == g.polytope_of_support(a)
        assert calls == []
        _, _, sumsets = alg._power_levels(alg.monomial_subspace(a), order, k_max)
        assert {k: set(slots) for k, slots in levels.items()} == {
            k: set(slots) for k, slots in sumsets
        }
        # the dense rows' coefficients grow with k: the kernel runs 3 levels
        echelon = _echelon(l, box.slot, min(k_max, 3))
        assert {k: set(levels[k]) for k in echelon} == {
            k: set(slots) for k, slots in echelon.items()
        }

    def test_one_exponent_short_still_echelonizes(self, monkeypatch):
        # span{1, x + y, y^2}: dim 3 over 4 exponents, so L^k is not spanned
        # by the monomials of k supp L, and its lex leads 1, y, y^2 are
        # collinear, so the kernel builds every level
        l = alg.span(2, [ONE2, XPY, Y * Y])
        calls = _reduce_spy(monkeypatch)
        semigroup = alg.semigroup_of_subspace(l, alg.LEX, 4)
        assert len(calls) > l.dim
        for k in range(1, 5):
            assert set(semigroup[k].points) == sympy_power_leads(_terms(l), None, k), k
        assert alg.hilbert_function(l, 4) == [(k, len(semigroup[k])) for k in range(1, 5)]


# (id, ambient dim, basis, order): level-1 leads that are affinely
# independent in the order, and supports larger than the dimension
INDEPENDENT_LEADS = [
    ("2v-dim1-lex", 2, [{(0, 0): 2, (1, 1): -1}], alg.LEX),
    ("2v-dim1-grlex31", 2, [{(0, 0): 2, (1, 1): -1}], GRLEX31),
    # span{1 + x, y}
    ("2v-dim2-lex", 2, [{(0, 0): 1, (1, 0): 1}, {(0, 1): 1}], alg.LEX),
    ("2v-dim2-grlex12", 2, [{(0, 0): 1, (1, 0): 1}, {(0, 1): 1}], GRLEX12),
    ("2v-dim3-lex", 2, [{(0, 0): 1, (1, 0): 1}, {(0, 1): 1, (2, 0): -1},
                        {(1, 1): F(1, 2), (2, 2): 2}], alg.LEX),
    ("2v-dim3-grlex12", 2, [{(0, 0): 1, (1, 0): 1}, {(0, 1): 1, (2, 0): -1},
                            {(1, 1): F(1, 2), (2, 2): 2}], GRLEX12),
    ("2v-dim3-grlex31", 2, [{(0, 0): 1, (1, 0): 1}, {(0, 1): 1, (2, 0): -1},
                            {(1, 1): F(1, 2), (2, 2): 2}], GRLEX31),
    ("3v-dim1-grlex211", 3, [{(0, 0, 0): 1, (1, 0, 1): -2}], GRLEX211),
    ("3v-dim2-lex", 3, [{(0, 0, 0): 1, (0, 1, 0): 3}, {(1, 0, 0): 1, (0, 0, 1): -1}], alg.LEX),
    ("3v-dim3-lex", 3, [{(0, 0, 0): 1, (1, 0, 0): 1}, {(0, 1, 0): 1, (0, 0, 1): 1},
                        {(1, 0, 1): 1, (0, 2, 0): -1}], alg.LEX),
    ("3v-dim3-grlex211", 3, [{(0, 0, 0): 1, (1, 0, 0): 1}, {(0, 1, 0): 1, (0, 0, 1): 1},
                             {(1, 0, 1): 1, (0, 2, 0): -1}], GRLEX211),
]
# 1, x + y, y^2 - x/2: lex leads 1, y, y^2; graded lex (1, 2) leads 1, x, y
LEAD_ORDER_CASE = [ONE2, XPY, L(2, {(0, 2): 1, (1, 0): F(-1, 2)})]


class TestLevelOneLeads:
    """Affinely independent level-1 leads S_1: the levels are the sumsets
    kS_1, and only level 1 is reduced."""

    @staticmethod
    def check_levels(l, order, k_max):
        levels = alg.semigroup_of_subspace(l, order, k_max)
        for k in range(1, k_max + 1):
            assert set(levels[k].points) == sympy_power_leads(_terms(l), order.grading, k), k
        return levels

    @pytest.mark.parametrize(
        "dim,basis,order", [case[1:] for case in INDEPENDENT_LEADS],
        ids=[case[0] for case in INDEPENDENT_LEADS],
    )
    def test_only_level_one_is_reduced(self, monkeypatch, dim, basis, order):
        l = alg.span(dim, [L(dim, terms) for terms in basis])
        assert len({e for f in l.basis for e, _ in f.terms}) > l.dim  # not a monomial space
        calls = _reduce_spy(monkeypatch)
        levels = self.check_levels(l, order, 4)
        assert len(calls) == l.dim and None not in calls
        assert [len(levels[k]) for k in range(1, 5)] == [
            math.comb(l.dim + k - 1, k) for k in range(1, 5)
        ]

    def test_collinear_leads_still_echelonize(self, monkeypatch):
        # span{1, x + y, x^2 + y^2}: lex leads 1, y, y^2
        l = alg.span(2, [ONE2, XPY, L(2, {(2, 0): 1, (0, 2): 1})])
        calls = _reduce_spy(monkeypatch)
        levels = self.check_levels(l, alg.LEX, 4)
        assert len(calls) > l.dim
        assert {(0, 0), (0, 1), (0, 2)} == set(levels[1].points)

    @pytest.mark.parametrize("order,sumsets", [(alg.LEX, False), (GRLEX12, True)],
                             ids=["lex", "grlex12"])
    def test_route_is_decided_per_order(self, monkeypatch, order, sumsets):
        l = alg.span(2, LEAD_ORDER_CASE)
        calls = _reduce_spy(monkeypatch)
        levels = self.check_levels(l, order, 4)
        assert (len(calls) == l.dim) == sumsets
        # both orders give the same Hilbert function
        assert [len(levels[k]) for k in range(1, 5)] == [3, 6, 10, 15]


# the two kinds of dim-4 criterion-8 product: CRITERION8_FACTORS has
# the lex leads (0, 0), (0, 1), (1, 0), (1, 1) and the relation
# (1, -1, -1, 1); these have the leads (0, 0), (1, 0), (1, 1), (2, 0) and
# (1, -2, 0, 1).  Both have the C(5, 2) - 1 = 9 leads of 2S_1 at level 2
CRITERION8_SUBDUCED = (
    [{(0, 0): -3, (1, 0): 2, (1, 1): 2}, {(1, 0): 1}],
    [{(0, 0): 2, (1, 0): 3}, {(1, 0): -1, (1, 1): 1}],
)
# the same leads and relations, with coefficients near 2^70: level 2's
# bound outgrows the level-1 width
CRITERION8_NEAR_2_70 = (
    [{(0, 0): -(2**70) - 3, (1, 0): 2, (1, 1): 2**70 - 5}, {(1, 0): 1}],
    [{(0, 0): 2, (1, 0): 2**70 + 7}, {(1, 0): -1, (1, 1): 2**70 + 1}],
)
# span{1, x + y, x^2 + y^3}: lex leads (0, 0), (0, 1), (0, 3), the relation
# (2, -3, 1) of degree 3, and a new lead, (1, 2), at level 3
NEW_LEAD_AT_3 = [{(0, 0): 1}, {(1, 0): 1, (0, 1): 1}, {(2, 0): 1, (0, 3): 1}]
# span{1, x + x^6, x^5}: the relation (4, -5, 1) of degree 5, a new lead at 5
NEW_LEAD_AT_5 = [{(0,): 1}, {(1,): 1, (6,): 1}, {(5,): 1}]


def _relation(l, order):
    """The primitive relation m of L's level-1 leads in ``order``, with a
    positive first entry, and its degree."""
    box = alg._level_box(l, order, 1)
    first, _ = next(alg._echelon_levels(l.basis, box.slot))
    leads = [box.exponent(s, 1) for s in first]
    (m,) = _hull.null_space([(1,) * l.dim, *zip(*leads)], l.dim)
    m = m if m[0] > 0 else tuple(-x for x in m)
    return m, sum(x for x in m if x > 0)


def _routes_spy(monkeypatch):
    """Record the (lead slot, width, whether a _power_level made the call)
    of each _reduce call and the width of each level that _power_level
    builds."""
    reduces, built, inside = [], [], []
    reduce, level = alg._reduce, alg._power_level

    def reduce_spy(pivots, row, bound, width, lead):
        reduces.append((lead, width, bool(inside)))
        return reduce(pivots, row, bound, width, lead)

    def level_spy(parents, basis, width, pivots):
        built.append(width)
        inside.append(True)
        try:
            return level(parents, basis, width, pivots)
        finally:
            inside.pop()

    monkeypatch.setattr(alg, "_reduce", reduce_spy)
    monkeypatch.setattr(alg, "_power_level", level_spy)
    return reduces, built


class TestRankOneRelations:
    """Level-1 leads with a rank-1 relation lattice, generated by m of
    degree D: the levels are kS_1 when D > k_max or when the echelon's
    level D has C(D + dim - 1, D) - 1 leads, and then no level past D is
    built."""

    @staticmethod
    def check_levels(l, order, k_max):
        levels = alg.semigroup_of_subspace(l, order, k_max)
        for k in range(1, k_max + 1):
            assert set(levels[k].points) == sympy_power_leads(_terms(l), order.grading, k), k
        return levels

    @pytest.mark.parametrize(
        "factors,order,m",
        [(CRITERION8_FACTORS, alg.LEX, (1, -1, -1, 1)),
         (CRITERION8_FACTORS, GRLEX31, (1, -1, -1, 1)),
         (CRITERION8_FACTORS, GRLEX12, (1, -2, 0, 1)),
         (CRITERION8_SUBDUCED, alg.LEX, (1, -2, 0, 1)),
         (CRITERION8_SUBDUCED, GRLEX12, (1, -2, 1, 0)),
         (CRITERION8_SUBDUCED, GRLEX31, (1, -2, 0, 1))],
        ids=["factors-lex", "factors-grlex31", "factors-grlex12",
             "subduced-lex", "subduced-grlex12", "subduced-grlex31"],
    )
    def test_criterion8_products_take_the_sumsets(self, monkeypatch, factors, order, m):
        l = _product_of(factors)
        assert _relation(l, order) == (m, 2)
        reduces, built = _routes_spy(monkeypatch)
        _, leads, _ = alg._power_levels(l, order, 8)
        # levels 1 and D = 2, each built once: the basis rows, then every
        # product of two of them
        assert leads is not None and len(built) == 2
        assert len(reduces) == l.dim + math.comb(l.dim + 1, 2)
        monkeypatch.undo()
        levels = self.check_levels(l, order, 6)
        assert [len(levels[k]) for k in range(1, 7)] == [(k + 1) ** 2 for k in range(1, 7)]

    @pytest.mark.parametrize("order", [alg.LEX, GRLEX12], ids=["lex", "grlex12"])
    def test_near_2_70_levels_widen_the_slots(self, monkeypatch, order):
        l = _product_of(CRITERION8_NEAR_2_70)
        reduces, built = _routes_spy(monkeypatch)
        _, leads, _ = alg._power_levels(l, order, 3)
        # level 2 outgrows 256 bits at its first product and is built again
        # at 512 from its parents; no level past D = 2 is built
        assert leads is not None and built == [256, 256, 512]
        assert [w for _, w, _ in reduces] == [256] * l.dim + [512] * math.comb(l.dim + 1, 2)
        monkeypatch.undo()
        self.check_levels(l, order, 3)

    @pytest.mark.parametrize("order", [alg.LEX, GRLEX31], ids=["lex", "grlex31"])
    def test_a_new_lead_at_level_d_echelonizes(self, monkeypatch, order):
        l = alg.span(2, [L(2, terms) for terms in NEW_LEAD_AT_3])
        assert _relation(l, order) == ((2, -3, 1), 3)
        reduces, built = _routes_spy(monkeypatch)
        _, leads, _ = alg._power_levels(l, order, 4)
        assert leads is None and len(built) == 4
        monkeypatch.undo()
        levels = self.check_levels(l, order, 4)
        assert (1, 2) in levels[3].points
        assert [len(levels[k]) for k in range(1, 5)] == [3, 6, 10, 15]

    @pytest.mark.parametrize("order", [alg.LEX, GRLEX31], ids=["lex", "grlex31"])
    def test_every_reduce_comes_from_a_power_level(self, monkeypatch, order):
        # levels 1..D = 3 decide the route and level 4 continues the same
        # echelon: each level is built once, and no row is reduced outside
        # a level
        l = alg.span(2, [L(2, terms) for terms in NEW_LEAD_AT_3])
        reduces, built = _routes_spy(monkeypatch)
        _, leads, _ = alg._power_levels(l, order, 4)
        assert leads is None and len(built) == 4
        assert reduces and all(inside for _, _, inside in reduces)

    @pytest.mark.parametrize(
        "dim,basis,order,degree",
        [(2, NEW_LEAD_AT_3, alg.LEX, 3), (2, NEW_LEAD_AT_3, GRLEX31, 3),
         (1, NEW_LEAD_AT_5, alg.LEX, 5), (1, NEW_LEAD_AT_5, alg.MonomialOrder((2,)), 5)],
        ids=["new-lead-at-3-lex", "new-lead-at-3-grlex31", "new-lead-at-5-lex",
             "new-lead-at-5-grlex2"],
    )
    def test_degree_above_kmax_builds_only_level_one(self, monkeypatch, dim, basis, order, degree):
        l = alg.span(dim, [L(dim, terms) for terms in basis])
        assert _relation(l, order)[1] == degree
        reduces, built = _routes_spy(monkeypatch)
        _, below, _ = alg._power_levels(l, order, degree - 1)
        assert below is not None and len(reduces) == l.dim and len(built) == 1
        _, at, _ = alg._power_levels(l, order, degree)
        assert at is None
        monkeypatch.undo()
        for k_max in (degree - 1, degree):
            levels = self.check_levels(l, order, k_max)
        # the one coincidence of D S_1, m's two sides, has two leads at level D
        assert len(levels[degree]) == len(sg.sumset_power(levels[1], degree)) + 1


class _Echelonizes(Exception):
    """Raised where _power_levels asks the echelon for a level past the
    ones that decide its route."""


def _rank_one_draws():
    """Seed 5: in one variable, dimension 3 with exponents in -2..5; in two,
    dimension 4 on [0, 3]^2; 1-3 terms per polynomial, coefficients
    +-1, +-2, +-3.  Yields (ambient dim, polynomials)."""
    rng = random.Random(5)
    for n, size, low, high in ((1, 3, -2, 5), (2, 4, 0, 3)):
        for _ in range(200):
            yield n, [
                L(n, {tuple(rng.randint(low, high) for _ in range(n)):
                      rng.choice((1, 2, 3)) * rng.choice((1, -1))
                      for _ in range(rng.randint(1, 3))})
                for _ in range(size)
            ]


class TestRouteAgreementFuzz:
    """Every route of _power_levels agrees with the echelon at every level."""

    def test_power_levels_equal_the_echelon_levels(self, monkeypatch):
        # a draw that _power_levels echelonizes has the echelon's levels by
        # construction, so the echelon is cut short past level 1, or past
        # level D of a rank-1 relation of degree D, which decides the route
        echelon_levels = alg._echelon_levels
        limit = 1

        def up_to_limit(polys, slot):
            yield from islice(echelon_levels(polys, slot), limit)
            raise _Echelonizes

        monkeypatch.setattr(alg, "_echelon_levels", up_to_limit)
        routes = {}
        for n, polys in _rank_one_draws():
            l = alg.span(n, polys)
            for order in (alg.LEX,) if n == 1 else (alg.LEX, GRLEX12):
                box = alg._level_box(l, order, 8)
                first, _ = next(echelon_levels(l.basis, box.slot))
                leads = [box.exponent(s, 1) for s in first]
                relations = _hull.null_space([(1,) * l.dim, *zip(*leads)], l.dim)
                limit = sum(x for x in relations[0] if x > 0) if len(relations) == 1 else 1
                try:
                    _, sumsets, levels = alg._power_levels(l, order, 8)
                except _Echelonizes:
                    sumsets = None
                if sumsets is None:  # an echelon cut short, or one that stopped at D = 8
                    route = "echelon"
                else:
                    reference = islice(echelon_levels(l.basis, box.slot), 8)
                    assert {k: set(slots) for k, slots in levels} == {
                        k: set(pivots) for k, (pivots, _) in enumerate(reference, 1)
                    }
                    route = "monomial"
                    if len({e for f in l.basis for e, _ in f.terms}) > l.dim:
                        assert sumsets == leads
                        if not relations:
                            route = "independent"
                        else:
                            route = "degree" if limit > 8 else "count"
                routes[route] = routes.get(route, 0) + 1
        assert routes == {
            "monomial": 58, "independent": 35, "count": 56, "degree": 17, "echelon": 434,
        }


def _flat_or_random_subspace(rng, dim, i, count=(1, 4)):
    """A point body, a body in the x1 axis, or a random subspace of
    ``count`` = (fewest, most) random polynomials."""
    if i == 0:
        return alg.span(dim, [random_poly(rng, dim, terms=2)])
    if i == 1:
        line = [L(dim, {(x,) + (0,) * (dim - 1): rng.randint(1, 3) for x in xs})
                for xs in ((0, 1), (2,), (-1, 3))]
        return alg.span(dim, line)
    while True:
        try:
            polys = [random_poly(rng, dim, terms=rng.randint(1, 3), span=1)
                     for _ in range(rng.randint(*count))]
            return alg.span(dim, polys)
        except ValueError:
            continue


class TestNewtonBodyFromFiberEnds:
    """The body from each fiber's two ends is the hull of every level."""

    @pytest.mark.parametrize(
        "dim,order",
        [(1, alg.LEX), (1, alg.MonomialOrder((2,))), (2, alg.LEX),
         (2, GRLEX12), (2, GRLEX31), (3, alg.LEX), (3, GRLEX211),
         (4, alg.LEX), (4, GRLEX1213)],
    )
    def test_equals_newton_body_of_the_levels(self, dim, order):
        # in 4D, six to nine generators make most level-1 leads affinely
        # dependent, so most bodies come from the fibers of the echelon's
        # levels; k_max is at most 3 to keep the levels small
        count, top = ((1, 4), 6) if dim < 4 else ((6, 9), 3)
        rng = random.Random(repr((dim, order)))
        flat = fibers = 0
        for i in range(10):
            l = _flat_or_random_subspace(rng, dim, i, count)
            k_max = rng.randint(1, top)
            fibers += alg._power_levels(l, order, k_max)[1] is None
            body = alg.newton_okounkov_body(l, order, k_max)
            levels = alg.semigroup_of_subspace(l, order, k_max)
            assert is_level_dict(levels, k_max, dim)
            ref = newton_body(levels)
            assert body == ref
            assert (body.affine_dim, body.volume) == (ref.affine_dim, ref.volume)
            flat += body.affine_dim < dim
        assert flat >= (1 if dim == 1 else 2)
        assert fibers >= (5 if dim == 4 else 1)

    @pytest.mark.parametrize(
        "dim,basis,order", [case[1:] for case in INDEPENDENT_LEADS],
        ids=[case[0] for case in INDEPENDENT_LEADS],
    )
    def test_independent_leads_give_the_hull_of_level_one(self, dim, basis, order):
        l = alg.span(dim, [L(dim, terms) for terms in basis])
        for k_max in (1, 4, 7):
            levels = alg.semigroup_of_subspace(l, order, k_max)
            body, ref = alg.newton_okounkov_body(l, order, k_max), newton_body(levels)
            assert body == g.polytope_of_support(levels[1]) == ref
            assert body.volume == ref.volume

    @pytest.mark.parametrize("order", [alg.LEX, GRLEX12, GRLEX31],
                             ids=["lex", "grlex12", "grlex31"])
    @pytest.mark.parametrize(
        "make",
        # span{1, x + y, x^2 + y^3} has the lex leads (0, 0), (0, 1), (0, 3),
        # and a new one, (1, 2), first at level 3
        [lambda: _product_of(CRITERION8_FACTORS),
         lambda: alg.span(2, [ONE2, XPY, L(2, {(2, 0): 1, (0, 3): 1})])],
        ids=["criterion8-product", "new-lead-at-level-3"],
    )
    def test_dependent_leads_hull_the_upper_levels(self, make, order):
        # the product's rank-1 relation subduces, so its body is conv(S_1);
        # where the other echelonizes, only the levels k with 2k > k_max
        # are hulled
        l = make()
        for k_max in range(1, 10):
            levels = alg.semigroup_of_subspace(l, order, k_max)
            body, ref = alg.newton_okounkov_body(l, order, k_max), newton_body(levels)
            assert body == ref, k_max
            assert body.volume == ref.volume, k_max
