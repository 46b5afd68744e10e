import random
from fractions import Fraction as F

import pytest

from okounkov_lab.radicals import (
    IndeterminateComparisonError,
    _root_bounds,
    compare_root_sums,
    integer_nth_root,
)

from oracles import sympy_power_free_parts


class TestIntegerRoot:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(0, 3, 0), (26, 3, 2), (27, 3, 3), (28, 3, 3), (10**30, 2, 10**15), (2**40 - 1, 4, 1023)],
    )
    def test_floor_values(self, n, m, expected):
        assert integer_nth_root(n, m) == expected

    def test_random_consistency(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(10**12)
            m = rng.randint(2, 5)
            r = integer_nth_root(n, m)
            assert r**m <= n < (r + 1) ** m


class TestSquareRootComparisons:
    def test_exact_equality(self):
        # sqrt(2) + sqrt(8) = sqrt(18)
        assert compare_root_sums([2, 8], [18], 2) == 0

    def test_strict_both_ways(self):
        assert compare_root_sums([2, 8], [19], 2) == -1
        assert compare_root_sums([2, 8], [17], 2) == 1

    def test_rational_operands(self):
        assert compare_root_sums([1, F(1, 2)], [F(7, 2)], 2) <= 0
        assert not compare_root_sums([1, F(1, 2)], [F(23, 8)], 2) <= 0

    def test_homogeneity_equality(self):
        # 2 sqrt(v) = sqrt(4 v) for the dilation identity
        assert compare_root_sums([F(5, 2), F(5, 2)], [10], 2) == 0

    def test_zero_terms(self):
        assert compare_root_sums([0, 4], [4], 2) == 0
        assert compare_root_sums([], [1], 2) == -1
        assert compare_root_sums([], [], 5) == 0


class TestHigherRoots:
    def test_cube_root_identities(self):
        assert compare_root_sums([1, 1], [8], 3) == 0
        assert compare_root_sums([2, 16], [54], 3) == 0  # (1 + 2) cbrt(2) = 3 cbrt(2)
        assert compare_root_sums([1, 1], [9], 3) == -1

    def test_fourth_roots(self):
        assert compare_root_sums([1, 16], [81], 4) == 0
        assert compare_root_sums([1, 16], [82], 4) == -1

    def test_interval_path_strict(self):
        # power-free parts differ, interval refinement must separate
        assert compare_root_sums([F(1, 3), 5], [F(29, 2)], 3) in (-1, 1)
        assert compare_root_sums([2], [3], 3) == -1

    def test_unfactorable_equality_raises(self):
        # equal root sums whose operands hide a prime above 10^6: the
        # operands share one radical class, so no factoring is needed
        p = 1_000_003
        a = 2 * p**3
        b = 16 * p**3
        c = 54 * p**3
        assert compare_root_sums([a, b], [c], 3) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            compare_root_sums([-1], [1], 2)
        with pytest.raises(ValueError):
            compare_root_sums([1], [1], 0)
        # compare_root_sums rejects a negative operand first; its helpers check too
        with pytest.raises(ValueError, match="negative radicand"):
            integer_nth_root(-1, 2)
        with pytest.raises(ValueError, match="negative radicand"):
            _root_bounds(F(-1, 2), 2, 64)


P, Q = 1_000_003, 1_000_033  # primes above 10^6


def _oracle_sign(left, right, m):
    """Sign by sympy: classes by factored power-free part, then 200 digits."""
    from sympy import N, Rational, root

    classes = {}
    for side, values in ((1, left), (-1, right)):
        for g, h in sympy_power_free_parts(values, m):
            classes[h] = classes.get(h, 0) + side * g
    if all(c == 0 for c in classes.values()):
        return 0
    diff = N(sum(Rational(c.numerator, c.denominator) * root(h, m) for h, c in classes.items()), 200)
    assert diff != 0
    return 1 if diff > 0 else -1


def _split(rng, total, parts):
    """`parts` positive rationals summing to `total`."""
    weights = [rng.randint(1, 4) for _ in range(parts)]
    return [total * F(w, sum(weights)) for w in weights]


def _draw(rng, m, equal):
    """Two sides over 1-3 radical classes, balanced in every class if `equal`."""
    left, right = [], []
    for _ in range(rng.randint(1, 3)):
        base = F(rng.choice([2, 3, 6, 10, P, P * Q, 2 * Q]), rng.choice([1, 1, 3, 5]))
        total = F(rng.randint(1, 5), rng.randint(1, 3))
        left += [base * c**m for c in _split(rng, total, rng.randint(1, 3))]
        other = total if equal else total + F(rng.choice([-1, 1]), rng.randint(2, 9))
        right += [base * c**m for c in _split(rng, max(other, F(1, 7)), rng.randint(1, 3))]
    rng.shuffle(left)
    rng.shuffle(right)
    return left, right


class TestRadicalClasses:
    def test_mixed_class_equalities(self):
        # sqrt(2) + sqrt(3) + sqrt(8) = sqrt(18) + sqrt(3): classes 2 and 3
        assert compare_root_sums([2, 3, 8], [18, 3], 2) == 0
        assert compare_root_sums([1, 3], [1, 3], 3) == 0
        assert compare_root_sums([2, 3, 8], [18, 3, F(1, 10**9)], 2) == -1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_two_large_primes(self, m):
        h = P * Q
        assert compare_root_sums([h, 2**m * h], [3**m * h], m) == 0
        assert compare_root_sums([h, 2**m * h, P], [3**m * h, P], m) == 0
        assert compare_root_sums([h, 2**m * h], [3**m * h + 1], m) == -1
        assert compare_root_sums([h * Q**m, P], [h, P * (Q - 1) ** m], m) == 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
    def test_against_power_free_oracle(self, m, equal):
        rng = random.Random(100 * m + equal)
        for _ in range(40):
            left, right = _draw(rng, m, equal)
            expected = _oracle_sign(left, right, m)
            assert (expected == 0) == equal
            assert compare_root_sums(left, right, m) == expected

    def test_budget_boundary(self):
        # sqrt(n^2 + 1) - n is about 1/(2n): separated at 4096 fractional
        # bits for n = 2^4090, too close to call for n = 2^4100
        n = 2**4090
        assert compare_root_sums([n * n + 1], [n * n], 2) == 1
        n = 2**4100
        with pytest.raises(IndeterminateComparisonError, match="unequal"):
            compare_root_sums([n * n + 1], [n * n], 2)
