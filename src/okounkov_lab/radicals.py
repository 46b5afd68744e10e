"""Exact comparison of sums of rational m-th roots.

Inequalities of Brunn-Minkowski type compare quantities like
a^(1/m) + b^(1/m) with c^(1/m) for nonnegative rationals a, b, c.  Floating
point must not decide them, so one exact procedure does:

1. Operands q and r fall into the same class iff q/r is the m-th power of a
   rational; then q^(1/m) = c * r^(1/m) with c rational.  Each class sums its
   rational coefficients, left side minus right side.
2. Roots of positive rationals from different classes are linearly
   independent over Q (Besicovitch, J. London Math. Soc. 15 (1940); Mordell,
   Pacific J. Math. 3 (1953)).  So the sides are equal iff every class
   balances, and with one unbalanced class its coefficient gives the sign.
3. With two or more unbalanced classes the sums are provably unequal, and
   interval refinement separates them.  Its 4096-bit cap is a resource
   budget: hitting it raises IndeterminateComparisonError, which means "too
   close to call", never a missed equality.

No operand is ever factored.
"""

from __future__ import annotations

import math
from fractions import Fraction

_MAX_BITS = 4096


class IndeterminateComparisonError(ArithmeticError):
    """Raised when two unequal root sums are too close to separate."""


def integer_nth_root(n: int, m: int) -> int:
    """Floor r of the m-th root of a nonnegative integer n, by integer Newton.

    The start exceeds n^(1/m).  A step floor(((m-1)x + floor(n/x^(m-1)))/m)
    is floor(((m-1)x + n/x^(m-1))/m), as (m-1)x is an integer: at least r by
    AM-GM, and below x while x > r, as x^m > n.  So the loop stops at r."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if m == 2:
        return math.isqrt(n)
    x = 1 << ((n.bit_length() + m - 1) // m + 1)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _root_bounds(q: Fraction, m: int, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of q**(1/m) with hi - lo = 2**-bits: with
    s = floor(q 2^(m bits)) and r its m-th root floor, r^m <= s, and the
    integers (r + 1)^m > s give (r + 1)^m > q 2^(m bits)."""
    if q < 0:
        raise ValueError("negative radicand")
    shifted = (q.numerator << (m * bits)) // q.denominator
    r = integer_nth_root(shifted, m)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def _rational_root(q: Fraction, m: int) -> Fraction | None:
    """q**(1/m) if it is rational, else None (q > 0)."""
    num = integer_nth_root(q.numerator, m)
    den = integer_nth_root(q.denominator, m)
    if num**m != q.numerator or den**m != q.denominator:
        return None
    return Fraction(num, den)


def compare_root_sums(left, right, m: int) -> int:
    """Sign of sum(q**(1/m) for q in left) - sum(q**(1/m) for q in right).

    All operands must be nonnegative rationals; m must be a positive integer.
    """
    left = [Fraction(q) for q in left]
    right = [Fraction(q) for q in right]
    if m < 1:
        raise ValueError("root index must be positive")
    if any(q < 0 for q in left + right):
        raise ValueError("operands must be nonnegative")
    left = [q for q in left if q != 0]
    right = [q for q in right if q != 0]
    if not left or not right:
        if not left and not right:
            return 0
        return 1 if left else -1
    # class representative r -> coefficient of r**(1/m), left minus right
    classes: dict[Fraction, Fraction] = {}
    for side, operands in ((1, left), (-1, right)):
        for q in operands:
            for r in classes:
                c = _rational_root(q / r, m)
                if c is not None:
                    classes[r] += side * c
                    break
            else:
                classes[q] = Fraction(side)
    unbalanced = [(r, c) for r, c in classes.items() if c != 0]
    if not unbalanced:
        return 0
    if len(unbalanced) == 1:
        return 1 if unbalanced[0][1] > 0 else -1
    bits = 64
    while bits <= _MAX_BITS:
        lo_sum = hi_sum = Fraction(0)
        for r, c in unbalanced:
            lo, hi = _root_bounds(r, m, bits)
            if c < 0:
                lo, hi = hi, lo
            lo_sum += c * lo
            hi_sum += c * hi
        if lo_sum > 0:
            return 1
        if hi_sum < 0:
            return -1
        bits *= 2
    raise IndeterminateComparisonError(
        f"root sums are unequal but too close to call at {_MAX_BITS} fractional bits"
    )
