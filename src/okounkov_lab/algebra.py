"""Laurent polynomials over Q, additive monomial orders, finite-dimensional
subspaces with products and powers, valuation images via exact echelon
reduction, Hilbert functions, and the graded semigroup attached to a
subspace together with its Newton body.

The valuation of a nonzero Laurent polynomial is the order-minimal exponent
of its support; the valuation image of a subspace is the set of pivot
exponents of an echelonized basis, whose cardinality always equals the
dimension.  Echelon reduction works on primitive integer coefficient rows
(each polynomial's unique positive integer multiple of content 1) with
content reduction after every elimination step, which keeps coefficient
growth tame at desk scale.  Powers of a subspace are built from the integer
rows of its basis, so they never pass through Fraction coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .geometry import SupportSet, support_set
from .semigroup import ConeSection, GradedSemigroupSlice, newton_body

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """Additive total order on Z^n: plain lex or graded lex.

    Lex compares exponent tuples directly with coordinate x1 before x2;
    graded lex compares a positive integer grading first.  Both respect
    addition, so order-minimal exponents are multiplicative.
    """

    kind: str = "lex"
    grading: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grlex"):
            raise ValueError("order kind must be 'lex' or 'grlex'")
        if self.kind == "grlex":
            if not self.grading or any(w <= 0 for w in self.grading):
                raise ValueError("graded lex needs a positive integer grading")
        elif self.grading is not None:
            raise ValueError("plain lex takes no grading")

    def key(self, exponent: Exponent):
        if self.kind == "lex":
            return exponent
        if len(self.grading) != len(exponent):
            raise ValueError("grading length does not match the exponent")
        return (sum(w * e for w, e in zip(self.grading, exponent)), exponent)


LEX = MonomialOrder()


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finite Q-linear combination of Laurent monomials; terms canonical."""

    ambient_dim: int
    terms: tuple[tuple[Exponent, Fraction], ...]

    def __post_init__(self):
        for e, c in self.terms:
            if len(e) != self.ambient_dim:
                raise ValueError("exponent dimension mismatch")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> SupportSet:
        if self.is_zero:
            raise ValueError("the zero polynomial has no support")
        return support_set(self.ambient_dim, [e for e, _ in self.terms])

    def coefficient(self, exponent: Exponent) -> Fraction:
        for e, c in self.terms:
            if e == exponent:
                return c
        return Fraction(0)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return laurent(self.ambient_dim, acc)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            if self.ambient_dim != other.ambient_dim:
                raise ValueError("dimension mismatch")
            return laurent(self.ambient_dim, _mul_terms(self.terms, other.terms))
        return laurent(
            self.ambient_dim, {e: c * Fraction(other) for e, c in self.terms}
        )

    __rmul__ = __mul__


def _mul_terms(terms1, terms2) -> dict:
    """Sparse product of two (exponent, coefficient) sequences, zeros dropped."""
    acc: dict = {}
    for e1, c1 in terms1:
        for e2, c2 in terms2:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def laurent(dim: int, terms: dict[Exponent, object]) -> LaurentPolynomial:
    """Build a polynomial from an exponent-to-coefficient mapping."""
    cleaned = {
        tuple(int(x) for x in e): Fraction(c) for e, c in terms.items() if Fraction(c)
    }
    return LaurentPolynomial(dim, tuple(sorted(cleaned.items())))


def monomial(dim: int, exponent: Exponent) -> LaurentPolynomial:
    return laurent(dim, {tuple(exponent): 1})


def valuation(f: LaurentPolynomial, order: MonomialOrder = LEX) -> Exponent:
    """Order-minimal exponent of the support; undefined for zero."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no valuation")
    return min((e for e, _ in f.terms), key=order.key)


# -- echelon machinery -------------------------------------------------------

def _int_rows(polys) -> list[dict[Exponent, int]]:
    """Primitive integer rows: each polynomial's unique positive multiple with
    integer coefficients of gcd 1; zero polynomials are dropped."""
    rows = []
    for f in polys:
        if f.is_zero:
            continue
        den = math.lcm(*(c.denominator for _, c in f.terms))
        num = math.gcd(*(c.numerator for _, c in f.terms))
        rows.append({e: c.numerator * (den // c.denominator) // num for e, c in f.terms})
    return rows


def _content_reduce(row: dict[Exponent, int]) -> dict[Exponent, int]:
    row = {e: c for e, c in row.items() if c}
    if not row:
        return row
    g = math.gcd(*(abs(c) for c in row.values()))
    if g > 1:
        row = {e: c // g for e, c in row.items()}
    return row


def _echelon(rows, order: MonomialOrder) -> dict[Exponent, dict[Exponent, int]]:
    """Reduce spanning integer rows to primitive pivot rows keyed by leading
    exponent.

    Every installed row has a distinct order-minimal exponent; candidates
    are cross-eliminated against installed pivots until they are zero or
    acquire a fresh pivot.
    """
    pivots: dict[Exponent, dict[Exponent, int]] = {}
    for raw in rows:
        row = _content_reduce(raw)
        while row:
            lead = min(row, key=order.key)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            a, b = piv[lead], row[lead]
            merged = {e: a * c for e, c in row.items()}
            for e, c in piv.items():
                merged[e] = merged.get(e, 0) - b * c
            row = _content_reduce(merged)
    return pivots


def _row_to_poly(dim: int, row: dict[Exponent, int]) -> LaurentPolynomial:
    return laurent(dim, {e: Fraction(c) for e, c in row.items()})


# -- subspaces ----------------------------------------------------------------

@dataclass(frozen=True)
class LaurentSubspace:
    """Finite-dimensional span of Laurent polynomials with a verified basis."""

    ambient_dim: int
    basis: tuple[LaurentPolynomial, ...]

    def __post_init__(self):
        if not self.basis:
            raise ValueError("subspace needs a nonempty basis")
        for f in self.basis:
            if f.ambient_dim != self.ambient_dim:
                raise ValueError("basis dimension mismatch")
            if f.is_zero:
                raise ValueError("zero polynomial in a basis")
        if len(_echelon(_int_rows(self.basis), LEX)) != len(self.basis):
            raise ValueError("basis polynomials are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace(dim: int, polys) -> LaurentSubspace:
    return LaurentSubspace(dim, tuple(polys))


def span(dim: int, polys, order: MonomialOrder = LEX) -> LaurentSubspace:
    """Subspace spanned by arbitrary polynomials, echelonized to a basis."""
    pivots = _echelon(_int_rows(polys), order)
    if not pivots:
        raise ValueError("the zero subspace is not representable")
    basis = tuple(
        _row_to_poly(dim, pivots[lead]) for lead in sorted(pivots, key=order.key)
    )
    return LaurentSubspace(dim, basis)


def monomial_subspace(a: SupportSet) -> LaurentSubspace:
    if not a.points:
        raise ValueError("monomial subspace needs a nonempty support")
    return LaurentSubspace(
        a.ambient_dim, tuple(monomial(a.ambient_dim, e) for e in a.sorted_points())
    )


def subspaces_equal(l1: LaurentSubspace, l2: LaurentSubspace) -> bool:
    """Equality as subspaces, independent of the chosen bases."""
    if l1.ambient_dim != l2.ambient_dim or l1.dim != l2.dim:
        return False
    joint = _echelon(_int_rows(l1.basis + l2.basis), LEX)
    return len(joint) == l1.dim


def product(l1: LaurentSubspace, l2: LaurentSubspace) -> LaurentSubspace:
    """Span of all pairwise basis products."""
    if l1.ambient_dim != l2.ambient_dim:
        raise ValueError("dimension mismatch")
    return span(
        l1.ambient_dim, [f * g for f in l1.basis for g in l2.basis]
    )


def power(l: LaurentSubspace, k: int) -> LaurentSubspace:
    """k-th power by binary exponentiation over the subspace product."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    result = None
    base = l
    while k:
        if k & 1:
            result = base if result is None else product(result, base)
        k >>= 1
        if k:
            base = product(base, base)
    return result


def valuation_image(l: LaurentSubspace, order: MonomialOrder = LEX):
    """Pivot exponents of an echelonized basis; size equals the dimension."""
    pivots = _echelon(_int_rows(l.basis), order)
    image = ValuationImage(support_set(l.ambient_dim, list(pivots)))
    if len(image.exponents) != l.dim:
        raise AssertionError("valuation image smaller than the dimension")
    return image


@dataclass(frozen=True)
class ValuationImage:
    exponents: SupportSet

    def __len__(self):
        return len(self.exponents)


def _power_level_rows(l: LaurentSubspace, order: MonomialOrder, k_max: int):
    """Echelon pivot tables of L^k for k = 1..k_max.

    Products of k basis elements span L^k; they are enumerated as degree-k
    multisets with each product obtained from a cached degree-(k-1) parent
    by one multiplication.  The basis is cleared to integer rows once;
    rescaling a basis element does not change any span.
    """
    basis = _int_rows(l.basis)
    level = {(i,): row for i, row in enumerate(basis)}
    tables = {1: _echelon(level.values(), order)}
    for k in range(2, k_max + 1):
        parents = level
        level = {
            key: _mul_terms(parents[key[:-1]].items(), basis[key[-1]].items())
            for key in combinations_with_replacement(range(len(basis)), k)
        }
        tables[k] = _echelon(level.values(), order)
    return tables


def hilbert_function(l: LaurentSubspace, k_max: int) -> list[tuple[int, int]]:
    """Dimension of L^k for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    tables = _power_level_rows(l, LEX, k_max)
    return [(k, len(tables[k])) for k in range(1, k_max + 1)]


def semigroup_of_subspace(
    l: LaurentSubspace, order: MonomialOrder = LEX, k_max: int = 8
) -> GradedSemigroupSlice:
    """Levelwise valuation images of the powers of L."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    tables = _power_level_rows(l, order, k_max)
    levels = {
        k: support_set(l.ambient_dim, list(tables[k])) for k in range(1, k_max + 1)
    }
    return GradedSemigroupSlice(l.ambient_dim, levels)


def newton_okounkov_body(
    l: LaurentSubspace, order: MonomialOrder = LEX, k_max: int = 8
) -> ConeSection:
    """Newton body of the valuation semigroup of L, at finite level."""
    return newton_body(semigroup_of_subspace(l, order, k_max))


@dataclass(frozen=True)
class SuperadditivityReport:
    holds: bool
    body1_vertices: tuple
    body2_vertices: tuple
    product_vertices: tuple


def superadditivity_check(
    l1: LaurentSubspace,
    l2: LaurentSubspace,
    order: MonomialOrder = LEX,
    k_max: int = 8,
) -> SuperadditivityReport:
    """Check Newton(L1) + Newton(L2) inside Newton(L1 L2) at equal level."""
    if l1.ambient_dim != l2.ambient_dim:
        raise ValueError("dimension mismatch")
    from . import geometry

    b1 = newton_okounkov_body(l1, order, k_max).polytope
    b2 = newton_okounkov_body(l2, order, k_max).polytope
    b12 = newton_okounkov_body(product(l1, l2), order, k_max).polytope
    summed = geometry.minkowski_sum(b1, b2)
    holds = all(geometry.contains_point(b12, v) for v in summed.vertices)
    return SuperadditivityReport(
        holds, b1.vertices, b2.vertices, b12.vertices
    )
