"""Laurent polynomials with integer coefficients, additive monomial orders,
finite-dimensional subspaces with products, the valuation images of their
powers via exact echelon reduction, Hilbert functions, and the graded
semigroup attached to a subspace together with its Newton body.

The valuation of a nonzero Laurent polynomial is the order-minimal exponent
of its support; the valuation image of a subspace is the set of pivot
exponents of an echelonized basis, whose cardinality always equals the
dimension.  One fraction-free elimination kernel serves every echelon form
of Laurent rows (the affine hulls of point sets are reduced by
``_hull.echelon`` instead): it works on integer rows packed into single
Python ints (Kronecker substitution), steps a row by two scalar multiplies
and one subtraction, and divides out a row's content only when it installs
a stepped row or a coefficient bound would outgrow the slot width; 32- and
64-bit slots are packed and unpacked through an ``array`` in one C-level
pass.  One driver runs it: the powers of a subspace are built level by
level, each from the rows that gave the previous level its pivots; a
product is formed only from the prefix of its sorted basis-index tuple,
and only if that prefix installed a pivot.  ``span`` is the one builder of a subspace: its basis
is level 1, slotted by the lex ranks of its exponents.  The powers' slots
are those of the basis exponents' ``semigroup.LevelBox``, so the lowest
slot of a packed row is its valuation; the box and k_max are budgeted
before any level is built.  The powers' leads are the sumsets kS_1 of the
level-1 leads S_1, which the packed sumset kernel ``semigroup._levels``
builds on the same box, with no level eliminated past the first, for a
monomial space, one whose dimension is the size of the union A of its
basis supports (it is span{x^a : a in A}, and S_1 = A).  For any other
subspace the route is the rank of the relation lattice of S_1, the affine
integer relations among its leads: 2 or more when |S_1| > n + 2, and
otherwise one ``_hull.null_space`` gives it.  Rank 0 (distinct multisets
of leads have distinct sums) takes the sumsets; rank 1, the multiples of
one m of degree D, takes them when D > k_max, or when the echelon's level
D has only the leads of D S_1, so the rows are a Khovanskii basis; rank 2
or more echelonizes.  Where the sumsets give the levels, the Newton body
is conv(S_1).  Any other Newton body hulls only the levels above
k_max / 2, and of each only the two ends of its leads along every fiber
of the leading digit: a line parallel to the x_1 axis under lex, and to
the x_n axis under graded lex.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import islice

from . import _hull, geometry, semigroup
from .geometry import LatticePolytope, SupportSet, support_set
from .semigroup import LevelBox, level_box

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """Additive total order on Z^n: lex without a grading, graded lex with one.

    Lex compares exponent tuples directly with coordinate x1 before x2;
    graded lex compares a positive integer grading first.  Both respect
    addition, so order-minimal exponents are multiplicative.  The key is
    the exponent's ``semigroup.LevelBox`` digits, (grade, x1, ..., x_{n-1})
    under graded lex, where the grade fixes x_n.
    """

    grading: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.grading is not None and (not self.grading or min(self.grading) <= 0):
            raise ValueError("graded lex needs a positive integer grading")

    def key(self, exponent: Exponent):
        if self.grading is not None and len(self.grading) != len(exponent):
            raise ValueError("grading length does not match the exponent")
        return tuple(semigroup._digits(exponent, self.grading))


LEX = MonomialOrder()


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finite Z-linear combination of Laurent monomials; terms canonical.
    Spans, bodies and roots read only a polynomial's line, so :func:`laurent`
    stores a rational one as the integer polynomial on that line."""

    ambient_dim: int
    terms: tuple[tuple[Exponent, int], ...]

    def __post_init__(self):
        for e, c in self.terms:
            if len(e) != self.ambient_dim:
                raise ValueError("exponent dimension mismatch")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Sparse product; :func:`laurent` drops the terms that cancel."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch")
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return laurent(self.ambient_dim, acc)


def laurent(dim: int, terms: dict) -> LaurentPolynomial:
    """Build a polynomial from an exponent-to-coefficient mapping, its
    coefficients ints or Fractions, scaled by the lcm of their denominators
    (``geometry._lift``): the integer polynomial on the same line."""
    _, (coefficients,) = geometry._lift([terms.values()])
    cleaned = {tuple(int(x) for x in e): c for e, c in zip(terms, coefficients) if c}
    return LaurentPolynomial(dim, tuple(sorted(cleaned.items())))


def monomial(dim: int, exponent: Exponent) -> LaurentPolynomial:
    return laurent(dim, {tuple(exponent): 1})


def valuation(f: LaurentPolynomial, order: MonomialOrder = LEX) -> Exponent:
    """Order-minimal exponent of the support; undefined for zero."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no valuation")
    return min((e for e, _ in f.terms), key=order.key)


# -- packed integer rows -------------------------------------------------------
#
# A row is an integer Laurent polynomial whose exponents have been mapped to
# slots 0, 1, 2, ... by an order-respecting index; it is packed into the one
# Python int  sum(c_s << (width * s))  (Kronecker substitution).  Every
# |c_s| stays below 2^(width - 1), so the slots are balanced signed digits
# and the packing is a bijection: the lowest nonzero slot is the lowest set
# bit, read as a signed digit, and products and integer combinations of
# packed ints are those of the rows.  Rows are stored shifted down to that
# slot, with its index kept beside them.  Each row carries an integer bound on
# its largest |coefficient|, updated before every multiply and elimination
# step; a bound that would reach 2^(width - 1) first tightens to the exact
# maximum after dividing out the row's content, and otherwise raises
# _Overflow so that the caller repacks at twice the width.

_WIDTH = 32  # initial slot width in bits; always a multiple of 8


class _Overflow(Exception):
    """A row bound would reach the slot width."""


def _offset(width: int, n: int) -> int:
    """2^(width - 1) in each of n slots, built from bytes in linear time."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")


# Adding the offset 2^(width - 1) to every slot makes each digit d + 2^(width
# - 1), a nonnegative width-bit number; flipping each slot's top bit (XOR with
# the offset) turns that into d mod 2^width, the digit's two's complement.  So
# (row + off) ^ off lays the digits out as machine integers, and 32- and
# 64-bit slots go through an array in one C-level pass each way on a
# little-endian host; a big-endian one takes the byte loop at every width.
_ARRAY_CODES = {8 * array(c).itemsize: c for c in "ilq" if sys.byteorder == "little"}


def _pack(values, width: int) -> int:
    """Pack slot values (each |v| < 2^(width-1)) into one int."""
    off = _offset(width, len(values))
    code = _ARRAY_CODES.get(width)
    if code is None:
        step, half = width // 8, 1 << (width - 1)
        data = b"".join((v + half).to_bytes(step, "little") for v in values)
        return int.from_bytes(data, "little") - off
    return (int.from_bytes(array(code, values).tobytes(), "little") ^ off) - off


def _unpack(row: int, width: int) -> list[int]:
    """Signed slot values of a packed row, low slot first."""
    step = width // 8
    n = abs(row).bit_length() // width + 1
    off = _offset(width, n)
    code = _ARRAY_CODES.get(width)
    if code is None:
        half = 1 << (width - 1)
        data = (row + off).to_bytes(n * step, "little")
        return [
            int.from_bytes(data[i:i + step], "little") - half
            for i in range(0, len(data), step)
        ]
    return array(code, ((row + off) ^ off).to_bytes(n * step, "little")).tolist()


def _primitive(row: int, width: int) -> tuple[int, int]:
    """The row divided by its content, and its exact largest |coefficient|."""
    values = _unpack(row, width)
    g = math.gcd(*values)
    return row // g, max(map(abs, values)) // g


def _reduce(pivots: dict, row: int, bound: int, width: int, lead: int):
    """Reduce a nonzero packed row against the pivots, fraction-free.

    The row's slot 0 sits at slot ``lead`` of the index; rows are kept
    shifted down to their lowest nonzero slot, so no operation pays for
    the zero slots below it.  ``pivots`` maps a lead slot to (row, lead
    coefficient, bound).  A step is (a/g)*row - (c/g)*pivot with a and c
    the two lead coefficients and g = gcd(a, c), so every intermediate row
    is a positive multiple of the row less a combination of pivots.
    Returns the lead slot of the installed row, or None when the row
    reduces to zero.  A row that was stepped is installed primitive.
    Raises _Overflow when a step would outgrow the width even from the
    row's primitive part and exact bound.
    """
    half, mask = 1 << (width - 1), (1 << width) - 1
    stepped = exact = False
    while row:
        zeros = ((row & -row).bit_length() - 1) // width
        if zeros:
            row >>= zeros * width
            lead += zeros
        pivot = pivots.get(lead)
        if pivot is None and stepped:
            row, bound = _primitive(row, width)
        c = row & mask
        if c >= half:
            c -= mask + 1
        if pivot is None:
            pivots[lead] = (row, c, bound)
            return lead
        prow, a, pbound = pivot
        g = math.gcd(a, c)
        a, c = a // g, c // g
        stepped_bound = abs(a) * bound + abs(c) * pbound
        if stepped_bound >= half:
            if exact:
                raise _Overflow
            row, bound = _primitive(row, width)
            exact = True
            continue
        row = a * row - c * prow
        bound = stepped_bound
        stepped, exact = True, False
    return None


def _rows(polys, slot):
    """Each nonzero polynomial as its primitive row: the polynomial divided
    by the gcd of its coefficients.  Yields (lead slot, (slot - lead,
    coefficient) terms, sum of |coefficients|) with slots from ``slot``, an
    order-respecting index of the exponents."""
    for f in polys:
        if f.is_zero:
            continue
        g = math.gcd(*(c for _, c in f.terms))
        row = {slot(e): c // g for e, c in f.terms}
        lead = min(row)  # the valuation, since slots increase with the order
        yield lead, [(s - lead, c) for s, c in row.items()], sum(map(abs, row.values()))


# -- subspaces ----------------------------------------------------------------

@dataclass(frozen=True)
class LaurentSubspace:
    """Finite-dimensional span of Laurent polynomials, held as the basis that
    :func:`span` builds: primitive integer rows with distinct lex leads, so
    independent by construction."""

    ambient_dim: int
    basis: tuple[LaurentPolynomial, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def span(dim: int, polys) -> LaurentSubspace:
    """Subspace spanned by arbitrary polynomials, echelonized to a basis.

    The basis is level 1 of :func:`_echelon_levels` with the lex ranks of
    the distinct exponents as slots, so a pivot's lead is the lex-minimal
    exponent of its row.  Input rows are primitive and stepped rows are
    installed primitive, so every basis row is primitive.
    """
    columns = sorted({e for f in polys for e, _ in f.terms})
    rank = {e: s for s, e in enumerate(columns)}
    pivots, width = next(_echelon_levels(polys, rank.__getitem__))
    if not pivots:
        raise ValueError("the zero subspace is not representable")
    return LaurentSubspace(dim, tuple(
        laurent(dim, dict(zip(columns[lead:], _unpack(pivots[lead][0], width))))
        for lead in sorted(pivots)
    ))


def monomial_subspace(a: SupportSet) -> LaurentSubspace:
    if not a.points:
        raise ValueError("monomial subspace needs a nonempty support")
    return span(a.ambient_dim, [monomial(a.ambient_dim, e) for e in a.sorted_points()])


def product(l1: LaurentSubspace, l2: LaurentSubspace) -> LaurentSubspace:
    """Span of all pairwise basis products; a product checks the dimensions."""
    return span(l1.ambient_dim, [f * g for f in l1.basis for g in l2.basis])


# budgets: the power levels reject inputs past them before any level is built
MAX_KMAX = 64
MAX_LEVEL_CELLS = 4096 * 4096


def _level_box(l: LaurentSubspace, order: MonomialOrder, k_max: int) -> LevelBox:
    """The slot index of L's power levels, within both budgets.

    The cell budget charges the box's slots times a bound on the rank of
    any level, min(slots, C(dim L + k_max - 1, k_max)): each pivot row is
    at most one box long, so this bounds the rows a level holds.
    """
    if not 1 <= k_max <= MAX_KMAX:
        raise ValueError(f"k_max must be in 1..{MAX_KMAX}")
    box = level_box([e for f in l.basis for e, _ in f.terms], k_max, order.grading)
    rank = min(box.slots, math.comb(l.dim + k_max - 1, k_max))
    if box.slots * rank > MAX_LEVEL_CELLS:
        raise ValueError(
            f"power levels would need {box.slots} slots x {rank} rows = "
            f"{box.slots * rank} cells; the limit is {MAX_LEVEL_CELLS}"
        )
    return box


def _power_levels(l: LaurentSubspace, order: MonomialOrder, k_max: int):
    """The level box, L's level-1 leads S_1 if they generate every level up
    to k_max, and the lead slots of L^k for k = 1..k_max as (k, slots) pairs.

    Three conditions make the leads of L^k the sumset kS_1 for every
    k <= k_max, whose slots ``semigroup._levels`` builds on the same box
    with no elimination; S_1 is returned then, and the sumsets are built
    only as they are read.  Past the first, the route is the rank of the
    relation lattice of the leads S_1 = {v_1, ..., v_d} of L's echelon
    basis in ``order``, level 1 of :func:`_echelon_levels`: the m in Z^d
    with sum(m_i) = 0 and sum(m_i v_i) = 0, the kernel of the row of ones
    and the rows of lead coordinates, of rank d - 1 - (rank of the leads'
    differences) >= d - 1 - n for leads in Z^n.  So the rank is 2 or more
    when d > n + 2; otherwise one :func:`_hull.null_space` gives a basis.

    - L is a monomial space: dim L = |A| for A = supp L, the union of the
      basis supports, and S_1 = A.  A is the same for every basis of L:
      each of its exponents is a term of some element of L, so of some
      basis element.  L lies in span{x^a : a in A}, of dimension |A|, so
      dim L = |A| makes the two equal.  Then L^k is spanned by the
      monomials x^b, b in kA, and distinct monomials cannot cancel, so
      every slot of kA is a lead.  A basis of monomials is the case where
      each support is one point: independent monomials have distinct
      exponents.
    - The relation lattice has rank 0: S_1 is affinely independent.  A
      product of k basis rows with multiplicities m has lead sum(m_i v_i),
      because the valuation is additive.  Two multisets of size k with
      equal lead sums give sum((m_i - m'_i) v_i) = 0 with
      sum(m_i - m'_i) = 0, so m = m'.  Products with distinct leads are
      independent, and they span L^k, so dim L^k = C(d + k - 1, k), and
      an element of L^k has the lead of one of them: no combination of
      rows with distinct leads cancels the least.  So the leads of L^k
      are kS_1.
    - The relation lattice has rank 1: the relations are the multiples of
      the one primitive m that the null space returns.  Write m = m+ - m-
      with m+ and m- the multisets of its positive and negative parts, of
      size D, the degree of m, and g^a for the product of the echelon rows
      with multiplicities a.  Two multisets a, a' of size k with equal lead
      sums differ by a relation t m, and a - a' has positive part at most
      a, so |t| D <= k.  Two cases take the sumsets.

      * D > k_max.  Then t = 0 for every k <= k_max: the products of k
        rows have distinct leads, and the argument above gives the leads
        kS_1 for every level reported, though not necessarily beyond.
      * D <= k_max, and level D, drawn with levels 2..D - 1 from the
        :func:`_echelon_levels` that built level 1, has exactly
        C(D + d - 1, D) - 1 leads.  At k = D only t = 0 and t = +-1 are
        possible, so m+ and m- are the one pair of multisets with equal
        lead sums, and |D S_1| = C(D + d - 1, D) - 1.  The leads of L^D
        contain D S_1, each point the lead of a product, so the count
        makes them D S_1, and one product g^b for each point b of D S_1
        is a basis of L^D: distinct leads make them independent, and
        there are dim L^D of them.  With G^a = g^a / lc(g^a), X = G^(m+)
        and Y = G^(m-), X - Y lies in L^D and its lead cancels, so
        X - Y = sum(e_b g^b) over that basis with v(g^b) >= v(X - Y) >
        v(g^(m+)) for every e_b != 0: no combination of rows with distinct
        leads cancels the least.  This makes the g_i t a Khovanskii
        (SAGBI) basis of the algebra they generate, by the subduction
        criterion (Robbiano-Sweedler, LNM 1430, 1990; Sturmfels, *Groebner
        Bases and Convex Polytopes*, Thm 11.4), whose toric ideal, of the
        points (1, v_i), is here generated by y^(m+) - y^(m-): it is
        spanned by binomials y^a - y^a' with a - a' = t m, t > 0
        (Sturmfels, Lemma 4.1), and such a binomial is
        y^w (y^(t m+) - y^(t m-)) with w = a - t m+ >= 0.  The criterion's
        proof in this case: let h = sum(e_a g^a) in L^k, over multisets of
        size k, and mu the least lead v(g^a) with e_a != 0.  If v(h) > mu,
        the terms at mu cancel, sum(e_a lc(g^a)) = 0 over them, so their
        sum is sum(e_a lc(g^a) (G^a - G^a0)) for one a0 of them.  Write
        a - a0 = t m, t > 0 (else swap): a = w + t m+ and a0 = w + t m-,
        so G^a - G^a0 = G^w (X - Y) sum(X^i Y^(t-1-i)).  Putting in the
        expansion of X - Y turns the terms at mu into multiples of the
        products G^w X^i Y^(t-1-i) g^b, of k rows, with leads
        v(g^a) - v(g^(m+)) + v(g^b) > mu.  So h has a representation with
        a larger least lead; there are finitely many leads, so at last
        v(h) = mu, a point of kS_1, and each point of kS_1 is the lead of
        a product.  So the leads of L^k are kS_1 for every k.  A level D
        with more leads has one outside D S_1, and L is echelonized.

    Every other L, a rank-1 lattice that fails the count or a lattice of
    rank 2 or more, is echelonized by :func:`_echelon_levels`, continuing
    from the levels it has built (1, or 1..D), and S_1 is None.  There a
    multiset M of k basis indices, written as its sorted index tuple,
    stands for the product row(M) of those basis rows; level k is spanned
    by all of them.  Each M is built once, from its prefix M[:-1] (the rule
    of :func:`_power_level`), and only when that prefix installed a pivot
    at level k - 1.  Rows are packed in the level box, and a product is a sum
    of shifted copies of the parent, one per term of the basis row.  The
    basis rows are divided by their content once (:func:`_rows`); rescaling
    a basis element does not change any span.
    """
    box = _level_box(l, order, k_max)
    leads = {e for f in l.basis for e, _ in f.terms}  # S_1 of a monomial space
    if len(leads) != l.dim:
        echelon = (pivots for pivots, _ in _echelon_levels(l.basis, box.slot))
        levels = [next(echelon)]
        leads = [box.exponent(s, 1) for s in levels[0]]
        # d > n + 2 leads in Z^n have relations of rank 2 or more, with no elimination
        relations = l.dim <= len(leads[0]) + 2 and _hull.null_space([(1,) * l.dim, *zip(*leads)], l.dim)
        certified = relations == []
        if relations and len(relations) == 1:
            degree = sum(x for x in relations[0] if x > 0)
            certified = degree > k_max
            if not certified:
                levels += islice(echelon, degree - 1)
                certified = len(levels[-1]) == math.comb(degree + l.dim - 1, degree) - 1
        if not certified:
            levels += islice(echelon, k_max - len(levels))
            return box, None, enumerate(levels, 1)
    return box, leads, enumerate(semigroup._levels(box, leads, k_max), 1)


def _echelon_levels(polys, slot):
    """Echelonize the products of k of the :func:`_rows` of ``polys`` for
    k = 1, 2, ..., yielding each level's pivots and slot width.

    Level 1 is the products of () with each row, in order: the echelon
    form of their span.  The pivots map each lead slot, in installation
    order, to its row (see :func:`_reduce`).  A level whose bound would
    outgrow the width is built again at twice the width from its parents,
    repacked; the levels below it stand.
    """
    basis = list(_rows(polys, slot))
    top, width = max((l1 for _, _, l1 in basis), default=0), _WIDTH
    while top >> (width - 1):
        width *= 2
    parents = {(): (1, 0, 1)}
    while True:
        pivots: dict = {}
        try:
            parents = _power_level(parents, basis, width, pivots)
        except _Overflow:
            parents = {
                key: (_pack(_unpack(row, width), 2 * width), lead, bound)
                for key, (row, lead, bound) in parents.items()
            }
            width *= 2
            continue
        yield pivots, width


def _power_level(parents: dict, basis: list, width: int, pivots: dict):
    """Echelonize the products key + (g,) of each parent with g >= key[-1].

    Rows are (packed row from its lead, lead slot, bound), keyed by their
    sorted basis-index tuple.  The products are reduced into ``pivots``
    (see :func:`_reduce`); returns the raw rows that installed a pivot, in
    installation order.  A parent whose product bound would outgrow the
    width is replaced in ``parents`` by its primitive part, which spans
    the same line.

    Every multiset M = key + (g,) is built at most once, from its prefix.
    Parents arrive in lex order of their keys (level 1 has the one key
    ()), so products are reduced, and installed, in lex order of M too.
    Lex order on sorted tuples of one length compares the multiplicities at
    the smallest index where they differ, the larger first; adding one
    index to both sides keeps that comparison, so P < Q implies
    P + {g} < Q + {g}.  The skipped products add nothing to the span:
    claim, for every multiset M of level k, row(M) is a combination of the
    rows installed at level k up to M in lex order.  If M's prefix P
    installed, M was reduced in its turn.  Otherwise, by the claim at
    level k - 1, row(P) is a combination of installed rows row(Q), Q < P,
    so row(M) = row(P) b_g is one of the row(Q + {g}) with Q + {g} < M,
    and the claim for those, by induction along the lex order, gives it
    for M.  So level k spans L^k, and the pivots' leads, which depend only
    on the span, are the valuations of L^k.
    """
    half = 1 << (width - 1)
    shifted = [[(s * width, c) for s, c in terms] for _, terms, _ in basis]
    installed = {}
    for key, (prow, plead, pbound) in parents.items():
        for g in range(key[-1] if key else 0, len(basis)):
            blead, _, l1 = basis[g]
            bound = pbound * l1
            if bound >= half:
                prow, pbound = _primitive(prow, width)
                parents[key] = (prow, plead, pbound)
                bound = pbound * l1
                if bound >= half:
                    raise _Overflow
            row = 0
            for shift, c in shifted[g]:
                row += (prow << shift) * c
            # the product's lowest slot holds the product of the two leads
            lead = plead + blead
            if _reduce(pivots, row, bound, width, lead) is not None:
                installed[key + (g,)] = (row, lead, bound)
    return installed


def hilbert_function(l: LaurentSubspace, k_max: int) -> list[tuple[int, int]]:
    """Dimension of L^k for k = 1..k_max."""
    _, _, levels = _power_levels(l, LEX, k_max)
    return [(k, len(slots)) for k, slots in levels]


def semigroup_of_subspace(
    l: LaurentSubspace, order: MonomialOrder = LEX, k_max: int = 8
) -> dict[int, SupportSet]:
    """Valuation images of L's powers, as the level dict {k: v(L^k)}."""
    box, _, levels = _power_levels(l, order, k_max)
    return {
        k: support_set(l.ambient_dim, [box.exponent(s, k) for s in slots])
        for k, slots in levels
    }


def newton_okounkov_body(
    l: LaurentSubspace, order: MonomialOrder = LEX, k_max: int = 8
) -> LatticePolytope:
    """Newton body of the valuation semigroup of L, at finite level: the
    hull of the levels S_k / k of :func:`semigroup_of_subspace`.

    If the levels are the sumsets kS_1 (:func:`_power_levels`), the body
    is conv(S_1), hulled directly: a point (a_1 + ... + a_k) / k of S_k / k
    is a convex combination of points of S_1.  No level is built.

    Otherwise only the levels k with 2k > k_max are hulled.  If s is a lead
    of level j, then m s is a lead of level m j, the lead of the m-th power
    of s's element, since the valuation is additive; and s / j = m s / m j.
    Doubling j lands in (k_max / 2, k_max], so the lower levels add no
    point.  Each level is read from its lead slots directly, keeping only
    the lowest and the highest slot of each fiber, the slots that share
    every digit but the leading one (``semigroup.LevelBox``): one value of
    slot % (slots // radices[0]).  A fiber is a line, parallel to the first
    axis under lex, and to the last under graded lex, where the first n - 1
    coordinates are fixed and the grade rises with the last one.  Every
    other lead of the fiber lies on the segment between those two, so the
    hull is unchanged.
    """
    geometry.check_dim(l.ambient_dim)  # the hull's range, before any level is built
    box, leads, levels = _power_levels(l, order, k_max)
    if leads is not None:
        return geometry._polytope(1, leads, l.ambient_dim)
    cells = box.slots // box.radices[0]
    faces = []
    for k, slots in levels:
        if 2 * k <= k_max:
            continue
        low, high = {}, {}
        for s in sorted(slots):
            fiber = s % cells
            low.setdefault(fiber, s)
            high[fiber] = s
        ends = {*low.values(), *high.values()}
        faces.append((k, [box.exponent(s, k) for s in ends]))
    return geometry._polytope(*geometry._union(faces), l.ambient_dim)


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
    """Check Newton(L1) + Newton(L2) inside Newton(L1 L2) at equal level: the
    sum is the hull of the vertex sums, so they are tested; no sum is built."""
    l12 = product(l1, l2)
    geometry.check_dim(l1.ambient_dim)
    for l in (l1, l2, l12):
        _level_box(l, order, k_max)
    b1 = newton_okounkov_body(l1, order, k_max)
    b2 = newton_okounkov_body(l2, order, k_max)
    b12 = newton_okounkov_body(l12, order, k_max)
    sums = (tuple(x + y for x, y in zip(u, v)) for u in b1.vertices for v in b2.vertices)
    holds = all(map(b12.contains, sums))
    return SuperadditivityReport(holds, b1.vertices, b2.vertices, b12.vertices)
