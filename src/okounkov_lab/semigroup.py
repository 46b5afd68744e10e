"""Sumset powers, lattice-point completions, graded semigroup slices in
N + Z^n as level dicts, the one lattice reduction (:func:`hermite_basis`, a
row Hermite normal form), difference-lattice indices via a Smith normal
form built from it, and the density sequence of the slice a support
generates against its Newton body.

A graded semigroup is represented by its finite sections, the dict
{k: S_k} for k = 1..kmax; its asymptotics are read off at finite scale.
Its levels are packed once, in :class:`LevelBox`: each point of a level is
one integer slot, and the slots of the level generated by a set are the
sums of the previous level's slots with the set's.  :func:`sumset_power`,
:func:`slice_of_support` and :func:`density_sequence` build A's levels kA
that way (`_levels`); ``algebra`` takes a subspace's power levels from
it too when they are the sumsets of its level-1 leads, and indexes
every other subspace's rows by the same box.  The density sequence
counts the levels without decoding them, and takes the Newton body
conv(A) and the difference lattice from A alone (:func:`density_sequence`
proves both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import geometry
from .geometry import SupportSet

INFINITE = math.inf
# budgets: sumset levels reject inputs past them before any level is built
MAX_LEVEL = 256
MAX_PAIR_SUMS = 1_000_000


@dataclass(frozen=True)
class LevelBox:
    """Order-respecting slot index on the levels S_1..S_k_max of a graded
    semigroup generated by a finite set of points.

    Points are shifted by the generators' coordinatewise minimum ``low``
    and divided by ``stride``, the gcd of each shifted coordinate over the
    generators, so a level-k point e maps to (e - k*low) / stride in the box
    [0, k_max * span].  A slot reads that point's digits in mixed radix,
    the first most significant: its coordinates under lex; under graded lex
    its grade (``grading`` times the stride, over their gcd: a positive
    rescaling, the same order), then its first n - 1 coordinates, which
    with the grade fix the last one.  Each digit is linear, and at most k
    times its generators' maximum on a level k <= k_max, below its radix
    k_max * max + 1, so adding slots never carries: the index is additive
    on the box, a level's slots are the sums of the previous level's with
    the generators', and, within a level, they increase with the order.
    """

    low: tuple[int, ...]
    stride: tuple[int, ...]
    radices: tuple[int, ...]
    grading: tuple[int, ...] | None
    slots: int

    def slot(self, point: tuple[int, ...]) -> int:
        """The slot of a level-1 point."""
        point = [(x - lo) // d for x, lo, d in zip(point, self.low, self.stride)]
        s = 0
        for x, radix in zip(_digits(point, self.grading), self.radices):
            s = s * radix + x
        return s

    def exponent(self, slot: int, k: int) -> tuple[int, ...]:
        """The level-k point in a slot."""
        digits = []
        for radix in reversed(self.radices):
            slot, x = divmod(slot, radix)
            digits.append(x)
        digits.reverse()
        if self.grading is not None:
            grade, *digits = digits
            rest = grade - sum(w * x for w, x in zip(self.grading, digits))
            digits.append(rest // self.grading[-1])
        return tuple(k * lo + d * x for x, lo, d in zip(digits, self.low, self.stride))


def _digits(point, grading):
    """A box point's digits, most significant first (:class:`LevelBox`)."""
    if grading is None:
        return point
    return [sum(w * x for w, x in zip(grading, point)), *point[:-1]]


def level_box(points, k_max: int, grading: tuple[int, ...] | None = None) -> LevelBox:
    """The slot index of the levels 1..k_max that ``points`` generate, one
    radix per digit: lex without a grading, graded lex with one."""
    low = tuple(map(min, zip(*points)))
    shifted = [[x - lo for x, lo in zip(p, low)] for p in points]
    stride = tuple(math.gcd(*col) or 1 for col in zip(*shifted))
    if grading is not None:
        if len(grading) != len(low):
            raise ValueError("grading length does not match the exponent")
        scaled = [w * d for w, d in zip(grading, stride)]
        grading = tuple(w // math.gcd(*scaled) for w in scaled)
    digits = [_digits([x // d for x, d in zip(p, stride)], grading) for p in shifted]
    radices = tuple(k_max * top + 1 for top in map(max, zip(*digits)))
    return LevelBox(low, stride, radices, grading, math.prod(radices))


def _levels(box: LevelBox, points, k_max: int):
    """The slot sets of S_1..S_k_max = A, 2A, ..., one at a time, A the
    level-1 ``points``: S_k is every sum of a slot of S_{k-1} with one of
    A's, from S_0 = {0}.  Bare points, not a :class:`SupportSet`, so that
    ``algebra`` can pass a subspace's exponents in any dimension, 0 too."""
    slots = [box.slot(p) for p in points]
    level = {0}
    for _ in range(k_max):
        level = {e + c for c in slots for e in level}
        yield level


def _check_level_budget(a: SupportSet, k: int, name: str) -> None:
    """Reject ``k`` outside 1..MAX_LEVEL, or levels 1..k that may need more
    than MAX_PAIR_SUMS pair sums.

    Level j holds at most min(cells, multisets) points: the lattice points of
    j times the bounding box of ``a``, and the multisets of j points of
    ``a``; level j + 1 costs ``len(a)`` pair sums per point of level j.
    """
    if not 1 <= k <= MAX_LEVEL:
        raise ValueError(f"{name} must be in 1..{MAX_LEVEL}")
    spans = [max(c) - min(c) for c in zip(*a.points)]
    pairs = len(a) * sum(
        min(math.prod(j * s + 1 for s in spans), math.comb(len(a) + j - 1, j))
        for j in range(1, k)
    )
    if pairs > MAX_PAIR_SUMS:
        raise ValueError(
            f"sumset levels 1..{k} would need up to {pairs} pair sums; "
            f"the limit is {MAX_PAIR_SUMS}"
        )


def sumset_power(a: SupportSet, k: int) -> SupportSet:
    """k-fold sumset: the last of A's levels, decoded from its slots."""
    _check_level_budget(a, k, "k")
    box = level_box(a.points, k)
    for level in _levels(box, a.points, k):
        pass
    return SupportSet(a.ambient_dim, frozenset(box.exponent(s, k) for s in level))


def completion(a: SupportSet) -> SupportSet:
    """All lattice points of the convex hull; idempotent.

    A hull whose bounding box holds more than
    ``geometry.MAX_LATTICE_CANDIDATES`` points is rejected before any is
    tested.
    """
    return geometry.lattice_points(geometry.polytope_of_support(a))


def hermite_basis(vectors) -> list[tuple[int, ...]]:
    """Nonzero rows of the row Hermite normal form of the lattice that the
    integer vectors span: pivots positive and strictly right of the row
    above, every entry above a pivot in [0, pivot).  That form is unique
    (Cohen, *A Course in Computational Algebraic Number Theory*, 2.4), so
    the rows do not depend on the vectors' order.

    Each vector is inserted by Euclid steps against the row of each pivot
    column it meets; past the last but one column only its last entry is
    left, and the last pivot is the gcd of those.
    """
    rows: dict[int, list[int]] = {}
    last, n = 0, 0
    for v in vectors:
        n = len(v)
        for j in range(n - 1):
            if not v[j]:
                continue
            b = rows.get(j)
            if b is None:
                rows[j] = list(v) if v[j] > 0 else [-x for x in v]
                break
            q = v[j] // b[j]
            v = [x - q * y for x, y in zip(v, b)]
            if v[j]:  # now 0 < v[j] < b[j]: Euclid down to their gcd
                while v[j]:
                    q = b[j] // v[j]
                    b, v = v, [x - q * y for x, y in zip(b, v)]
                rows[j] = b
        else:
            last = math.gcd(last, v[-1])
    if last:
        rows[n - 1] = [0] * (n - 1) + [last]
    pivots = sorted(rows)
    basis = [rows[j] for j in pivots]
    for i, (j, row) in enumerate(zip(pivots, basis)):
        for upper in basis[:i]:
            q = upper[j] // row[j]
            if q:
                upper[:] = [x - q * y for x, y in zip(upper, row)]
    return [tuple(r) for r in basis]


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Nonnegative diagonal of the Smith normal form of an integer matrix:
    d_1 | d_2 | ..., zeros last, one entry per row or column, whichever are
    fewer.  The product of the nonzero entries is the index of the row
    lattice when the rank is full.

    Row and column Hermite forms (:func:`hermite_basis` of the rows, then
    of the columns) alternate until each row has one nonzero entry.  Each
    form is a unimodular change on one side that drops zero rows, so the
    nonzero invariant factors stay; from the second form on, the matrix is
    square, nonsingular and triangular.  The loop ends: a form leaves the
    top-left pivot p alone in its column, and the next form replaces p by
    the gcd of its row.  That is a proper divisor of p unless p divides the
    row, and then that form clears the row as well; row and column stay
    clear, and later forms act on the lower-right block alone.  A positive
    pivot falls only finitely often, so by induction on the blocks the
    loop ends.  A gcd/lcm pass over the diagonal then gives the chain.
    """
    if not rows or not rows[0]:
        return []
    m = hermite_basis(rows)
    while any(len(r) - r.count(0) > 1 for r in m):
        m = hermite_basis(zip(*m))
    divisors = [max(r) for r in m]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            d, e = divisors[i], divisors[j]
            divisors[i], divisors[j] = math.gcd(d, e), math.lcm(d, e)
    return divisors + [0] * (min(len(rows), len(rows[0])) - len(divisors))


def difference_lattice_index(a: SupportSet):
    """Index in Z^n of the lattice generated by the differences of A's points.

    Returns the integer index when the differences span a finite-index
    subgroup, else :data:`INFINITE`.  Index 1 means ample.  The differences
    from A's least point span that lattice, and one Smith normal form
    reduces them.
    """
    if not a.points:
        raise ValueError("support sets must be nonempty")
    base = min(a.points)
    rows = [tuple(x - y for x, y in zip(p, base)) for p in a.points if p != base]
    nonzero = [d for d in smith_normal_form(rows) if d != 0]
    if len(nonzero) < a.ambient_dim:
        return INFINITE
    return math.prod(nonzero)


def slice_of_support(a: SupportSet, k_max: int) -> dict[int, SupportSet]:
    """The slice A generates, as its levels {k: kA} for k = 1..k_max."""
    _check_level_budget(a, k_max, "k_max")
    box = level_box(a.points, k_max)
    return {
        k: SupportSet(a.ambient_dim, frozenset(box.exponent(s, k) for s in level))
        for k, level in enumerate(_levels(box, a.points, k_max), 1)
    }


@dataclass(frozen=True)
class DensityRow:
    k: int
    ratio: Fraction  # #(S_k) / k^n
    volume: Fraction  # exact volume of the Newton-body approximation at k


@dataclass(frozen=True)
class DensityReport:
    rows: tuple[DensityRow, ...]
    index: object  # int, or INFINITE when the difference lattice is degenerate

    @property
    def ample(self) -> bool:
        return self.index == 1

    @property
    def final_ratio(self) -> Fraction:
        return self.rows[-1].ratio

    @property
    def final_volume(self) -> Fraction:
        return self.rows[-1].volume


def density_sequence(a: SupportSet, k_max: int) -> DensityReport:
    """Ratios #(kA)/k^n for k = 1..k_max against the Newton-body volume of
    the slice A generates, non-ample flagged.

    The levels S_k = kA are counted, not built as points: each is a set of
    integer slots of A's :class:`LevelBox` (`_levels`).

    Both other columns are read off A alone:

    - Volume.  The Newton body at k is conv(S_1 / 1, ..., S_k / k).  A point
      (a_1 + ... + a_j) / j of S_j / j is a convex combination of points of
      A, so S_j / j lies in conv(A) = conv(S_1), and the body is conv(A) at
      every k.  A is hulled once.
    - Index.  kA - kA and A - A generate the same lattice: a difference
      (a_1 + ... + a_k) - (b_1 + ... + b_k) is the sum of the a_i - b_i, and
      a - b = (a + (k - 1) a_0) - (b + (k - 1) a_0) for any a_0 in A.  So
      every level's differences, and all levels' together, span the lattice
      of A's, and the index is ``difference_lattice_index(a)``.

    The budget is checked first (`_check_level_budget`), then A is hulled,
    which rejects an ambient dimension above 4, and only then are the levels
    counted.
    """
    _check_level_budget(a, k_max, "k_max")
    n = a.ambient_dim
    volume = geometry.polytope_of_support(a).volume
    index = difference_lattice_index(a)
    levels = _levels(level_box(a.points, k_max), a.points, k_max)
    rows = tuple(
        DensityRow(k, Fraction(len(level), k**n), volume)
        for k, level in enumerate(levels, 1)
    )
    return DensityReport(rows, index)
