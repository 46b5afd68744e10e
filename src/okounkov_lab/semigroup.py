"""Sumset powers, lattice-point completions, graded semigroup slices in
N + Z^n, difference-lattice indices via Smith normal form, and the density
sequence of the slice a support generates against its Newton body.

A graded semigroup is represented by its finite sections S_1..S_kmax; its
asymptotics are read off at finite scale.  The density sequence of a
support A counts its levels kA on packed integers without building them,
and takes the Newton body conv(A) and the difference lattice from A alone
(:func:`density_sequence` proves both).
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


@dataclass(eq=False)
class GradedSemigroupSlice:
    """Levelwise sections S_1..S_kmax of a graded semigroup in N + Z^n."""

    ambient_dim: int
    levels: dict[int, SupportSet]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("slice needs at least level 1")
        ks = sorted(self.levels)
        if ks != list(range(1, len(ks) + 1)):
            raise ValueError("levels must be contiguous from 1")
        for k, s in self.levels.items():
            if s.ambient_dim != self.ambient_dim:
                raise ValueError("level dimension mismatch")
            if not s.points:
                raise ValueError(f"level {k} is empty; the semigroup is not graded")

    @property
    def k_max(self) -> int:
        return max(self.levels)


def sumset(a: SupportSet, b: SupportSet) -> SupportSet:
    """A + B: the coordinate columns of the larger set, shifted by each point
    of the smaller one, zipped back into points."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("sumset needs equal dimensions")
    if len(a) < len(b):
        a, b = b, a
    cols = list(zip(*a.points))
    pts: set = set()
    for q in b.points:
        pts.update(zip(*[[x + c for x in col] for col, c in zip(cols, q)]))
    return SupportSet(a.ambient_dim, frozenset(pts))


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
    """k-fold sumset by iterated pairwise sums with deduplication."""
    _check_level_budget(a, k, "k")
    out = a
    for _ in range(k - 1):
        out = sumset(out, a)
    return out


def completion(a: SupportSet) -> SupportSet:
    """All lattice points of the convex hull; idempotent.

    A hull whose bounding box holds more than
    ``geometry.MAX_LATTICE_CANDIDATES`` points is rejected before any is
    tested.
    """
    return geometry.lattice_points(geometry.polytope_of_support(a))


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Nonnegative diagonal of the Smith normal form of an integer matrix.

    Elementary row/column operations over Z; the returned divisors satisfy
    d_1 | d_2 | ... and their product over the nonzero entries is the index
    of the row lattice when the rank is full.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    divisors = []
    top = 0
    while top < min(nr, nc):
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, nr):
            q = m[i][top] // pivot
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
            if m[i][top] != 0:
                dirty = True
        for j in range(top + 1, nc):
            q = m[top][j] // pivot
            if q:
                for row in m:
                    row[j] -= q * row[top]
            if m[top][j] != 0:
                dirty = True
        if dirty:
            continue  # remainders became new smaller entries; repeat
        # enforce divisibility of the rest of the block by the pivot
        offender = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [x + y for x, y in zip(m[top], m[offender])]
            continue
        divisors.append(abs(pivot))
        top += 1
    divisors += [0] * (min(nr, nc) - len(divisors))
    return divisors


def _difference_rows(s: SupportSet) -> set[tuple[int, ...]]:
    base = min(s.points)
    return {tuple(x - y for x, y in zip(p, base)) for p in s.points}


def _row_lattice_index(rows: set[tuple[int, ...]], n: int):
    """Index in Z^n of the lattice the rows span, or INFINITE."""
    # zero and repeated rows span nothing new, so the index is the same
    rows.discard((0,) * n)
    if not rows:
        return INFINITE
    nonzero = [d for d in smith_normal_form(sorted(rows)) if d != 0]
    if len(nonzero) < n:
        return INFINITE
    return math.prod(nonzero)


def difference_lattice_index(sets: list[SupportSet]):
    """Index in Z^n of the lattice generated by within-set differences.

    Returns the integer index when the differences span a finite-index
    subgroup, else :data:`INFINITE`.  Index 1 means ample at these levels.
    The first set's differences are reduced alone first: when they already
    span Z^n, no further row can change the lattice.  Otherwise one Smith
    normal form runs over the rows of all sets, so there are at most two.
    """
    if not sets:
        raise ValueError("need at least one support set")
    n = sets[0].ambient_dim
    for s in sets:
        if s.ambient_dim != n:
            raise ValueError("support sets of mixed dimensions")
        if not s.points:
            raise ValueError("support sets must be nonempty")
    first = _row_lattice_index(_difference_rows(sets[0]), n)
    if first == 1 or len(sets) == 1:
        return first
    return _row_lattice_index(set().union(*map(_difference_rows, sets)), n)


def slice_of_support(a: SupportSet, k_max: int) -> GradedSemigroupSlice:
    """The slice generated by a support set: level k is the k-fold sumset."""
    _check_level_budget(a, k_max, "k_max")
    levels = {1: a}
    for k in range(2, k_max + 1):
        levels[k] = sumset(levels[k - 1], a)
    return GradedSemigroupSlice(a.ambient_dim, levels)


@dataclass(frozen=True)
class DensityRow:
    k: int
    ratio: Fraction  # #(S_k) / k^n
    volume: Fraction  # exact volume of the Newton-body approximation at k


@dataclass(frozen=True)
class DensityReport:
    rows: tuple[DensityRow, ...]
    ample: bool
    index: object  # int, or INFINITE when the difference lattice is degenerate

    @property
    def final_ratio(self) -> Fraction:
        return self.rows[-1].ratio

    @property
    def final_volume(self) -> Fraction:
        return self.rows[-1].volume


def density_sequence(a: SupportSet, k_max: int) -> DensityReport:
    """Ratios #(kA)/k^n for k = 1..k_max against the Newton-body volume of
    the slice A generates, non-ample flagged.

    The levels S_k = kA are counted, not built as points.  A is shifted by
    its coordinatewise minimum m into the nonnegative orthant, and each
    point is packed into one integer in mixed radix r_i = k_max * span_i + 1.
    A point of S_k - k m has coordinates in 0..k * span_i <= r_i - 1, so
    adding codes never carries and the packing is injective on every level:
    S_k's codes are {e + c} over S_{k-1}'s codes e and A's codes c, from
    S_0 = {0}.

    Both other columns are read off A alone:

    - Volume.  The Newton body at k is conv(S_1 / 1, ..., S_k / k).  A point
      (a_1 + ... + a_j) / j of S_j / j is a convex combination of points of
      A, so S_j / j lies in conv(A) = conv(S_1), and the body is conv(A) at
      every k.  A is hulled once.
    - Index.  kA - kA and A - A generate the same lattice: a difference
      (a_1 + ... + a_k) - (b_1 + ... + b_k) is the sum of the a_i - b_i, and
      a - b = (a + (k - 1) a_0) - (b + (k - 1) a_0) for any a_0 in A.  So
      every level's differences, and all levels' together, span the lattice
      of A's, and the index is ``difference_lattice_index([a])``.

    The budget is checked first (`_check_level_budget`), then A is hulled,
    which rejects an ambient dimension above 4, and only then are the levels
    counted.
    """
    _check_level_budget(a, k_max, "k_max")
    n = a.ambient_dim
    volume = geometry.polytope_of_support(a).volume
    index = difference_lattice_index([a])
    codes = [0] * len(a)
    weight = 1
    for col in zip(*a.points):
        low = min(col)
        codes = [e + weight * (x - low) for e, x in zip(codes, col)]
        weight *= k_max * (max(col) - low) + 1
    level, rows = {0}, []
    for k in range(1, k_max + 1):
        level = {e + c for c in codes for e in level}
        rows.append(DensityRow(k, Fraction(len(level), k**n), volume))
    return DensityReport(tuple(rows), index == 1, index)
