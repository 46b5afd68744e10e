"""Mixed volumes of rational polytopes and the convex-geometric inequality
suite: Alexandrov-Fenchel, generalized Brunn-Minkowski and the planar
isoperimetric inequality.

The production algorithm is the mixed-area-measure recursion (Schneider,
*Convex Bodies: The Brunn-Minkowski Theory*, 2nd ed., section 5.1):
V(K1, ..., Kn) is (1/n) times the sum of h_K1(u) against the mixed area
measure of (K2, ..., Kn), whose atoms sit at the facet normals u of
K2 + ... + Kn and weigh the (n-1)-dimensional mixed volume of the faces
there.  A body enters as its integer face ``P.face``, (scale, sorted
integer vertices), and its faces travel in the same form.  A measure of
small faces finds its atoms without building their sum: by the positivity
criterion for mixed volumes (Schneider, Thm 5.1.8) an atom's faces hold
linearly independent vertex-pair directions, one per copy of a face, and
their cofactor row is the atom's normal (:func:`_measure`).  Larger faces,
with more than ``TRANSVERSALS_PER_POINT`` transversals per point of the
sum, hull the sum instead.  The planar level is closed form: with the
counterclockwise edges (dx, dy) of F2 as outward normals (dy, -dx),
V(F1, F2) is half the sum of h_F1(dy, -dx).  One Alexandrov-Fenchel check
needs two measures for its three mixed volumes.  An independent oracle,
:func:`mixed_volume_interp`, computes the same value by inclusion-exclusion
over the 2^n - 1 subset Minkowski sums.
"""

from __future__ import annotations

import decimal
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations

from . import _hull, geometry
from .geometry import LatticePolytope
from .radicals import compare_root_sums

# A measure of at least two distinct faces takes its normals from their
# transversals when they number at most this many per point of the faces'
# sum, and hulls the sum otherwise (crossover sweep: see _measure).
TRANSVERSALS_PER_POINT = 32


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of a checked inequality plus the verdict.

    For exact-rational checks lhs and rhs are Fractions; root-sum checks
    carry 17-significant-digit approximations (a float, or a ``Decimal``
    past double range) with the exact ingredients in the witness.  Witness
    values are exact: Fractions, and each body's ``vertices``.
    ``jsonio.wire`` gives every value its report form.
    """

    lhs: object
    rhs: object
    holds: bool
    witness: dict


def _as_bodies(t) -> tuple[LatticePolytope, ...]:
    bodies = tuple(t)
    if not bodies:
        raise ValueError("empty body tuple")
    n = bodies[0].ambient_dim
    if any(b.ambient_dim != n for b in bodies):
        raise ValueError("bodies of mixed ambient dimensions")
    if len(bodies) != n:
        raise ValueError(f"a mixed volume in R^{n} takes exactly {n} bodies")
    return bodies


def _grouped(bodies):
    """(face, multiplicity) pairs of the distinct bodies, in first-seen order."""
    return list(Counter(b.face for b in bodies).items())


def _without(grouped, i):
    """The grouped tuple with one copy of its i-th body removed."""
    return [(b, m - (k == i)) for k, (b, m) in enumerate(grouped) if m - (k == i)]


def _measure(rest, memo):
    """The mixed area measure of ``rest``, (face, multiplicity) pairs in R^n.

    Returns [(u, w)] with u an integer outward normal and w =
    V_{n-1}(pi_j F(K, u) for K in rest) / |u_j|, where F(K, u) is the face
    of K on which u.x is largest and pi_j drops a coordinate j with u_j != 0.
    The terms are homogeneous in u, so no Euclidean norm is needed, and
    only atoms with w != 0 are kept.  The vertices of K on the plane of u
    are the vertices of F(K, u), and pi_j is injective there, so every face
    stays a vertex set.  A face that is a single point makes its term 0.

    The candidate normals u come from one of three sources.

    * A rest of one full-dimensional top-level body reads that body's facet
      normals from ``memo`` (:func:`_top_level_memo`).
    * Transversals (:func:`_hull.transversal_normals`): m vertex pairs from
      each face of multiplicity m, n - 1 directions, whose cofactor row N is
      kept as u = N or u = -N when both ends of every chosen pair are on
      the face F(K, u).  These u are exactly the atoms.  If w(u) != 0, then
      by Schneider's Thm 5.1.8 every sub-multiset I of the faces F(K, u)
      has dim (sum of F(K, u), K in I) >= |I|.  The vertex-pair directions
      of those faces span the linear spaces of these sums, so by Rado's
      theorem on independent transversals some choice of m pairs from each
      F(K, u) has linearly independent directions.  They lie in the
      hyperplane u^perp, so their cofactor row is a nonzero multiple of u,
      and its ends lie on top faces: u is found.  Conversely, the pairs of
      a kept transversal are independent segments in the faces F(K, u),
      so w(u) != 0 by the same theorem.  A flat sum gives both normals of
      its hyperplane, and a sum of lower dimension has no independent
      transversal and so no atom.
    * Otherwise the sum of the distinct faces (K + K has the fan of K): its
      facet normals when it is full-dimensional, the only hull; both
      normals of its hyperplane, the null space of its echelon rows, when
      it is flat; and no atom when it is lower-dimensional.

    The last two give the same atoms and weights, up to the positive scale
    of u, which w absorbs, so reports do not depend on the choice.  The
    choice is cost: T, the number of transversals, is the product of
    C(C(|F|, 2), m) over the faces, against P, the product of |F|, the
    points of the sum that a hull takes.  Timing whole measures of random
    3D and 4D faces, transversals were 1.1-4x faster up to T = 32 P,
    about even at 45-60 P and slower past that.  A rest of one face hulls
    only that face; there transversals ran 0.5-0.8x in 4D and 0.4-1.45x in
    3D.  A sum with sum(|F| - 1) < n cannot be full-dimensional, so the
    hull path builds no hull; for two edges in 3D, the commonest rest under
    large 4D bodies, its echelon rows were 1.5x faster than a batch.  So
    transversals serve rests of at least two distinct faces whose sum can
    be full-dimensional and T <= ``TRANSVERSALS_PER_POINT`` P.
    ``memo`` also maps the multiset of projected faces to their mixed
    volume.
    """
    n = sum(m for _, m in rest) + 1
    normals = None
    if len(rest) == 1:
        normals = memo.get(rest[0][0])
    else:
        sizes = [len(pts) for (_, pts), _ in rest]
        transversals = math.prod(math.comb(math.comb(k, 2), m) for k, (_, m) in zip(sizes, rest))
        full = sum(sizes) - len(sizes) >= n  # the sum can be full-dimensional
        if full and transversals <= TRANSVERSALS_PER_POINT * math.prod(sizes):
            normals = _hull.transversal_normals([(pts, m) for (_, pts), m in rest])
    if normals is None:
        _, pts = geometry._sum_points([f for f, _ in rest], n)
        rows = [r for _, r in _hull.echelon(_hull._sub(p, pts[0]) for p in pts[1:])]
        if len(rows) == n:
            normals = [a for a, _ in _hull.hull_of_lifted(pts, n).planes]
        elif len(rows) == n - 1:
            (a,) = _hull.null_space(rows, n)
            normals = [a, tuple(-x for x in a)]
        else:
            return []
    out = []
    for u in normals:
        j = next(i for i, x in enumerate(u) if x)
        faces: Counter = Counter()
        for (s, pts), m in rest:
            heights = [_hull._dot(u, p) for p in pts]
            top = max(heights)
            face = [p[:j] + p[j + 1:] for p, h in zip(pts, heights) if h == top]
            if len(face) == 1:
                break
            faces[s, tuple(sorted(face))] += m
        else:
            key = tuple(sorted(faces.items()))
            w = memo.get(key)
            if w is None:
                w = memo[key] = _mixed_volume_grouped(list(faces.items()), memo)
            if w:
                out.append((u, w / abs(u[j])))
    return out


def _pair(face, measure, n) -> Fraction:
    """(1/n) sum of h_face(u) w over the measure's atoms (u, w)."""
    s, pts = face
    total = sum(max(_hull._dot(u, p) for p in pts) * w for u, w in measure)
    return Fraction(total) / (n * s)


def _planar_mixed(f1, f2) -> Fraction:
    """V(F1, F2) of two planar integer faces, in closed form.

    F2's counterclockwise edges (dx, dy) are outward normals (dy, -dx) as
    long as the edges, so V(F1, F2) is half the sum of h_F1(dy, -dx), at
    scale s1 s2.  A segment F2 has two opposite edges and a point none;
    V(F, F) is the area of F.
    """
    (s1, p1), (s2, p2) = f1, f2
    ring = [p2[i] for i in _hull.ring_2d(p2)]
    total = 0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        dx, dy = x1 - x0, y1 - y0
        total += max(dy * x - dx * y for x, y in p1)
    return Fraction(total, 2 * s1 * s2)


def _mixed_volume_grouped(grouped, memo) -> Fraction:
    """V of the tuple given as (face, multiplicity) pairs.

    On the line V is the face's length, in the plane :func:`_planar_mixed`.
    Above it, equal faces give their volume.  Otherwise the first face K1
    is the one of lowest multiplicity, ties going to the one with the most
    vertices, so the measure comes from the smaller faces.
    """
    n = sum(m for _, m in grouped)
    if n == 1:
        s, pts = grouped[0][0]
        return Fraction(max(pts)[0] - min(pts)[0], s)
    if n == 2:
        return _planar_mixed(grouped[0][0], grouped[-1][0])
    if len(grouped) == 1:
        return geometry._polytope(*grouped[0][0], n).volume
    i = min(range(len(grouped)), key=lambda k: (grouped[k][1], -len(grouped[k][0][1])))
    return _pair(grouped[i][0], _measure(_without(grouped, i), memo), n)


def _top_level_memo(bodies) -> dict:
    """A memo for :func:`_measure` that holds the facet normals of each
    full-dimensional body, read off the planes it was built with."""
    return {b.face: [a for a, _ in b.planes] for b in bodies if b.is_full_dimensional}


def mixed_volume(t) -> Fraction:
    """V(D_1, ..., D_n) by the mixed-area-measure recursion; exact and symmetric."""
    bodies = _as_bodies(t)
    grouped = _grouped(bodies)
    if len(grouped) == 1:  # V(K, ..., K) is the volume of K, from its cached hull
        return geometry.volume(bodies[0])
    return _mixed_volume_grouped(grouped, _top_level_memo(bodies))


def mixed_volume_interp(t) -> Fraction:
    """Independent oracle: inclusion-exclusion over the 2^n - 1 subset sums.

    n! V(K1, ..., Kn) is the sum over nonempty subsets S of
    (-1)^(n - |S|) Vol(sum of K_i, i in S).  Each Minkowski sum is built
    afresh; no value is shared with :func:`mixed_volume`.  The name and the
    ``*_interp`` report keys date from an earlier oracle that interpolated
    the volume polynomial; they stay so reports and callers do not change.
    """
    bodies = _as_bodies(t)
    n = len(bodies)
    total = Fraction(0)
    for size in range(1, n + 1):
        for subset in combinations(bodies, size):
            term = geometry.volume(reduce(geometry.minkowski_sum, subset))
            total += term if (n - size) % 2 == 0 else -term
    return total / math.factorial(n)


def check_alexandrov_fenchel(t) -> InequalityReport:
    """Check V(D1,D2,rest)^2 >= V(D1,D1,rest) * V(D2,D2,rest) exactly.

    Two mixed area measures give the three mixed volumes: v12 and v22 pair
    D1 and D2 with the measure of (D2, rest), v11 pairs D1 with that of
    (D1, rest).
    """
    bodies = _as_bodies(t)
    if len(bodies) < 2:
        raise ValueError("the Alexandrov-Fenchel inequality needs dimension at least 2")
    n = len(bodies)
    grouped = _grouped(bodies)  # D1 first, then D2 unless it equals D1
    f1, f2 = bodies[0].face, bodies[1].face
    memo = _top_level_memo(bodies)
    m2 = _measure(_without(grouped, 0), memo)  # of (D2, rest)
    m1 = m2 if f1 == f2 else _measure(_without(grouped, 1), memo)  # of (D1, rest)
    v12, v22, v11 = _pair(f1, m2, n), _pair(f2, m2, n), _pair(f1, m1, n)
    lhs, rhs = v12 * v12, v11 * v22
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        witness={
            "mixed_volumes": {"v12": v12, "v11": v11, "v22": v22},
            **{f"body{i + 1}": b.vertices for i, b in enumerate(bodies)},
        },
    )


def _root_sum(values, m: int):
    """The sum of the m-th roots of exact non-negative values, to 17 digits.

    A double while every value fits in one.  A value beyond double range is
    summed with 40-digit decimals instead and rounded to a 17-digit
    ``Decimal``, so huge bodies get a report, not an overflow.
    """
    try:
        return sum(float(v) ** (1 / m) for v in values)
    except OverflowError:
        pass
    with decimal.localcontext(decimal.Context(prec=40, Emax=decimal.MAX_EMAX)):
        total = sum(
            (decimal.Decimal(v.numerator) / v.denominator) ** (decimal.Decimal(1) / m)
            for v in values
        )
    return total.normalize(decimal.Context(prec=17, Emax=decimal.MAX_EMAX))


def check_generalized_bm(m: int, d1: LatticePolytope, d2: LatticePolytope, fixed) -> InequalityReport:
    """Check F(D1) + F(D2) <= F(D1 + D2) for F(D) = V(m*D, fixed)^(1/m)."""
    fixed = tuple(fixed)
    n = d1.ambient_dim
    if not 0 < m <= n:
        raise ValueError("repetition count m must satisfy 0 < m <= n")
    if len(fixed) != n - m:
        raise ValueError(f"expected {n - m} fixed bodies, got {len(fixed)}")
    dsum = geometry.minkowski_sum(d1, d2)
    a = mixed_volume((d1,) * m + fixed)
    b = mixed_volume((d2,) * m + fixed)
    c = mixed_volume((dsum,) * m + fixed)
    order = compare_root_sums([a, b], [c], m)
    rhs = _root_sum([c], m)
    # equal sums are one real number, so both sides carry one value
    lhs = rhs if order == 0 else _root_sum([a, b], m)
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        holds=order <= 0,
        witness={
            "m": m,
            "mixed_volume_powers": {"F1^m": a, "F2^m": b, "Fsum^m": c},
            "body1": d1.vertices,
            "body2": d2.vertices,
            "body_sum": dsum.vertices,
        },
    )


def check_isoperimetric(d1: LatticePolytope, d2: LatticePolytope) -> InequalityReport:
    """Planar inequality Area(D1) Area(D2) <= A(D1, D2)^2, all exact.

    Also verifies the expansion Area(D1+D2) = Area(D1) + 2A + Area(D2) for
    the mixed area A of the production recursion, whose closed form never
    builds D1 + D2, against the one hull of the sum.  The report also gives
    the inclusion-exclusion value (Area(D1+D2) - Area(D1) - Area(D2)) / 2
    that :func:`mixed_volume_interp` computes; it is the expansion solved
    for A, so it equals A exactly when the expansion holds.
    """
    if d1.ambient_dim != 2 or d2.ambient_dim != 2:
        raise ValueError("isoperimetric check is planar only")
    area1, area2 = geometry.volume(d1), geometry.volume(d2)
    mixed = mixed_volume((d1, d2))
    total = geometry.volume(geometry.minkowski_sum(d1, d2))
    mixed_oracle = (total - area1 - area2) / 2
    identity = total == area1 + 2 * mixed + area2
    lhs, rhs = area1 * area2, mixed * mixed
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs and identity,
        witness={
            "mixed_area": mixed,
            "mixed_area_interp": mixed_oracle,
            "expansion_identity": identity,
            "body1": d1.vertices,
            "body2": d2.vertices,
        },
    )
