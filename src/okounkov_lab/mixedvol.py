"""Mixed volumes of rational polytopes and the convex-geometric inequality
suite: Alexandrov-Fenchel, generalized Brunn-Minkowski and the planar
isoperimetric inequality.

The production algorithm is the mixed-area-measure recursion (Schneider,
*Convex Bodies: The Brunn-Minkowski Theory*, 2nd ed., section 5.1):
V(K1, ..., Kn) is (1/n) times the sum of h_K1(u) against the mixed area
measure of (K2, ..., Kn), whose atoms sit at the facet normals u of
K2 + ... + Kn and weigh the (n-1)-dimensional mixed volume of the faces
there.  A body enters as its integer face ``P.face``, (scale, sorted
integer vertices), and its faces travel in the same form; only the
Minkowski sum whose facet normals a measure needs is hulled.  The planar
level is closed form: with the counterclockwise edges (dx, dy) of F2 as
outward normals (dy, -dx), V(F1, F2) is half the sum of h_F1(dy, -dx).
One Alexandrov-Fenchel check needs two measures for its three mixed
volumes.  An independent oracle, :func:`mixed_volume_interp`, computes the
same value by inclusion-exclusion over the 2^n - 1 subset Minkowski sums.
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


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of a checked inequality plus the verdict.

    For exact-rational checks lhs and rhs are Fractions; root-sum checks
    carry 17-significant-digit decimal strings with the exact ingredients
    in the witness.
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
    The terms are homogeneous in u, so no Euclidean norm is needed.  u runs
    over the facet normals of the sum of the distinct bodies (K + K has the
    fan of K), or over both normals of its hyperplane when that sum is flat;
    a lower-dimensional sum has the zero measure.  A full-dimensional sum
    is the only hull; a flat one reads its normal off its echelon rows.
    The vertices of K on the plane of u are the vertices of F(K, u),
    and pi_j is injective there, so every face stays a vertex set.  A face
    that is a single point makes its term 0.  ``memo`` maps the multiset of
    projected faces to their mixed volume, and the face of each
    full-dimensional top-level body to its facet normals
    (:func:`_top_level_memo`), so a rest of one such body builds no hull.
    """
    n = sum(m for _, m in rest) + 1
    normals = memo.get(rest[0][0]) if len(rest) == 1 else None
    if normals is None:
        _, pts = geometry._sum_points([f for f, _ in rest], n)
        rows = [r for _, r in _hull.echelon(_hull._sub(p, pts[0]) for p in pts[1:])]
        if len(rows) == n:
            normals = [a for a, _ in _hull.hull_of_lifted(pts, n).planes]
        elif len(rows) == n - 1:
            a = _hull.cofactor_normal(rows)
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

    F2 is the face with more points.  Its counterclockwise edges (dx, dy)
    are outward normals (dy, -dx) as long as the edges, so V(F1, F2) is half
    the sum of h_F1(dy, -dx), at scale s1 s2.  A segment F2 has two
    opposite edges and a point none; V(F, F) is the area of F.
    """
    if len(f1[1]) > len(f2[1]):
        f1, f2 = f2, f1
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


def _witness_bodies(**named) -> dict:
    return {
        name: [[str(c) for c in v] for v in body.vertices]
        for name, body in named.items()
    }


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
            "mixed_volumes": {"v12": str(v12), "v11": str(v11), "v22": str(v22)},
            **_witness_bodies(
                **{f"body{i + 1}": b for i, b in enumerate(bodies)}
            ),
        },
    )


def _root_sum_str(values, m: int) -> str:
    """The sum of the m-th roots of exact non-negative values, to 17 digits.

    Doubles give the digits while every value fits in one.  A value beyond
    double range is summed with 40-digit decimals instead, printed in the
    same style, so huge bodies get a report, not an overflow.
    """
    try:
        return f"{sum(float(v) ** (1 / m) for v in values):.17g}"
    except OverflowError:
        pass
    with decimal.localcontext(decimal.Context(prec=40, Emax=decimal.MAX_EMAX)):
        total = sum(
            (decimal.Decimal(v.numerator) / v.denominator) ** (decimal.Decimal(1) / m)
            for v in values
        )
    return f"{total.normalize(decimal.Context(prec=17, Emax=decimal.MAX_EMAX)):g}"


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
    rhs = _root_sum_str([c], m)
    # equal sums are one real number, so both sides print as one string
    lhs = rhs if order == 0 else _root_sum_str([a, b], m)
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        holds=order <= 0,
        witness={
            "m": m,
            "mixed_volume_powers": {"F1^m": str(a), "F2^m": str(b), "Fsum^m": str(c)},
            **_witness_bodies(body1=d1, body2=d2, body_sum=dsum),
        },
    )


def check_isoperimetric(d1: LatticePolytope, d2: LatticePolytope) -> InequalityReport:
    """Planar inequality Area(D1) Area(D2) <= A(D1, D2)^2, all exact.

    Also verifies the expansion Area(D1+D2) = Area(D1) + 2A + Area(D2) for
    the mixed area A of the production recursion, and compares A with the
    inclusion-exclusion oracle, which in the plane is
    (Area(D1+D2) - Area(D1) - Area(D2)) / 2, as :func:`mixed_volume_interp`
    computes it.  The recursion's closed form never builds D1 + D2, so both
    checks set it against the one hull of the sum.
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
        holds=bool(lhs <= rhs and identity and mixed == mixed_oracle),
        witness={
            "mixed_area": str(mixed),
            "mixed_area_interp": str(mixed_oracle),
            "expansion_identity": identity,
            **_witness_bodies(body1=d1, body2=d2),
        },
    )
