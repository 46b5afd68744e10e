"""Mixed volumes of rational polytopes and the convex-geometric inequality
suite: Alexandrov-Fenchel, generalized Brunn-Minkowski and the planar
isoperimetric inequality.

The production algorithm is inclusion-exclusion over subset Minkowski sums;
an independent oracle, :func:`mixed_volume_interp`, computes the same value
by the mixed-area-measure recursion over facet normals.  Equal bodies inside
a tuple are grouped, so a body repeated k times costs one dilation instead of
2**k Minkowski sums.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct

import numpy as np

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


def _check_tuple(bodies):
    if not bodies:
        raise ValueError("empty body tuple")
    n = bodies[0].ambient_dim
    if any(b.ambient_dim != n for b in bodies):
        raise ValueError("bodies of mixed ambient dimensions")
    if len(bodies) != n:
        raise ValueError(f"a mixed volume in R^{n} takes exactly {n} bodies")
    if n > geometry.MAX_DIM:
        raise ValueError(f"ambient dimension must be at most {geometry.MAX_DIM}")


def _as_bodies(t) -> tuple[LatticePolytope, ...]:
    bodies = tuple(t)
    _check_tuple(bodies)
    return bodies


class _SumVolumeCache:
    """Exact volumes of nonnegative integer combinations of distinct bodies."""

    def __init__(self, bodies: tuple[LatticePolytope, ...]):
        self.bodies = bodies
        self._polytopes: dict[tuple[int, ...], LatticePolytope] = {}
        self._volumes: dict[tuple[int, ...], Fraction] = {}

    def polytope(self, counts: tuple[int, ...]) -> LatticePolytope:
        got = self._polytopes.get(counts)
        if got is not None:
            return got
        active = [i for i, c in enumerate(counts) if c]
        if not active:
            raise AssertionError("empty combination")
        i = active[0]
        if len(active) > 1:
            # the dilation c_i * body_i is itself cached, so it is hulled once
            single, rest = [0] * len(counts), list(counts)
            single[i], rest[i] = counts[i], 0
            piece = geometry.minkowski_sum(
                self.polytope(tuple(single)), self.polytope(tuple(rest))
            )
        elif counts[i] == 1:
            piece = self.bodies[i]
        else:
            piece = geometry.scale(self.bodies[i], counts[i])
        self._polytopes[counts] = piece
        return piece

    def volume(self, counts: tuple[int, ...]) -> Fraction:
        got = self._volumes.get(counts)
        if got is None:
            got = geometry.volume(self.polytope(counts))
            self._volumes[counts] = got
        return got


def _grouped(bodies):
    """Distinct bodies with multiplicities, preserving first-seen order."""
    distinct: list[LatticePolytope] = []
    mult: list[int] = []
    for b in bodies:
        for i, d in enumerate(distinct):
            if d == b:
                mult[i] += 1
                break
        else:
            distinct.append(b)
            mult.append(1)
    return tuple(distinct), tuple(mult)


def _mixed_volume_grouped(distinct, mult, cache: _SumVolumeCache) -> Fraction:
    """Inclusion-exclusion over count vectors c with 0 <= c_i <= mult_i.

    Choosing c_i of the mult_i copies of body i contributes a binomial
    weight, and the summand volume only depends on the counts.
    """
    n = sum(mult)
    total = Fraction(0)
    for counts in iproduct(*(range(m + 1) for m in mult)):
        size = sum(counts)
        if size == 0:
            continue
        weight = 1
        for c, m in zip(counts, mult):
            weight *= math.comb(m, c)
        term = weight * cache.volume(counts)
        total += term if (n - size) % 2 == 0 else -term
    return total / math.factorial(n)


def mixed_volume(t) -> Fraction:
    """V(D_1, ..., D_n) by inclusion-exclusion; exact and symmetric."""
    bodies = _as_bodies(t)
    distinct, mult = _grouped(bodies)
    return _mixed_volume_grouped(distinct, mult, _SumVolumeCache(distinct))


def _mixed_area_recursion(bodies) -> Fraction:
    """V(K1, ..., Kn) = (1/n) sum_u h_K1(u) V_{n-1}(pi_j F(K2, u), ...) / |u_j|.

    u runs over the outward facet normals of K2 + ... + Kn, or over both
    normals of its hyperplane when the sum is flat; a lower-dimensional sum
    gives 0.  F(K, u) is the face of K where u.x is largest and pi_j drops a
    coordinate j with u_j != 0.  The terms are homogeneous in u, so integer
    normals need no Euclidean norm.  V_1 is length.
    """
    n = len(bodies)
    s1, first = geometry._lifted(bodies[0])
    if n == 1:
        return Fraction(max(first)[0] - min(first)[0], s1)
    rest = bodies[1:]
    core = geometry._core(reduce(geometry.minkowski_sum, rest))
    if core.affine_dim == n:
        normals = [a for a, _ in core.planes]
    elif core.affine_dim == n - 1:
        a = tuple(int(x) for x in _hull._normals(np.array([core.rows], dtype=object))[0])
        normals = [a, tuple(-x for x in a)]
    else:
        return Fraction(0)
    total = Fraction(0)
    for u in normals:
        j = next(i for i, x in enumerate(u) if x)
        faces = []
        for body in rest:
            s, pts = geometry._lifted(body)
            heights = [_hull._dot(u, p) for p in pts]
            top = max(heights)
            face = [p[:j] + p[j + 1:] for p, h in zip(pts, heights) if h == top]
            faces.append(geometry._polytope(s, face, n - 1))
        h1 = Fraction(max(_hull._dot(u, p) for p in first), s1)
        total += h1 * _mixed_area_recursion(faces) / abs(u[j])
    return total / n


def mixed_volume_interp(t) -> Fraction:
    """Independent oracle for the mixed volume: the mixed-area-measure recursion.

    Dimensions 1 to 4; see :func:`_mixed_area_recursion` and Schneider,
    *Convex Bodies: The Brunn-Minkowski Theory*, 2nd ed., section 5.1.  The
    name and the ``*_interp`` report keys date from an earlier oracle that
    interpolated the volume polynomial; they stay so reports and callers do
    not change.
    """
    return _mixed_area_recursion(_as_bodies(t))


def _witness_bodies(**named) -> dict:
    return {
        name: [[str(c) for c in v] for v in body.vertices]
        for name, body in named.items()
    }


def check_alexandrov_fenchel(t) -> InequalityReport:
    """Check V(D1,D2,rest)^2 >= V(D1,D1,rest) * V(D2,D2,rest) exactly."""
    bodies = _as_bodies(t)
    distinct, mult = _grouped(bodies)
    cache = _SumVolumeCache(distinct)
    i1, i2 = distinct.index(bodies[0]), distinct.index(bodies[1])

    def moved(src, dst):
        # one copy moved from body src to body dst; a count may drop to 0
        counts = list(mult)
        counts[src] -= 1
        counts[dst] += 1
        return _mixed_volume_grouped(distinct, tuple(counts), cache)

    v12 = _mixed_volume_grouped(distinct, mult, cache)
    v11 = moved(i2, i1)
    v22 = moved(i1, i2)
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

    Also verifies the expansion Area(D1+D2) = Area(D1) + 2A + Area(D2) with
    the mixed area recomputed by the mixed-area-measure oracle
    (:func:`mixed_volume_interp`), so the identity is not a restatement of
    the inclusion-exclusion formula.
    """
    if d1.ambient_dim != 2 or d2.ambient_dim != 2:
        raise ValueError("isoperimetric check is planar only")
    area1, area2 = geometry.volume(d1), geometry.volume(d2)
    mixed = mixed_volume((d1, d2))
    mixed_oracle = mixed_volume_interp((d1, d2))
    total = geometry.volume(geometry.minkowski_sum(d1, d2))
    identity = total == area1 + 2 * mixed_oracle + area2
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
