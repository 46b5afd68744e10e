"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: membership in a
convex hull is decided by an exact phase-1 simplex over rationals, areas by
the shoelace formula, sumsets by direct enumeration.  The references at the
end instead compose the library's public operations the plain way (a
subspace power by repeated products, a Newton body and a density sequence
from every level), for the tests of the commands' fused kernels to compare
against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from okounkov_lab import algebra, geometry, semigroup
from okounkov_lab.jsonio import frac_to_str
from okounkov_lab.semigroup import INFINITE, DensityReport, DensityRow


def in_convex_hull(point, generators) -> bool:
    """Exact LP feasibility: is `point` a convex combination of `generators`?

    Solves  sum_i l_i * g_i = p,  sum_i l_i = 1,  l_i >= 0  by a phase-1
    simplex with Bland's rule, entirely over Fraction arithmetic.
    """
    gens = [tuple(Fraction(c) for c in g) for g in generators]
    p = tuple(Fraction(c) for c in point)
    if not gens:
        return False
    n = len(p)
    m = n + 1  # equality rows: one per coordinate plus the affine row
    k = len(gens)

    # rows of [A | b] with A the generator matrix plus the all-ones row
    rows = [[gens[j][i] for j in range(k)] + [p[i]] for i in range(n)]
    rows.append([Fraction(1)] * k + [Fraction(1)])

    # make right-hand sides nonnegative
    for r in rows:
        if r[-1] < 0:
            for j in range(len(r)):
                r[j] = -r[j]

    # artificial variables: columns k..k+m-1; objective minimizes their sum
    total = k + m
    tableau = []
    for i, r in enumerate(rows):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(r[:-1] + art + [r[-1]])
    # reduced-cost row for min(sum of artificials) with the artificial basis:
    # original columns get -column_sum, artificial columns 0, rhs -sum(b)
    cost = [Fraction(0)] * (total + 1)
    for j in list(range(k)) + [total]:
        cost[j] = -sum(tableau[i][j] for i in range(m))
    basis = [k + i for i in range(m)]

    def pivot(pr, pc):
        pivval = tableau[pr][pc]
        tableau[pr] = [x / pivval for x in tableau[pr]]
        for i in range(m):
            if i != pr and tableau[i][pc] != 0:
                f = tableau[i][pc]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[pr])]
        f = cost[pc]
        if f != 0:
            for j in range(total + 1):
                cost[j] -= f * tableau[pr][j]
        basis[pr] = pc

    while True:
        pc = next((j for j in range(total) if cost[j] < 0), None)
        if pc is None:
            break
        ratios = [
            (tableau[i][total] / tableau[i][pc], i)
            for i in range(m)
            if tableau[i][pc] > 0
        ]
        if not ratios:
            return False  # unbounded phase-1 cannot happen, defensive
        _, pr = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        pivot(pr, pc)

    return -cost[total] == 0


def shoelace_area(ordered_vertices) -> Fraction:
    """Exact polygon area from an ordered (CW or CCW) vertex ring."""
    vs = [tuple(Fraction(c) for c in v) for v in ordered_vertices]
    twice = Fraction(0)
    for i in range(len(vs)):
        x1, y1 = vs[i]
        x2, y2 = vs[(i + 1) % len(vs)]
        twice += x1 * y2 - x2 * y1
    return abs(twice) / 2


def strictly_convex(ring) -> bool:
    """Whether a ring of integer triples (X, Y, D), D > 0, turns strictly left
    at every vertex: the 3x3 determinant of each vertex and its two
    neighbours, D1 D2 D3 times their cross product, is positive."""
    n = len(ring)
    if n < 3:
        return False
    for i in range(n):
        (xo, yo, do), (xa, ya, da), (xb, yb, db) = ring[i - 1], ring[i], ring[(i + 1) % n]
        if xo * (ya * db - yb * da) - yo * (xa * db - xb * da) + do * (xa * yb - xb * ya) <= 0:
            return False
    return True


def ring_sorted(points):
    """Order 2D points counterclockwise around their centroid."""
    import math

    pts = [tuple(Fraction(c) for c in p) for p in points]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    return sorted(pts, key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))


def brute_sumset(a, b):
    """All pairwise sums of two sets of integer tuples."""
    return {tuple(x + y for x, y in zip(p, q)) for p in a for q in b}


def brute_sumset_power(a, k):
    out = None
    for _ in range(k):
        out = brute_sumset(out, a) if out is not None else set(a)
    return out


def brute_kfold_sums(a, k):
    """k-fold sums via multiset enumeration, an independent second route."""
    return {
        tuple(sum(c) for c in zip(*combo))
        for combo in combinations_with_replacement(sorted(a), k)
    }


def sympy_torus_root_count(system):
    """Distinct torus roots of a square system in one or two variables, by sympy.

    `system` lists each Laurent polynomial as (exponent tuple, coefficient)
    pairs; a coefficient is an int or a Fraction, read exactly.  One
    variable: the degree of the squarefree part after shifting to a nonzero
    constant term.  Two variables: the supports' difference
    lattice is divided out with sympy's Hermite normal form, then the
    eliminant R~ = Res / u^k in a variable u is certified squarefree and
    coprime to both leading coefficients and to p1 at v = 0 with
    `resultant`, `sqf_part` and `gcd`; each root lifts to one torus root.
    Returns None when that certificate fails.
    """
    from sympy import Matrix, Poly, Rational, gcd, sqf_part, symbols
    from sympy.matrices.normalforms import hermite_normal_form

    x, y = symbols("x y")

    def exact(c):
        return Rational(c.numerator, c.denominator)

    def integer_poly(expr, gens):
        poly = Poly(expr, *gens, domain="QQ")
        return Poly(poly.clear_denoms()[1].as_expr(), *gens, domain="ZZ")

    def distinct_nonzero_roots(poly, var):
        low = min(m[0] for m in poly.monoms())
        return sqf_part(Poly((poly.as_expr() / var**low).expand(), var)).degree()

    if len(system) == 1:
        (terms,) = system
        low = min(e[0] for e, _ in terms)
        expr = sum(exact(c) * x ** (e[0] - low) for e, c in terms)
        return distinct_nonzero_roots(integer_poly(expr, (x,)), x)

    bases = [min(e for e, _ in terms) for terms in system]
    diffs = [
        tuple(a - b for a, b in zip(e, base))
        for terms, base in zip(system, bases)
        for e, _ in terms
    ]
    index, coords = 1, (lambda v: v)
    nonzero = [v for v in diffs if any(v)]
    if nonzero:
        basis = hermite_normal_form(Matrix(nonzero).T)
        if basis.shape[1] == 2:
            index, inverse = abs(basis.det()), basis.inv()
            coords = lambda v: tuple(int(c) for c in inverse * Matrix(v))  # noqa: E731
    polys = []
    for terms, base in zip(system, bases):
        pts = [coords(tuple(a - b for a, b in zip(e, base))) for e, _ in terms]
        lo = [min(p[i] for p in pts) for i in (0, 1)]
        expr = sum(
            exact(c) * x ** (p[0] - lo[0]) * y ** (p[1] - lo[1]) for (_, c), p in zip(terms, pts)
        )
        polys.append(integer_poly(expr, (x, y)))
    p1, p2 = polys
    if any(p.is_ground for p in polys):
        return 0  # a monomial never vanishes on the torus
    for v, u in ((y, x), (x, y)):
        if p1.degree(v) and p2.degree(v):
            q1, q2 = (Poly(p.as_expr(), v, u, domain="ZZ") for p in polys)
            r = q1.resultant(q2)
            if r.is_zero:
                return None
            r = Poly(r.as_expr(), u)
            r = Poly((r.as_expr() / u ** min(m[0] for m in r.monoms())).expand(), u)
            if sqf_part(r).degree() != r.degree():
                return None
            leads = [Poly(q.as_expr(), v).all_coeffs()[0] for q in (q1, q2)]
            for other in leads + [q1.as_expr().subs(v, 0)]:
                if gcd(r, Poly(other, u)).degree() > 0:
                    return None
            return index * r.degree()
    # each polynomial involves one variable only
    if p1.degree(y) == p2.degree(y) == 0 or p1.degree(x) == p2.degree(x) == 0:
        return 0 if gcd(p1, p2).is_ground else None
    f, g = (p1, p2) if p1.degree(y) == 0 else (p2, p1)
    fx, gy = Poly(f.as_expr(), x), Poly(g.as_expr(), y)
    return index * distinct_nonzero_roots(fx, x) * distinct_nonzero_roots(gy, y)


def sylvester_determinant(c1, c2):
    """Determinant of the Sylvester matrix of two descending coefficient lists.

    The matrix has len(c2) - 1 shifted rows of c1 over len(c1) - 1 shifted
    rows of c2, so its determinant is the resultant over the formal degrees,
    leading zeros included.  Fraction-free (Bareiss) elimination with row
    swaps; every division is exact, so entries may be integers or any
    exact ring elements with `*`, `-`, `//` and truthiness.
    """
    d1, d2 = len(c1) - 1, len(c2) - 1
    m = [[0] * s + list(c1) + [0] * (d2 - 1 - s) for s in range(d2)]
    m += [[0] * s + list(c2) + [0] * (d1 - 1 - s) for s in range(d1)]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def sympy_power_leads(basis, order, k):
    """Valuations of L^k for L spanned by `basis`, by sympy over QQ.

    `basis` lists each Laurent polynomial as (exponent tuple, coefficient)
    pairs; `order` is None for lex or a tuple of positive weights for
    graded lex (weights first, then lex).  All C(r + k - 1, k) products of
    k basis elements are multiplied as sympy polynomials over QQ after a
    monomial shift to nonnegative exponents, the columns are sorted by the
    order, and the pivot columns of `Matrix.rref()` are the order-minimal
    exponents of an echelon basis of L^k.
    """
    from sympy import Matrix, Poly, Rational, symbols

    n = len(basis[0][0][0])
    gens = symbols(f"z0:{n}")
    low = [min(e[i] for terms in basis for e, _ in terms) for i in range(n)]
    polys = []
    for terms in basis:
        expr = 0
        for e, c in terms:
            monom = 1
            for g, x, lo in zip(gens, e, low):
                monom *= g ** (x - lo)
            expr += Rational(c) * monom
        polys.append(Poly(expr, *gens, domain="QQ"))
    products = []
    for combo in combinations_with_replacement(range(len(polys)), k):
        p = Poly(1, *gens, domain="QQ")
        for i in combo:
            p = p * polys[i]
        products.append(dict(p.terms()))

    def key(e):
        return e if order is None else (sum(w * x for w, x in zip(order, e)), e)

    columns = sorted({e for p in products for e in p}, key=key)
    matrix = Matrix([[p.get(e, 0) for e in columns] for p in products])
    _, pivots = matrix.rref()
    return {tuple(x + k * lo for x, lo in zip(columns[j], low)) for j in pivots}


def fraction_steiner_round(vertices, direction):
    """One exact Steiner step on a convex CCW ring, entirely in `Fraction`s.

    The chord direction u is read as a rational vector.  The ring is mapped
    to the frame t = u^perp . p, s = u . p; at every distinct abscissa of a
    vertex the chord [lo, hi] is read off every edge spanning it (an edge
    with t1 == t2 contributes both ends), recentered on s = 0, and the
    bottom and top chains are mapped back.  Collinear vertices are dropped
    until none is left, and the ring starts at its lex-min vertex.
    """
    ux, uy = Fraction(direction[0]), Fraction(direction[1])
    ring = [(Fraction(x), Fraction(y)) for x, y in vertices]
    ts = [-uy * x + ux * y for x, y in ring]
    ss = [ux * x + uy * y for x, y in ring]
    breaks = sorted(set(ts))
    hi = [None] * len(breaks)
    lo = [None] * len(breaks)
    n = len(ring)
    for i in range(n):
        t1, s1 = ts[i], ss[i]
        t2, s2 = ts[(i + 1) % n], ss[(i + 1) % n]
        if t1 > t2:
            t1, t2, s1, s2 = t2, t1, s2, s1
        for bi in range(bisect_left(breaks, t1), bisect_right(breaks, t2)):
            t = breaks[bi]
            if t1 == t2:
                s_lo, s_hi = min(s1, s2), max(s1, s2)
            else:
                s_lo = s_hi = s1 + (s2 - s1) * (t - t1) / (t2 - t1)
            hi[bi] = s_hi if hi[bi] is None else max(hi[bi], s_hi)
            lo[bi] = s_lo if lo[bi] is None else min(lo[bi], s_lo)
    halves = [(h - l) / 2 for h, l in zip(hi, lo)]
    frame = [(t, -half) for t, half in zip(breaks, halves)]
    frame += [(t, half) for t, half in zip(breaks[::-1], halves[::-1]) if half > 0]
    norm2 = ux * ux + uy * uy
    out = [((-uy * t + ux * s) / norm2, (ux * t + uy * s) / norm2) for t, s in frame]
    out.reverse()  # the frame map reverses orientation

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    while True:
        keep = [a for i, a in enumerate(out) if cross(out[i - 1], a, out[(i + 1) % len(out)]) > 0]
        if len(keep) < 3:
            raise ValueError("polygon degenerated to a segment")
        if len(keep) == len(out):
            break
        out = keep
    start = out.index(min(out))
    return tuple(out[start:] + out[:start])


def brute_hull_volume(points) -> Fraction:
    """Exact volume of the convex hull of rational points in dimension 1, 2 or 3.

    1D: the length.  2D: Andrew's monotone chain, then the shoelace
    formula.  3D: every plane through three points that has all points on
    one side is a facet plane; the hull is the union of the cones from an
    interior point over its facets, each cone 1/3 times the plane's offset
    gap times the facet's area projected along a nonzero normal coordinate.
    Flat point sets have volume 0.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    n = len(pts[0])
    if n == 1:
        return pts[-1][0] - pts[0][0]
    if n == 2:
        return shoelace_area(_monotone_chain(pts)) if len(pts) > 2 else Fraction(0)
    center = tuple(sum(c) / len(pts) for c in zip(*pts))
    seen = set()
    total = Fraction(0)
    for a, b, c in combinations(pts, 3):
        u = [x - y for x, y in zip(b, a)]
        v = [x - y for x, y in zip(c, a)]
        normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if not any(normal):
            continue
        sides = [sum(m * (x - y) for m, x, y in zip(normal, p, a)) for p in pts]
        if all(s == 0 for s in sides):
            return Fraction(0)  # every point lies on this plane
        if any(s > 0 for s in sides):
            if any(s < 0 for s in sides):
                continue  # not a supporting plane
            normal = tuple(-m for m in normal)
        lead = next(abs(m) for m in normal if m)
        key = tuple(m / lead for m in normal) + (sum(m * x for m, x in zip(normal, a)) / lead,)
        if key in seen:
            continue
        seen.add(key)
        j = next(i for i, m in enumerate(normal) if m)
        face = [tuple(x for i, x in enumerate(p) if i != j) for p, s in zip(pts, sides) if s == 0]
        gap = sum(m * (x - y) for m, x, y in zip(normal, a, center))
        total += gap * brute_hull_volume(face) / (3 * abs(normal[j]))
    return total


def _monotone_chain(pts):
    """Counterclockwise hull vertices of sorted distinct 2D points."""

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(pts[::-1])


def sympy_lattice_index(sets):
    """Index of the lattice spanned by within-set differences, by sympy.

    Every set contributes p - min(set) for each of its points, the zero row
    and rows repeated across sets included; the index is the product of the
    nonzero invariant factors of sympy's Smith normal form over ZZ, or
    ``math.inf`` when fewer than n are nonzero.
    """
    import math

    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    n = len(next(iter(sets[0])))
    rows = []
    for s in sets:
        base = min(s)
        rows.extend([x - y for x, y in zip(p, base)] for p in sorted(s))
    form = smith_normal_form(Matrix(rows), domain=ZZ)
    factors = [abs(form[i, i]) for i in range(min(form.shape)) if form[i, i] != 0]
    return math.prod(int(f) for f in factors) if len(factors) == n else math.inf


def sympy_power_free_parts(values, m):
    """Each rational q >= 0 written as g * h**(1/m), factored by sympy.

    q = a/b has q**(1/m) = (a * b**(m - 1))**(1/m) / b; sympy's `factorint`
    splits every prime power p**e of a * b**(m - 1) into p**(e // m), which
    goes into g, and p**(e % m), which goes into h.  Returns a list of
    (g, h) pairs with g a nonnegative Fraction and h an m-th-power-free
    positive integer; q = 0 gives (0, 1).
    """
    from sympy import factorint

    out = []
    for q in values:
        q = Fraction(q)
        if q == 0:
            out.append((Fraction(0), 1))
            continue
        g, h = 1, 1
        for p, e in factorint(q.numerator * q.denominator ** (m - 1)).items():
            g *= p ** (e // m)
            h *= p ** (e % m)
        out.append((Fraction(g, q.denominator), h))
    return out


def float_steiner_round(ring, direction, eps=1e-13, budget=1024):
    """One float Steiner step on a convex CCW ring of (x, y) pairs, as a plain
    list-of-tuples loop: the reference for `steiner._symmetrize`.

    Abscissae within `eps` merge, an edge serves the breaks within
    `10 * eps` of its span; vertices whose turn is within `eps` (relative)
    of straight are dropped until none is, then the flattest go, never two
    adjacent in one pass, until `budget` are left.
    """
    import bisect
    import math

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    ux, uy = direction
    ts = [-uy * x + ux * y for x, y in ring]
    ss = [ux * x + uy * y for x, y in ring]
    breaks = []
    for t in sorted(ts):
        if not breaks or t > breaks[-1] + eps * (1 + abs(breaks[-1])):
            breaks.append(t)
    hi = [-math.inf] * len(breaks)
    lo = [math.inf] * len(breaks)
    reach = 10 * eps
    n = len(ring)
    for i in range(n):
        t1, s1 = ts[i], ss[i]
        t2, s2 = ts[(i + 1) % n], ss[(i + 1) % n]
        if t1 > t2:
            t1, t2, s1, s2 = t2, t1, s2, s1
        first = bisect.bisect_left(breaks, t1 - reach * (1 + abs(t1)))
        for bi in range(first, len(breaks)):
            t = breaks[bi]
            if t > t2 + reach * (1 + abs(t2)):
                break
            if t1 == t2:
                s_lo, s_hi = min(s1, s2), max(s1, s2)
            else:
                s_lo = s_hi = s1 + (s2 - s1) * (t - t1) / (t2 - t1)
            hi[bi] = max(hi[bi], s_hi)
            lo[bi] = min(lo[bi], s_lo)
    halves = [(hi[bi] - lo[bi]) / 2 for bi in range(len(breaks))]
    frame = [(t, -half) for t, half in zip(breaks, halves)]
    frame += [(t, half) for t, half in zip(breaks[::-1], halves[::-1]) if half > 0]
    norm2 = ux * ux + uy * uy
    pts = [((-uy * t + ux * s) / norm2, (ux * t + uy * s) / norm2) for t, s in frame]
    pts.reverse()  # the frame map reverses orientation
    changed = True
    while changed:
        changed = False
        keep = []
        n = len(pts)
        for i in range(n):
            a = pts[i]
            flat = eps * (1 + abs(a[0]) + abs(a[1])) ** 2
            if cross(pts[i - 1], a, pts[(i + 1) % n]) <= flat:
                changed = True
            else:
                keep.append(a)
        pts = keep
        if len(pts) < 3:
            raise ValueError("polygon degenerated to a segment")
    while len(pts) > budget:
        n = len(pts)
        crosses = [cross(pts[i - 1], pts[i], pts[(i + 1) % n]) for i in range(n)]
        excess = n - budget
        threshold = sorted(crosses)[min(excess * 2, n - 1)]
        keep = []
        dropped_prev = False
        for i in range(n):
            if not dropped_prev and excess > 0 and crosses[i] <= threshold:
                dropped_prev = True
                excess -= 1
                continue
            dropped_prev = False
            keep.append(pts[i])
        if len(keep) == n:
            break
        pts = keep
    return pts


def composed_section_profile(d1, d2, samples):
    """(h, volume) at h = j / samples, each body composed by the library's
    public operations: minkowski_sum(scale(d1, h), scale(d2, 1 - h))."""
    from okounkov_lab.geometry import minkowski_sum, scale, volume

    rows = []
    for j in range(samples + 1):
        h = Fraction(j, samples)
        rows.append((h, volume(minkowski_sum(scale(d1, h), scale(d2, 1 - h)))))
    return rows


def power(l, k):
    """L^k by binary exponentiation over the library's subspace product."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    result = None
    base = l
    while k:
        if k & 1:
            result = base if result is None else algebra.product(result, base)
        k >>= 1
        if k:
            base = algebra.product(base, base)
    return result


def combination(dim, *terms):
    """The Laurent polynomial sum of c * f over the (c, f) pairs, zeros dropped:
    sums and scalings, which the library's polynomials do not offer."""
    acc: dict = {}
    for c, f in terms:
        if f.ambient_dim != dim:
            raise ValueError("dimension mismatch")
        for e, a in f.terms:
            acc[e] = acc.get(e, 0) + Fraction(c) * a
    return algebra.laurent(dim, acc)


def fraction_leads(polys, order=algebra.LEX):
    """Valuations of an echelon basis of the span of ``polys``, by Gaussian
    elimination over Fractions: a row is reduced by the pivot at its
    order-minimal exponent until that exponent has no pivot or the row is 0."""
    pivots = {}
    for f in polys:
        row = {e: Fraction(c) for e, c in f.terms}
        while row:
            lead = min(row, key=order.key)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            scale = row[lead] / pivot[lead]
            for e, c in pivot.items():
                row[e] = row.get(e, 0) - scale * c
                if not row[e]:
                    del row[e]
    return list(pivots)


def subspaces_equal(l1, l2) -> bool:
    """Equality as subspaces, independent of the chosen bases."""
    if l1.ambient_dim != l2.ambient_dim or l1.dim != l2.dim:
        return False
    return len(fraction_leads(l1.basis + l2.basis)) == l1.dim


def valuation_image(l, order=algebra.LEX):
    """Pivot exponents of an echelonized basis; size equals the dimension."""
    image = geometry.support_set(l.ambient_dim, fraction_leads(l.basis, order))
    if len(image) != l.dim:
        raise AssertionError("valuation image smaller than the dimension")
    return image


def _difference_rows(s) -> set[tuple[int, ...]]:
    base = min(s.points)
    return {tuple(x - y for x, y in zip(p, base)) for p in s.points}


def _row_lattice_index(rows: set[tuple[int, ...]], n: int):
    """Index in Z^n of the lattice the rows span, or INFINITE."""
    # zero and repeated rows span nothing new, so the index is the same
    rows.discard((0,) * n)
    if not rows:
        return INFINITE
    nonzero = [d for d in semigroup.smith_normal_form(sorted(rows)) if d != 0]
    if len(nonzero) < n:
        return INFINITE
    return math.prod(nonzero)


def joint_lattice_index(sets):
    """Index in Z^n of the lattice generated by within-set differences.

    Returns the integer index when the differences span a finite-index
    subgroup, else :data:`INFINITE`.  Index 1 means ample at these levels.
    The first set's differences are reduced alone first: when they already
    span Z^n, no further row can change the lattice.  Otherwise one Smith
    normal form runs over the rows of all sets, so there are at most two.
    The reference for the levels of any slice; the library's
    `difference_lattice_index` takes a single support.
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


def is_level_dict(levels, k_max, dim) -> bool:
    """Whether ``levels`` is a slice's level dict: keys exactly 1..k_max,
    every level nonempty and in ambient dimension ``dim``."""
    return sorted(levels) == list(range(1, k_max + 1)) and all(
        s.points and s.ambient_dim == dim for s in levels.values()
    )


def newton_body(levels):
    """Inner approximation of the Newton body of a slice, given as its
    levels {j: S_j}: the hull of all S_j / j, each level's integer face
    (j, S_j) joined at the common scale."""
    faces = [(j, level.points) for j, level in levels.items()]
    return geometry._polytope(*geometry._union(faces), levels[1].ambient_dim)


def density_of_slice(levels):
    """Ratios #(S_k)/k^n of the levels {k: S_k} against the Newton-body
    volume, non-ample flagged.

    The body at k is conv(S_1 / 1, ..., S_k / k), built incrementally and
    exactly in integers: conv(S_k / k) = conv(S_k) / k, so level k is hulled
    at scale k (`geometry._polytope`), and its integer face is joined with
    the previous body's at their common scale.  In the plane, the hull of a
    level is the monotone chain over every point (`_hull.ring_2d`).
    Ampleness takes one Smith normal form when level 1 already spans Z^n,
    and two otherwise (`joint_lattice_index`).
    """
    n = levels[1].ambient_dim
    index = joint_lattice_index(list(levels.values()))
    rows = []
    body = None
    for k in range(1, max(levels) + 1):
        level = geometry._polytope(k, levels[k].points, n)
        if body is None:
            body = level
        else:
            body = geometry._polytope(*geometry._union([body.face, level.face]), n)
        rows.append(
            DensityRow(k, Fraction(len(levels[k]), k**n), geometry.volume(body))
        )
    return DensityReport(tuple(rows), index)


def check_superadditive(levels) -> bool:
    """S_j + S_k inside S_{j+k} for all levels {k: S_k} of a slice that fit;
    exhaustive."""
    k_max = max(levels)
    for j in range(1, k_max + 1):
        for k in range(j, k_max - j + 1):
            target = levels[j + k].points
            for p in levels[j].points:
                for q in levels[k].points:
                    if tuple(a + b for a, b in zip(p, q)) not in target:
                        return False
    return True


def laurent_to_json(f) -> dict:
    return {
        "dim": f.ambient_dim,
        "terms": [{"exp": list(e), "coef": frac_to_str(c)} for e, c in f.terms],
    }


def subspace_to_json(l) -> dict:
    """The wire form that ``jsonio.subspace_from_json`` reads back."""
    return {"dim": l.ambient_dim, "basis": [laurent_to_json(f) for f in l.basis]}
