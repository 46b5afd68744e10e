"""Exact convex hull engine for integer points in dimensions 1 through 4.

Everything runs on integer-lifted coordinates: the caller clears the common
denominator once, so all predicates below are exact integer arithmetic.  The
engine returns plain Python integers: the deduplicated supporting facet
planes (used for membership tests), the extreme points, and d! times the
volume.
:func:`echelon`, fraction-free integer row reduction, is the exact
elimination routine for point rows: it picks the initial simplex, and as
:func:`null_space` it gives the equations of a flat body's affine hull.
The rows of Laurent polynomials go through ``algebra``'s packed kernel.

Dimension dispatch:

* d = 1: trivial min/max.
* d = 2: Andrew monotone chain (:func:`ring_2d`) over every point.
* d = 3, 4: incremental beneath-beyond insertion with strict visibility.
  After the initial simplex, points go in by decreasing exact squared
  distance from the centroid (ties by index), so most late points fall
  inside the hull built so far and cost one visibility product; in lex
  order every point would lie beyond it.  Coplanar degeneracies are legal;
  the boundary triangulation may contain coplanar adjacent simplices and
  non-extreme corners, neither of which affects volumes or membership tests.
  The volume is the fan sum over the boundary simplices from one vertex.

The extreme points are read off the corner x plane incidence matrix I of
the triangulation's corners and the deduplicated planes: a corner is a
vertex iff no other corner lies on every plane through it, that is iff its
row of I @ I.T reaches its diagonal entry only on the diagonal.  A
non-extreme corner lies in the relative interior of a face, and that face's
vertices, which are corners too, lie on all of its planes.

For d = 3, 4 the facets are numpy integer arrays (vertex indices, normals
and offsets), so one insertion is a few array operations: visibility is one
matrix-vector product, and the planes of the new facets are one batch of
signed minors.  A facet that a point sees is dead for good, so the arrays
hold only live facets: an insertion keeps the unseen rows and appends the
new ones.  The dtype is ``int64`` when the largest coordinate M bounds
every value formed below 2**63 (a normal is at most (d-1)! (2M)^(d-1), see
:func:`_dtype_for`); otherwise it is ``object``, exact Python integers,
running the same code.  The same signed minors give ``mixedvol``, in one
batch, the normals of all vertex-pair transversals of a tuple of faces
(:func:`transversal_normals`), from which it reads a mixed area measure
without hulling the faces' sum.  numpy stays inside this module and is
imported on first use, so planar commands never load it: every result
field is built of Python ``int``s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations, permutations
from math import comb, factorial, gcd
from operator import mul


@dataclass
class HullResult:
    """Boundary description of a full-dimensional lifted hull."""

    planes: list[tuple[tuple[int, ...], int]]  # hull == {x : a.x <= b} for all (a, b)
    vertex_indices: list[int]  # extreme points, sorted
    volume: int  # d! times the volume of the hull


def _dot(a, b):
    return sum(map(mul, a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def echelon(rows):
    """Fraction-free row echelon form of integer rows.

    Returns ``(index, reduced row)`` for each row that is independent of the
    rows before it, in input order.  A reduced row is an integer combination
    of the input rows, zero at the pivot (first nonzero column) of every
    earlier reduced row, so the pivots are distinct.  Reads ``rows`` lazily
    and stops once the reduced rows span the whole space.
    """
    found: list[tuple[int, list]] = []
    pivots: list[int] = []
    for i, row in enumerate(rows):
        row = list(row)
        for (_, er), c in zip(found, pivots):
            if row[c]:
                f1, f2 = er[c], row[c]
                row = [f1 * x - f2 * y for x, y in zip(row, er)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            found.append((i, row))
            pivots.append(c)
            if len(found) == len(row):
                break
    return found


def null_space(rows, n):
    """Primitive integer vectors spanning {a in Z^n : r.a = 0 for every row r},
    n - rank of them, for rows of any rank or none (then the unit vectors).
    The n columns (column j of ``rows``, e_j) combine by c to (r.c for each
    row r, c), so their :func:`echelon` rows whose ``rows`` part vanishes end
    in a basis."""
    m = len(rows)
    unit = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
    if not m:
        return unit
    kernel = [r[m:] for _, r in echelon(zip(*rows, *unit)) if not any(r[:m])]
    return [tuple([x // g for x in a]) for a in kernel for g in [gcd(*a)]]


def _initial_simplex(points, d):
    """Indices of d+1 affinely independent points (input has affine rank d)."""
    base = points[0]
    chosen = [0] + [i + 1 for i, _ in echelon(_sub(p, base) for p in points[1:])]
    if len(chosen) != d + 1:
        raise AssertionError("points do not span the expected dimension")
    return chosen


def _hull_1d(points):
    lo = min(range(len(points)), key=lambda i: points[i][0])
    hi = max(range(len(points)), key=lambda i: points[i][0])
    planes = [((1,), points[hi][0]), ((-1,), -points[lo][0])]
    return HullResult(planes, sorted({lo, hi}), points[hi][0] - points[lo][0])


def ring_2d(points):
    """Andrew's monotone chain on deduplicated, lex-sorted 2D points.

    Returns the indices of the extreme points as a counterclockwise ring
    starting at index 0, the lex-min point; the chain pops collinear and
    interior points.
    """
    def cross(o, a, b):
        return (points[a][0] - points[o][0]) * (points[b][1] - points[o][1]) - (
            points[a][1] - points[o][1]
        ) * (points[b][0] - points[o][0])

    def chain(idx):
        out: list[int] = []
        for i in idx:
            while len(out) >= 2 and cross(out[-2], out[-1], i) <= 0:
                out.pop()
            out.append(i)
        return out[:-1]

    idx = range(len(points))
    return chain(idx) + chain(reversed(idx))


def _hull_2d(points):
    """Planes, vertices and twice the area of the :func:`ring_2d` polygon.
    An edge's plane is (a, a.p), p its start and a its outward normal over
    the gcd of the edge vector: a is primitive, so the plane is in lowest terms."""
    ring = ring_2d(points)
    planes = []
    twice_area = 0
    for i, j in zip(ring, ring[1:] + ring[:1]):
        (x0, y0), (x1, y1) = points[i], points[j]
        g = gcd(y1 - y0, x1 - x0)
        a = ((y1 - y0) // g, (x0 - x1) // g)  # primitive outward normal of a CCW ring
        planes.append((a, _dot(a, points[i])))
        twice_area += x0 * y1 - x1 * y0
    return HullResult(planes, sorted(ring), twice_area)


def _dtype_for(max_abs, d):
    """``int64`` if no value the engine forms can reach 2**63, else ``object``.

    With |coordinate| <= M, a difference is at most 2M and a normal (a sum of
    (d-1)! products of d-1 differences) at most A = (d-1)! (2M)^(d-1).  The
    largest value formed is the orientation test a.c - (d+1) b against the
    sum c of the d+1 initial points, at most 2 d (d+1) A M; offsets,
    visibility and incidence products and fan determinants stay below it.
    """
    import numpy as np

    normal = factorial(d - 1) * (2 * max_abs) ** (d - 1)
    return np.int64 if 2 * d * (d + 1) * normal * max_abs < 2**63 else object


@cache
def _levi_civita(d):
    """E with (x_1 (x) ... (x) x_{d-1}) @ E the generalized cross product."""
    import numpy as np

    E = np.zeros((d,) * d, dtype=np.int64)
    for perm in permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(d), 2))
        E[perm] = -1 if inversions % 2 else 1
    return E.reshape(d, -1).T


def _normals(D):
    """Signed maximal minors of each (d-1, d) difference matrix in D.

    Entry c of each result row is the sum over i of eps(c, i_1, ..., i_{d-1})
    D[0, i_1] ... D[d-2, i_{d-1}]: the cofactors of the first row of a d x d
    matrix with D below it, zero iff the rows of D are dependent.
    """
    h, r, d = D.shape
    T = D[:, 0]
    for k in range(1, r):
        T = (T[:, :, None] * D[:, k, None, :]).reshape(h, -1)
    return T @ _levi_civita(d)


def transversal_normals(faces):
    """The normals of every transversal whose pairs lie on top faces.

    ``faces`` are (integer vertices, multiplicity m) pairs in R^n with
    sum of m = n - 1; each face may have its own scale.  A transversal picks
    m vertex pairs (p, q) of each face, n - 1 directions q - p in all, and
    its normal N is their cofactor row (:func:`_normals`), zero iff the
    directions are dependent.  N is kept when both ends of every chosen
    pair reach the largest value of N.x on their face, and -N when they
    reach the smallest.  All transversals go through one numpy batch in
    :func:`_dtype_for`'s dtype, whose bound covers N and N.x.  Returns the
    distinct kept normals in lowest terms, sorted, as tuples of Python ints
    (``mixedvol._measure`` shows that they are the atoms of the faces'
    mixed area measure).  A face with fewer than m pairs leaves no
    transversal.
    """
    import numpy as np

    if any(comb(len(pts), 2) < m for pts, m in faces):
        return []
    points = [p for pts, _ in faces for p in pts]
    P = np.array(points, dtype=_dtype_for(max(max(map(abs, p)) for p in points), len(points[0])))
    sizes = [len(pts) for pts, _ in faces]
    starts = [0, *accumulate(sizes[:-1])]
    choices = [  # per face: (choice, slot, end) indices into P
        np.array(list(combinations(combinations(range(a, a + k), 2), m)), dtype=np.intp)
        for a, k, (_, m) in zip(starts, sizes, faces)
    ]
    picks = np.indices([len(c) for c in choices]).reshape(len(faces), -1)
    ends = np.concatenate([c[i] for c, i in zip(choices, picks)], axis=1)
    N = _normals(P[ends[..., 1]] - P[ends[..., 0]])
    H = N @ P.T
    at_pair = H[np.arange(len(H))[:, None], ends[..., 0]]  # N.q = N.p on every pair
    slot_face = np.repeat(np.arange(len(faces)), [m for _, m in faces])
    independent = (N != 0).any(axis=1)
    up = independent & (at_pair == np.maximum.reduceat(H, starts, axis=1)[:, slot_face]).all(axis=1)
    down = independent & (at_pair == np.minimum.reduceat(H, starts, axis=1)[:, slot_face]).all(axis=1)
    U = np.concatenate([N[up], -N[down]])
    U //= np.gcd.reduce(U, axis=1)[:, None]
    return sorted(set(map(tuple, U.tolist())))


def _insertion_order(points, start):
    """Indices outside ``start``, farthest from the centroid first.

    The key is n^2 times the squared distance, sum((n p - sum of points)^2),
    in exact integers; ties keep index order.  It is invariant under
    dilation and translation.
    """
    n = len(points)
    total = [sum(c) for c in zip(*points)]
    skip = set(start)
    return sorted(
        (i for i in range(n) if i not in skip),
        key=lambda i: sum((n * x - t) ** 2 for x, t in zip(points[i], total)),
        reverse=True,
    )


def _hull_incremental(points, d):
    """Beneath-beyond insertion for d in {3, 4}."""
    import numpy as np

    dtype = _dtype_for(max(max(max(col), -min(col)) for col in zip(*points)), d)
    P = np.array(points, dtype=dtype)
    start = _initial_simplex(points, d)
    centre = P[start].sum(axis=0)  # d + 1 times an interior point

    def oriented_planes(V):
        """Outward (normals, offsets) of the facets with sorted vertex rows V."""
        Q = P[V]
        N = _normals(Q[:, 1:] - Q[:, :1])
        b = (N * Q[:, 0]).sum(axis=1)
        s = N @ centre - (d + 1) * b
        if not s.all():
            raise AssertionError("degenerate facet or interior reference on its plane")
        outward = s < 0
        return np.where(outward[:, None], N, -N), np.where(outward, b, -b)

    verts = np.array([sorted(start[:k] + start[k + 1:]) for k in range(d + 1)])
    normals, offsets = oriented_planes(verts)
    for i in _insertion_order(points, start):
        visible = normals @ P[i] > offsets
        if not visible.any():
            continue
        ridge_count = Counter(
            r for vs in verts[visible].tolist() for r in combinations(vs, d - 1)
        )
        horizon = np.array([sorted(r + (i,)) for r, cnt in ridge_count.items() if cnt == 1])
        N, B = oriented_planes(horizon)
        kept = ~visible
        verts = np.concatenate([verts[kept], horizon])
        normals = np.concatenate([normals[kept], N])
        offsets = np.concatenate([offsets[kept], B])

    rows = np.column_stack([normals, offsets])
    rows //= np.gcd.reduce(rows, axis=1)[:, None]
    planes = sorted({(tuple(r[:-1]), r[-1]) for r in rows.tolist()})
    A = np.array([a for a, _ in planes], dtype=dtype)
    c = np.array([b for _, b in planes], dtype=dtype)
    corners = np.unique(verts)
    incidence = (P[corners] @ A.T == c).astype(np.int64)
    shared = incidence @ incidence.T  # planes through both corners
    alone = (shared == shared.diagonal()[:, None]).sum(axis=1) == 1
    vertex_indices = corners[alone].tolist()
    # |det[p_1 - v, ..., p_d - v]| = |b - a.v| for a boundary simplex p_1..p_d
    # with unreduced plane (a, b), summed over the fan from the vertex v
    volume = sum(np.abs(offsets - normals @ P[vertex_indices[0]]).tolist())
    return HullResult(planes, vertex_indices, volume)


def hull_of_lifted(points, d):
    """Hull of deduplicated, lex-sorted integer points of affine rank d >= 1.

    Returns a :class:`HullResult` whose indices refer to ``points``.
    """
    if d == 1:
        return _hull_1d(points)
    if d == 2:
        return _hull_2d(points)
    return _hull_incremental(points, d)

