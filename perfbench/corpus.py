"""Seeded corpora of operations for the four workloads, each with a known answer.

An operation is one ``okounkov-lab`` CLI command on one generated JSON input
(``superadditivity`` is one library call, since it has no command), plus a
check of the captured report against an answer derived here.

The 3D classes and the 1D root counts are drawn fresh from the workload seed
with the acceptance criteria's generators. The other classes, whose cost
varies widely between draws (4D hulls, planar bodies, Laurent subspaces, 2D
root counting, density), take a fixed base draw, made with the criterion's own seed, and the workload
seed moves it by a symmetry that keeps every answer and the work to reach
it: a signed coordinate permutation, lattice translations, a monomial shift
with basis rescaling, or a rotated 64-gon. So a run's cost does not depend on
which inputs the seed happens to draw. See README.md for the classes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

from okounkov_lab import algebra, geometry, mixedvol

from perfbench import oracle


class WrongVerdict(Exception):
    """A report contradicts a known answer: the run is not correct."""


@dataclass
class Op:
    cls: str  # operation class, e.g. "af-check/4d"
    command: str  # CLI command, or "superadditivity" for the library call
    payload: dict  # the JSON input
    flags: tuple = ()
    # check(rc, report) -> None when correct, or a failure reason such as
    # "mismatch"; raises WrongVerdict when an exact verdict is wrong
    check: Callable = None
    path: str = ""


# -- input encoding -----------------------------------------------------------


def _rat(c) -> str:
    c = F(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly(points) -> dict:
    return {"dim": len(points[0]), "vertices": [[_rat(c) for c in p] for p in points]}


def _support(points) -> dict:
    return {"dim": len(points[0]), "points": [list(p) for p in sorted(set(points))]}


def _laurent_json(terms: dict) -> dict:
    return {
        "dim": 2,
        "terms": [{"exp": list(e), "coef": _rat(c)} for e, c in sorted(terms.items())],
    }


# -- generators and symmetries ------------------------------------------------


def _body(rng, n, span, count):
    return [tuple(rng.randint(0, span) for _ in range(n)) for _ in range(count)]


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]

    def apply(points, shift):
        return [tuple(signs[i] * p[perm[i]] + shift[i] for i in range(n)) for p in points]

    return apply


def _shift(rng, n, reach=3):
    return tuple(rng.randint(-reach, reach) for _ in range(n))


def _moved_tuple(rng, bodies):
    """One signed permutation for the whole tuple, a translation per body."""
    n = len(bodies[0][0])
    apply = _signed_permutation(rng, n)
    return [apply(b, _shift(rng, n)) for b in bodies]


def _criterion5_quads(count, span=2, seed=5555):
    """The 4D quadruples of criterion 5's stream (after its 500 triples)."""
    rng = random.Random(seed)
    for _ in range(500):
        for _ in range(3):
            _body(rng, 3, 2, 5)
    return [[_body(rng, 4, span, 5) for _ in range(4)] for _ in range(count)]


def _wide_quads(count, span=8, seed=5558):
    rng = random.Random(seed)
    return [[_body(rng, 4, span, 5) for _ in range(4)] for _ in range(count)]


# -- checks -------------------------------------------------------------------


def _need(cond, message):
    if not cond:
        raise WrongVerdict(message)


def _lattice_mv(value, n, what):
    """n! times a mixed volume of lattice bodies is a nonnegative integer."""
    _need(value >= 0 and (math.factorial(n) * value).denominator == 1,
          f"{what} = {value}: n!*MV of lattice bodies must be a nonnegative integer")


def _check_af(n):
    def check(rc, rep):
        _need(rc == 0 and rep["holds"] is True, "Alexandrov-Fenchel reported violated")
        mv = {k: F(v) for k, v in rep["witness"]["mixed_volumes"].items()}
        for k, v in mv.items():
            _lattice_mv(v, n, k)
        _need(F(rep["lhs"]) == mv["v12"] ** 2 and F(rep["rhs"]) == mv["v11"] * mv["v22"],
              "inequality sides disagree with the reported mixed volumes")
        _need(mv["v12"] ** 2 >= mv["v11"] * mv["v22"], "mixed volumes violate the inequality")
    return check


def _check_bm3(rc, rep):
    _need(rc == 0 and rep["holds"] is True, "Brunn-Minkowski reported violated")
    a, b, c = (F(rep["witness"]["mixed_volume_powers"][k]) for k in ("F1^m", "F2^m", "Fsum^m"))
    for k, v in (("F1^m", a), ("F2^m", b), ("Fsum^m", c)):
        _lattice_mv(v, 3, k)
    # cube roots in floats with a margin; exact ties (homothetic bodies) pass
    gap = float(c) ** (1 / 3) - float(a) ** (1 / 3) - float(b) ** (1 / 3)
    _need(gap > -1e-9 * (1 + float(c)), "volumes violate Brunn-Minkowski")


def _check_mv4(rc, rep):
    _need(rc == 0, "mixedvol failed")
    _lattice_mv(F(rep["mixed_volume"]), 4, "mixed_volume")


def _check_iso(p, q):
    rp, rq = oracle.hull2(p), oracle.hull2(q)
    a1, a2, mixed = oracle.area2(rp), oracle.area2(rq), oracle.mixed_area2(rp, rq)

    def check(rc, rep):
        _need(rc == 0 and rep["holds"] is True, "isoperimetric inequality reported violated")
        _need(F(rep["witness"]["mixed_area"]) == mixed, "mixed area differs from the edge formula")
        _need(F(rep["lhs"]) == a1 * a2 and F(rep["rhs"]) == mixed * mixed,
              "inequality sides differ from exact areas")
    return check


def _check_bm2(p, q):
    rp, rq = oracle.hull2(p), oracle.hull2(q)
    a, b = oracle.area2(rp), oracle.area2(rq)
    c = oracle.area2(oracle.minkowski2(rp, rq))

    def check(rc, rep):
        got = rep["witness"]["mixed_volume_powers"]
        _need((F(got["F1^m"]), F(got["F2^m"]), F(got["Fsum^m"])) == (a, b, c),
              "squared root sums differ from exact areas")
        # sqrt(a) + sqrt(b) <= sqrt(c)  <=>  c - a - b >= 0 and 4ab <= (c - a - b)^2
        holds = c - a - b >= 0 and 4 * a * b <= (c - a - b) ** 2
        _need(rc == 0 and rep["holds"] is True and holds, "Brunn-Minkowski verdict is wrong")
    return check


def _check_profile(p, q, samples):
    rp, rq = oracle.hull2(p), oracle.hull2(q)
    a, b, mixed = oracle.area2(rp), oracle.area2(rq), oracle.mixed_area2(rp, rq)

    def check(rc, rep):
        rows = rep["rows"]
        _need(rc == 0 and len(rows) == samples + 1, "profile row count")
        for row in rows:
            h = F(row["h"])
            want = h * h * a + 2 * h * (1 - h) * mixed + (1 - h) ** 2 * b
            _need(F(row["volume"]) == want, f"profile volume at h={row['h']} is wrong")
    return check


def _check_mv64(ngon):
    xs, ys = [p[0] for p in ngon], [p[1] for p in ngon]
    want = (max(xs) - min(xs) + max(ys) - min(ys)) / 2  # V(unit square, P)

    def check(rc, rep):
        _need(rc == 0 and F(rep["mixed_volume"]) == want,
              "mixed area with the unit square differs from half the widths")
    return check


def _check_density(support, kmax):
    area = oracle.area2(oracle.hull2(support))

    def check(rc, rep):
        rows = rep["rows"]
        _need(rc == 0 and rep["ample"] is True and len(rows) == kmax, "density header")
        for row in rows:
            k = row["k"]
            # a unimodular triangle: #kA = (k+1)(k+2)/2, hull of kA / k = hull of A
            _need(F(row["ratio"]) == F((k + 1) * (k + 2), 2 * k * k), f"ratio at k={k}")
            _need(F(row["volume"]) == area, f"volume at k={k} differs from the hull area")
    return check


def _check_steiner(polygon, rounds):
    area = oracle.area2(oracle.hull2(polygon))

    def check(rc, rep):
        rows = rep["rows"]
        _need(rc == 0 and len(rows) == rounds, "steiner row count")
        _need(all(F(r["area"]) == area for r in rows), "symmetrization changed the area")
    return check


def _basis_hull_area(basis):
    return oracle.area2(oracle.hull2([e for terms in basis for e in terms]))


def _check_okounkov(basis, kmax):
    bound = _basis_hull_area(basis)

    def check(rc, rep):
        _need(rc == 0 and rep["kmax"] == kmax and rep["body_dim"] <= 2, "okounkov header")
        _need(0 <= F(rep["volume"]) <= bound, "body is larger than the Newton polygon")
    return check


def _check_hilbert(dim, kmax):
    def check(rc, rep):
        dims = [r["dim"] for r in rep["rows"]]
        _need(rc == 0 and len(dims) == kmax and dims[0] == dim, "hilbert header")
        _need(all(x <= y for x, y in zip(dims, dims[1:])), "dim L^k decreased")
    return check


def _check_hilbert_monomial(support, kmax):
    twice_area = 2 * oracle.area2(oracle.hull2(support))

    def check(rc, rep):
        dims = [r["dim"] for r in rep["rows"]]
        _need(rc == 0 and len(dims) == kmax, "hilbert header")
        second = dims[-1] - 2 * dims[-2] + dims[-3]
        _need(second == twice_area, f"second difference {second} != 2! * area {twice_area}")
    return check


def _check_superadditivity(rc, rep):
    _need(rc == 0 and rep["holds"] is True, "superadditivity reported violated")


def _check_bkk(expected):
    def check(rc, rep):
        _need(rep["predicted"] == expected, f"predicted {rep['predicted']} != n!*MV {expected}")
        if rc == 0:
            _need(rep["agreed"] is True and rep["modal"] == expected, "exit 0 without agreement")
            return None
        return "mismatch"  # exit 1: the numeric count disagreed with n!*MV
    return check


# -- spatial-af ---------------------------------------------------------------


def spatial_af(seed, tiny=False):
    rng = random.Random(f"spatial-af:{seed}")
    ops = []
    for _ in range(_count(20, tiny)):
        bodies = [_body(rng, 3, 2, 5) for _ in range(3)]
        ops.append(Op("af-check/3d", "af-check", {"bodies": [_poly(b) for b in bodies]},
                      check=_check_af(3)))
    for _ in range(_count(8, tiny)):
        d1, d2 = _body(rng, 3, 2, 5), _body(rng, 3, 2, 5)
        ops.append(Op("bm-check/3d", "bm-check",
                      {"m": 3, "body1": _poly(d1), "body2": _poly(d2), "fixed": []},
                      check=_check_bm3))
    if not tiny:
        quads = _criterion5_quads(5)
        for quad in quads[:4]:
            bodies = _moved_tuple(rng, quad)
            ops.append(Op("af-check/4d", "af-check", {"bodies": [_poly(b) for b in bodies]},
                          check=_check_af(4)))
        bodies = _moved_tuple(rng, _wide_quads(1)[0])
        ops.append(Op("af-check/4d-span8", "af-check", {"bodies": [_poly(b) for b in bodies]},
                      check=_check_af(4)))
        bodies = _moved_tuple(rng, quads[4])
        ops.append(Op("mixedvol/4d", "mixedvol", {"bodies": [_poly(b) for b in bodies]},
                      check=_check_mv4))
    rng.shuffle(ops)
    return ops


# -- planar -------------------------------------------------------------------


def _ngon64(phase, denom=1 << 20):
    pts = []
    for k in range(64):
        theta = 2 * math.pi * (k + phase) / 64
        pts.append((F(round(math.cos(theta) * denom), denom),
                    F(round(math.sin(theta) * denom), denom)))
    return pts


# Criterion 10's quadrilateral; with --seed 3, 12 rounds cross to floats at round 9.
CRITERION10_QUAD = [(0, 0), (4, 1), (5, 4), (1, 3)]


def _criterion6_pairs(count, seed=66):
    """Pairs of random polygons (5 points in [0,4]^2) from criterion 6's stream."""
    rng = random.Random(seed)
    return [(_body(rng, 2, 4, 5), _body(rng, 2, 4, 5)) for _ in range(count)]


def planar(seed, tiny=False):
    rng = random.Random(f"planar:{seed}")
    ops = []
    pairs = _criterion6_pairs(22)
    for pair in pairs[:_count(8, tiny)]:
        p, q = _moved_tuple(rng, pair)
        ops.append(Op("isoperimetric", "isoperimetric", {"body1": _poly(p), "body2": _poly(q)},
                      check=_check_iso(p, q)))
    for pair in pairs[8:8 + _count(8, tiny)]:
        p, q = _moved_tuple(rng, pair)
        ops.append(Op("bm-check/2d", "bm-check",
                      {"m": 2, "body1": _poly(p), "body2": _poly(q), "fixed": []},
                      check=_check_bm2(p, q)))
    for pair in pairs[16:16 + _count(6, tiny)]:
        p, q = _moved_tuple(rng, pair)
        ops.append(Op("profile", "profile", {"body1": _poly(p), "body2": _poly(q), "samples": 10},
                      check=_check_profile(p, q, 10)))
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for _ in range(_count(2, tiny)):
        ngon = _ngon64(rng.random())
        ops.append(Op("mixedvol/square-64gon", "mixedvol",
                      {"bodies": [_poly(square), _poly(ngon)]}, check=_check_mv64(ngon)))
    if not tiny:
        for _ in range(2):
            support = _signed_permutation(rng, 2)([(0, 0), (1, 0), (0, 1)], _shift(rng, 2, reach=2))
            ops.append(Op("density/k40", "density", {"support": _support(support)}, ("--kmax", "40"),
                          check=_check_density(support, 40)))
        # Fixed: how soon the exact rounds hit the bit cap and hand over to
        # floats depends on the polygon's position and orientation relative
        # to the direction stream, and moves this op's cost by up to 5x.
        ops.append(Op("steiner/r12", "steiner", {"polygon": _poly(CRITERION10_QUAD), "rounds": 12},
                      ("--seed", "3"), check=_check_steiner(CRITERION10_QUAD, 12)))
    rng.shuffle(ops)
    return ops


# -- okounkov -----------------------------------------------------------------

_SIMPLEX = [(0, 0), (1, 0), (0, 1)]
_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


class _Criterion8:
    """Criterion 8's random sparse subspaces, spanned by the program's ``span``."""

    def __init__(self, rng):
        self.rng = rng

    def poly(self, exps, max_terms):
        rng, terms = self.rng, {}
        for _ in range(rng.randint(1, max_terms)):
            terms[exps[rng.randrange(len(exps))]] = rng.randint(-3, 3)
        terms[exps[rng.randrange(len(exps))]] = rng.randint(1, 3)
        return algebra.laurent(2, terms)

    def subspace(self, exps, maxdim):
        while True:
            try:
                polys = [self.poly(exps, 2) for _ in range(self.rng.randint(1, maxdim))]
                sub = algebra.span(2, polys)
            except ValueError:
                continue
            return [dict(f.terms) for f in sub.basis]


def _criterion8_pairs(count, seed=20240801):
    gen = _Criterion8(random.Random(seed))
    pairs = []
    for i in range(count):
        exps, maxdim = (_SIMPLEX, 3) if i % 2 == 0 else (_SQUARE, 2)
        pairs.append((gen.subspace(exps, maxdim), gen.subspace(exps, maxdim)))
    return pairs


def _moved_basis(rng, basis):
    """Multiply by one monomial and rescale each basis element: same span shape."""
    t = _shift(rng, 2)
    out = []
    for terms in basis:
        c = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        out.append({(e[0] + t[0], e[1] + t[1]): c * v for e, v in terms.items()})
    return out


def _subspace_json(basis):
    return {"dim": 2, "basis": [_laurent_json(t) for t in basis]}


def _criterion8_subspaces(count, seed=20240808):
    """Single subspaces from criterion 8's generator, alternating simplex and square."""
    gen = _Criterion8(random.Random(seed))
    return [gen.subspace(*((_SIMPLEX, 3) if i % 2 == 0 else (_SQUARE, 2))) for i in range(count)]


def _index1_supports(count, seed=20240812):
    """Criterion 8's monomial supports: the origin plus three points of [0,2]^2, index 1."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        support = sorted({(0, 0)} | {(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)})
        if oracle.lattice_index2(support) == 1:  # index 1, hence also full-dimensional
            out.append(support)
    return out


def okounkov(seed, tiny=False):
    rng = random.Random(f"okounkov:{seed}")
    ops = []
    base = _criterion8_subspaces(12)
    for basis in base[:_count(6, tiny)]:
        basis = _moved_basis(rng, basis)
        ops.append(Op("okounkov/k8", "okounkov", {"subspace": _subspace_json(basis)},
                      ("--kmax", "8"), check=_check_okounkov(basis, 8)))
    for basis in base[6:6 + _count(6, tiny)]:
        basis = _moved_basis(rng, basis)
        ops.append(Op("hilbert/k8", "hilbert", {"subspace": _subspace_json(basis)},
                      ("--kmax", "8"), check=_check_hilbert(len(basis), 8)))
    for support in _index1_supports(_count(3, tiny)):
        t = _shift(rng, 2)
        support = [(x + t[0], y + t[1]) for x, y in support]
        basis = [{e: 1} for e in support]
        ops.append(Op("hilbert/k12-monomial", "hilbert", {"subspace": _subspace_json(basis)},
                      ("--kmax", "12"), check=_check_hilbert_monomial(support, 12)))
    if not tiny:
        for b1, b2 in _criterion8_pairs(12):
            payload = {"l1": _subspace_json(_moved_basis(rng, b1)),
                       "l2": _subspace_json(_moved_basis(rng, b2)), "k": 8}
            ops.append(Op("superadditivity/k8", "superadditivity", payload,
                          check=_check_superadditivity))
    rng.shuffle(ops)
    return ops


# -- bkk-count ----------------------------------------------------------------

# ROADMAP's BKK-50 pair: with --seed 0 --trials 3, Aberth's Cauchy bound
# overflows on the expanded eliminant and the command raises OverflowError.
BKK50 = ([(2, 7), (4, 3), (6, 2), (6, 3), (6, 7), (7, 5)],
         [(1, 2), (3, 2), (3, 7), (5, 4), (5, 7), (7, 7)])
# Pair 3 of the item-5 draw (seed 1), BKK number 48: at --seed 3 too many
# trials come out degenerate and the command exits 3 (inconclusive).
BKK48 = ([(0, 7), (2, 5), (2, 6), (5, 1), (5, 7), (7, 1)], [(2, 2), (3, 0), (4, 6)])
HAND_PAIR = ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 1)])
# BKK-number strata of the item-5 draw and how many pairs each gives a pass
_STRATA = {(1, 16): 2, (17, 32): 5, (33, 44): 3}


def _bkk_number(supports) -> int:
    """n! * MV by the interpolation oracle (set-up work, not timed)."""
    bodies = [geometry.polytope_of_support(geometry.support_set(len(s[0]), s)) for s in supports]
    value = math.factorial(len(supports)) * mixedvol.mixed_volume_interp(bodies)
    if value.denominator != 1:
        raise WrongVerdict(f"n!*MV = {value} is not an integer")
    return int(value)


def _item5_pairs(seed=1):
    """Support pairs of the item-5 draw from [0,7]^2, the first few per BKK stratum."""
    rng = random.Random(seed)
    picked = {s: [] for s in _STRATA}
    while any(len(picked[s]) < want for s, want in _STRATA.items()):
        pair = tuple(
            sorted({(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(rng.randint(3, 6))})
            for _ in range(2)
        )
        n = _bkk_number(pair)
        for (lo, hi), want in _STRATA.items():
            if lo <= n <= hi and len(picked[(lo, hi)]) < want:
                picked[(lo, hi)].append(pair)
    return [p for s in _STRATA for p in picked[s]]


def _bkk_op(cls, supports, flags):
    expected = _bkk_number(supports)
    return Op(cls, "bkk-verify", {"supports": [_support(s) for s in supports]}, flags,
              check=_check_bkk(expected))


def bkk_count(seed, tiny=False):
    rng = random.Random(f"bkk-count:{seed}")
    ops = []
    for _ in range(_count(3, tiny)):
        support = set()
        while len(support) < 2:
            support = {(rng.randint(-3, 5),) for _ in range(rng.randint(2, 4))}
        ops.append(_bkk_op("bkk-verify/1d", [sorted(support)], ("--seed", str(rng.randrange(10**6)))))

    def moved(pair):
        out = []
        for support in pair:
            t = _shift(rng, 2)
            out.append([(x + t[0], y + t[1]) for x, y in support])
        return out

    ops.append(_bkk_op("bkk-verify/hand-pair", moved(HAND_PAIR),
                       ("--seed", str(rng.randrange(10**6)))))
    if not tiny:
        # pinned coefficient seeds: how many trials come out degenerate, and
        # so the cost and even the verdict, changes with the coefficients
        for index, pair in enumerate(_item5_pairs()):
            ops.append(_bkk_op("bkk-verify/item5", moved(pair), ("--seed", str(1000 + index))))
        ops.append(_bkk_op("bkk-verify/bkk50-overflow", moved(BKK50),
                           ("--seed", "0", "--trials", "3")))
        ops.append(_bkk_op("bkk-verify/bkk48-inconclusive", moved(BKK48), ("--seed", "3")))
    rng.shuffle(ops)
    return ops


def _count(full, tiny):
    return 1 if tiny else full


# -- warm-up ------------------------------------------------------------------


def warmup_ops():
    """One tiny input per command, run once before timing (imports, first calls)."""
    tri3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    tri2 = [(0, 0), (1, 0), (0, 1)]
    sub = _subspace_json([{(0, 0): 1}, {(1, 0): 1}])
    return [
        Op("warmup", "af-check", {"bodies": [_poly(tri3)] * 3}),
        Op("warmup", "bm-check", {"m": 2, "body1": _poly(tri2), "body2": _poly(tri2), "fixed": []}),
        Op("warmup", "isoperimetric", {"body1": _poly(tri2), "body2": _poly(tri2)}),
        Op("warmup", "profile", {"body1": _poly(tri2), "body2": _poly(tri2)}),
        Op("warmup", "mixedvol", {"bodies": [_poly(tri2)] * 2}),
        Op("warmup", "density", {"support": _support(tri2)}, ("--kmax", "2")),
        Op("warmup", "steiner", {"polygon": _poly(tri2), "rounds": 1}),
        Op("warmup", "okounkov", {"subspace": sub}, ("--kmax", "2")),
        Op("warmup", "hilbert", {"subspace": sub}, ("--kmax", "2")),
        Op("warmup", "superadditivity", {"l1": sub, "l2": sub, "k": 2}),
        Op("warmup", "bkk-verify", {"supports": [_support(tri2), _support(tri2)]}),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # build(seed, tiny=False) -> list[Op]
    pass_s: float  # seconds per pass at the reference speed; sets the number of passes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spatial-af", spatial_af, 4.0),
        Workload("planar", planar, 2.0),
        Workload("okounkov", okounkov, 2.0),
        Workload("bkk-count", bkk_count, 4.0),
    )
}
