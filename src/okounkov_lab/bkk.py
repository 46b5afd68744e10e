"""Certified exact verification of sparse root counts on the torus for one
and two variables, against the exact prediction n! times the mixed volume of
the Newton polytopes.

Polynomials are :class:`algebra.LaurentPolynomial` with integer
coefficients (``algebra.laurent`` scales a rational input by the lcm of its
denominators, which moves no root), and random trials draw integer
coefficients +-k.  Generic integer coefficients are as good a witness as
any generic choice, so each count is a proof about one explicit system,
not a floating-point estimate.

A one-variable polynomial, shifted to an ordinary polynomial with a nonzero
constant term, has as many torus roots as its degree once it is squarefree.
A two-variable system is first rewritten in coordinates of its supports'
difference lattice, of index d, read off that lattice's Hermite basis
(``semigroup.hermite_basis``).  Its eliminant R = Res_y(p1, p2) is then an
integer polynomial of degree at most a proven bound B.  Its coefficients are
the balanced base-2^K digits of one resultant of two univariate integer
polynomials at x = 2^K, K from a 1-norm bound on them (Kronecker
substitution; von zur Gathen and Gerhard, *Modern Computer Algebra*, 8.4).
Past a packed size B K of PACKED_BITS they are instead interpolated, with
integers only, from the resultants at B + 1 integer points.  Each resultant
is taken over the formal y-degrees by Collins' subresultant PRS (Cohen,
Alg. 3.3.7).
Let R~ = R / x^k with R~(0) != 0.  If R~ is squarefree, coprime to both
leading y-coefficients and coprime to p1(x, 0), every root of R~ lies below
exactly one torus solution, a simple one, so the system has exactly
d * deg R~ torus roots.  These checks run modulo one prime, where they are
one-sided: a reduction of the same degree that is squarefree (or coprime)
there is squarefree (or coprime) over Q.

A trial whose checks fail is degenerate, with a named reason, and is never
counted; the retry draws fresh coefficients and a shear (x, y) -> (x y^a, y).
Verification runs one trial loop on the supports and on their lattice-point
completions, and decides only when both certify every trial asked for, each
with a strict modal majority.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from . import geometry
from .algebra import LaurentPolynomial, laurent
# unused: perfbench/tracing.py looks roots.aberth_roots up among the modules cli loads
from . import roots  # noqa: F401
from .mixedvol import mixed_volume
from .rng import derive_seed
from .semigroup import completion, hermite_basis

# the modulus of the certificate checks; fixed, because another prime would
# change which trials are degenerate and so the reports
PRIME = 2**64 - 59
COEFFICIENT_BITS = 17
SHEARS = (-2, -1, 1, 2)

# budgets: verify_bkk rejects inputs past them before any trial runs
MAX_TRIALS = 20
MAX_RETRIES = 12  # degenerate trials a batch may throw away
MAX_SYLVESTER_ORDER = 20
MAX_ELIMINANT_DEGREE = 160

# the largest packed size B K, in bits, at which _eliminant takes one
# resultant at x = 2^K rather than B + 1 resultants and an interpolation
PACKED_BITS = 2**14


class DegenerateSystemError(RuntimeError):
    """A trial failed a certificate check; the message names the check."""


@dataclass(frozen=True)
class CountReport:
    predicted: int
    trials: tuple[int, ...]
    modal: int | None
    agreed: bool
    degenerate_trials: int
    diagnostics: dict = field(compare=False)


def bkk_number(supports) -> int:
    """n! times the mixed volume of the support hulls, asserted integral."""
    supports = list(supports)
    if not supports:
        raise ValueError("no supports given")
    hulls = [geometry.polytope_of_support(a) for a in supports]
    n = hulls[0].ambient_dim
    value = math.factorial(n) * mixed_volume(hulls)
    if value.denominator != 1:
        raise AssertionError("root-count bound must be an integer for lattice supports")
    return int(value)


def random_generic_system(supports, seed) -> list[LaurentPolynomial]:
    """Integer coefficients +-k, k uniform in [2^16, 2^17]."""
    out = []
    top = 2**COEFFICIENT_BITS
    for idx, a in enumerate(supports):
        rng = random.Random(derive_seed(seed, "coeffs", idx))
        terms = {e: rng.choice((-1, 1)) * rng.randint(top // 2, top) for e in sorted(a.points)}
        out.append(laurent(a.ambient_dim, terms))
    return out


# -- polynomials modulo PRIME, as ascending coefficient lists -----------------


def _trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _coprime(a, b) -> bool:
    """gcd(a, b) = 1 modulo PRIME; a must be nonzero, entries reduced."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, PRIME)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            q = a[i] % PRIME * inv % PRIME
            if q:
                for j in range(db):
                    a[i - db + j] -= q * b[j]  # reduced when it leads or remains
        a, b = b, _trim([c % PRIME for c in a[:db]])
    return len(a) == 1


def _certify(f, leads, axis) -> int:
    """Degree of the exact polynomial f (f[0] != 0) after the modular checks."""
    f = [c % PRIME for c in f]
    if not f[0] or not f[-1]:
        raise DegenerateSystemError("degree drops mod p")
    if not _coprime(f, [i * c % PRIME for i, c in enumerate(f)][1:]):
        raise DegenerateSystemError("not squarefree mod p")
    if not all(_coprime(f, [c % PRIME for c in g]) for g in leads):
        raise DegenerateSystemError("shares a root with a leading coefficient")
    if axis is not None and not _coprime(f, [c % PRIME for c in axis]):
        raise DegenerateSystemError("shares a root with p1(x, 0)")
    return len(f) - 1


def count_roots_1d(p: LaurentPolynomial) -> int:
    """Torus roots of a one-variable Laurent polynomial, certified.

    After monomial normalization the constant term is nonzero, so every
    root is a torus root; a squarefree polynomial has as many as its
    degree, otherwise the trial is degenerate.  The polynomial is its own
    eliminant, so a degree past MAX_ELIMINANT_DEGREE is a ValueError.
    """
    if p.ambient_dim != 1:
        raise ValueError("count_roots_1d needs one variable")
    if p.is_zero:
        raise ValueError("the zero polynomial has no root count")
    low = min(e[0] for e, _ in p.terms)
    degree = max(e[0] for e, _ in p.terms) - low
    _check_size(0, degree)
    dense = [0] * (degree + 1)
    for (e,), c in p.terms:
        dense[e - low] = c
    return _certify(dense, (), None)


# -- two variables -----------------------------------------------------------


def _lattice_coordinates(exponents, shear):
    """Index of the exponent lists' difference lattice, the lists in its
    coordinates, and their eliminant's degree bound.

    Each list is shifted by its minimum, written in the Hermite basis
    (u0, u1), (0, w) of that lattice (``semigroup.hermite_basis``) when it
    has rank 2, sheared by (s, t) -> (s, t + a s), and shifted to start at
    0.  A torus root of the new system lies below `index` torus roots of
    the old one.  The shear acts after the change of basis, where the
    basis' normal form cannot absorb it.  A shear that leaves a list flat
    (one y value, several x values: no y to eliminate) or the eliminant
    over its budget gives way to the first of 0, 1, -1, 2 that does
    neither; if none does, the first that leaves no list flat is rejected
    with :func:`_check_size`'s error.
    """
    bases = [min(es) for es in exponents]
    moved = [[(x - b[0], y - b[1]) for x, y in es] for es, b in zip(exponents, bases)]
    basis = hermite_basis([v for es in moved for v in es])
    index = 1
    if len(basis) == 2:
        (u0, u1), (_, w) = basis
        index = u0 * w
        moved = [[(x // u0, (y - x // u0 * u1) // w) for x, y in es] for es in moved]
    first = None
    for a in (shear, 0, 1, -1, 2):
        out = []
        for es in moved:
            es = [(x, y + a * x) for x, y in es]
            lo = (min(x for x, _ in es), min(y for _, y in es))
            out.append([(x - lo[0], y - lo[1]) for x, y in es])
        if any(len({y for _, y in es}) == 1 < len(es) for es in out):
            continue
        order, bound = _eliminant_size(*out)
        if order <= MAX_SYLVESTER_ORDER and bound <= MAX_ELIMINANT_DEGREE:
            return index, out, bound
        first = first or (order, bound)
    _check_size(*first)  # raises; each list is flat under one shear at most


def _eliminant_size(e1, e2):
    """Sylvester order in y and a degree bound in x of Res_y, from exponents."""
    dx1, dy1 = (max(v[i] for v in e1) for i in (0, 1))
    dx2, dy2 = (max(v[i] for v in e2) for i in (0, 1))
    return dy1 + dy2, dy2 * dx1 + dy1 * dx2


def _check_size(order, bound):
    if order > MAX_SYLVESTER_ORDER:
        raise ValueError(
            f"eliminant has Sylvester order {order}; the limit is {MAX_SYLVESTER_ORDER}"
        )
    if bound > MAX_ELIMINANT_DEGREE:
        raise ValueError(f"eliminant has degree bound {bound}; the limit is {MAX_ELIMINANT_DEGREE}")


def _strip(cs):
    """The list cs without its leading zeros."""
    return cs[next((i for i, c in enumerate(cs) if c), len(cs)):]


def _resultant(c1, c2):
    """Res(f, g) of descending coefficient lists over their formal degrees
    d1 = len(c1) - 1 and d2 = len(c2) - 1, so the determinant of the
    Sylvester matrix of c1 and c2 even where leading coefficients vanish.

    Entries are integers.  Zero leads are stripped and restored by the
    formal-degree identities: with both leads zero the Sylvester matrix has
    a zero first column; if only g drops to degree e2, Res = lc(f)^(d2 - e2)
    Res(f, g); if only f drops to degree e1, Res = (-1)^(d2 (d1 - e1))
    lc(g)^(d1 - e1) Res(f, g).
    """
    d1, d2 = len(c1) - 1, len(c2) - 1
    if not d1:
        return c1[0] ** d2
    if not d2:
        return c2[0] ** d1
    f, g = _strip(c1), _strip(c2)
    if not f or not g or (len(f) <= d1 and len(g) <= d2):
        return 0
    if len(g) <= d2:
        return f[0] ** (d2 + 1 - len(g)) * _subresultant(f, g)
    drop = d1 + 1 - len(f)
    scale = g[0] ** drop
    return (-scale if d2 * drop % 2 else scale) * _subresultant(f, g)


def _subresultant(a, b):
    """Res(a, b) of nonzero descending lists over their true degrees.

    Collins' subresultant PRS as in Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 3.3.7, without content removal: each
    pseudo-remainder is divided exactly by g h^delta, so entries stay
    integers of subresultant size.
    """
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da * db % 2:
            s = -s
        lb, tail = b[0], b[1:]
        r = a
        for _ in range(delta + 1):
            q = r[0]
            r = [lb * x - q * y for x, y in zip(r[1:], tail)] + [lb * x for x in r[db + 1:]]
        divisor = g * h**delta
        r = [c // divisor for c in r]
        a, b = b, _strip(r)
        g = a[0]
        if delta:
            h = g**delta // h ** (delta - 1)
    if not b:
        return 0
    da = len(a) - 1  # h = 1 if the loop never ran; da = 0 for two constants
    return s * (b[0] ** da // h ** max(da - 1, 0))


def _interpolate(values, x0):
    """Coefficients of the polynomial of degree < len(values) through
    (x0 + j, values[j]), by forward differences and a falling-factorial
    Horner scheme scaled by B!, then one exact division."""
    b = len(values) - 1
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [q - p for p, q in zip(row, row[1:])]
    poly, scale = [diffs[b]], 1  # scale = B! / k!
    for k in range(b - 1, -1, -1):
        scale *= k + 1
        poly = [0] + poly
        for j in range(len(poly) - 1):
            poly[j] -= (x0 + k) * poly[j + 1]
        poly[0] += diffs[k] * scale
    return [c // scale for c in poly]


def _eliminant(rows1, rows2, bound):
    """Res_y as bound + 1 integer coefficients in x; rows[j] is the
    x-polynomial of y^j, and bound is a proven upper bound on deg_x Res_y.

    While the packed size bound * K is at most PACKED_BITS, the x-rows are
    packed at x = 2^K (Kronecker substitution): one resultant R(2^K) on big
    integers, whose balanced base-2^K digits are the coefficients r_i.  The
    digits are exact once every |r_i| < 2^(K-1).  R is the determinant of
    the Sylvester matrix S(x), so ||R||_1 <= sum over permutations s of
    prod_i ||S_i,s(i)||_1, the permanent of the entries' 1-norms, which is
    at most the product of its row sums M = ||p1||_1^d2 ||p2||_1^d1 (d1, d2
    the y-degrees); hence K = M.bit_length() + 1.  With deg R <= bound,
    nothing is left over past the last digit; anything left is an
    AssertionError.

    Past PACKED_BITS, R is taken at the bound + 1 integer points around 0
    and interpolated.  The packed PRS divides big integers, in time
    quadratic in bound * K, and near 2^14 bits it costs as much as the
    bound + 1 small resultants; beyond that it costs more.
    """

    def at(x):
        return _resultant([_evaluate(r, x) for r in reversed(rows1)],
                          [_evaluate(r, x) for r in reversed(rows2)])

    d1, d2 = len(rows1) - 1, len(rows2) - 1
    n1, n2 = (sum(abs(c) for r in rows for c in r) for rows in (rows1, rows2))
    k = (n1**d2 * n2**d1).bit_length() + 1
    if bound * k <= PACKED_BITS:
        return _digits(at(1 << k), k, bound + 1)
    x0 = -(bound // 2)
    return _interpolate([at(x) for x in range(x0, x0 + bound + 1)], x0)


def _digits(v, k, count):
    """The count balanced base-2^k digits of v, lowest first, each in
    [-2^(k-1), 2^(k-1)); AssertionError if v has more."""
    x, half = 1 << k, 1 << (k - 1)
    out = []
    for _ in range(count):
        d = v & (x - 1)
        if d >= half:
            d -= x
        out.append(d)
        v = (v - d) >> k
    if v:
        raise AssertionError("packed resultant has digits past the eliminant's degree bound")
    return out


def _evaluate(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _y_rows(terms):
    """rows[j] = dense ascending x-coefficients of y^j."""
    width = max(e[0] for e, _ in terms) + 1
    rows = [[0] * width for _ in range(max(e[1] for e, _ in terms) + 1)]
    for (ex, ey), c in terms:
        rows[ey][ex] = c
    return rows


def count_solutions_2d(
    p1: LaurentPolynomial,
    p2: LaurentPolynomial,
    shear: int = 0,
) -> int:
    """Torus solutions of a two-variable system, certified exactly.

    The system is rewritten in lattice coordinates with the given shear
    (see :func:`_lattice_coordinates`), its integer eliminant R~ is built,
    and d * deg R~ is returned if R~ passes the modular checks.  Otherwise
    :class:`DegenerateSystemError` names the check that failed.  The shear
    changes which eliminant is built, never the count it certifies.
    """
    if p1.ambient_dim != 2 or p2.ambient_dim != 2:
        raise ValueError("count_solutions_2d needs two variables")
    if p1.is_zero or p2.is_zero:
        raise ValueError("the zero polynomial has no root count")
    exponents = [[e for e, _ in p.terms] for p in (p1, p2)]
    index, (e1, e2), bound = _lattice_coordinates(exponents, shear)
    rows1 = _y_rows(list(zip(e1, (c for _, c in p1.terms))))
    rows2 = _y_rows(list(zip(e2, (c for _, c in p2.terms))))
    r = _trim(_eliminant(rows1, rows2, bound))
    if not r:
        raise DegenerateSystemError("eliminant vanishes identically")
    r = _strip(r)
    return index * _certify(r, (rows1[-1], rows2[-1]), rows1[0])


# -- verification ------------------------------------------------------------


def _first_attempt(supports):
    """The batch's counter (system, shear) -> count, once the first attempt's
    eliminant is within budget.  In one variable the polynomial is its own
    eliminant, of degree its span."""
    if len(supports) == 1:
        pts = supports[0].sorted_points()
        _check_size(0, pts[-1][0] - pts[0][0])
        return lambda system, shear: count_roots_1d(system[0])
    _lattice_coordinates([a.sorted_points() for a in supports], 0)
    return lambda system, shear: count_solutions_2d(system[0], system[1], shear)


def _run_trials(supports, count, trials, seed, label, predicted, reasons):
    """Certified counts from up to trials + MAX_RETRIES attempts, the number
    of degenerate ones (reasons tallied in `reasons`), the modal count (the
    smallest most frequent; None without counts) and whether it is a strict
    majority of the counts."""
    counts = []
    degenerate = 0
    for attempt in range(trials + MAX_RETRIES):
        if len(counts) == trials:
            break
        trial_seed = derive_seed(seed, label, attempt)
        system = random_generic_system(supports, trial_seed)
        shear = 0
        if degenerate:  # a retry: fresh coefficients and a shear
            shear = random.Random(derive_seed(trial_seed, "shear")).choice(SHEARS)
        try:
            c = count(system, shear)
            if c < predicted:
                # a certified count below the bound: these coefficients are not generic
                raise DegenerateSystemError("fewer roots than predicted")
            counts.append(c)
        except DegenerateSystemError as exc:
            degenerate += 1
            reasons[str(exc)] += 1
    tally = Counter(counts)
    modal = max(tally, key=lambda c: (tally[c], -c), default=None)
    return counts, degenerate, modal, tally[modal] * 2 > len(counts)


def verify_bkk(supports, trials: int = 5, seed: int = 0) -> CountReport:
    """Randomized root-count verification with certified trials.

    One trial loop runs on the supports and on their lattice-point
    completions (rejected past ``geometry.MAX_LATTICE_CANDIDATES``) once
    both batches' first-attempt budgets hold.  Each batch counts generic
    systems exactly, throws away at most MAX_RETRIES degenerate ones with
    their reasons, and takes the modal count.  The verdict is decided only
    when both batches certified `trials` counts, each with a strict modal
    majority; `inconclusive` means undecided, and `agreed` means decided
    with both modal counts equal to the prediction.
    """
    supports = list(supports)
    if not supports:
        raise ValueError("no supports given")
    n = supports[0].ambient_dim
    if any(a.ambient_dim != n for a in supports):
        raise ValueError("supports of mixed dimensions")
    if n not in (1, 2):
        raise ValueError("root-count verification is implemented for n in {1, 2}")
    if len(supports) != n:
        raise ValueError(f"need exactly {n} supports")
    if not 3 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 3..{MAX_TRIALS}")
    batches = [("base", supports), ("completion", [completion(a) for a in supports])]
    counters = [_first_attempt(sup) for _, sup in batches]
    predicted = bkk_number(supports)
    reasons: Counter = Counter()
    (counts, degenerate, modal, majority), (ccounts, cdeg, cmodal, cmaj) = [
        _run_trials(sup, count, trials, seed, label, predicted, reasons)
        for (label, sup), count in zip(batches, counters)
    ]
    decided = majority and cmaj and len(counts) == len(ccounts) == trials
    diagnostics = {
        "majority": majority,
        "inconclusive": not decided,
        "completion_trials": ccounts,
        "completion_modal": cmodal,
        "degenerate_reasons": dict(sorted(reasons.items())),
    }
    return CountReport(
        predicted=predicted,
        trials=tuple(counts),
        modal=modal,
        agreed=decided and modal == cmodal == predicted,
        degenerate_trials=degenerate + cdeg,
        diagnostics=diagnostics,
    )
