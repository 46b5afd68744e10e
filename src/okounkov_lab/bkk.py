"""Numeric verification of sparse root counts on the torus for one and two
variables, against the exact prediction n! times the mixed volume of the
Newton polytopes.

Two-variable systems are counted by eliminating y through the Sylvester
resultant.  Its determinant, a polynomial in x, is interpolated: scalar
Sylvester determinants at equally spaced points of a circle, then an
inverse DFT, accepted only if two off-circle spot checks reproduce direct
determinants.  The Aberth iteration then locates the x roots, and y roots
are matched per surviving x.
Genericity comes from randomized coefficients plus modal voting over
independent trials; trials with clustered roots or bad residuals are
discarded as degenerate and retried, never silently counted.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

from . import geometry
from .geometry import SupportSet
from .mixedvol import mixed_volume
from .rng import derive_seed
from .roots import RootFindingError, aberth_roots

DEFAULT_TOL = 1e-8
SEPARATION_FLOOR = 1e-6
CLUSTER_RTOL = 1e-4


class DegenerateSystemError(RuntimeError):
    """A trial produced clustered roots, bad residuals, or a lost resultant."""


@dataclass(frozen=True)
class ComplexLaurentPolynomial:
    """Laurent polynomial with complex double coefficients, 1 or 2 variables."""

    ambient_dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        if self.ambient_dim not in (1, 2):
            raise ValueError("numeric systems support 1 or 2 variables")
        if not self.terms:
            raise ValueError("empty polynomial")
        for e, c in self.terms:
            if len(e) != self.ambient_dim:
                raise ValueError("exponent dimension mismatch")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")

    def support(self) -> SupportSet:
        return geometry.support_set(self.ambient_dim, [e for e, _ in self.terms])

    def __mul__(self, other: "ComplexLaurentPolynomial"):
        acc: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0j) + c1 * c2
        return clp(self.ambient_dim, acc)


def clp(dim: int, terms: dict) -> ComplexLaurentPolynomial:
    cleaned = {tuple(e): complex(c) for e, c in terms.items() if complex(c) != 0}
    return ComplexLaurentPolynomial(dim, tuple(sorted(cleaned.items(), key=lambda t: t[0])))


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


def random_generic_system(supports, seed) -> list[ComplexLaurentPolynomial]:
    """Coefficients i.i.d. with modulus uniform in [1/2, 1], uniform phase."""
    out = []
    for idx, a in enumerate(supports):
        rng = random.Random(derive_seed(seed, "coeffs", idx))
        terms = {}
        for e in sorted(a.points):
            modulus = 0.5 + 0.5 * rng.random()
            phase = 2 * math.pi * rng.random()
            terms[e] = complex(modulus * math.cos(phase), modulus * math.sin(phase))
        out.append(clp(a.ambient_dim, terms))
    return out


def _dense_1d(p: ComplexLaurentPolynomial) -> list[complex]:
    """Shift exponents to make an ordinary polynomial with c_0 != 0."""
    exps = [e[0] for e, _ in p.terms]
    low = min(exps)
    coeffs = [0j] * (max(exps) - low + 1)
    for (e,), c in p.terms:
        coeffs[e - low] = c
    return coeffs


def count_roots_1d(p: ComplexLaurentPolynomial, tol: float = DEFAULT_TOL) -> int:
    """Torus roots of a one-variable Laurent polynomial.

    After monomial normalization all roots of the ordinary polynomial are
    nonzero; the Aberth count must match the degree span and every root
    must clear the origin, otherwise the trial is degenerate.
    """
    if p.ambient_dim != 1:
        raise ValueError("count_roots_1d needs one variable")
    coeffs = _dense_1d(p)
    degree = len(coeffs) - 1
    if degree == 0:
        return 0
    try:
        rts = aberth_roots(coeffs)
    except RootFindingError as exc:
        raise DegenerateSystemError(str(exc)) from exc
    if len(rts) != degree:
        raise DegenerateSystemError("lost leading coefficient during solve")
    if any(abs(z) <= tol for z in rts):
        raise DegenerateSystemError("root collapsed onto the origin")
    return degree


# -- univariate complex polynomials as lists (ascending powers of x) ---------

def _ptrim(cs):
    out = list(cs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _sylvester_matrix(p, q, degy_p, degy_q):
    """Sylvester matrix in y; entries are x-polynomials (ascending lists)."""
    size = degy_p + degy_q

    def row_of(poly, degy):
        width = max(e[0] for e, _ in poly.terms) + 1
        rows = [[0j] * width for _ in range(degy + 1)]
        for (ex, ey), c in poly.terms:
            rows[ey][ex] = c
        return [_ptrim(r) for r in rows]

    prow = row_of(p, degy_p)  # prow[j] = coefficient of y^j, a poly in x
    qrow = row_of(q, degy_q)
    m = [[[] for _ in range(size)] for _ in range(size)]
    for shift in range(degy_q):
        for j, entry in enumerate(reversed(prow)):
            m[shift][shift + j] = entry
    for shift in range(degy_p):
        for j, entry in enumerate(reversed(qrow)):
            m[degy_q + shift][shift + j] = entry
    return m


def _scalar_determinant(m):
    """Complex determinant by Gaussian elimination with partial pivoting."""
    size = len(m)
    a = [row[:] for row in m]
    det = complex(1)
    for k in range(size):
        piv = max(range(k, size), key=lambda i: abs(a[i][k]))
        if abs(a[piv][k]) == 0:
            return complex(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, size):
            f = a[i][k] / a[k][k]
            if f != 0:
                for j in range(k, size):
                    a[i][j] -= f * a[k][j]
    return det


def _eval_entry(entry, x):
    acc = 0j
    for c in reversed(entry):
        acc = acc * x + c
    return acc


def _sylvester_det_at(matrix, x):
    return _scalar_determinant(
        [[_eval_entry(e, x) for e in row] for row in matrix]
    )


def _interpolated_determinant(matrix, degree_bound):
    """Eliminant via scalar eliminations on a circle plus inverse DFT."""
    samples = degree_bound + 1
    radius = 1.1296154  # keeps sample points away from structured roots
    values = []
    for j in range(samples):
        x = radius * cmath.exp(2j * cmath.pi * j / samples)
        values.append(_sylvester_det_at(matrix, x))
    coeffs = []
    for k in range(samples):
        acc = 0j
        for j, v in enumerate(values):
            acc += v * cmath.exp(-2j * cmath.pi * j * k / samples)
        coeffs.append(acc / (samples * radius**k))
    return coeffs


def _validated_eliminant(matrix):
    """Interpolated eliminant, accepted only if both spot checks pass."""
    degree_bound = sum(max((len(e) - 1 for e in row if e), default=0) for row in matrix)
    det = _interpolated_determinant(matrix, degree_bound)
    if _spot_check(matrix, det):
        return det
    raise DegenerateSystemError("eliminant failed pointwise validation")


def _spot_check(matrix, det, rel=1e-6):
    for probe in (0.83219 + 0.41377j, -0.57211 + 1.04933j):
        direct = _sylvester_det_at(matrix, probe)
        assembled = _eval_entry(det, probe)
        scale = sum(abs(c) * abs(probe) ** i for i, c in enumerate(det)) + abs(direct)
        if abs(direct - assembled) > rel * max(scale, 1e-300):
            return False
    return True


def _y_coefficients(poly, x_star):
    """Coefficients in y of p(x*, y), ascending."""
    degy = max(e[1] for e, _ in poly.terms)
    out = [0j] * (degy + 1)
    for (ex, ey), c in poly.terms:
        out[ey] += c * x_star**ex
    return out


def _eval2(poly, x, y):
    return sum(c * x**ex * y**ey for (ex, ey), c in poly.terms)


def _scale2(poly, x, y):
    return max(
        sum(abs(c) * abs(x) ** ex * abs(y) ** ey for (ex, ey), c in poly.terms),
        1e-300,
    )


def _normalize_2d(p: ComplexLaurentPolynomial) -> ComplexLaurentPolynomial:
    """Multiply by a monomial so exponents start at zero in each variable."""
    lows = [min(e[i] for e, _ in p.terms) for i in (0, 1)]
    return clp(
        2, {(e[0] - lows[0], e[1] - lows[1]): c for e, c in p.terms}
    )


def count_solutions_2d(
    p1: ComplexLaurentPolynomial,
    p2: ComplexLaurentPolynomial,
    tol: float = DEFAULT_TOL,
) -> int:
    """Count torus solutions of a generic two-variable system.

    Resultant elimination in y, Aberth on the eliminant, then y recovery at
    each surviving x with residual validation against the other equation.
    """
    if p1.ambient_dim != 2 or p2.ambient_dim != 2:
        raise ValueError("count_solutions_2d needs two variables")
    p1, p2 = _normalize_2d(p1), _normalize_2d(p2)
    degy1 = max(e[1] for e, _ in p1.terms)
    degy2 = max(e[1] for e, _ in p2.terms)
    if degy1 == 0 and degy2 == 0:
        # two univariate-in-x equations share no generic root
        return 0
    if degy1 == 0 or degy2 == 0:
        flat, tall = (p1, p2) if degy1 == 0 else (p2, p1)
        return _count_with_flat(flat, tall, tol)
    resultant = _strip_monomial_factor(
        _validated_eliminant(_sylvester_matrix(p1, p2, degy1, degy2))
    )
    if len(resultant) <= 1:
        return 0
    try:
        xroots = aberth_roots(resultant)
    except RootFindingError as exc:
        raise DegenerateSystemError(str(exc)) from exc
    kept = [x for x in xroots if abs(x) > tol]
    solver = p1 if degy1 > 0 else p2
    total = 0
    for x_star, multiplicity in _cluster_roots(kept):
        ycs = _strip_monomial_factor(_y_coefficients(solver, x_star))
        if len(ycs) <= 1:
            raise DegenerateSystemError("eliminant root without matching fiber")
        try:
            yroots = aberth_roots(ycs)
        except RootFindingError as exc:
            raise DegenerateSystemError(str(exc)) from exc
        solutions = []
        for y in yroots:
            if abs(y) <= tol:
                continue
            polished = _newton_polish(p1, p2, x_star, y)
            if polished is None:
                continue
            px, py = polished
            if abs(px) <= tol or abs(py) <= tol:
                continue
            if abs(px - x_star) > 10 * CLUSTER_RTOL * (1.0 + abs(x_star)):
                continue  # wandered to another basin; not this cluster's point
            if abs(_eval2(p1, px, py)) > tol * _scale2(p1, px, py):
                continue
            if abs(_eval2(p2, px, py)) > tol * _scale2(p2, px, py):
                continue
            if all(abs(py - qy) >= SEPARATION_FLOOR for _, qy in solutions):
                solutions.append((px, py))
        if len(solutions) != multiplicity:
            # an eliminant root of multiplicity m must sit below exactly m
            # simple torus solutions; a mismatch means a multiple solution
            # (fiber roots collapsed) or a numerically lost fiber point
            raise DegenerateSystemError("fiber count disagrees with eliminant multiplicity")
        total += len(solutions)
    return total


def _strip_monomial_factor(coeffs, rel=1e-10):
    """Drop numerically null leading and trailing coefficients.

    A power of the variable dividing the eliminant corresponds to excluded
    solutions on the coordinate torus boundary; removing it keeps the root
    finder conditioned on the meaningful part.
    """
    biggest = max((abs(c) for c in coeffs), default=0.0)
    if biggest == 0.0:
        raise DegenerateSystemError("eliminant vanished identically")
    out = list(coeffs)
    while out and abs(out[-1]) <= rel * biggest:
        out.pop()
    low = 0
    while low < len(out) and abs(out[low]) <= rel * biggest:
        low += 1
    return out[low:]


def _newton_polish(p1, p2, x, y, steps=12):
    """Joint Newton refinement of an approximate system solution."""
    for _ in range(steps):
        f1, f2 = _eval2(p1, x, y), _eval2(p2, x, y)
        a = _eval2_dx(p1, x, y)
        b = _eval2_dy(p1, x, y)
        c = _eval2_dx(p2, x, y)
        d = _eval2_dy(p2, x, y)
        det = a * d - b * c
        if det == 0:
            return None
        dx = (f1 * d - f2 * b) / det
        dy = (a * f2 - c * f1) / det
        x, y = x - dx, y - dy
        if abs(dx) < 1e-14 * (1 + abs(x)) and abs(dy) < 1e-14 * (1 + abs(y)):
            break
    return x, y


def _eval2_dx(poly, x, y):
    return sum(
        c * ex * x ** (ex - 1) * y**ey for (ex, ey), c in poly.terms if ex
    )


def _eval2_dy(poly, x, y):
    return sum(
        c * ey * x**ex * y ** (ey - 1) for (ex, ey), c in poly.terms if ey
    )


def _count_with_flat(flat, tall, tol):
    """One equation is univariate in x: solve it, then recover y."""
    xcs = [0j] * (max(e[0] for e, _ in flat.terms) + 1)
    for (ex, _), c in flat.terms:
        xcs[ex] += c
    if len(_ptrim(xcs)) <= 1:
        return 0
    try:
        xroots = aberth_roots(xcs)
    except RootFindingError as exc:
        raise DegenerateSystemError(str(exc)) from exc
    kept = [x for x in xroots if abs(x) > tol]
    _check_separation(kept)
    total = 0
    for x_star in kept:
        ycs = _ptrim(_y_coefficients(tall, x_star))
        if len(ycs) <= 1:
            continue
        try:
            yroots = aberth_roots(ycs)
        except RootFindingError as exc:
            raise DegenerateSystemError(str(exc)) from exc
        good = [y for y in yroots if abs(y) > tol]
        _check_separation(good)
        total += len(good)
    return total


def _check_separation(roots):
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < SEPARATION_FLOOR:
                raise DegenerateSystemError("clustered roots below separation floor")


def _cluster_roots(roots):
    """Collapse numerically coincident eliminant roots into (value, size).

    A root of multiplicity m computed in floating point scatters into m
    nearby values, so members within the cluster radius are merged.  Two
    distinct cluster representatives closer than ten radii are ambiguous
    and mark the trial degenerate.
    """
    clusters: list[list[complex]] = []
    for z in sorted(roots, key=lambda c: (c.real, c.imag)):
        for cl in clusters:
            if abs(z - cl[0]) <= CLUSTER_RTOL * (1.0 + abs(cl[0])):
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = []
    for cl in clusters:
        rep = sum(cl) / len(cl)
        out.append((rep, len(cl)))
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            gap = abs(out[i][0] - out[j][0])
            if gap < 10 * CLUSTER_RTOL * (1.0 + abs(out[i][0])):
                raise DegenerateSystemError("ambiguous eliminant root clusters")
    return out


def _count_system(system, tol):
    if len(system) == 1:
        return count_roots_1d(system[0], tol)
    return count_solutions_2d(system[0], system[1], tol)


def _run_trials(supports, trials, seed, tol, label, max_retries):
    counts = []
    degenerate = 0
    attempt = 0
    while len(counts) < trials:
        if attempt >= trials + max_retries:
            break
        system = random_generic_system(supports, derive_seed(seed, label, attempt))
        attempt += 1
        try:
            counts.append(_count_system(system, tol))
        except DegenerateSystemError:
            degenerate += 1
    return counts, degenerate


def _modal(counts):
    if not counts:
        return None, False
    tally: dict[int, int] = {}
    for c in counts:
        tally[c] = tally.get(c, 0) + 1
    best = max(tally, key=lambda c: (tally[c], -c))
    return best, tally[best] * 2 > len(counts)


def verify_bkk(
    supports,
    trials: int = 5,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    include_completion: bool = True,
    max_retries: int = 12,
) -> CountReport:
    """Randomized root-count verification with modal voting.

    Runs `trials` independent generic systems, takes the modal count, and
    compares with the exact prediction.  When `include_completion` is set
    the same verification runs on the lattice-point completions of the
    supports, whose counts must agree with the originals.
    """
    from .semigroup import completion

    supports = list(supports)
    n = supports[0].ambient_dim
    if n not in (1, 2):
        raise ValueError("numeric verification is implemented for n in {1, 2}")
    if len(supports) != n:
        raise ValueError(f"need exactly {n} supports")
    if trials < 3:
        raise ValueError("at least 3 trials required for a modal count")
    if not 0 < tol < 1:
        raise ValueError("tolerance must satisfy 0 < tol < 1")
    predicted = bkk_number(supports)

    batches = [("base", supports)]
    if include_completion:
        batches.append(("completion", [completion(a) for a in supports]))
    results = {
        label: _run_trials(sup, trials, seed, tol, label, max_retries)
        for label, sup in batches
    }

    counts, degenerate = results["base"]
    modal, majority = _modal(counts)
    diagnostics = {
        "tolerance": tol,
        "majority": majority,
        "inconclusive": not majority or len(counts) < trials,
    }
    agreed = majority and modal == predicted and len(counts) >= trials
    if include_completion:
        ccounts, cdeg = results["completion"]
        cmodal, cmaj = _modal(ccounts)
        degenerate += cdeg
        diagnostics["completion_trials"] = ccounts
        diagnostics["completion_modal"] = cmodal
        diagnostics["inconclusive"] = diagnostics["inconclusive"] or not cmaj
        agreed = agreed and cmaj and cmodal == predicted
    return CountReport(
        predicted=predicted,
        trials=tuple(counts),
        modal=modal,
        agreed=bool(agreed),
        degenerate_trials=degenerate,
        diagnostics=diagnostics,
    )
