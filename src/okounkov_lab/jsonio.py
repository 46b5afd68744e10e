"""Wire formats: JSON parsing and canonical serialization.

Rationals travel as strings "p/q" (or "p"), floats as fixed
17-significant-digit strings, so serialized reports are byte-stable across
runs.  Library results stay exact: :func:`wire` is the one place a report
value takes its wire form, applied once to the whole report.
:class:`SchemaError` is a JSON-shape error that this module detects itself;
a domain error is a plain ``ValueError``, raised here (a dependent basis)
or by a constructor it calls (a zero grading weight).  The CLI maps both to
its input-error exit code.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction

from . import algebra, geometry


class SchemaError(ValueError):
    """Input does not match the documented schema."""


def frac_to_str(q) -> str:
    """A rational as "p/q", or "p" when it is an integer: ``str`` of a Fraction."""
    return str(q if type(q) is Fraction else Fraction(q))


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def str_to_frac(s) -> Fraction:
    if is_int(s):
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise SchemaError(f"expected a rational string \"p\" or \"p/q\", got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}") from exc


def float_to_str(x: float) -> str:
    return f"{x:.17g}"


def _expect(obj, key, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing field {key!r}")
    val = obj[key]
    if kind is not None and not (is_int(val) if kind is int else isinstance(val, kind)):
        raise SchemaError(f"field {key!r} has the wrong type")
    return val


def polytope_to_json(p: geometry.LatticePolytope) -> dict:
    return {
        "dim": p.ambient_dim,
        "vertices": [[frac_to_str(c) for c in v] for v in p.vertices],
    }


def polytope_from_json(obj) -> geometry.LatticePolytope:
    dim = _expect(obj, "dim", int)
    verts = _expect(obj, "vertices", list)
    if not verts:
        raise SchemaError("polytope needs at least one vertex")
    pts = []
    for v in verts:
        if not isinstance(v, list) or len(v) != dim:
            raise SchemaError("vertex arity does not match dim")
        pts.append(tuple(str_to_frac(c) for c in v))
    return geometry.convex_hull(pts)


def support_to_json(a: geometry.SupportSet) -> dict:
    return {"dim": a.ambient_dim, "points": [list(p) for p in a.sorted_points()]}


def support_from_json(obj) -> geometry.SupportSet:
    dim = _expect(obj, "dim", int)
    points = _expect(obj, "points", list)
    out = []
    for p in points:
        if not isinstance(p, list) or len(p) != dim or not all(is_int(c) for c in p):
            raise SchemaError("support points must be integer vectors of length dim")
        out.append(tuple(p))
    if not out:
        raise SchemaError("support set must be nonempty")
    return geometry.support_set(dim, out)


def laurent_from_json(obj) -> algebra.LaurentPolynomial:
    dim = _expect(obj, "dim", int)
    terms_raw = _expect(obj, "terms", list)
    terms = {}
    for t in terms_raw:
        exp = _expect(t, "exp", list)
        if len(exp) != dim or not all(is_int(c) for c in exp):
            raise SchemaError("exponents must be integer vectors of length dim")
        if tuple(exp) in terms:
            raise SchemaError(f"exponent {exp} appears twice in terms")
        terms[tuple(exp)] = str_to_frac(_expect(t, "coef"))
    return algebra.laurent(dim, terms)


def subspace_from_json(obj) -> algebra.LaurentSubspace:
    """The span of a basis: nonempty, each polynomial of dimension ``dim``
    and nonzero, and independent, checked in that order."""
    dim = _expect(obj, "dim", int)
    basis = [laurent_from_json(b) for b in _expect(obj, "basis", list)]
    if not basis:
        raise ValueError("subspace needs a nonempty basis")
    for f in basis:
        if f.ambient_dim != dim:
            raise ValueError("basis dimension mismatch")
        if f.is_zero:
            raise ValueError("zero polynomial in a basis")
    l = algebra.span(dim, basis)
    if l.dim != len(basis):
        raise ValueError("basis polynomials are linearly dependent")
    return l


def order_from_json(obj) -> algebra.MonomialOrder:
    """The order ``{"kind": ..., "grading": ...}``: lex has no grading, grlex one."""
    if obj is None:
        return algebra.LEX
    kind = _expect(obj, "kind", str)
    if kind not in ("lex", "grlex"):
        raise SchemaError(f"unknown order kind {kind!r}")
    if kind == "grlex" or "grading" in obj:
        grading = _expect(obj, "grading", list)
        if not all(is_int(w) for w in grading):
            raise SchemaError("grading must be a list of integers")
        if kind == "lex":
            raise SchemaError("plain lex takes no grading")
        return algebra.MonomialOrder(tuple(grading))
    return algebra.LEX


def polygon_from_json(obj) -> geometry.LatticePolytope:
    """A polytope with ``dim = 2`` that must be full-dimensional."""
    if _expect(obj, "dim", int) != 2:
        raise SchemaError("polygons are two-dimensional")
    p = polytope_from_json(obj)
    if not p.is_full_dimensional:
        raise SchemaError("degenerate polygon")
    return p


def wire(value):
    """The wire form of a report value: a Fraction through :func:`frac_to_str`,
    a float through :func:`float_to_str`, a Decimal in its own digits, a
    tuple or list as a list and a dict item by item; anything else (str,
    int, bool, None) is unchanged.

    Each value costs one table lookup on its exact type, not a chain of
    ``isinstance`` tests; reports are large (every body's vertices).
    """
    convert = _WIRE.get(type(value))
    return value if convert is None else convert(value)


def _wire_list(values) -> list:
    return [wire(v) for v in values]


_WIRE = {
    Fraction: frac_to_str,
    float: float_to_str,
    Decimal: "{:g}".format,
    tuple: _wire_list,
    list: _wire_list,
    dict: lambda d: {k: wire(v) for k, v in d.items()},
}


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
