"""Built-in example corpus replayed by the `selftest` CLI command.

Each case recomputes a desk-scale known answer through the public API and
reports pass or fail; the whole run is deterministic for a fixed seed, so
two invocations emit byte-identical reports.  A case that raises aborts the
run, so the CLI reports a crash as an internal error, never as a failed case.
"""

from __future__ import annotations

from fractions import Fraction as F

from . import algebra, bkk, geometry, mixedvol, semigroup, steiner
from .radicals import compare_root_sums


def _cases(seed: int):
    g = geometry
    # the unit square and the standard triangle, shared by most cases
    sq = g.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    si = g.convex_hull([(0, 0), (1, 0), (0, 1)])

    def hull_interior_point():
        p = g.convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))])
        return len(p.vertices) == 3

    def hull_boundary_point():
        p = g.convex_hull([(0, 0), (2, 0), (0, 2), (1, 1)])
        return len(p.vertices) == 3

    def minkowski_pentagon():
        seg = g.convex_hull([(0, 0), (1, 1)])
        expected = g.convex_hull([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)])
        return g.minkowski_sum(si, seg) == expected

    def volumes():
        penta = g.convex_hull([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)])
        return (
            g.volume(sq) == 1
            and g.volume(si) == F(1, 2)
            and g.volume(penta) == F(5, 2)
        )

    def lattice_counts():
        return all(
            len(g.lattice_points(g.scale(sq, k))) == (k + 1) ** 2 for k in (1, 2, 3)
        )

    def mixed_volume_examples():
        e1 = g.convex_hull([(0, 0), (1, 0)])
        e2 = g.convex_hull([(0, 0), (0, 1)])
        seg = g.convex_hull([(0, 0), (1, 1)])
        return (
            mixedvol.mixed_volume((e1, e2)) == F(1, 2)
            and mixedvol.mixed_volume((si, seg)) == 1
            and mixedvol.mixed_volume_interp((si, seg)) == 1
        )

    def alexandrov_fenchel_example():
        r = mixedvol.check_alexandrov_fenchel((sq, si))
        return r.holds and r.lhs == 1 and r.rhs == F(1, 2)

    def brunn_minkowski_example():
        return mixedvol.check_generalized_bm(2, sq, si, []).holds

    def isoperimetric_example():
        r = mixedvol.check_isoperimetric(sq, si)
        return r.holds and r.lhs == F(1, 2) and r.rhs == 1

    def sumset_examples():
        a = g.support_set(1, [(0,), (1,), (3,)])
        got = semigroup.sumset_power(a, 2).points
        return got == frozenset({(0,), (1,), (2,), (3,), (4,), (6,)})

    def completion_examples():
        a = g.support_set(1, [(0,), (2,)])
        return semigroup.completion(a).points == frozenset({(0,), (1,), (2,)})

    def lattice_index_examples():
        index = semigroup.difference_lattice_index
        return (
            index(g.support_set(2, [(0, 0), (1, 0), (0, 1)])) == 1
            and index(g.support_set(1, [(0,), (2,)])) == 2
            and index(g.support_set(2, [(0, 0), (2, 0), (0, 3)])) == 6
        )

    def density_snapshot():
        a = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        rep = semigroup.density_sequence(a, 10)
        k = rep.rows[-1].k
        return rep.ample and rep.rows[-1].ratio == F((k + 1) * (k + 2), 2 * k**2)

    def valuation_examples():
        f = algebra.laurent(2, {(0, 0): 3, (1, 0): 1})
        f2 = algebra.laurent(2, {(1, -1): 1, (2, 0): 1})
        return algebra.valuation(f) == (0, 0) and algebra.valuation(f2) == (1, -1)

    def subspace_product_example():
        one = algebra.laurent(2, {(0, 0): 1})
        x = algebra.laurent(2, {(1, 0): 1})
        y = algebra.laurent(2, {(0, 1): 1})
        l1 = algebra.span(2, [one, x])
        l2 = algebra.span(2, [one, y])
        return algebra.product(l1, l2).dim == 4

    def okounkov_monomial_example():
        a = g.support_set(2, [(0, 0), (2, 0), (0, 3)])
        body = algebra.newton_okounkov_body(algebra.monomial_subspace(a), k_max=3)
        return body == g.polytope_of_support(a)

    def hilbert_example():
        one = algebra.laurent(2, {(0, 0): 1})
        xpy = algebra.laurent(2, {(1, 0): 1, (0, 1): 1})
        hs = algebra.hilbert_function(algebra.span(2, [one, xpy]), 6)
        return all(d == k + 1 for k, d in hs)

    def bkk_1d_example():
        rep = bkk.verify_bkk([g.support_set(1, [(0,), (2,)])], trials=3, seed=seed)
        return rep.predicted == 2 and rep.agreed

    def bkk_2d_example():
        a1 = g.support_set(2, [(0, 0), (1, 0), (0, 1)])
        a2 = g.support_set(2, [(0, 0), (1, 1)])
        rep = bkk.verify_bkk([a1, a2], trials=3, seed=seed)
        return rep.predicted == 2 and rep.agreed

    def steiner_example():
        out = steiner.steiner_symmetrize(si, (0, 1))
        return g.volume(out) == F(1, 2)

    def profile_example():
        rows = steiner.section_profile(sq, si, 10)
        return all(
            compare_root_sums([4 * v2], [v1, v3], 2) >= 0
            for (_, v1), (_, v2), (_, v3) in zip(rows, rows[1:], rows[2:])
        )

    # the cases are the local functions, named once, in definition order
    return [(name, fn) for name, fn in locals().items() if callable(fn)]


def run_selftest(seed: int = 0) -> dict:
    results = [{"name": name, "passed": bool(fn())} for name, fn in _cases(seed)]
    return {
        "cases": results,
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"]),
    }
