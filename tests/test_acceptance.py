"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from itertools import permutations

from okounkov_lab import algebra as alg
from okounkov_lab import bkk
from okounkov_lab import geometry as g
from okounkov_lab import mixedvol as mv
from okounkov_lab import semigroup as sg
from okounkov_lab import steiner as stn
from okounkov_lab.cli import main as cli_main
from okounkov_lab.radicals import compare_root_sums
from oracles import brute_sumset

S = g.support_set


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


def random_lattice_body(rng, n, span, points):
    return g.convex_hull(
        [tuple(rng.randint(0, span) for _ in range(n)) for _ in range(points)]
    )


def random_polygon(rng, span=4, points=5):
    return random_lattice_body(rng, 2, span, points)


def test_criterion_01_kushnirenko_via_cli(tmp_path):
    start = time.monotonic()
    for d in (1, 2, 3):
        inp = tmp_path / f"kush{d}.json"
        inp.write_text(
            json.dumps(
                {
                    "supports": [
                        {"dim": 2, "points": [[0, 0], [d, 0], [0, d]]},
                        {"dim": 2, "points": [[0, 0], [d, 0], [0, d]]},
                    ]
                }
            )
        )
        out = tmp_path / f"kush{d}.out"
        rc = cli_main(
            ["bkk-verify", str(inp), "--trials", "5", "--seed", str(d), "--out", str(out)]
        )
        rep = json.loads(out.read_text())
        assert rc == 0, rep
        assert rep["predicted"] == d * d == rep["modal"] and rep["agreed"]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("criterion 1", f"degree-d simplex counts d^2 for d=1..3 in {elapsed:.1f}s")


def test_criterion_02_bernstein_mixed_supports():
    start = time.monotonic()
    a1 = S(2, [(0, 0), (1, 0), (0, 1)])
    a2 = S(2, [(0, 0), (1, 1)])
    assert bkk.bkk_number([a1, a2]) == 2
    assert mv.mixed_volume(
        [g.polytope_of_support(a1), g.polytope_of_support(a2)]
    ) == 1
    rep = bkk.verify_bkk([a1, a2], trials=5, seed=7)
    assert rep.agreed and rep.modal == 2
    rng = random.Random(20240202)
    for t in range(20):
        s1 = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 5))})
        s2 = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 5))})
        rep = bkk.verify_bkk([s1, s2], trials=3, seed=1000 + t)
        assert rep.agreed, (sorted(s1.points), sorted(s2.points), rep)
        assert set(rep.trials) == {rep.predicted}
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("criterion 2", f"hand pair + 20 random support pairs in {elapsed:.1f}s")


def test_criterion_03_completion_invariance():
    rng = random.Random(33)
    for t in range(5):
        a = S(1, {(rng.randint(-3, 5),) for _ in range(rng.randint(2, 4))})
        rep = bkk.verify_bkk([a], trials=3, seed=300 + t)
        assert rep.agreed and rep.diagnostics["completion_modal"] == rep.predicted
    for t in range(5):
        s1 = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 4))})
        s2 = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 4))})
        rep = bkk.verify_bkk([s1, s2], trials=3, seed=600 + t)
        assert rep.agreed and rep.diagnostics["completion_modal"] == rep.predicted
    _report("criterion 3", "counts invariant under support completion, 10 instances")


def test_criterion_04_mixed_volume_axioms():
    rng = random.Random(4040)
    # symmetry: 400 planar pairs plus 100 spatial triples, all permutations
    for _ in range(400):
        pair = (random_polygon(rng), random_polygon(rng))
        assert mv.mixed_volume(pair) == mv.mixed_volume(pair[::-1])
    for _ in range(100):
        triple = tuple(random_lattice_body(rng, 3, 2, 4) for _ in range(3))
        vals = {mv.mixed_volume(p) for p in permutations(triple)}
        assert len(vals) == 1
    # multilinearity, diagonal, nonnegativity: 500 instances each
    for _ in range(500):
        a, b, c = (random_polygon(rng) for _ in range(3))
        assert mv.mixed_volume((g.minkowski_sum(a, b), c)) == mv.mixed_volume(
            (a, c)
        ) + mv.mixed_volume((b, c))
    for _ in range(500):
        a = random_polygon(rng)
        assert mv.mixed_volume((a, a)) == g.volume(a)
    for _ in range(500):
        pair = (random_polygon(rng), random_polygon(rng))
        assert mv.mixed_volume(pair) >= 0
    # monotonicity via lattice-point sub-bodies, membership-verified
    for _ in range(500):
        big = random_polygon(rng, span=4)
        pts = g.lattice_points(big).sorted_points()
        small = g.convex_hull(rng.sample(pts, max(1, len(pts) // 2)))
        assert all(big.contains(v) for v in small.vertices)
        other = random_polygon(rng)
        assert mv.mixed_volume((small, other)) <= mv.mixed_volume((big, other))
    # oracle agreement on 200 instances
    for _ in range(200):
        pair = (random_polygon(rng), random_polygon(rng))
        assert mv.mixed_volume(pair) == mv.mixed_volume_interp(pair)
    _report("criterion 4", "symmetry/multilinearity/diagonal/nonneg/monotone x500, oracle x200")


def test_criterion_05_alexandrov_fenchel_fuzz():
    start = time.monotonic()
    rng = random.Random(5555)
    for i in range(500):
        triple = tuple(random_lattice_body(rng, 3, 2, 5) for _ in range(3))
        r = mv.check_alexandrov_fenchel(triple)
        assert r.holds, (i, r.witness)
    for i in range(100):
        quad = tuple(random_lattice_body(rng, 4, 2, 5) for _ in range(4))
        r = mv.check_alexandrov_fenchel(quad)
        assert r.holds, (i, r.witness)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("criterion 5", f"500 spatial triples + 100 4D quadruples exact in {elapsed:.0f}s")


def _regular_ngon(sides, denom=1 << 20):
    pts = []
    for k in range(sides):
        theta = 2 * math.pi * k / sides
        pts.append(
            (
                F(round(math.cos(theta) * denom), denom),
                F(round(math.sin(theta) * denom), denom),
            )
        )
    return g.convex_hull(pts)


def test_criterion_06_isoperimetric():
    square = g.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    ngon = _regular_ngon(64)
    mixed = mv.mixed_volume((square, ngon))
    # mixed area against the unit disc is half the square's perimeter
    assert abs(float(mixed) - 2.0) < 0.01 * 2.0
    rng = random.Random(66)
    for _ in range(300):
        d1, d2 = random_polygon(rng), random_polygon(rng)
        r = mv.check_isoperimetric(d1, d2)
        assert r.holds
    _report("criterion 6", f"A(square, 64-gon) = {float(mixed):.4f} ~ 2; 300 exact pairs")


def test_criterion_07_sumset_asymptotics():
    simplex = S(2, [(0, 0), (1, 0), (0, 1)])
    rep = sg.density_sequence(simplex, 40)
    assert rep.ample
    assert rep.final_ratio == F(861, 1600)
    assert abs(rep.final_ratio - F(1, 2)) < F(4, 100)
    assert rep.final_volume == F(1, 2)

    a013 = S(1, [(0,), (1,), (3,)])
    rep2 = sg.density_sequence(a013, 50)
    assert rep2.ample and abs(rep2.final_ratio - 3) < F(1, 10)

    a02 = S(1, [(0,), (2,)])
    rep3 = sg.density_sequence(a02, 50)
    assert not rep3.ample and rep3.index == 2
    assert rep3.final_volume == 2
    assert abs(rep3.final_ratio - 1) < F(3, 100)  # ratio tends to Vol / index
    _report(
        "criterion 7",
        "simplex ratio 861/1600 at k=40; |ratio(50)-3|<0.1; non-ample {0,2} flagged, index 2",
    )


def test_criterion_08_okounkov_suite():
    # monomial subspaces: body equals the support hull at every level
    for pts in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 0), (0, 3)], [(0, 0), (1, 1), (2, 0)]):
        a = S(2, pts)
        expected = g.polytope_of_support(a)
        for kmax in (1, 2, 3, 4):
            body = alg.newton_okounkov_body(alg.monomial_subspace(a), k_max=kmax)
            assert body == expected

    # one-dimensional image: span{1, x+y}
    one = alg.laurent(2, {(0, 0): 1})
    xpy = alg.laurent(2, {(1, 0): 1, (0, 1): 1})
    seg_space = alg.span(2, [one, xpy])
    body = alg.newton_okounkov_body(seg_space, k_max=8)
    hilbert = alg.hilbert_function(seg_space, 8)
    diffs = [b - a for (_, a), (_, b) in zip(hilbert, hilbert[1:])]
    assert body.affine_dim == 1
    assert all(d == diffs[0] for d in diffs) and diffs[0] > 0  # degree one growth

    # superadditivity on 100 random subspace pairs at level 8
    unit_simplex = [(0, 0), (1, 0), (0, 1)]
    unit_square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rng = random.Random(20240801)

    def rand_poly(exps, max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[exps[rng.randrange(len(exps))]] = rng.randint(-3, 3)
        terms[exps[rng.randrange(len(exps))]] = rng.randint(1, 3)
        return alg.laurent(2, terms)

    def rand_subspace(exps, maxdim):
        while True:
            try:
                return alg.span(
                    2, [rand_poly(exps, 2) for _ in range(rng.randint(1, maxdim))]
                )
            except ValueError:
                continue

    for i in range(100):
        if i % 2 == 0:
            l1, l2 = rand_subspace(unit_simplex, 3), rand_subspace(unit_simplex, 3)
        else:
            l1, l2 = rand_subspace(unit_square, 2), rand_subspace(unit_square, 2)
        assert alg.superadditivity_check(l1, l2, k_max=8).holds, (i, l1, l2)

    # Hilbert leading coefficient ties to the exact count bound
    done = 0
    while done < 10:
        pts = {(0, 0)} | {(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)}
        a = S(2, pts)
        if sg.difference_lattice_index(a) != 1:
            continue
        if g.polytope_of_support(a).affine_dim < 2:
            continue
        dims = [d for _, d in alg.hilbert_function(alg.monomial_subspace(a), 12)]
        second = [dims[i + 2] - 2 * dims[i + 1] + dims[i] for i in range(len(dims) - 2)]
        tail = second[-4:]
        assert all(x == tail[0] for x in tail), (sorted(pts), second)
        assert tail[0] == bkk.bkk_number([a, a])
        done += 1
    _report(
        "criterion 8",
        "monomial bodies exact; segment image dim 1; 100 superadditive pairs at k=8; "
        "10 Hilbert leading-coefficient matches",
    )


def test_criterion_09_algebraic_inequality_analogues():
    rng = random.Random(909)
    # quadratic index inequality on 300 monomial support pairs
    for _ in range(300):
        a = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 4))})
        b = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 4))})
        laa = bkk.bkk_number([a, a])
        lbb = bkk.bkk_number([b, b])
        lab = bkk.bkk_number([a, b])
        assert laa * lbb <= lab * lab
    # quadratic inequality for triples of 3D monomial spaces
    for _ in range(100):
        sups = [
            S(3, {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)) for _ in range(4)})
            for _ in range(3)
        ]
        l123 = bkk.bkk_number(sups)
        l113 = bkk.bkk_number([sups[0], sups[0], sups[2]])
        l223 = bkk.bkk_number([sups[1], sups[1], sups[2]])
        assert l123 * l123 >= l113 * l223
    # root-sum concavity of self-indices under support addition, exact
    for _ in range(100):
        a = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 4))})
        b = S(2, {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 4))})
        ab = S(2, brute_sumset(a.points, b.points))
        laa = bkk.bkk_number([a, a])
        lbb = bkk.bkk_number([b, b])
        lcc = bkk.bkk_number([ab, ab])
        assert compare_root_sums([laa, lbb], [lcc], 2) <= 0
    _report("criterion 9", "index analogues: 300 quadratic pairs, 100 3D triples, 100 root-sum pairs")


def test_criterion_10_steiner_suite():
    rng = random.Random(1010)
    # exact area preservation on 200 random polygon/direction pairs
    for _ in range(200):
        while True:
            poly = g.convex_hull(
                [
                    (F(rng.randint(-8, 8), rng.randint(1, 3)), F(rng.randint(-8, 8), rng.randint(1, 3)))
                    for _ in range(6)
                ]
            )
            if poly.is_full_dimensional:
                break
        direction = (0, 0)
        while direction == (0, 0):
            direction = (rng.randint(-10, 10), rng.randint(-10, 10))
        assert g.volume(stn.steiner_symmetrize(poly, direction)) == g.volume(poly)

    quad = g.convex_hull([(0, 0), (4, 1), (5, 4), (1, 3)])
    stats = stn.iterate_symmetrize(quad, 50, seed=3)
    perimeters = [s.perimeter for s in stats]
    assert all(b <= a + 1e-9 for a, b in zip(perimeters, perimeters[1:]))
    assert {s.area for s in stats} == {g.volume(quad)}
    radius = math.sqrt(float(g.volume(quad)) / math.pi)
    assert stats[-1].hausdorff_to_disc < 0.05 * radius

    # exact midpoint concavity of the root of the section profile
    done = 0
    while done < 100:
        d1, d2 = random_polygon(rng), random_polygon(rng)
        if d1.affine_dim < 2 or d2.affine_dim < 2:
            continue
        rows = stn.section_profile(d1, d2, 10)
        for (_, v1), (_, v2), (_, v3) in zip(rows, rows[1:], rows[2:]):
            assert compare_root_sums([4 * v2], [v1, v3], 2) >= 0
        done += 1
    _report(
        "criterion 10",
        f"200 exact symmetrizations; 50 rounds monotone, disc gap {stats[-1].hausdorff_to_disc / radius:.2%}; "
        "100 concave profiles",
    )


def test_criterion_11_selftest_determinism(tmp_path):
    out1, out2 = tmp_path / "st1.json", tmp_path / "st2.json"
    assert cli_main(["selftest", "--seed", "0", "--out", str(out1)]) == 0
    assert cli_main(["selftest", "--seed", "0", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report("criterion 11", "selftest reports byte-identical across runs")
