import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import okounkov_lab
from okounkov_lab import algebra, bkk, geometry as g, jsonio, mixedvol, semigroup as sg
from okounkov_lab import selftest, steiner as stn
from okounkov_lab.cli import main
from okounkov_lab.radicals import compare_root_sums
from okounkov_lab.rng import derive_seed

from oracles import (
    brute_hull_volume,
    fraction_steiner_round,
    shoelace_area,
    subspace_to_json,
    subspaces_equal,
    sympy_torus_root_count,
)

SQ = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}
SI = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
SEG = {"dim": 1, "vertices": [["0"], ["1"]]}


def supports_json(*supports):
    return {"supports": [{"dim": 2, "points": [list(p) for p in s]} for s in supports]}


HAND_PAIR = supports_json([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 1)])
# BKK number 50: an inaccurate eliminant of this degree overflows Aberth's Cauchy bound
BKK50 = supports_json(
    [(2, 7), (4, 3), (6, 2), (6, 3), (6, 7), (7, 5)],
    [(1, 2), (3, 2), (3, 7), (5, 4), (5, 7), (7, 7)],
)
# BKK number 48: an inaccurate eliminant makes most trials degenerate (exit 3)
BKK48 = supports_json(
    [(0, 7), (2, 5), (2, 6), (5, 1), (5, 7), (7, 1)], [(2, 2), (3, 0), (4, 6)]
)


def box(*sides):
    return {"dim": len(sides), "vertices": [
        [str(s * b) for s, b in zip(sides, bits)]
        for bits in itertools.product((0, 1), repeat=len(sides))
    ]}


def simplex3(s):
    return {"dim": 3, "vertices": [["0", "0", "0"], [str(s), "0", "0"],
                                   ["0", str(s), "0"], ["0", "0", str(s)]]}

def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def python(*args):
    """Run a Python subprocess that imports this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def run(args, out):
    rc = main(args + ["--out", str(out)])
    text = out.read_text()
    return rc, (json.loads(text) if text.lstrip().startswith("{") else text)


class TestRoundTrips:
    def test_polytope(self):
        p = g.convex_hull([(0, 0), (2, 1), (1, 3)])
        assert jsonio.polytope_from_json(jsonio.polytope_to_json(p)) == p

    def test_rationals(self):
        from fractions import Fraction as F

        assert jsonio.str_to_frac("3/4") == F(3, 4)
        assert jsonio.str_to_frac("-7") == -7
        assert jsonio.frac_to_str(F(6, 4)) == "3/2"
        with pytest.raises(jsonio.SchemaError):
            jsonio.str_to_frac("x")

    def test_support(self):
        a = g.support_set(2, [(0, 0), (1, 2), (-1, 3)])
        assert jsonio.support_from_json(jsonio.support_to_json(a)).points == a.points

    def test_subspace(self):
        l = algebra.span(
            2,
            [
                algebra.laurent(2, {(0, 0): 1}),
                algebra.laurent(2, {(1, 0): 1, (0, 1): -2}),
            ],
        )
        back = jsonio.subspace_from_json(subspace_to_json(l))
        assert subspaces_equal(back, l)

    def test_polygon(self):
        p = g.convex_hull([(0, 0), (3, 1), (2, 4)])
        assert jsonio.polygon_from_json(jsonio.polytope_to_json(p)) == p
        with pytest.raises(jsonio.SchemaError, match="polygons are two-dimensional"):
            jsonio.polygon_from_json(SEG)
        with pytest.raises(jsonio.SchemaError, match="degenerate polygon"):
            jsonio.polygon_from_json({"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]})

    def test_order(self):
        assert jsonio.order_from_json({"kind": "lex"}) is algebra.LEX
        o = jsonio.order_from_json({"kind": "grlex", "grading": [2, 1]})
        assert o.grading == (2, 1)
        with pytest.raises(jsonio.SchemaError):
            jsonio.order_from_json({"kind": "colex"})
        # the wire form keeps its kind: a lex order with any grading is rejected
        for grading, message in [([2, 1], "plain lex takes no grading"),
                                 ([], "plain lex takes no grading"),
                                 ([1.5], "grading must be a list of integers"),
                                 ("2, 1", "field 'grading' has the wrong type"),
                                 (None, "field 'grading' has the wrong type")]:
            with pytest.raises(jsonio.SchemaError, match=message):
                jsonio.order_from_json({"kind": "lex", "grading": grading})
        with pytest.raises(jsonio.SchemaError, match="missing field 'grading'"):
            jsonio.order_from_json({"kind": "grlex"})

    def test_domain_errors_pass_through(self):
        """A shape error is jsonio's SchemaError; the domain's own ValueError
        reaches the caller unwrapped, and the CLI maps both to exit 2."""
        with pytest.raises(ValueError, match="positive integer grading") as exc:
            jsonio.order_from_json({"kind": "grlex", "grading": [0, 1]})
        assert not isinstance(exc.value, jsonio.SchemaError)


class TestCommands:
    def test_mixedvol_report(self, tmp_path):
        inp = write(tmp_path, "in.json", {"bodies": [SQ, SI]})
        rc, rep = run(["mixedvol", inp], tmp_path / "out.json")
        assert rc == 0 and rep["mixed_volume"] == "1"
        assert rep["version"] and len(rep["input_sha256"]) == 64

    def test_mixedvol_oracle_in_4d(self, tmp_path):
        simplex = {"dim": 4, "vertices": [["0"] * 4] + [
            ["1" if i == k else "0" for i in range(4)] for k in range(4)
        ]}
        tilted = {"dim": 4, "vertices": [["0", "0", "0", "0"], ["1", "1", "0", "0"],
                                         ["0", "1/2", "2", "0"], ["0", "0", "1", "1"]]}
        inp = write(tmp_path, "in.json", {"bodies": [simplex, tilted, simplex, tilted]})
        rc, rep = run(["mixedvol", inp, "--oracle"], tmp_path / "out.json")
        assert rc == 0
        assert rep["mixed_volume_interp"] == rep["mixed_volume"] != "0"

    def test_af_check_holds(self, tmp_path):
        inp = write(tmp_path, "in.json", {"bodies": [SQ, SI]})
        rc, rep = run(["af-check", inp], tmp_path / "out.json")
        assert rc == 0 and rep["holds"] and rep["rhs"] == "1/2"

    def test_bm_check_homothetic_pair_with_large_primes(self, tmp_path):
        # D2 = 2 D1, so Brunn-Minkowski holds with equality; D1 has volume
        # pq/6 with p and q primes above 10^6
        n = 1_000_003 * 1_000_033

        def simplex(s):
            return {"dim": 3, "vertices": [["0", "0", "0"], [str(s * n), "0", "0"],
                                           ["0", str(s), "0"], ["0", "0", str(s)]]}

        inp = write(tmp_path, "in.json", {"m": 3, "body1": simplex(1), "body2": simplex(2)})
        rc, rep = run(["bm-check", inp], tmp_path / "out.json")
        assert rc == 0 and rep["holds"] is True
        assert rep["witness"]["mixed_volume_powers"]["F1^m"] == f"{n}/6"
        # equal root sums are one real number, printed once for both sides
        assert rep["lhs"] == rep["rhs"]

    def test_bkk_verify_example(self, tmp_path):
        inp = write(
            tmp_path,
            "in.json",
            {
                "supports": [
                    {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]},
                    {"dim": 2, "points": [[0, 0], [1, 1]]},
                ]
            },
        )
        rc, rep = run(
            ["bkk-verify", inp, "--trials", "5", "--seed", "7"], tmp_path / "out.json"
        )
        assert rc == 0 and rep["predicted"] == 2 and rep["modal"] == 2 and rep["agreed"]

    def test_density_csv(self, tmp_path):
        inp = write(
            tmp_path, "in.json", {"support": {"dim": 1, "points": [[0], [1], [3]]}}
        )
        rc, text = run(
            ["density", inp, "--kmax", "6", "--format", "csv"], tmp_path / "out.csv"
        )
        lines = text.strip().splitlines()
        assert rc == 0 and lines[0] == "k,ratio,volume" and len(lines) == 7

    @pytest.mark.parametrize("kmax", [40, 124])
    def test_density_hulls_once_and_builds_no_level(self, tmp_path, monkeypatch, kmax):
        """A cost guard without timing: `density` on the triangle hulls its
        support once, runs one Smith normal form and builds no level as
        points, at `--kmax` 40 and at the budget edge 124."""
        from okounkov_lab import _hull

        calls = {"hull_of_lifted": 0, "smith_normal_form": 0, "slice_of_support": 0, "sumset_power": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(_hull, "hull_of_lifted")
        counting(sg, "smith_normal_form")
        counting(sg, "slice_of_support")
        counting(sg, "sumset_power")
        inp = write(tmp_path, "in.json", {"support": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}})
        rc, rep = run(["density", inp, "--kmax", str(kmax)], tmp_path / "out.json")
        ratio = Fraction(math.comb(kmax + 2, 2), kmax**2)
        assert rc == 0 and rep["rows"][-1]["ratio"] == f"{ratio.numerator}/{ratio.denominator}"
        assert calls == {"hull_of_lifted": 1, "smith_normal_form": 1, "slice_of_support": 0, "sumset_power": 0}

    def test_unknown_input_is_exit_2(self, tmp_path):
        rc = main(["mixedvol", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_schema_violation_is_exit_2(self, tmp_path):
        inp = write(tmp_path, "in.json", {"bodies": "nope"})
        rc = main(["mixedvol", inp, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_precondition_violation_is_exit_2(self, tmp_path):
        inp = write(tmp_path, "in.json", {"bodies": [SQ, SI, SI]})
        rc = main(["mixedvol", inp, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_af_check_in_one_dimension_is_exit_2(self, tmp_path):
        inp = write(tmp_path, "in.json", {"bodies": [SEG]})
        assert main(["af-check", inp, "--out", str(tmp_path / "o")]) == 2

    def test_selftest_green_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["selftest", "--seed", "5", "--out", str(out1)]) == 0
        assert main(["selftest", "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reports_byte_identical_across_runs(self, tmp_path):
        inp = write(
            tmp_path,
            "in.json",
            {
                "supports": [
                    {"dim": 2, "points": [[0, 0], [2, 0], [0, 2]]},
                    {"dim": 2, "points": [[0, 0], [2, 0], [0, 2]]},
                ]
            },
        )
        rc1, _ = run(["bkk-verify", inp, "--seed", "9"], tmp_path / "r1.json")
        rc2, _ = run(["bkk-verify", inp, "--seed", "9"], tmp_path / "r2.json")
        assert rc1 == rc2 == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_subspace_reports_read_only_the_span(self, tmp_path):
        # rescaling each basis element by a nonzero rational and permuting
        # the basis moves no report byte but the input's hash
        rng = random.Random(46)

        def draw_terms():
            return {(rng.randint(-1, 1), rng.randint(-1, 1)):
                    Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))}

        def report(payload, flags, name):
            rc = main([flags[0], write(tmp_path, name, payload), *flags[1:], "--out",
                       str(tmp_path / f"{name}.out")])
            assert rc == 0
            return re.sub(rb'"input_sha256": "[0-9a-f]+"', b"",
                          (tmp_path / f"{name}.out").read_bytes())

        def wire(basis):
            return {"dim": 2, "basis": [
                {"dim": 2, "terms": [{"exp": list(e), "coef": jsonio.frac_to_str(c)}
                                     for e, c in sorted(terms.items())]} for terms in basis]}

        checked = 0
        while checked < 8:
            basis = [draw_terms() for _ in range(rng.randint(2, 4))]
            try:
                jsonio.subspace_from_json(wire(basis))
            except ValueError:
                continue  # dependent
            moved = []
            for terms in basis:
                c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                moved.append({e: c * v for e, v in terms.items()})
            rng.shuffle(moved)
            for flags, order in ((["hilbert", "--kmax", "5"], None),
                                 (["okounkov", "--kmax", "4"], None),
                                 (["okounkov", "--kmax", "5"], {"kind": "grlex", "grading": [1, 2]})):
                drawn, rescaled = ({"subspace": wire(b)} for b in (basis, moved))
                if order is not None:
                    drawn["order"] = rescaled["order"] = order
                assert report(drawn, flags, "drawn") == report(rescaled, flags, "rescaled")
            checked += 1

    @pytest.mark.parametrize("seed", [-1, 2**70], ids=["negative", "2^70"])
    def test_any_integer_seed_is_deterministic_and_echoed(self, tmp_path, seed):
        # the seed is hashed as text, so no integer is out of range
        inp = write(tmp_path, "in.json", {"polygon": SQ, "rounds": 3})
        codes, rep = _reports_twice(["steiner", inp, "--seed", str(seed)], tmp_path)
        assert codes == [0, 0] and rep["seed"] == seed and len(rep["rows"]) == 3

    def test_steiner_trace(self, tmp_path):
        inp = write(
            tmp_path,
            "in.json",
            {
                "polygon": {
                    "dim": 2,
                    "vertices": [["0", "0"], ["4", "1"], ["5", "4"], ["1", "3"]],
                },
                "rounds": 10,
            },
        )
        rc, rep = run(["steiner", inp, "--seed", "3"], tmp_path / "out.json")
        assert rc == 0 and len(rep["rows"]) == 10
        areas = {row["area"] for row in rep["rows"]}
        assert areas == {rep["rows"][0]["area"]}

    @pytest.mark.parametrize(
        "m,body1,body2,powers",
        [
            # D2 = [0, 2^1000] x [0, 2^1000 + 1]: a strict inequality
            (2, SQ, box(2**1000, 2**1000 + 1),
             [1, 2**1000 * (2**1000 + 1), (2**1000 + 1) * (2**1000 + 2)]),
            (1, SEG, box(2**1100), [1, 2**1100, 2**1100 + 1]),
            # D2 = 2^400 D1: equality
            (3, simplex3(1), simplex3(2**400),
             [Fraction(1, 6), Fraction(2**1200, 6), Fraction((2**400 + 1) ** 3, 6)]),
        ],
        ids=["2d-strict", "1d-equal", "3d-homothetic"],
    )
    def test_bm_check_beyond_double_range(self, tmp_path, m, body1, body2, powers):
        # the m-th powers overflow a double; the sides print as 17 digits
        inp = write(tmp_path, "in.json", {"m": m, "body1": body1, "body2": body2})
        rc, rep = run(["bm-check", inp], tmp_path / "out.json")
        assert rc == 0 and rep["holds"] is True
        a, b, c = (Fraction(x) for x in powers)
        assert rep["witness"]["mixed_volume_powers"] == {
            "F1^m": str(a), "F2^m": str(b), "Fsum^m": str(c)}
        with mpmath.workdps(60):
            def root(x):
                return mpmath.root(mpmath.mpf(x.numerator) / x.denominator, m)

            exact = {"lhs": root(a) + root(b), "rhs": root(c)}
            for side, value in exact.items():
                assert abs(mpmath.mpf(rep[side]) / value - 1) < 1e-16, side
                assert len(rep[side].split("e+")[0].replace(".", "")) <= 17

    def test_bm_check_too_close_to_call_is_exit_3(self, tmp_path, capsys):
        d2 = box(2**2100, 2**2100 + 1)
        inp = write(tmp_path, "in.json", {"m": 2, "body1": SQ, "body2": d2})
        out = tmp_path / "out.json"
        assert main(["bm-check", inp, "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "inconclusive: root sums are unequal but too close to call at 4096 fractional bits\n"
        )

    def test_bkk_predict_hand_pair(self, tmp_path):
        inp = write(tmp_path, "in.json", HAND_PAIR)
        rc, rep = run(["bkk-predict", inp], tmp_path / "out.json")
        assert rc == 0 and rep["predicted"] == 2
        assert rep["command"] == "bkk-predict" and "seed" not in rep

    def test_bkk_predict_random_pair_matches_oracle(self, tmp_path):
        rng = random.Random(13)
        supports = [
            sorted({(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(6)}) for _ in range(2)
        ]
        inp = write(tmp_path, "in.json", supports_json(*supports))
        rc, rep = run(["bkk-predict", inp], tmp_path / "out.json")
        hulls = tuple(g.convex_hull(s) for s in supports)
        assert rc == 0 and rep["predicted"] == 2 * mixedvol.mixed_volume_interp(hulls) > 0

    @pytest.mark.parametrize(
        "body1,body2",
        [(SQ, SI), (SEG, {"dim": 1, "vertices": [["-2"], ["1/3"]]}),
         ({"dim": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]},
          {"dim": 3, "vertices": [["0", "0", "0"], ["1", "1", "0"], ["0", "1", "1"], ["1", "0", "1"]]})],
        ids=["2d", "1d", "3d"],
    )
    def test_profile_rows_match_brute_hulls(self, tmp_path, body1, body2):
        inp = write(tmp_path, "in.json", {"body1": body1, "body2": body2, "samples": 4})
        rc, rep = run(["profile", inp], tmp_path / "out.json")
        assert rc == 0 and [row["h"] for row in rep["rows"]] == ["0", "1/4", "1/2", "3/4", "1"]
        v1, v2 = _vertices(body1["vertices"]), _vertices(body2["vertices"])
        for row in rep["rows"]:
            h = Fraction(row["h"])
            mixture = [tuple(h * x + (1 - h) * y for x, y in zip(p, q)) for p in v1 for q in v2]
            assert Fraction(row["volume"]) == brute_hull_volume(mixture)
        rc, text = run(["profile", inp, "--format", "csv"], tmp_path / "out.csv")
        assert rc == 0
        assert text.splitlines() == ["h,volume"] + [f"{r['h']},{r['volume']}" for r in rep["rows"]]

    def test_violation_exit_code_mapping(self, tmp_path, monkeypatch):
        # k of 4 certified counts come out one too high: a wrong majority is
        # a count mismatch (exit 1), a tie is inconclusive (exit 3)
        inp = write(tmp_path, "in.json", HAND_PAIR)
        args = ["bkk-verify", inp, "--trials", "4", "--seed", "7"]
        for k, expected in ((1, 0), (2, 3), (3, 1)):
            monkeypatch.setattr(bkk, "count_solutions_2d", _raise_first_counts(k, 4))
            rc, rep = run(args, tmp_path / f"out{k}.json")
            assert rc == expected
            assert rep["trials"] == [3] * k + [2] * (4 - k) and rep["degenerate_trials"] == 0
            assert rep["agreed"] is (k == 1)
            assert rep["diagnostics"]["inconclusive"] is (k == 2)
        assert rep["modal"] == 3 != rep["predicted"] == 2
        # replay each reported trial's system, unpatched, with sympy
        monkeypatch.undo()
        supports = [jsonio.support_from_json(s) for s in HAND_PAIR["supports"]]
        replayed = [
            sympy_torus_root_count(
                [p.terms for p in bkk.random_generic_system(supports, derive_seed(7, "base", i))]
            )
            for i in range(4)
        ]
        assert replayed == [2] * 4 != rep["trials"]

    def test_bkk_verify_all_trials_degenerate_is_exit_3(self, tmp_path, monkeypatch):
        # no trial is counted in either batch: no modal count, inconclusive
        def degenerate(p1, p2, shear):
            raise bkk.DegenerateSystemError("forced by the test")

        monkeypatch.setattr(bkk, "count_solutions_2d", degenerate)
        inp = write(tmp_path, "in.json", HAND_PAIR)
        rc, rep = run(["bkk-verify", inp, "--trials", "3"], tmp_path / "out.json")
        assert rc == 3
        attempts = 2 * (3 + bkk.MAX_RETRIES)
        assert rep["trials"] == [] and rep["modal"] is None and not rep["agreed"]
        assert rep["degenerate_trials"] == attempts
        diagnostics = rep["diagnostics"]
        assert diagnostics["degenerate_reasons"] == {"forced by the test": attempts}
        assert diagnostics["completion_trials"] == [] and diagnostics["completion_modal"] is None
        assert diagnostics["inconclusive"] and not diagnostics["majority"]


_REAL_COUNT_2D = bkk.count_solutions_2d
_REAL_DRAW = bkk.random_generic_system


def _raise_first_counts(k, trials):
    """`bkk.count_solutions_2d` with the first k counts of each batch one too
    high, for batches of `trials` attempts that are never degenerate."""
    calls = itertools.count()

    def patched(*args):
        return _REAL_COUNT_2D(*args) + (next(calls) % trials < k)

    return patched


def _replace_draws(label, keep, system, seed):
    """`bkk.random_generic_system` with every draw of batch `label` after its
    first `keep` replaced by `system`."""
    replaced = {derive_seed(seed, label, i) for i in range(keep, bkk.MAX_TRIALS + bkk.MAX_RETRIES)}

    def draw(supports, trial_seed):
        return system if trial_seed in replaced else _REAL_DRAW(supports, trial_seed)

    return draw


# the 1D support {0, 2} (predicted 2), and two draws for it: a square,
# degenerate, and a squarefree cubic, certified 3
EVEN_1D = {"supports": [{"dim": 1, "points": [[0], [2]]}]}
SQUARE_1D = [algebra.laurent(1, {(0,): 1, (1,): -2, (2,): 1})]
CUBIC_1D = [algebra.laurent(1, {(0,): -6, (1,): 11, (2,): -6, (3,): 1})]


def _vertices(witness_body):
    return [tuple(Fraction(c) for c in v) for v in witness_body]


def _brute_mixed_area(v1, v2):
    """V(K, L) = (Area(K + L) - Area(K) - Area(L)) / 2 by brute-force hulls."""
    total = brute_hull_volume([tuple(a + b for a, b in zip(p, q)) for p in v1 for q in v2])
    return (total - brute_hull_volume(v1) - brute_hull_volume(v2)) / 2


def _reports_twice(args, tmp_path):
    """Exit codes of two runs and their reports, which must be byte-identical."""
    outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
    codes = [main(args + ["--out", str(out)]) for out in outs]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    return codes, json.loads(outs[0].read_text())


class TestViolations:
    """Exit 1 under a fault injected at a module boundary.

    Each test patches one library value, checks exit 1 with the verdict
    false in a deterministic report, then lifts the patch and recomputes the
    witness with an independent oracle: the reported value is the faulty one.
    A patched function that raises instead exits 4 with no report.
    """

    def test_af_check(self, tmp_path, monkeypatch):
        real = mixedvol._measure
        square = (1, ((0, 0), (0, 1), (1, 0), (1, 1)))  # body1 as (scale, integer vertices)

        def measure(rest, memo):  # the measure of (body1) weighs ten times too much
            got = real(rest, memo)
            return [(u, 10 * w) for u, w in got] if rest == [(square, 1)] else got

        monkeypatch.setattr(mixedvol, "_measure", measure)
        inp = write(tmp_path, "in.json", {"bodies": [SQ, SI]})
        codes, rep = _reports_twice(["af-check", inp], tmp_path)
        assert codes == [1, 1] and rep["holds"] is False
        monkeypatch.undo()
        w = rep["witness"]
        b1, b2 = _vertices(w["body1"]), _vertices(w["body2"])
        oracle = {"v12": _brute_mixed_area(b1, b2), "v11": brute_hull_volume(b1),
                  "v22": brute_hull_volume(b2)}
        reported = {k: Fraction(v) for k, v in w["mixed_volumes"].items()}
        assert reported["v11"] == 10 != oracle["v11"] == 1
        assert reported["v12"] == oracle["v12"] and reported["v22"] == oracle["v22"]
        assert oracle["v12"] ** 2 >= oracle["v11"] * oracle["v22"]

    def test_bm_check(self, tmp_path, monkeypatch):
        real, square = mixedvol.mixed_volume, jsonio.polytope_from_json(SQ)
        monkeypatch.setattr(  # V(D1, D1) reads four times too large
            mixedvol, "mixed_volume", lambda t: real(t) * (4 if t[0] == square else 1)
        )
        inp = write(tmp_path, "in.json", {"m": 2, "body1": SQ, "body2": SI, "fixed": []})
        codes, rep = _reports_twice(["bm-check", inp], tmp_path)
        assert codes == [1, 1] and rep["holds"] is False
        monkeypatch.undo()
        w = rep["witness"]
        oracle = [brute_hull_volume(_vertices(w[k])) for k in ("body1", "body2", "body_sum")]
        reported = [Fraction(w["mixed_volume_powers"][k]) for k in ("F1^m", "F2^m", "Fsum^m")]
        assert reported[0] == 4 != oracle[0] == 1 and reported[1:] == oracle[1:]
        assert compare_root_sums(oracle[:2], oracle[2:], 2) <= 0

    def test_isoperimetric(self, tmp_path, monkeypatch):
        real = mixedvol.mixed_volume
        monkeypatch.setattr(mixedvol, "mixed_volume", lambda t: real(t) / 4)
        inp = write(tmp_path, "in.json", {"body1": SQ, "body2": SI})
        codes, rep = _reports_twice(["isoperimetric", inp], tmp_path)
        assert codes == [1, 1] and rep["holds"] is False
        monkeypatch.undo()
        w = rep["witness"]
        oracle = _brute_mixed_area(_vertices(w["body1"]), _vertices(w["body2"]))
        assert Fraction(w["mixed_area"]) == Fraction(1, 4) != oracle == 1
        assert Fraction(w["mixed_area_interp"]) == oracle

    def test_selftest(self, tmp_path, monkeypatch):
        real = stn.steiner_symmetrize

        def doubled(p, direction):  # the symmetral comes out twice as wide
            return g.convex_hull([(2 * x, y) for x, y in real(p, direction).vertices])

        monkeypatch.setattr(stn, "steiner_symmetrize", doubled)
        codes, rep = _reports_twice(["selftest", "--seed", "0"], tmp_path)
        assert codes == [1, 1] and rep["failed"] == 1
        failed = [c["name"] for c in rep["cases"] if not c["passed"]]
        assert failed == ["steiner_example"]
        assert all(set(c) == {"name", "passed"} for c in rep["cases"])
        monkeypatch.undo()
        # the case symmetrizes the unit triangle along (0, 1); area is kept
        ring = fraction_steiner_round([(0, 0), (1, 0), (0, 1)], (0, 1))
        assert shoelace_area(ring) == Fraction(1, 2)
        assert all(c["passed"] for c in selftest.run_selftest(seed=0)["cases"])

    def test_selftest_crash_is_exit_4(self, tmp_path, monkeypatch, capsys):
        # a case that raises is an internal error, not a failed case
        def crash(p, direction):
            raise RuntimeError("boom")

        monkeypatch.setattr(stn, "steiner_symmetrize", crash)
        out = tmp_path / "out.json"
        assert main(["selftest", "--seed", "0", "--out", str(out)]) == 4
        assert not out.exists()
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_selftest_value_error_is_exit_4(self, tmp_path, monkeypatch, capsys):
        # selftest reads no input, so a ValueError is a bug, not an input error
        def crash(p, direction):
            raise ValueError("boom")

        monkeypatch.setattr(stn, "steiner_symmetrize", crash)
        out = tmp_path / "out.json"
        assert main(["selftest", "--seed", "0", "--out", str(out)]) == 4
        assert not out.exists()
        assert capsys.readouterr().err == "internal error: ValueError: boom\n"


def test_benchmark_span_targets_resolve():
    # the benchmark's traced runs wrap these functions by name; a rename
    # must fail here, not only under a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"okounkov_lab.{module}")
        *path_parts, last = attr.split(".")
        for part in path_parts:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(last)), f"{module}.{attr}"


@pytest.mark.parametrize(
    "data,patched",
    [(EVEN_1D, True), (HAND_PAIR, False)],
    ids=["1d-with-degenerate-trials", "2d"],
)
def test_bkk_spans_keep_their_meaning(tmp_path, monkeypatch, data, patched):
    # the benchmark reads bkk.trial calls as attempts and returned
    # bkk.count_1d / bkk.count_2d calls as certified counts: wrap the three
    # functions in bkk's namespace, as its tracer does
    if patched:
        monkeypatch.setattr(bkk, "random_generic_system",
                            _replace_draws("completion", 2, SQUARE_1D, 0))
    calls, returned = [], []

    def wrap(name, fn):
        def wrapper(*args):
            calls.append(name)
            result = fn(*args)
            returned.append(name)
            return result

        monkeypatch.setattr(bkk, name, wrapper)

    for name in ("random_generic_system", "count_roots_1d", "count_solutions_2d"):
        wrap(name, getattr(bkk, name))
    inp = write(tmp_path, "in.json", data)
    rc, rep = run(["bkk-verify", inp, "--trials", "5"], tmp_path / "out.json")
    assert rc == (3 if patched else 0) and (rep["degenerate_trials"] > 0) is patched
    counted = len(rep["trials"]) + len(rep["diagnostics"]["completion_trials"])
    attempts = counted + rep["degenerate_trials"]
    count = "count_roots_1d" if data is EVEN_1D else "count_solutions_2d"
    # one draw per attempt, each followed by exactly one count call
    assert calls == ["random_generic_system", count] * attempts
    assert returned.count(count) == counted


def test_degenerate_reasons_are_documented():
    source = Path(bkk.__file__).read_text()
    literals = re.findall(r'raise DegenerateSystemError\("([^"]+)"\)', source)
    # every reason is a literal, so none escapes the pattern
    assert len(literals) == source.count("raise DegenerateSystemError(")
    raised = set(literals)
    formats = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    section = formats.split("The reasons are:", 1)[1].split("\n\n", 2)[1]
    documented = set(re.findall(r"^- `([^`]+)`:", section, re.M))
    assert raised and raised <= documented


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation in its module's
    # namespace; a name the module never imports raises NameError
    checked = 0
    for info in pkgutil.iter_modules(okounkov_lab.__path__):
        module = importlib.import_module(f"okounkov_lab.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [obj]
            if inspect.isclass(obj):
                members = (getattr(m, "fget", getattr(m, "__func__", m)) for m in vars(obj).values())
                targets += [m for m in members if inspect.isfunction(m)]
            for target in targets:
                if inspect.isfunction(target) or inspect.isclass(target):
                    typing.get_type_hints(target)
                    checked += 1
    assert checked > 100


class TestBkkVerifyContract:
    @pytest.mark.parametrize("tol", ["nan", "inf", "10", "0", "-1"])
    def test_tolerance_outside_unit_interval_is_exit_2(self, tmp_path, tol):
        # counts are exact, so --tol is no longer an option: argparse rejects it
        inp = write(tmp_path, "in.json", HAND_PAIR)
        with pytest.raises(SystemExit) as exc:
            main(["bkk-verify", inp, "--tol", tol, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "system,flags",
        [
            (BKK50, ["--seed", "0", "--trials", "3"]),
            (BKK48, ["--seed", "3"]),
        ],
        ids=["bkk50", "bkk48"],
    )
    def test_large_random_pairs_agree(self, tmp_path, system, flags):
        inp = write(tmp_path, "in.json", system)
        rc, rep = run(["bkk-verify", inp] + flags, tmp_path / "out.json")
        assert rc == 0 and rep["modal"] == rep["predicted"]

    @pytest.mark.parametrize(
        "label,keep,system,trials,counts,code",
        [
            ("completion", 2, SQUARE_1D, 5, [2, 2], 3),
            ("base", 2, SQUARE_1D, 5, [2, 2], 3),
            ("completion", 2, CUBIC_1D, 4, [2, 2, 3, 3], 3),
            ("completion", 5, SQUARE_1D, 5, [2] * 5, 0),
        ],
        ids=["short-completion", "short-base", "completion-tie", "full-batches"],
    )
    def test_verdict_needs_both_batches_full(
        self, tmp_path, monkeypatch, label, keep, system, trials, counts, code
    ):
        # a verdict needs `trials` certified counts with a strict modal
        # majority in both batches; the other batch stays full and agrees
        monkeypatch.setattr(bkk, "random_generic_system", _replace_draws(label, keep, system, 0))
        inp = write(tmp_path, "in.json", EVEN_1D)
        rc, rep = run(["bkk-verify", inp, "--trials", str(trials)], tmp_path / "out.json")
        diagnostics = rep["diagnostics"]
        assert rc == code and rep["agreed"] is (code == 0)
        assert diagnostics["inconclusive"] is (code == 3)
        batches = {"base": rep["trials"], "completion": diagnostics["completion_trials"]}
        assert batches.pop(label) == counts and batches.popitem()[1] == [2] * trials
        degenerate = trials + bkk.MAX_RETRIES - len(counts) if len(counts) < trials else 0
        assert rep["degenerate_trials"] == degenerate
        assert diagnostics["degenerate_reasons"] == (
            {"not squarefree mod p": degenerate} if degenerate else {}
        )


class TestExitContract:
    def test_unexpected_exception_is_exit_4(self, tmp_path, monkeypatch, capsys):
        import okounkov_lab.cli as cli

        def crash(args):
            raise RuntimeError("boom")

        # only the handler is replaced; the help line and options stay
        entry = (crash, *cli._COMMANDS["mixedvol"][1:])
        monkeypatch.setitem(cli._COMMANDS, "mixedvol", entry)
        inp = write(tmp_path, "in.json", {"bodies": [SQ, SI]})
        assert main(["mixedvol", inp]) == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"

    def test_changed_exact_area_is_exit_4(self, tmp_path, monkeypatch, capsys):
        exact_round = stn._exact_round

        def moved(ring, ux, uy):
            (x, y, d), *rest = exact_round(ring, ux, uy)
            return [(x - d, y - 2 * d, d), *rest]

        monkeypatch.setattr(stn, "_exact_round", moved)
        inp = write(tmp_path, "in.json", {"polygon": SQ, "rounds": 3})
        out = tmp_path / "o"
        assert main(["steiner", inp, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: AssertionError: exact symmetrization changed the area\n"
        assert not out.exists()

    def test_report_goes_to_stdout_without_out(self, tmp_path, capsys):
        inp = write(tmp_path, "in.json", {"bodies": [SQ, SI]})
        out = tmp_path / "o"
        assert main(["mixedvol", inp, "--out", str(out)]) == 0
        assert main(["mixedvol", inp]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("corner", [10**9, 10**17], ids=["10^9", "10^17"])
    def test_far_unit_square_is_not_exit_4(self, tmp_path, capsys, corner):
        # the unit square at (10^9, 10^9) once crashed in the float centroid;
        # its first float round (round 9) now ends on the float phase's own
        # scale limit, an input error; at 10^17 its vertices round to one
        # double, and its first row ends there
        far = {"dim": 2, "vertices": [[str(corner + x), str(corner + y)]
                                      for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        inp = write(tmp_path, "in.json", {"polygon": far, "rounds": 12})
        assert main(["steiner", inp, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "input error: polygon degenerated to a segment\n"

    @pytest.mark.parametrize(
        "raw", [b'{"bodies": "\xff\xfe"}', b'{"bodies": [', b"", b"[" * 5000 + b"]" * 5000],
        ids=["utf8", "truncated", "empty", "nested"],
    )
    def test_invalid_json_is_exit_2(self, tmp_path, capsys, raw):
        inp = tmp_path / "in.json"
        inp.write_bytes(raw)
        out = tmp_path / "o"
        assert main(["mixedvol", str(inp), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("input error: input is not valid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mixedvol", "selftest"])
    def test_unwritable_out_is_exit_4(self, tmp_path, capsys, command):
        args = [command]
        if command != "selftest":
            args.append(write(tmp_path, "in.json", {"bodies": [SQ, SI]}))
        out = tmp_path / "missing" / "out.json"
        assert main(args + ["--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"internal error: FileNotFoundError: [Errno 2] No such file or directory: '{out}'\n"
        )

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("mixedvol", {"bodies": [dict(SEG, dim=True)]}),
            ("mixedvol", {"bodies": [{"dim": 1, "vertices": [["0"], ["1e3"]]}]}),
            ("mixedvol", {"bodies": [{"dim": 1, "vertices": [["0"], ["0.5"]]}]}),
            ("mixedvol", {"bodies": [{"dim": 1, "vertices": [["0"], [" 1"]]}]}),
            ("bm-check", {"m": True, "body1": SEG, "body2": SEG}),
            ("sumset", {"support": {"dim": 1, "points": [[0], [1]]}, "k": True}),
            ("sumset", {"support": {"dim": 1, "points": [[0], [True]]}, "k": 2}),
            ("hilbert", {"subspace": {"dim": 1, "basis": [
                {"dim": 1, "terms": [{"exp": [True], "coef": "1"}]}]}}),
            ("hilbert", {"subspace": {"dim": 1, "basis": [
                {"dim": 1, "terms": [{"exp": [1], "coef": "0.5"}]}]}}),
            ("okounkov", {"subspace": {"dim": 2, "basis": [
                {"dim": 2, "terms": [{"exp": [1, 0], "coef": "1"}]}]},
                "order": {"kind": "grlex", "grading": [True, 1]}}),
            ("steiner", {"polygon": SQ, "rounds": True}),
            ("profile", {"body1": SQ, "body2": SI, "samples": True}),
        ],
        ids=[
            "dim-true", "rational-1e3", "rational-0.5", "rational-space", "m-true",
            "k-true", "support-true", "exp-true", "coef-0.5", "grading-true",
            "rounds-true", "samples-true",
        ],
    )
    def test_schema_rejects_bools_and_decimal_rationals(self, tmp_path, command, payload):
        inp = write(tmp_path, "in.json", payload)
        flags = ["--kmax", "2"] if command in ("hilbert", "okounkov") else []
        assert main([command, inp, "--out", str(tmp_path / "o")] + flags) == 2

    @pytest.mark.parametrize(
        "command,flags",
        [("mixedvol", ["--seed", "1"]), ("bm-check", ["--kmax", "2"]),
         ("okounkov", ["--format", "csv"])],
        ids=["mixedvol-seed", "bm-check-kmax", "okounkov-format"],
    )
    def test_unread_flag_is_rejected(self, tmp_path, command, flags):
        inp = write(tmp_path, "in.json", {})
        with pytest.raises(SystemExit) as exc:
            main([command, inp, "--out", str(tmp_path / "o")] + flags)
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    # every subcommand in help order, with the options it reads past --out and
    # their defaults; written out here, not read from the CLI's own table
    COMMAND_OPTIONS = {
        "mixedvol": {"--oracle": False},
        "af-check": {},
        "bm-check": {},
        "isoperimetric": {},
        "sumset": {},
        "density": {"--format": "json", "--kmax": 12},
        "okounkov": {"--kmax": 12},
        "hilbert": {"--format": "json", "--kmax": 12},
        "bkk-predict": {},
        "bkk-verify": {"--seed": 0, "--trials": 5},
        "steiner": {"--format": "json", "--seed": 0},
        "profile": {"--format": "json"},
        "selftest": {"--seed": 0},
    }
    # a value for each option some command reads, and what it parses to
    OPTION_VALUES = {
        "--format": (["csv"], "csv"), "--seed": (["3"], 3), "--trials": (["4"], 4),
        "--kmax": (["2"], 2), "--oracle": ([], True),
    }

    def test_each_command_reads_exactly_its_options(self, capsys):
        import okounkov_lab.cli as cli

        parser = cli._build_parser()
        assert list(cli._COMMANDS) == list(self.COMMAND_OPTIONS)
        for command, options in self.COMMAND_OPTIONS.items():
            head = [command] if command == "selftest" else [command, "in.json"]
            defaults = {flag[2:]: value for flag, value in options.items()}
            positional = {} if command == "selftest" else {"input": "in.json"}
            assert vars(parser.parse_args(head)) == {
                "command": command, **positional, "out": None, **defaults
            }
            for flag, (values, parsed) in self.OPTION_VALUES.items():
                if flag in options:
                    args = parser.parse_args(head + [flag, *values])
                    assert getattr(args, flag[2:]) == parsed, (command, flag)
                else:
                    with pytest.raises(SystemExit) as exc:
                        parser.parse_args(head + [flag, *values])
                    assert exc.value.code == 2, (command, flag)
        # selftest takes no input path
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "in.json"])
        assert exc.value.code == 2
        capsys.readouterr()
        # docs/formats.md's command table: one row per command, in help
        # order, whose last column names exactly its options or says none
        formats = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        lines = formats[formats.index("| command "):].splitlines()
        rows = [[c.strip() for c in line.strip("|").split("|")]
                for line in itertools.takewhile(lambda s: s.startswith("|"), lines[2:])]
        assert [row[0] for row in rows] == list(self.COMMAND_OPTIONS)
        for command, *_, cell in rows:
            options = self.COMMAND_OPTIONS[command]
            assert re.findall(r"`(--[a-z]+)`", cell) == list(options), command
            assert (cell == "none") == (not options), command

    @pytest.mark.parametrize(
        "command,payload,message",
        [
            ("steiner", {"polygon": SQ, "rounds": stn.MAX_ROUNDS + 1}, "rounds must be in 1..500"),
            ("profile", {"body1": SQ, "body2": SI, "samples": stn.MAX_SAMPLES + 1},
             "samples must be in 3..1000"),
        ],
        ids=["rounds", "samples"],
    )
    def test_budget_over_bound_is_exit_2(self, tmp_path, capsys, command, payload, message):
        inp = write(tmp_path, "in.json", payload)
        assert main([command, inp, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "payload,flags,message",
        [
            (HAND_PAIR, ["--trials", "21"], "trials must be in 3..20"),
            (supports_json([(0, 0), (1, 0), (0, 11)], [(0, 0), (1, 0), (0, 10)]), [],
             "eliminant has Sylvester order 21; the limit is 20"),
            (supports_json([(0, 0), (160, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]), [],
             "eliminant has degree bound 161; the limit is 160"),
            ({"supports": [{"dim": 1, "points": [[0], [161]]}]}, [],
             "eliminant has degree bound 161; the limit is 160"),
            ({"supports": [{"dim": 1, "points": [[0], [10000]]}]}, [],
             "bounding box too large for lattice enumeration: 10001 candidates;"
             " the limit is 10000"),
        ],
        ids=["trials", "sylvester-order", "eliminant-degree", "1d-degree", "completion"],
    )
    def test_bkk_budget_over_bound_is_exit_2(self, tmp_path, capsys, payload, flags, message):
        inp = write(tmp_path, "in.json", payload)
        assert main(["bkk-verify", inp, "--out", str(tmp_path / "o")] + flags) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "command,payload,message",
        [
            ("bkk-verify", {"supports": []}, "no supports given"),
            ("bkk-verify", {"supports": [{"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]},
                                         {"dim": 1, "points": [[0], [1]]}]},
             "supports of mixed dimensions"),
            ("bm-check", {"m": 2, "body1": SQ, "body2": SI, "fixed": None},
             "field 'fixed' has the wrong type"),
            ("bm-check", {"m": 2, "body1": SQ, "body2": SI, "fixed": 3},
             "field 'fixed' has the wrong type"),
            ("mixedvol", {}, "missing field 'bodies'"),
            ("mixedvol", {"bodies": [{"dim": 1, "vertices": []}]},
             "polytope needs at least one vertex"),
            ("mixedvol", {"bodies": [{"dim": 2, "vertices": [["0", "0"], ["1"]]}]},
             "vertex arity does not match dim"),
            ("mixedvol", {"bodies": [{"dim": 1, "vertices": [["0"], ["1/0"]]}]},
             "bad rational '1/0'"),
            ("mixedvol", {"bodies": [{"dim": 5, "vertices": [["0"] * 5]}] * 5},
             "ambient dimension must be in 1..4"),
            ("sumset", {"support": {"dim": 1, "points": []}, "k": 2},
             "support set must be nonempty"),
            ("sumset", {"support": {"dim": 0, "points": [[]]}, "k": 2},
             "ambient dimension must be positive"),
            ("hilbert", {"subspace": {"dim": 1, "basis": []}},
             "subspace needs a nonempty basis"),
            ("hilbert", {"subspace": {"dim": 1, "basis": [{"dim": 1, "terms": []}]}},
             "zero polynomial in a basis"),
            ("hilbert", {"subspace": {"dim": 1, "basis": [
                {"dim": 1, "terms": [{"exp": [1], "coef": "1"}]},
                {"dim": 1, "terms": [{"exp": [1], "coef": "2"}]}]}},
             "basis polynomials are linearly dependent"),
            ("hilbert", {"subspace": {"dim": 2, "basis": [
                {"dim": 2, "terms": [{"exp": [1, 0], "coef": "1"}]},
                {"dim": 3, "terms": [{"exp": [0, 0, 1], "coef": "1"}]}]}},
             "basis dimension mismatch"),
            # each polynomial is checked before the basis is checked for dependence
            ("hilbert", {"subspace": {"dim": 1, "basis": [
                {"dim": 1, "terms": [{"exp": [1], "coef": "1"}]},
                {"dim": 1, "terms": [{"exp": [1], "coef": "2"}]},
                {"dim": 1, "terms": []}]}},
             "zero polynomial in a basis"),
            ("okounkov", {"subspace": {"dim": 2, "basis": [
                {"dim": 2, "terms": [{"exp": [1, 0], "coef": "1"}]}]},
                "order": {"kind": "grlex", "grading": [0, 1]}},
             "graded lex needs a positive integer grading"),
            ("okounkov", {"subspace": {"dim": 2, "basis": [
                {"dim": 2, "terms": [{"exp": [1, 0], "coef": "1"}]}]},
                "order": {"kind": "lex", "grading": [2, 1]}},
             "plain lex takes no grading"),
            ("hilbert", {"subspace": {"dim": 2, "basis": [{"dim": 2, "terms": [
                {"exp": [0, 0], "coef": "1"}, {"exp": [0, 0], "coef": "2"}]}]}},
             "exponent [0, 0] appears twice in terms"),
            ("bm-check", {"m": 0, "body1": SQ, "body2": SI},
             "repetition count m must satisfy 0 < m <= n"),
            ("bm-check", {"m": 3, "body1": SQ, "body2": SI},
             "repetition count m must satisfy 0 < m <= n"),
            ("profile", {"body1": box(1, 1, 1, 1), "body2": box(1, 2, 1, 1)},
             "section profile supports dimensions 1..3"),
            ("bkk-verify", {"supports": [{"dim": 3, "points": [[0, 0, 0], [1, 0, 0]]}] * 3},
             "root-count verification is implemented for n in {1, 2}"),
            ("bkk-verify", {"supports": [{"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}]},
             "need exactly 2 supports"),
            ("mixedvol", {"bodies": []}, "empty body tuple"),
            ("af-check", {"bodies": []}, "empty body tuple"),
            ("bkk-predict", {"supports": []}, "no supports given"),
            ("okounkov", {"subspace": {"dim": 0, "basis": [
                {"dim": 0, "terms": [{"exp": [], "coef": "1"}]}]}},
             "ambient dimension must be in 1..4"),
        ],
        ids=["bkk-no-supports", "bkk-mixed-dimensions", "bm-fixed-null", "bm-fixed-number",
             "missing-field", "no-vertices", "vertex-arity", "rational-1-over-0",
             "polytope-dim-5", "no-points", "support-dim-0", "empty-basis", "zero-polynomial",
             "dependent-basis", "basis-dimension", "zero-after-dependent",
             "grading-zero-weight", "lex-grading", "repeated-exponent",
             "bm-m-zero", "bm-m-above-n",
             "profile-4d", "bkk-3d", "bkk-one-support-2d", "mixedvol-no-bodies",
             "af-check-no-bodies", "bkk-predict-no-supports", "okounkov-dim-0"],
    )
    def test_malformed_input_is_exit_2(self, tmp_path, capsys, command, payload, message):
        inp = write(tmp_path, "in.json", payload)
        assert main([command, inp, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "payload,flags",
        [
            (HAND_PAIR, ["--trials", "20"]),
            (supports_json([(0, 0), (159, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]), []),
        ],
        ids=["trials", "eliminant-degree"],
    )
    def test_bkk_budget_at_bound_is_admitted(self, tmp_path, payload, flags):
        inp = write(tmp_path, "in.json", payload)
        rc, rep = run(["bkk-verify", inp] + flags, tmp_path / "out.json")
        assert rc == 0 and rep["agreed"]

    @staticmethod
    def _subspace(*exponents):
        dim = len(exponents[0])
        basis = [{"dim": dim, "terms": [{"exp": list(e), "coef": "1"}]} for e in exponents]
        return {"subspace": {"dim": dim, "basis": basis}}

    @pytest.mark.parametrize("command", ["okounkov", "hilbert"])
    @pytest.mark.parametrize(
        "exponents,kmax,message",
        [
            ([(0, 0)], algebra.MAX_KMAX + 1, f"k_max must be in 1..{algebra.MAX_KMAX}"),
            ([(0, 0)], 0, f"k_max must be in 1..{algebra.MAX_KMAX}"),
            ([(x,) for x in range(256)] + [(65280,)], 1,
             f"power levels would need 65281 slots x 257 rows = "
             f"{algebra.MAX_LEVEL_CELLS + 1} cells; the limit is {algebra.MAX_LEVEL_CELLS}"),
        ],
        ids=["kmax", "kmax-zero", "cells"],
    )
    def test_level_budget_over_bound_is_exit_2(
        self, tmp_path, capsys, command, exponents, kmax, message
    ):
        inp = write(tmp_path, "in.json", self._subspace(*exponents))
        args = [command, inp, "--kmax", str(kmax), "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("command", ["okounkov", "hilbert"])
    @pytest.mark.parametrize(
        "exponents,kmax",
        [([(0, 0)], algebra.MAX_KMAX), ([(x,) for x in range(255)] + [(65535,)], 1)],
        ids=["kmax", "cells"],
    )
    def test_level_budget_at_bound_is_admitted(self, tmp_path, command, exponents, kmax):
        inp = write(tmp_path, "in.json", self._subspace(*exponents))
        rc, rep = run([command, inp, "--kmax", str(kmax)], tmp_path / "out.json")
        assert rc == 0
        if command == "hilbert":
            assert rep["rows"][-1] == {"k": kmax, "dim": len(exponents)}
        else:
            assert rep["kmax"] == kmax

    @pytest.mark.parametrize(
        "exponents,dims",
        [([()], [1, 1, 1]), ([(i,) * 5 for i in range(3)], [3, 5, 7])],
        ids=["dim0", "dim5"],
    )
    def test_hilbert_counts_monomial_subspaces_in_any_dimension(
        self, tmp_path, capsys, exponents, dims
    ):
        # hilbert builds no hull, so 0 and 5 variables are counted; okounkov
        # hulls its body, which exits 2 past dimension 4
        inp = write(tmp_path, "in.json", self._subspace(*exponents))
        rc, rep = run(["hilbert", inp, "--kmax", "3"], tmp_path / "out.json")
        assert rc == 0
        assert rep["rows"] == [{"k": k, "dim": d} for k, d in enumerate(dims, 1)]
        if len(exponents[0]) == 5:
            assert main(["okounkov", inp, "--kmax", "3", "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == "input error: ambient dimension must be in 1..4\n"

    def test_strided_grlex_body_is_admitted_at_kmax_12(self, tmp_path):
        # the grades drop the stride: 325 slots, where 312013 broke the cell budget
        payload = self._subspace((0, 0), (1000, 0), (0, 1000))
        lex = write(tmp_path, "lex.json", payload)
        order = {"kind": "grlex", "grading": [1, 2]}
        grlex = write(tmp_path, "grlex.json", {**payload, "order": order})
        rc, rep = run(["okounkov", grlex, "--kmax", "12"], tmp_path / "grlex.out")
        assert rc == 0 and rep["volume"] == "500000"
        _, lex_rep = run(["okounkov", lex, "--kmax", "12"], tmp_path / "lex.out")
        assert rep["body"] == lex_rep["body"]

    def test_hilbert_negative_dim_is_exit_2(self, tmp_path, capsys):
        basis = [{"dim": -1, "terms": [{"exp": [], "coef": "1"}]}]
        inp = write(tmp_path, "in.json", {"subspace": {"dim": -1, "basis": basis}})
        assert main(["hilbert", inp, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "input error: exponents must be integer vectors of length dim\n"
        )

    @staticmethod
    def _line(n):
        return {"dim": 1, "points": [[x] for x in range(n)]}

    @staticmethod
    def _parabola(n):
        return {"dim": 2, "vertices": [[x, x * x] for x in range(n)]}

    @pytest.mark.parametrize(
        "command,payload,flags,message",
        [
            ("sumset", {"support": _line(1), "k": sg.MAX_LEVEL + 1}, [],
             f"k must be in 1..{sg.MAX_LEVEL}"),
            ("density", {"support": _line(1)}, ["--kmax", str(sg.MAX_LEVEL + 1)],
             f"k_max must be in 1..{sg.MAX_LEVEL}"),
            # a 1000-point line at k = 2 needs 1000 x 1000 pair sums, the limit
            ("sumset", {"support": _line(1001), "k": 2}, [],
             f"sumset levels 1..2 would need up to {1001**2} pair sums; "
             f"the limit is {sg.MAX_PAIR_SUMS}"),
            ("density", {"support": _line(1001)}, ["--kmax", "2"],
             f"sumset levels 1..2 would need up to {1001**2} pair sums; "
             f"the limit is {sg.MAX_PAIR_SUMS}"),
            ("steiner", {"polygon": _parabola(stn.MAX_POLYGON_VERTICES + 1), "rounds": 1}, [],
             f"polygon has {stn.MAX_POLYGON_VERTICES + 1} vertices; "
             f"the limit is {stn.MAX_POLYGON_VERTICES}"),
        ],
        ids=["sumset-k", "density-kmax", "sumset-pairs", "density-pairs", "polygon-vertices"],
    )
    def test_size_budget_over_bound_is_exit_2(
        self, tmp_path, capsys, command, payload, flags, message
    ):
        inp = write(tmp_path, "in.json", payload)
        assert main([command, inp, "--out", str(tmp_path / "o")] + flags) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,payload,flags,check",
        [
            ("sumset", {"support": _line(1), "k": sg.MAX_LEVEL}, [],
             lambda rep: rep["result"]["points"] == [[0]]),
            ("density", {"support": _line(1)}, ["--kmax", str(sg.MAX_LEVEL)],
             lambda rep: len(rep["rows"]) == sg.MAX_LEVEL),
            ("sumset", {"support": _line(1000), "k": 2}, [],
             lambda rep: len(rep["result"]["points"]) == 1999),
            ("density", {"support": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}},
             ["--kmax", "40"], lambda rep: rep["rows"][-1]["ratio"] == "861/1600"),
            ("steiner", {"polygon": _parabola(stn.MAX_POLYGON_VERTICES), "rounds": 1}, [],
             lambda rep: rep["rows"][0]["vertices"] == 2 * stn.MAX_POLYGON_VERTICES - 2),
            # h = 0 gives body2 and h = 1 body1
            ("profile", {"body1": box(1, 2, 3), "body2": simplex3(1),
                         "samples": stn.MAX_SAMPLES}, [],
             lambda rep: len(rep["rows"]) == stn.MAX_SAMPLES + 1
             and rep["rows"][0] == {"h": "0", "volume": "1/6"}
             and rep["rows"][-1] == {"h": "1", "volume": "6"}),
        ],
        ids=["sumset-k", "density-kmax", "sumset-pairs", "density-kmax-40", "polygon-vertices",
             "profile-samples"],
    )
    def test_size_budget_at_bound_is_admitted(self, tmp_path, command, payload, flags, check):
        inp = write(tmp_path, "in.json", payload)
        rc, rep = run([command, inp] + flags, tmp_path / "out.json")
        assert rc == 0 and check(rep)

    def test_one_parser_serves_every_call(self, tmp_path):
        """Reports and exit codes after bad and good calls equal fresh-parser ones."""
        import okounkov_lab.cli as cli

        bodies = write(tmp_path, "bodies.json", {"bodies": [SQ, SI]})
        support = write(tmp_path, "support.json", {"support": {"dim": 1, "points": [[0], [1], [3]]}})
        good = [
            ["mixedvol", bodies, "--oracle"],
            ["density", support, "--kmax", "5", "--format", "csv"],
            ["mixedvol", bodies],  # no --oracle left over from the first call
            ["density", support],
        ]

        def call(args, k):
            out = tmp_path / f"out{k}"
            return main(args + ["--out", str(out)]), out.read_text()

        fresh = []
        for k, args in enumerate(good):
            cli._build_parser.cache_clear()
            fresh.append(call(args, k))
        cli._build_parser.cache_clear()
        for bad in (["mixedvol", bodies, "--no-such-flag"], ["density", support, "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        assert [call(args, k) for k, args in enumerate(good)] == fresh
        assert "mixed_volume_interp" in fresh[0][1] and "mixed_volume_interp" not in fresh[2][1]
        assert fresh[1][1].startswith("k,ratio,volume\n") and fresh[3][1].startswith("{")
        assert cli._build_parser.cache_info().misses == 1

    def test_cli_import_does_not_load_scipy(self):
        code = "import sys, okounkov_lab.cli; sys.exit('scipy' in sys.modules)"
        assert python("-c", code).returncode == 0

    def test_numpy_loads_on_the_first_3d_command(self, tmp_path):
        """In a fresh interpreter numpy is absent after importing the CLI and
        after a planar command, and present after a 3D `af-check`."""
        iso = write(tmp_path, "iso.json", {"body1": SQ, "body2": SI})
        af = write(tmp_path, "af.json", {"bodies": [box(1, 1, 1), simplex3(1), box(1, 2, 3)]})
        code = (
            "import os, sys, okounkov_lab.cli as cli\n"
            "seen = ['numpy' in sys.modules]\n"
            "for cmd, path in (('isoperimetric', sys.argv[1]), ('af-check', sys.argv[2])):\n"
            "    assert cli.main([cmd, path, '--out', os.devnull]) == 0\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(seen)\n"
        )
        proc = python("-c", code, iso, af)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().split() == ["[False,", "False,", "True]"]

    def test_planar_commands_load_no_numpy(self, tmp_path):
        """In a fresh interpreter the planar commands leave numpy unloaded:
        `steiner` (12 rounds on the criterion-10 quad at seed 3, so float
        rounds run), `profile`, `sumset`, `density`, `bm-check` and
        `mixedvol` (of the square and a segment, a flat body with its
        affine-hull equations)."""
        quad = {"dim": 2, "vertices": [["0", "0"], ["4", "1"], ["5", "4"], ["1", "3"]]}
        triangle = {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}
        steiner = write(tmp_path, "steiner.json", {"polygon": quad, "rounds": 12})
        profile = write(tmp_path, "profile.json", {"body1": SQ, "body2": SI, "samples": 10})
        sumset = write(tmp_path, "sumset.json", {"support": triangle, "k": 8})
        density = write(tmp_path, "density.json", {"support": triangle})
        bm = write(tmp_path, "bm.json", {"m": 2, "body1": SQ, "body2": SI, "fixed": []})
        segment = {"dim": 2, "vertices": [["0", "0"], ["2", "1"]]}
        mv = write(tmp_path, "mv.json", {"bodies": [SQ, segment]})
        commands = [
            ["steiner", steiner, "--seed", "3"],
            ["profile", profile],
            ["sumset", sumset],
            ["density", density, "--kmax", "8"],
            ["bm-check", bm],
            ["mixedvol", mv],
        ]
        code = (
            "import json, os, sys, okounkov_lab.cli as cli\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    assert cli.main(args + ['--out', os.devnull]) == 0, args\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        proc = python("-c", code, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr

    def test_module_entry_point_matches_main(self, tmp_path):
        """`python -m okounkov_lab.cli` exits and reports as an in-process `main` does."""
        inp = write(tmp_path, "in.json", {"bodies": [SQ, SI]})
        for k, args in enumerate([["selftest"], ["mixedvol", inp, "--oracle"]]):
            proc = python("-m", "okounkov_lab.cli", *args)
            out = tmp_path / f"out{k}"
            assert proc.returncode == main(args + ["--out", str(out)]) == 0
            assert proc.stdout == out.read_bytes()

    @pytest.mark.parametrize(
        "vertices,message",
        [
            ([["0", "0"], [str(10**400), "0"], ["0", "1"]],
             "polygon vertex coordinates must be at most 2^256 in absolute value"),
            ([["0", "0"], ["1", "0"], ["0", f"1/{10**400}"]],
             "polygon area must be at least 2^-256"),
            ([["0", "0"], [str(2**256 + 1), "0"], ["0", "1"]],
             "polygon vertex coordinates must be at most 2^256 in absolute value"),
            ([["0", "0"], [f"1/{2**128}", "0"], ["0", f"1/{2**128}"]],
             "polygon area must be at least 2^-256"),
        ],
        ids=["coordinate-10^400", "coordinate-10^-400", "coordinate-2^256+1", "area-2^-257"],
    )
    def test_polygon_outside_double_range_is_exit_2(self, tmp_path, capsys, vertices, message):
        payload = {"polygon": {"dim": 2, "vertices": vertices}, "rounds": 12}
        inp = write(tmp_path, "in.json", payload)
        assert main(["steiner", inp, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "vertices,rounds",
        [
            # every coordinate at the bound, through the float hand-off
            ([[f"-{2**256}", "0"], [str(2**256), f"-{2**256}"], ["0", str(2**256)]], 12),
            # a coordinate below double range, on a polygon of area 1/2
            ([[f"1/{10**400}", "0"], ["1", "0"], ["0", "1"]], 12),
            # the area at the bound; exact rounds only, since the float rounds'
            # flatness tolerance is absolute below unit size
            ([["0", "0"], [f"1/{2**128}", "0"], ["0", f"1/{2**127}"]], 2),
            # the first round, an exact one, has two vertices on one double
            ([["-4/5", "5/2"], ["0", str(2**70)], ["-3", str(2**70)], ["2", str(10**9)],
              ["7/5", "0"]], 12),
        ],
        ids=["coordinate-2^256", "coordinate-10^-400-area-1/2", "area-2^-256",
             "edge-rounds-to-a-point"],
    )
    def test_polygon_inside_double_range_is_admitted(self, tmp_path, vertices, rounds):
        payload = {"polygon": {"dim": 2, "vertices": vertices}, "rounds": rounds}
        inp = write(tmp_path, "in.json", payload)
        rc, rep = run(["steiner", inp], tmp_path / "out.json")
        assert rc == 0 and len(rep["rows"]) == rounds
        for row in rep["rows"]:
            assert math.isfinite(float(row["perimeter"])) and float(row["perimeter"]) > 0
            assert math.isfinite(float(row["hausdorff_to_disc"]))
