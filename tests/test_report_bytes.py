"""Golden report bytes: the sha256 of one report per command on fixed inputs.

Run-to-run determinism is tested elsewhere; these hashes pin the bytes
themselves, so a refactor of how reports are assembled or formatted cannot
move a rational, a float, a key or a CSV column unnoticed.  Each input is
small and fixed, and its file holds ``json.dumps(payload, sort_keys=True)``,
so ``input_sha256`` is fixed too.  A hash changes only with a documented
change of a report, or with the package version.
"""

import hashlib
import json

import pytest

from okounkov_lab.cli import main

SQ = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}
SI = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
PENTA = {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["5/2", "3/2"], ["1", "3"], ["-1/3", "1"]]}
QUAD = {"dim": 2, "vertices": [["0", "0"], ["4", "1"], ["5", "4"], ["1", "3"]]}
BOX3 = {"dim": 3, "vertices": [
    [x, y, z] for x in ("0", "1") for y in ("0", "2") for z in ("0", "3/2")
]}
SIMPLEX3 = {"dim": 3, "vertices": [
    ["0", "0", "0"], ["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]
]}
TILTED3 = {"dim": 3, "vertices": [
    ["0", "0", "0"], ["1", "1", "0"], ["0", "1/2", "2"], ["1/3", "0", "1"]
]}
# [0, 2^600]^2: its area, 2^1200, is past double range, so bm-check sums
# its square roots in decimals
HUGE = {"dim": 2, "vertices": [["0", "0"], [str(2**600), "0"], ["0", str(2**600)],
                               [str(2**600), str(2**600)]]}


def _support(*points):
    return {"dim": len(points[0]), "points": [list(p) for p in points]}


def _term(exp, coef):
    return {"exp": list(exp), "coef": coef}


# 1, x + y, y^2 - x/2
SUBSPACE = {"dim": 2, "basis": [
    {"dim": 2, "terms": [_term((0, 0), "1")]},
    {"dim": 2, "terms": [_term((1, 0), "1"), _term((0, 1), "1")]},
    {"dim": 2, "terms": [_term((0, 2), "1"), _term((1, 0), "-1/2")]},
]}
# 1 + x, 1 + y, x + y + xy: not in echelon form (the first two share the
# lex lead 1), and not a monomial space (dimension 3 over 4 exponents)
RAW_BASIS = {"dim": 2, "basis": [
    {"dim": 2, "terms": [_term((0, 0), "1"), _term((1, 0), "1")]},
    {"dim": 2, "terms": [_term((0, 0), "1"), _term((0, 1), "1")]},
    {"dim": 2, "terms": [_term((1, 0), "1"), _term((0, 1), "1"), _term((1, 1), "1")]},
]}
# 1 + x, y: affinely independent leads, so the levels are sumsets
ONE_PLUS_X_Y = {"dim": 2, "basis": [
    {"dim": 2, "terms": [_term((0, 0), "1"), _term((1, 0), "1")]},
    {"dim": 2, "terms": [_term((0, 1), "1")]},
]}
# the dimension-4 product of a square pair of criterion 8: four leads in
# the plane, so every level is echelonized
CRITERION8_PRODUCT = {"dim": 2, "basis": [
    {"dim": 2, "terms": [_term((0, 0), "-1"), _term((0, 1), "1"), _term((1, 0), "-1"),
                         _term((1, 1), "1")]},
    {"dim": 2, "terms": [_term((0, 1), "-3"), _term((0, 2), "3"), _term((1, 0), "-1"),
                         _term((1, 1), "1")]},
    {"dim": 2, "terms": [_term((1, 0), "1"), _term((2, 0), "1")]},
    {"dim": 2, "terms": [_term((1, 1), "3"), _term((2, 0), "1")]},
]}
PAIR = {"supports": [_support((0, 0), (1, 0), (0, 1)), _support((0, 0), (1, 1))]}
DENSITY = {"support": _support((0, 0), (1, 0), (0, 1), (2, 3))}

# (id, command, payload or None for selftest, flags, exit code, sha256 of the report)
CASES = [
    ("mixedvol", "mixedvol", {"bodies": [BOX3, SIMPLEX3, TILTED3]}, ["--oracle"], 0,
     "01ecabca3a9b8470d5d1b2a72259bdf3126c3eb388eec89b67db00ef25ba1d9a"),
    ("af-check", "af-check", {"bodies": [BOX3, TILTED3, SIMPLEX3]}, [], 0,
     "3549bba2d887b55fa40111f54c20cd7338acee750a0cb051ccd5da9aeee33cb0"),
    ("bm-check", "bm-check", {"m": 2, "body1": SQ, "body2": PENTA}, [], 0,
     "df36eb9eeee318625c00c15ca7a5b282ad7fa21e62005c44a1784ae33657d010"),
    ("bm-check-decimal", "bm-check", {"m": 2, "body1": SQ, "body2": HUGE}, [], 0,
     "a4cdd34081721f161cbab5c0df332bea299afcad76f1770eaed4fc3ba4baf591"),
    ("bm-check-3d", "bm-check",
     {"m": 1, "body1": BOX3, "body2": TILTED3, "fixed": [SIMPLEX3, BOX3]}, [], 0,
     "2088ccbdaf509a8dd7bc95c2465f8458c2c4c58ce52234402773b8d82ae3de07"),
    ("isoperimetric", "isoperimetric", {"body1": PENTA, "body2": SI}, [], 0,
     "96c5d8c208293f54ff99bdff70769d20352b656132ff67d6a2459184590165c1"),
    ("sumset", "sumset", {"support": _support((0, 0), (2, 1), (1, 3)), "k": 3}, [], 0,
     "e41f41f74289cf083d082ba1fcb359a7aa398d14a09cb35011d717acaf86e610"),
    ("density", "density", DENSITY, ["--kmax", "5"], 0,
     "d69d59652cd2d770495766b6a9735ac12924668a8ab0e7f0bf5054d75f4fbd91"),
    ("density-csv", "density", DENSITY, ["--kmax", "5", "--format", "csv"], 0,
     "f6b7e3446640ccc03c72fe20658dc516cafc40a25b3d54a7b75037b712449a6e"),
    ("density-infinite", "density", {"support": _support((0, 0), (1, 1), (3, 3))},
     ["--kmax", "4"], 0,
     "4f036d3452c39141b8a4d692834807e46992b1a53249b969fbf5b54bc70afd7e"),
    ("okounkov", "okounkov", {"subspace": SUBSPACE, "order": {"kind": "grlex", "grading": [1, 2]}},
     ["--kmax", "4"], 0,
     "3101efedb545f5a1a89a2ba53762207f112f65f622be95792406a4a69b95c1e5"),
    ("hilbert", "hilbert", {"subspace": SUBSPACE}, ["--kmax", "5"], 0,
     "3ee8e5a534cccf62ff274219078c8bc155d307264d6ca5d29a6b06a445794d7e"),
    ("hilbert-csv", "hilbert", {"subspace": SUBSPACE}, ["--kmax", "5", "--format", "csv"], 0,
     "9dcf9b34eab695fe4cc5751c17f2daf65ddde2d0cf8174ac234e7c9df55d97d2"),
    ("okounkov-raw-basis", "okounkov",
     {"subspace": RAW_BASIS, "order": {"kind": "grlex", "grading": [1, 2]}}, ["--kmax", "4"], 0,
     "76d322630760305f20381716c197bdffd3b02828268c3d2a975e121d52b1d487"),
    ("hilbert-raw-basis", "hilbert", {"subspace": RAW_BASIS}, ["--kmax", "5"], 0,
     "d7e00fca03ab33268e964d1222032f51d3eb294225769408880cb70b251771d2"),
    ("okounkov-independent-leads", "okounkov", {"subspace": ONE_PLUS_X_Y}, ["--kmax", "6"], 0,
     "1c5fb259ccb829b9dec84762f23f1f8cad84cea1b4c0ddd10ad5d27e21bdf13d"),
    ("hilbert-independent-leads", "hilbert", {"subspace": ONE_PLUS_X_Y}, ["--kmax", "6"], 0,
     "b6411e48567973fbf6dfce55e936596afe4a58547c194730bcd92ba466a06e38"),
    ("okounkov-criterion8-product-odd-kmax", "okounkov", {"subspace": CRITERION8_PRODUCT},
     ["--kmax", "7"], 0,
     "6916ad2156cf581d1d33208e4d97e0224150a210952a6fcae4060439e09d7e38"),
    ("bkk-predict", "bkk-predict", PAIR, [], 0,
     "1343a89e24a1ac9bc558c13deb147d4c08c73bcc7210aef27a1176add0afc144"),
    ("bkk-verify", "bkk-verify", PAIR, ["--seed", "3", "--trials", "3"], 0,
     "7e2839a11b78b865ca93b4f02dd041f99ea706b956b0783269d9738de3dbc35e"),
    ("steiner", "steiner", {"polygon": QUAD, "rounds": 12}, ["--seed", "3"], 0,
     "2713979367bfb818e6e5c90613df594429c5f1e02be2f8c2671cfd2a8dcd953b"),
    ("steiner-csv", "steiner", {"polygon": QUAD, "rounds": 10},
     ["--seed", "3", "--format", "csv"], 0,
     "41c6c169e00918190f902d3c9eb2e08719d3b04e2275c09ae56e9b586654404f"),
    ("profile", "profile", {"body1": SQ, "body2": PENTA, "samples": 4}, [], 0,
     "2d6a1513f2729138f3648830f7abf08e4d14ee48d2ca0238e613c4f0a2254847"),
    ("profile-csv", "profile", {"body1": SQ, "body2": PENTA, "samples": 4}, ["--format", "csv"], 0,
     "7f0bd304ae13b644cc3fb3be5c3a3f295bd7b1a84520c2c02768e9e483b3fa98"),
    # a long 3D profile: 1001 rows over the mixed volumes of a box and a tetrahedron
    ("profile-3d-long", "profile", {"body1": BOX3, "body2": TILTED3, "samples": 1000}, [], 0,
     "a679bb64516480006ab95905a7412e069b9783975003c726e80de32961ff8f76"),
    ("profile-3d-long-csv", "profile", {"body1": BOX3, "body2": TILTED3, "samples": 1000},
     ["--format", "csv"], 0,
     "f247dd89d7eeaa87e867c499f519df74aa67108e7cbf22ac1df274732134c82e"),
    ("selftest", "selftest", None, ["--seed", "5"], 0,
     "569643ad74b2b412ead9605d62e08d488460610a08ac0b10456b6a09aab25810"),
]


def report_bytes(tmp_path, command, payload, flags):
    """(exit code, report bytes) of one in-process CLI run."""
    args = [command]
    if payload is not None:
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload, sort_keys=True))
        args.append(str(inp))
    out = tmp_path / "report"
    code = main(args + flags + ["--out", str(out)])
    return code, out.read_bytes()


def test_every_command_is_pinned():
    from okounkov_lab.cli import _COMMANDS

    assert {command for _, command, *_ in CASES} == set(_COMMANDS)


@pytest.mark.parametrize(
    "command,payload,flags,code,digest", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_report_bytes(tmp_path, command, payload, flags, code, digest):
    got_code, data = report_bytes(tmp_path, command, payload, flags)
    assert got_code == code
    assert hashlib.sha256(data).hexdigest() == digest
