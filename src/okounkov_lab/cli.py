"""Command-line front end: JSON in, canonical JSON or CSV reports out.

Exit codes: 0 success or inequality holds, 1 inequality violation or count
mismatch (the counterexample is preserved in the report), 2 input error or
an option the command does not read, 3 inconclusive (a count without a
majority, or two provably unequal root sums too close to separate), 4
internal error (an unexpected exception; no report).  Every command takes
``--out``; the others are declared only where the command reads them (see
``_READS``).  Identical inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__, algebra, bkk, geometry, jsonio, mixedvol, semigroup, steiner
from .jsonio import SchemaError, dumps_canonical, float_to_str, frac_to_str
from .radicals import IndeterminateComparisonError
from .selftest import run_selftest

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _load_input(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    return obj, hashlib.sha256(raw).hexdigest()


def _emit(report: dict, args, rows=None) -> None:
    if rows is not None and args.format == "csv":
        header, data = rows
        lines = [",".join(header)]
        for row in data:
            lines.append(",".join(str(c) for c in row))
        text = "\n".join(lines) + "\n"
    else:
        text = dumps_canonical(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, input_hash: str | None, seed=None) -> dict:
    report = {"command": command, "version": __version__}
    if input_hash is not None:
        report["input_sha256"] = input_hash
    if seed is not None:
        report["seed"] = seed
    return report


def _bodies_from(obj, key="bodies"):
    raw = jsonio._expect(obj, key, list)
    return tuple(jsonio.polytope_from_json(b) for b in raw)


def _cmd_mixedvol(args) -> int:
    obj, digest = _load_input(args.input)
    bodies = _bodies_from(obj)
    value = mixedvol.mixed_volume(bodies)
    report = _base_report("mixedvol", digest)
    report["mixed_volume"] = frac_to_str(value)
    if args.oracle:
        report["mixed_volume_interp"] = frac_to_str(mixedvol.mixed_volume_interp(bodies))
    _emit(report, args)
    return EXIT_OK


def _cmd_af_check(args) -> int:
    obj, digest = _load_input(args.input)
    result = mixedvol.check_alexandrov_fenchel(_bodies_from(obj))
    report = _base_report("af-check", digest)
    report.update(jsonio.inequality_report_to_json(result))
    _emit(report, args)
    return EXIT_OK if result.holds else EXIT_VIOLATION


def _cmd_bm_check(args) -> int:
    obj, digest = _load_input(args.input)
    m = jsonio._expect(obj, "m", int)
    d1 = jsonio.polytope_from_json(jsonio._expect(obj, "body1"))
    d2 = jsonio.polytope_from_json(jsonio._expect(obj, "body2"))
    fixed = [jsonio.polytope_from_json(b) for b in obj.get("fixed", [])]
    result = mixedvol.check_generalized_bm(m, d1, d2, fixed)
    report = _base_report("bm-check", digest)
    report.update(jsonio.inequality_report_to_json(result))
    _emit(report, args)
    return EXIT_OK if result.holds else EXIT_VIOLATION


def _cmd_isoperimetric(args) -> int:
    obj, digest = _load_input(args.input)
    d1 = jsonio.polytope_from_json(jsonio._expect(obj, "body1"))
    d2 = jsonio.polytope_from_json(jsonio._expect(obj, "body2"))
    result = mixedvol.check_isoperimetric(d1, d2)
    report = _base_report("isoperimetric", digest)
    report.update(jsonio.inequality_report_to_json(result))
    _emit(report, args)
    return EXIT_OK if result.holds else EXIT_VIOLATION


def _cmd_sumset(args) -> int:
    obj, digest = _load_input(args.input)
    support = jsonio.support_from_json(jsonio._expect(obj, "support"))
    k = jsonio._expect(obj, "k", int)
    out = semigroup.sumset_power(support, k)
    report = _base_report("sumset", digest)
    report["k"] = k
    report["result"] = jsonio.support_to_json(out)
    _emit(report, args)
    return EXIT_OK


def _cmd_density(args) -> int:
    obj, digest = _load_input(args.input)
    support = jsonio.support_from_json(jsonio._expect(obj, "support"))
    rep = semigroup.density_sequence(semigroup.slice_of_support(support, args.kmax))
    report = _base_report("density", digest)
    report["ample"] = rep.ample
    report["index"] = "INFINITE" if rep.index == semigroup.INFINITE else rep.index
    report["rows"] = [
        {"k": r.k, "ratio": frac_to_str(r.ratio), "volume": frac_to_str(r.volume)}
        for r in rep.rows
    ]
    rows = (
        ["k", "ratio", "volume"],
        [(r.k, frac_to_str(r.ratio), frac_to_str(r.volume)) for r in rep.rows],
    )
    _emit(report, args, rows)
    return EXIT_OK


def _cmd_okounkov(args) -> int:
    obj, digest = _load_input(args.input)
    sub = jsonio.subspace_from_json(jsonio._expect(obj, "subspace"))
    order = jsonio.order_from_json(obj.get("order"))
    body = algebra.newton_okounkov_body(sub, order, args.kmax)
    report = _base_report("okounkov", digest)
    report["kmax"] = args.kmax
    report["body"] = jsonio.polytope_to_json(body.polytope)
    report["body_dim"] = body.polytope.affine_dim
    report["volume"] = frac_to_str(geometry.volume(body.polytope))
    _emit(report, args)
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    obj, digest = _load_input(args.input)
    sub = jsonio.subspace_from_json(jsonio._expect(obj, "subspace"))
    values = algebra.hilbert_function(sub, args.kmax)
    report = _base_report("hilbert", digest)
    report["rows"] = [{"k": k, "dim": d} for k, d in values]
    _emit(report, args, (["k", "dim"], values))
    return EXIT_OK


def _supports_from(obj):
    raw = jsonio._expect(obj, "supports", list)
    return [jsonio.support_from_json(s) for s in raw]


def _cmd_bkk_predict(args) -> int:
    obj, digest = _load_input(args.input)
    predicted = bkk.bkk_number(_supports_from(obj))
    report = _base_report("bkk-predict", digest)
    report["predicted"] = predicted
    _emit(report, args)
    return EXIT_OK


def _cmd_bkk_verify(args) -> int:
    obj, digest = _load_input(args.input)
    supports = _supports_from(obj)
    result = bkk.verify_bkk(supports, trials=args.trials, seed=args.seed)
    report = _base_report("bkk-verify", digest, seed=args.seed)
    report.update(jsonio.count_report_to_json(result))
    _emit(report, args)
    if result.agreed:
        return EXIT_OK
    if result.diagnostics.get("inconclusive"):
        return EXIT_INCONCLUSIVE
    return EXIT_VIOLATION


def _cmd_steiner(args) -> int:
    obj, digest = _load_input(args.input)
    poly = jsonio.polygon_from_json(jsonio._expect(obj, "polygon"))
    rounds = jsonio._expect(obj, "rounds", int)
    stats = steiner.iterate_symmetrize(poly, rounds, seed=args.seed)
    report = _base_report("steiner", digest, seed=args.seed)
    report["rows"] = [
        {
            "round": s.round,
            "area": frac_to_str(s.area),
            "perimeter": float_to_str(s.perimeter),
            "hausdorff_to_disc": float_to_str(s.hausdorff_to_disc),
            "vertices": s.vertex_count,
            "exact": s.exact,
        }
        for s in stats
    ]
    rows = (
        ["round", "area", "perimeter", "hausdorff_to_disc", "vertices", "exact"],
        [
            (
                s.round,
                frac_to_str(s.area),
                float_to_str(s.perimeter),
                float_to_str(s.hausdorff_to_disc),
                s.vertex_count,
                s.exact,
            )
            for s in stats
        ],
    )
    _emit(report, args, rows)
    return EXIT_OK


def _cmd_profile(args) -> int:
    obj, digest = _load_input(args.input)
    d1 = jsonio.polytope_from_json(jsonio._expect(obj, "body1"))
    d2 = jsonio.polytope_from_json(jsonio._expect(obj, "body2"))
    samples = obj.get("samples", 10)
    if not jsonio.is_int(samples):
        raise SchemaError("samples must be an integer")
    values = steiner.section_profile(d1, d2, samples)
    report = _base_report("profile", digest)
    report["rows"] = [
        {"h": frac_to_str(h), "volume": frac_to_str(v)} for h, v in values
    ]
    _emit(report, args, (["h", "volume"], [(frac_to_str(h), frac_to_str(v)) for h, v in values]))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    result = run_selftest(seed=args.seed)
    report = _base_report("selftest", None, seed=args.seed)
    report.update(result)
    _emit(report, args)
    return EXIT_OK if result["failed"] == 0 else EXIT_VIOLATION


_COMMANDS = {
    "mixedvol": (_cmd_mixedvol, "exact mixed volume of an n-tuple of bodies"),
    "af-check": (_cmd_af_check, "check the quadratic mixed-volume inequality"),
    "bm-check": (_cmd_bm_check, "check root-sum concavity under Minkowski sum"),
    "isoperimetric": (_cmd_isoperimetric, "planar mixed-area inequality check"),
    "sumset": (_cmd_sumset, "k-fold sumset of an integer support"),
    "density": (_cmd_density, "sumset density against the hull volume"),
    "okounkov": (_cmd_okounkov, "Newton body of a Laurent subspace"),
    "hilbert": (_cmd_hilbert, "dimension growth of subspace powers"),
    "bkk-predict": (_cmd_bkk_predict, "exact root-count bound from supports"),
    "bkk-verify": (_cmd_bkk_verify, "certified exact root counting against the bound"),
    "steiner": (_cmd_steiner, "iterated planar symmetrization trace"),
    "profile": (_cmd_profile, "volumes of convex combinations of two bodies"),
    "selftest": (_cmd_selftest, "replay the built-in example corpus"),
}


# the options each command reads; every command also takes --out
_OPTIONS = {
    "--format": dict(choices=("json", "csv"), default="json", help="report format"),
    "--seed": dict(type=int, default=0, help="master random seed"),
    "--trials": dict(type=int, default=5, help="verification trials"),
    "--kmax": dict(type=int, default=12, help="level cutoff"),
    "--oracle": dict(
        action="store_true", help="also run the mixed-area-measure oracle (dimensions 1-4)"
    ),
}
_READS = {
    "mixedvol": ("--oracle",),
    "density": ("--format", "--kmax"),
    "okounkov": ("--kmax",),
    "hilbert": ("--format", "--kmax"),
    "bkk-verify": ("--seed", "--trials"),
    "steiner": ("--format", "--seed"),
    "profile": ("--format",),
    "selftest": ("--seed",),
}


@functools.cache  # parse_args leaves the parser unchanged, so one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okounkov-lab",
        description="Exact convex-geometry toolkit with certified exact root-count checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name != "selftest":
            sub.add_argument("input", help="path to the JSON input")
        sub.add_argument("--out", default=None, help="write the report here")
        for flag in _READS.get(name, ()):
            sub.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IndeterminateComparisonError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must not read as exit 1, a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
