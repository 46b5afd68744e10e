"""Command-line front end: JSON in, canonical JSON or CSV reports out.

The boundary lives in :func:`main`.  It reads the input file into
``args.data``, starts the report with ``command``, ``version``,
``input_sha256`` and, for seeded commands, ``seed``, calls the command's
handler, gives the whole report its wire form with :func:`jsonio.wire`,
renders it (``--format csv`` writes its ``rows``, the first row's keys as
the header), writes ``--out`` or stdout, and maps exceptions to exit codes.
A handler only computes: it returns its report fields, exact values such as
Fractions and the library's result records, and its exit code.

Exit codes: 0 success or inequality holds, 1 inequality violation or count
mismatch (the counterexample is preserved in the report), 2 input error or
an option the command does not read, 3 inconclusive (a count without a
majority, or two provably unequal root sums too close to separate), 4
internal error (an unexpected exception, or a ``ValueError`` in a command
that reads no input; no report).  Every command takes ``--out``; the others
are declared only where the command reads them (see ``_COMMANDS``).  Identical
inputs and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from . import __version__, algebra, bkk, geometry, jsonio, mixedvol, semigroup, steiner
from .jsonio import SchemaError, dumps_canonical, wire
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    return obj, hashlib.sha256(raw).hexdigest()


def _bodies_from(obj):
    raw = jsonio._expect(obj, "bodies", list)
    return tuple(jsonio.polytope_from_json(b) for b in raw)


def _pair_from(obj):
    return tuple(jsonio.polytope_from_json(jsonio._expect(obj, k)) for k in ("body1", "body2"))


def _verdict(result):
    return vars(result), EXIT_OK if result.holds else EXIT_VIOLATION


def _cmd_mixedvol(args):
    bodies = _bodies_from(args.data)
    fields = {"mixed_volume": mixedvol.mixed_volume(bodies)}
    if args.oracle:
        fields["mixed_volume_interp"] = mixedvol.mixed_volume_interp(bodies)
    return fields, EXIT_OK


def _cmd_af_check(args):
    return _verdict(mixedvol.check_alexandrov_fenchel(_bodies_from(args.data)))


def _cmd_bm_check(args):
    m = jsonio._expect(args.data, "m", int)
    d1, d2 = _pair_from(args.data)
    raw = jsonio._expect(args.data, "fixed", list) if "fixed" in args.data else []
    fixed = [jsonio.polytope_from_json(b) for b in raw]
    return _verdict(mixedvol.check_generalized_bm(m, d1, d2, fixed))


def _cmd_isoperimetric(args):
    return _verdict(mixedvol.check_isoperimetric(*_pair_from(args.data)))


def _cmd_sumset(args):
    support = jsonio.support_from_json(jsonio._expect(args.data, "support"))
    k = jsonio._expect(args.data, "k", int)
    out = semigroup.sumset_power(support, k)
    return {"k": k, "result": jsonio.support_to_json(out)}, EXIT_OK


def _cmd_density(args):
    support = jsonio.support_from_json(jsonio._expect(args.data, "support"))
    rep = semigroup.density_sequence(support, args.kmax)
    index = "INFINITE" if rep.index == semigroup.INFINITE else rep.index
    return {"ample": rep.ample, "index": index, "rows": [vars(r) for r in rep.rows]}, EXIT_OK


def _cmd_okounkov(args):
    sub = jsonio.subspace_from_json(jsonio._expect(args.data, "subspace"))
    order = jsonio.order_from_json(args.data.get("order"))
    body = algebra.newton_okounkov_body(sub, order, args.kmax)
    return {
        "kmax": args.kmax,
        "body": jsonio.polytope_to_json(body),
        "body_dim": body.affine_dim,
        "volume": geometry.volume(body),
    }, EXIT_OK


def _cmd_hilbert(args):
    sub = jsonio.subspace_from_json(jsonio._expect(args.data, "subspace"))
    values = algebra.hilbert_function(sub, args.kmax)
    return {"rows": [{"k": k, "dim": d} for k, d in values]}, EXIT_OK


def _supports_from(obj):
    raw = jsonio._expect(obj, "supports", list)
    return [jsonio.support_from_json(s) for s in raw]


def _cmd_bkk_predict(args):
    return {"predicted": bkk.bkk_number(_supports_from(args.data))}, EXIT_OK


def _cmd_bkk_verify(args):
    result = bkk.verify_bkk(_supports_from(args.data), trials=args.trials, seed=args.seed)
    if result.agreed:
        code = EXIT_OK
    elif result.diagnostics.get("inconclusive"):
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_VIOLATION
    return vars(result), code


def _cmd_steiner(args):
    poly = jsonio.polygon_from_json(jsonio._expect(args.data, "polygon"))
    rounds = jsonio._expect(args.data, "rounds", int)
    rows = steiner.iterate_symmetrize(poly, rounds, seed=args.seed)
    return {"rows": [vars(s) for s in rows]}, EXIT_OK


def _cmd_profile(args):
    d1, d2 = _pair_from(args.data)
    samples = args.data.get("samples", 10)
    if not jsonio.is_int(samples):
        raise SchemaError("samples must be an integer")
    values = steiner.section_profile(d1, d2, samples)
    return {"rows": [{"h": h, "volume": v} for h, v in values]}, EXIT_OK


def _cmd_selftest(args):
    result = run_selftest(seed=args.seed)
    return result, EXIT_OK if result["failed"] == 0 else EXIT_VIOLATION


# the options a command may read; every command also takes --out
_OPTIONS = {
    "--format": dict(choices=("json", "csv"), default="json", help="report format"),
    "--seed": dict(type=int, default=0, help="master random seed"),
    "--trials": dict(type=int, default=5, help="verification trials"),
    "--kmax": dict(type=int, default=12, help="level cutoff"),
    "--oracle": dict(
        action="store_true", help="also run the inclusion-exclusion oracle (dimensions 1-4)"
    ),
}
# each command's handler, help line and the options it reads
_COMMANDS = {
    "mixedvol": (_cmd_mixedvol, "exact mixed volume of an n-tuple of bodies", ("--oracle",)),
    "af-check": (_cmd_af_check, "check the quadratic mixed-volume inequality", ()),
    "bm-check": (_cmd_bm_check, "check root-sum concavity under Minkowski sum", ()),
    "isoperimetric": (_cmd_isoperimetric, "planar mixed-area inequality check", ()),
    "sumset": (_cmd_sumset, "k-fold sumset of an integer support", ()),
    "density": (_cmd_density, "sumset density against the hull volume", ("--format", "--kmax")),
    "okounkov": (_cmd_okounkov, "Newton body of a Laurent subspace", ("--kmax",)),
    "hilbert": (_cmd_hilbert, "dimension growth of subspace powers", ("--format", "--kmax")),
    "bkk-predict": (_cmd_bkk_predict, "exact root-count bound from supports", ()),
    "bkk-verify": (
        _cmd_bkk_verify, "certified exact root counting against the bound", ("--seed", "--trials")
    ),
    "steiner": (_cmd_steiner, "iterated planar symmetrization trace", ("--format", "--seed")),
    "profile": (_cmd_profile, "volumes of convex combinations of two bodies", ("--format",)),
    "selftest": (_cmd_selftest, "replay the built-in example corpus", ("--seed",)),
}


@functools.cache  # parse_args leaves the parser unchanged, so one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okounkov-lab",
        description="Exact convex-geometry toolkit with certified exact root-count checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name != "selftest":
            sub.add_argument("input", help="path to the JSON input")
        sub.add_argument("--out", default=None, help="write the report here")
        for flag in reads:
            sub.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        report = {"command": args.command, "version": __version__}
        if "input" in args:
            args.data, report["input_sha256"] = _load_input(args.input)
        if "seed" in args:
            report["seed"] = args.seed
        fields, code = handler(args)
        report = wire({**report, **fields})
        if getattr(args, "format", "json") == "csv":
            rows = report["rows"]
            lines = [rows[0].keys()] + [row.values() for row in rows]
            text = "".join(",".join(map(str, line)) + "\n" for line in lines)
        else:
            text = dumps_canonical(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except IndeterminateComparisonError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # a crash must not read as exit 1, a verdict
        # a ValueError blames the input only in a command that reads one
        if isinstance(exc, ValueError) and "input" in args:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
