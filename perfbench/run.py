#!/usr/bin/env python3
"""Seeded time-to-verdict benchmark for okounkov-lab.

Run from the repository root:

    python3 perfbench/run.py --workload planar --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One process runs one workload with a single client in a closed loop: each
operation is an in-process ``okounkov_lab.cli.main([...])`` call on a
generated input file (``superadditivity`` is one library call on freshly
parsed inputs), started only after the previous one returned. The corpus is
made from ``--seed``; the timed phase runs whole passes over it, as many as
fit ``--seconds`` at the workload's nominal pass time, so both sides of a
comparison do the same work. Every report is checked against a known answer.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run over the same passes, and ``trace.overhead_share``. Human-readable
lines above it give the tail percentile and sample count, the failure reasons,
``reports_sha256`` and the machine. Full results, and with tracing the spans,
are written under ``.perfbench_out/``. The exit code is 0 unless a verdict
contradicts its known answer, reports differ between passes, or the program
cannot be imported from ``src/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_BUILDS = 3  # corpus builds per run; setup_s takes their median
# Duration of reference_loop() on a quiet 2-vCPU x86_64 VM with Python 3.11.7;
# it only sets the unit of the rescaled times.
REFERENCE_S = 2.5e-3
REFERENCE_WINDOW = 2  # loops on each side of an operation that set its speed
PHASE_DEADLINE_S = 60.0  # a phase stops at the first pass boundary after this
WORKLOAD_NAMES = ("spatial-af", "planar", "okounkov", "bkk-count")

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def load_program() -> dict:
    """Import okounkov_lab from this checkout's ``src/``, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "okounkov_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no okounkov_lab sources under {src}")
    os.environ.pop("OKOUNKOV_LAB_THREADS", None)
    sys.path.insert(0, str(src))
    import okounkov_lab.cli  # noqa: F401  (loads every module the CLI uses)

    where = Path(sys.modules["okounkov_lab"].__file__).resolve().parent
    if where != src / "okounkov_lab":
        raise SystemExit(f"perfbench: okounkov_lab was imported from {where}, not {src}")
    return {
        name.rsplit(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("okounkov_lab.")
    }


# -- machine speed ------------------------------------------------------------


def reference_loop():
    """A fixed few milliseconds of the program's kind of work: tuple keys, dicts, a sort.

    Of the loops tried, this one slowed down most like the program's long
    operations when the machine slowed (pure Fraction arithmetic slowed more).
    """
    counts = {}
    for i in range(2500):
        key = (i * 7919 % 211, i * 104729 % 223, i % 5)
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for (a, b, c), n in sorted(counts.items()):
        total += a * b - c * n
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def speed_scales(refs):
    """REFERENCE_S over the median reference time around each position.

    Shared machines change speed by up to 2x within seconds. A reference loop
    runs right before every operation; scaling each operation's time by the
    machine's speed around it reports every time at the reference speed.
    """
    scales = []
    for i in range(len(refs)):
        window = refs[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1]
        scales.append(REFERENCE_S / statistics.median(window))
    return scales


# -- one operation ------------------------------------------------------------


def _cli(lab, op) -> int:
    return lab["cli"].main([op.command, op.path, *op.flags])


def _superadditivity(lab, op) -> int:
    """The library call: parse both subspaces, check, emit a canonical report."""
    jsonio, algebra = lab["jsonio"], lab["algebra"]
    with open(op.path, "rb") as fh:
        obj = json.loads(fh.read())
    l1 = jsonio.subspace_from_json(obj["l1"])
    l2 = jsonio.subspace_from_json(obj["l2"])
    rep = algebra.superadditivity_check(l1, l2, k_max=obj["k"])

    def verts(vs):
        return [[jsonio.frac_to_str(c) for c in v] for v in vs]

    sys.stdout.write(jsonio.dumps_canonical({
        "holds": bool(rep.holds),
        "body1": verts(rep.body1_vertices),
        "body2": verts(rep.body2_vertices),
        "product": verts(rep.product_vertices),
    }))
    return 0


def run_op(lab, op, tracer=None, op_id=0):
    """Time one operation; return (seconds, failure reason or None, report text).

    Only the program call is timed. A wrong exact verdict raises WrongVerdict.
    """
    call = _superadditivity if op.command == "superadditivity" else _cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = call(lab, op) if tracer is None else tracer.run_op(op_id, call, lab, op)
    except Exception as exc:  # a crash is a failed operation, not a harness error
        return time.perf_counter() - start, type(exc).__name__, f"{type(exc).__name__}: {exc}\n"
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    if rc not in (0, 1):
        return elapsed, f"exit{rc}", text + err.getvalue()
    reason = op.check(rc, json.loads(text)) if op.check else None
    return elapsed, reason, text


@dataclass
class Phase:
    """Samples of one timed phase. Times are at the reference speed, raw_times as measured."""

    raw_times: list = field(default_factory=list)  # every sample, in run order
    refs: list = field(default_factory=list)  # the reference loop before each sample
    positions: list = field(default_factory=list)  # corpus position of each sample
    classes: list = field(default_factory=list)  # op class of each sample
    reasons: Counter = field(default_factory=Counter)
    digests: list = field(default_factory=list)  # sha256 of each pass's reports
    passes: int = 0

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def times(self) -> list:
        return [t * s for t, s in zip(self.raw_times, speed_scales(self.refs))]

    def _grouped(self, keys) -> dict:
        groups = {}
        for key, t in zip(keys, self.times):
            groups.setdefault(key, []).append(t)
        return groups

    def pass_seconds(self) -> float:
        """Seconds for one pass, each operation at the median of its repeats.

        A burst of machine noise hits one repeat of an operation, not all of
        them, so the median repeat keeps it out of the throughput.
        """
        return sum(statistics.median(ts) for ts in self._grouped(self.positions).values())

    def by_class(self) -> dict:
        return self._grouped(self.classes)

    def samples(self) -> list:
        """One sample per operation run: the median of that operation's repeats."""
        out = []
        for ts in self._grouped(self.positions).values():
            out += [statistics.median(ts)] * len(ts)
        return out


def run_passes(lab, ops, passes, tracer=None) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + PHASE_DEADLINE_S
    for _ in range(passes):
        digest = hashlib.sha256()
        for i, op in enumerate(ops):
            phase.refs.append(time_reference())
            elapsed, reason, text = run_op(lab, op, tracer, len(phase.raw_times))
            phase.raw_times.append(elapsed)
            phase.positions.append(i)
            phase.classes.append(op.cls)
            if reason:
                phase.reasons[f"{op.cls}: {reason}"] += 1
            digest.update(text.encode("utf-8"))
        phase.digests.append(digest.hexdigest())
        phase.passes += 1
        if time.perf_counter() > deadline:
            break
    return phase


# -- set-up -------------------------------------------------------------------


def write_inputs(ops, directory: Path) -> str:
    """Write each op's input file; return the sha256 of the whole corpus."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        raw = json.dumps(op.payload, sort_keys=True).encode("utf-8")
        path = directory / f"op{i:04d}.json"
        path.write_bytes(raw)
        op.path = str(path)
        digest.update(f"{op.cls} {' '.join(op.flags)}\n".encode() + raw + b"\n")
    return digest.hexdigest()


def build_corpus(workload, seed, directory: Path, tiny=False):
    """Build and write the corpus SETUP_BUILDS times; all builds must agree."""
    seconds, digests = [], set()
    for _ in range(SETUP_BUILDS):
        start = time.perf_counter()
        ops = workload.build(seed, tiny=tiny)
        digests.add(write_inputs(ops, directory))
        seconds.append(time.perf_counter() - start)
    if len(digests) != 1:
        raise RuntimeError("the same seed built different corpora")
    return ops, statistics.median(seconds), digests.pop()


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import okounkov_lab.cli; print(time.perf_counter() - start)"
)


def import_seconds() -> float:
    """Median time to import the program, over SETUP_BUILDS fresh interpreters."""
    env = {k: v for k, v in os.environ.items() if k != "OKOUNKOV_LAB_THREADS"}
    probes = []
    for _ in range(SETUP_BUILDS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, env=env, cwd=ROOT)
        probes.append(float(proc.stdout))
    return statistics.median(probes)


def warm_up(lab, directory: Path) -> float:
    from perfbench.corpus import warmup_ops

    start = time.perf_counter()
    ops = warmup_ops()
    write_inputs(ops, directory)
    for op in ops:
        run_op(lab, op)
    return time.perf_counter() - start


# -- metrics ------------------------------------------------------------------


def tail(times):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(phase: Phase, setup_s: float) -> dict:
    samples = phase.samples()
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(set(phase.positions)) / phase.pass_seconds(), "1/s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_tail_ms": (1000 * tail(samples)[0], "ms"),
        "verdict_share": (1 - phase.failed / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- one workload -------------------------------------------------------------


def run_workload(name, seed, seconds, trace, tiny=False) -> dict:
    lab = load_program()
    from perfbench.corpus import WORKLOADS, WrongVerdict
    from perfbench.tracing import Tracer

    workload = WORKLOADS[name]
    first_import_s = time.perf_counter() - START
    work = WORK_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    result = {"workload": name, "seed": seed, "trace": trace}
    try:
        ops, build_s, corpus_sha = build_corpus(workload, seed, work / "corpus", tiny)
        warm_s = warm_up(lab, work / "warmup")
        import_s = import_seconds()
        setup_s = import_s + build_s + warm_s
        passes = max(1, round(seconds / workload.pass_s))
        result.update(ops_per_pass=len(ops), passes=passes, corpus_sha256=corpus_sha,
                      setup_parts={"imports_median_s": import_s, "corpus_median_s": build_s,
                                   "warmup_s": warm_s, "first_import_s": first_import_s})
        try:
            plain = run_passes(lab, ops, passes)
            phases = [plain]
            if trace:
                tracer = Tracer()
                tracer.install(lab)
                try:
                    traced = run_passes(lab, ops, plain.passes, tracer)
                finally:
                    tracer.restore()
                phases.append(traced)
        except WrongVerdict as exc:
            result.update(correct=False, error=f"wrong verdict: {exc}")
            return result
        digests = {d for p in phases for d in p.digests}
        result.update(
            correct=len(digests) == 1,
            attempted=len(plain.times),
            failed=plain.failed,
            fail_share=plain.failed / len(plain.times),
            fail_reasons=dict(sorted(plain.reasons.items())),
            timed_s=sum(plain.raw_times),
            speed_scale_median=statistics.median(speed_scales(plain.refs)),
            passes_run=plain.passes,
            tail_percentile=tail(plain.times)[1],
            reports_sha256=sorted(digests)[0] if len(digests) == 1 else sorted(digests),
            classes={
                cls: {"ops": len(ts), "total_s": sum(ts), "p50_ms": 1000 * statistics.median(ts)}
                for cls, ts in sorted(plain.by_class().items())
            },
        )
        if not result["correct"]:
            result["error"] = "reports differ between passes of the same inputs"
        if trace:
            wall, layers = tracer.check_self_times()
            metrics = tracer.layer_metrics(traced.passes, speed_scales(traced.refs))
            overhead = traced.pass_seconds() / plain.pass_seconds() - 1
            metrics["trace.overhead_share"] = (overhead, "ratio")
            result.update(traced_wall_s=wall, layer_self_s=layers, spans=len(tracer.spans))
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        else:
            metrics = end_to_end(plain, setup_s)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def _print_summary(result):
    name = result["workload"]
    if "metrics" not in result:
        print(f"{name}: {result.get('error', 'no result')}")
        return
    print(f"{name} seed {result['seed']}: {result['attempted']} operations, "
          f"{result['passes_run']} passes of {result['ops_per_pass']}, "
          f"{result['timed_s']:.2f} s timed; times below are at the reference speed, "
          f"median scale {result['speed_scale_median']:.3f}")
    for key, m in result["metrics"].items():
        extra = ""
        if key == "op_tail_ms":
            extra = f"  (p{result['tail_percentile']:.1f} of {result['attempted']} samples)"
        print(f"  {key:<32} {m['value']:.6g} {m['unit']}{extra}")
    if "setup_parts" in result:
        parts = ", ".join(f"{k} {v:.3f}" for k, v in result["setup_parts"].items())
        print(f"  setup parts: {parts} (raw wall time)")
    print(f"  {'fail_share':<32} {result['fail_share']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']}) reasons {json.dumps(result['fail_reasons'])}")
    print(f"  reports_sha256 {result['reports_sha256']}")
    for cls, c in result["classes"].items():
        print(f"  class {cls:<30} {c['ops']:>4} ops  {c['total_s']:8.3f} s  p50 {c['p50_ms']:.4g} ms")
    if "error" in result:
        print(f"  ERROR: {result['error']}")


def _final_line(result) -> dict:
    return {
        "correct": bool(result.get("correct")),
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": result.get("metrics", {}),
    }


def _run_all(args) -> int:
    """Each workload in its own process, one after another; one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        combined["correct"] &= proc.returncode == 0 and line.get("correct", False)
        combined["attempted"] += line.get("attempted", 0)
        combined["failed"] += line.get("failed", 0)
        for key, m in line.get("metrics", {}).items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result["environment"] = environment()
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_summary(result)
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps(_final_line(result)))
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
