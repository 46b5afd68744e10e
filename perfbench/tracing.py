"""Traced runs: spans around each layer's public functions, wrapped from outside.

The program is not edited. ``Tracer.install`` replaces each target function
with a timing wrapper under every name a program module binds it to (for
example both ``roots.aberth_roots`` and ``bkk.aberth_roots``), and
``Tracer.restore`` puts every original back and checks that none is left.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A callable span name receives the call's
# positional arguments. Several functions may share one span name.
TARGETS = (
    ("_hull", "hull_of_lifted", lambda args: f"hull.d{args[1]}"),
    ("geometry", "convex_hull", "geometry.convex_hull"),
    ("geometry", "minkowski_sum", "geometry.minkowski_sum"),
    ("geometry", "volume", "geometry.volume"),
    ("geometry", "lattice_points", "geometry.lattice_points"),
    # every mixed volume, including the three inside check_alexandrov_fenchel,
    # goes through the grouped inclusion-exclusion
    ("mixedvol", "_mixed_volume_grouped", "mixedvol.mixed_volume"),
    ("mixedvol", "mixed_volume_interp", "mixedvol.interp"),
    ("radicals", "compare_root_sums", "radicals.compare"),
    ("semigroup", "sumset_power", "semigroup.sumset_power"),
    ("semigroup", "slice_of_support", "semigroup.sumset_power"),
    ("semigroup", "density_sequence", "semigroup.density"),
    ("semigroup", "smith_normal_form", "semigroup.snf"),
    ("algebra", "LaurentPolynomial.__mul__", "algebra.mul"),
    ("algebra", "semigroup_of_subspace", "algebra.levels"),
    ("algebra", "hilbert_function", "algebra.levels"),
    ("bkk", "count_solutions_2d", "bkk.count_2d"),
    ("bkk", "count_roots_1d", "bkk.count_1d"),
    ("bkk", "bkk_number", "bkk.bkk_number"),
    ("bkk", "random_generic_system", "bkk.trial"),
    ("roots", "aberth_roots", "roots.aberth"),
    ("steiner", "steiner_symmetrize", "steiner.exact"),
    ("steiner", "iterate_symmetrize", "steiner.iterate"),
    ("steiner", "section_profile", "steiner.profile"),
    ("cli", "_load_input", "jsonio.parse"),
    ("jsonio", "polytope_from_json", "jsonio.parse"),
    ("jsonio", "support_from_json", "jsonio.parse"),
    ("jsonio", "subspace_from_json", "jsonio.parse"),
    ("jsonio", "polygon_from_json", "jsonio.parse"),
    ("jsonio", "dumps_canonical", "jsonio.emit"),
)

ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        # (op_id, span_id, parent_id, name, start, end, self_s, returned)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[list] = []  # [span_id, name, child_s]
        self._next_id = 0
        self._installed: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        stack.append(frame)
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            self.spans.append(
                (self.op_id, frame[0], parent, name, start, end, duration - frame[2], returned)
            )

    def run_op(self, op_id, fn, *args):
        """Run one operation as a root span; every span inside shares ``op_id``."""
        self.op_id = op_id
        return self.call(ROOT_SPAN, fn, args, {})

    def _wrapper(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if label.startswith("hull."):
                tracer.counts["hull.points_in"] += len(args[0])
            elif label == "geometry.minkowski_sum" and any(
                f[1] == "mixedvol.mixed_volume" for f in tracer._stack
            ):
                tracer.counts["mixedvol.sums"] += 1
            return tracer.call(label, original, args, kwargs)

        return wrapper

    # -- installing and restoring ---------------------------------------------

    def install(self, modules: dict):
        """Wrap every target under each name bound to it in ``modules``' namespaces."""
        owners = list(modules.values()) + [modules["algebra"].LaurentPolynomial]
        for modname, attr, name in TARGETS:
            owner = modules[modname]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[last]
            wrapper = self._wrapper(original, name)
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is original:
                        setattr(o, key, wrapper)
                        self._installed.append((o, key, original))

    def restore(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        left = [(o, k) for o, k, orig in self._installed if vars(o)[k] is not orig]
        self._installed.clear()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    # -- results --------------------------------------------------------------

    def check_self_times(self):
        """Layer self times partition the root spans, so never exceed them."""
        wall = sum(s[5] - s[4] for s in self.spans if s[3] == ROOT_SPAN)
        layers = sum(s[6] for s in self.spans if s[3] != ROOT_SPAN)
        if layers > wall + 1e-6:
            raise RuntimeError(f"layer self time {layers:.6f} s exceeds traced wall {wall:.6f} s")
        return wall, layers

    def layer_metrics(self, passes: int, scales) -> dict:
        """Per-layer metrics, per pass over the corpus.

        ``scales[op_id]`` converts that operation's times to the reference
        speed, as for the end-to-end metrics.
        """
        calls, self_s, returned = Counter(), defaultdict(float), Counter()
        for s in self.spans:
            calls[s[3]] += 1
            self_s[s[3]] += s[6] * scales[s[0]]
            returned[s[3]] += s[7]

        def per_pass(v):
            return v / passes

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for d in (2, 3, 4):
            m[f"hull.d{d}.calls"] = (per_pass(calls[f"hull.d{d}"]), "count")
        for d in (2, 3, 4):
            m[f"hull.d{d}.self_s"] = (per_pass(self_s[f"hull.d{d}"]), "s")
        m["hull.points_in"] = (per_pass(self.counts["hull.points_in"]), "count")
        for name in ("geometry.convex_hull", "geometry.minkowski_sum"):
            m[f"{name}.calls"] = (per_pass(calls[name]), "count")
            m[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
        for name in ("geometry.volume", "geometry.lattice_points"):
            m[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
        m["mixedvol.mixed_volume.calls"] = (per_pass(calls["mixedvol.mixed_volume"]), "count")
        m["mixedvol.mixed_volume.self_s"] = (per_pass(self_s["mixedvol.mixed_volume"]), "s")
        m["mixedvol.interp.self_s"] = (per_pass(self_s["mixedvol.interp"]), "s")
        m["mixedvol.sums_per_mv"] = (
            ratio(self.counts["mixedvol.sums"], calls["mixedvol.mixed_volume"]), "ratio")
        m["radicals.compare.calls"] = (per_pass(calls["radicals.compare"]), "count")
        m["radicals.compare.self_s"] = (per_pass(self_s["radicals.compare"]), "s")
        m["semigroup.sumset_power.self_s"] = (per_pass(self_s["semigroup.sumset_power"]), "s")
        m["semigroup.density.self_s"] = (per_pass(self_s["semigroup.density"]), "s")
        m["semigroup.snf.calls"] = (per_pass(calls["semigroup.snf"]), "count")
        m["algebra.mul.calls"] = (per_pass(calls["algebra.mul"]), "count")
        m["algebra.mul.self_s"] = (per_pass(self_s["algebra.mul"]), "s")
        m["algebra.levels.self_s"] = (per_pass(self_s["algebra.levels"]), "s")
        m["bkk.count_2d.calls"] = (per_pass(calls["bkk.count_2d"]), "count")
        m["bkk.count_2d.self_s"] = (per_pass(self_s["bkk.count_2d"]), "s")
        m["bkk.count_1d.self_s"] = (per_pass(self_s["bkk.count_1d"]), "s")
        m["bkk.bkk_number.self_s"] = (per_pass(self_s["bkk.bkk_number"]), "s")
        m["bkk.trials_attempted"] = (per_pass(calls["bkk.trial"]), "count")
        counted = returned["bkk.count_1d"] + returned["bkk.count_2d"]
        m["bkk.trial_yield"] = (ratio(counted, calls["bkk.trial"]), "ratio")
        m["roots.aberth.calls"] = (per_pass(calls["roots.aberth"]), "count")
        m["roots.aberth.self_s"] = (per_pass(self_s["roots.aberth"]), "s")
        m["steiner.exact.calls"] = (per_pass(calls["steiner.exact"]), "count")
        for name in ("steiner.exact", "steiner.iterate", "steiner.profile", "jsonio.parse",
                     "jsonio.emit"):
            m[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
        return m

    def write_spans(self, path):
        """Write every span as one JSON array per line, times relative to the first."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["op_id", "span_id", "parent_id", "name", "start_s", "end_s"]) + "\n")
            for op_id, sid, parent, name, start, end, _, _ in self.spans:
                fh.write(json.dumps([op_id, sid, parent, name,
                                     round(start - base, 9), round(end - base, 9)]) + "\n")
