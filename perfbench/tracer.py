"""Outside-in tracer for the crosspair layers.

The tracer wraps each layer's public functions at the names their callers
look them up by (``crosspair.pipeline.match_scene``, ``crosspair.metrics.iou``
and so on), so nothing under ``src/`` changes. A wrapped call records a span
(name, start, end, parent) in memory; the two hot geometry leaves, ``iou``
and ``point_in_obb``, are aggregated per call site instead, because storing
one span per call would cost ~100 MB on the dense workload. Their time is
charged to the enclosing span, so self time (a span minus its child spans and
leaves) stays exact.

``summarize`` turns a dumped trace into the per-layer metrics named in
``BENCHMARK.json``; ``layer_table`` gives the self-time table of the report.
"""
from __future__ import annotations

import importlib
import os
import statistics
import sys
import time

# defining module.function -> caller modules that look the function up by name
PATCH_POINTS = {
    "crosspair.geometry.iou": ("crosspair.matching", "crosspair.metrics",
                               "crosspair.correction"),
    "crosspair.geometry.point_in_obb": ("crosspair.matching",),
    "crosspair.matching.match_scene": ("crosspair.pipeline", "crosspair.cli"),
    "crosspair.filtering.filter_batch": ("crosspair.pipeline", "crosspair.cli"),
    "crosspair.correction.init_bag": ("crosspair.pipeline",),
    "crosspair.correction.update_bag": ("crosspair.pipeline",),
    "crosspair.schedule.ema_update": ("crosspair.schedule",),
    "crosspair.simulate.detect": ("crosspair.pipeline", "crosspair.cli"),
    "crosspair.simulate.rgb_proposals": ("crosspair.pipeline",),
    "crosspair.simulate.student_step": ("crosspair.pipeline",),
    "crosspair.simulate.scene_from_record": ("crosspair.cli",),
    "crosspair.metrics.correspondence_score": ("crosspair.cli",),
    "crosspair.metrics.pooled_correspondence": ("crosspair.cli",),
    "crosspair.records.read_records": ("crosspair.cli",),
    "crosspair.records.write_records": ("crosspair.cli",),
    "crosspair.records.write_csv": ("crosspair.cli",),
    "crosspair.records.write_manifest": ("crosspair.cli",),
    "crosspair.pipeline.run_pipeline": ("crosspair.cli",),
}

# aggregated per call site instead of one span per call
LEAVES = frozenset({"iou", "point_in_obb"})

ROOT = "cli.run"


class TracerError(RuntimeError):
    """A patch point no longer names the layer's public function."""


def _split(qualname):
    module, _, name = qualname.rpartition(".")
    return module, name


def patch_targets():
    """(module, attribute, function) for every binding of a traced function
    in any loaded crosspair module.

    Raises TracerError when a caller named in PATCH_POINTS no longer binds
    the layer's function, so a refactor fails loudly instead of reading 0.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "crosspair" or name.startswith("crosspair.")}
    targets = []
    for qualname, callers in PATCH_POINTS.items():
        def_module, name = _split(qualname)
        fn = getattr(importlib.import_module(def_module), name, None)
        if fn is None:
            raise TracerError(f"{qualname} does not exist")
        for caller in callers:
            if getattr(importlib.import_module(caller), name, None) is not fn:
                raise TracerError(f"{caller}.{name} is not {qualname}")
        targets.extend((mod_name, attr, fn)
                       for mod_name, mod in sorted(modules.items())
                       for attr, value in vars(mod).items() if value is fn)
    return targets


class Tracer:
    """Spans and counters of one traced run, kept in memory until dump()."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, leaf seconds]
        self.leaves = {}     # call-site name -> [calls, seconds, true results]
        self.counters = {}
        self._stack = []
        self._saved = []

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, time.perf_counter(), None,
                      stack[-1] if stack else -1, 0.0])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter()

    def _wrap(self, site, fn):
        name = f"{site}.{fn.__name__}"
        if fn.__name__ in LEAVES:
            agg = self.leaves.setdefault(name, [0, 0.0, 0])
            spans, stack = self.spans, self._stack

            def leaf(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += bool(result)
                if stack:
                    spans[stack[-1]][4] += dt
                return result
            return leaf

        observe = _OBSERVERS.get(fn.__name__)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return traced

    def install(self):
        for caller, attr, fn in patch_targets():
            module = sys.modules[caller]
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(caller.rpartition(".")[2], fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self):
        return {"spans": self.spans, "leaves": self.leaves,
                "counters": self.counters}


def _observe_match(tracer, args, kwargs, result):
    tracer.count("match_pairs", len(result.pairs))


def _observe_filter(tracer, args, kwargs, result):
    tracer.count("filter_in", len(args[0]))
    tracer.count("filter_kept", len(result[0]))


def _observe_update_bag(tracer, args, kwargs, result):
    tracer.count("bag_offered", len(args[1].pairs))
    tracer.count("bag_rewritten", sum(
        1 for p in result.pairs.values() if p.last_update_epoch == result.epoch))


def _observe_read(tracer, args, kwargs, result):
    tracer.count("bytes_in", os.path.getsize(args[0]))


def _observe_write(tracer, args, kwargs, result):
    tracer.count("bytes_out", os.path.getsize(args[0]))


_OBSERVERS = {
    "match_scene": _observe_match,
    "filter_batch": _observe_filter,
    "update_bag": _observe_update_bag,
    "read_records": _observe_read,
    "write_records": _observe_write,
    "write_csv": _observe_write,
}


# ---------------------------------------------------------------------------
# Analysis of a dumped trace


class _Totals:
    """Per function name: calls, total seconds, self seconds, durations."""

    def __init__(self, trace):
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, leaf_s in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls, self.total, self.self_s, self.durations = {}, {}, {}, {}
        for i, (name, start, end, parent, leaf_s) in enumerate(spans):
            fn = name.rpartition(".")[2] if name != ROOT else ROOT
            dur = end - start
            self.calls[fn] = self.calls.get(fn, 0) + 1
            self.total[fn] = self.total.get(fn, 0.0) + dur
            self.self_s[fn] = self.self_s.get(fn, 0.0) + dur - child[i] - leaf_s
            self.durations.setdefault(fn, []).append(dur)
        for site, (calls, seconds, _) in trace["leaves"].items():
            fn = site.rpartition(".")[2]
            self.calls[fn] = self.calls.get(fn, 0) + calls
            self.total[fn] = self.total.get(fn, 0.0) + seconds
            self.self_s[fn] = self.self_s.get(fn, 0.0) + seconds
        self.leaves = trace["leaves"]
        self.counters = trace["counters"]

    def n(self, *fns):
        return sum(self.calls.get(f, 0) for f in fns)

    def s(self, *fns):
        return sum(self.total.get(f, 0.0) for f in fns)

    def own(self, *fns):
        return sum(self.self_s.get(f, 0.0) for f in fns)

    def leaf(self, site, field):
        return self.leaves.get(site, [0, 0.0, 0])[field]

    def counter(self, key):
        return self.counters.get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_us(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6


def summarize(trace):
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    t = _Totals(trace)
    iou_zero = sum(calls - nonzero for site, (calls, _, nonzero)
                   in t.leaves.items() if site.endswith(".iou"))
    match_durations = t.durations.get("match_scene", [])
    return {
        "geometry.iou_calls": t.n("iou"),
        "geometry.iou_s": t.s("iou"),
        "geometry.iou_zero_ratio": _ratio(iou_zero, t.n("iou")),
        "matching.match_scene_calls": t.n("match_scene"),
        "matching.match_scene_s": t.s("match_scene"),
        "matching.self_s": t.own("match_scene"),
        "matching.match_scene_p50_us": _percentile_us(match_durations, 50),
        "matching.match_scene_p99_us": _percentile_us(match_durations, 99),
        "matching.gate_tests": t.leaf("matching.point_in_obb", 0),
        "matching.gate_s": t.leaf("matching.point_in_obb", 1),
        "matching.gate_pass_ratio": _ratio(t.leaf("matching.point_in_obb", 2),
                                           t.leaf("matching.point_in_obb", 0)),
        "matching.pairs_per_iou": _ratio(t.counter("match_pairs"),
                                         t.leaf("matching.iou", 0)),
        "simulate.proposals_s": t.s("rgb_proposals"),
        "simulate.detect_s": t.s("detect"),
        "simulate.detect_calls": t.n("detect"),
        "simulate.student_step_s": t.s("student_step"),
        "simulate.student_step_calls": t.n("student_step"),
        "simulate.from_record_s": t.s("scene_from_record"),
        "filtering.calls": t.n("filter_batch"),
        "filtering.s": t.s("filter_batch"),
        "filtering.candidates_in": t.counter("filter_in"),
        "filtering.keep_ratio": _ratio(t.counter("filter_kept"),
                                       t.counter("filter_in")),
        "correction.bag_calls": t.n("init_bag", "update_bag"),
        "correction.bag_s": t.s("init_bag", "update_bag"),
        "correction.rewrite_ratio": _ratio(t.counter("bag_rewritten"),
                                           t.counter("bag_offered")),
        "schedule.ema_calls": t.n("ema_update"),
        "schedule.ema_s": t.s("ema_update"),
        "metrics.correspondence_s": t.s("correspondence_score",
                                        "pooled_correspondence"),
        "records.read_s": t.s("read_records"),
        "records.bytes_in": t.counter("bytes_in"),
        "records.write_s": t.s("write_records", "write_csv"),
        "records.bytes_out": t.counter("bytes_out"),
        "records.manifest_s": t.s("write_manifest"),
        "pipeline.run_s": t.s("run_pipeline"),
        "pipeline.self_s": t.own("run_pipeline"),
        "cli.self_s": t.own(ROOT),
    }


def call_counts(trace):
    """Calls per traced function name; the tracer self-test checks these."""
    return dict(_Totals(trace).calls)


def layer_table(trace):
    """(layer, self seconds, share of traced wall, calls) per layer.

    A function's self time goes to the module that defines it; the shares
    add up to the whole traced cli.run span.
    """
    t = _Totals(trace)
    layer_of = {_split(q)[1]: _split(q)[0].rpartition(".")[2]
                for q in PATCH_POINTS}
    layer_of[ROOT] = "cli"
    wall = t.s(ROOT)
    rows = {}
    for fn, own in t.self_s.items():
        row = rows.setdefault(layer_of[fn], [0.0, 0])
        row[0] += own
        row[1] += t.calls[fn]
    return sorted(((layer, own, _ratio(own, wall), calls)
                   for layer, (own, calls) in rows.items()),
                  key=lambda r: -r[1])
