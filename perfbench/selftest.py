"""Self-test of the benchmark's tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

Every patch point must still be the layer's public function, so a refactor
fails here instead of silently reading 0; and on train_default the traced
call counts must equal the closed forms of the default schedule and repeat
exactly between two traced runs.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import crosspair.cli  # noqa: E402
from tracer import (PATCH_POINTS, ROOT, Tracer, call_counts,  # noqa: E402
                    patch_targets, summarize)
from workloads import TRAIN_EPOCHS, TRAIN_SCENES, WORKLOADS  # noqa: E402

K1, K2, K3, K4 = 20, 10, 15, 20
STEPS = 20


def _resolve(qualname):
    module, _, name = qualname.rpartition(".")
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("qualname", sorted(PATCH_POINTS))
def test_patch_points_bind_the_layer_function(qualname):
    fn = _resolve(qualname)
    assert fn.__module__ + "." + fn.__name__ == qualname
    for caller in PATCH_POINTS[qualname]:
        assert _resolve(f"{caller}.{fn.__name__}") is fn


def test_every_patch_point_is_patched():
    targets = patch_targets()
    for qualname, callers in PATCH_POINTS.items():
        fn = _resolve(qualname)
        for caller in callers:
            assert (caller, fn.__name__, fn) in targets


def test_install_wraps_and_uninstall_restores():
    import crosspair.matching
    import crosspair.pipeline

    fn = crosspair.matching.match_scene
    tracer = Tracer()
    tracer.install()
    try:
        assert crosspair.pipeline.match_scene is not fn
        assert crosspair.cli.match_scene is not fn
    finally:
        tracer.uninstall()
    assert crosspair.pipeline.match_scene is fn
    assert crosspair.cli.match_scene is fn


def test_summary_names_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    empty = {"spans": [], "leaves": {}, "counters": {}}
    assert set(summarize(empty)) | {"trace.overhead_ratio"} == declared


def test_self_time_subtracts_child_spans_and_leaves():
    trace = {"spans": [[ROOT, 0.0, 10.0, -1, 0.0],
                       ["cli.run_pipeline", 1.0, 9.0, 0, 0.0],
                       ["pipeline.match_scene", 2.0, 5.0, 1, 1.5]],
             "leaves": {"matching.iou": [4, 1.5, 3]},
             "counters": {"match_pairs": 2}}
    m = summarize(trace)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["pipeline.run_s"] == pytest.approx(8.0)
    assert m["pipeline.self_s"] == pytest.approx(5.0)
    assert m["matching.self_s"] == pytest.approx(1.5)
    assert m["geometry.iou_zero_ratio"] == pytest.approx(0.25)
    assert m["matching.pairs_per_iou"] == pytest.approx(0.5)


def _traced_train_run(work, out_name):
    wl = WORKLOADS["train_default"]
    out = work / out_name
    out.mkdir()
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.span(ROOT, crosspair.cli.run,
                         wl.argv(wl.default_seed, work, out))
    finally:
        tracer.uninstall()
    assert rc == 0
    assert wl.check(work, out) == []
    return tracer.dump()


def test_train_default_counts_match_closed_forms(tmp_path):
    wl = WORKLOADS["train_default"]
    wl.make_input(wl.default_seed, tmp_path)
    # output directories of different name lengths, as rep9 and traced10
    # are in a run: no counter may depend on the output path
    first = _traced_train_run(tmp_path, "a")
    second = _traced_train_run(tmp_path, "bb")

    counts = call_counts(first)
    assigning = K3 + K4            # stage-2/3 epochs run filter + match
    assert TRAIN_EPOCHS == K1 + K2 + K3 + K4
    assert counts["match_scene"] == TRAIN_SCENES * assigning == 7000
    assert counts["rgb_proposals"] == TRAIN_SCENES * (K2 + assigning) == 9000
    assert counts["detect"] == TRAIN_SCENES * (K1 + K2 + K3) == 9000
    assert counts["student_step"] == assigning * STEPS == 700
    assert counts["ema_update"] == TRAIN_EPOCHS * STEPS == 1300

    assert call_counts(second) == counts
    assert second["counters"] == first["counters"]
    assert second["leaves"].keys() == first["leaves"].keys()
    for site, (calls, _, nonzero) in first["leaves"].items():
        assert second["leaves"][site][0] == calls
        assert second["leaves"][site][2] == nonzero
