"""Command-line harness.

Subcommands: simulate, filter, match, pipeline, sweep-shift, verify.
Every run writes a manifest next to its primary output, with the digest
of the input file for runs that read one; `verify` checks that digest,
reruns the manifest into a scratch directory and compares artifact digests.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .correction import bag_records
from .filtering import filter_batch
from .geometry import FieldError
from .matching import match_scene, pair_tables
from .metrics import (correspondence_score, map_at, ordered_sum,
                      pooled_correspondence)
from .pipeline import (NumericError, PlaConfig, TrainConfig, batches,
                       filter_pools, run_pipeline)
from .records import (RecordError, file_digest, read_manifest, read_records,
                      record_line, write_csv, write_json, write_manifest,
                      write_records)
from .schedule import StageConfig
from .simulate import (GenerationError, SceneConfig, SimDetectorParams, detect,
                       generate_scenes, scene_from_record, scene_to_record,
                       scenes_from_records)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUTPUT_DIR_ENV = "CROSSPAIR_OUTPUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_out(path) -> Path:
    path = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _record_fault(exc) -> str:
    """What is wrong with a scene record that failed with exc."""
    if isinstance(exc, FieldError):
        return f"field {exc.field!r}: {exc}"
    if isinstance(exc, KeyError):
        return f"field {exc.args[0]!r}: missing"
    return f"not a scene record: {exc}"


def _repeated_id(key, ids):
    """FieldError for the first of ids that repeats an earlier one, or None."""
    first = {}
    for i, ident in enumerate(ids):
        j = first.setdefault(ident, i)
        if j != i:
            return FieldError(f"{key}[{i}].id",
                              f"duplicate value {ident!r} (first at {key}[{j}])")
    return None


# records per scenes_from_records call: each chunk's record dicts are dropped
# once its scenes are built, so the file's dicts and scenes never coexist
LOAD_CHUNK = 64


def _load_scenes(path):
    """Scenes of a record file.

    Scene ids must be unique in the file, and ir_gt ids and rgb_obs ids
    within each scene. A bad record fails with a RecordError naming the
    file, the line and the field.

    Each chunk of LOAD_CHUNK records is checked and built as columns by
    scenes_from_records. A chunk that it does not vouch for is built record
    by record with scene_from_record, so the first bad record in the file
    raises, with the same message either way.
    """
    records = read_records(path)
    scenes = []
    first_index = {}
    for start in range(0, len(records), LOAD_CHUNK):
        chunk = records[start:start + LOAD_CHUNK]
        built = scenes_from_records(chunk)
        for index, rec in enumerate(chunk, start):
            if built is not None:
                scene = built[index - start]
            else:
                try:
                    scene = scene_from_record(rec)
                    ir_ids = [i for i, _, _ in scene.ir_gt]
                    obs_ids = [o.source_id for o in scene.rgb_obs]
                    if (len(set(ir_ids)) != len(ir_ids)
                            or len(set(obs_ids)) != len(obs_ids)):
                        raise (_repeated_id("ir_gt", ir_ids)
                               or _repeated_id("rgb_obs", obs_ids))
                except (KeyError, TypeError, ValueError) as exc:
                    raise RecordError(path, record_line(path, index),
                                      _record_fault(exc)) from exc
            first = first_index.setdefault(scene.scene_id, index)
            if first != index:
                raise RecordError(
                    path, record_line(path, index),
                    f"field 'scene_id': duplicate value {scene.scene_id} "
                    f"(first on line {record_line(path, first)})")
            scenes.append(scene)
        records[start:start + LOAD_CHUNK] = [None] * len(chunk)
    return scenes


def _run_config(args) -> dict:
    """The manifest config of a run that reads --input: the parsed arguments
    with the input made absolute, so verify works from any directory."""
    config = vars(args).copy()
    config.pop("subcommand", None)
    config["input"] = os.path.abspath(args.input)
    return config


def _checked(convert, ok, condition):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {condition}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_at_least_1 = _checked(int, lambda v: v >= 1, "at least 1")
_at_least_0 = _checked(int, lambda v: v >= 0, "at least 0")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "finite and positive")
_non_negative = _checked(float, lambda v: 0.0 <= v < math.inf,
                         "finite and at least 0")
_finite = _checked(float, math.isfinite, "finite")
_rate = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_decay = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def build_parser() -> _Parser:
    p = _Parser(prog="crosspair")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic scene stream")
    sim.add_argument("--scenes", type=int, default=100)
    sim.add_argument("--boxes", type=_at_least_0, default=8)
    sim.add_argument("--canvas", type=int, nargs=2, default=[640, 640])
    sim.add_argument("--shift-max", type=_non_negative, default=15.0)
    sim.add_argument("--jitter", type=_non_negative, default=0.0)
    sim.add_argument("--angle-jitter", type=_non_negative, default=0.0)
    sim.add_argument("--dropout", type=_rate, default=0.0)
    sim.add_argument("--spurious", type=_rate, default=0.0)
    sim.add_argument("--classes", type=_at_least_1, default=5)
    sim.add_argument("--confidence-noise", type=_non_negative, default=0.1)
    sim.add_argument("--offset", type=_finite, nargs=2, default=None,
                     help="force this true offset for every scene")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("-o", "--output", required=True)

    flt = sub.add_parser("filter", help="score-filter RGB observations per batch")
    flt.add_argument("--input", required=True)
    flt.add_argument("--batch-size", type=_at_least_1, default=16)
    flt.add_argument("--per-class", action="store_true")
    flt.add_argument("-o", "--output", required=True)

    mat = sub.add_parser("match", help="filter then match each scene")
    mat.add_argument("--input", required=True)
    mat.add_argument("--beta", type=_positive, default=1.0)
    mat.add_argument("--batch-size", type=_at_least_1, default=16)
    mat.add_argument("--no-plf", action="store_true")
    mat.add_argument("--iou-match-only", action="store_true")
    mat.add_argument("-o", "--output", required=True)

    pipe = sub.add_parser("pipeline", help="run the full staged training loop")
    pipe.add_argument("--input", required=True)
    pipe.add_argument("--k1", type=_at_least_1, default=20)
    pipe.add_argument("--k2", type=_at_least_1, default=10)
    pipe.add_argument("--k3", type=_at_least_1, default=15)
    pipe.add_argument("--k4", type=_at_least_1, default=20)
    pipe.add_argument("--beta", type=_positive, default=1.0)
    pipe.add_argument("--ema-decay", type=_decay, default=0.9999)
    pipe.add_argument("--lr", type=_positive, default=0.25)
    pipe.add_argument("--steps-per-epoch", type=_at_least_0, default=20)
    pipe.add_argument("--batch-size", type=_at_least_1, default=16)
    pipe.add_argument("--no-plf", action="store_true")
    pipe.add_argument("--no-sdlm", action="store_true")
    pipe.add_argument("--no-dlc", action="store_true")
    pipe.add_argument("--dlc-improve-only", action="store_true")
    pipe.add_argument("--iou-match-only", action="store_true")
    pipe.add_argument("--skip-stage1", action="store_true")
    pipe.add_argument("--skip-stage3", action="store_true")
    pipe.add_argument("-o", "--output", required=True)

    swp = sub.add_parser("sweep-shift", help="position-shift robustness sweep")
    swp.add_argument("--min", type=_finite, default=-15.0)
    swp.add_argument("--max", type=_finite, default=15.0)
    swp.add_argument("--step", type=_finite, default=3.0)
    swp.add_argument("--scenes", type=_at_least_1, default=30)
    swp.add_argument("--boxes", type=_at_least_0, default=8)
    swp.add_argument("--beta", type=_positive, default=1.0)
    swp.add_argument("--jitter", type=_non_negative, default=0.0)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("-o", "--output", required=True)

    ver = sub.add_parser("verify", help="re-run a manifest and compare digests")
    ver.add_argument("manifest")
    return p


def _scene_cfg(args) -> SceneConfig:
    return SceneConfig(
        count=args.scenes, boxes_per_scene=args.boxes,
        canvas=tuple(args.canvas), shift_max=args.shift_max,
        jitter=args.jitter, angle_jitter=args.angle_jitter,
        dropout_rate=args.dropout, spurious_rate=args.spurious,
        class_count=args.classes, seed=args.seed,
        confidence_noise=args.confidence_noise,
        offset_override=tuple(args.offset) if args.offset else None)


def cmd_simulate(args):
    out = _resolve_out(args.output)
    cfg = _scene_cfg(args)
    scenes = generate_scenes(cfg)
    write_records(out, [scene_to_record(s) for s in scenes])
    config = vars(args).copy()
    config.pop("subcommand", None)
    write_manifest(out, "simulate", config, args.seed, [out])
    print(f"wrote {len(scenes)} scenes to {out}")
    return EXIT_OK


def cmd_filter(args):
    out = _resolve_out(args.output)
    input_digest = file_digest(args.input)
    scenes = _load_scenes(args.input)
    records = []
    for batch in batches(scenes, args.batch_size):
        kept, thr = filter_pools([s.rgb_obs for s in batch],
                                 per_class=args.per_class)
        for s, pool in zip(batch, kept):
            records.append({
                "scene_id": s.scene_id,
                "kept_ids": sorted(o.source_id for o in pool),
                "batch": {"mu": thr.mu, "sigma": thr.sigma,
                          "tau": thr.tau, "n": thr.n},
            })
    write_records(out, records)
    write_manifest(out, "filter", _run_config(args), 0, [out], input_digest)
    print(f"filtered {len(scenes)} scenes to {out}")
    return EXIT_OK


def cmd_match(args):
    out = _resolve_out(args.output)
    input_digest = file_digest(args.input)
    scenes = _load_scenes(args.input)
    pools = []
    for batch in batches(scenes, args.batch_size):
        batch_pools = [s.rgb_obs for s in batch]
        pools += batch_pools if args.no_plf else filter_pools(batch_pools)[0]
    gated = not args.iou_match_only
    tables = pair_tables([s.ir_boxes for s in scenes], pools, args.beta, gated)
    records, scores = [], []
    for s, pool, table in zip(scenes, pools, tables):
        result = match_scene(s.ir_boxes, pool, args.beta,
                             use_search_region=gated, table=table)
        scores.append(correspondence_score(result, s))
        records.append({
            "scene_id": s.scene_id,
            "pairs": [[i, j, v] for i, j, v in result.pairs],
            "unmatched_ir": list(result.unmatched_ir),
            "unmatched_rgb": list(result.unmatched_rgb),
        })
    write_records(out, records)
    agg = pooled_correspondence(scores)
    stats = {"precision": agg.precision, "recall": agg.recall,
             "correct": agg.correct, "pairs": agg.pair_count,
             "true_correspondences": agg.true_count}
    stats_path = Path(str(out) + ".stats.json")
    write_json(stats_path, stats)
    write_manifest(out, "match", _run_config(args), 0, [out, stats_path],
                   input_digest)
    print(json.dumps(stats))
    return EXIT_OK


def cmd_pipeline(args):
    out = _resolve_out(args.output)
    input_digest = file_digest(args.input)
    scenes = _load_scenes(args.input)
    stage_cfg = StageConfig(args.k1, args.k2, args.k3, args.k4)
    pla = PlaConfig(beta=args.beta, use_plf=not args.no_plf,
                    use_sdlm=not args.no_sdlm, use_dlc=not args.no_dlc,
                    dlc_improve_only=args.dlc_improve_only,
                    iou_match_only=args.iou_match_only)
    train = TrainConfig(learning_rate=args.lr,
                        steps_per_epoch=args.steps_per_epoch,
                        ema_decay=args.ema_decay,
                        batch_size=args.batch_size,
                        skip_stage1=args.skip_stage1,
                        skip_stage3=args.skip_stage3)
    report = run_pipeline(scenes, stage_cfg, pla, train)
    recs = report.epoch_records()
    recs.append({"summary": report.summary()})
    write_records(out, recs)
    csv_path = Path(str(out) + ".csv")
    header = ["epoch", "phase", "lambda", "total_loss", "matched_count",
              "copied_count", "updated_count", "mean_center_error_rgb"]
    rows = []
    for r in report.epochs:
        total = ordered_sum(r.loss_terms.values())
        rows.append([r.epoch, r.phase, r.lam, total, r.matched_count,
                     r.copied_count, r.updated_count, r.mean_center_error_rgb])
    write_csv(csv_path, header, rows)
    bag_path = Path(str(out) + ".bags.jsonl")
    write_records(bag_path, [rec for sid in sorted(report.bags)
                             for rec in bag_records(report.bags[sid])])
    write_manifest(out, "pipeline", _run_config(args), 0,
                   [out, csv_path, bag_path], input_digest)
    print(json.dumps(report.summary()))
    return EXIT_OK


def cmd_sweep_shift(args):
    out = _resolve_out(args.output)
    if args.min > args.max:
        raise UsageError("--min must be <= --max")
    if args.step <= 0:
        raise UsageError("--step must be positive")
    grid = []
    v = args.min
    while v <= args.max + 1e-9:
        grid.append(round(v, 9))
        v += args.step
    if not grid:
        raise UsageError("empty sweep grid")
    params = SimDetectorParams((0.0, 0.0), 0.0)
    rows = []
    for dx in grid:
        for dy in grid:
            cfg = SceneConfig(count=args.scenes, boxes_per_scene=args.boxes,
                              jitter=args.jitter, seed=args.seed,
                              offset_override=(dx, dy))
            scenes = generate_scenes(cfg)
            pools = [filter_batch(s.rgb_obs)[0] for s in scenes]
            tables = pair_tables([s.ir_boxes for s in scenes], pools,
                                 args.beta)
            scores = []
            ir_maps, rgb_maps = [], []
            for s, kept, table in zip(scenes, pools, tables):
                result = match_scene(s.ir_boxes, kept, args.beta, table=table)
                scores.append(correspondence_score(result, s))
                gts = [(b, c) for _, b, c in s.ir_gt]
                ir_maps.append(map_at(detect(params, s, "ir"), gts))
                rgb_maps.append(map_at(detect(params, s, "rgb"), gts))
            agg = pooled_correspondence(scores)
            rows.append([dx, dy,
                         ordered_sum(ir_maps) / len(ir_maps),
                         ordered_sum(rgb_maps) / len(rgb_maps),
                         agg.recall if agg.recall is not None else 0.0,
                         agg.precision if agg.precision is not None else 0.0])
    write_csv(out, ["dx", "dy", "ir_map", "rgb_map",
                    "match_recall", "match_precision"], rows)
    config = vars(args).copy()
    config.pop("subcommand", None)
    write_manifest(out, "sweep-shift", config, args.seed, [out])
    print(f"wrote {len(rows)} sweep rows to {out}")
    return EXIT_OK


def cmd_verify(args):
    manifest = read_manifest(args.manifest)
    sub = manifest["subcommand"]
    config = dict(manifest["config"])
    # manifests written before input digests were recorded have none
    input_digest = manifest.get("input_digest")
    if (input_digest is not None
            and file_digest(config["input"]) != input_digest):
        print("verify: input changed")
        return EXIT_DATA
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sub]
        for key, val in config.items():
            flag = "--" + key.replace("_", "-")
            if key == "output":
                continue
            if isinstance(val, bool):
                if val:
                    argv.append(flag)
            elif val is None:
                continue
            elif isinstance(val, list):
                argv.append(flag)
                argv.extend(str(v) for v in val)
            else:
                argv.extend([flag, str(val)])
        out_name = os.path.basename(str(config["output"]))
        argv.extend(["-o", os.path.join(tmp, out_name)])
        rc = run(argv)
        if rc != EXIT_OK:
            print(f"verify: rerun failed with exit code {rc}")
            return EXIT_DATA
        ok = True
        base = os.path.dirname(os.path.abspath(args.manifest))
        for name, digest in manifest["artifact_digests"].items():
            rerun = file_digest(os.path.join(tmp, name))
            current_path = os.path.join(base, name)
            current = (file_digest(current_path)
                       if os.path.exists(current_path) else None)
            good = rerun == digest and current == digest
            if not good:
                ok = False
            print(f"verify: {name}: {'ok' if good else 'MISMATCH'}")
    if not ok:
        return EXIT_DATA
    print("verify: all digests match")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "filter": cmd_filter,
    "match": cmd_match,
    "pipeline": cmd_pipeline,
    "sweep-shift": cmd_sweep_shift,
    "verify": cmd_verify,
}


def run(argv) -> int:
    """Run one command line; returns the exit code.

    The cyclic garbage collector is paused for the command: its data holds
    no reference cycles, and a load leaves over a million objects on the
    heap that each collection would rescan. The collector's state is
    restored on return, so a nested run (verify's rerun) leaves it paused.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RecordError, GenerationError, OSError, KeyError,
            ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
