"""Command-line harness.

Subcommands: simulate, filter, match, pipeline, sweep-shift, verify.
Every run writes a manifest next to its primary output, with the digest
of the input file for runs that read one; `verify` checks that digest,
reruns the manifest into a scratch directory and compares artifact digests.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
141 (128 + SIGPIPE) standard output closed by its reader.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import compress
from pathlib import Path

from .correction import bag_records
# filter_batch, match_scene and read_records are not called here:
# perfbench/tracer.py patches these names in this module and fails when
# they are not bound
from .filtering import filter_batch, filter_masks
from .geometry import FieldError
from .matching import match_ids, match_scene, pair_tables
from .metrics import (correspondence_score, map_at, ordered_sum,
                      pooled_correspondence)
from .pipeline import (NumericError, PlaConfig, TrainConfig, batches,
                       run_pipeline)
from .records import (RecordError, file_digest, iter_records, read_manifest,
                      read_records, write_csv, write_json, write_manifest,
                      write_records)
from .schedule import StageConfig
from .simulate import (GenerationError, SceneConfig, SimDetectorParams, detect,
                       generate_scenes, scene_columns, scene_from_record,
                       scene_to_record, scenes_from_records, shifted_scenes)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_STDOUT_CLOSED = 141

OUTPUT_DIR_ENV = "CROSSPAIR_OUTPUT_DIR"


class UsageError(Exception):
    pass


class StdoutClosed(Exception):
    """The reader of standard output has closed it."""


def _say(line):
    """Print line to stdout, flushed; StdoutClosed if its reader has gone."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        raise StdoutClosed from None


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


# a load chunk closes at LOAD_CHUNK records or once its records hold
# LOAD_BOXES ir_gt and rgb_obs items, whichever comes first
LOAD_CHUNK = 64
LOAD_BOXES = 1024


def _box_count(rec):
    """The ir_gt and rgb_obs items of a record; what is not a list, or a
    record that is not an object, counts 0."""
    if not isinstance(rec, dict):
        return 0
    return sum(len(items) for items in (rec.get("ir_gt"), rec.get("rgb_obs"))
               if isinstance(items, list))


def _scenes(path, digest=None, columns=False):
    """The scenes of a record file, in order, read a chunk at a time: a
    chunk closes at LOAD_CHUNK records, or at the record that brings its
    ir_gt and rgb_obs items to LOAD_BOXES. digest, if given, takes the
    file's bytes as iter_records reads them. With columns each scene comes
    as its SceneColumns, else as the Scene scene_from_record builds.

    Scene ids must be unique in the file, and ir_gt ids and rgb_obs ids
    within each scene. A bad record fails with a RecordError naming the
    file, the line and the field. The first bad line in the file wins: a
    line that is not JSON fails only after the records before it are
    checked.

    Each chunk's record dicts are dropped once its scenes are built, and
    its scenes before the next chunk is read, so the stream holds one chunk
    whatever the file's length; before its last record a chunk holds fewer
    than LOAD_BOXES boxes, however crowded its records are.
    """
    first_line = {}
    records = iter_records(path, digest)
    unread = None
    while unread is None:
        chunk, boxes = [], 0
        try:
            # no name is bound to a record: the chunk's last one goes with it
            while len(chunk) < LOAD_CHUNK and boxes < LOAD_BOXES:
                chunk.append(next(records))
                boxes += _box_count(chunk[-1][1])
        except StopIteration:
            pass
        except RecordError as exc:  # raised after the records before it
            unread = exc
        if not chunk:
            break
        scenes = _chunk_scenes(path, chunk, first_line, columns)
        del chunk
        yield from scenes
        del scenes
    if unread is not None:
        raise unread


def _chunk_scenes(path, chunk, first_line, columns):
    """Scenes of a chunk of (line number, record) pairs: SceneColumns if
    columns, else Scenes.

    Columns come from scenes_from_records, which checks the whole chunk as
    arrays. A chunk that it does not vouch for, and every chunk of Scenes,
    is built record by record with scene_from_record, so the chunk's first
    bad record raises, with the same message either way; each of its Scenes
    is turned into its SceneColumns if columns. first_line maps the scene
    ids of earlier chunks to their lines and takes this chunk's.
    """
    built = (scenes_from_records([rec for _, rec in chunk]) if columns
             else None)
    scenes = []
    for index, (line_no, rec) in enumerate(chunk):
        if built is not None:
            scene = built[index]
        else:
            try:
                scene = scene_from_record(rec)
            except (KeyError, TypeError, ValueError) as exc:
                raise RecordError(path, line_no, _record_fault(exc)) from exc
            if columns:
                scene = scene_columns(scene)
        first = first_line.setdefault(scene.scene_id, line_no)
        if first != line_no:
            raise RecordError(
                path, line_no,
                f"field 'scene_id': duplicate value {scene.scene_id} "
                f"(first on line {first})")
        scenes.append(scene)
    return scenes


def _run_config(args) -> dict:
    """The manifest config of a run: the parsed arguments, with --input, for
    a command that has one, made absolute so verify works from any
    directory."""
    config = vars(args).copy()
    config.pop("subcommand", None)
    if "input" in config:
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
    sim.add_argument("--scenes", type=_at_least_0, default=100)
    sim.add_argument("--boxes", type=_at_least_0, default=8)
    sim.add_argument("--canvas", type=_at_least_1, nargs=2,
                     default=[640, 640])
    sim.add_argument("--shift-max", type=_non_negative, default=15.0)
    sim.add_argument("--jitter", type=_non_negative, default=0.0)
    sim.add_argument("--angle-jitter", type=_non_negative, default=0.0)
    sim.add_argument("--dropout", type=_rate, default=0.0)
    sim.add_argument("--spurious", type=_rate, default=0.0)
    sim.add_argument("--classes", type=_at_least_1, default=5)
    sim.add_argument("--confidence-noise", type=_non_negative, default=0.1)
    sim.add_argument("--offset", type=_finite, nargs=2, default=None,
                     help="force this true offset for every scene")
    sim.add_argument("--seed", type=_at_least_0, default=0)
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
    swp.add_argument("--seed", type=_at_least_0, default=0)
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
    write_manifest(out, "simulate", _run_config(args), [out])
    _say(f"wrote {len(scenes)} scenes to {out}")
    return EXIT_OK


def cmd_filter(args):
    out = _resolve_out(args.output)
    digest = hashlib.sha256()
    count = 0

    def records():
        nonlocal count
        for batch in batches(_scenes(args.input, digest, columns=True),
                             args.batch_size):
            masks, thr = filter_masks(
                [s.scores for s in batch],
                [s.class_ids for s in batch] if args.per_class else None)
            count += len(batch)
            # a batch without candidates has no threshold: null, not NaN
            mu, sigma, tau = ((thr.mu, thr.sigma, thr.tau) if thr.is_valid
                              else (None, None, None))
            for s, mask in zip(batch, masks):
                yield {
                    "scene_id": s.scene_id,
                    "kept_ids": sorted(compress(s.rgb.ids, mask)),
                    "batch": {"mu": mu, "sigma": sigma, "tau": tau,
                              "n": thr.n},
                }

    write_records(out, records())
    write_manifest(out, "filter", _run_config(args), [out],
                   digest.hexdigest())
    _say(f"filtered {count} scenes to {out}")
    return EXIT_OK


def _matches(scenes, beta, gated, plf, batch_size):
    """(scene, MatchResult) of each SceneColumns of scenes, in order, made
    as they are read: each batch of batch_size scenes is score-filtered as
    one batch if plf, and each scene's IR boxes are matched against its
    kept observations through pair_tables."""
    def items():
        for batch in batches(scenes, batch_size):
            pools = [s.rgb for s in batch]
            if plf:
                masks = filter_masks([s.scores for s in batch])[0]
                pools = [pool.select(mask) for pool, mask in zip(pools, masks)]
            for s, pool in zip(batch, pools):
                yield (s, pool.ids), s.ir, pool

    for (s, pool_ids), table in pair_tables(items(), beta, gated):
        yield s, match_ids(table, s.ir.ids, pool_ids)


def cmd_match(args):
    """Filter and match the input a batch at a time (_matches) and write
    each scene's pairs as they are made; the correspondence scores are all
    that is kept to the end."""
    out = _resolve_out(args.output)
    digest = hashlib.sha256()
    scores = []

    def records():
        for s, result in _matches(
                _scenes(args.input, digest, columns=True), args.beta,
                not args.iou_match_only, not args.no_plf, args.batch_size):
            scores.append(correspondence_score(result, s))
            # the JSON encoder writes tuples as lists
            yield {
                "scene_id": s.scene_id,
                "pairs": result.pairs,
                "unmatched_ir": result.unmatched_ir,
                "unmatched_rgb": result.unmatched_rgb,
            }

    write_records(out, records())
    agg = pooled_correspondence(scores)
    stats = {"precision": agg.precision, "recall": agg.recall,
             "correct": agg.correct, "pairs": agg.pair_count,
             "true_correspondences": agg.true_count}
    stats_path = Path(str(out) + ".stats.json")
    write_json(stats_path, stats)
    write_manifest(out, "match", _run_config(args), [out, stats_path],
                   digest.hexdigest())
    _say(json.dumps(stats))
    return EXIT_OK


def cmd_pipeline(args):
    out = _resolve_out(args.output)
    digest = hashlib.sha256()
    scenes = list(_scenes(args.input, digest))
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
    # streamed: the records of every bag at once would set the peak memory
    write_records(bag_path, (rec for sid in sorted(report.bags)
                             for rec in bag_records(report.bags[sid])))
    write_manifest(out, "pipeline", _run_config(args),
                   [out, csv_path, bag_path], digest.hexdigest())
    _say(json.dumps(report.summary()))
    return EXIT_OK


# most offsets per axis of a sweep-shift grid; the grid has its square
SWEEP_MAX_POINTS = 1000


def _check_sweep_grid(lo, hi, step):
    """UsageError unless cmd_sweep_shift's grid, from lo to hi + 1e-9 in
    steps of step, ends and is small: lo <= hi, step > 0, step at least the
    float spacing at the grid's largest magnitude, so that every addition
    moves the offset on, and (hi + 1e-9 - lo) / step below
    SWEEP_MAX_POINTS."""
    if lo > hi:
        raise UsageError("--min must be <= --max")
    if step <= 0:
        raise UsageError("--step must be positive")
    end = hi + 1e-9
    if step < math.ulp(max(abs(lo), abs(end))):
        raise UsageError(f"--step {step} is below the float spacing at "
                         f"--min {lo} or --max {hi}")
    if (end - lo) / step >= SWEEP_MAX_POINTS:
        raise UsageError(f"sweep grid has more than {SWEEP_MAX_POINTS} "
                         f"points per axis")


def cmd_sweep_shift(args):
    out = _resolve_out(args.output)
    _check_sweep_grid(args.min, args.max, args.step)
    grid = []
    v = args.min
    while v <= args.max + 1e-9:
        grid.append(round(v, 9))
        v += args.step
    params = SimDetectorParams((0.0, 0.0), 0.0)
    # the IR mAP of a scene depends on its IR ground truth alone, which the
    # offset of a grid cell does not move
    ir_map_of = {}
    rows = []
    cells = [(dx, dy) for dx in grid for dy in grid]
    cfg = SceneConfig(count=args.scenes, boxes_per_scene=args.boxes,
                      jitter=args.jitter, seed=args.seed)
    for (dx, dy), scenes in zip(cells, shifted_scenes(cfg, cells)):
        # each scene score-filtered alone, as a batch of one
        results = _matches(map(scene_columns, scenes), args.beta, True,
                           True, 1)
        scores = []
        ir_maps, rgb_maps = [], []
        for s, (_, result) in zip(scenes, results):
            scores.append(correspondence_score(result, s))
            gts = [(b, c) for _, b, c in s.ir_gt]
            if s.ir_gt not in ir_map_of:
                ir_map_of[s.ir_gt] = map_at(detect(params, s, "ir"), gts)
            ir_maps.append(ir_map_of[s.ir_gt])
            rgb_maps.append(map_at(detect(params, s, "rgb"), gts))
        agg = pooled_correspondence(scores)
        rows.append([dx, dy,
                     ordered_sum(ir_maps) / len(ir_maps),
                     ordered_sum(rgb_maps) / len(rgb_maps),
                     agg.recall if agg.recall is not None else 0.0,
                     agg.precision if agg.precision is not None else 0.0])
    write_csv(out, ["dx", "dy", "ir_map", "rgb_map",
                    "match_recall", "match_precision"], rows)
    write_manifest(out, "sweep-shift", _run_config(args), [out])
    _say(f"wrote {len(rows)} sweep rows to {out}")
    return EXIT_OK


def _manifest_fault(m):
    """What is wrong with a manifest that write_manifest could not have
    written, or None: verify reruns its command on its input and digests
    its artifacts beside it, so these must be strings and bare file names."""
    if not isinstance(m, dict):
        return "not a JSON object"
    sub, config = m.get("subcommand"), m.get("config")
    names = m.get("artifact_digests")
    if not (isinstance(sub, str) and sub in COMMANDS and sub != "verify"):
        return f"not a writing command: {sub!r}"
    if not (isinstance(config, dict) and isinstance(config.get("output"), str)
            and isinstance(config.get("input", ""), str)):
        return "'config' is not an object with a string output and input"
    if not (isinstance(names, dict) and all(
            isinstance(d, str) and n not in ("", ".", "..")
            and os.path.basename(n) == n for n, d in names.items())):
        return "'artifact_digests' does not map file names to strings"
    if "input_digest" in m and not (isinstance(m["input_digest"], str)
                                    and "input" in config):
        return "'input_digest' is not a string digest of the config's input"
    return None


def cmd_verify(args):
    manifest = read_manifest(args.manifest)
    fault = _manifest_fault(manifest)
    if fault is not None:
        raise ValueError(f"{args.manifest}: {fault}")
    sub = manifest["subcommand"]
    config = dict(manifest["config"])
    # manifests written before input digests were recorded have none
    input_digest = manifest.get("input_digest")
    if (input_digest is not None
            and file_digest(config["input"]) != input_digest):
        _say("verify: input changed")
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
        out_name = os.path.basename(config["output"])
        argv.extend(["-o", os.path.join(tmp, out_name)])
        with redirect_stdout(io.StringIO()):  # only verify's lines are shown
            rc = run(argv)
        if rc != EXIT_OK:
            _say(f"verify: rerun failed with exit code {rc}")
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
            _say(f"verify: {name}: {'ok' if good else 'MISMATCH'}")
    if not ok:
        return EXIT_DATA
    _say("verify: all digests match")
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
    except StdoutClosed:
        # the Python docs' SIGPIPE recipe: the flush at exit must not raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
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
