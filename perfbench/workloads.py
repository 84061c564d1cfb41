"""The benchmark workloads: input generation, command line, and the
checks and quality figures read back from the command's outputs.

Each workload makes its input from a seed during set-up (untimed) and hands
the program only the generated file or flags.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from crosspair.records import file_digest, read_records, write_records

TRAIN_EPOCHS = 65          # default schedule 20/10/15/20
TRAIN_SCENES = 200
ASSIGN_SCENES = 800


def _write_scenes(cfg, path: Path) -> str:
    """Write the generated scenes to ``path``; return the file's sha256."""
    from crosspair.simulate import generate_scenes, scene_to_record

    write_records(path, [scene_to_record(s) for s in generate_scenes(cfg)])
    return file_digest(path)


class TrainDefault:
    """`crosspair pipeline` with default flags on criterion-7 scenes."""
    name = "train_default"
    default_seed = 42
    passes = TRAIN_SCENES * TRAIN_EPOCHS

    def make_input(self, seed, work):
        from crosspair.simulate import SceneConfig

        cfg = SceneConfig(count=TRAIN_SCENES, boxes_per_scene=6, shift_max=15,
                          jitter=0.5, dropout_rate=0.1, spurious_rate=0.1,
                          size_range=(16, 48), seed=seed)
        return _write_scenes(cfg, work / "scenes.jsonl")

    def argv(self, seed, work, out):
        return ["pipeline", "--input", str(work / "scenes.jsonl"),
                "-o", str(out / "report.jsonl")]

    def _summary(self, out):
        return read_records(out / "report.jsonl")[-1]["summary"]

    def check(self, work, out):
        s = self._summary(out)
        problems = []
        gap = math.dist(s["final_student_offset"], s["analytic_optimum"])
        if not gap < 0.5:
            problems.append(f"student is {gap:.3f} px from the analytic optimum")
        if not s["final_rgb_center_error"] < s["copy_baseline_error"]:
            problems.append("label error is not below the copy baseline")
        return problems

    def quality(self, work, out):
        s = self._summary(out)
        # recall: final matched pairs whose RGB box is the true partner's
        truth = {}
        for rec in read_records(work / "scenes.jsonl"):
            for o in rec["rgb_obs"]:
                if o["corr_id"] != -1:
                    truth[(rec["scene_id"], o["corr_id"])] = [
                        o["cx"], o["cy"], o["w"], o["h"], o["theta"]]
        correct = 0
        for p in read_records(out / "report.jsonl.bags.jsonl"):
            if p["origin"] == "matched":
                correct += truth.get((p["scene_id"], p["ir_id"])) == p["rgb_box"]
        return {"pair_precision": s["matched_pair_precision"],
                "pair_recall": correct / len(truth),
                "label_error_px": s["final_rgb_center_error"],
                "copy_baseline_error_px": s["copy_baseline_error"],
                "pair_accuracy": s["pair_accuracy"]}


def _one_to_one(pairs):
    ir = [p[0] for p in pairs]
    rgb = [p[1] for p in pairs]
    return len(set(ir)) == len(ir) and len(set(rgb)) == len(rgb)


class AssignDense:
    """`crosspair match` with defaults over crowded scenes, one pass."""
    name = "assign_dense"
    default_seed = 5
    passes = ASSIGN_SCENES

    def make_input(self, seed, work):
        from crosspair.simulate import SceneConfig

        cfg = SceneConfig(count=ASSIGN_SCENES, boxes_per_scene=32,
                          canvas=(1024, 1024), shift_max=8, jitter=0.5,
                          dropout_rate=0.1, spurious_rate=1.0, seed=seed)
        return _write_scenes(cfg, work / "scenes.jsonl")

    def argv(self, seed, work, out):
        return ["match", "--input", str(work / "scenes.jsonl"),
                "-o", str(out / "pairs.jsonl")]

    def check(self, work, out):
        problems = []
        records = read_records(out / "pairs.jsonl")
        if len(records) != ASSIGN_SCENES:
            problems.append(f"{len(records)} scene records, "
                            f"expected {ASSIGN_SCENES}")
        bad = [rec["scene_id"] for rec in records
               if not _one_to_one(rec["pairs"])]
        if bad:
            problems.append(f"{len(bad)} scenes with pairs not one-to-one, "
                            f"first scene {bad[0]}")
        return problems

    def quality(self, work, out):
        with open(out / "pairs.jsonl.stats.json") as fh:
            stats = json.load(fh)
        return {"pair_precision": stats["precision"],
                "pair_recall": stats["recall"]}


WORKLOADS = {w.name: w for w in (TrainDefault(), AssignDense())}
