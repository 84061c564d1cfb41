"""End-to-end staged training loop over synthetic scenes.

The simulated detector stands in for the student/teacher networks: its
geometric state is a single cross-modality offset belief, updated by
exact gradient steps on the matched label pairs, with the teacher track
following by exponential moving average.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import schedule as sched
from .correction import COPIED, MATCHED, LabelBag, init_bag, update_bag
from .filtering import filter_batch
from .matching import PairTable, match_scene, pair_tables
from .schedule import EmaState, Phase, StageConfig, loss_terms_at, stage_state
from .simulate import (Scene, SimDetectorParams, detect, least_squares_offset,
                       pair_centers, pair_loss, perturbed_rows, rgb_proposals,
                       student_step)


@dataclass(frozen=True)
class PlaConfig:
    beta: float = 1.0
    use_plf: bool = True
    use_sdlm: bool = True
    use_dlc: bool = True
    dlc_improve_only: bool = False
    iou_match_only: bool = False


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.25
    steps_per_epoch: int = 20
    ema_decay: float = 0.9999
    batch_size: int = 16
    skip_stage1: bool = False
    skip_stage3: bool = False


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    phase: str
    loss_terms: dict[str, float]
    lam: float
    matched_count: int
    copied_count: int
    updated_count: int
    mean_center_error_rgb: float


@dataclass(frozen=True)
class PipelineReport:
    epochs: tuple[EpochRecord, ...]
    final_student_offset: tuple[float, float]
    final_teacher_offset: tuple[float, float]
    analytic_optimum: tuple[float, float]
    final_rgb_center_error: float
    copy_baseline_error: float
    matched_pair_precision: float | None
    pair_accuracy: float
    sm_branch_trained: bool
    bags: dict[int, LabelBag] = field(repr=False, default_factory=dict)

    def epoch_records(self):
        return [
            {"epoch": r.epoch, "phase": r.phase, "loss_terms": r.loss_terms,
             "lambda": r.lam, "matched_count": r.matched_count,
             "copied_count": r.copied_count, "updated_count": r.updated_count,
             "mean_center_error_rgb": r.mean_center_error_rgb}
            for r in self.epochs
        ]

    def summary(self) -> dict:
        return {
            "final_student_offset": [float(v) for v in self.final_student_offset],
            "final_teacher_offset": [float(v) for v in self.final_teacher_offset],
            "analytic_optimum": [float(v) for v in self.analytic_optimum],
            "final_rgb_center_error": self.final_rgb_center_error,
            "copy_baseline_error": self.copy_baseline_error,
            "matched_pair_precision": self.matched_pair_precision,
            "pair_accuracy": self.pair_accuracy,
            "sm_branch_trained": self.sm_branch_trained,
        }


class NumericError(RuntimeError):
    """Non-finite loss encountered during training."""


def batches(items, size):
    """Consecutive slices of items, size at a time; the last may be shorter."""
    if size < 1:
        raise ValueError(f"batch size must be at least 1, got {size}")
    return [items[i:i + size] for i in range(0, len(items), size)]


def filter_pools(pools, per_class: bool = False):
    """Score-filter the candidate pools of one batch as a single batch.

    Returns (kept, threshold): kept[i] holds the candidates of pools[i]
    that survive one filter_batch call over all the pools, in their order.
    """
    flat = [c for pool in pools for c in pool]
    survivors, threshold = filter_batch(flat, per_class=per_class)
    kept_ids = {id(c) for c in survivors}
    return [[c for c in pool if id(c) in kept_ids] for pool in pools], threshold


def _cross_entropy(pred_probs, true_class) -> float:
    p = max(pred_probs[true_class], 1e-12)
    return -math.log(p)


def _sup_loss(student, scenes, salt) -> float:
    """Classification cross-entropy of the reference-modality head.

    The box term of the supervised loss is identically 0, because IR
    detections echo the ground truth boxes, so it is left out. The IR
    probability rows of all scenes come from one perturbed_rows call, keyed
    by (scene_id, salt, "ir"): run_pipeline passes salt = epoch, and the
    RGB proposals of the same epoch draw other noise, keyed by "rgb".
    """
    acc, n = 0.0, 0
    rows = perturbed_rows(scenes, "ir", student.confidence_noise, salt)
    for scene, scene_rows in zip(scenes, rows):
        dets = detect(student, scene, "ir", salt, rows=scene_rows)
        for d, (_, _, cls) in zip(dets, scene.ir_gt):
            acc += _cross_entropy(d.class_probs, cls)
            n += 1
    return acc / max(n, 1)


def _rgb_detect_error(student, scenes) -> float:
    """Mean distance of aligned RGB detections from their IR partners."""
    acc, n = 0.0, 0
    dx, dy = student.offset_estimate
    for scene in scenes:
        centers = {i: b.center for i, b, _ in scene.ir_gt}
        for o in scene.rgb_obs:
            if o.corr_id in centers:
                cx, cy = centers[o.corr_id]
                acc += math.hypot(o.box.cx - dx - cx, o.box.cy - dy - cy)
                n += 1
    return acc / n if n else 0.0


def _bag_rgb_error(bags, scenes) -> float:
    """Mean distance of bag RGB labels from the true RGB object positions."""
    acc, n = 0.0, 0
    for scene in scenes:
        bag = bags.get(scene.scene_id)
        if bag is None:
            continue
        for ir_id, pair in bag.pairs.items():
            tx, ty = scene.true_rgb_center(ir_id)
            acc += math.hypot(pair.rgb_box.cx - tx, pair.rgb_box.cy - ty)
            n += 1
    return acc / n if n else 0.0


def _copy_baseline_error(scenes) -> float:
    """RGB label error when every label is a copy of its IR box."""
    acc, n = 0.0, 0
    for scene in scenes:
        dx, dy = scene.true_offset
        acc += math.hypot(dx, dy) * len(scene.ir_gt)
        n += len(scene.ir_gt)
    return acc / n if n else 0.0


def _filtered_proposals(student, batch, pla: PlaConfig, salt):
    """Teacher proposals of each scene of batch, in batch order, after
    batch-level score filtering; their probability rows come from one
    perturbed_rows call for the batch."""
    rows = perturbed_rows(batch, "rgb", student.confidence_noise, salt)
    pools = [rgb_proposals(student, s, salt, rows=r)
             for s, r in zip(batch, rows)]
    return filter_pools(pools)[0] if pla.use_plf else pools


def _assign_epoch(scenes, student, bags, tables: dict[int, PairTable],
                  pla: PlaConfig, epoch, batch_size):
    """Run filter + match + bag maintenance for one epoch; returns counters.

    Proposals keep the boxes of scene.rgb_obs and redraw only their scores,
    so the pair tables of all scenes are built on the first assigning epoch
    and reused from tables afterwards. The scores carry the keyed noise of
    perturbed_rows, keyed by (scene_id, epoch, "rgb"), which neither
    batching nor file order changes and which differs from the IR noise
    _sup_loss draws in the same epoch.
    """
    matched = copied = updated = 0
    gated = not pla.iou_match_only
    if pla.use_sdlm and not tables:
        tables.update(zip(
            (s.scene_id for s in scenes),
            pair_tables([s.ir_boxes for s in scenes],
                        [s.rgb_obs for s in scenes], pla.beta, gated)))
    for batch in batches(scenes, batch_size):
        proposals = _filtered_proposals(student, batch, pla, salt=epoch)
        for scene, pool in zip(batch, proposals):
            if pla.use_sdlm:
                result = match_scene(scene.ir_boxes, pool, pla.beta,
                                     use_search_region=gated,
                                     table=tables[scene.scene_id])
            else:
                result = match_scene(scene.ir_boxes, [], pla.beta)
            full_pool = scene.rgb_obs
            if not pla.use_dlc or scene.scene_id not in bags:
                bags[scene.scene_id] = init_bag(scene.scene_id, scene.ir_boxes,
                                                result, full_pool, epoch)
                updated += len(result.pairs)
            else:
                bag = bags[scene.scene_id]
                new = update_bag(bag, result, full_pool, epoch,
                                 improve_only=pla.dlc_improve_only)
                updated += sum(
                    1 for ir_id, p in new.pairs.items()
                    if p.last_update_epoch == epoch)
                bags[scene.scene_id] = new
    for bag in bags.values():
        for p in bag.pairs.values():
            if p.origin == MATCHED:
                matched += 1
            else:
                copied += 1
    return matched, copied, updated


def _train_on_bags(student, ema, bags, cfg: TrainConfig):
    """steps_per_epoch student steps on the pairs of bags, each followed by
    an EMA update; returns (student, ema, the pairs' PairCenters)."""
    centers = pair_centers([p for bag in bags.values()
                            for p in bag.pairs.values()])
    for _ in range(cfg.steps_per_epoch):
        student = student_step(student, centers, cfg.learning_rate)
        ema = sched.ema_update(ema, student.as_vector())
    return student, ema, centers


def run_pipeline(scenes, stage_cfg: StageConfig, pla: PlaConfig | None = None,
                 train: TrainConfig | None = None) -> PipelineReport:
    """Train the simulated student over the staged schedule.

    Stage 1 (burn-in and mutual epochs) never moves the student: its offset
    belief, and so the EMA teacher's, stays (0, 0) until stage 2 trains it
    on the label bags. The mutual epochs' L_unsup is therefore 0, and
    skip_stage1 changes no later epoch. Stage 1 still makes the proposal,
    filter and EMA calls of the full schedule, whose counts
    perfbench/selftest.py pins.
    """
    if not scenes:
        raise ValueError("empty scene stream")
    scenes = sorted(scenes, key=lambda s: s.scene_id)
    dup = next((a.scene_id for a, b in zip(scenes, scenes[1:])
                if a.scene_id == b.scene_id), None)
    if dup is not None:
        raise ValueError(f"duplicate scene_id {dup}")
    pla = pla or PlaConfig()
    train = train or TrainConfig()

    student = SimDetectorParams()
    ema = EmaState(student.as_vector(), train.ema_decay, 0)
    bags: dict[int, LabelBag] = {}
    tables: dict[int, PairTable] = {}
    records = []

    for epoch in range(stage_cfg.total):
        state = stage_state(epoch, stage_cfg)
        phase = state.phase
        if train.skip_stage1 and phase in (Phase.BURN_IN, Phase.MUTUAL):
            continue
        if train.skip_stage3 and phase is Phase.STAGE3:
            continue

        terms = dict(loss_terms_at(state))
        losses = {}
        matched = copied = updated = 0

        if phase in (Phase.BURN_IN, Phase.MUTUAL):
            losses[sched.L_SUP] = _sup_loss(student, scenes, epoch)
            if phase is Phase.MUTUAL:
                for batch in batches(scenes, train.batch_size):
                    _filtered_proposals(student, batch, pla, salt=epoch)
            for _ in range(train.steps_per_epoch):
                ema = sched.ema_update(ema, student.as_vector())

        else:  # STAGE2 / STAGE3
            matched, copied, updated = _assign_epoch(
                scenes, student, bags, tables, pla, epoch, train.batch_size)
            student, ema, centers = _train_on_bags(student, ema, bags, train)
            losses[sched.L_PAIRED] = pair_loss(student, centers)
            if phase is Phase.STAGE2:
                losses[sched.L_SUP] = _sup_loss(student, scenes, epoch)
                losses[sched.L_UNSUP] = losses[sched.L_PAIRED]

        total = sum(terms[k] * losses.get(k, 0.0) for k in terms)
        if not math.isfinite(total):
            raise NumericError(f"non-finite loss at epoch {epoch} ({phase.value})")

        rgb_err = (_bag_rgb_error(bags, scenes) if bags
                   else _rgb_detect_error(student, scenes))
        records.append(EpochRecord(
            epoch, phase.value, {k: losses.get(k, 0.0) for k in terms},
            state.lam if phase is Phase.MUTUAL else 1.0,
            matched, copied, updated, rgb_err))

    pairs = [p for bag in bags.values() for p in bag.pairs.values()]
    optimum = least_squares_offset(pairs)
    corr_correct = corr_total_matched = corr_total = 0
    acc_correct = 0
    scene_by_id = {s.scene_id: s for s in scenes}
    for bag in bags.values():
        scene = scene_by_id[bag.scene_id]
        live = {corr: rgb for rgb, corr in scene.corr_map.items()}
        for ir_id, p in bag.pairs.items():
            corr_total += 1
            if p.origin == MATCHED:
                corr_total_matched += 1
                true_rgb = live.get(ir_id)
                ok = (true_rgb is not None and
                      _same_box(p.rgb_box, _obs_box(scene, true_rgb)))
                corr_correct += ok
                acc_correct += ok
            else:
                acc_correct += ir_id not in live

    return PipelineReport(
        tuple(records),
        student.offset_estimate,
        tuple(float(v) for v in ema.teacher_params),
        optimum,
        _bag_rgb_error(bags, scenes),
        _copy_baseline_error(scenes),
        corr_correct / corr_total_matched if corr_total_matched else None,
        acc_correct / corr_total if corr_total else 0.0,
        not train.skip_stage1,
        bags,
    )


def _obs_box(scene: Scene, rgb_id: int):
    for o in scene.rgb_obs:
        if o.source_id == rgb_id:
            return o.box
    return None


def _same_box(a, b) -> bool:
    if b is None:
        return False
    return (a.cx, a.cy, a.w, a.h, a.theta) == (b.cx, b.cy, b.w, b.h, b.theta)
