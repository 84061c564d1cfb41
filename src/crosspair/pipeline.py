"""End-to-end staged training loop over synthetic scenes.

The simulated detector stands in for the student/teacher networks: its
geometric state is a single cross-modality offset belief, updated by
exact gradient steps on the matched label pairs, with the teacher track
following by exponential moving average.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

from . import schedule as sched
# init_bag and update_bag are perfbench/tracer.py patch points of this module
from .correction import LabelBag, LabelTable, init_bag, update_bag  # noqa: F401
from .filtering import filter_batch
from .matching import match_scene, pair_tables
from .schedule import EmaState, Phase, StageConfig, loss_terms_at, stage_state
from .simulate import (NoiseRows, SimDetectorParams, detect,
                       least_squares_offset, pair_loss, rgb_proposals,
                       scene_columns, student_step)


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
    """An iterator over consecutive lists of size items of an iterable; the
    last may be shorter."""
    if size < 1:
        raise ValueError(f"batch size must be at least 1, got {size}")
    items = iter(items)
    return iter(lambda: list(islice(items, size)), [])


def filter_pools(pools):
    """Score-filter the candidate pools of one batch as a single batch.

    Returns (kept, threshold): kept[i] holds the candidates of pools[i]
    that survive one filter_batch call over all the pools, in their order.
    """
    survivors, threshold = filter_batch([c for pool in pools for c in pool])
    # survivors is a subsequence of the flat batch: one ordered walk
    # splits it by pool
    rest = iter(survivors)
    head = next(rest, None)
    kept = []
    for pool in pools:
        part = []
        for c in pool:
            if c is head:
                part.append(c)
                head = next(rest, None)
        kept.append(part)
    return kept, threshold


def _sup_loss(student, scenes, ir_noise, salt) -> float:
    """Classification cross-entropy of the reference-modality head.

    The box term of the supervised loss is identically 0, because IR
    detections echo the ground truth boxes, so it is left out. The IR
    probability rows of all scenes come from one draw of ir_noise, their
    "ir" NoiseRows, keyed by (scene_id, salt, "ir"): run_pipeline passes
    salt = epoch, and the RGB proposals of the same epoch draw other noise,
    keyed by "rgb".
    """
    acc, n = 0.0, 0
    rows = ir_noise.rows(student.confidence_noise, salt)
    for scene, scene_rows in zip(scenes, rows):
        dets = detect(student, scene, "ir", salt, rows=scene_rows)
        for d, (_, _, cls) in zip(dets, scene.ir_gt):
            acc -= math.log(max(d.class_probs[cls], 1e-12))
            n += 1
    return acc / max(n, 1)


def _rgb_detect_error(scenes) -> float:
    """Mean distance of RGB detections from their IR partners, as seen by
    the stage-1 student, whose offset belief is (0, 0)."""
    acc, n = 0.0, 0
    for scene in scenes:
        centers = {i: b.center for i, b, _ in scene.ir_gt}
        for o in scene.rgb_obs:
            if o.corr_id in centers:
                cx, cy = centers[o.corr_id]
                acc += math.hypot(o.box.cx - cx, o.box.cy - cy)
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


def _epoch_proposals(student, scenes, rgb_noise, epoch, batch_size):
    """(batch, its teacher proposals, one pool per scene in batch order)
    for each of batches(scenes, batch_size); the RGB rows of all scenes
    come from one draw of rgb_noise, their "rgb" NoiseRows, keyed by
    (scene_id, epoch, "rgb")."""
    rows = rgb_noise.rows(student.confidence_noise, epoch)
    for batch, batch_rows in zip(batches(scenes, batch_size),
                                 batches(rows, batch_size)):
        yield batch, [rgb_proposals(student, s, epoch, rows=r)
                      for s, r in zip(batch, batch_rows)]


def _assign_epoch(scenes, student, labels, tables, rgb_noise,
                  pla: PlaConfig, epoch, batch_size):
    """The PLA step of one epoch: filter, match and bag update into labels,
    the run's LabelTable.

    Each batch of _epoch_proposals is score-filtered as one batch if
    use_plf. Proposals keep the boxes of scene.rgb_obs and redraw only
    their scores, so each scene matches against tables[scene_id], its pair
    table. Without use_sdlm the pool matched is empty, so every label is a
    copy of its IR box; without use_dlc every epoch starts a fresh bag. The
    scores carry the keyed noise of _epoch_proposals, keyed by (scene_id,
    epoch, "rgb"), which neither batching nor file order changes and which
    differs from the IR noise _sup_loss draws in the same epoch.
    """
    gated = not pla.iou_match_only
    for batch, pools in _epoch_proposals(student, scenes, rgb_noise, epoch,
                                         batch_size):
        if pla.use_plf:
            pools = filter_pools(pools)[0]
        for scene, pool in zip(batch, pools):
            sid = scene.scene_id
            result = match_scene(scene.ir_boxes, pool if pla.use_sdlm else [],
                                 pla.beta, use_search_region=gated,
                                 table=tables[sid])
            labels.assign(sid, result, epoch, fresh=not pla.use_dlc,
                          improve_only=pla.dlc_improve_only)


def _train_on_bags(student, ema, labels, cfg: TrainConfig):
    """steps_per_epoch student steps on the pairs of labels, a LabelTable,
    each followed by an EMA update; returns (student, ema, the pairs'
    PairCenters)."""
    centers = labels.centers()
    for _ in range(cfg.steps_per_epoch):
        student = student_step(student, centers, cfg.learning_rate)
        ema = sched.ema_update(ema, student.as_vector())
    return student, ema, centers


def run_pipeline(scenes, stage_cfg: StageConfig, pla: PlaConfig | None = None,
                 train: TrainConfig | None = None) -> PipelineReport:
    """Train the simulated student over the staged schedule.

    Stage 1 (burn-in and mutual epochs) never moves the student: its offset
    belief, and so the EMA teacher's, stays (0, 0) until stage 2 trains it
    on the label bags. The mutual epochs' L_unsup is therefore 0, their
    RGB error is the initial student's, and skip_stage1 changes no later
    epoch. Stage 1 still makes the proposal and EMA calls of the full
    schedule, whose counts perfbench/selftest.py pins; it filters nothing.

    The pair tables (for every flag set), built from the scenes'
    SceneColumns, and the NoiseRows of both modalities change in no epoch,
    so they are built before epoch 0, the tables first, so that a table's
    ValueError comes before any noise work.
    Each epoch then draws the IR rows of all scenes once if it computes the
    supervised loss and the RGB rows once if it makes proposals.

    The label bags of all scenes live in one LabelTable, built before epoch
    0 with each reference box's true RGB center and live partner. Each
    stage-2/3 epoch writes its match results into it, trains on its
    PairCenters and reads its counts and RGB error from it; the report's
    LabelBags are built from it once, after the last epoch.
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
    ema = EmaState(student.as_vector(), train.ema_decay)
    tables = dict(pair_tables(((c.scene_id, c.ir, c.rgb)
                               for c in map(scene_columns, scenes)),
                              pla.beta, not pla.iou_match_only))
    labels = LabelTable(scenes)
    ir_noise, rgb_noise = NoiseRows(scenes, "ir"), NoiseRows(scenes, "rgb")
    stage1_rgb_err = _rgb_detect_error(scenes)
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

        if phase in (Phase.BURN_IN, Phase.MUTUAL):
            losses[sched.L_SUP] = _sup_loss(student, scenes, ir_noise, epoch)
            if phase is Phase.MUTUAL:
                for _ in _epoch_proposals(student, scenes, rgb_noise, epoch,
                                          train.batch_size):
                    pass
            for _ in range(train.steps_per_epoch):
                ema = sched.ema_update(ema, student.as_vector())
            stats = (0, 0, 0, stage1_rgb_err)

        else:  # STAGE2 / STAGE3
            _assign_epoch(scenes, student, labels, tables, rgb_noise, pla,
                          epoch, train.batch_size)
            student, ema, centers = _train_on_bags(student, ema, labels,
                                                   train)
            losses[sched.L_PAIRED] = pair_loss(student, centers)
            if phase is Phase.STAGE2:
                losses[sched.L_SUP] = _sup_loss(student, scenes, ir_noise,
                                                epoch)
                losses[sched.L_UNSUP] = losses[sched.L_PAIRED]
            stats = labels.stats(epoch)

        total = sum(terms[k] * losses.get(k, 0.0) for k in terms)
        if not math.isfinite(total):
            raise NumericError(f"non-finite loss at epoch {epoch} ({phase.value})")

        records.append(EpochRecord(
            epoch, phase.value, {k: losses.get(k, 0.0) for k in terms},
            state.lam, *stats))

    precision, accuracy = labels.scores()
    return PipelineReport(
        tuple(records),
        student.offset_estimate,
        tuple(float(v) for v in ema.teacher_params),
        least_squares_offset(labels.centers()),
        records[-1].mean_center_error_rgb,
        _copy_baseline_error(scenes),
        precision,
        accuracy,
        not train.skip_stage1,
        labels.bags(),
    )
