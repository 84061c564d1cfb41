"""Detection and correspondence evaluation: rotated-box AP, mAP, and
oracle correspondence precision/recall for simulated scenes."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import OrientedBox, iou
from .matching import MatchResult


@dataclass(frozen=True)
class PRCurve:
    points: tuple[tuple[float, float], ...]  # (recall, precision), recall ascending
    ap: float


@dataclass(frozen=True)
class CorrespondenceScore:
    precision: float | None  # None when no pairs were produced
    recall: float | None  # None when the scene has no live correspondences
    correct: int
    pair_count: int
    true_count: int


def average_precision(preds, gts, iou_thresh: float = 0.5) -> PRCurve:
    """All-point AP with greedy highest-IoU matching per prediction.

    preds: ScoredBox list; gts: list of (OrientedBox, class_id). A
    prediction claims the highest-IoU unclaimed same-class ground truth
    with IoU >= threshold (ties toward lower gt index).
    """
    if not 0.0 < iou_thresh < 1.0:
        raise ValueError(f"iou threshold must be in (0,1), got {iou_thresh}")
    n_gt = len(gts)
    if n_gt == 0:
        return PRCurve(((0.0, 1.0),), 1.0 if not preds else 0.0)
    if not preds:
        return PRCurve(((0.0, 1.0),), 0.0)

    order = sorted(range(len(preds)), key=lambda i: -preds[i].score)
    claimed = [False] * n_gt
    flags = []
    for i in order:
        p = preds[i]
        best_j, best_iou = None, iou_thresh
        for j, (gt_box, gt_cls) in enumerate(gts):
            if claimed[j] or gt_cls != p.class_id:
                continue
            v = iou(p.box, gt_box)
            if v > best_iou or (v == best_iou and best_j is None and v >= iou_thresh):
                best_j, best_iou = j, v
        if best_j is not None:
            claimed[best_j] = True
            flags.append(True)
        else:
            flags.append(False)

    points = []
    tp = 0
    for k, is_tp in enumerate(flags, start=1):
        tp += is_tp
        points.append((tp / n_gt, tp / k))

    # monotone precision envelope (running max from the right), integrated
    # over recall
    envelope = []
    best = 0.0
    for _, p in reversed(points):
        best = max(best, p)
        envelope.append(best)
    envelope.reverse()
    ap = 0.0
    prev_recall = 0.0
    for (r, _), env_here in zip(points, envelope):
        ap += (r - prev_recall) * env_here
        prev_recall = r
    return PRCurve(tuple(points), ap)


def ordered_sum(values) -> float:
    """Left-to-right float sum.

    Output files use this instead of the builtin sum(), which adds floats
    with compensation from Python 3.12 and would make their bytes depend on
    the interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def mean_ap(per_class) -> float:
    if not per_class:
        raise ValueError("no classes")
    return ordered_sum(c.ap for c in per_class) / len(per_class)


def map_at(preds, gts, iou_thresh: float = 0.5) -> float:
    """Per-class AP averaged over the classes present in the ground truth."""
    classes = sorted({c for _, c in gts})
    if not classes:
        return 1.0 if not preds else 0.0
    curves = []
    for cls in classes:
        cls_preds = [p for p in preds if p.class_id == cls]
        cls_gts = [(b, c) for b, c in gts if c == cls]
        curves.append(average_precision(cls_preds, cls_gts, iou_thresh))
    return mean_ap(curves)


def correspondence_score(result: MatchResult, scene) -> CorrespondenceScore:
    """Score matched pairs against the scene's hidden correspondence."""
    corr = scene.corr_map  # rgb id -> ir id
    correct = sum(1 for ir_id, rgb_id, _ in result.pairs
                  if corr.get(rgb_id) == ir_id)
    pair_count = len(result.pairs)
    true_count = len(corr)
    precision = correct / pair_count if pair_count else None
    recall = correct / true_count if true_count else None
    if true_count == 0 and pair_count == 0:
        recall = None
    elif true_count == 0:
        recall = None
    elif pair_count == 0:
        recall = 0.0
    return CorrespondenceScore(precision, recall, correct, pair_count, true_count)


def pooled_correspondence(scores) -> CorrespondenceScore:
    """Aggregate per-scene scores by pooling counts."""
    correct = sum(s.correct for s in scores)
    pairs = sum(s.pair_count for s in scores)
    true = sum(s.true_count for s in scores)
    return CorrespondenceScore(
        correct / pairs if pairs else None,
        correct / true if true else None,
        correct, pairs, true)
