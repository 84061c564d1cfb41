"""Dynamic label-pair bags.

Per scene, one label pair per reference (IR) ground-truth box. Matched
boxes carry the matched candidate on the RGB side; unmatched ones fall
back to a copy of the reference box. Later epochs overwrite the RGB side
whenever a fresh match appears, and leave it untouched otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

from .filtering import ScoredBox
from .geometry import OrientedBox, iou
from .matching import MatchResult

MATCHED = "matched"
COPIED = "copied"


@dataclass(frozen=True)
class LabelPair:
    ir_box: OrientedBox
    rgb_box: OrientedBox
    ir_id: int
    origin: str  # MATCHED or COPIED
    last_update_epoch: int


@dataclass(frozen=True)
class LabelBag:
    scene_id: int
    pairs: dict[int, LabelPair]  # keyed by ir_id
    epoch: int


def _pool_index(rgb_pool) -> dict[int, ScoredBox]:
    return {c.source_id: c for c in rgb_pool}


def init_bag(scene_id, ir_gt, matches: MatchResult, rgb_pool,
             epoch: int = 0) -> LabelBag:
    """Matched pairs plus copied fallbacks, one pair per reference box."""
    pool = _pool_index(rgb_pool)
    ir_index = dict(ir_gt)
    pairs = {}
    for ir_id, rgb_id, _ in matches.pairs:
        if ir_id not in ir_index:
            raise ValueError(f"match references unknown ir id {ir_id}")
        if rgb_id not in pool:
            raise ValueError(f"match references unknown rgb id {rgb_id}")
        pairs[ir_id] = LabelPair(ir_index[ir_id], pool[rgb_id].box, ir_id,
                                 MATCHED, epoch)
    for ir_id, box in ir_gt:
        if ir_id not in pairs:
            pairs[ir_id] = LabelPair(box, box, ir_id, COPIED, epoch)
    return LabelBag(scene_id, pairs, epoch)


def update_bag(bag: LabelBag, new_matches: MatchResult, rgb_pool,
               epoch: int, improve_only: bool = False) -> LabelBag:
    """Overwrite the RGB side of freshly matched pairs; freeze the rest.

    With improve_only a rematch replaces a MATCHED label only when its IoU
    against the reference box beats the incumbent's; a COPIED label gives
    way to any match. The IoU of a match is the one it carries, which must
    be iou(reference box, candidate box), as match_scene reports it.
    """
    if epoch <= bag.epoch:
        raise ValueError(f"epoch must increase: {epoch} <= {bag.epoch}")
    pool = _pool_index(rgb_pool)
    pairs = dict(bag.pairs)
    for ir_id, rgb_id, v in new_matches.pairs:
        if ir_id not in pairs:
            raise ValueError(f"match references unknown ir id {ir_id}")
        if rgb_id not in pool:
            raise ValueError(f"match references unknown rgb id {rgb_id}")
        old = pairs[ir_id]
        new_rgb = pool[rgb_id].box
        if old.origin == MATCHED and (
                new_rgb == old.rgb_box
                or improve_only and v <= iou(old.ir_box, old.rgb_box)):
            continue
        pairs[ir_id] = LabelPair(old.ir_box, new_rgb, ir_id, MATCHED, epoch)
    return LabelBag(bag.scene_id, pairs, epoch)


def bag_records(bag: LabelBag):
    """Serializable record per pair, in ascending ir_id order."""
    out = []
    for ir_id in sorted(bag.pairs):
        p = bag.pairs[ir_id]
        out.append({
            "scene_id": bag.scene_id,
            "ir_id": ir_id,
            "epoch": bag.epoch,
            "origin": p.origin,
            "ir_box": [p.ir_box.cx, p.ir_box.cy, p.ir_box.w, p.ir_box.h, p.ir_box.theta],
            "rgb_box": [p.rgb_box.cx, p.rgb_box.cy, p.rgb_box.w, p.rgb_box.h, p.rgb_box.theta],
            "last_update_epoch": p.last_update_epoch,
        })
    return out
