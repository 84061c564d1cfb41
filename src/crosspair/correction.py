"""Dynamic label-pair bags.

Per scene, one label pair per reference (IR) ground-truth box. Matched
boxes carry the matched candidate on the RGB side; unmatched ones fall
back to a copy of the reference box. Later epochs overwrite the RGB side
whenever a fresh match appears, and leave it untouched otherwise;
keeps_label is that rule. init_bag and update_bag apply it to one scene's
LabelBag; LabelTable holds the bags of all of a run's scenes as flat
columns and applies the same rule to them, epoch after epoch, and builds
their LabelBags only when asked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import ScoredBox
from .geometry import OrientedBox, iou
from .matching import MatchResult
from .simulate import PairCenters

MATCHED = "matched"
COPIED = "copied"


@dataclass(frozen=True, slots=True)
class LabelPair:
    ir_box: OrientedBox
    rgb_box: OrientedBox
    ir_id: int
    origin: str  # MATCHED or COPIED
    last_update_epoch: int


@dataclass(frozen=True, slots=True)
class LabelBag:
    scene_id: int
    pairs: dict[int, LabelPair]  # keyed by ir_id
    epoch: int


def keeps_label(ir_box, old_rgb, new_rgb, v, improve_only: bool) -> bool:
    """Whether the MATCHED label old_rgb of the reference box ir_box stays
    when a fresh match offers the box new_rgb at IoU v.

    It stays against an equal box (two observations can have equal boxes)
    and, with improve_only, against a match whose IoU does not beat its
    own. The IoU of a match is the one it carries, which must be
    iou(reference box, candidate box), as match_scene reports it. A COPIED
    label gives way to any match.
    """
    return new_rgb == old_rgb or improve_only and v <= iou(ir_box, old_rgb)


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
    """Overwrite the RGB side of freshly matched pairs unless keeps_label
    keeps it; freeze the rest."""
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
        if old.origin == MATCHED and keeps_label(old.ir_box, old.rgb_box,
                                                 new_rgb, v, improve_only):
            continue
        pairs[ir_id] = LabelPair(old.ir_box, new_rgb, ir_id, MATCHED, epoch)
    return LabelBag(bag.scene_id, pairs, epoch)


class LabelTable:
    """The label bags of many scenes as flat columns, one entry per
    reference box, in scene order and each scene's ir_gt order.

    An entry holds the row in its scene's rgb_obs of its label (-1 while
    the label is a copy of the reference box), the epoch of its last
    update, its label's center and that center's distance from the true RGB
    center of its object (reference center plus the scene's true_offset),
    and, fixed for the run, its reference box and center and the row of its
    object's live RGB partner (-1 if dropout removed it).

    Each scene keeps its pair order, the order of init_bag's pairs: matched
    pairs in match order, then copied ones in ir_gt order. centers(),
    stats() and scores() go through the scenes in the order given and
    through each scene's entries in its pair order, so their sums add in
    the order of the pairs of bags().

    The ids of a scene's ir_gt, and those of its rgb_obs, must not repeat,
    as pair_tables requires: an id's entry and row are its position in the
    tuple of its scene's ids (tuple.index), so the table holds no dict per
    scene.
    """

    def __init__(self, scenes):
        self._scenes = list(scenes)
        self._index = {s.scene_id: k for k, s in enumerate(self._scenes)}
        self._first, self._ir_ids, self._rgb_ids = [], [], []
        ir_boxes, partner = [], []
        for scene in self._scenes:
            self._first.append(len(ir_boxes))
            ir_ids, _, rgb_ids, _ = scene.item_columns
            self._ir_ids.append(ir_ids)
            self._rgb_ids.append(rgb_ids)
            live = {corr: rgb for rgb, corr in scene.corr_map.items()}
            for i, b, _ in scene.ir_gt:
                ir_boxes.append(b)
                partner.append(rgb_ids.index(live[i]) if i in live else -1)
        self._ir_boxes, self._partner = ir_boxes, partner
        self._ir_cx = np.array([b.cx for b in ir_boxes], dtype=float)
        self._ir_cy = np.array([b.cy for b in ir_boxes], dtype=float)
        n = len(ir_boxes)
        self._label, self._updated = [-1] * n, [0] * n
        self._cx, self._cy, self._error = [0.0] * n, [0.0] * n, [0.0] * n
        self._order = [[] for _ in self._scenes]
        self._epoch = [None] * len(self._scenes)  # None: no bag yet
        self._rows = []  # the pair orders of all scenes, None when stale

    def assign(self, scene_id, matches: MatchResult, epoch: int, *,
               fresh: bool = False, improve_only: bool = False):
        """Write a match result of one scene's reference boxes against its
        rgb_obs: init_bag if fresh or the scene has no bag yet, else
        update_bag."""
        k = self._index[scene_id]
        last = self._epoch[k]
        if fresh or last is None:
            self._init(k, matches, epoch)
        elif epoch <= last:
            raise ValueError(f"epoch must increase: {epoch} <= {last}")
        else:
            self._update(k, matches, epoch, improve_only)
        self._epoch[k] = epoch

    def _update(self, k, matches, epoch, improve_only):
        first, ir_ids = self._first[k], self._ir_ids[k]
        rgb_ids, obs = self._rgb_ids[k], self._scenes[k].rgb_obs
        labels = self._label
        for ir_id, rgb_id, v in matches.pairs:
            r, new = first + ir_ids.index(ir_id), rgb_ids.index(rgb_id)
            old = labels[r]
            # a label rematched to its own row keeps its (equal) box
            if old < 0 or old != new and not keeps_label(
                    self._ir_boxes[r], obs[old].box, obs[new].box, v,
                    improve_only):
                self._write(k, r, new, epoch)

    def _init(self, k, matches, epoch):
        first, ir_ids = self._first[k], self._ir_ids[k]
        rgb_ids = self._rgb_ids[k]
        matched = {first + ir_ids.index(i): rgb_ids.index(j)
                   for i, j, _ in matches.pairs}
        entries = range(first, first + len(ir_ids))
        for r in entries:
            self._write(k, r, matched.get(r, -1), epoch)
        self._order[k] = list(matched) + [r for r in entries
                                          if r not in matched]
        self._rows = None

    def _write(self, k, r, row, epoch):
        scene, ir = self._scenes[k], self._ir_boxes[r]
        box = scene.rgb_obs[row].box if row >= 0 else ir
        dx, dy = scene.true_offset
        self._label[r] = row
        self._updated[r] = epoch
        self._cx[r], self._cy[r] = box.cx, box.cy
        self._error[r] = math.hypot(box.cx - (ir.cx + dx),
                                    box.cy - (ir.cy + dy))

    def _pair_rows(self):
        """The entries of all scenes, each scene in its pair order."""
        if self._rows is None:
            self._rows = [r for order in self._order for r in order]
        return self._rows

    def centers(self) -> PairCenters:
        """The PairCenters of the pairs of all bags, as pair_centers gives
        them for the pairs of bags()."""
        rows = np.array(self._pair_rows(), dtype=np.intp)
        return PairCenters(self._ir_cx[rows], self._ir_cy[rows],
                           np.array(self._cx, dtype=float)[rows],
                           np.array(self._cy, dtype=float)[rows])

    def stats(self, epoch: int):
        """(matched, copied, updated, rgb error) of the pairs of all bags:
        the counts of MATCHED and COPIED pairs, of MATCHED pairs written in
        epoch, and the mean distance of the pairs' labels from the true RGB
        centers of their objects, added left to right."""
        labels, written, error = self._label, self._updated, self._error
        rows = self._pair_rows()
        matched = updated = 0
        acc = 0.0
        for r in rows:
            if labels[r] >= 0:
                matched += 1
                updated += written[r] == epoch
            acc += error[r]
        n = len(rows)
        return matched, n - matched, updated, acc / n if n else 0.0

    def scores(self):
        """(matched pair precision, pair accuracy) of all bags: the share of
        MATCHED labels equal to their object's live RGB partner (None without
        one), and the share of pairs that are right, a MATCHED label equal to
        its partner or a COPIED one without a partner (0.0 without pairs)."""
        correct = matched = accurate = 0
        for scene, order in zip(self._scenes, self._order):
            obs = scene.rgb_obs
            for r in order:
                row, live = self._label[r], self._partner[r]
                if row >= 0:
                    matched += 1
                    ok = live >= 0 and obs[row].box == obs[live].box
                    correct += ok
                    accurate += ok
                else:
                    accurate += live < 0
        n = len(self._pair_rows())
        return (correct / matched if matched else None,
                accurate / n if n else 0.0)

    def bags(self) -> dict[int, LabelBag]:
        """The LabelBag of every scene that has one, by scene id."""
        out = {}
        for scene, first, order, epoch in zip(self._scenes, self._first,
                                              self._order, self._epoch):
            if epoch is None:
                continue
            pairs = {}
            for r in order:
                row, ir_box = self._label[r], self._ir_boxes[r]
                ir_id = scene.ir_gt[r - first][0]
                pairs[ir_id] = LabelPair(
                    ir_box, scene.rgb_obs[row].box if row >= 0 else ir_box,
                    ir_id, MATCHED if row >= 0 else COPIED, self._updated[r])
            out[scene.scene_id] = LabelBag(scene.scene_id, pairs, epoch)
        return out


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
