"""The box-by-box forms of crosspair's algorithms, kept as test oracles.

The paper specifies the pseudo-label assigner one box at a time: each
reference (IR) box's search region, then the candidate of highest IoU in
it, then the label bag. The package computes the same on columns and
tables. Each form here is written once, in plain Python over the package's
objects (OrientedBox, ScoredBox, Scene, MatchResult, LabelBag), and the
tests compare the package with it, bit for bit unless a test says
otherwise:

- geometry: rotation_matrix and raster_iou_oracle, an IoU estimated by
  point sampling; box_rows and iou_batch, the object form of the IoU that
  pair_tables takes of box columns;
- matching: candidates_for, the scalar search-region gate, and
  reference_match, the greedy matcher; reference_gate_mask and
  reference_pair_table, the pair table as it was before pair_tables;
- keyed noise: reference_mix, reference_row and reference_detect, the
  detector's rows with Python ints and floats;
- label bags: replay, reference_stats and reference_scores, the bags of
  init_bag/update_bag and the counts run_pipeline took of them;
- the loop: reference_loop, run_pipeline's label assignment rebuilt from
  the package's object entries.
"""
from __future__ import annotations

import math
import sys
from contextlib import contextmanager

import numpy as np

from crosspair.correction import MATCHED, init_bag, update_bag
from crosspair.filtering import ScoredBox, batch_threshold
from crosspair.geometry import (EDGE_EPS, OrientedBox, box_columns,
                                corners_of, iou, iou_rows, point_in_obb)
from crosspair.matching import MatchResult, PairTable, match_scene, search_region
from crosspair.schedule import Phase, phase_of
from crosspair.simulate import (SimDetectorParams, pair_centers,
                                rgb_proposals, student_step)


# ---------------------------------------------------------------------------
# Geometry

def rotation_matrix(theta: float) -> np.ndarray:
    """Counterclockwise rotation matrix [[cos, -sin], [sin, cos]]."""
    if not math.isfinite(theta):
        raise ValueError(f"non-finite angle: {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def raster_iou_oracle(a: OrientedBox, b: OrientedBox,
                      resolution: int = 512) -> float:
    """IoU estimated by point sampling over the pair's bounding rectangle.

    Independent of the clipping path: membership is tested per grid point.
    """
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    pts = corners_of(a) + corners_of(b)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        return 0.0
    gx = x0 + (np.arange(resolution) + 0.5) * (x1 - x0) / resolution
    gy = y0 + (np.arange(resolution) + 0.5) * (y1 - y0) / resolution
    X, Y = np.meshgrid(gx, gy)

    def mask(box):
        c, s = math.cos(box.theta), math.sin(box.theta)
        dx, dy = X - box.cx, Y - box.cy
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (np.abs(u) <= box.w / 2.0) & (np.abs(v) <= box.h / 2.0)

    in_a = mask(a)
    in_b = mask(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def box_rows(boxes) -> np.ndarray:
    """The field_rows of boxes, OrientedBoxes."""
    return box_columns(range(len(boxes)), boxes).rows


def iou_batch(a_boxes, b_boxes) -> list[float]:
    """[iou(a, b) for a, b in zip(a_boxes, b_boxes)], bit for bit, computed
    in one vectorized pass; rows iou_rows cannot settle go to iou. The
    object form of the IoU that pair_tables takes of box columns."""
    if len(a_boxes) != len(b_boxes):
        raise ValueError(
            f"box lists differ in length: {len(a_boxes)} and {len(b_boxes)}")
    values, scalar = iou_rows(box_rows(a_boxes), box_rows(b_boxes))
    out = values.tolist()
    for k in np.flatnonzero(scalar).tolist():
        out[k] = iou(a_boxes[k], b_boxes[k])
    return out


# ---------------------------------------------------------------------------
# Matching

def sb(box, source_id):
    """A candidate of one class, scored 1."""
    return ScoredBox(box, (1.0,), source_id)


def candidates_for(ir: OrientedBox, rgb_pool, paired, beta: float):
    """Unclaimed candidates whose centers lie in the search region (boundary
    inclusive); input order preserved. The scalar form of pair_tables' gate."""
    region = search_region(ir, beta)
    return [
        c for c in rgb_pool
        if c.source_id not in paired and point_in_obb(c.center, region)
    ]


def reference_match(ir_boxes, rgb_pool, beta=1.0, use_search_region=True):
    """The greedy matching by brute force: each reference box, by ascending
    id, takes the unclaimed candidate of highest positive iou, the lowest
    id on ties, among those whose center lies in its search region (all of
    them without the gate). Repeated ids raise ValueError."""
    ir_ids = [i for i, _ in ir_boxes]
    rgb_ids = [c.source_id for c in rgb_pool]
    if len(set(ir_ids)) != len(ir_ids):
        raise ValueError("duplicate reference ids")
    if len(set(rgb_ids)) != len(rgb_ids):
        raise ValueError("duplicate candidate ids")
    claimed: set[int] = set()
    pairs, unmatched_ir = [], []
    for ir_id, box in sorted(ir_boxes, key=lambda t: t[0]):
        if use_search_region:
            cands = candidates_for(box, rgb_pool, claimed, beta)
        else:
            cands = [c for c in rgb_pool if c.source_id not in claimed]
        best = None
        for c in cands:
            v = iou(box, c.box)
            if v > 0.0 and (best is None
                            or (-v, c.source_id) < (-best[1], best[0])):
                best = (c.source_id, v)
        if best is None:
            unmatched_ir.append(ir_id)
        else:
            claimed.add(best[0])
            pairs.append((ir_id, *best))
    unmatched_rgb = [i for i in rgb_ids if i not in claimed]
    return MatchResult(tuple(pairs), tuple(unmatched_ir), tuple(unmatched_rgb))


def reference_gate_mask(ir_boxes, rgb_pool, beta: float) -> np.ndarray:
    """matching._gate_mask as it was before pair_tables, verbatim."""
    regions = [search_region(b, beta) for _, b in ir_boxes]

    def column(values):
        return np.array(values, dtype=float)[:, None]

    c = column([math.cos(r.theta) for r in regions])
    s = column([math.sin(r.theta) for r in regions])
    dx = np.array([o.box.cx for o in rgb_pool], dtype=float) - column(
        [r.cx for r in regions])
    dy = np.array([o.box.cy for o in rgb_pool], dtype=float) - column(
        [r.cy for r in regions])
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return ((np.abs(u) <= column([r.w / 2.0 + EDGE_EPS for r in regions]))
            & (np.abs(v) <= column([r.h / 2.0 + EDGE_EPS for r in regions])))


def reference_pair_table(ir_boxes, rgb_pool, beta: float = 1.0,
                         use_search_region: bool = True) -> PairTable:
    """matching.pair_table as it was before pair_tables, verbatim but for
    rgb_ids, now a tuple in pool order rather than a frozenset."""
    rgb_ids = [c.source_id for c in rgb_pool]
    if len(set(rgb_ids)) != len(rgb_ids):
        raise ValueError("duplicate candidate ids")
    if use_search_region:
        mask = reference_gate_mask(ir_boxes, rgb_pool, beta)
        gated = [np.flatnonzero(row).tolist() for row in mask]
    else:
        gated = [range(len(rgb_pool))] * len(ir_boxes)
    ranked = {}
    for (ir_id, ir_box), cols in zip(ir_boxes, gated):
        hits = []
        for j in cols:
            v = iou(ir_box, rgb_pool[j].box)
            if v > 0.0:
                hits.append((rgb_ids[j], v))
        hits.sort(key=lambda t: (-t[1], t[0]))
        ranked[ir_id] = tuple(hits)
    return PairTable(ranked, tuple(rgb_ids), beta, use_search_region)


# ---------------------------------------------------------------------------
# Keyed detector noise

U64 = (1 << 64) - 1


def reference_mix(x):
    """SplitMix64 on a Python int."""
    x = (x + 0x9E3779B97F4A7C15) & U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & U64
    return x ^ (x >> 31)


def reference_row(scene_id, salt, modality, box, probs, scale):
    """One row of perturbed_rows, with Python ints and floats, box by box."""
    if scale <= 0:
        return probs
    code = {"ir": 1, "rgb": 2}[modality]
    key = reference_mix(reference_mix(reference_mix(reference_mix(
        scene_id & U64) ^ (salt & U64)) ^ code) ^ box)
    u = [((reference_mix(key ^ j) >> 12) + 0.5) * 2.0 ** -52
         for j in range(len(probs))]
    m = min(1.0, scale * u[0])
    edges = [0.0] + sorted(u[1:]) + [1.0]
    mixed = [(1.0 - m) * p + m * (b - a)
             for p, a, b in zip(probs, edges, edges[1:])]
    total = mixed[0]
    for v in mixed[1:]:
        total += v
    if total == 0.0:
        total = 1.0
    return tuple([v / total for v in mixed])


def reference_detect(params, scene, modality, salt=0):
    """detect(params, scene, modality, salt) as a list of ScoredBoxes, each
    row of reference_row: the one-hot class of each of scene.ir_gt ("ir"),
    of scene.class_count entries, or the class_probs of each of
    scene.rgb_obs ("rgb"), their boxes moved by -params.offset_estimate.
    With offset (0, 0) this is rgb_proposals, since a translation by -0.0
    keeps every bit of a box."""
    if modality == "ir":
        items = []
        for ir_id, box, cls in scene.ir_gt:
            row = [0.0] * scene.class_count
            row[cls] = 1.0
            items.append((ir_id, box, tuple(row)))
    else:
        dx, dy = params.offset_estimate
        items = [(o.source_id, o.box.translated(-dx, -dy), o.class_probs)
                 for o in scene.rgb_obs]
    return [ScoredBox(box, reference_row(
                scene.scene_id, salt, modality, b, row,
                params.confidence_noise), source_id)
            for b, (source_id, box, row) in enumerate(items)]


# ---------------------------------------------------------------------------
# Label bags

def replay(bags, scene, matches, epoch, use_dlc, improve_only):
    """Write one scene's match result into bags, its LabelBags by scene id,
    by init_bag/update_bag: a fresh bag without use_dlc or before the
    scene's first."""
    sid = scene.scene_id
    bag = bags.get(sid) if use_dlc else None
    bags[sid] = (init_bag(sid, scene.ir_boxes, matches, scene.rgb_obs, epoch)
                 if bag is None else
                 update_bag(bag, matches, scene.rgb_obs, epoch,
                            improve_only=improve_only))


def reference_stats(bags, scenes, epoch):
    """(matched, copied, updated, rgb error) of bags, as run_pipeline
    computed them on LabelBags."""
    truth = {s.scene_id: {i: (b.cx + s.true_offset[0], b.cy + s.true_offset[1])
                          for i, b, _ in s.ir_gt} for s in scenes}
    matched = copied = updated = 0
    acc = 0.0
    for sid, bag in bags.items():
        for ir_id, p in bag.pairs.items():
            if p.origin == MATCHED:
                matched += 1
                updated += p.last_update_epoch == epoch
            else:
                copied += 1
            tx, ty = truth[sid][ir_id]
            acc += math.hypot(p.rgb_box.cx - tx, p.rgb_box.cy - ty)
    n = matched + copied
    return matched, copied, updated, acc / n if n else 0.0


def reference_scores(bags, scenes):
    """(matched pair precision, pair accuracy) of bags, as run_pipeline
    computed them on LabelBags."""
    correct = matched = accurate = total = 0
    for scene in scenes:
        live = {corr: rgb for rgb, corr in scene.corr_map.items()}
        boxes = {o.source_id: o.box for o in scene.rgb_obs}
        for ir_id, p in bags[scene.scene_id].pairs.items():
            total += 1
            partner = boxes[live[ir_id]] if ir_id in live else None
            if p.origin == MATCHED:
                matched += 1
                ok = partner is not None and p.rgb_box == partner
                correct += ok
                accurate += ok
            else:
                accurate += partner is None
    return (correct / matched if matched else None,
            accurate / total if total else 0.0)


# ---------------------------------------------------------------------------
# The loop

def reference_loop(scenes, stage_cfg, pla, train):
    """run_pipeline's label assignment, rebuilt from the object entries:
    (bags, the reference_stats of each stage-2/3 epoch by epoch, the final
    student).

    Stage 1 never moves the student and writes no label, so the loop starts
    at stage 2. Each later epoch takes the scenes in scene-id order, in
    batches of train.batch_size. A batch's candidates are the
    rgb_proposals(student, scene, epoch) of its scenes; with use_plf it
    keeps those scoring at least the batch's batch_threshold tau. Each
    scene then matches its candidates (none without use_sdlm) with
    match_scene, without a table, and replays the result into its bag.
    After the epoch's matches, the student takes train.steps_per_epoch
    student_steps on the centers of every bag's pairs.
    """
    scenes = sorted(scenes, key=lambda s: s.scene_id)
    student = SimDetectorParams()
    bags, stats = {}, {}
    size = train.batch_size
    for epoch in range(stage_cfg.total):
        phase = phase_of(epoch, stage_cfg)
        if (phase in (Phase.BURN_IN, Phase.MUTUAL)
                or train.skip_stage3 and phase is Phase.STAGE3):
            continue
        for batch in (scenes[a:a + size] for a in range(0, len(scenes), size)):
            pools = [list(rgb_proposals(student, s, epoch)) for s in batch]
            scores = [c.score for pool in pools for c in pool]
            if pla.use_plf and scores:
                tau = batch_threshold(scores).tau
                pools = [[c for c in pool if c.score >= tau] for pool in pools]
            for scene, pool in zip(batch, pools):
                result = match_scene(scene.ir_boxes,
                                     pool if pla.use_sdlm else [], pla.beta,
                                     use_search_region=not pla.iou_match_only)
                replay(bags, scene, result, epoch, pla.use_dlc,
                       pla.dlc_improve_only)
        centers = pair_centers([p for bag in bags.values()
                                for p in bag.pairs.values()])
        for _ in range(train.steps_per_epoch):
            student = student_step(student, centers, train.learning_rate)
        stats[epoch] = reference_stats(bags, scenes, epoch)
    return bags, stats, student


# ---------------------------------------------------------------------------
# Test tooling

@contextmanager
def recursion_limit(n):
    """Run the block at recursion limit n, then restore the limit.

    Hypothesis raises the recursion limit while a @given test runs, so a
    property about nesting depth (json.loads raises RecursionError near the
    default limit of 1000) would test another limit than the program meets
    and could pass where it should fail. Such a property pins the limit
    with this around the reads it compares.
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(n)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
