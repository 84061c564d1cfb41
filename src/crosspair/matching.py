"""Shape-aware cross-modality label matching.

Each reference (IR) ground-truth box defines a search region: the same
box scaled by beta about its own center and rotation. Unclaimed
candidates whose centers fall inside the region compete by IoU; the
highest-IoU candidate is paired and removed from the pool. Pairs require
strictly positive IoU.

The gate and the IoU depend only on the boxes, so they are computed once
into a PairTable; a caller whose candidate boxes repeat (the training loop
redraws only their scores) can build the table once and reuse it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import ScoredBox
from .geometry import EDGE_EPS, OrientedBox, iou, point_in_obb


@dataclass(frozen=True)
class SearchRegion:
    region: OrientedBox
    source_id: int


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[tuple[int, int, float], ...]  # (ir_id, rgb_id, iou)
    unmatched_ir: tuple[int, ...]
    unmatched_rgb: tuple[int, ...]

    @property
    def pair_for(self) -> dict[int, tuple[int, float]]:
        return {ir_id: (rgb_id, v) for ir_id, rgb_id, v in self.pairs}


def search_region(ir: OrientedBox, beta: float, source_id: int = -1) -> SearchRegion:
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    region = OrientedBox(ir.cx, ir.cy, beta * ir.w, beta * ir.h, ir.theta)
    return SearchRegion(region, source_id)


def candidates_for(ir: OrientedBox, rgb_pool, paired, beta: float):
    """Unclaimed candidates whose centers lie in the search region (boundary
    inclusive); input order preserved. The scalar form of pair_table's gate,
    kept as its reference."""
    region = search_region(ir, beta).region
    return [
        c for c in rgb_pool
        if c.source_id not in paired and point_in_obb(c.center, region)
    ]


@dataclass(frozen=True)
class PairTable:
    """Positive-IoU candidates of each reference box, best first.

    ranked[ir_id] holds (rgb_id, iou) for every candidate that passes the
    gate with IoU > 0, by descending IoU, then ascending id. rgb_ids is
    every candidate id the table was built from; beta and gated record the
    gate it was built with.
    """
    ranked: dict[int, tuple[tuple[int, float], ...]]
    rgb_ids: frozenset[int]
    beta: float
    gated: bool


def _gate_mask(ir_boxes, rgb_pool, beta: float) -> np.ndarray:
    """mask[i, j]: the center of candidate j lies in the search region of
    reference box i.

    Bit-identical to point_in_obb(center, search_region(box, beta).region):
    the same scalar math.cos/math.sin of the region's theta and the same
    elementwise operations in the same order, over all centers at once.
    """
    regions = [search_region(b, beta).region for _, b in ir_boxes]

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


def pair_table(ir_boxes, rgb_pool, beta: float = 1.0,
               use_search_region: bool = True) -> PairTable:
    """Rank the candidates of every reference box by rotated IoU.

    With use_search_region the IoU is evaluated only for candidates whose
    center lies in the box's search region; without it, for all of them.
    """
    rgb_ids = [c.source_id for c in rgb_pool]
    if len(set(rgb_ids)) != len(rgb_ids):
        raise ValueError("duplicate candidate ids")
    if use_search_region:
        mask = _gate_mask(ir_boxes, rgb_pool, beta)
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
    return PairTable(ranked, frozenset(rgb_ids), beta, use_search_region)


def match_scene(ir_boxes, rgb_pool, beta: float = 1.0,
                use_search_region: bool = True,
                table: PairTable | None = None) -> MatchResult:
    """Greedily pair reference boxes (ascending id) with argmax-IoU candidates.

    Ties in IoU go to the lowest candidate id. With use_search_region=False
    the center-containment gate is dropped and any unclaimed overlapping
    candidate competes (plain IoU matching).

    table: a pair_table built with the same beta and gate mode from these
    reference boxes and a superset of the pool, whose candidates carry the
    same boxes; without it one is built from the pool.
    """
    ir_ids = [i for i, _ in ir_boxes]
    rgb_ids = [c.source_id for c in rgb_pool]
    if len(set(ir_ids)) != len(ir_ids):
        raise ValueError("duplicate reference ids")
    if len(set(rgb_ids)) != len(rgb_ids):
        raise ValueError("duplicate candidate ids")
    if table is None:
        table = pair_table(ir_boxes, rgb_pool, beta, use_search_region)
    else:
        if (table.beta, table.gated) != (beta, use_search_region):
            raise ValueError(
                f"pair table built with beta={table.beta}, gated={table.gated}; "
                f"asked for beta={beta}, gated={use_search_region}")
        for kind, ids, covered in (("candidate", rgb_ids, table.rgb_ids),
                                   ("reference", ir_ids, table.ranked)):
            missing = [i for i in ids if i not in covered]
            if missing:
                raise ValueError(
                    f"{kind} ids not covered by the pair table: {missing}")

    available = set(rgb_ids)
    pairs = []
    unmatched_ir = []
    for ir_id in sorted(ir_ids):
        for rgb_id, v in table.ranked[ir_id]:
            if rgb_id in available:
                available.discard(rgb_id)
                pairs.append((ir_id, rgb_id, v))
                break
        else:
            unmatched_ir.append(ir_id)
    unmatched_rgb = [i for i in rgb_ids if i in available]
    return MatchResult(tuple(pairs), tuple(unmatched_ir), tuple(unmatched_rgb))
