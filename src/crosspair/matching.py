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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .geometry import (EDGE_EPS, OrientedBox, box_rows, iou, iou_rows,
                       normalize_angle, point_in_obb)


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[tuple[int, int, float], ...]  # (ir_id, rgb_id, iou)
    unmatched_ir: tuple[int, ...]
    unmatched_rgb: tuple[int, ...]

    @property
    def pair_for(self) -> dict[int, tuple[int, float]]:
        return {ir_id: (rgb_id, v) for ir_id, rgb_id, v in self.pairs}


def search_region(ir: OrientedBox, beta: float) -> OrientedBox:
    """The search region of a reference box: the box scaled by beta about
    its own center and rotation."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return OrientedBox(ir.cx, ir.cy, beta * ir.w, beta * ir.h, ir.theta)


def candidates_for(ir: OrientedBox, rgb_pool, paired, beta: float):
    """Unclaimed candidates whose centers lie in the search region (boundary
    inclusive); input order preserved. The scalar form of pair_tables' gate,
    kept as its reference."""
    region = search_region(ir, beta)
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


# pair_tables builds the tables of consecutive scenes together, in chunks of
# about this many (reference, candidate) pairs: enough to spread numpy's
# per-call cost over many scenes, few enough to keep the arrays small.
CHUNK_PAIRS = 2 ** 15


class _Chunk:
    """Consecutive scenes laid out flat: their reference boxes ir as (id,
    box) with box_rows ir_rows, their candidates cands with box_rows
    cand_rows, and every (reference, candidate) pair of a scene, scene by
    scene and reference-major, as index arrays ia into ir and ib into
    cands."""

    def __init__(self, ir_boxes_list, pools):
        self.ir = [item for ir_boxes in ir_boxes_list for item in ir_boxes]
        self.cands = [c for pool in pools for c in pool]
        self.ir_rows = box_rows([b for _, b in self.ir])
        self.cand_rows = box_rows([c.box for c in self.cands])
        n_ir = np.array([len(b) for b in ir_boxes_list], dtype=np.intp)
        n_cand = np.array([len(p) for p in pools], dtype=np.intp)
        # pairs of reference r: ib runs over its scene's candidates
        per_ir = np.repeat(n_cand, n_ir)
        first_pair = np.cumsum(per_ir) - per_ir
        first_cand = np.repeat(np.cumsum(n_cand) - n_cand, n_ir)
        self.ia = np.repeat(np.arange(len(per_ir)), per_ir)
        self.ib = (np.arange(per_ir.sum())
                   + np.repeat(first_cand - first_pair, per_ir))


def _gate(chunk: _Chunk, beta: float) -> np.ndarray:
    """mask[k]: the center of candidate chunk.ib[k] lies in the search region
    of reference box chunk.ia[k].

    Bit-identical to point_in_obb(center, search_region(box, beta)):
    the region's w, h and normalized theta, the same scalar
    math.cos/math.sin of that theta and the same elementwise operations,
    over all pairs at once. The operations run in place, because the pair
    arrays are the largest the table build holds.
    """
    ia, ib, ir = chunk.ia, chunk.ib, chunk.ir_rows
    if not len(ia):
        return np.zeros(0, dtype=bool)
    theta = [normalize_angle(b.theta) for _, b in chunk.ir]
    c = np.array([math.cos(t) for t in theta])[ia]
    s = np.array([math.sin(t) for t in theta])[ia]
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        dx = chunk.cand_rows[ib, 0]
        dx -= ir[ia, 0]
        dy = chunk.cand_rows[ib, 1]
        dy -= ir[ia, 1]
        u = c * dx
        u += s * dy             # u = c * dx + s * dy
        np.negative(s, out=s)
        s *= dx
        c *= dy
        v = s
        v += c                  # v = -s * dx + c * dy
        mask = np.abs(u, out=u) <= ((beta * ir[:, 2]) / 2.0 + EDGE_EPS)[ia]
        mask &= np.abs(v, out=v) <= ((beta * ir[:, 3]) / 2.0 + EDGE_EPS)[ia]
    return mask


def _chunks(ir_boxes_list, pools):
    """(start, stop) of consecutive scenes holding about CHUNK_PAIRS pairs."""
    start, pairs = 0, 0
    for i, (ir_boxes, pool) in enumerate(zip(ir_boxes_list, pools)):
        pairs += len(ir_boxes) * len(pool)
        if pairs >= CHUNK_PAIRS or i == len(pools) - 1:
            yield start, i + 1
            start, pairs = i + 1, 0


def _by_iou_then_id(hit):
    return (-hit[1], hit[0])


def _chunk_tables(ir_boxes_list, pools, beta, gated):
    """The PairTable of each scene of one chunk."""
    chunk = _Chunk(ir_boxes_list, pools)
    ids = [c.source_id for c in chunk.cands]
    # index of the first reference box whose search region is invalid
    first_bad = len(chunk.ir)
    if gated:
        with np.errstate(over="ignore"):
            w, h = beta * chunk.ir_rows[:, 2], beta * chunk.ir_rows[:, 3]
        ok = (beta > 0) & np.isfinite(w) & np.isfinite(h) & (w > 0) & (h > 0)
        if not ok.all():
            first_bad = int(np.argmin(ok))
    # the errors of pair_table, raised for the first scene that has one
    scene_ids = []
    ir_end = cand_end = 0
    for ir_boxes, pool in zip(ir_boxes_list, pools):
        ir_end += len(ir_boxes)
        cand_end += len(pool)
        scene_ids.append(ids[cand_end - len(pool):cand_end])
        if len(set(scene_ids[-1])) != len(pool):
            raise ValueError("duplicate candidate ids")
        if first_bad < ir_end:
            # raises the error the region of this box raised before
            search_region(chunk.ir[first_bad][1], beta)

    ia, ib = chunk.ia, chunk.ib
    if gated:
        mask = _gate(chunk, beta)
        ia, ib = ia[mask], ib[mask]
    values, scalar = iou_rows(chunk.ir_rows[ia], chunk.cand_rows[ib])
    for k in np.flatnonzero(scalar).tolist():
        values[k] = iou(chunk.ir[ia[k]][1], chunk.cands[ib[k]].box)
    hit = values > 0.0
    ia, ib, values = ia[hit], ib[hit], values[hit]
    hits = list(zip([ids[j] for j in ib.tolist()], values.tolist()))
    # pairs run reference-major, so each reference's hits are contiguous
    bounds = np.searchsorted(ia, np.arange(len(chunk.ir) + 1)).tolist()

    tables = []
    row = 0
    for ir_boxes, cand_ids in zip(ir_boxes_list, scene_ids):
        ranked = {}
        for ir_id, _ in ir_boxes:
            found = hits[bounds[row]:bounds[row + 1]]
            if len(found) > 1:
                found.sort(key=_by_iou_then_id)
            ranked[ir_id] = tuple(found)
            row += 1
        tables.append(PairTable(ranked, frozenset(cand_ids), beta, gated))
    return tables


def pair_tables(ir_boxes_list, pools, beta: float = 1.0,
                use_search_region: bool = True) -> Iterator[PairTable]:
    """Yield the PairTable of each scene, in order: the reference boxes
    ir_boxes_list[i] ranked against the candidates pools[i].

    Each reference box's candidates with IoU > 0 are ranked by descending
    IoU, then ascending id. With use_search_region the IoU is evaluated
    only for candidates whose center lies in the box's search region;
    without it, for all of them. The gate and the IoU of consecutive scenes
    are computed together in numpy (geometry.iou_rows), bit for bit as
    point_in_obb and iou compute them. A scene whose pool repeats an id, or
    whose search region is invalid, raises ValueError. The tables come a
    chunk at a time, so a caller that uses each table once and drops it
    never holds them all.
    """
    if len(ir_boxes_list) != len(pools):
        raise ValueError(f"{len(ir_boxes_list)} reference lists for "
                         f"{len(pools)} candidate pools")
    for start, stop in _chunks(ir_boxes_list, pools):
        yield from _chunk_tables(ir_boxes_list[start:stop], pools[start:stop],
                                 beta, use_search_region)


def pair_table(ir_boxes, rgb_pool, beta: float = 1.0,
               use_search_region: bool = True) -> PairTable:
    """pair_tables of one scene."""
    return next(pair_tables([ir_boxes], [rgb_pool], beta, use_search_region))


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
