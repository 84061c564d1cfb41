"""Shape-aware cross-modality label matching.

Each reference (IR) ground-truth box defines a search region: the same
box scaled by beta about its own center and rotation. Unclaimed
candidates whose centers fall inside the region compete by IoU; the
highest-IoU candidate is paired and removed from the pool. Pairs require
strictly positive IoU.

The gate and the IoU depend only on the boxes, so they are computed once
into a PairTable; a caller whose candidate boxes repeat (the training loop
redraws only their scores) can build the table once and reuse it. The
tables test only the candidates near each reference box: those whose
center x lies within a reach that every candidate the gate or the IoU
could accept lies within (see _reach).
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .geometry import (EDGE_EPS, OrientedBox, box_columns, concat_columns,
                       iou, iou_rows, normalize_angle, point_in_obb)


@dataclass(frozen=True, slots=True)
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
    every candidate id the table was built from, in pool order; beta and
    gated record the gate it was built with. last is match_scene's cache:
    the reference ids, the candidate ids and the MatchResult of its last
    successful call on the table.
    """
    ranked: dict[int, tuple[tuple[int, float], ...]]
    rgb_ids: tuple[int, ...]
    beta: float
    gated: bool
    last: tuple | None = field(default=None, compare=False, repr=False)


# pair_tables builds the tables of consecutive scenes together, in chunks of
# about CHUNK_PAIRS (reference, candidate) pairs, counted as the product of
# each scene's reference and candidate counts: enough to spread numpy's
# per-call cost over many scenes, few enough to keep the arrays small. A
# chunk closes at CHUNK_SCENES scenes too, so that a stream of scenes with
# few pairs does not pile up.
CHUNK_PAIRS = 2 ** 15
CHUNK_SCENES = 64

# Relative and absolute widening of every reach, far above the rounding of
# the gate, the clipping and the window bounds, so that no pair they could
# accept falls outside its window.
REACH_SLACK = 1e-9
# A candidate whose smaller extent is below THIN times |cx| + |cy| has
# corners that rounding can merge, and clipping by it may keep a box far
# away: iou of a unit box at the origin and one at (1e16, 1e16) is 1.0.
THIN = 2.0 ** -40


class _Chunk:
    """Consecutive scenes: their reference boxes irs and candidates pools,
    sequences of BoxColumns, and the same laid out flat as ir and cands."""

    def __init__(self, irs, pools):
        self.irs, self.pools = irs, pools
        self.ir = concat_columns(self.irs)
        self.cands = concat_columns(self.pools)


def _reach(chunk: _Chunk, beta: float, gated: bool) -> np.ndarray:
    """reach[r]: how far in x from reference box r a candidate's center can
    lie and still pass the gate (gated) or have IoU > 0 with it (ungated).

    The gate takes |u| <= beta*w/2 + EDGE_EPS and |v| <= beta*h/2 + EDGE_EPS
    for (u, v), the offset (dx, dy) rotated, so |dx| <= |u| + |v|. IoU > 0
    needs the two boxes' circumcircles to overlap, so |dx| is at most the
    sum of their radii; the chunk's largest candidate stands for every
    candidate, and a THIN candidate makes it inf. Each reach is widened by
    REACH_SLACK of itself and of |cx| + |cy|, and one that is not finite is
    inf: every candidate of the scene.
    """
    ir, cands = chunk.ir.rows, chunk.cands.rows
    with np.errstate(over="ignore", invalid="ignore"):
        if gated:
            reach = beta * (ir[:, 2] + ir[:, 3]) / 2.0 + 2.0 * EDGE_EPS
        else:
            widest = np.hypot(cands[:, 2], cands[:, 3]).max(initial=0.0)
            if (np.minimum(cands[:, 2], cands[:, 3])
                    < THIN * (np.abs(cands[:, 0]) + np.abs(cands[:, 1]))).any():
                widest = np.inf
            reach = (np.hypot(ir[:, 2], ir[:, 3]) + widest) / 2.0
        reach = (reach * (1.0 + REACH_SLACK)
                 + REACH_SLACK * (np.abs(ir[:, 0]) + np.abs(ir[:, 1])))
    reach[~np.isfinite(reach)] = np.inf
    return reach


def _keys(scene: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scene + x*1j, which numpy orders by scene, then x; built by parts,
    because 1j * inf has a NaN real part."""
    keys = np.empty(len(x), dtype=complex)
    keys.real = scene
    keys.imag = x
    return keys


def _window(chunk: _Chunk, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ia, ib): every pair of a reference box and a candidate of its scene
    whose center's x lies within reach of the reference box's, as index
    arrays ia into chunk.ir and ib into chunk.cands, reference-major.

    The candidates are sorted by (scene, cx) once; two searchsorted calls
    find each reference box's window of them.
    """
    n_ir = [len(b) for b in chunk.irs]
    scene = np.arange(len(n_ir), dtype=float)
    cand_keys = _keys(np.repeat(scene, [len(p) for p in chunk.pools]),
                      chunk.cands.rows[:, 0])
    order = np.argsort(cand_keys)
    cand_keys = cand_keys[order]
    ir_scene, cx = np.repeat(scene, n_ir), chunk.ir.rows[:, 0]
    with np.errstate(over="ignore"):
        lo = np.searchsorted(cand_keys, _keys(ir_scene, cx - reach), "left")
        hi = np.searchsorted(cand_keys, _keys(ir_scene, cx + reach), "right")
    count = hi - lo
    first = np.cumsum(count) - count
    ia = np.repeat(np.arange(len(count)), count)
    ib = order[np.arange(count.sum()) + np.repeat(lo - first, count)]
    return ia, ib


def _gate(chunk: _Chunk, ia: np.ndarray, ib: np.ndarray,
          beta: float) -> np.ndarray:
    """mask[k]: the center of candidate ib[k] lies in the search region of
    reference box ia[k].

    Bit-identical to point_in_obb(center, search_region(box, beta)):
    the region's w, h and normalized theta, the same scalar
    math.cos/math.sin of that theta and the same elementwise operations,
    over all pairs at once. The operations run in place, because the pair
    arrays are the largest the table build holds.

    The region normalizes the box's theta again, which nearly always gives
    the same float; the box row holds its cosine and sine already, and only
    the others are computed.
    """
    ir = chunk.ir.rows
    if not len(ia):
        return np.zeros(0, dtype=bool)
    theta = chunk.ir.theta
    region = normalize_angle(theta)
    cos_sin = ir[:, 4:6].copy()
    moved = (region != theta) | (np.signbit(region) != np.signbit(theta))
    for k in np.flatnonzero(moved).tolist():
        t = float(region[k])
        cos_sin[k] = math.cos(t), math.sin(t)
    c, s = cos_sin[ia, 0], cos_sin[ia, 1]
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        dx = chunk.cands.rows[ib, 0]
        dx -= ir[ia, 0]
        dy = chunk.cands.rows[ib, 1]
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


def _by_iou_then_id(hit):
    return (-hit[1], hit[0])


def _chunk_tables(items, beta, gated):
    """(key, PairTable) of each (key, irs, pool) item of one chunk."""
    keys, irs, pools = zip(*items)
    chunk = _Chunk(irs, pools)
    ids = chunk.cands.ids
    # index of the first reference box whose search region is invalid
    first_bad = len(chunk.ir)
    if gated:
        with np.errstate(over="ignore"):
            w, h = beta * chunk.ir.rows[:, 2], beta * chunk.ir.rows[:, 3]
        ok = (beta > 0) & np.isfinite(w) & np.isfinite(h) & (w > 0) & (h > 0)
        if not ok.all():
            first_bad = int(np.argmin(ok))
    # the errors of pair_table, raised for the first scene that has one
    ir_end = 0
    rgb_ids = []
    for ir, pool in zip(chunk.irs, chunk.pools):
        ir_end += len(ir)
        rgb_ids.append(tuple(pool.ids))
        if len(set(pool.ids)) != len(pool):
            raise ValueError("duplicate candidate ids")
        if first_bad < ir_end:
            # raises the error the region of this box raised before
            search_region(chunk.ir.box(first_bad), beta)

    ia, ib = _window(chunk, _reach(chunk, beta, gated))
    if gated:
        mask = _gate(chunk, ia, ib, beta)
        ia, ib = ia[mask], ib[mask]
    values, scalar = iou_rows(chunk.ir.rows[ia], chunk.cands.rows[ib])
    for k in np.flatnonzero(scalar).tolist():
        values[k] = iou(chunk.ir.box(ia[k]), chunk.cands.box(ib[k]))
    hit = values > 0.0
    ia, ib, values = ia[hit], ib[hit], values[hit]
    hits = list(zip(map(ids.__getitem__, ib.tolist()), values.tolist()))
    # pairs run reference-major, so each reference's hits are contiguous
    bounds = np.searchsorted(ia, np.arange(len(chunk.ir) + 1))
    found = list(map(hits.__getitem__, map(slice, bounds[:-1].tolist(),
                                            bounds[1:].tolist())))
    for row in np.flatnonzero(np.diff(bounds) > 1).tolist():
        found[row].sort(key=_by_iou_then_id)
    found = map(tuple, found)

    # zip takes from found only as many as the scene has reference ids
    return [(key, PairTable(dict(zip(ir.ids, found)), pool_ids, beta, gated))
            for key, ir, pool_ids in zip(keys, chunk.irs, rgb_ids)]


def pair_tables(items, beta: float = 1.0, use_search_region: bool = True
                ) -> Iterator[tuple[object, PairTable]]:
    """Yield (key, PairTable) for each (key, irs, pool) item of an
    iterable, in order: the reference boxes irs, a BoxColumns, ranked
    against the candidates pool, a BoxColumns. The key is the caller's and
    is passed through. pair_table and match_scene take boxes as objects.

    Each reference box's candidates with IoU > 0 are ranked by descending
    IoU, then ascending id. With use_search_region the IoU is evaluated
    only for candidates whose center lies in the box's search region;
    without it, for all of them. The gate and the IoU of consecutive scenes
    are computed together in numpy (geometry.iou_rows), bit for bit as
    point_in_obb and iou compute them of the boxes with float fields: an
    int field counts as the float it converts to. A scene whose pool
    repeats an id, or whose search region is invalid, raises ValueError.

    The scenes go in chunks that close at CHUNK_PAIRS pairs, the products
    of each scene's reference and candidate counts added up, or at
    CHUNK_SCENES scenes. In a chunk, the candidates are sorted by (scene,
    center x) once, and each reference box's window is the run of its
    scene's candidates whose center x lies within its reach (_reach): with
    the gate beta*(w+h)/2 + 2*EDGE_EPS, without it half the sum of its
    diagonal and the chunk's longest candidate diagonal. Only the window's
    pairs are gated, and only the gated ones clipped, so the tables equal
    those of every pair tested. The items are read lazily and each chunk's
    tables come as soon as the chunk closes, so a caller that streams its
    items and drops each table holds one chunk.
    """
    chunk, pairs = [], 0
    for item in items:
        chunk.append(item)
        pairs += len(item[1]) * len(item[2])
        if pairs >= CHUNK_PAIRS or len(chunk) >= CHUNK_SCENES:
            yield from _chunk_tables(chunk, beta, use_search_region)
            chunk, pairs = [], 0
    if chunk:
        yield from _chunk_tables(chunk, beta, use_search_region)


def pair_table(ir_boxes, rgb_pool, beta: float = 1.0,
               use_search_region: bool = True) -> PairTable:
    """pair_tables of one scene given as objects: ir_boxes, (id,
    OrientedBox) pairs, and rgb_pool, candidates with a source_id and a
    box."""
    irs = box_columns([i for i, _ in ir_boxes], [b for _, b in ir_boxes])
    pool = box_columns([c.source_id for c in rgb_pool],
                       [c.box for c in rgb_pool])
    return next(pair_tables([(None, irs, pool)], beta,
                            use_search_region))[1]


def match_scene(ir_boxes, rgb_pool, beta: float = 1.0,
                use_search_region: bool = True,
                table: PairTable | None = None) -> MatchResult:
    """Greedily pair reference boxes (ascending id) with argmax-IoU candidates.

    Ties in IoU go to the lowest candidate id. With use_search_region=False
    the center-containment gate is dropped and any unclaimed overlapping
    candidate competes (plain IoU matching).

    table: a pair_table built with the same beta and gate mode from these
    reference boxes and a superset of the pool, whose candidates carry the
    same boxes; without it a one-scene table is built from the pool, with
    the numpy calls of a whole chunk: about 0.7 ms for 6 reference boxes
    and 5 candidates, against about 10 us with a table, on a shared 2-vCPU
    Xeon. Callers that match many scenes should build their tables with
    pair_tables.

    With a table the result depends only on the ids, because no box is
    read, so the table keeps its last successful call (PairTable.last): a
    call with the same beta, gate mode, reference ids and candidate ids, in
    the same order, returns that call's MatchResult object without checking
    or matching again, in about 2 us on the same scene. A call that raises
    stores nothing, so it raises again every time.
    """
    ir_ids = tuple([i for i, _ in ir_boxes])
    rgb_ids = tuple([c.source_id for c in rgb_pool])
    if table is not None and table.last is not None:
        last_ir, last_rgb, last = table.last
        if (rgb_ids == last_rgb and ir_ids == last_ir
                and (table.beta, table.gated) == (beta, use_search_region)):
            return last
    if len(set(ir_ids)) != len(ir_ids):
        raise ValueError("duplicate reference ids")
    if len(set(rgb_ids)) != len(rgb_ids):
        raise ValueError("duplicate candidate ids")
    if table is None:
        return match_ids(pair_table(ir_boxes, rgb_pool, beta,
                                    use_search_region), ir_ids, rgb_ids)
    if (table.beta, table.gated) != (beta, use_search_region):
        raise ValueError(
            f"pair table built with beta={table.beta}, gated={table.gated}; "
            f"asked for beta={beta}, gated={use_search_region}")
    for kind, ids, covered in (("candidate", rgb_ids, set(table.rgb_ids)),
                               ("reference", ir_ids, table.ranked)):
        missing = [i for i in ids if i not in covered]
        if missing:
            raise ValueError(
                f"{kind} ids not covered by the pair table: {missing}")
    result = match_ids(table, ir_ids, rgb_ids)
    object.__setattr__(table, "last", (ir_ids, rgb_ids, result))
    return result


def match_ids(table: PairTable, ir_ids, rgb_ids) -> MatchResult:
    """The greedy matching of match_scene on a pair table: each reference
    id of ir_ids, in ascending order, takes the best ranked of the
    candidate ids rgb_ids that no reference took before it. The table must
    rank every id of ir_ids, and rgb_ids must not repeat an id."""
    available = set(rgb_ids)
    ranked = table.ranked
    pairs = []
    unmatched_ir = []
    for ir_id in sorted(ir_ids):
        for rgb_id, v in ranked[ir_id]:
            if rgb_id in available:
                available.discard(rgb_id)
                pairs.append((ir_id, rgb_id, v))
                break
        else:
            unmatched_ir.append(ir_id)
    unmatched_rgb = [i for i in rgb_ids if i in available]
    return MatchResult(tuple(pairs), tuple(unmatched_ir), tuple(unmatched_rgb))
