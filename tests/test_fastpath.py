"""Property tests of the fast paths against the code they replaced.

The batched rotated IoU, the pair tables with their vectorized gate, the
keyed detector noise, the IR detector's one-hot table and the pair-center
column sums must give the same results bit for bit as the scalar loops
and numpy forms of reference.py and the references kept here.
"""
import json
import math
import os
import random
import tempfile
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosspair import cli
from crosspair.cli import EXIT_OK, run
from crosspair.correction import LabelPair
from crosspair.filtering import ScoredBox, filter_batch
from crosspair import matching
from crosspair.geometry import (EDGE_EPS, FieldError, OrientedBox,
                                box_columns, corners_of, intersect_polygon,
                                iou, iou_rows, point_in_obb)
from crosspair.matching import (_Chunk, _gate, _reach, _window, match_scene,
                                pair_table, pair_tables, search_region)
from crosspair.metrics import ordered_sum
from crosspair.records import file_digest
from crosspair.simulate import (ObservedBox, Scene, SceneConfig,
                                SimDetectorParams, detect, generate_scenes,
                                least_squares_offset, pair_centers,
                                pair_gradient, pair_loss, perturbed_rows,
                                scene_columns, scene_to_record,
                                scenes_from_records, student_step)
from reference import (box_rows, iou_batch, reference_detect, reference_match,
                       reference_pair_table, reference_row)


# Boxes on a coarse grid put centers exactly on region boundaries and give
# identical candidates (IoU ties); float boxes cover the general case.
grid_box = st.builds(
    OrientedBox,
    st.integers(0, 24).map(float), st.integers(0, 24).map(float),
    st.integers(2, 12).map(float), st.integers(2, 12).map(float),
    st.sampled_from([0.0, math.pi / 2, math.pi / 4, -0.7, 1.2]))
float_box = st.builds(
    OrientedBox,
    st.floats(0, 60), st.floats(0, 60), st.floats(3, 25), st.floats(3, 25),
    st.floats(-1.6, 1.6))
box = st.one_of(grid_box, float_box)


@st.composite
def scenes(draw):
    """(ir_boxes, candidates, pool): unique ids in shuffled order, and a
    random subset of the candidates as the pool."""
    ir = draw(st.lists(box, max_size=6))
    ir_ids = draw(st.permutations(range(len(ir))))
    cands = draw(st.lists(st.one_of(box, st.sampled_from(ir) if ir else box),
                          max_size=9))
    rgb_ids = draw(st.lists(st.integers(0, 40), min_size=len(cands),
                            max_size=len(cands), unique=True))
    candidates = [ScoredBox(b, (1.0,), j) for b, j in zip(cands, rgb_ids)]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates),
                         max_size=len(candidates)))
    pool = [c for c, k in zip(candidates, keep) if k]
    return list(zip(ir_ids, ir)), candidates, pool


# the ends of the angle range, where the remainder of the normalization
# rounds, and the same a turn of pi either way (some sums coincide)
EDGE_THETAS = sorted({t + k for t in (math.nextafter(-math.pi / 2, -4),
                                      -math.pi / 2,
                                      math.nextafter(math.pi / 2, 0))
                      for k in (0.0, math.pi, -math.pi)})


class TestMatcher:
    @settings(max_examples=300, deadline=None)
    @given(scenes(), st.sampled_from([0.5, 1.0, 2.0]), st.booleans())
    def test_equals_reference_with_and_without_table(self, scene, beta, gated):
        ir, candidates, pool = scene
        want = reference_match(ir, pool, beta, gated)
        assert match_scene(ir, pool, beta, gated) == want
        table = pair_table(ir, candidates, beta, gated)
        assert match_scene(ir, pool, beta, gated, table=table) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(box, max_size=5), st.lists(box, max_size=8),
           st.sampled_from([0.5, 1.0, 2.0]))
    def test_gate_equals_point_in_obb(self, irs, cands, beta):
        # the corners of every search region sit on its boundary up to
        # rounding, where only the containment slack decides
        corners = [OrientedBox(x, y, 1.0, 1.0, 0.0) for b in irs
                   for x, y in corners_of(search_region(b, beta))]
        pool = [ScoredBox(b, (1.0,), j) for j, b in enumerate(cands + corners)]
        chunk = object_chunk([list(enumerate(irs))], [pool])
        ia, ib = _window(chunk, _reach(chunk, beta, True))
        window = list(zip(ia.tolist(), ib.tolist()))
        inside = {(i, j): point_in_obb(c.center, search_region(b, beta))
                  for i, b in enumerate(irs) for j, c in enumerate(pool)}
        assert len(set(window)) == len(window)
        assert ia.tolist() == sorted(ia.tolist())
        assert _gate(chunk, ia, ib, beta).tolist() == [inside[k]
                                                       for k in window]
        assert not any(inside[k] for k in inside.keys() - set(window))

    @pytest.mark.parametrize("theta", EDGE_THETAS, ids=float.hex)
    def test_gate_takes_the_theta_of_the_region(self, theta):
        # each of these normalizes to -pi/2. Were one to normalize to pi/2
        # and its region to -pi/2, the box row's sine would differ in sign
        # from the region's, which moves centres on its edge in or out
        box = OrientedBox(0.0, 0.0, 10.0, 20.0, theta)
        assert search_region(box, 1.0).theta.hex() == box.theta.hex()
        edge = 5.0 + EDGE_EPS
        pool = [ScoredBox(OrientedBox(dx, dy, 1.0, 1.0, 0.0), (1.0,), j)
                for j, (dx, dy) in enumerate(
                    (dx, dy) for dx in (0.0, 8.0, 10.0)
                    for dy in (edge, -edge, math.nextafter(edge, 0.0)))]
        chunk = object_chunk([[(0, box)]], [pool])
        ia = np.zeros(len(pool), dtype=np.intp)
        ib = np.arange(len(pool))
        want = [point_in_obb(c.center, search_region(box, 1.0)) for c in pool]
        assert _gate(chunk, ia, ib, 1.0).tolist() == want
        assert want[3:6] == [True, False, True]

    def test_table_ranks_by_iou_then_id(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        same = OrientedBox(1, 0, 10, 10, 0)
        pool = [ScoredBox(same, (1.0,), 9), ScoredBox(same, (1.0,), 4),
                ScoredBox(OrientedBox(0, 0, 10, 10, 0), (1.0,), 7),
                ScoredBox(OrientedBox(40, 0, 10, 10, 0), (1.0,), 1)]
        ranked = pair_table(ir, pool, 1.0, True).ranked[0]
        assert [j for j, _ in ranked] == [7, 4, 9]
        assert ranked[0][1] == 1.0 and ranked[1][1] == ranked[2][1]

    def test_pool_id_outside_table_rejected(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        a = ScoredBox(OrientedBox(1, 0, 10, 10, 0), (1.0,), 1)
        b = ScoredBox(OrientedBox(2, 0, 10, 10, 0), (1.0,), 2)
        table = pair_table(ir, [a], 1.0, True)
        with pytest.raises(ValueError, match="not covered"):
            match_scene(ir, [a, b], 1.0, table=table)
        with pytest.raises(ValueError, match="not covered"):
            match_scene(ir + [(1, a.box)], [a], 1.0, table=table)

    def test_table_gate_must_match_call(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        pool = [ScoredBox(OrientedBox(1, 0, 10, 10, 0), (1.0,), 1)]
        table = pair_table(ir, pool, 1.0, True)
        with pytest.raises(ValueError, match="beta"):
            match_scene(ir, pool, 2.0, table=table)
        with pytest.raises(ValueError, match="beta"):
            match_scene(ir, pool, 1.0, use_search_region=False, table=table)

    def test_duplicate_candidate_ids_rejected(self):
        b = OrientedBox(0, 0, 4, 4, 0)
        with pytest.raises(ValueError, match="duplicate"):
            pair_table([(0, b)], [ScoredBox(b, (1.0,), 3)] * 2)


def _fields(b):
    return [float(v).hex() for v in (b.cx, b.cy, b.w, b.h, b.theta)]


class TestBoxColumns:
    @pytest.mark.parametrize("theta", EDGE_THETAS + [0.3, -0.0, 7.0],
                             ids=float.hex)
    def test_box_is_the_box_of_its_fields(self, theta):
        boxes = [OrientedBox(1.5, -2.0, 3.0, 4.0, theta),
                 OrientedBox(7, 8, 1, 2, theta + 3 * math.pi)]
        columns = box_columns([5, 9], boxes)
        for k, b in enumerate(boxes):
            assert _fields(columns.box(k)) == _fields(b)
        records = [scene_to_record(s) for s in generate_scenes(
            SceneConfig(count=2, boxes_per_scene=3, spurious_rate=0.5,
                        seed=1))]
        for rec in records:
            for k, g in enumerate(rec["ir_gt"] + rec["rgb_obs"]):
                g["theta"] = theta + k * math.pi
        scenes = scenes_from_records(records)
        assert scenes is not None
        for rec, s in zip(records, scenes):
            for items, cols in ((rec["ir_gt"], s.ir), (rec["rgb_obs"], s.rgb)):
                assert len(cols) == len(items)
                for k, g in enumerate(items):
                    want = OrientedBox(*(float(g[f]) for f in
                                         ("cx", "cy", "w", "h", "theta")))
                    assert _fields(cols.box(k)) == _fields(want)


def object_columns(scene):
    """The BoxColumns that pair_tables reads of a scene (ir_boxes, pool)
    given as objects: (id, OrientedBox) pairs and candidates with a
    source_id and a box."""
    ir, pool = scene
    return (box_columns([i for i, _ in ir], [b for _, b in ir]),
            box_columns([c.source_id for c in pool], [c.box for c in pool]))


def object_chunk(ir_list, pools):
    """The _Chunk of scenes given as objects."""
    scenes = [object_columns(scene) for scene in zip(ir_list, pools)]
    return _Chunk([ir for ir, _ in scenes], [pool for _, pool in scenes])


def _table_bits(table):
    return ({i: [(j, v.hex()) for j, v in hits]
             for i, hits in table.ranked.items()},
            table.rgb_ids, table.beta, table.gated)


ANGLES = [0.0, math.pi / 4, -math.pi / 2, math.pi / 2 - 1e-12]
extent = st.floats(1e-3, 1e4)
angle = st.one_of(st.sampled_from(ANGLES), st.floats(-1.6, 1.6))
any_box = st.builds(OrientedBox, st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
                    extent, extent, angle)


@st.composite
def related_pair(draw):
    """(a, b): b identical to a, sharing an edge with it, touching a corner
    at +-1e-10, nested in it, overlapping it, or unrelated."""
    a = draw(any_box)
    kind = draw(st.sampled_from(
        ["same", "edge", "corner", "nested", "overlap", "free"]))
    if kind == "same":
        return a, OrientedBox(a.cx, a.cy, a.w, a.h, a.theta)
    c, s = math.cos(a.theta), math.sin(a.theta)
    if kind in ("edge", "corner"):
        # neighbour along the box's own axes, one width over
        gap = draw(st.sampled_from([0.0, 1e-10, -1e-10]))
        du = a.w + gap
        dv = a.h + gap if kind == "corner" else 0.0
        return a, OrientedBox(a.cx + c * du - s * dv, a.cy + s * du + c * dv,
                              a.w, a.h, a.theta)
    if kind == "nested":
        f = draw(st.floats(0.01, 1.0))
        return a, OrientedBox(a.cx, a.cy, a.w * f, a.h * f,
                              a.theta + draw(st.sampled_from([0.0, 1e-12])))
    if kind == "overlap":
        fu, fv = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
        return a, OrientedBox(a.cx + fu * a.w, a.cy + fv * a.h,
                              a.w * draw(st.floats(0.2, 5)),
                              a.h * draw(st.floats(0.2, 5)), draw(angle))
    return a, draw(any_box)


class TestIouBatch:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(related_pair(), max_size=40), st.booleans())
    def test_equals_scalar_bit_for_bit(self, pairs, swap):
        a = [p[1 if swap else 0] for p in pairs]
        b = [p[0 if swap else 1] for p in pairs]
        got = iou_batch(a, b)
        # hex tells 0.0 from -0.0 and every last bit
        assert [v.hex() for v in got] == [iou(x, y).hex()
                                          for x, y in zip(a, b)]
        assert all(type(v) is float for v in got)

    def test_fallback_rows_match_scalar(self):
        # a shared edge and an inscribed diamond clip to repeated vertices,
        # which only the scalar _merge_close may drop; a plain overlap does not
        a = OrientedBox(0.0, 0.0, 4.0, 2.0, 0.0)
        side = 2.0 * math.sqrt(2.0)
        b = [OrientedBox(0.0, 2.0, 4.0, 2.0, 0.0),
             OrientedBox(0.0, 1.0, 2.0, 2.0, math.pi / 4),
             OrientedBox(0.0, 0.0, side, side, math.pi / 4),
             OrientedBox(0.5, 0.5, 1.0, 1.0, 0.3)]
        _, scalar = iou_rows(box_rows([a] * 4), box_rows(b))
        assert scalar.tolist() == [True, True, True, False]
        assert [v.hex() for v in iou_batch([a] * 4, b)] == [
            iou(a, y).hex() for y in b]

    def test_rows_of_mixed_width_in_one_call(self):
        # one call clips rows to nothing (out through each of the four
        # edges), to an octagon, to repeated vertices the scalar path must
        # settle, and to plain overlaps, each row's polygon laid out in the
        # width of the widest
        a = OrientedBox(0.0, 0.0, 4.0, 2.0, 0.0)
        square = OrientedBox(0.0, 0.0, 2.0, 2.0, 0.0)
        side = 2.0 * math.sqrt(2.0)
        pairs = [(a, OrientedBox(0.0, y, 1.0, 1.0, 0.0)) for y in (9.0, -9.0)]
        pairs += [(a, OrientedBox(x, 0.0, 1.0, 1.0, 0.0)) for x in (9.0, -9.0)]
        pairs += [(square, OrientedBox(0.0, 0.0, 2.0, 2.0, math.pi / 4)),
                  (square, OrientedBox(0.1, -0.2, 2.1, 1.9, math.pi / 4)),
                  (a, OrientedBox(0.0, 2.0, 4.0, 2.0, 0.0)),
                  (a, OrientedBox(0.0, 0.0, side, side, math.pi / 4)),
                  (a, OrientedBox(0.5, 0.5, 1.0, 1.0, 0.3)),
                  (a, OrientedBox(1.5, -0.5, 3.0, 2.5, -0.4))]
        a_boxes, b_boxes = zip(*pairs)
        widths = [len(intersect_polygon(x, y)) for x, y in pairs]
        assert widths[:4] == [0] * 4 and widths[4:6] == [8, 8]
        values, scalar = iou_rows(box_rows(a_boxes), box_rows(b_boxes))
        assert scalar.tolist() == [False] * 6 + [True, True, False, False]
        for k, (x, y) in enumerate(pairs):
            one, one_scalar = iou_rows(box_rows([x]), box_rows([y]))
            assert one_scalar.tolist() == [scalar[k]]
            if not scalar[k]:
                assert values[k].hex() == one[0].hex() == iou(x, y).hex()
        assert [v.hex() for v in iou_batch(a_boxes, b_boxes)] == [
            iou(x, y).hex() for x, y in pairs]

    def test_empty_and_unequal_lengths(self):
        assert iou_batch([], []) == []
        box = OrientedBox(0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="differ in length"):
            iou_batch([box], [])


@st.composite
def scene_batches(draw):
    """(ir_boxes_list, pools) of 0-6 scenes; scenes may have no reference
    boxes or no candidates, and ids repeat across scenes."""
    ir_list, pools = [], []
    for _ in range(draw(st.integers(0, 6))):
        ir, _, pool = draw(scenes())
        ir_list.append(ir)
        pools.append(pool)
    return ir_list, pools


class TestPairTables:
    @settings(max_examples=200, deadline=None)
    @given(scene_batches(), st.sampled_from([0.5, 1.0, 2.5]), st.booleans(),
           st.sampled_from([1, 20, 2 ** 15]), st.sampled_from([1, 3, 64]))
    def test_equals_reference_per_scene(self, batch, beta, gated, chunk,
                                        chunk_scenes):
        ir_list, pools = batch
        want = [_table_bits(reference_pair_table(ir, pool, beta, gated))
                for ir, pool in zip(ir_list, pools)]
        # small chunks put chunk boundaries between and after scenes
        with mock.patch.object(matching, "CHUNK_PAIRS", chunk), \
                mock.patch.object(matching, "CHUNK_SCENES", chunk_scenes):
            got = [(key, _table_bits(t)) for key, t in pair_tables(
                ((k, *object_columns(scene)) for k, scene
                 in enumerate(zip(ir_list, pools))), beta, gated)]
        assert got == list(enumerate(want))

    def test_scenes_without_pairs_come_in_bounded_chunks(self, monkeypatch):
        sizes = []
        chunk_tables = matching._chunk_tables

        def spy(items, beta, gated):
            sizes.append(len(items))
            return chunk_tables(items, beta, gated)

        monkeypatch.setattr(matching, "_chunk_tables", spy)
        items = [(k, *object_columns(([(0, self.BOX)], [])))
                 for k in range(200)]
        got = [key for key, _ in pair_tables(iter(items))]
        assert got == list(range(200))
        assert sum(sizes) == 200
        assert max(sizes) <= matching.CHUNK_SCENES

    def test_reads_its_items_lazily(self):
        def items():
            for k in range(matching.CHUNK_SCENES + 1):
                yield k, *object_columns(self.OK)
            raise RuntimeError("read past the first chunk")

        tables = pair_tables(items())
        got = [key for key, _ in islice(tables, matching.CHUNK_SCENES)]
        assert got == list(range(matching.CHUNK_SCENES))
        with pytest.raises(RuntimeError, match="read past the first chunk"):
            next(tables)

    @staticmethod
    def _error(fn):
        try:
            fn()
        except ValueError as exc:
            return type(exc), str(exc)
        return None

    BOX = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
    BIG = OrientedBox(0.0, 0.0, 1e300, 4.0, 0.0)
    OK = ([(0, BOX)], [ScoredBox(BOX, (1.0,), 1)])
    DUP = ([(0, BOX)], [ScoredBox(BOX, (1.0,), 2)] * 2)
    NO_IR = ([], [ScoredBox(BOX, (1.0,), 1)])
    OVERFLOW = ([(0, BOX), (1, BIG)], [ScoredBox(BOX, (1.0,), 1)])
    BOTH = ([(0, BIG)], [ScoredBox(BOX, (1.0,), 2)] * 2)

    @pytest.mark.parametrize("beta", [1.0, 0.0, -1.0, 1e10, math.nan])
    @pytest.mark.parametrize("gated", [True, False])
    @pytest.mark.parametrize("scenes_", [
        [OK, DUP], [OK, OVERFLOW], [NO_IR, OK], [NO_IR, OVERFLOW, DUP],
        [OK, DUP, OVERFLOW], [NO_IR], [NO_IR, BOTH]])
    def test_errors_equal_reference(self, scenes_, gated, beta):
        ir_list = [ir for ir, _ in scenes_]
        pools = [pool for _, pool in scenes_]

        def reference():
            for ir, pool in zip(ir_list, pools):
                reference_pair_table(ir, pool, beta, gated)

        want = self._error(reference)
        got = self._error(lambda: list(pair_tables(
            ((k, *object_columns(scene)) for k, scene in enumerate(scenes_)),
            beta, gated)))
        assert got == want

    def test_errors_name_the_fault(self):
        def tables(scene, beta, gated=True):
            return list(pair_tables([(0, *object_columns(scene))], beta,
                                    gated))

        with pytest.raises(ValueError, match="beta must be positive"):
            tables(self.OK, 0.0)
        with pytest.raises(FieldError, match="non-finite w: inf"):
            tables(self.OVERFLOW, 1e10)
        with pytest.raises(ValueError, match="duplicate candidate ids"):
            tables(self.DUP, 1.0, gated=False)
        assert tables(self.OVERFLOW, 1e10, gated=False)


small_scene_configs = st.builds(
    SceneConfig, count=st.integers(1, 4), boxes_per_scene=st.integers(0, 6),
    dropout_rate=st.sampled_from([0.0, 0.3, 1.0]),
    spurious_rate=st.sampled_from([0.0, 0.5, 1.0]),
    jitter=st.sampled_from([0.0, 0.5, 3.0]),
    offset_override=st.one_of(st.none(), st.tuples(st.floats(-20.0, 20.0),
                                                   st.floats(-20.0, 20.0))),
    seed=st.integers(0, 2 ** 16))


class TestMatchStream:
    """cli._matches, the filter, table and match stream of match and
    sweep-shift, at batch size 1 on each scene's scene_columns equals the
    object loop: filter_batch of the scene's observations alone, then
    match_scene on the survivors."""

    @settings(max_examples=150, deadline=None)
    @given(small_scene_configs, st.sampled_from([0.5, 1.0, 1.5, 2.5]))
    def test_equals_object_loop(self, cfg, beta):
        scenes = generate_scenes(cfg)
        want = [match_scene(s.ir_boxes, filter_batch(s.rgb_obs)[0], beta)
                for s in scenes]
        got = list(cli._matches(map(scene_columns, scenes), beta, True, True,
                                1))
        assert [s.scene_id for s, _ in got] == [s.scene_id for s in scenes]
        assert [result for _, result in got] == want


# rotated boxes around a center up to 1e12 from the origin; extents of 1e8
# overflow beta*(w+h) at beta=1e300 and extents of 1e308 the ungated reach
far_extent = st.one_of(st.floats(0.5, 30.0), st.sampled_from([1e6, 1e8, 1e308]))


@st.composite
def far_scenes(draw):
    """(ir_list, pools, beta): 1-3 scenes of boxes near a center up to 1e12
    from the origin; the candidates are boxes of their own, copies of the
    reference boxes and small boxes on the corners of the search regions."""
    beta = draw(st.sampled_from([0.5, 1.0, 2.5, 1e300]))
    scale = draw(st.sampled_from([1.0, 1e6, 1e9, 1e12]))
    ir_list, pools = [], []
    for _ in range(draw(st.integers(1, 3))):
        x0, y0 = draw(st.floats(-scale, scale)), draw(st.floats(-scale, scale))

        def near():
            return OrientedBox(x0 + draw(st.floats(-80.0, 80.0)),
                               y0 + draw(st.floats(-80.0, 80.0)),
                               draw(far_extent), draw(far_extent), draw(angle))

        irs = [near() for _ in range(draw(st.integers(0, 4)))]
        cands = [near() for _ in range(draw(st.integers(0, 6)))]
        cands += draw(st.lists(st.sampled_from(irs), max_size=2)) if irs else []
        for b in irs:
            if math.isfinite(beta * b.w) and math.isfinite(beta * b.h):
                cands += [OrientedBox(x, y, 1.0, 1.0, 0.0) for x, y in
                          corners_of(search_region(b, beta))]
        ir_list.append(list(enumerate(irs)))
        pools.append([ScoredBox(b, (1.0,), j) for j, b in enumerate(cands)])
    return ir_list, pools, beta


class TestWindow:
    """The window of each reference box keeps every candidate that the gate
    (gated) or the IoU (ungated) could accept."""

    @staticmethod
    def _every_pair(ir_list, pools):
        """(a, b, ir box, candidate) of every pair of a scene, with a and b
        the indexes _window gives them."""
        a = b = 0
        for ir, pool in zip(ir_list, pools):
            for i, (_, ir_box) in enumerate(ir):
                for j, c in enumerate(pool):
                    yield a + i, b + j, ir_box, c
            a += len(ir)
            b += len(pool)

    @settings(max_examples=300, deadline=None)
    @given(far_scenes())
    def test_keeps_every_gated_pair(self, scenes_):
        ir_list, pools, beta = scenes_
        chunk = object_chunk(ir_list, pools)
        ia, ib = _window(chunk, _reach(chunk, beta, True))
        window = set(zip(ia.tolist(), ib.tolist()))
        for a, b, ir_box, c in self._every_pair(ir_list, pools):
            try:
                region = search_region(ir_box, beta)
            except FieldError:  # pair_tables raises before its window
                continue
            if point_in_obb(c.center, region):
                assert (a, b) in window

    @settings(max_examples=300, deadline=None)
    @given(far_scenes())
    def test_keeps_every_overlapping_pair(self, scenes_):
        ir_list, pools, _ = scenes_
        chunk = object_chunk(ir_list, pools)
        ia, ib = _window(chunk, _reach(chunk, 1.0, False))
        window = set(zip(ia.tolist(), ib.tolist()))
        for a, b, ir_box, c in self._every_pair(ir_list, pools):
            if iou(ir_box, c.box) > 0.0:
                assert (a, b) in window

    def test_thin_candidate_reaches_every_reference(self):
        # rounding merges the far box's corners, and iou calls it a match
        ir = [(0, OrientedBox(0.0, 0.0, 1.0, 1.0, 0.0))]
        pool = [ScoredBox(OrientedBox(1e16, 1e16, 1.0, 1.0, 0.0), (1.0,), 1)]
        want = _table_bits(reference_pair_table(ir, pool, 1.0, False))
        assert want[0] == {0: [(1, (1.0).hex())]}
        assert _table_bits(pair_table(ir, pool, 1.0, False)) == want

    def test_pairs_stay_within_their_scene(self):
        box = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
        ir_list = [[(0, box)], [], [(0, box), (1, box)]]
        pools = [[ScoredBox(box, (1.0,), 5)], [ScoredBox(box, (1.0,), 6)],
                 [ScoredBox(box, (1.0,), 7)]]
        chunk = object_chunk(ir_list, pools)
        ia, ib = _window(chunk, np.full(3, np.inf))
        assert list(zip(ia.tolist(), ib.tolist())) == [(0, 0), (1, 2), (2, 2)]


# int fields up to 1e9: a box's area passes 2**53, beyond which int and
# float arithmetic part, when both extents pass 1e8 (odd ones, so that the
# product has more than 53 significant bits)
big_int = st.integers(-10 ** 9, 10 ** 9)
int_extent = st.one_of(st.integers(2, 10 ** 9),
                       st.integers(10 ** 8, 10 ** 9).map(lambda v: v | 1))


@st.composite
def int_scenes(draw):
    """(ir, cands): 1-3 reference and 0-5 candidate boxes as (cx, cy, w, h,
    theta) tuples of ints; a candidate is a box of its own or a reference
    box one unit narrower or shorter, whose edges nearly coincide with the
    reference's. Such pairs often clip to nearly repeated vertices, which
    iou_rows leaves to the scalar iou."""
    def int_box():
        return (draw(big_int), draw(big_int), draw(int_extent),
                draw(int_extent), draw(st.integers(-3, 3)))

    ir = [int_box() for _ in range(draw(st.integers(1, 3)))]
    cands = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            cands.append(int_box())
        else:
            near = list(draw(st.sampled_from(ir)))
            near[draw(st.sampled_from([2, 3]))] -= 1
            cands.append(tuple(near))
    return ir, cands


class TestIntFields:
    """A pair table reads a box's fields as floats: the tables of boxes with
    int fields are those of the same boxes with float fields, bit for bit,
    from objects through box_columns and from a record file alike."""

    @staticmethod
    def _objects(ir, cands, kind):
        return ([(i, OrientedBox(*map(kind, b))) for i, b in enumerate(ir)],
                [ScoredBox(OrientedBox(*map(kind, b)), (1.0,), j)
                 for j, b in enumerate(cands)])

    @staticmethod
    def _file_columns(ir, cands, kind):
        fields = ("cx", "cy", "w", "h", "theta")
        rec = {"scene_id": 0, "canvas": [640, 480], "true_offset": [0, 0],
               "ir_gt": [{"id": i, **dict(zip(fields, map(kind, b))),
                          "class": 0} for i, b in enumerate(ir)],
               "rgb_obs": [{"id": j, **dict(zip(fields, map(kind, b))),
                            "class_probs": [1.0], "corr_id": -1}
                           for j, b in enumerate(cands)]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.jsonl")
            with open(path, "w") as f:
                f.write(json.dumps(rec) + "\n")
            [scene] = cli._scenes(path, columns=True)
        return scene

    @settings(max_examples=200, deadline=None)
    @given(int_scenes(), st.sampled_from([1.0, 2.5]), st.booleans())
    def test_tables_of_int_fields_are_those_of_floats(self, scene, beta,
                                                      gated):
        ir, cands = scene
        items = [(kind, *object_columns(self._objects(ir, cands, kind)))
                 for kind in (int, float)]
        columns = [self._file_columns(ir, cands, kind) for kind in (int, float)]
        for cols in (c for sc in columns for c in (sc.ir, sc.rgb)):
            for b in map(cols.box, range(len(cols))):
                assert all(type(v) is float
                           for v in (b.cx, b.cy, b.w, b.h, b.theta))
        items += [(kind, sc.ir, sc.rgb)
                  for kind, sc in zip(("file int", "file float"), columns)]
        tables = [_table_bits(t) for _, t in pair_tables(items, beta, gated)]
        assert tables[1:] == tables[:1] * 3


def _bits(values):
    return [float(v).hex() for v in values]


class TestKeyedNoise:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.integers(-2**70, 2**70), st.integers(0, 5)),
        st.integers(1, 9).flatmap(lambda k: st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
            max_size=4))), max_size=5),
        st.sampled_from([1e-320, 0.05, 0.1, 0.7, 3.0, math.inf, math.nan]),
        st.integers(-2**65, 2**65), st.sampled_from(["ir", "rgb"]))
    def test_equals_scalar_reference(self, spec, scale, salt, modality):
        scenes_ = []
        box = OrientedBox(0.0, 0.0, 2.0, 2.0, 0.0)
        for scene_id, rows in spec:
            # rows of one length per scene, scaled to sum to at most 1
            rows = [tuple(p / max(1.0, ordered_sum(r)) for p in r)
                    for r in rows]
            obs = tuple(ObservedBox(box, r, j) for j, r in enumerate(rows))
            # ir classes below the class count, the length of rows[0]
            ir = tuple((j, box, j % len(rows[0])) for j in range(len(rows)))
            scenes_.append(Scene(scene_id, (64, 64), (0.0, 0.0), ir, obs))
        got = perturbed_rows(scenes_, modality, scale, salt)
        for scene, want_rows, got_rows in zip(scenes_, [
                [d.class_probs for d in detect(
                    SimDetectorParams(confidence_noise=0.0), s, modality)]
                for s in scenes_], got):
            want = [reference_row(scene.scene_id, salt, modality, b, r, scale)
                    for b, r in enumerate(want_rows)]
            rows, scores = got_rows
            assert rows.dtype == scores.dtype == np.float64
            assert [_bits(r) for r in rows] == [_bits(r) for r in want]
            assert scores.tolist() == [max(r) for r in want]

    def test_zero_scale_returns_input_rows(self):
        scenes_ = generate_scenes(SceneConfig(count=3, spurious_rate=0.3,
                                              seed=2))
        for scale in (0.0, -1.0):
            got = perturbed_rows(scenes_, "rgb", scale, 5)
            assert all(_bits(r) == _bits(o.class_probs)
                       for s, (rows, _) in zip(scenes_, got)
                       for o, r in zip(s.rgb_obs, rows))


class TestDetectIr:
    # one-hot tables of two sizes
    @pytest.mark.parametrize("classes", [5, 9])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_equals_eye_reference(self, noise, classes):
        cfg = SceneConfig(count=8, boxes_per_scene=6, dropout_rate=0.2,
                          spurious_rate=0.2, class_count=classes, seed=3)
        params = SimDetectorParams((1.5, -2.0), noise)
        for scene in generate_scenes(cfg):
            for salt in (0, 7):
                got = detect(params, scene, "ir", salt)
                want = reference_detect(params, scene, "ir", salt)
                assert [(d.source_id, d.box, _bits(d.class_probs))
                        for d in got] == [(d.source_id, d.box,
                                           _bits(d.class_probs))
                                          for d in want]

    def test_class_out_of_range_raises(self):
        scene = generate_scenes(SceneConfig(count=1, boxes_per_scene=2,
                                            class_count=3))[0]
        ir_id, box, _ = scene.ir_gt[0]
        bad = Scene(scene.scene_id, scene.canvas, scene.true_offset,
                    ((ir_id, box, 3),), scene.rgb_obs)
        with pytest.raises(IndexError):
            detect(SimDetectorParams(), bad, "ir")


class TestOrderedSums:
    """Sums that reach output files add left to right on every interpreter;
    with compensated summation these terms would total 1.0, not 0.0."""
    TERMS = [1e16, 1.0, -1e16]

    def test_ordered_sum(self):
        assert ordered_sum(self.TERMS) == 0.0
        assert ordered_sum(iter(self.TERMS)) == 0.0
        assert ordered_sum([]) == 0.0

    def test_offsets(self):
        ir = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
        pairs = [LabelPair(ir, OrientedBox(t, t, 4.0, 4.0, 0.0), 0, "matched", 0)
                 for t in self.TERMS]
        centers = pair_centers(pairs)
        assert least_squares_offset(centers) == (0.0, 0.0)
        assert pair_gradient(SimDetectorParams(), centers) == (0.0, 0.0)


def reference_pair_loss(params, pairs):
    """pair_loss as it was before the center columns, verbatim."""
    if not pairs:
        return 0.0
    dx, dy = params.offset_estimate
    acc = 0.0
    for p in pairs:
        ex = p.ir_box.cx + dx - p.rgb_box.cx
        ey = p.ir_box.cy + dy - p.rgb_box.cy
        acc += ex * ex + ey * ey
    return acc / len(pairs)


def reference_pair_gradient(params, pairs):
    """pair_gradient as it was before the center columns, verbatim."""
    if not pairs:
        return (0.0, 0.0)
    dx, dy = params.offset_estimate
    gx = ordered_sum(p.ir_box.cx + dx - p.rgb_box.cx for p in pairs)
    gy = ordered_sum(p.ir_box.cy + dy - p.rgb_box.cy for p in pairs)
    n = len(pairs)
    return (2.0 * gx / n, 2.0 * gy / n)


def reference_least_squares_offset(pairs):
    """least_squares_offset as it was before the center columns, verbatim."""
    if not pairs:
        return (0.0, 0.0)
    mx = ordered_sum(p.rgb_box.cx - p.ir_box.cx for p in pairs) / len(pairs)
    my = ordered_sum(p.rgb_box.cy - p.ir_box.cy for p in pairs) / len(pairs)
    return (mx, my)


# signed zeros, integers (records keep them) and far-apart magnitudes, so
# that the order of the additions shows in the last bits
coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16, 0.1]),
                       st.integers(-50, 50), st.floats(-1e6, 1e6),
                       st.floats(-1e-300, 1e-300))


@st.composite
def label_pairs(draw):
    pairs = []
    for i in range(draw(st.integers(0, 40))):
        ir = OrientedBox(draw(coordinate), draw(coordinate), 4.0, 4.0, 0.0)
        rgb = OrientedBox(draw(coordinate), draw(coordinate), 4.0, 4.0, 0.0)
        pairs.append(LabelPair(ir, rgb, i, "matched", 0))
    return pairs


class TestPairColumns:
    @settings(max_examples=300, deadline=None)
    @given(label_pairs(), st.tuples(coordinate, coordinate))
    def test_equal_per_pair_sums_bit_for_bit(self, pairs, offset):
        params = SimDetectorParams((float(offset[0]), float(offset[1])))
        centers = pair_centers(pairs)
        assert len(centers) == len(pairs)
        assert _bits([pair_loss(params, centers)]) == _bits(
            [reference_pair_loss(params, pairs)])
        gx, gy = reference_pair_gradient(params, pairs)
        assert _bits(pair_gradient(params, centers)) == _bits((gx, gy))
        assert _bits(least_squares_offset(centers)) == _bits(
            reference_least_squares_offset(pairs))
        stepped = student_step(params, centers, 0.25)
        dx, dy = params.offset_estimate
        assert _bits(stepped.offset_estimate) == _bits(
            (dx - 0.25 * gx, dy - 0.25 * gy))

    def test_all_negative_zero_terms_sum_to_positive_zero(self):
        ir = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
        pairs = [LabelPair(ir, OrientedBox(-0.0, -0.0, 4.0, 4.0, 0.0), 0,
                           "matched", 0)] * 3
        # each term is -0.0 - 0.0 = -0.0; ordered_sum starts from 0.0
        assert _bits(least_squares_offset(pair_centers(pairs))) == [
            (0.0).hex()] * 2
        assert _bits(reference_least_squares_offset(pairs)) == [
            (0.0).hex()] * 2

    def test_overflow_gives_inf_without_a_warning(self):
        ir = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
        pairs = pair_centers([LabelPair(ir, ir, 0, "matched", 0)] * 2)
        # RuntimeWarnings are errors in this suite
        assert pair_loss(SimDetectorParams((1e200, 0.0)), pairs) == math.inf
        assert pair_gradient(SimDetectorParams((1e308, 0.0)),
                             pairs)[0] == math.inf

    def test_empty(self):
        assert len(pair_centers([])) == 0
        assert pair_loss(SimDetectorParams(), pair_centers([])) == 0.0
        params = SimDetectorParams((1.0, 2.0))
        assert student_step(params, pair_centers([]), 0.1) is params


# Digests of `simulate` + `pipeline` outputs (report, csv, bags) recorded
# with the keyed detector noise of perturbed_rows and without the
# mean_center_error_ir column (Python 3.11, numpy 2.4, x86-64 Linux). Any
# change to them is a change to an output byte.
SIMULATE = ["simulate", "--scenes", "20", "--boxes", "6", "--shift-max", "10",
            "--jitter", "0.5", "--dropout", "0.1", "--spurious", "0.2",
            "--seed", "11"]
SCHEDULE = ["--k1", "2", "--k2", "2", "--k3", "3", "--k4", "3"]
RECORDED = [
    ([], ("14674942a3422cce7d25d516852c0f4db30213faa8cf92e8f9dd68403ae99ca8",
          "5376555e276d23b75c8f8b332e02980d02f5b359fed445a3830e207b1dea1ae5",
          "3906239236d548b0338ea17337b87952bf46a389fab2e64970e11872b3583303")),
    (["--iou-match-only", "--beta", "1.5", "--batch-size", "5"],
     ("2d17755b211d4cfedcc4f99ec7fe4c13689c6d0c401ae1ef8d6509121cf0c552",
      "b196d9c0c66aca9bcad0cc73d8c560d743a36bdc0f6ff810468090df21758062",
      "3de5f970addc00dcc8381e655f7b5c412f96c9d5b8ef4ff60839f02b0fa8c3de")),
    # recorded before run_pipeline built its pair tables and truth index
    # ahead of the epoch loop: no stage-1 rows
    (["--skip-stage1"],
     ("e20dfb52d825cb35bdfc0a831397de9fd4beb6db89550e6b010c5ce665c7a85e",
      "e83dbaf214c394874be5a9c45bbe09cfedeaaaf76c985686de4e9531389076f4",
      "3906239236d548b0338ea17337b87952bf46a389fab2e64970e11872b3583303")),
    # every label copied: the pair tables are built, the pool matched is empty
    (["--no-sdlm"],
     ("e96dde6be843552fd5771379ef6cf53920b40ced17dd4b883c705465c8ab7120",
      "15c00de254be23117063d71e5bd55b175d631a240c4ce3bfd851097bf6d206bf",
      "fe90625e15e2ecd4e17336e1138666ebaff982636ed9b403ea1a8cdae6f2f9ff")),
    # bags re-initialised every epoch, the run ends in stage 2
    (["--no-dlc", "--skip-stage3"],
     ("ee42f6894f712d23fae2ae4897fdff8c88fca56771d7bf8f01e86fbd6d7cc1ef",
      "52e56cc9cd8e1216b4c0d081e8657381aa377cb718d1200ad910b3dfd4bbe649",
      "a819e33d2afef446ceffdccffa0729fb51b6b597e31f34fdff219b7d9bc3339e")),
    # on this input improve-only never keeps an older label, so the digests
    # are those of the default flags
    (["--dlc-improve-only"],
     ("14674942a3422cce7d25d516852c0f4db30213faa8cf92e8f9dd68403ae99ca8",
      "5376555e276d23b75c8f8b332e02980d02f5b359fed445a3830e207b1dea1ae5",
      "3906239236d548b0338ea17337b87952bf46a389fab2e64970e11872b3583303")),
]


# Digests of `match` and `filter` outputs (primary file, then the stats file
# for match) recorded with the per-command batch filtering that
# pipeline.filter_pools replaces.
RECORDED_FILTERED = [
    (["match"],
     ("a143168da1285bebf92c5b702d35719b2a42b6e77be0a793a20d0a949faf4bee",
      "2ce9104d9719563aea9e64b7d6255681354ec383fca964ecd722fad0b272d789")),
    (["match", "--no-plf", "--batch-size", "7"],
     ("554b9a1cd15aeca3b5b2e9ebba5c74ae2ffbf69996a1b9b18e62a214b2afa2ff",
      "2ce9104d9719563aea9e64b7d6255681354ec383fca964ecd722fad0b272d789")),
    (["filter", "--per-class", "--batch-size", "5"],
     ("507a88c1a74882e38c0432ae78619de67035b81d323011c39d198481133338c2",)),
    # recorded with the per-scene pair tables that pair_tables replaces
    (["match", "--iou-match-only", "--beta", "1.5", "--batch-size", "3"],
     ("1a54dba431d3f783f9fefc216e0fe8e5e159baa4988f65821ffad2d58e62d10d",
      "0fd57f136bf136e969fd3173246a98cb42232313281233b352d54a8f7eab55f0")),
    (["sweep-shift", "--min", "-6", "--max", "6", "--step", "6", "--scenes",
      "4", "--boxes", "5", "--beta", "1.5", "--jitter", "0.5", "--seed", "3"],
     ("cc5cfba0b8d0d10ab46052921611860347f6950a584c46f6abd06a16bfbf6089",)),
]


@pytest.mark.parametrize("argv,digests", RECORDED_FILTERED)
def test_filtered_outputs_unchanged(tmp_path, argv, digests):
    scenes = tmp_path / "s.jsonl"
    out = tmp_path / "o.jsonl"
    assert run(SIMULATE + ["-o", str(scenes)]) == EXIT_OK
    if argv[0] != "sweep-shift":  # the sweep generates its own scenes
        argv = argv + ["--input", str(scenes)]
    assert run(argv + ["-o", str(out)]) == EXIT_OK
    suffixes = ("", ".stats.json")[:len(digests)]
    assert tuple(file_digest(str(out) + s) for s in suffixes) == digests


# As many spurious observations as objects, on a smaller canvas: the first
# input found where --dlc-improve-only keeps an older label, so its bags
# differ from those of --iou-match-only alone (digests recorded with the
# per-scene LabelBags that correction.LabelTable replaces).
SIMULATE_CROWDED = SIMULATE + ["--spurious", "1.0", "--canvas", "320", "320"]
RECORDED_CROWDED = [
    (["--iou-match-only", "--dlc-improve-only"],
     ("76e6e9f9afe0e80ad327c0935f937468be9b7e9b3fb6e339839997becdbf559c",
      "173b94319b85810663061bc4d698d032ada5df9e4a8bb49fd8a3321b3c6bdcb3",
      "32f4c3e402183243bf2da1e66f8ee87b9b3c0d73cbf60e4f4bffc9712c796838")),
    (["--iou-match-only"],
     ("9a33e06f5a7404aaac6792ecbbc3ddd9d142cc1eb534e63af3f8edf24b16b95b",
      "8b9efa97c47147049f8f03377d5527ca9a50ac330dea860f5d1952d6bbbb421b",
      "a8fbbfa8c60285ee21e9fc87ec6404ebbf38c21f16158748d4a6c8fe2af7c223")),
]


def _pipeline_digests(tmp_path, simulate, flags):
    scenes = tmp_path / "s.jsonl"
    out = tmp_path / "r.jsonl"
    assert run(simulate + ["-o", str(scenes)]) == EXIT_OK
    assert run(["pipeline", "--input", str(scenes)] + SCHEDULE + flags
               + ["-o", str(out)]) == EXIT_OK
    return tuple(file_digest(str(out) + suffix)
                 for suffix in ("", ".csv", ".bags.jsonl"))


@pytest.mark.parametrize("flags,digests", RECORDED)
def test_pipeline_outputs_unchanged(tmp_path, flags, digests):
    assert _pipeline_digests(tmp_path, SIMULATE, flags) == digests


@pytest.mark.parametrize("flags,digests", RECORDED_CROWDED)
def test_crowded_pipeline_outputs_unchanged(tmp_path, flags, digests):
    assert _pipeline_digests(tmp_path, SIMULATE_CROWDED, flags) == digests


@pytest.fixture(scope="module")
def recorded_lines(tmp_path_factory):
    """The lines of the SIMULATE scenes, and the lines match --batch-size 1
    writes of them."""
    tmp = tmp_path_factory.mktemp("recorded")
    scenes, out = tmp / "s.jsonl", tmp / "pairs.jsonl"
    assert run(SIMULATE + ["-o", str(scenes)]) == EXIT_OK
    assert run(["match", "--input", str(scenes), "--batch-size", "1",
                "-o", str(out)]) == EXIT_OK
    return (scenes.read_text().splitlines(keepends=True),
            out.read_text().splitlines())


SIMULATED_SCENES = int(SIMULATE[SIMULATE.index("--scenes") + 1])
# the record order of the fixed shuffle these properties replace
FIXED_SHUFFLE = list(range(SIMULATED_SCENES))
random.Random(5).shuffle(FIXED_SHUFFLE)


def _reordered(lines, order, tmp):
    path = os.path.join(tmp, "shuffled.jsonl")
    with open(path, "w") as fh:
        fh.writelines(lines[k] for k in order)
    return path


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(SIMULATED_SCENES)))
@example(order=FIXED_SHUFFLE)
def test_pipeline_outputs_ignore_record_order(recorded_lines, order):
    lines, _ = recorded_lines
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.jsonl")
        assert run(["pipeline", "--input", _reordered(lines, order, tmp)]
                   + SCHEDULE + ["-o", out]) == EXIT_OK
        assert tuple(file_digest(out + suffix) for suffix in (
            "", ".csv", ".bags.jsonl")) == RECORDED[0][1]


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(SIMULATED_SCENES)))
@example(order=FIXED_SHUFFLE)
def test_scene_at_a_time_match_ignores_record_order(recorded_lines, order):
    lines, original = recorded_lines
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "pairs.jsonl")
        assert run(["match", "--input", _reordered(lines, order, tmp),
                    "--batch-size", "1", "-o", out]) == EXIT_OK
        with open(out) as fh:
            assert sorted(fh.read().splitlines()) == sorted(original)


def _mixed_input(tmp_path):
    """Scenes of 3 and of 5 classes in turn, from two simulate runs, with
    the scene ids renumbered; scene 2, of 3 classes, is stripped of its RGB
    observations, so its IR rows take 5 classes. The noise rows of both
    modalities then hold several class-count groups."""
    runs = []
    for classes in ("3", "5"):
        part = tmp_path / f"c{classes}.jsonl"
        assert run(SIMULATE + ["--scenes", "9", "--classes", classes,
                               "--confidence-noise", "0.45",
                               "-o", str(part)]) == EXIT_OK
        runs.append(part.read_text().splitlines())
    mixed = tmp_path / "s.jsonl"
    with open(mixed, "w") as fh:
        for i, line in enumerate(a for pair in zip(*runs) for a in pair):
            rec = json.loads(line)
            rec["scene_id"] = i
            if i == 2:
                rec["rgb_obs"] = []
            fh.write(json.dumps(rec) + "\n")
    return mixed


# Digests of `pipeline` on _mixed_input (report, csv, bags), recorded with
# the per-scene lists of tuples that NoiseRows drew before its rows became
# arrays.
RECORDED_MIXED = [
    ([], ("e0b2887c1e9efeb5b2c356b14db329fba63a38c062551febe66e4948dfec86c0",
          "b6cd71762414c3b79b14f4b10e6f14ed4483571f284377ab3f6966f1f7a828f7",
          "984f3b6728a377ca4b00c5f68f2eb56b122dfd8fa0b5c35a75b1e79a9448cd16")),
    (["--no-plf", "--batch-size", "7"],
     ("bda88e36dbaccebd1af10b0a1616aac8d6096bf847150f196ce4d859a719eb63",
      "4c8e561421cad7ef094c6265a3b0b9883d1d20eee4f2401b79cfaa0c274877c6",
      "54ac6f61581e58881aa4d3fecab215ef68e6982f7987aa0bb60ccc8e136bb7aa")),
]


@pytest.mark.parametrize("flags,digests", RECORDED_MIXED)
def test_mixed_class_pipeline_outputs_unchanged(tmp_path, flags, digests):
    scenes = _mixed_input(tmp_path)
    out = tmp_path / "r.jsonl"
    assert run(["pipeline", "--input", str(scenes)] + SCHEDULE + flags
               + ["-o", str(out)]) == EXIT_OK
    assert tuple(file_digest(str(out) + suffix)
                 for suffix in ("", ".csv", ".bags.jsonl")) == digests


def _refuse(*args, **kwargs):
    raise AssertionError("a ScoredBox was built")


# the scores, ids and rows the training loop reads are columns: run_pipeline
# builds no ScoredBox, with or without the score filter and the match
@pytest.mark.parametrize("mixed,flags,digests", [
    (False, [], RECORDED[0][1]),
    (True, ["--no-plf", "--batch-size", "7"], RECORDED_MIXED[1][1]),
    (False, ["--no-sdlm"], RECORDED[3][1]),
])
def test_pipeline_builds_no_scored_box(tmp_path, monkeypatch, mixed, flags,
                                       digests):
    if mixed:
        scenes = _mixed_input(tmp_path)
    else:
        scenes = tmp_path / "s.jsonl"
        assert run(SIMULATE + ["-o", str(scenes)]) == EXIT_OK
    monkeypatch.setattr(ScoredBox, "__init__", _refuse)
    out = tmp_path / "r.jsonl"
    assert run(["pipeline", "--input", str(scenes)] + SCHEDULE + flags
               + ["-o", str(out)]) == EXIT_OK
    assert tuple(file_digest(str(out) + suffix)
                 for suffix in ("", ".csv", ".bags.jsonl")) == digests


def test_sweep_shift_still_builds_scored_boxes(tmp_path, monkeypatch):
    built = []
    init = ScoredBox.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ScoredBox, "__init__", counted)
    argv, digests = RECORDED_FILTERED[-1]
    assert argv[0] == "sweep-shift"
    out = tmp_path / "sweep.csv"
    assert run(argv + ["-o", str(out)]) == EXIT_OK
    assert file_digest(str(out)) == digests[0]
    assert built
