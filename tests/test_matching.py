import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair.filtering import ScoredBox
from crosspair.geometry import (OrientedBox, box_columns, corners_of, iou,
                                point_in_obb)
from crosspair.matching import (MatchResult, candidates_for, match_ids,
                                match_scene, pair_tables, search_region)


def sb(box, source_id):
    return ScoredBox(box, (1.0,), source_id)


class TestSearchRegion:
    def test_identity_scaling(self):
        r = search_region(OrientedBox(0, 0, 2, 2, 0), 1.0)
        assert set(corners_of(r)) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}

    def test_uniform_scaling(self):
        r = search_region(OrientedBox(0, 0, 2, 2, 0), 2.0)
        assert set(corners_of(r)) == {(2, 2), (-2, 2), (-2, -2), (2, -2)}

    def test_copies_center_and_angle(self):
        b = OrientedBox(3, 7, 4, 2, 0.6)
        r = search_region(b, 1.5)
        assert (r.cx, r.cy, r.theta) == (b.cx, b.cy, b.theta)
        assert (r.w, r.h) == (6.0, 3.0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            search_region(OrientedBox(0, 0, 1, 1, 0), 0.0)


class TestCandidatesFor:
    def test_center_candidate_included(self):
        ir = OrientedBox(0, 0, 4, 4, 0)
        c = sb(OrientedBox(0, 0, 4, 4, 0), 1)
        assert candidates_for(ir, [c], set(), 1.0) == [c]

    def test_far_candidate_excluded(self):
        ir = OrientedBox(0, 0, 4, 4, 0)
        c = sb(OrientedBox(100, 100, 4, 4, 0), 1)
        assert candidates_for(ir, [c], set(), 1.0) == []

    def test_already_paired_excluded(self):
        ir = OrientedBox(0, 0, 4, 4, 0)
        c = sb(OrientedBox(0, 0, 4, 4, 0), 1)
        assert candidates_for(ir, [c], {1}, 1.0) == []

    def test_boundary_center_included(self):
        ir = OrientedBox(0, 0, 4, 4, 0)
        c = sb(OrientedBox(2.0, 0, 4, 4, 0), 1)
        assert candidates_for(ir, [c], set(), 1.0) == [c]

    def test_beta_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ir = OrientedBox(0, 0, rng.uniform(4, 30), rng.uniform(4, 30),
                             rng.uniform(-1.5, 1.5))
            pool = [sb(OrientedBox(rng.uniform(-40, 40), rng.uniform(-40, 40),
                                   5, 5, 0), i) for i in range(10)]
            small = {c.source_id for c in candidates_for(ir, pool, set(), 1.0)}
            big = {c.source_id for c in candidates_for(ir, pool, set(), 2.0)}
            assert small <= big


class TestMatchScene:
    def test_single_pair(self):
        ir = [(0, OrientedBox(0, 0, 4, 4, 0))]
        pool = [sb(OrientedBox(1, 0, 4, 4, 0), 5)]
        res = match_scene(ir, pool)
        assert res.pairs == ((0, 5, pytest.approx(3 / 5)),)
        assert res.unmatched_ir == () and res.unmatched_rgb == ()

    def test_picks_highest_iou(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        close = sb(OrientedBox(0.5, 0, 10, 10, 0), 1)
        far = sb(OrientedBox(4, 0, 10, 10, 0), 2)
        res = match_scene(ir, [far, close])
        assert res.pairs[0][1] == 1
        assert iou(ir[0][1], close.box) > iou(ir[0][1], far.box)

    def test_greedy_first_claims(self):
        a = (0, OrientedBox(0, 0, 10, 10, 0))
        b = (1, OrientedBox(2, 0, 10, 10, 0))
        cand = sb(OrientedBox(1, 0, 10, 10, 0), 7)
        res = match_scene([a, b], [cand])
        assert res.pairs == ((0, 7, pytest.approx(iou(a[1], cand.box))),)
        assert res.unmatched_ir == (1,)

    def test_zero_iou_goes_unmatched(self):
        # candidate center inside the enlarged region but no overlap
        ir = [(0, OrientedBox(0, 0, 4, 4, 0))]
        pool = [sb(OrientedBox(7, 0, 4, 4, 0), 1)]
        res = match_scene(ir, pool, beta=4.0)
        assert res.pairs == ()
        assert res.unmatched_ir == (0,)
        assert res.unmatched_rgb == (1,)

    def test_duplicate_ids_rejected(self):
        box = OrientedBox(0, 0, 4, 4, 0)
        with pytest.raises(ValueError):
            match_scene([(0, box), (0, box)], [])
        with pytest.raises(ValueError):
            match_scene([(0, box)], [sb(box, 1), sb(box, 1)])

    def test_injectivity_and_coverage(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ir = [(i, OrientedBox(rng.uniform(0, 100), rng.uniform(0, 100),
                                  rng.uniform(6, 20), rng.uniform(6, 20),
                                  rng.uniform(-1.5, 1.5)))
                  for i in range(rng.integers(1, 6))]
            pool = [sb(OrientedBox(rng.uniform(0, 100), rng.uniform(0, 100),
                                   rng.uniform(6, 20), rng.uniform(6, 20),
                                   rng.uniform(-1.5, 1.5)), j)
                    for j in range(rng.integers(0, 6))]
            res = match_scene(ir, pool, beta=2.0)
            paired_ir = [p[0] for p in res.pairs]
            paired_rgb = [p[1] for p in res.pairs]
            assert len(set(paired_rgb)) == len(paired_rgb)
            assert sorted(paired_ir + list(res.unmatched_ir)) == sorted(i for i, _ in ir)
            assert sorted(paired_rgb + list(res.unmatched_rgb)) == sorted(
                c.source_id for c in pool)
            for ir_id, rgb_id, v in res.pairs:
                assert v > 0
                ir_box = dict(ir)[ir_id]
                cand = next(c for c in pool if c.source_id == rgb_id)
                assert point_in_obb(cand.center,
                                    search_region(ir_box, 2.0))

    def test_greedy_replay_oracle(self):
        # independent replay: exhaustive argmax per reference, same order
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, m = rng.integers(1, 7), rng.integers(0, 7)
            ir = [(i, OrientedBox(rng.uniform(0, 60), rng.uniform(0, 60),
                                  rng.uniform(6, 25), rng.uniform(6, 25),
                                  rng.uniform(-1.5, 1.5))) for i in range(n)]
            pool = [sb(OrientedBox(rng.uniform(0, 60), rng.uniform(0, 60),
                                   rng.uniform(6, 25), rng.uniform(6, 25),
                                   rng.uniform(-1.5, 1.5)), j) for j in range(m)]
            res = match_scene(ir, pool, beta=1.5)

            claimed = set()
            want = []
            for ir_id, ir_box in sorted(ir, key=lambda t: t[0]):
                region = search_region(ir_box, 1.5)
                best = None
                for c in pool:
                    if c.source_id in claimed:
                        continue
                    if not point_in_obb(c.center, region):
                        continue
                    v = iou(ir_box, c.box)
                    if v <= 0:
                        continue
                    if best is None or v > best[1] or (v == best[1] and c.source_id < best[0]):
                        best = (c.source_id, v)
                if best is not None:
                    claimed.add(best[0])
                    want.append((ir_id, best[0]))
            assert [(p[0], p[1]) for p in res.pairs] == want

    def test_zero_offset_recovery(self):
        rng = np.random.default_rng(3)
        ir = [(i, OrientedBox(20 + 30 * i, 50, rng.uniform(8, 20),
                              rng.uniform(8, 20), rng.uniform(-1.5, 1.5)))
              for i in range(5)]
        pool = [sb(box, i) for i, box in ir]
        res = match_scene(ir, pool)
        assert len(res.pairs) == 5
        for ir_id, rgb_id, v in res.pairs:
            assert ir_id == rgb_id
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_iou_only_mode_ignores_region(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        # center outside the search region but still overlapping
        pool = [sb(OrientedBox(8, 0, 10, 10, 0), 1)]
        gated = match_scene(ir, pool, beta=1.0)
        free = match_scene(ir, pool, beta=1.0, use_search_region=False)
        assert gated.pairs == ()
        assert free.pairs[0][:2] == (0, 1)


# Boxes on a coarse grid tie in IoU and put centers on region boundaries;
# float boxes cover the rest.
grid_box = st.builds(
    OrientedBox,
    st.integers(0, 20).map(float), st.integers(0, 20).map(float),
    st.integers(2, 10).map(float), st.integers(2, 10).map(float),
    st.sampled_from([0.0, math.pi / 4, math.pi / 2, -0.7]))
float_box = st.builds(
    OrientedBox,
    st.floats(0, 50), st.floats(0, 50), st.floats(2, 20), st.floats(2, 20),
    st.floats(-1.6, 1.6))
any_box = st.one_of(grid_box, float_box)


@st.composite
def match_cases(draw):
    """(ir, candidates, pool, beta, gated): reference boxes with unique ids
    in shuffled order, candidates with unique ids (some of them copies of
    reference boxes), a subset of the candidates as the pool, and a gate."""
    boxes = draw(st.lists(any_box, max_size=6))
    ir = list(zip(draw(st.permutations(range(len(boxes)))), boxes))
    cand_boxes = draw(st.lists(
        st.one_of(any_box, st.sampled_from(boxes)) if boxes else any_box,
        max_size=8))
    ids = draw(st.lists(st.integers(0, 30), min_size=len(cand_boxes),
                        max_size=len(cand_boxes), unique=True))
    candidates = [sb(b, j) for b, j in zip(cand_boxes, ids)]
    pool = [c for c in candidates if draw(st.booleans())]
    return (ir, candidates, pool, draw(st.sampled_from([0.5, 1.0, 2.0])),
            draw(st.booleans()))


def greedy_oracle(ir, pool, beta, gated):
    """The greedy matching by brute force: each reference box, by ascending
    id, takes the unclaimed candidate of highest positive iou, the lowest
    id on ties, among those whose center lies in its search region (all of
    them without the gate)."""
    claimed = set()
    pairs, unmatched_ir = [], []
    for ir_id, box in sorted(ir, key=lambda t: t[0]):
        region = search_region(box, beta)
        best = None
        for c in pool:
            if c.source_id in claimed or (
                    gated and not point_in_obb(c.center, region)):
                continue
            v = iou(box, c.box)
            if v > 0.0 and (best is None
                            or (-v, c.source_id) < (-best[1], best[0])):
                best = (c.source_id, v)
        if best is None:
            unmatched_ir.append(ir_id)
        else:
            claimed.add(best[0])
            pairs.append((ir_id, *best))
    unmatched_rgb = [c.source_id for c in pool if c.source_id not in claimed]
    return MatchResult(tuple(pairs), tuple(unmatched_ir), tuple(unmatched_rgb))


class TestMatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(match_cases())
    def test_pairs_are_one_to_one(self, case):
        ir, _, pool, beta, gated = case
        res = match_scene(ir, pool, beta, gated)
        ir_paired = [p[0] for p in res.pairs]
        rgb_paired = [p[1] for p in res.pairs]
        assert len(set(ir_paired)) == len(ir_paired)
        assert len(set(rgb_paired)) == len(rgb_paired)
        assert sorted(ir_paired + list(res.unmatched_ir)) == sorted(
            i for i, _ in ir)
        assert sorted(rgb_paired + list(res.unmatched_rgb)) == sorted(
            c.source_id for c in pool)
        assert all(v > 0.0 for _, _, v in res.pairs)

    @settings(max_examples=200, deadline=None)
    @given(match_cases())
    def test_match_ids_on_a_table_equals_match_scene(self, case):
        ir, candidates, pool, beta, gated = case
        [(_, table)] = pair_tables(
            [(None, box_columns([i for i, _ in ir], [b for _, b in ir]),
              box_columns([c.source_id for c in candidates],
                          [c.box for c in candidates]))], beta, gated)
        got = match_ids(table, [i for i, _ in ir],
                        [c.source_id for c in pool])
        assert got == match_scene(ir, pool, beta, gated)

    @settings(max_examples=200, deadline=None)
    @given(match_cases())
    def test_equals_greedy_oracle(self, case):
        ir, _, pool, beta, gated = case
        assert match_scene(ir, pool, beta, gated) == greedy_oracle(
            ir, pool, beta, gated)
