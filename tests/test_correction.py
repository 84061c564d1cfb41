import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair.correction import (COPIED, MATCHED, LabelBag, bag_records,
                                  init_bag, update_bag)
from crosspair.filtering import ScoredBox
from crosspair.geometry import OrientedBox, iou
from crosspair.matching import MatchResult, match_scene


def sb(box, source_id):
    return ScoredBox(box, (1.0,), source_id)


def make_ir(n):
    return [(i, OrientedBox(30 * i + 10, 20, 10, 8, 0.1 * i)) for i in range(n)]


class TestInitBag:
    def test_all_copied_without_matches(self):
        ir = make_ir(3)
        bag = init_bag(0, ir, MatchResult((), (0, 1, 2), ()), [])
        assert len(bag.pairs) == 3
        for i, box in ir:
            p = bag.pairs[i]
            assert p.origin == COPIED
            assert p.rgb_box == box and p.ir_box == box

    def test_all_matched(self):
        ir = make_ir(3)
        pool = [sb(box.translated(1, 0), 10 + i) for i, box in ir]
        matches = match_scene(ir, pool)
        bag = init_bag(0, ir, matches, pool)
        assert len(bag.pairs) == 3
        assert all(p.origin == MATCHED for p in bag.pairs.values())

    def test_mixed_counts(self):
        ir = make_ir(3)
        pool = [sb(ir[1][1].translated(1, 0), 42)]
        matches = match_scene(ir, pool)
        bag = init_bag(0, ir, matches, pool)
        assert len(bag.pairs) == 3
        origins = sorted(p.origin for p in bag.pairs.values())
        assert origins == [COPIED, COPIED, MATCHED]

    def test_unknown_id_rejected(self):
        ir = make_ir(1)
        bad = MatchResult(((0, 99, 0.5),), (), ())
        with pytest.raises(ValueError):
            init_bag(0, ir, bad, [])
        bad_ir = MatchResult(((7, 0, 0.5),), (), ())
        with pytest.raises(ValueError):
            init_bag(0, ir, bad_ir, [sb(ir[0][1], 0)])


class TestUpdateBag:
    def test_no_matches_only_epoch_changes(self):
        ir = make_ir(2)
        bag = init_bag(0, ir, MatchResult((), (0, 1), ()), [])
        new = update_bag(bag, MatchResult((), (0, 1), ()), [], epoch=1)
        assert new.epoch == 1
        assert new.pairs == bag.pairs

    def test_copied_pair_rematched(self):
        ir = make_ir(2)
        bag = init_bag(0, ir, MatchResult((), (0, 1), ()), [])
        pool = [sb(ir[0][1].translated(2, 1), 5)]
        matches = match_scene(ir, pool)
        new = update_bag(bag, matches, pool, epoch=1)
        p = new.pairs[0]
        assert p.origin == MATCHED
        assert p.rgb_box == pool[0].box
        assert p.ir_box == ir[0][1]
        assert p.last_update_epoch == 1
        assert new.pairs[1] == bag.pairs[1]

    def test_rematch_overwrites_even_if_worse(self):
        ir = make_ir(1)
        good = [sb(ir[0][1].translated(0.5, 0), 1)]
        bag = init_bag(0, ir, match_scene(ir, good), good)
        worse = [sb(ir[0][1].translated(3, 0), 2)]
        new = update_bag(bag, match_scene(ir, worse), worse, epoch=1)
        assert new.pairs[0].rgb_box == worse[0].box

    def test_improve_only_gate(self):
        ir = make_ir(1)
        good = [sb(ir[0][1].translated(0.5, 0), 1)]
        bag = init_bag(0, ir, match_scene(ir, good), good)
        worse = [sb(ir[0][1].translated(3, 0), 2)]
        new = update_bag(bag, match_scene(ir, worse), worse, epoch=1,
                         improve_only=True)
        assert new.pairs[0].rgb_box == good[0].box

    def test_improve_only_replaces_a_copy(self):
        ir = make_ir(1)
        bag = init_bag(0, ir, MatchResult((), (0,), ()), [])
        pool = [sb(ir[0][1].translated(3, 0), 2)]
        new = update_bag(bag, match_scene(ir, pool), pool, epoch=1,
                         improve_only=True)
        assert new.pairs[0].origin == MATCHED
        assert new.pairs[0].rgb_box == pool[0].box

    def test_epoch_must_increase(self):
        ir = make_ir(1)
        bag = init_bag(0, ir, MatchResult((), (0,), ()), [])
        with pytest.raises(ValueError):
            update_bag(bag, MatchResult((), (0,), ()), [], epoch=0)

    def test_replay_idempotent(self):
        ir = make_ir(3)
        pool = [sb(box.translated(1, 1), 10 + i) for i, box in ir]
        matches = match_scene(ir, pool)
        bag = init_bag(0, ir, matches, pool)
        once = update_bag(bag, matches, pool, epoch=1)
        twice = update_bag(once, matches, pool, epoch=2)
        assert twice.pairs == once.pairs
        assert twice.epoch == 2

    def test_invariants_over_epochs(self):
        rng = np.random.default_rng(0)
        ir = make_ir(4)
        bag = init_bag(0, ir, MatchResult((), tuple(i for i, _ in ir), ()), [])
        ir_snapshot = {i: p.ir_box for i, p in bag.pairs.items()}
        prev = bag
        for epoch in range(1, 15):
            pool = [sb(box.translated(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                       100 * epoch + i)
                    for i, box in ir if rng.random() < 0.5]
            matches = match_scene(ir, pool)
            new = update_bag(prev, matches, pool, epoch)
            assert len(new.pairs) == len(ir)
            for i, p in new.pairs.items():
                assert p.ir_box == ir_snapshot[i]
                old = prev.pairs[i]
                fresh = matches.pair_for.get(i)
                if p.rgb_box != old.rgb_box:
                    assert fresh is not None
                    cand = next(c for c in pool if c.source_id == fresh[0])
                    assert p.rgb_box == cand.box
                    assert p.last_update_epoch == epoch
            prev = new


class TestSerialization:
    def test_records_roundtrip_fields(self):
        ir = make_ir(2)
        pool = [sb(ir[0][1].translated(1, 0), 9)]
        bag = init_bag(3, ir, match_scene(ir, pool), pool)
        recs = bag_records(bag)
        assert [r["ir_id"] for r in recs] == [0, 1]
        assert all(r["scene_id"] == 3 for r in recs)
        assert recs[0]["origin"] == MATCHED and recs[1]["origin"] == COPIED
        assert len(recs[0]["ir_box"]) == 5 and len(recs[0]["rgb_box"]) == 5
        b = ir[0][1]
        assert recs[0]["ir_box"] == [b.cx, b.cy, b.w, b.h, b.theta]


# ---------------------------------------------------------------------------
# Invariants of update_bag over random epoch sequences

small_box = st.builds(OrientedBox, st.floats(0, 60), st.floats(0, 60),
                      st.floats(2, 20), st.floats(2, 20), st.floats(-1.6, 1.6))


@st.composite
def bag_histories(draw):
    """(ir boxes, candidate pool, [(epoch, MatchResult)]): epochs increase
    by 1 to 5, and each epoch matches a random subset of the reference
    boxes to random candidates, each pair with its IoU."""
    ir = list(enumerate(draw(st.lists(small_box, min_size=1, max_size=5))))
    pool = [sb(b, j) for j, b in enumerate(
        draw(st.lists(small_box, min_size=1, max_size=6)))]
    history, epoch = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 8))):
        pairs = []
        for ir_id, box in ir:
            rgb = draw(st.one_of(st.none(),
                                 st.integers(0, len(pool) - 1)))
            if rgb is not None:
                pairs.append((ir_id, rgb, iou(box, pool[rgb].box)))
        history.append((epoch, MatchResult(tuple(pairs), (), ())))
        epoch += draw(st.integers(1, 5))
    return ir, pool, history


@settings(max_examples=300, deadline=None)
@given(bag_histories(), st.booleans())
def test_update_bag_invariants(history, improve_only):
    ir, pool, epochs = history
    ir_index = dict(ir)
    (first, matches), rest = epochs[0], epochs[1:]
    bag = init_bag(0, ir, matches, pool, first)
    for epoch, matches in rest:
        new = update_bag(bag, matches, pool, epoch, improve_only=improve_only)
        assert new.epoch == epoch
        assert set(new.pairs) == set(ir_index)
        for ir_id, p in new.pairs.items():
            old = bag.pairs[ir_id]
            assert p.ir_box == ir_index[ir_id]
            assert old.last_update_epoch <= p.last_update_epoch <= epoch
            if p.rgb_box != old.rgb_box or p.origin != old.origin:
                assert p.last_update_epoch == epoch
            if improve_only and old.origin == MATCHED:
                assert iou(p.ir_box, p.rgb_box) >= iou(old.ir_box,
                                                       old.rgb_box)
        bag = new
