import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair.correction import (COPIED, MATCHED, LabelBag, LabelTable,
                                  bag_records, init_bag, update_bag)
from crosspair.filtering import ScoredBox
from crosspair.geometry import OrientedBox, iou
from crosspair.matching import MatchResult, match_scene
from crosspair.simulate import SPURIOUS, ObservedBox, Scene, pair_centers


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


# ---------------------------------------------------------------------------
# LabelTable against an init_bag/update_bag replay


@st.composite
def table_histories(draw):
    """(scenes, [(epoch, {scene_id: MatchResult})]): a few scenes whose RGB
    observations lie near their reference boxes or anywhere and repeat box
    values under other ids, and per epoch a
    one-to-one match of a random subset of each scene's reference boxes,
    in random order, each pair with its IoU."""
    scenes = []
    for sid in draw(st.lists(st.integers(0, 50), min_size=1, max_size=3,
                             unique=True)):
        ir_boxes = draw(st.lists(small_box, max_size=5))
        ir_ids = draw(st.permutations(range(10, 10 + len(ir_boxes))))
        # observations near the reference boxes, so that IoUs differ
        boxes = [b.translated(draw(st.floats(-4, 4)), draw(st.floats(-4, 4)))
                 for b in ir_boxes if draw(st.booleans())]
        boxes += draw(st.lists(small_box, max_size=2))
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=3)
                      if boxes else st.just([]))
        rgb_ids = draw(st.permutations(range(len(boxes))))
        corr = draw(st.lists(st.sampled_from([SPURIOUS] + list(ir_ids)),
                             min_size=len(boxes), max_size=len(boxes)))
        offset = (draw(st.floats(-5, 5)), draw(st.floats(-5, 5)))
        scenes.append(Scene(
            sid, (64, 64), offset,
            tuple((i, b, 0) for i, b in zip(ir_ids, ir_boxes)),
            tuple(ObservedBox(b, (1.0,), j, c)
                  for b, j, c in zip(boxes, rgb_ids, corr))))
    scenes.sort(key=lambda s: s.scene_id)
    history, epoch = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 6))):
        results = {}
        for scene in scenes:
            obs = list(scene.rgb_obs)
            pairs = []
            for ir_id, box, _ in draw(st.permutations(scene.ir_gt)):
                if obs and draw(st.booleans()):
                    o = obs.pop(draw(st.integers(0, len(obs) - 1)))
                    pairs.append((ir_id, o.source_id, iou(box, o.box)))
            results[scene.scene_id] = MatchResult(tuple(pairs), (), ())
        history.append((epoch, results))
        epoch += draw(st.integers(1, 3))
    return scenes, history


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


def replay(table, bags, scene, matches, epoch, use_dlc, improve_only):
    """Write matches into table and into bags, by init_bag/update_bag."""
    sid = scene.scene_id
    table.assign(sid, matches, epoch, fresh=not use_dlc,
                 improve_only=improve_only)
    bag = bags.get(sid) if use_dlc else None
    bags[sid] = (init_bag(sid, scene.ir_boxes, matches, scene.rgb_obs, epoch)
                 if bag is None else
                 update_bag(bag, matches, scene.rgb_obs, epoch,
                            improve_only=improve_only))


def assert_table_equals_bags(table, bags, scenes, epoch):
    got = table.bags()
    assert got == bags
    assert [list(b.pairs.items()) for b in got.values()] == \
        [list(b.pairs.items()) for b in bags.values()]
    want = pair_centers([p for b in bags.values() for p in b.pairs.values()])
    centers = table.centers()
    for field in ("ir_cx", "ir_cy", "rgb_cx", "rgb_cy"):
        assert getattr(centers, field).tobytes() == \
            getattr(want, field).tobytes()
    assert table.stats(epoch) == reference_stats(bags, scenes, epoch)
    assert table.scores() == reference_scores(bags, scenes)


@settings(max_examples=300, deadline=None)
@given(table_histories(), st.booleans(), st.booleans())
def test_label_table_equals_bag_replay(history, improve_only, use_dlc):
    scenes, epochs = history
    table = LabelTable(scenes)
    bags = {}
    for epoch, results in epochs:
        for scene in scenes:
            replay(table, bags, scene, results[scene.scene_id], epoch,
                   use_dlc, improve_only)
        assert_table_equals_bags(table, bags, scenes, epoch)


@settings(max_examples=300, deadline=None)
@given(table_histories(), st.data(), st.booleans())
def test_label_table_equals_bag_replay_of_repeated_results(history, data,
                                                           use_dlc):
    """Each epoch writes to each scene one of a few result objects, so that
    an object repeats, alternates with another or comes back later, and
    each write draws its improve_only."""
    scenes, epochs = history
    kept = [results for _, results in epochs[:3]]
    table = LabelTable(scenes)
    bags = {}
    epoch = epochs[0][0]
    for _ in range(data.draw(st.integers(1, 10))):
        for scene in scenes:
            results = kept[data.draw(st.integers(0, len(kept) - 1))]
            replay(table, bags, scene, results[scene.scene_id], epoch,
                   use_dlc, data.draw(st.booleans()))
        assert_table_equals_bags(table, bags, scenes, epoch)
        epoch += data.draw(st.integers(1, 3))


def test_label_table_repeat_after_improve_only_needs_it():
    # a label that improve_only kept gives way to the same result without it
    ir = make_ir(1)
    near, far = ir[0][1].translated(1, 0), ir[0][1].translated(3, 0)
    scene = Scene(0, (64, 64), (1.0, 0.0), tuple((i, b, 0) for i, b in ir),
                  (ObservedBox(near, (1.0,), 0, 0),
                   ObservedBox(far, (1.0,), 1, SPURIOUS)))
    worse = MatchResult(((0, 1, iou(ir[0][1], far)),), (), ())
    table = LabelTable([scene])
    table.assign(0, MatchResult(((0, 0, iou(ir[0][1], near)),), (), ()), 1)
    table.assign(0, worse, 2, improve_only=True)
    table.assign(0, worse, 3, improve_only=True)
    assert table.bags()[0].pairs[0].rgb_box == near
    table.assign(0, worse, 4)
    pair = table.bags()[0].pairs[0]
    assert (pair.rgb_box, pair.last_update_epoch) == (far, 4)
    table.assign(0, worse, 5, improve_only=True)
    assert table.bags()[0] == LabelBag(0, {0: pair}, 5)


def test_label_table_keeps_an_equal_box_under_another_id():
    ir = make_ir(1)
    box = ir[0][1].translated(1, 0)
    scene = Scene(0, (64, 64), (1.0, 0.0), tuple((i, b, 0) for i, b in ir),
                  (ObservedBox(box, (1.0,), 3, 0),
                   ObservedBox(box, (1.0,), 4, SPURIOUS)))
    table = LabelTable([scene])
    table.assign(0, MatchResult(((0, 3, 0.5),), (), ()), 1)
    table.assign(0, MatchResult(((0, 4, 0.5),), (), ()), 2)
    assert table.stats(2) == (1, 0, 0, 0.0)
    assert table.scores() == (1.0, 1.0)
    with pytest.raises(ValueError, match="epoch must increase"):
        table.assign(0, MatchResult((), (0,), ()), 2)
    assert table.bags()[0].pairs[0].last_update_epoch == 1
