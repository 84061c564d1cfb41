import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair.correction import LabelPair
from crosspair.filtering import ScoredBox
from crosspair.cli import _record_fault
from crosspair.geometry import FieldError, OrientedBox, corners_of
from crosspair.filtering import filter_batch, filter_masks
from crosspair.pipeline import batches
from crosspair.simulate import (SPURIOUS, Detections, GenerationError,
                                NoiseRows, ObservedBox, Scene, SceneConfig,
                                SimDetectorParams, _uniform, detect,
                                generate_scenes, least_squares_offset,
                                pair_centers, pair_gradient, pair_loss,
                                perturbed_rows, rgb_proposals,
                                scene_from_record, scene_to_record,
                                shifted_scenes, student_step)
from reference import reference_detect


class TestGeneration:
    def test_deterministic(self):
        cfg = SceneConfig(count=10, boxes_per_scene=5, jitter=1.0,
                          dropout_rate=0.2, spurious_rate=0.2, seed=11)
        a = [json.dumps(scene_to_record(s)) for s in generate_scenes(cfg)]
        b = [json.dumps(scene_to_record(s)) for s in generate_scenes(cfg)]
        assert a == b

    def test_counts_and_canvas(self):
        cfg = SceneConfig(count=20, boxes_per_scene=6, seed=1)
        scenes = generate_scenes(cfg)
        assert len(scenes) == 20
        assert [s.scene_id for s in scenes] == list(range(20))
        W, H = cfg.canvas
        for s in scenes:
            assert len(s.ir_gt) == 6
            for _, box, _ in s.ir_gt:
                assert box.w >= 4 and box.h >= 4
                for x, y in corners_of(box):
                    assert 0 <= x <= W and 0 <= y <= H

    def test_offsets_bounded(self):
        cfg = SceneConfig(count=50, shift_max=7.0, seed=2)
        for s in generate_scenes(cfg):
            assert abs(s.true_offset[0]) <= 7.0
            assert abs(s.true_offset[1]) <= 7.0

    def test_zero_shift_zero_jitter_copies(self):
        cfg = SceneConfig(count=10, shift_max=0.0, jitter=0.0, seed=3)
        for s in generate_scenes(cfg):
            assert s.true_offset == (0.0, 0.0)
            boxes = {i: b for i, b, _ in s.ir_gt}
            for o in s.rgb_obs:
                assert o.corr_id != SPURIOUS
                assert o.box == boxes[o.corr_id]

    def test_partner_equals_ir_plus_offset_plus_jitter(self):
        cfg = SceneConfig(count=20, shift_max=10.0, jitter=1.5, seed=4)
        for s in generate_scenes(cfg):
            boxes = {i: b for i, b, _ in s.ir_gt}
            dx, dy = s.true_offset
            for o in s.rgb_obs:
                src = boxes[o.corr_id]
                assert abs(o.box.cx - src.cx - dx) <= 1.5 + 1e-9
                assert abs(o.box.cy - src.cy - dy) <= 1.5 + 1e-9
                assert (o.box.w, o.box.h) == (src.w, src.h)

    def test_full_dropout_leaves_only_spurious(self):
        cfg = SceneConfig(count=10, dropout_rate=1.0, spurious_rate=0.5, seed=5)
        for s in generate_scenes(cfg):
            assert all(o.corr_id == SPURIOUS for o in s.rgb_obs)

    def test_correspondence_ids_unique(self):
        cfg = SceneConfig(count=20, dropout_rate=0.3, spurious_rate=0.3, seed=6)
        for s in generate_scenes(cfg):
            ids = [o.corr_id for o in s.rgb_obs if o.corr_id != SPURIOUS]
            assert len(set(ids)) == len(ids)

    def test_true_class_is_argmax(self):
        cfg = SceneConfig(count=20, confidence_noise=0.1, seed=7)
        classes = {}
        hits = total = 0
        for s in generate_scenes(cfg):
            cls = {i: c for i, _, c in s.ir_gt}
            for o in s.rgb_obs:
                total += 1
                hits += o.class_id == cls[o.corr_id]
        assert hits / total > 0.95

    def test_spurious_scores_lower_on_average(self):
        cfg = SceneConfig(count=30, spurious_rate=0.5, confidence_noise=0.1, seed=8)
        real, fake = [], []
        for s in generate_scenes(cfg):
            for o in s.rgb_obs:
                (fake if o.corr_id == SPURIOUS else real).append(o.score)
        assert np.mean(fake) < np.mean(real) - 0.2

    def test_impossible_packing_raises(self):
        cfg = SceneConfig(count=1, boxes_per_scene=500, canvas=(200, 200), seed=9)
        with pytest.raises(GenerationError):
            generate_scenes(cfg)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            SceneConfig(dropout_rate=1.5)

    def test_offset_override(self):
        cfg = SceneConfig(count=5, offset_override=(3.0, -2.0), seed=10)
        for s in generate_scenes(cfg):
            assert s.true_offset == (3.0, -2.0)

    @settings(max_examples=25, deadline=None)
    @given(st.builds(SceneConfig, count=st.integers(0, 4),
                     boxes_per_scene=st.integers(0, 6),
                     jitter=st.sampled_from([0.0, 0.5, 2.0]),
                     angle_jitter=st.sampled_from([0.0, 0.1]),
                     dropout_rate=st.sampled_from([0.0, 0.3]),
                     spurious_rate=st.sampled_from([0.0, 0.5]),
                     seed=st.integers(0, 2 ** 32 - 1),
                     offset_override=st.sampled_from([None, (1.0, 2.0)])),
           st.lists(st.tuples(st.integers(-20, 20), st.floats(-20, 20)),
                    max_size=4))
    def test_shifted_scenes_equal_generated_ones(self, cfg, offsets):
        shifted = list(shifted_scenes(cfg, offsets))
        assert len(shifted) == len(offsets)
        for offset, scenes in zip(offsets, shifted):
            want = generate_scenes(replace(cfg, offset_override=offset))
            assert [json.dumps(scene_to_record(s)) for s in scenes] == \
                [json.dumps(scene_to_record(s)) for s in want]
            assert all(type(v) is float for s in scenes for v in s.true_offset)

    def test_shifted_scenes_raise_as_generation_does(self):
        cfg = SceneConfig(count=1, boxes_per_scene=500, canvas=(200, 200),
                          seed=9)
        with pytest.raises(GenerationError, match="canvas too crowded"):
            next(shifted_scenes(cfg, [(0.0, 0.0)]))


class TestRecordRoundtrip:
    def test_roundtrip(self):
        cfg = SceneConfig(count=5, jitter=1.0, dropout_rate=0.2,
                          spurious_rate=0.3, seed=12)
        for s in generate_scenes(cfg):
            rec = scene_to_record(s)
            back = scene_from_record(json.loads(json.dumps(rec)))
            assert back == s

    @pytest.mark.parametrize("key", ["ir_gt", "rgb_obs"])
    def test_duplicate_id_rejected(self, key):
        rec = scene_to_record(generate_scenes(SceneConfig(
            count=1, boxes_per_scene=3, seed=12))[0])
        rec[key][0]["id"] = rec[key][1]["id"] = 3
        with pytest.raises(FieldError) as info:
            scene_from_record(rec)
        # the message the command line prints for the record's line
        assert (_record_fault(info.value)
                == f"field '{key}[1].id': duplicate value 3 (first at {key}[0])")


class TestDetect:
    def setup_method(self):
        self.scenes = generate_scenes(SceneConfig(count=5, shift_max=9.0,
                                                  jitter=0.0, seed=13))

    def test_perfect_offset_aligns_with_ir(self):
        for s in self.scenes:
            params = SimDetectorParams(s.true_offset, 0.0)
            preds = {p.source_id: p for p in detect(params, s, "rgb")}
            boxes = {i: b for i, b, _ in s.ir_gt}
            for o in s.rgb_obs:
                p = preds[o.source_id]
                src = boxes[o.corr_id]
                assert math.hypot(p.box.cx - src.cx, p.box.cy - src.cy) < 1e-9

    def test_zero_offset_error_is_true_shift(self):
        for s in self.scenes:
            params = SimDetectorParams((0.0, 0.0), 0.0)
            preds = {p.source_id: p for p in detect(params, s, "rgb")}
            boxes = {i: b for i, b, _ in s.ir_gt}
            want = math.hypot(*s.true_offset)
            for o in s.rgb_obs:
                p = preds[o.source_id]
                src = boxes[o.corr_id]
                assert math.hypot(p.box.cx - src.cx, p.box.cy - src.cy) == \
                    pytest.approx(want, abs=1e-9)

    def test_ir_ignores_offset(self):
        s = self.scenes[0]
        a = detect(SimDetectorParams((0.0, 0.0), 0.0), s, "ir")
        b = detect(SimDetectorParams((50.0, -50.0), 0.0), s, "ir")
        assert a == b

    def test_deterministic_given_salt(self):
        s = self.scenes[0]
        params = SimDetectorParams((1.0, 2.0), 0.2)
        assert detect(params, s, "rgb", salt=3) == detect(params, s, "rgb", salt=3)
        assert rgb_proposals(params, s, salt=1) == rgb_proposals(params, s, salt=1)

    def test_unknown_modality(self):
        with pytest.raises(ValueError):
            detect(SimDetectorParams(), self.scenes[0], "uv")


def _scene_pool():
    """Scenes of 2, 5 and 7 classes, with and without RGB observations,
    whose ids repeat between the configurations."""
    pool = []
    for classes, spurious, dropout in ((2, 0.0, 0.0), (5, 0.4, 0.3),
                                       (7, 0.0, 1.0)):
        cfg = SceneConfig(count=4, boxes_per_scene=3, class_count=classes,
                          spurious_rate=spurious, dropout_rate=dropout,
                          seed=classes)
        pool.extend(generate_scenes(cfg))
    return pool


SCENE_POOL = _scene_pool()


def _row_bits(rows):
    return [[p.hex() for p in row] for row in rows]


def _draw_bits(draw):
    """The bits of one scene's (rows, scores)."""
    rows, scores = draw
    return _row_bits(rows), [p.hex() for p in scores]


class TestKeyedNoise:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, len(SCENE_POOL) - 1), min_size=1,
                    max_size=8), st.sampled_from(["ir", "rgb"]),
           st.sampled_from([0.05, 0.1, 0.9, 4.0]), st.integers(0, 70))
    def test_scene_rows_do_not_depend_on_the_batch(self, picks, modality,
                                                   scale, salt):
        batch = [SCENE_POOL[i] for i in picks]
        got = perturbed_rows(batch, modality, scale, salt)
        assert len(got) == len(batch)
        for scene, rows in zip(batch, got):
            alone = perturbed_rows([scene], modality, scale, salt)[0]
            assert _draw_bits(rows) == _draw_bits(alone)

    def test_ir_and_rgb_rows_draw_apart(self):
        # noise-free one-hot observations of every IR box, in IR order: the
        # clean rows of both modalities are the same
        scenes = generate_scenes(SceneConfig(count=10, confidence_noise=0.0,
                                             seed=4))
        ir = perturbed_rows(scenes, "ir", 0.3, 6)
        rgb = perturbed_rows(scenes, "rgb", 0.3, 6)
        for scene, (ir_rows, _), (rgb_rows, _) in zip(scenes, ir, rgb):
            assert [list(o.class_probs) for o in scene.rgb_obs] == \
                perturbed_rows([scene], "ir", 0.0)[0][0].tolist()
            assert all((a != b).any() for a, b in zip(ir_rows, rgb_rows))

    def test_salt_and_scene_id_change_the_rows(self):
        scene = SCENE_POOL[5]
        rows = _draw_bits(perturbed_rows([scene], "rgb", 0.5, 1)[0])
        assert rows != _draw_bits(perturbed_rows([scene], "rgb", 0.5, 2)[0])
        moved = Scene(scene.scene_id + 1, scene.canvas, scene.true_offset,
                      scene.ir_gt, scene.rgb_obs)
        assert rows != _draw_bits(perturbed_rows([moved], "rgb", 0.5, 1)[0])

    @pytest.mark.parametrize("modality", ["ir", "rgb"])
    @pytest.mark.parametrize("scale", [1e-320, 0.1, 1.0, 50.0, math.inf,
                                       math.nan])
    def test_rows_are_what_a_validated_box_stores(self, modality, scale):
        box = OrientedBox(0.0, 0.0, 2.0, 2.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = perturbed_rows(SCENE_POOL, modality, scale, -3)
        for scene, (rows, scores) in zip(SCENE_POOL, got):
            assert rows.dtype == scores.dtype == np.float64
            assert len(rows) == len(scores) == len(
                scene.ir_gt if modality == "ir" else scene.rgb_obs)
            for row, score in zip(rows.tolist(), scores.tolist()):
                assert all(0.0 <= p <= 1.0 for p in row)
                stored = ScoredBox(box, row, 0)
                assert _row_bits([stored.class_probs]) == _row_bits([row])
                assert stored.score.hex() == score.hex()

    def test_zero_rows_with_an_underflowing_weight_stay_zero(self):
        box = OrientedBox(0.0, 0.0, 2.0, 2.0, 0.0)
        scene = Scene(2 ** 70, (8, 8), (0.0, 0.0), (),
                      (ObservedBox(box, (0.0, 0.0, 0.0), 0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = perturbed_rows([scene], "rgb", 5e-324, -1)[0][0]
            noisy = perturbed_rows([scene], "rgb", 1e-300, -1)[0][0]
        assert rows.tolist() == [[0.0, 0.0, 0.0]]
        assert sum(noisy[0].tolist()) == pytest.approx(1.0)

    def test_uniforms_lie_strictly_inside_zero_one(self):
        extremes = np.array([0, 1, 2 ** 11, 2 ** 12 - 1, 2 ** 63,
                             2 ** 64 - 2 ** 12, 2 ** 64 - 1], dtype=np.uint64)
        u = _uniform(extremes)
        assert u.min() == 2.0 ** -53 and u.max() == 1.0 - 2.0 ** -53
        assert ((u > 0.0) & (u < 1.0)).all()
        rng = np.random.default_rng(0)
        u = _uniform(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64))
        assert ((u > 0.0) & (u < 1.0)).all()
        assert abs(u.mean() - 0.5) < 0.01

    def test_flat_dirichlet_moments(self):
        # the mixed-in noise of a fully noisy row is a flat Dirichlet draw:
        # mean 1/k and variance (k - 1) / (k^2 (k + 1)) per class
        scenes = generate_scenes(SceneConfig(count=400, boxes_per_scene=5,
                                             seed=9))
        rows = np.concatenate([rows for rows, _ in perturbed_rows(
            scenes, "ir", 1e9, 0)])
        k = rows.shape[1]
        assert np.allclose(rows.mean(axis=0), 1.0 / k, atol=0.01)
        assert np.allclose(rows.var(axis=0), (k - 1) / (k * k * (k + 1)),
                           rtol=0.1)

    def test_detect_takes_the_rows_of_its_scene(self):
        params = SimDetectorParams((1.0, -1.0), 0.2)
        for modality in ("ir", "rgb"):
            rows = perturbed_rows(SCENE_POOL, modality, 0.2, 9)
            for scene, scene_rows in zip(SCENE_POOL, rows):
                assert detect(params, scene, modality, 9, rows=scene_rows) == \
                    detect(params, scene, modality, 9)
        rows = perturbed_rows(SCENE_POOL, "rgb", 0.2, 9)
        for scene, scene_rows in zip(SCENE_POOL, rows):
            assert rgb_proposals(params, scene, 9, rows=scene_rows) == \
                rgb_proposals(params, scene, 9)
        scene = SCENE_POOL[0]
        with pytest.raises(ValueError, match="probability rows"):
            detect(params, scene, "ir", rows=(np.zeros((0, 5)), np.zeros(0)))
        with pytest.raises(ValueError, match="unknown modality"):
            perturbed_rows([], "uv", 0.1)


def _plan_pool():
    """SCENE_POOL plus a scene without RGB observations whose IR class 11
    makes 12 classes, and two scenes without boxes."""
    box = OrientedBox(5.0, 5.0, 4.0, 4.0, 0.0)
    return SCENE_POOL + [
        Scene(-7, (64, 64), (0.0, 0.0), ((0, box, 11), (1, box, 3)), ()),
        Scene(2 ** 66, (64, 64), (0.0, 0.0), (), ()),
        Scene(40, (64, 64), (0.0, 0.0), (), ()),
    ]


PLAN_POOL = _plan_pool()
SCALES = st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf, 5e-324]),
                   st.floats(0.0, 50.0))
SALTS = st.integers(-2 ** 65, 2 ** 65)


class TestNoiseRows:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, len(PLAN_POOL) - 1), max_size=10),
           st.sampled_from(["ir", "rgb"]),
           st.lists(st.tuples(SCALES, SALTS), min_size=1, max_size=4))
    def test_draws_equal_each_scene_alone(self, picks, modality, draws):
        batch = [PLAN_POOL[i] for i in picks]
        plan = NoiseRows(batch, modality)
        for scale, salt in draws:
            got = list(plan.rows(scale, salt))
            assert len(got) == len(batch)
            for scene, rows in zip(batch, got):
                alone = perturbed_rows([scene], modality, scale, salt)[0]
                assert type(rows) is tuple
                assert all(type(a) is np.ndarray for a in rows)
                assert _draw_bits(rows) == _draw_bits(alone)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, len(PLAN_POOL) - 1), min_size=1,
                    max_size=6),
           st.sampled_from(["ir", "rgb"]), SCALES, SALTS)
    def test_mutating_a_draw_leaves_the_next_unchanged(self, picks, modality,
                                                       scale, salt):
        plan = NoiseRows([PLAN_POOL[i] for i in picks], modality)
        first = list(plan.rows(scale, salt))
        expected = [_draw_bits(rows) for rows in first]
        for rows, scores in first:
            rows[...] = 0.5
            scores[...] = 0.5
        first.append(None)
        first[0] = None
        assert [_draw_bits(rows) for rows in plan.rows(scale, salt)] == \
            expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, len(PLAN_POOL) - 1), max_size=10),
           st.sampled_from(["ir", "rgb"]), SCALES, SALTS)
    def test_rows_yield_the_items_of_perturbed_rows(self, picks, modality,
                                                    scale, salt):
        batch = [PLAN_POOL[i] for i in picks]
        plan = NoiseRows(batch, modality)
        got = plan.rows(scale, salt)
        assert iter(got) is got
        assert [_draw_bits(rows) for rows in got] == [
            _draw_bits(rows)
            for rows in perturbed_rows(batch, modality, scale, salt)]

    def test_unknown_modality(self):
        with pytest.raises(ValueError, match="unknown modality"):
            NoiseRows(SCENE_POOL, "uv")


def _box_bits(boxes):
    return [(d.source_id, d.box, [p.hex() for p in d.class_probs],
             d.score.hex(), d.class_id) for d in boxes]


def _tie_scene():
    """Rows whose maximum is a tie of -0.0 and 0.0, in both orders."""
    box = OrientedBox(5.0, 5.0, 4.0, 4.0, 0.0)
    return Scene(9, (64, 64), (0.0, 0.0),
                 ((0, box, 1), (1, box, 0), (2, box, 2)),
                 (ObservedBox(box, (-0.0, 0.0, 0.0), 0),
                  ObservedBox(box, (0.0, -0.0, 0.0), 1),
                  ObservedBox(box, (0.25, 0.5, 0.25), 2)))


COLUMN_POOL = PLAN_POOL + [_tie_scene()]


class TestDetections:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, len(COLUMN_POOL) - 1), max_size=8),
           st.sampled_from(["ir", "rgb"]), SCALES, SALTS,
           st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
           st.integers(1, 4))
    def test_columns_equal_the_boxes_of_before(self, picks, modality, scale,
                                               salt, offset, batch_size):
        batch = [COLUMN_POOL[i] for i in picks]
        params = SimDetectorParams(offset, scale)
        proposals = []
        for scene, draw in zip(batch,
                               NoiseRows(batch, modality).rows(scale, salt)):
            want = reference_detect(params, scene, modality, salt)
            for got in (detect(params, scene, modality, salt),
                        detect(params, scene, modality, salt, rows=draw)):
                assert got == want and len(got) == len(want)
                assert _box_bits(got) == _box_bits(want)
                assert _box_bits(got[k] for k in range(-len(got), len(got))) \
                    == _box_bits(want + want)
            rows, scores = draw
            assert all(score == max(row) for score, row
                       in zip(scores.tolist(), rows.tolist()))
            if modality == "rgb":
                got = rgb_proposals(params, scene, salt, rows=draw)
                assert _box_bits(got) == _box_bits(reference_detect(
                    SimDetectorParams(confidence_noise=scale), scene, "rgb",
                    salt))
                proposals.append(got)
        # the batch masks of the pipeline's score filter are filter_batch's
        # on the boxes the proposals build
        for pools in batches(proposals, batch_size):
            built = [c for pool in pools for c in pool]
            survivors = {id(c) for c in filter_batch(built)[0]}
            masks = filter_masks([p.scores for p in pools])[0]
            assert [flag for mask in masks for flag in mask] == \
                [id(c) in survivors for c in built]
            assert [list(pool.kept(mask)) for pool, mask
                    in zip(pools, masks)] == \
                [[c for c in pool if id(c) in survivors]
                 for pool in (built[a:a + len(p)] for a, p in zip(
                     np.cumsum([0] + [len(p) for p in pools]).tolist(),
                     pools))]

    def test_tie_rows_score_zero(self):
        scene = COLUMN_POOL[-1]
        dets = rgb_proposals(SimDetectorParams(confidence_noise=0.0), scene)
        assert dets.scores.tolist() == [0.0, 0.0, 0.5]
        assert [d.score.hex() for d in dets] == \
            [(-0.0).hex(), (0.0).hex(), (0.5).hex()]
        assert dets.ids == (0, 1, 2)
        assert dets.boxes == tuple(o.box for o in scene.rgb_obs)

    def test_scene_rows_of_several_lengths_are_refused(self):
        box = OrientedBox(5.0, 5.0, 4.0, 4.0, 0.0)
        scene = Scene(1, (64, 64), (0.0, 0.0), (),
                      (ObservedBox(box, (0.5, 0.5), 0),
                       ObservedBox(box, (0.5, 0.25, 0.25), 1)))
        with pytest.raises(ValueError, match="rows of"):
            list(NoiseRows([scene], "rgb").rows(0.1))

    def test_items_check_their_rows(self):
        # rows a caller passes in reach the ScoredBox checks as any input
        box = OrientedBox(5.0, 5.0, 4.0, 4.0, 0.0)
        scene = Scene(1, (64, 64), (0.0, 0.0), (),
                      (ObservedBox(box, (0.5, 0.5), 0),))
        rows = (np.array([[-0.5, 0.5]]), np.array([0.5]))
        for dets in (Detections((box,), (0,), *rows),
                     rgb_proposals(SimDetectorParams(), scene, rows=rows)):
            with pytest.raises(FieldError, match="out of"):
                list(dets)
            with pytest.raises(FieldError, match="out of"):
                dets[0]


def make_pairs(rng, n):
    pairs = []
    for i in range(n):
        ir = OrientedBox(rng.uniform(0, 100), rng.uniform(0, 100), 10, 8, 0.2)
        rgb = ir.translated(rng.uniform(-10, 10), rng.uniform(-10, 10))
        pairs.append(LabelPair(ir, rgb, i, "matched", 0))
    return pair_centers(pairs)


class TestStudentStep:
    def test_optimum_is_fixed_point(self):
        rng = np.random.default_rng(0)
        pairs = make_pairs(rng, 8)
        opt = least_squares_offset(pairs)
        params = SimDetectorParams(opt, 0.0)
        stepped = student_step(params, pairs, 0.25)
        assert np.allclose(stepped.offset_estimate, opt, atol=1e-12)

    def test_hand_computed_1d_step(self):
        ir = OrientedBox(0, 0, 10, 10, 0)
        rgb = ir.translated(-4, 0)  # prediction - target = +4 at offset 0
        pair = LabelPair(ir, rgb, 0, "matched", 0)
        stepped = student_step(SimDetectorParams((0.0, 0.0), 0.0),
                               pair_centers([pair]), 0.25)
        assert stepped.offset_estimate[0] == pytest.approx(-2.0)
        assert stepped.offset_estimate[1] == pytest.approx(0.0)

    def test_empty_pairs_noop(self):
        params = SimDetectorParams((1.0, 1.0), 0.0)
        assert student_step(params, pair_centers([]), 0.1) == params

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pairs = make_pairs(rng, int(rng.integers(1, 10)))
            offset = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            params = SimDetectorParams(offset, 0.0)
            gx, gy = pair_gradient(params, pairs)
            eps = 1e-5
            fd_x = (pair_loss(SimDetectorParams((offset[0] + eps, offset[1])), pairs)
                    - pair_loss(SimDetectorParams((offset[0] - eps, offset[1])), pairs)) / (2 * eps)
            fd_y = (pair_loss(SimDetectorParams((offset[0], offset[1] + eps)), pairs)
                    - pair_loss(SimDetectorParams((offset[0], offset[1] - eps)), pairs)) / (2 * eps)
            assert gx == pytest.approx(fd_x, rel=1e-6, abs=1e-8)
            assert gy == pytest.approx(fd_y, rel=1e-6, abs=1e-8)

    def test_geometric_convergence_below_stability_bound(self):
        rng = np.random.default_rng(2)
        pairs = make_pairs(rng, 12)
        opt = np.array(least_squares_offset(pairs))
        params = SimDetectorParams((20.0, -20.0), 0.0)
        lr = 0.3
        errs = []
        for _ in range(30):
            params = student_step(params, pairs, lr)
            errs.append(np.linalg.norm(np.array(params.offset_estimate) - opt))
        ratio = abs(1 - 2 * lr)
        for prev, nxt in zip(errs, errs[1:]):
            if prev > 1e-12:
                assert nxt <= prev * ratio + 1e-9

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            student_step(SimDetectorParams(), pair_centers([]), 0.0)
