import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import crosspair.matching
import crosspair.pipeline
from crosspair.correction import COPIED, LabelTable
from crosspair.filtering import filter_batch, filter_masks
from crosspair.geometry import OrientedBox
from crosspair.matching import match_scene, pair_tables
from crosspair.pipeline import (PlaConfig, TrainConfig, _epoch_proposals,
                                _sup_loss, _truth_at, batches, run_pipeline)
from crosspair.schedule import StageConfig, stage_state
from crosspair.simulate import (Detections, GenerationError, NoiseRows,
                                SceneConfig, SimDetectorParams, detect,
                                generate_scenes, perturbed_rows,
                                rgb_proposals)
from reference import reference_loop, reference_scores

SHORT = StageConfig(2, 2, 4, 4)


def run(scene_cfg, stage_cfg=SHORT, pla=None, train=None):
    scenes = generate_scenes(scene_cfg)
    return run_pipeline(scenes, stage_cfg, pla or PlaConfig(),
                        train or TrainConfig())


class TestPipeline:
    def test_clean_scenes_full_recovery(self):
        # offsets small enough that every partner stays inside its search
        # region: every pair is recovered and the bag error vanishes
        cfg = SceneConfig(count=30, boxes_per_scene=6, shift_max=4.0,
                          jitter=0.0, confidence_noise=0.0,
                          size_range=(10.0, 40.0), seed=0)
        report = run(cfg)
        assert report.pair_accuracy == 1.0
        assert report.matched_pair_precision == 1.0
        assert report.final_rgb_center_error < 0.5
        final = report.epochs[-1]
        assert final.copied_count == 0

    def test_student_reaches_analytic_optimum(self):
        cfg = SceneConfig(count=30, boxes_per_scene=6, shift_max=4.0,
                          jitter=0.3, size_range=(10.0, 40.0), seed=1)
        report = run(cfg)
        got = np.array(report.final_student_offset)
        want = np.array(report.analytic_optimum)
        assert np.linalg.norm(got - want) < 1e-6

    def test_zero_offset_world_is_fixed_point(self):
        cfg = SceneConfig(count=10, boxes_per_scene=5, shift_max=0.0,
                          jitter=0.0, confidence_noise=0.0, seed=2)
        scenes = generate_scenes(cfg)
        report = run_pipeline(scenes, SHORT, PlaConfig(), TrainConfig())
        assert report.final_rgb_center_error < 1e-6
        for bag in report.bags.values():
            for p in bag.pairs.values():
                assert math.hypot(p.rgb_box.cx - p.ir_box.cx,
                                  p.rgb_box.cy - p.ir_box.cy) < 1e-9

    def test_beats_copy_baseline(self):
        cfg = SceneConfig(count=40, boxes_per_scene=6, shift_max=8.0,
                          jitter=0.3, dropout_rate=0.1, size_range=(18.0, 40.0),
                          seed=3)
        report = run(cfg)
        assert report.final_rgb_center_error < report.copy_baseline_error

    def test_bag_cardinality_and_ir_stability(self):
        cfg = SceneConfig(count=15, boxes_per_scene=5, shift_max=6.0,
                          jitter=0.5, dropout_rate=0.2, spurious_rate=0.2,
                          size_range=(14.0, 40.0), seed=4)
        scenes = generate_scenes(cfg)
        report = run_pipeline(scenes, SHORT, PlaConfig(), TrainConfig())
        by_id = {s.scene_id: s for s in scenes}
        for sid, bag in report.bags.items():
            scene = by_id[sid]
            assert set(bag.pairs) == {i for i, _ in scene.ir_boxes}
            for i, box, _ in scene.ir_gt:
                assert bag.pairs[i].ir_box == box

    def test_epoch_records_cover_schedule(self):
        cfg = SceneConfig(count=8, boxes_per_scene=4, shift_max=3.0, seed=5)
        report = run(cfg)
        assert len(report.epochs) == SHORT.total
        phases = [r.phase for r in report.epochs]
        assert phases == ["burn_in"] * 2 + ["mutual"] * 2 + \
            ["stage2"] * 4 + ["stage3"] * 4
        lams = [r.lam for r in report.epochs if r.phase == "mutual"]
        assert lams[0] == 0.0 and lams[-1] == 1.0
        for r in report.epochs:
            assert all(math.isfinite(v) for v in r.loss_terms.values())

    def test_loss_term_names_per_phase(self):
        cfg = SceneConfig(count=6, boxes_per_scene=4, shift_max=3.0, seed=6)
        report = run(cfg)
        for r in report.epochs:
            want = {"burn_in": {"L_sup"},
                    "mutual": {"L_sup", "L_unsup"},
                    "stage2": {"L_sup", "L_unsup", "L_paired"},
                    "stage3": {"L_paired"}}[r.phase]
            assert set(r.loss_terms) == want

    def test_skip_stage1_flagged(self):
        cfg = SceneConfig(count=6, boxes_per_scene=4, shift_max=3.0, seed=7)
        report = run(cfg, train=TrainConfig(skip_stage1=True))
        assert not report.sm_branch_trained
        assert all(r.phase in ("stage2", "stage3") for r in report.epochs)

    def test_skip_stage3(self):
        cfg = SceneConfig(count=6, boxes_per_scene=4, shift_max=3.0, seed=8)
        report = run(cfg, train=TrainConfig(skip_stage3=True))
        assert all(r.phase != "stage3" for r in report.epochs)

    def test_no_sdlm_copies_everything(self):
        cfg = SceneConfig(count=10, boxes_per_scene=5, shift_max=4.0, seed=9)
        report = run(cfg, pla=PlaConfig(use_sdlm=False))
        for bag in report.bags.values():
            assert all(p.origin == COPIED for p in bag.pairs.values())
        assert report.matched_pair_precision is None

    def test_no_sdlm_matches_an_empty_pool_through_the_tables(
            self, monkeypatch):
        calls = []

        def spy(ir_boxes, rgb_pool, *args, **kwargs):
            calls.append((list(rgb_pool), kwargs.get("table")))
            return match_scene(ir_boxes, rgb_pool, *args, **kwargs)

        monkeypatch.setattr(crosspair.pipeline, "match_scene", spy)
        cfg = SceneConfig(count=4, boxes_per_scene=3, shift_max=4.0, seed=9)
        run(cfg, pla=PlaConfig(use_sdlm=False))
        assert len(calls) == 4 * (SHORT.k3 + SHORT.k4)
        assert all(pool == [] and table is not None for pool, table in calls)

    def test_pair_tables_built_once_for_every_flag_set(self, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            return pair_tables(*args, **kwargs)

        monkeypatch.setattr(crosspair.pipeline, "pair_tables", spy)
        scenes = generate_scenes(SceneConfig(count=3, boxes_per_scene=3,
                                             seed=4))
        for plf, sdlm, dlc, iou_only in product([True, False], repeat=4):
            built.clear()
            run_pipeline(scenes, StageConfig(1, 1, 1, 1),
                         PlaConfig(use_plf=plf, use_sdlm=sdlm, use_dlc=dlc,
                                   iou_match_only=iou_only),
                         TrainConfig(steps_per_epoch=1))
            assert len(built) == 1, (plf, sdlm, dlc, iou_only)

    def test_deterministic(self):
        cfg = SceneConfig(count=10, boxes_per_scene=5, shift_max=5.0,
                          jitter=0.4, dropout_rate=0.1, seed=10)
        a = run(cfg)
        b = run(cfg)
        assert a.final_student_offset == b.final_student_offset
        assert a.epoch_records() == b.epoch_records()

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline([], SHORT, PlaConfig(), TrainConfig())

    def test_duplicate_scene_ids_rejected(self):
        scenes = generate_scenes(SceneConfig(count=3, boxes_per_scene=3,
                                             seed=4))
        with pytest.raises(ValueError, match="duplicate scene_id 1"):
            run_pipeline(scenes + [scenes[1]], SHORT)

    @pytest.mark.parametrize("use_sdlm", [True, False])
    def test_duplicate_candidate_ids_rejected(self, monkeypatch, use_sdlm):
        # the pair tables are built, and fail, before the first epoch draws,
        # whatever the flags
        scenes = generate_scenes(SceneConfig(count=3, boxes_per_scene=3,
                                             seed=4))
        s = scenes[1]
        scenes[1] = replace(s, rgb_obs=s.rgb_obs + s.rgb_obs[:1])
        drawn = []
        monkeypatch.setattr(NoiseRows, "rows", lambda *a: drawn.append(a))
        with pytest.raises(ValueError, match="duplicate candidate ids"):
            run_pipeline(scenes, SHORT, PlaConfig(use_sdlm=use_sdlm))
        assert drawn == []

    def test_stage1_never_moves_the_student(self):
        cfg = SceneConfig(count=12, boxes_per_scene=5, shift_max=5.0,
                          jitter=0.4, dropout_rate=0.1, seed=10)
        full = run(cfg)
        skipped = run(cfg, train=TrainConfig(skip_stage1=True))
        stage1 = [r for r in full.epochs if r.phase in ("burn_in", "mutual")]
        assert len(stage1) == SHORT.k1 + SHORT.k2
        assert all(r.loss_terms.get("L_unsup", 0.0) == 0.0 for r in stage1)
        assert full.epochs[len(stage1):] == skipped.epochs
        assert full.final_student_offset == skipped.final_student_offset
        assert full.final_teacher_offset == skipped.final_teacher_offset


class TestKeyedNoiseWiring:
    SCENES = generate_scenes(SceneConfig(count=6, spurious_rate=0.3,
                                         dropout_rate=0.2, seed=3))
    STUDENT = SimDetectorParams((0.5, -0.5), 0.3)

    def test_proposals_carry_the_rgb_rows_of_their_epoch(self):
        [(batch, pools)] = _epoch_proposals(
            self.STUDENT, self.SCENES, NoiseRows(self.SCENES, "rgb"), 4,
            len(self.SCENES))
        assert batch == self.SCENES
        want = perturbed_rows(self.SCENES, "rgb", 0.3, 4)
        assert [(pool.rows.tolist(), pool.scores.tolist()) for pool in pools] \
            == [(rows.tolist(), scores.tolist()) for rows, scores in want]
        assert [[c.class_probs for c in pool] for pool in pools] == \
            [list(map(tuple, rows.tolist())) for rows, _ in want]

    def test_sup_loss_reads_the_ir_rows_of_its_epoch(self):
        acc, n = 0.0, 0
        for scene, (rows, _) in zip(self.SCENES, perturbed_rows(
                self.SCENES, "ir", 0.3, 4)):
            for row, (_, _, cls) in zip(rows.tolist(), scene.ir_gt):
                acc += -math.log(max(row[cls], 1e-12))
                n += 1
        noise = NoiseRows(self.SCENES, "ir")
        assert _sup_loss(self.STUDENT, self.SCENES, noise, 4,
                         _truth_at(self.SCENES, noise)) == acc / n


    def test_default_schedule_draws_each_epoch_once(self, monkeypatch):
        built, drawn = [], []

        class Recording(NoiseRows):
            def __init__(self, scenes, modality):
                super().__init__(scenes, modality)
                self.modality = modality
                built.append(modality)

            def rows(self, scale, salt=0):
                drawn.append((self.modality, salt))
                return super().rows(scale, salt)

        monkeypatch.setattr(crosspair.pipeline, "NoiseRows", Recording)
        scenes = generate_scenes(SceneConfig(count=5, boxes_per_scene=3,
                                             seed=2))
        run_pipeline(scenes, StageConfig(), PlaConfig(),
                     TrainConfig(steps_per_epoch=1, batch_size=2))
        # burn-in 0-19 and mutual 20-29 draw IR, mutual, stage 2 (30-44)
        # and stage 3 (45-64) draw RGB, stage 2 both
        assert sorted(built) == ["ir", "rgb"]
        assert [s for m, s in drawn if m == "ir"] == list(range(45))
        assert [s for m, s in drawn if m == "rgb"] == list(range(20, 65))


def _gather_pool():
    """Scenes of 3 and of 5 classes, so that the IR rows of a batch may
    fall in two NoiseRows groups, scenes without rgb_obs (5 IR classes
    whatever their own count) and scenes without ir_gt."""
    three = SceneConfig(count=3, boxes_per_scene=4, class_count=3,
                        spurious_rate=0.5, dropout_rate=0.2, seed=11)
    five = SceneConfig(count=3, boxes_per_scene=3, seed=12)
    bare = SceneConfig(count=2, boxes_per_scene=2, class_count=3, seed=13)
    lone = SceneConfig(count=2, boxes_per_scene=3, class_count=3,
                       spurious_rate=0.5, seed=14)
    scenes = (generate_scenes(three) + generate_scenes(five)
              + [replace(s, rgb_obs=()) for s in generate_scenes(bare)]
              + [replace(s, ir_gt=()) for s in generate_scenes(lone)])
    return [replace(s, scene_id=i) for i, s in enumerate(scenes)]


GATHER_POOL = _gather_pool()
GATHER_BATCHES = st.lists(st.integers(0, len(GATHER_POOL) - 1), max_size=8)
GATHER_NOISE = st.sampled_from([0.0, math.nan, 1e300, 0.1, 0.7])
GATHER_SALTS = st.integers(-2 ** 64, 2 ** 64)


class TestEpochGather:
    def test_pool_covers_the_cases(self):
        assert {s.class_count for s in GATHER_POOL if s.ir_gt} == {3, 5}
        assert any(not s.rgb_obs and s.ir_gt for s in GATHER_POOL)
        assert any(not s.ir_gt and s.rgb_obs for s in GATHER_POOL)

    @settings(max_examples=150, deadline=None)
    @given(GATHER_BATCHES, GATHER_NOISE, GATHER_SALTS)
    def test_sup_loss_equals_the_per_scene_loop(self, picks, noise, salt):
        scenes = [GATHER_POOL[i] for i in picks]
        acc, n = 0.0, 0
        for scene, (rows, _) in zip(scenes, perturbed_rows(scenes, "ir",
                                                           noise, salt)):
            for row, (_, _, cls) in zip(rows.tolist(), scene.ir_gt):
                acc += -math.log(max(row[cls], 1e-12))
                n += 1
        ir_noise = NoiseRows(scenes, "ir")
        got = _sup_loss(SimDetectorParams((0.0, 0.0), noise), scenes,
                        ir_noise, salt, _truth_at(scenes, ir_noise))
        assert got.hex() == (acc / max(n, 1)).hex()

    @settings(max_examples=150, deadline=None)
    @given(GATHER_BATCHES, st.sampled_from(["ir", "rgb"]), GATHER_NOISE,
           GATHER_SALTS)
    def test_scores_are_the_row_maxima(self, picks, modality, noise, salt):
        scenes = [GATHER_POOL[i] for i in picks]
        for rows, scores in NoiseRows(scenes, modality).rows(noise, salt):
            if len(rows):
                assert scores.tobytes() == rows.max(axis=1).tobytes()
            assert len(scores) == len(rows)

    def test_pinned_calls_take_views_of_their_epochs_draw(self,
                                                          monkeypatch):
        # each detect and rgb_proposals call wraps views of the one draw of
        # its modality in its epoch, so that no call copies rows per scene
        draws, calls = {}, []

        class Recording(NoiseRows):
            def __init__(self, scenes, modality):
                super().__init__(scenes, modality)
                self.modality = modality

            def rows(self, scale, salt=0):
                draw = super().rows(scale, salt)
                assert (self.modality, salt) not in draws
                draws[self.modality, salt] = draw
                return draw

        def spy_detect(params, scene, modality, salt=0, *, rows=None):
            calls.append((modality, salt, rows))
            return detect(params, scene, modality, salt, rows=rows)

        def spy_proposals(params, scene, salt=0, *, rows=None):
            calls.append(("rgb", salt, rows))
            return rgb_proposals(params, scene, salt, rows=rows)

        monkeypatch.setattr(crosspair.pipeline, "NoiseRows", Recording)
        monkeypatch.setattr(crosspair.pipeline, "detect", spy_detect)
        monkeypatch.setattr(crosspair.pipeline, "rgb_proposals",
                            spy_proposals)
        scenes = GATHER_POOL[:8]
        run_pipeline(scenes, StageConfig(1, 1, 1, 1), PlaConfig(),
                     TrainConfig(steps_per_epoch=1, batch_size=3))
        assert {(m, s) for m, s, _ in calls} == set(draws) == {
            ("ir", 0), ("ir", 1), ("ir", 2),
            ("rgb", 1), ("rgb", 2), ("rgb", 3)}
        assert len(calls) == 6 * len(scenes)
        shared = 0
        for modality, salt, (rows, _) in calls:
            if len(rows):
                assert np.shares_memory(rows, draws[modality, salt].values)
                shared += 1
        # every IR call, and the RGB calls of scenes with rgb_obs
        assert shared >= 3 * len(scenes)


class TestBatchFiltering:
    def test_only_assigning_epochs_filter(self, monkeypatch):
        # one filter_masks call per batch of each stage-2/3 epoch, none in
        # burn-in or mutual epochs
        epochs, calls = [], []

        def state(epoch, cfg):
            epochs.append(epoch)
            return stage_state(epoch, cfg)

        def spy(scores, class_ids=None):
            calls.append((epochs[-1], len(scores)))
            return filter_masks(scores, class_ids)

        monkeypatch.setattr(crosspair.pipeline, "stage_state", state)
        monkeypatch.setattr(crosspair.pipeline, "filter_masks", spy)
        scenes = generate_scenes(SceneConfig(count=5, boxes_per_scene=3,
                                             seed=2))
        run_pipeline(scenes, StageConfig(1, 1, 1, 1), PlaConfig(),
                     TrainConfig(steps_per_epoch=1, batch_size=2))
        assert epochs == [0, 1, 2, 3]
        assert calls == [(2, 2), (2, 2), (2, 1), (3, 2), (3, 2), (3, 1)]

    def test_batches(self):
        assert list(batches(list(range(5)), 2)) == [[0, 1], [2, 3], [4]]
        assert list(batches([], 3)) == []
        with pytest.raises(ValueError, match="at least 1"):
            batches([1], 0)

    def test_filter_masks_split_one_batch(self):
        box = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
        scores = [[0.9, 0.2, 0.6], [], [0.3, 0.95], [0.5]]
        pools = []
        for pool in scores:
            rows = np.array([(s, 0.0) for s in pool]).reshape(-1, 2)
            pools.append(Detections((box,) * len(pool),
                                    tuple(range(len(pool))), rows,
                                    rows.max(axis=1)))
        masks = filter_masks([pool.scores for pool in pools])[0]
        kept = [pool.kept(mask) for pool, mask in zip(pools, masks)]
        flat_kept, _ = filter_batch([c for pool in pools for c in pool])
        assert [c for pool in kept for c in pool] == flat_kept
        assert [pool.ids for pool in kept] == [(0, 2), (), (0, 1), (0,)]
        assert kept[0].scores.tolist() == [0.9, 0.6]
        # a pool whose items all survive is passed on as it is
        assert [kept[i] is pools[i] for i in range(4)] == [False, True,
                                                           True, True]


class TestDlcBehaviour:
    def test_dlc_accumulates_across_epochs(self):
        # high confidence noise makes per-epoch filtering erratic; the bag
        # retains any epoch's successes while no-dlc only keeps the last
        cfg = SceneConfig(count=20, boxes_per_scene=6, shift_max=4.0,
                          jitter=0.2, confidence_noise=0.45,
                          size_range=(12.0, 40.0), seed=11)
        with_dlc = run(cfg)
        without = run(cfg, pla=PlaConfig(use_dlc=False))
        assert with_dlc.pair_accuracy >= without.pair_accuracy

    def test_improve_only_never_worse(self):
        cfg = SceneConfig(count=15, boxes_per_scene=5, shift_max=4.0,
                          jitter=1.0, confidence_noise=0.3,
                          size_range=(12.0, 40.0), seed=12)
        base = run(cfg)
        gated = run(cfg, pla=PlaConfig(dlc_improve_only=True))
        assert gated.pair_accuracy >= 0.0
        assert len(gated.epochs) == len(base.epochs)


class TestRepeatedMatches:
    """A scene's kept ids nearly always repeat from one epoch to the next:
    match_scene then returns its table's last result. LabelTable updates
    every scene in every assigning epoch after its first."""

    @pytest.mark.parametrize("cfg, stages, matches, calls, updates", [
        (SceneConfig(count=12, boxes_per_scene=5, shift_max=10, jitter=0.5,
                     dropout_rate=0.1, spurious_rate=0.3, seed=1),
         StageConfig(1, 1, 4, 4), 96, 32, 84),
        # the train_default benchmark input (seed 42)
        (SceneConfig(count=200, boxes_per_scene=6, shift_max=15, jitter=0.5,
                     dropout_rate=0.1, spurious_rate=0.1,
                     size_range=(16, 48), seed=42),
         StageConfig(), 7000, 443, 6800),
    ])
    def test_match_ids_runs_once_per_change_of_kept_ids(
            self, monkeypatch, cfg, stages, matches, calls, updates):
        kept, changes, ran, updated = {}, [], [], []
        match_ids, update = crosspair.matching.match_ids, LabelTable._update

        def spy(ir_boxes, rgb_pool, *args, table, **kwargs):
            ids = [c.source_id for c in rgb_pool]
            changes.append(kept.get(id(table)) != ids)
            kept[id(table)] = ids
            return match_scene(ir_boxes, rgb_pool, *args, table=table,
                               **kwargs)

        def counted(*args):
            ran.append(args)
            return match_ids(*args)

        def counted_update(*args):
            updated.append(args)
            return update(*args)

        monkeypatch.setattr(crosspair.pipeline, "match_scene", spy)
        monkeypatch.setattr(crosspair.matching, "match_ids", counted)
        monkeypatch.setattr(LabelTable, "_update", counted_update)
        scenes = generate_scenes(cfg)
        run_pipeline(scenes, stages, PlaConfig(), TrainConfig())
        assert len(changes) == matches
        assert sum(changes) == len(ran) == calls
        # the first result of each scene initialises its bag
        assert len(updated) == matches - len(scenes) == updates


loop_scene_configs = st.builds(
    SceneConfig, count=st.integers(1, 8), boxes_per_scene=st.integers(0, 5),
    canvas=st.sampled_from([(640, 640), (320, 320), (200, 200)]),
    shift_max=st.sampled_from([4.0, 15.0]),
    jitter=st.sampled_from([0.0, 2.0]),
    dropout_rate=st.sampled_from([0.0, 0.3, 1.0]),
    spurious_rate=st.sampled_from([0.0, 0.5, 1.0]),
    class_count=st.sampled_from([1, 3, 5]),
    confidence_noise=st.sampled_from([0.1, 0.9]), seed=st.integers(0, 2 ** 16))
pla_configs = st.builds(
    PlaConfig, beta=st.sampled_from([0.5, 1.0, 2.5]), use_plf=st.booleans(),
    use_sdlm=st.booleans(), use_dlc=st.booleans(),
    dlc_improve_only=st.booleans(), iou_match_only=st.booleans())


class TestObjectLoop:
    """run_pipeline's labels are those of reference_loop, the assignment
    epochs rebuilt box by box from rgb_proposals, batch_threshold,
    match_scene without a table and init_bag/update_bag."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=loop_scene_configs, pla=pla_configs,
           batch_size=st.integers(1, 4), skip_stage1=st.booleans(),
           skip_stage3=st.booleans(),
           ks=st.lists(st.integers(1, 2), min_size=4, max_size=4))
    # a crowded input where improve_only keeps an older label; random draws
    # meet one in about one in a hundred
    @example(cfg=SceneConfig(count=4, boxes_per_scene=4, canvas=(200, 200),
                             jitter=2.0, spurious_rate=1.0, class_count=3,
                             confidence_noise=0.9, seed=461),
             pla=PlaConfig(beta=2.5, dlc_improve_only=True), batch_size=1,
             skip_stage1=False, skip_stage3=False, ks=[2, 2, 2, 2])
    def test_equals_run_pipeline(self, cfg, pla, batch_size, skip_stage1,
                                 skip_stage3, ks):
        try:
            scenes = generate_scenes(cfg)
        except GenerationError:  # the canvas cannot hold the boxes
            reject()
        stage_cfg = StageConfig(*ks)
        train = TrainConfig(batch_size=batch_size, skip_stage1=skip_stage1,
                            skip_stage3=skip_stage3)
        report = run_pipeline(scenes, stage_cfg, pla, train)
        bags, stats, student = reference_loop(scenes, stage_cfg, pla, train)
        assert report.bags == bags
        assert [list(b.pairs.items()) for b in report.bags.values()] == \
            [list(b.pairs.items()) for b in bags.values()]
        counts = {r.epoch: (r.matched_count, r.copied_count, r.updated_count,
                            r.mean_center_error_rgb)
                  for r in report.epochs if r.phase in ("stage2", "stage3")}
        assert counts == stats
        assert all(r.matched_count == r.copied_count == r.updated_count == 0
                   for r in report.epochs if r.phase in ("burn_in", "mutual"))
        assert report.final_student_offset == student.offset_estimate
        assert (report.matched_pair_precision, report.pair_accuracy) == \
            reference_scores(bags, scenes)
