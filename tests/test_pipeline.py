import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import crosspair.matching
import crosspair.pipeline
from crosspair.correction import COPIED, MATCHED, LabelTable
from crosspair.filtering import ScoredBox, filter_batch
from crosspair.geometry import OrientedBox
from crosspair.matching import match_scene, pair_tables
from crosspair.pipeline import (NumericError, PlaConfig, TrainConfig,
                                _epoch_proposals, _sup_loss, batches,
                                filter_pools, run_pipeline)
from crosspair.schedule import StageConfig, stage_state
from crosspair.simulate import (NoiseRows, SceneConfig, SimDetectorParams,
                                generate_scenes, least_squares_offset,
                                perturbed_rows)

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
        assert [[c.class_probs for c in pool] for pool in pools] == \
            perturbed_rows(self.SCENES, "rgb", 0.3, 4)

    def test_sup_loss_reads_the_ir_rows_of_its_epoch(self):
        acc, n = 0.0, 0
        for scene, rows in zip(self.SCENES, perturbed_rows(
                self.SCENES, "ir", 0.3, 4)):
            for row, (_, _, cls) in zip(rows, scene.ir_gt):
                acc += -math.log(max(row[cls], 1e-12))
                n += 1
        assert _sup_loss(self.STUDENT, self.SCENES,
                         NoiseRows(self.SCENES, "ir"), 4) == acc / n


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

class TestBatchFiltering:
    def test_only_assigning_epochs_filter(self, monkeypatch):
        # one filter_pools call per batch of each stage-2/3 epoch, none in
        # burn-in or mutual epochs
        epochs, calls = [], []

        def state(epoch, cfg):
            epochs.append(epoch)
            return stage_state(epoch, cfg)

        def spy(pools):
            calls.append((epochs[-1], len(pools)))
            return filter_pools(pools)

        monkeypatch.setattr(crosspair.pipeline, "stage_state", state)
        monkeypatch.setattr(crosspair.pipeline, "filter_pools", spy)
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

    def test_filter_pools_splits_one_batch(self):
        box = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
        scores = [[0.9, 0.2, 0.6], [], [0.3, 0.95], [0.5]]
        pools = [[ScoredBox(box, (s, 1.0 - s), j) for j, s in enumerate(pool)]
                 for pool in scores]
        kept, threshold = filter_pools(pools)
        flat_kept, flat_threshold = filter_batch(
            [c for pool in pools for c in pool])
        assert threshold == flat_threshold
        assert [c for pool in kept for c in pool] == flat_kept
        assert all(any(c is o for o in pool)
                   for pool, part in zip(pools, kept) for c in part)


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
