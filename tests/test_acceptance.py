"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s or look at captured output)."""
import math
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from crosspair.correction import init_bag, update_bag
from crosspair.filtering import ScoredBox, filter_batch
from crosspair.geometry import OrientedBox, iou
from crosspair.matching import match_scene
from crosspair.metrics import correspondence_score, pooled_correspondence
from crosspair.pipeline import PlaConfig, TrainConfig, run_pipeline
from crosspair.schedule import (EmaState, Phase, StageConfig, ema_update,
                                lambda_at, loss_terms_at, phase_of, stage_state)
from crosspair.simulate import (SceneConfig, SimDetectorParams, generate_scenes,
                                rgb_proposals)
from crosspair.cli import run as cli_run
from reference import raster_iou_oracle

BOX = OrientedBox(0, 0, 10, 10, 0)


def report(n, name, ok):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_iou_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        a = OrientedBox(rng.uniform(0, 300), rng.uniform(0, 300),
                        rng.uniform(4, 128), rng.uniform(4, 128),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        b = OrientedBox(a.cx + rng.uniform(-100, 100),
                        a.cy + rng.uniform(-100, 100),
                        rng.uniform(4, 128), rng.uniform(4, 128),
                        rng.uniform(-math.pi / 2, math.pi / 2))
        worst = max(worst, abs(iou(a, b) - raster_iou_oracle(a, b, 512)))
    elapsed = time.monotonic() - t0
    report(1, "iou oracle equivalence", worst <= 0.02 and elapsed < 30.0)


def test_criterion_2_filter_exactness():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10_000):
        scores = rng.uniform(0, 1, rng.integers(1, 24))
        cands = [ScoredBox(BOX, (float(s),), i) for i, s in enumerate(scores)]
        kept, thr = filter_batch(cands)
        mu = scores.mean()
        sigma = math.sqrt(((scores - mu) ** 2).mean())
        ref = [c for c in cands if c.score >= mu - sigma]
        if kept != ref or not kept:
            ok = False
            break
    report(2, "filter exactness", ok)


def _match_with_plf(scene, beta=1.0):
    kept, _ = filter_batch(list(scene.rgb_obs))
    return match_scene(scene.ir_boxes, kept, beta)


def test_criterion_3_matcher_recovery():
    # clean: offsets bounded by beta * min(w,h)/2 for every box
    clean = SceneConfig(count=500, boxes_per_scene=6, shift_max=4.0,
                        jitter=0.0, dropout_rate=0.0, spurious_rate=0.0,
                        confidence_noise=0.0, size_range=(12.0, 40.0), seed=55)
    scores = [correspondence_score(_match_with_plf(s), s)
              for s in generate_scenes(clean)]
    agg = pooled_correspondence(scores)
    clean_ok = agg.precision == 1.0 and agg.recall == 1.0

    noisy = SceneConfig(count=500, boxes_per_scene=6, shift_max=4.0,
                        jitter=0.5, dropout_rate=0.2, spurious_rate=0.2,
                        confidence_noise=0.1, size_range=(12.0, 40.0), seed=56)
    noisy_scenes = generate_scenes(noisy)
    noisy_scores = [correspondence_score(_match_with_plf(s), s)
                    for s in noisy_scenes]
    noisy_agg = pooled_correspondence(noisy_scores)
    noisy_ok = noisy_agg.precision is not None and noisy_agg.precision >= 0.95

    # sanity: greedy stays within 2% of the optimal assignment's precision
    opt_correct = opt_pairs = 0
    for s in noisy_scenes:
        kept, _ = filter_batch(list(s.rgb_obs))
        if not kept:
            continue
        ir = s.ir_boxes
        cost = np.zeros((len(ir), len(kept)))
        for i, (_, ib) in enumerate(ir):
            for j, c in enumerate(kept):
                cost[i, j] = -iou(ib, c.box)
        ri, cj = linear_sum_assignment(cost)
        corr = s.corr_map
        for i, j in zip(ri, cj):
            if cost[i, j] < 0:
                opt_pairs += 1
                opt_correct += corr.get(kept[j].source_id) == ir[i][0]
    opt_precision = opt_correct / opt_pairs if opt_pairs else 1.0
    gap_ok = noisy_agg.precision >= opt_precision - 0.02
    report(3, "matcher recovery", clean_ok and noisy_ok and gap_ok)


def test_criterion_4_dlc_invariants():
    cfg = SceneConfig(count=30, boxes_per_scene=6, shift_max=5.0, jitter=0.5,
                      dropout_rate=0.2, spurious_rate=0.2,
                      confidence_noise=0.35, size_range=(14.0, 40.0), seed=77)
    scenes = generate_scenes(cfg)
    params = SimDetectorParams((0.0, 0.0), 0.35)
    ok = True
    for scene in scenes:
        ir_snapshot = {i: b for i, b in scene.ir_boxes}
        prev_bag = None
        prev_rgb = None
        for epoch in range(20):
            proposals = rgb_proposals(params, scene, salt=epoch)
            kept, _ = filter_batch(proposals)
            matches = match_scene(scene.ir_boxes, kept, 1.0)
            pool = scene.rgb_obs
            if prev_bag is None:
                bag = init_bag(scene.scene_id, scene.ir_boxes, matches, pool, epoch)
            else:
                bag = update_bag(prev_bag, matches, pool, epoch)
            # cardinality conservation and reference-side immutability
            ok &= set(bag.pairs) == set(ir_snapshot)
            ok &= all(p.ir_box == ir_snapshot[i] for i, p in bag.pairs.items())
            # every fresh rgb side traces to a same-epoch match
            fresh = matches.pair_for
            pool_by_id = {o.source_id: o.box for o in pool}
            for i, p in bag.pairs.items():
                if prev_rgb is not None and p.rgb_box != prev_rgb[i]:
                    ok &= i in fresh and p.rgb_box == pool_by_id[fresh[i][0]]
                    ok &= p.last_update_epoch == epoch
            # replay idempotence
            if prev_bag is not None:
                again = update_bag(bag, matches, pool, epoch + 100)
                ok &= again.pairs == bag.pairs
            prev_bag = bag
            prev_rgb = {i: p.rgb_box for i, p in bag.pairs.items()}
        if not ok:
            break
    report(4, "dlc invariants", ok)


def test_criterion_5_scheduler_conformance():
    cfg = StageConfig()
    ok = cfg.total == 65
    seen = []
    for e in range(65):
        seen.append(phase_of(e, cfg))
    ok &= seen[:20] == [Phase.BURN_IN] * 20
    ok &= seen[20:30] == [Phase.MUTUAL] * 10
    ok &= seen[30:45] == [Phase.STAGE2] * 15
    ok &= seen[45:65] == [Phase.STAGE3] * 20
    try:
        phase_of(65, cfg)
        ok = False
    except ValueError:
        pass
    ok &= lambda_at(0, cfg.k2) == 0.0 and lambda_at(cfg.k2 - 1, cfg.k2) == 1.0
    lams = [lambda_at(i, cfg.k2) for i in range(cfg.k2)]
    ok &= lams == sorted(lams)
    ok &= set(loss_terms_at(stage_state(0, cfg))) == {"L_sup"}
    mutual = loss_terms_at(stage_state(24, cfg))
    ok &= set(mutual) == {"L_sup", "L_unsup"} and mutual["L_unsup"] == lambda_at(4, 10)
    ok &= loss_terms_at(stage_state(30, cfg)) == {
        "L_sup": 1.0, "L_unsup": 1.0, "L_paired": 1.0}
    ok &= loss_terms_at(stage_state(64, cfg)) == {"L_paired": 1.0}
    report(5, "scheduler conformance", ok)


def test_criterion_6_ema_closed_form():
    s = np.array([1.5, -0.5, 2.0])
    ema = EmaState(np.array([-1.0, 4.0, 0.0]), decay=0.9999)
    d0 = np.linalg.norm(ema.teacher_params - s)
    ok = True
    for n in range(1, 1001):
        ema = ema_update(ema, s)
        want = (0.9999 ** n) * d0
        got = np.linalg.norm(ema.teacher_params - s)
        if abs(got - want) > 1e-9 * want:
            ok = False
            break
    report(6, "ema closed form", ok)


def test_criterion_7_end_to_end_pipeline():
    t0 = time.monotonic()
    cfg = SceneConfig(count=200, boxes_per_scene=6, shift_max=15.0, jitter=0.5,
                      dropout_rate=0.1, spurious_rate=0.1,
                      size_range=(16.0, 48.0), seed=42)
    scenes = generate_scenes(cfg)
    rep = run_pipeline(scenes, StageConfig(), PlaConfig(), TrainConfig())
    dist = np.linalg.norm(np.array(rep.final_student_offset)
                          - np.array(rep.analytic_optimum))
    elapsed = time.monotonic() - t0
    ok = (dist < 0.5
          and rep.final_rgb_center_error < rep.copy_baseline_error
          and elapsed < 300.0)
    report(7, "end-to-end pipeline", ok)


def test_criterion_8_shift_sweep_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli_run(["sweep-shift", "--min", "-15", "--max", "15", "--step", "3",
                  "--scenes", "12", "--boxes", "6", "--seed", "9",
                  "-o", str(out)])
    ok = rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    ok &= len(rows) == 121
    table = {(float(r[0]), float(r[1])): (float(r[2]), float(r[4]))
             for r in rows}
    ir_vals = {v[0] for v in table.values()}
    ok &= len(ir_vals) == 1
    origin = table[(0.0, 0.0)][1]
    ok &= all(origin >= v[1] for v in table.values())

    def inversions(ray):
        vals = [table[p][1] for p in ray]
        return sum(1 for a, b in zip(vals, vals[1:]) if b > a + 1e-12)

    steps = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0]
    rays = [[(d, 0.0) for d in steps], [(-d, 0.0) for d in steps],
            [(0.0, d) for d in steps], [(0.0, -d) for d in steps]]
    ok &= all(inversions(r) <= 1 for r in rays)
    report(8, "shift-sweep shape", ok)


def test_criterion_9_ablation_ordering():
    # large boxes + dense spurious detections so wrong matches are possible;
    # low confidence noise so the score filter never drops a true observation
    cfg = SceneConfig(count=120, boxes_per_scene=6, shift_max=5.0, jitter=0.5,
                      dropout_rate=0.3, spurious_rate=1.0,
                      confidence_noise=0.1, size_range=(30.0, 60.0), seed=101)
    scenes = generate_scenes(cfg)
    stage = StageConfig(2, 2, 8, 8)

    def precision(pla):
        rep = run_pipeline(scenes, stage, pla, TrainConfig())
        # no matched pairs means no false positives, vacuously perfect
        return 1.0 if rep.matched_pair_precision is None else rep.matched_pair_precision

    full = precision(PlaConfig())
    no_plf = precision(PlaConfig(use_plf=False))
    no_sdlm = precision(PlaConfig(use_sdlm=False))
    no_dlc = precision(PlaConfig(use_dlc=False))
    print(f"  full={full:.4f} no_plf={no_plf:.4f} "
          f"no_sdlm={no_sdlm:.4f} no_dlc={no_dlc:.4f}")
    ok = (full >= no_plf - 0.01
          and full >= no_sdlm - 0.01
          and full >= no_dlc - 0.01)
    report(9, "ablation ordering", ok)
