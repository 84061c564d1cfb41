import numpy as np
import pytest

from crosspair.schedule import (L_PAIRED, L_SUP, L_UNSUP, EmaState, Phase,
                                StageConfig, ema_update, lambda_at,
                                loss_terms_at, phase_of, stage_state)

DEFAULTS = StageConfig()


class TestStageConfig:
    def test_defaults(self):
        assert (DEFAULTS.k1, DEFAULTS.k2, DEFAULTS.k3, DEFAULTS.k4) == (20, 10, 15, 20)
        assert DEFAULTS.total == 65

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            StageConfig(k2=0)


class TestPhaseOf:
    def test_boundaries(self):
        assert phase_of(0, DEFAULTS) is Phase.BURN_IN
        assert phase_of(19, DEFAULTS) is Phase.BURN_IN
        assert phase_of(20, DEFAULTS) is Phase.MUTUAL
        assert phase_of(29, DEFAULTS) is Phase.MUTUAL
        assert phase_of(30, DEFAULTS) is Phase.STAGE2
        assert phase_of(44, DEFAULTS) is Phase.STAGE2
        assert phase_of(45, DEFAULTS) is Phase.STAGE3
        assert phase_of(64, DEFAULTS) is Phase.STAGE3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phase_of(65, DEFAULTS)
        with pytest.raises(ValueError):
            phase_of(-1, DEFAULTS)

    def test_tiling_no_gaps(self):
        cfg = StageConfig(3, 2, 4, 5)
        counts = {p: 0 for p in Phase}
        for e in range(cfg.total):
            counts[phase_of(e, cfg)] += 1
        assert counts == {Phase.BURN_IN: 3, Phase.MUTUAL: 2,
                          Phase.STAGE2: 4, Phase.STAGE3: 5}


class TestLambda:
    def test_endpoints(self):
        assert lambda_at(0, 10) == 0.0
        assert lambda_at(9, 10) == 1.0

    def test_linear_value(self):
        assert lambda_at(4, 10) == pytest.approx(4 / 9)

    def test_monotone(self):
        vals = [lambda_at(i, 10) for i in range(10)]
        assert vals == sorted(vals)

    def test_single_epoch_phase(self):
        assert lambda_at(0, 1) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_at(10, 10)
        with pytest.raises(ValueError):
            lambda_at(-1, 10)


class TestLossTerms:
    def test_burn_in(self):
        assert loss_terms_at(stage_state(0, DEFAULTS)) == {L_SUP: 1.0}

    def test_mutual_carries_lambda(self):
        state = stage_state(24, DEFAULTS)  # mutual index 4
        assert loss_terms_at(state) == {L_SUP: 1.0, L_UNSUP: pytest.approx(4 / 9)}

    def test_stage2_all_three(self):
        assert loss_terms_at(stage_state(30, DEFAULTS)) == {
            L_SUP: 1.0, L_UNSUP: 1.0, L_PAIRED: 1.0}

    def test_stage3_paired_only(self):
        assert loss_terms_at(stage_state(64, DEFAULTS)) == {L_PAIRED: 1.0}


class TestEma:
    def test_decay_zero_copies_student(self):
        ema = EmaState(np.zeros(3), decay=0.0)
        new = ema_update(ema, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(new.teacher_params, [1, 2, 3])

    def test_fixed_point(self):
        ema = EmaState(np.array([2.0, -1.0]), decay=0.9)
        new = ema_update(ema, np.array([2.0, -1.0]))
        assert np.allclose(new.teacher_params, [2.0, -1.0])

    def test_single_step_value(self):
        ema = EmaState(np.array([0.0]), decay=0.9999)
        new = ema_update(ema, np.array([1.0]))
        assert new.teacher_params[0] == pytest.approx(0.0001, rel=1e-12)

    def test_geometric_contraction(self):
        s = np.array([3.0, -2.0])
        ema = EmaState(np.zeros(2), decay=0.9999)
        d0 = np.linalg.norm(ema.teacher_params - s)
        for n in range(1, 1001):
            ema = ema_update(ema, s)
        want = 0.9999 ** 1000 * d0
        got = np.linalg.norm(ema.teacher_params - s)
        assert got == pytest.approx(want, rel=1e-9)

    def test_convex_hull(self):
        rng = np.random.default_rng(0)
        ema = EmaState(np.array([0.5]), decay=0.99)
        lo, hi = 0.5, 0.5
        for _ in range(200):
            s = rng.uniform(-1, 1)
            lo, hi = min(lo, s), max(hi, s)
            ema = ema_update(ema, np.array([s]))
            assert lo - 1e-12 <= ema.teacher_params[0] <= hi + 1e-12

    def test_dimension_mismatch(self):
        ema = EmaState(np.zeros(2))
        with pytest.raises(ValueError):
            ema_update(ema, np.zeros(3))

    def test_non_finite_rejected(self):
        ema = EmaState(np.zeros(1))
        with pytest.raises(ValueError):
            ema_update(ema, np.array([np.nan]))
        with pytest.raises(ValueError):
            EmaState(np.array([np.inf]))
