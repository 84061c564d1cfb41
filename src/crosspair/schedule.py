"""Three-stage progressive training schedule and the EMA teacher track.

Epochs tile four half-open phases: burn-in, teacher-student mutual
learning (with a linear 0 -> 1 unsupervised-loss ramp), guided decoupled
training, and decoupled self-tuning.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Phase(enum.Enum):
    BURN_IN = "burn_in"
    MUTUAL = "mutual"
    STAGE2 = "stage2"
    STAGE3 = "stage3"


SM_STUDENT = "SM_student"
SM_TEACHER = "SM_teacher"
DMD_STUDENT = "DMD_student"
DMD_TEACHER = "DMD_teacher"

BRANCHES = {
    Phase.BURN_IN: frozenset({SM_STUDENT}),
    Phase.MUTUAL: frozenset({SM_STUDENT, SM_TEACHER}),
    Phase.STAGE2: frozenset({SM_STUDENT, DMD_STUDENT, SM_TEACHER}),
    Phase.STAGE3: frozenset({DMD_STUDENT, DMD_TEACHER}),
}

L_SUP = "L_sup"
L_UNSUP = "L_unsup"
L_PAIRED = "L_paired"


@dataclass(frozen=True)
class StageConfig:
    k1: int = 20
    k2: int = 10
    k3: int = 15
    k4: int = 20

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "k4"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def total(self) -> int:
        return self.k1 + self.k2 + self.k3 + self.k4


def phase_of(global_epoch: int, cfg: StageConfig) -> Phase:
    if global_epoch < 0:
        raise ValueError(f"negative epoch: {global_epoch}")
    e = global_epoch
    if e < cfg.k1:
        return Phase.BURN_IN
    if e < cfg.k1 + cfg.k2:
        return Phase.MUTUAL
    if e < cfg.k1 + cfg.k2 + cfg.k3:
        return Phase.STAGE2
    if e < cfg.total:
        return Phase.STAGE3
    raise ValueError(f"epoch {global_epoch} beyond schedule end {cfg.total}")


def lambda_at(mutual_epoch_index: int, k2: int) -> float:
    """Unsupervised-loss weight: linear from 0 to 1 over the mutual phase."""
    if not 0 <= mutual_epoch_index < k2:
        raise ValueError(f"mutual epoch index {mutual_epoch_index} not in [0, {k2})")
    if k2 == 1:
        return 1.0
    return mutual_epoch_index / (k2 - 1)


@dataclass(frozen=True)
class StageState:
    global_epoch: int
    phase: Phase
    active_branches: frozenset[str]
    lam: float  # only meaningful during the mutual phase


def stage_state(global_epoch: int, cfg: StageConfig) -> StageState:
    phase = phase_of(global_epoch, cfg)
    lam = 1.0
    if phase is Phase.MUTUAL:
        lam = lambda_at(global_epoch - cfg.k1, cfg.k2)
    return StageState(global_epoch, phase, BRANCHES[phase], lam)


def loss_terms_at(state: StageState) -> dict[str, float]:
    """Active loss terms and their weights for the state's phase."""
    if state.phase is Phase.BURN_IN:
        return {L_SUP: 1.0}
    if state.phase is Phase.MUTUAL:
        return {L_SUP: 1.0, L_UNSUP: state.lam}
    if state.phase is Phase.STAGE2:
        return {L_SUP: 1.0, L_UNSUP: 1.0, L_PAIRED: 1.0}
    return {L_PAIRED: 1.0}


@dataclass(frozen=True)
class EmaState:
    teacher_params: np.ndarray
    decay: float = 0.9999

    def __post_init__(self):
        arr = np.asarray(self.teacher_params, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite teacher parameters")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError(f"decay must be in [0,1), got {self.decay}")
        object.__setattr__(self, "teacher_params", arr)


def ema_update(ema: EmaState, student_params) -> EmaState:
    student = np.asarray(student_params, dtype=float)
    if student.shape != ema.teacher_params.shape:
        raise ValueError(f"shape mismatch: {student.shape} vs {ema.teacher_params.shape}")
    if not np.all(np.isfinite(student)):
        raise ValueError("non-finite student parameters")
    new = ema.decay * ema.teacher_params + (1.0 - ema.decay) * student
    return EmaState(new, ema.decay)
