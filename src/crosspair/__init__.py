"""Cross-modality oriented-box pseudo-label assignment toolkit."""

from .correction import LabelBag, LabelPair, init_bag, update_bag
from .filtering import BatchThreshold, ScoredBox, batch_threshold, filter_batch, score_of
from .geometry import OrientedBox, corners_of, intersect_area, iou, point_in_obb
from .matching import MatchResult, match_scene, search_region
from .metrics import PRCurve, average_precision, correspondence_score, mean_ap
from .pipeline import PipelineReport, PlaConfig, TrainConfig, run_pipeline
from .schedule import (EmaState, Phase, StageConfig, StageState, ema_update,
                       lambda_at, loss_terms_at, phase_of, stage_state)
from .simulate import (Scene, SceneConfig, SimDetectorParams, detect,
                       generate_scene, generate_scenes, least_squares_offset,
                       perturbed_rows, rgb_proposals, student_step)

__version__ = "0.1.0"
