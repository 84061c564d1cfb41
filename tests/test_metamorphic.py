"""Metamorphic relations of the command line: changes to an input file
that must leave the outputs byte for byte as they are.

Scale: every box's cx, cy, w and h times a power of two. Each coordinate,
extent, product and quotient the gate, the clipping and the IoU take is
then scaled exactly or not at all, so every decision and every IoU float
stays the same; the score filter reads no box. match and filter must write
the same bytes, manifests aside (they name the input's digest).
"""
import json

import pytest

from crosspair.cli import EXIT_OK, run

CONFIGS = {
    # like the train_default workload's scenes, fewer of them
    "train": ["--scenes", "40", "--boxes", "6", "--shift-max", "15",
              "--jitter", "0.5", "--dropout", "0.1", "--spurious", "0.1"],
    # like the assign_dense workload's scenes, fewer of them
    "crowded": ["--scenes", "10", "--boxes", "32", "--canvas", "1024", "1024",
                "--shift-max", "8", "--jitter", "0.5", "--dropout", "0.1",
                "--spurious", "1.0"],
}
SEEDS = (3, 17)
SCALES = (2.0, 0.5, 1024.0)
COMMANDS = {
    "match": ["match"],
    "match_iou": ["match", "--iou-match-only"],
    "match_noplf": ["match", "--no-plf", "--beta", "1.5"],
    "filter_per_class": ["filter", "--per-class"],
}


def _scaled(src, dst, factor):
    """Write src's records to dst with every box's cx, cy, w and h times
    factor."""
    with open(src) as f, open(dst, "w") as out:
        for line in f:
            rec = json.loads(line)
            for box in rec["ir_gt"] + rec["rgb_obs"]:
                for key in ("cx", "cy", "w", "h"):
                    box[key] *= factor
            out.write(json.dumps(rec) + "\n")


def _outputs(tmp_path, name, scenes):
    """The bytes of each command's outputs on scenes, manifests excluded."""
    got = {}
    for tag, argv in COMMANDS.items():
        out = tmp_path / f"{name}.{tag}.jsonl"
        assert run(argv + ["--input", str(scenes), "-o", str(out)]) == EXIT_OK
        stats = out.with_name(out.name + ".stats.json")
        got[tag] = (out.read_bytes(),
                    stats.read_bytes() if stats.exists() else None)
    return got


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_scaled_boxes_give_the_same_bytes(tmp_path, config, seed):
    scenes = tmp_path / "scenes.jsonl"
    assert run(["simulate", *CONFIGS[config], "--seed", str(seed),
                "-o", str(scenes)]) == EXIT_OK
    want = _outputs(tmp_path, "unscaled", scenes)
    assert any(b'"pairs": [[' in out for out, _ in want.values())
    for factor in SCALES:
        scaled = tmp_path / f"scenes_x{factor}.jsonl"
        _scaled(scenes, scaled, factor)
        assert _outputs(tmp_path, f"x{factor}", scaled) == want, factor
