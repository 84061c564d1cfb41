import json
import math
import os

import pytest

from crosspair.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, run)
from crosspair.records import file_digest, read_records


def invoke(argv):
    return run(argv)


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scenes.jsonl"
    rc = invoke(["simulate", "--scenes", "12", "--boxes", "5",
                 "--shift-max", "4", "--seed", "7", "-o", str(path)])
    assert rc == EXIT_OK
    return path


class TestSimulate:
    def test_scene_count(self, scene_file):
        assert len(read_records(scene_file)) == 12

    def test_manifest_written(self, scene_file):
        manifest = json.loads((scene_file.parent / "scenes.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["artifact_digests"]["scenes.jsonl"] == file_digest(scene_file)

    def test_rerun_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        args = ["simulate", "--scenes", "6", "--seed", "5"]
        assert invoke(args + ["-o", str(a)]) == EXIT_OK
        assert invoke(args + ["-o", str(b)]) == EXIT_OK
        assert file_digest(a) == file_digest(b)

    def test_usage_error_exit_code(self, tmp_path):
        assert invoke(["simulate", "--scenes", "nah",
                       "-o", str(tmp_path / "x.jsonl")]) == EXIT_USAGE

    def test_generation_error_is_data_exit(self, tmp_path):
        rc = invoke(["simulate", "--scenes", "1", "--boxes", "500",
                     "--canvas", "120", "120", "-o", str(tmp_path / "x.jsonl")])
        assert rc == EXIT_DATA


class TestFilter:
    def test_filter_records(self, scene_file, tmp_path):
        out = tmp_path / "kept.jsonl"
        assert invoke(["filter", "--input", str(scene_file),
                       "-o", str(out)]) == EXIT_OK
        recs = read_records(out)
        assert len(recs) == 12
        for r in recs:
            assert r["batch"]["tau"] <= r["batch"]["mu"]
            assert r["kept_ids"] == sorted(r["kept_ids"])


class TestMatch:
    def test_match_output_and_stats(self, scene_file, tmp_path):
        out = tmp_path / "pairs.jsonl"
        assert invoke(["match", "--input", str(scene_file),
                       "-o", str(out)]) == EXIT_OK
        recs = read_records(out)
        assert len(recs) == 12
        stats = json.loads((tmp_path / "pairs.jsonl.stats.json").read_text())
        assert 0.0 <= stats["precision"] <= 1.0

    def test_malformed_input_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"scene_id": 0}\nnot json\n')
        rc = invoke(["match", "--input", str(bad),
                     "-o", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_DATA

    def test_missing_input_is_data_error(self, tmp_path):
        rc = invoke(["match", "--input", str(tmp_path / "absent.jsonl"),
                     "-o", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_DATA


def _duplicate_scene_file(scene_file, tmp_path):
    """Scene file after a blank first line, whose fourth record repeats the
    scene_id of the second."""
    lines = scene_file.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["scene_id"] = json.loads(lines[1])["scene_id"]
    lines[3] = json.dumps(rec)
    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n" + "\n".join(lines) + "\n")
    return dup


@pytest.mark.parametrize("argv", [
    ["match"],
    ["pipeline", "--k1", "1", "--k2", "1", "--k3", "1", "--k4", "1"],
])
def test_duplicate_scene_id_names_file_line_field(scene_file, tmp_path,
                                                  capsys, argv):
    dup = _duplicate_scene_file(scene_file, tmp_path)
    out = tmp_path / "o.jsonl"
    rc = invoke(argv + ["--input", str(dup), "-o", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{dup}:5:" in err
    assert "scene_id" in err and "first on line 3" in err
    assert not out.exists()


def _break_rgb_cx(rec):
    del rec["rgb_obs"][0]["cx"]


def _break_ir_cy(rec):
    rec["ir_gt"][0]["cy"] = math.nan


def _repeat_ir_id(rec):
    rec["ir_gt"][1]["id"] = rec["ir_gt"][0]["id"]


def _repeat_rgb_id(rec):
    rec["rgb_obs"][1]["id"] = rec["rgb_obs"][0]["id"]


def _list_ir_id_then_missing_cx(rec):
    rec["ir_gt"][0]["id"] = [1]
    del rec["ir_gt"][1]["cx"]


def _list_rgb_id(rec):
    rec["rgb_obs"][0]["id"] = [1]


def _list_scene_id(rec):
    rec["scene_id"] = [1]


def _overfull_probs(rec):
    k = len(rec["rgb_obs"][0]["class_probs"])
    rec["rgb_obs"][0]["class_probs"] = [1.5 / k] * k


@pytest.mark.parametrize("argv", [
    ["match"],
    ["pipeline", "--k1", "1", "--k2", "1", "--k3", "1", "--k4", "1"],
])
@pytest.mark.parametrize("corrupt,field", [
    (_break_rgb_cx, "rgb_obs[0].cx"),
    (_break_ir_cy, "ir_gt[0].cy"),
    (_repeat_ir_id, "ir_gt[1].id"),
    (_repeat_rgb_id, "rgb_obs[1].id"),
    (_overfull_probs, "rgb_obs[0].class_probs"),
    (_list_ir_id_then_missing_cx, "ir_gt[0].id"),
    (_list_rgb_id, "rgb_obs[0].id"),
    (_list_scene_id, "scene_id"),
])
def test_bad_record_names_file_line_field(scene_file, tmp_path, capsys,
                                          argv, corrupt, field):
    lines = scene_file.read_text().splitlines()
    rec = json.loads(lines[2])
    corrupt(rec)
    lines[2] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o.jsonl"
    rc = invoke(argv + ["--input", str(bad), "-o", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad}:3: field '{field}':" in err
    assert not out.exists()


class TestPipeline:
    def test_short_run(self, scene_file, tmp_path):
        out = tmp_path / "report.jsonl"
        rc = invoke(["pipeline", "--input", str(scene_file),
                     "--k1", "2", "--k2", "2", "--k3", "3", "--k4", "3",
                     "-o", str(out)])
        assert rc == EXIT_OK
        recs = read_records(out)
        assert "summary" in recs[-1]
        assert len(recs) == 10 + 1
        assert (tmp_path / "report.jsonl.csv").exists()
        assert (tmp_path / "report.jsonl.bags.jsonl").exists()

    def test_ablation_flags_accepted(self, scene_file, tmp_path):
        rc = invoke(["pipeline", "--input", str(scene_file),
                     "--k1", "1", "--k2", "1", "--k3", "2", "--k4", "2",
                     "--no-plf", "--no-dlc", "--iou-match-only",
                     "--dlc-improve-only", "--ema-reset",
                     "-o", str(tmp_path / "r.jsonl")])
        assert rc == EXIT_OK

    def test_skip_flags(self, scene_file, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = invoke(["pipeline", "--input", str(scene_file),
                     "--k1", "1", "--k2", "1", "--k3", "2", "--k4", "2",
                     "--skip-stage1", "-o", str(out)])
        assert rc == EXIT_OK
        recs = read_records(out)
        assert recs[-1]["summary"]["sm_branch_trained"] is False
        assert all(r["phase"] in ("stage2", "stage3")
                   for r in recs if "phase" in r)


class TestSweep:
    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = invoke(["sweep-shift", "--min", "-6", "--max", "6", "--step", "6",
                     "--scenes", "4", "--boxes", "4", "-o", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 9  # header + 3x3 grid

    def test_ir_metric_constant(self, tmp_path):
        out = tmp_path / "sweep.csv"
        invoke(["sweep-shift", "--min", "-6", "--max", "6", "--step", "6",
                "--scenes", "4", "--boxes", "4", "-o", str(out)])
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        ir_vals = {r[2] for r in rows}
        assert len(ir_vals) == 1

    def test_empty_grid_usage_error(self, tmp_path):
        rc = invoke(["sweep-shift", "--min", "5", "--max", "-5",
                     "-o", str(tmp_path / "s.csv")])
        assert rc == EXIT_USAGE


class TestVerify:
    def test_verify_simulate(self, scene_file):
        rc = invoke(["verify", str(scene_file) + ".manifest.json"])
        assert rc == EXIT_OK

    def test_verify_match(self, scene_file, tmp_path):
        out = tmp_path / "pairs.jsonl"
        invoke(["match", "--input", str(scene_file), "-o", str(out)])
        assert invoke(["verify", str(out) + ".manifest.json"]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["filter"],
        ["match"],
        ["pipeline", "--k1", "1", "--k2", "1", "--k3", "2", "--k4", "2"],
    ])
    def test_verify_from_another_cwd(self, scene_file, tmp_path, monkeypatch,
                                     argv):
        run_dir = tmp_path / "a"
        run_dir.mkdir()
        other = tmp_path / "b"
        other.mkdir()
        monkeypatch.chdir(run_dir)
        assert invoke(argv + ["--input", os.path.join("..", scene_file.name),
                              "-o", "out.jsonl"]) == EXIT_OK
        manifest = json.loads((run_dir / "out.jsonl.manifest.json").read_text())
        assert manifest["config"]["input"] == str(scene_file)
        monkeypatch.chdir(other)
        assert invoke(["verify", str(run_dir / "out.jsonl.manifest.json")]) == EXIT_OK

    def test_verify_detects_tamper(self, scene_file):
        with open(scene_file, "a") as fh:
            fh.write("\n")
        rc = invoke(["verify", str(scene_file) + ".manifest.json"])
        assert rc == EXIT_DATA


class TestOutputDirEnv:
    def test_relative_output_resolves(self, scene_file, tmp_path, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("CROSSPAIR_OUTPUT_DIR", str(outdir))
        rc = invoke(["simulate", "--scenes", "3", "-o", "s.jsonl"])
        assert rc == EXIT_OK
        assert (outdir / "s.jsonl").exists()
