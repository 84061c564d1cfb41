import gc
import json
import math
import os

import pytest

from crosspair import cli
from crosspair.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, run)
from crosspair.records import (file_digest, read_records, write_csv,
                               write_json, write_records)


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
        # the bad record on line 1 comes before the bad JSON on line 2
        assert (f"{bad}:1: field 'ir_gt': missing"
                in capsys.readouterr().err)

    def test_bad_byte_names_line(self, scene_file, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        first = scene_file.read_bytes().splitlines()[0]
        bad.write_bytes(first + b"\n\xff\n")
        rc = invoke(["match", "--input", str(bad),
                     "-o", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_DATA
        assert (f"{bad}:2: 'utf-8' codec can't decode byte 0xff"
                in capsys.readouterr().err)

    def test_bad_record_comes_before_a_later_bad_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"scene_id": 0}\n\xff\n')
        rc = invoke(["match", "--input", str(bad),
                     "-o", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_DATA
        assert (f"{bad}:1: field 'ir_gt': missing"
                in capsys.readouterr().err)

    def test_pair_table_error_comes_before_a_later_bad_record(
            self, scene_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "LOAD_CHUNK", 4)
        lines = scene_file.read_text().splitlines()
        lines[10] = "not json"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = invoke(["match", "--input", str(bad), "--beta", "1e308",
                     "--batch-size", "4", "-o", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_DATA
        assert "data error: non-finite w: inf" in capsys.readouterr().err

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


def _class_beyond_count(rec):
    rec["ir_gt"][0]["class"] = 9


def _negative_class(rec):
    rec["ir_gt"][0]["class"] = -1


def _fractional_class(rec):
    rec["ir_gt"][0]["class"] = 1.5


def _list_corr_id(rec):
    rec["rgb_obs"][0]["corr_id"] = [1]


def _string_true_offset(rec):
    rec["true_offset"] = ["a", "b"]


def _true_offset_beyond_float(rec):
    rec["true_offset"] = [10**400, 0]


def _short_first_probs(rec):
    rec["rgb_obs"][0]["class_probs"] = rec["rgb_obs"][0]["class_probs"][:2]


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
    (_class_beyond_count, "ir_gt[0].class"),
    (_negative_class, "ir_gt[0].class"),
    (_fractional_class, "ir_gt[0].class"),
    (_short_first_probs, "rgb_obs[1].class_probs"),
    (_list_corr_id, "rgb_obs[0].corr_id"),
    (_string_true_offset, "true_offset"),
    (_true_offset_beyond_float, "true_offset"),
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


SHORT = ["--k1", "1", "--k2", "1", "--k3", "1", "--k4", "1"]


@pytest.mark.parametrize("argv", [
    ["filter", "--batch-size", "0"],
    ["match", "--batch-size", "-2"],
    ["match", "--beta", "0"],
    ["pipeline", "--batch-size", "-2"],
    ["pipeline", "--batch-size", "0"],
    ["pipeline", "--lr", "0"],
    ["pipeline", "--lr", "-1"],
    ["pipeline", "--lr", "nan"],
    ["pipeline", "--lr", "inf"],
    ["pipeline", "--k1", "0"],
    ["pipeline", "--k4", "-1"],
    ["pipeline", "--beta", "0"],
    ["pipeline", "--ema-decay", "1"],
    ["pipeline", "--ema-decay", "-0.1"],
    ["pipeline", "--steps-per-epoch", "-1"],
    ["simulate", "--classes", "0"],
    ["sweep-shift", "--scenes", "0"],
    ["simulate", "--dropout", "2"],
    ["simulate", "--spurious", "-0.5"],
    ["simulate", "--boxes", "-3"],
    ["simulate", "--jitter", "-1"],
    ["simulate", "--shift-max", "inf"],
    ["simulate", "--angle-jitter", "-1"],
    ["simulate", "--confidence-noise", "nan"],
    ["simulate", "--offset", "0", "nan"],
    ["sweep-shift", "--max", "inf"],
    ["sweep-shift", "--min", "nan"],
    ["sweep-shift", "--step", "nan"],
    ["sweep-shift", "--jitter", "-1"],
    ["sweep-shift", "--boxes", "-2"],
    ["simulate", "--scenes", "-1"],
    ["simulate", "--seed", "-1"],
    ["sweep-shift", "--seed", "-1"],
    ["simulate", "--canvas", "0", "0", "--boxes", "0"],
    ["simulate", "--canvas", "640", "-5"],
])
def test_bad_numeric_flag_is_usage_error(scene_file, tmp_path, capsys, argv):
    out = tmp_path / "o.jsonl"
    source = ["--input", str(scene_file)]
    extra = {"filter": source, "match": source,
             "pipeline": SHORT + source}.get(argv[0], [])
    rc = invoke(argv + extra + ["-o", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and argv[1] in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["filter"], ["match"], ["pipeline"] + SHORT])
def test_late_bad_record_leaves_the_previous_output(scene_file, tmp_path,
                                                   monkeypatch, capsys, argv):
    # three chunks and groups of four records; the last holds the bad one,
    # so the lines of the first two are written before it is read
    monkeypatch.setattr(cli, "LOAD_CHUNK", 4)
    argv = argv + ["--batch-size", "4"]
    out = tmp_path / "o.jsonl"
    assert invoke(argv + ["--input", str(scene_file), "-o", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    lines = scene_file.read_text().splitlines()
    rec = json.loads(lines[9])
    rec["rgb_obs"][0]["w"] = -1.0
    lines[9] = json.dumps(rec)
    scene_file.write_text("\n".join(lines) + "\n")
    rc = invoke(argv + ["--input", str(scene_file), "-o", str(out)])
    assert rc == EXIT_DATA
    assert f"{scene_file}:10: field 'rgb_obs[0].w':" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
            if p != scene_file} == {
        name: data for name, data in before.items()
        if name != scene_file.name}


@pytest.mark.parametrize("argv", [["filter"], ["match"], ["pipeline"] + SHORT])
def test_input_is_read_once(scene_file, tmp_path, monkeypatch, argv):
    # the manifest's input digest is taken from the bytes the scenes are
    # parsed from, not from a second read of the file
    digests = []
    monkeypatch.setattr(cli, "file_digest",
                        lambda path: digests.append(path) or file_digest(path))
    out = tmp_path / "o.jsonl"
    assert invoke(argv + ["--input", str(scene_file), "-o", str(out)]) == 0
    assert digests == []
    manifest = json.loads((tmp_path / "o.jsonl.manifest.json").read_text())
    assert manifest["input_digest"] == file_digest(scene_file)


@pytest.mark.parametrize("argv", [["filter"], ["match"], ["pipeline"] + SHORT])
def test_directory_input_is_data_error(tmp_path, capsys, argv):
    out = tmp_path / "o.jsonl"
    rc = invoke(argv + ["--input", str(tmp_path), "-o", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()


def test_directory_manifest_is_data_error(tmp_path, capsys):
    assert invoke(["verify", str(tmp_path)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")


def test_scenes_without_rgb_load(tmp_path):
    # every RGB observation dropped: IR classes up to 8 of 9 stay valid
    scenes = tmp_path / "s.jsonl"
    assert invoke(["simulate", "--scenes", "3", "--boxes", "4", "--classes",
                   "9", "--dropout", "1.0", "--seed", "2",
                   "-o", str(scenes)]) == EXIT_OK
    assert max(g["class"] for rec in read_records(scenes)
               for g in rec["ir_gt"]) >= 5
    for argv in (["match"], ["pipeline"] + SHORT):
        assert invoke(argv + ["--input", str(scenes),
                              "-o", str(tmp_path / "o.jsonl")]) == EXIT_OK


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
                     "--dlc-improve-only",
                     "-o", str(tmp_path / "r.jsonl")])
        assert rc == EXIT_OK

    def test_no_sdlm_checks_no_search_region(self, scene_file, tmp_path):
        # a beta whose search regions overflow is never used without SDLM
        out = tmp_path / "r.jsonl"
        rc = invoke(["pipeline", "--input", str(scene_file),
                     "--k1", "1", "--k2", "1", "--k3", "2", "--k4", "2",
                     "--no-sdlm", "--iou-match-only", "--beta", "1e308",
                     "-o", str(out)])
        assert rc == EXIT_OK
        bags = read_records(str(out) + ".bags.jsonl")
        assert bags and all(r["origin"] == "copied" for r in bags)

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

    def test_ir_map_once_per_ir_ground_truth(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "map_at",
                            lambda preds, gts: calls.append(gts) or 0.5)
        out = tmp_path / "sweep.csv"
        assert invoke(["sweep-shift", "--min", "-6", "--max", "6", "--step",
                       "6", "--scenes", "4", "--boxes", "4",
                       "-o", str(out)]) == EXIT_OK
        # the offset moves no IR box: four IR ground truths, and one RGB
        # mAP per scene of each of the nine cells
        distinct = {tuple(gts) for gts in calls}
        assert len(distinct) == 4
        assert len(calls) == 4 + 9 * 4

    def test_empty_grid_usage_error(self, tmp_path):
        rc = invoke(["sweep-shift", "--min", "5", "--max", "-5",
                     "-o", str(tmp_path / "s.csv")])
        assert rc == EXIT_USAGE

    # checked without building the grid: the loop over these would never
    # end (adding the step stops moving the offset) or ask for ~2e15 points
    @pytest.mark.parametrize("lo, hi, step", [
        (1e20, 1e20, 3.0),
        (-1e9, 1e9, 1e-6),
        # 2**53 - 2 + 0.75 rounds up to 2**53 - 1, then to 2**53, where
        # the float spacing is 2 and adding 0.75 no longer moves it
        (2.0 ** 53 - 2, 2.0 ** 53 + 100, 0.75),
        (-1e308, 1e308, 1e300),
        (0.0, 1000.0, 1.0),
        # the loop runs on to --max + 1e-9
        (-1e-300, 1e-300, 1e-301),
    ])
    def test_grid_check_rejects(self, lo, hi, step):
        with pytest.raises(cli.UsageError):
            cli._check_sweep_grid(lo, hi, step)

    @pytest.mark.parametrize("lo, hi, step", [
        (-15.0, 15.0, 3.0), (0.0, 999.0, 1.0), (1e20, 1e20, 16384.0),
        (-1e-3, 1e-3, 1e-5)])
    def test_grid_check_accepts(self, lo, hi, step):
        cli._check_sweep_grid(lo, hi, step)

    def test_large_grid_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SWEEP_MAX_POINTS", 2)
        out = tmp_path / "s.csv"
        rc = invoke(["sweep-shift", "--min", "-6", "--max", "6", "--step",
                     "6", "--scenes", "1", "--boxes", "1", "-o", str(out)])
        assert rc == EXIT_USAGE
        assert "more than 2 points" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("argv", [
        ["filter"],
        ["match"],
        ["pipeline", "--k1", "1", "--k2", "1", "--k3", "2", "--k4", "2"],
    ])
    def test_verify_checks_input_digest(self, scene_file, tmp_path, capsys,
                                        argv):
        out = tmp_path / "out.jsonl"
        assert invoke(argv + ["--input", str(scene_file),
                              "-o", str(out)]) == EXIT_OK
        manifest_file = tmp_path / "out.jsonl.manifest.json"
        manifest = json.loads(manifest_file.read_text())
        assert manifest["input_digest"] == file_digest(scene_file)
        # a blank line changes no scene, so only the digest tells
        with open(scene_file, "a") as fh:
            fh.write("\n")
        capsys.readouterr()
        assert invoke(["verify", str(manifest_file)]) == EXIT_DATA
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["verify: input changed"]
        # manifests from before input digests skip the check
        del manifest["input_digest"]
        manifest_file.write_text(json.dumps(manifest))
        assert invoke(["verify", str(manifest_file)]) == EXIT_OK


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case,code", [
    ("match", EXIT_OK),
    ("bad input", EXIT_DATA),
    ("verify", EXIT_OK),
])
def test_run_restores_gc_state(scene_file, tmp_path, monkeypatch, enabled,
                               case, code):
    out = tmp_path / "o.jsonl"
    argv = ["match", "--input", str(scene_file), "-o", str(out)]
    if case == "verify":  # its rerun of match is a run nested in a run
        assert invoke(argv) == EXIT_OK
        argv = ["verify", str(out) + ".manifest.json"]
    elif case == "bad input":
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"scene_id": 1}\n')
        argv[2] = str(bad)
    during = []
    match = cli.COMMANDS["match"]
    monkeypatch.setitem(cli.COMMANDS, "match",
                        lambda args: during.append(gc.isenabled())
                        or match(args))
    (gc.enable if enabled else gc.disable)()
    try:
        rc = invoke(argv)
        after = gc.isenabled()
    finally:
        gc.enable()
    assert rc == code
    assert during == [False]
    assert after is enabled


class TestOutputDirEnv:
    def test_relative_output_resolves(self, scene_file, tmp_path, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("CROSSPAIR_OUTPUT_DIR", str(outdir))
        rc = invoke(["simulate", "--scenes", "3", "-o", "s.jsonl"])
        assert rc == EXIT_OK
        assert (outdir / "s.jsonl").exists()


class TestAtomicWrites:
    WRITERS = {
        "records": lambda p, bad: write_records(
            p, [{"a": 1}] + ([{"b": object()}] if bad else [])),
        "csv": lambda p, bad: write_csv(
            p, ["x"], ([1], None) if bad else ([1],)),
        "json": lambda p, bad: write_json(p, {"a": object() if bad else 1}),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_keeps_previous_file(self, tmp_path, kind):
        path = tmp_path / "out"
        path.write_text("previous\n")
        with pytest.raises(TypeError):
            self.WRITERS[kind](path, True)
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["out"]
        self.WRITERS[kind](path, False)
        assert path.read_text() != "previous\n"
        assert os.listdir(tmp_path) == ["out"]
