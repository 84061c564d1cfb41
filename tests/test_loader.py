"""The columnar scene loader against the per-record loop it stands in for.

The scene stream cli._scenes builds each chunk of records with
simulate.scenes_from_records, and record by record with scene_from_record
when that returns None. With scenes_from_records patched to return None it
is the per-record loop alone; on any record file the two must give the same
scenes, value for value and type for type, or the same error.
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import tempfile
import weakref
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair import cli
from crosspair.cli import EXIT_DATA, EXIT_OK, run
from crosspair.filtering import PROB_SUM_TOL
from crosspair.records import (RecordError, file_digest, iter_records,
                               read_records)


def _flat(value):
    """value as nested (type name, contents) pairs. Floats compare by
    float.hex, so 0.0 and -0.0, or 1 and 1.0, differ."""
    kind = type(value).__name__
    if isinstance(value, float):
        return kind, value.hex()
    if isinstance(value, (tuple, list)):
        return kind, tuple(_flat(v) for v in value)
    if dataclasses.is_dataclass(value):
        return kind, tuple((f.name, _flat(getattr(value, f.name)))
                           for f in dataclasses.fields(value))
    return kind, repr(value)


def _outcome(path, columnar=True, chunk=cli.LOAD_CHUNK):
    """The scenes of cli._scenes(path), flattened, or the error it raises."""
    with mock.patch.object(cli, "LOAD_CHUNK", chunk):
        with mock.patch.object(cli, "scenes_from_records",
                               cli.scenes_from_records if columnar
                               else lambda records: None):
            try:
                return "ok", _flat(list(cli._scenes(path)))
            except Exception as exc:  # any error, as long as both agree
                return "error", type(exc).__name__, str(exc)


def _write(path, records, blank_first=False):
    lines = [json.dumps(rec) for rec in records]
    path.write_text("\n" * blank_first + "\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Random record files

coords = st.one_of(st.floats(-1e3, 1e3), st.integers(-1000, 1000))
extents = st.one_of(st.floats(0.5, 100.0), st.integers(1, 100))
angles = st.one_of(st.floats(-10.0, 10.0), st.integers(-4, 4), st.booleans())
corr_ids = st.integers(-1, 40)

# values a field can be set to, by the field's name: bad ones, unusual ones
# the scalar path accepts, and ints beyond int64 and beyond float
ANY = [[], {}, None, "x", 5, [1.0]]
NUMBERS = [math.nan, math.inf, -math.inf, 0, -1, -0.0, 1.5, True, False,
           2**63, 2**64, -2**63 - 1, 10**400, None, "1.0", [1.0]]
ODD = {
    "cx": NUMBERS, "cy": NUMBERS, "w": NUMBERS, "h": NUMBERS,
    "theta": NUMBERS,
    "id": [1.5, 0.0, 7, 2**63, -2**63 - 1, None, "1", True, [1]],
    "class": [4, 5, -1, 1.5, True, 2**64, None],
    "prob": NUMBERS + [0.5, "0.5"],
}
ODD["scene_id"] = ODD["id"]
DELETE = object()
# 0.75 plus these is exactly 1 + PROB_SUM_TOL and the next float up
AT_BOUND = (1.0 + PROB_SUM_TOL) - 0.75
ABOVE_BOUND = math.nextafter(1.0 + PROB_SUM_TOL, 2.0) - 0.75


@st.composite
def ids(draw, n):
    """n distinct ids; 0 and 1 may come as False and True."""
    values = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n,
                           unique=True))
    return [bool(v) if v < 2 and draw(st.booleans()) else v for v in values]


@st.composite
def prob_rows(draw, k):
    kind = draw(st.sampled_from(["mix", "one_hot", "bool_hot", "zeros",
                                 "near_bound", "strings"]))
    if kind in ("mix", "strings"):
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        total = max(sum(w), 1.0)
        row = [x / total for x in w]
        return [repr(x) for x in row] if kind == "strings" else row
    if kind in ("one_hot", "bool_hot"):
        hot = draw(st.integers(0, k - 1))
        return [(j == hot) if kind == "bool_hot" else int(j == hot)
                for j in range(k)]
    if kind == "zeros":  # ties between 0.0 and -0.0
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=k,
                             max_size=k))
    # a sum at the 1 + PROB_SUM_TOL bound or an ulp above it
    row = [0.0] * k
    row[0] = 0.75
    row[-1] += draw(st.sampled_from([AT_BOUND, ABOVE_BOUND]))
    return row


@st.composite
def scene_records(draw, scene_id, k):
    def box():
        return {"cx": draw(coords), "cy": draw(coords), "w": draw(extents),
                "h": draw(extents), "theta": draw(angles)}

    ir_gt = [{"id": i, **box(), "class": draw(st.integers(0, k - 1))}
             for i in draw(ids(draw(st.integers(0, 3))))]
    rgb_obs = [{"id": i, **box(), "class_probs": draw(prob_rows(k)),
                "corr_id": draw(corr_ids)}
               for i in draw(ids(draw(st.integers(0, 3))))]
    return {"scene_id": scene_id, "canvas": [640, 480],
            "true_offset": [draw(coords), draw(coords)],
            "ir_gt": ir_gt, "rgb_obs": rgb_obs}


def _slots(value):
    """(container, key, name) of every dict entry and list item within
    value; a list item is named "prob"."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        items = []
    for key, item in items:
        yield value, key, "prob" if isinstance(key, int) else key
        yield from _slots(item)


def _repeats(records, r):
    """(container, key, value) that repeat the previous scene id or the
    first ir_gt or rgb_obs id of record r."""
    rec = records[r]
    out = []
    if r and isinstance(records[r - 1], dict) and "scene_id" in records[r - 1]:
        out.append((rec, "scene_id", records[r - 1]["scene_id"]))
    for key in ("ir_gt", "rgb_obs"):
        items = rec.get(key)
        if (isinstance(items, list) and len(items) > 1
                and all(isinstance(i, dict) and "id" in i for i in items)):
            out.append((items[-1], "id", items[0]["id"]))
    return out


def _mutate(draw, records):
    """Break or bend one record: an odd value or a deleted key anywhere,
    a repeated scene or item id, or a record that is not an object."""
    r = draw(st.integers(0, len(records) - 1))
    kind = draw(st.sampled_from(["slot", "slot", "slot", "repeat", "record"]))
    if kind == "record" or not isinstance(records[r], dict):
        records[r] = draw(st.sampled_from(ANY))
        return
    repeats = _repeats(records, r)
    if kind == "repeat" and repeats:
        container, key, value = draw(st.sampled_from(repeats))
        container[key] = value
        return
    by_name = {}
    for container, key, name in _slots(records[r]):
        by_name.setdefault(name, []).append((container, key))
    if not by_name:  # every key deleted already
        return
    name = draw(st.sampled_from(sorted(by_name)))
    container, key = draw(st.sampled_from(by_name[name]))
    value = draw(st.sampled_from(ODD.get(name, ANY) + [DELETE]))
    if value is DELETE:
        del container[key]
    else:
        container[key] = value


@st.composite
def record_files(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    same_k = draw(st.booleans())
    records = [draw(scene_records(
        10 * i, k if same_k else draw(st.integers(1, 4)))) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, records)
    return records


@settings(max_examples=300, deadline=None)
@given(record_files(), st.sampled_from([1, 2, 3, 5, 64]), st.booleans())
def test_columnar_load_equals_scalar_loop(records, chunk, blank_first):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "s.jsonl", records, blank_first)
        assert (_outcome(path, chunk=chunk)
                == _outcome(path, columnar=False, chunk=chunk))


def _command_outcome(path, argv, chunk):
    """Exit code, standard error and output files but manifests of argv run
    on path with LOAD_CHUNK patched to chunk."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "LOAD_CHUNK", chunk):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = run(argv + ["--input", str(path),
                             "-o", str(Path(tmp) / "o.jsonl")])
        return rc, err.getvalue(), {
            p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())
            if not p.name.endswith(".manifest.json")}


def test_iter_records_reads_lines_as_open_does(tmp_path):
    path = tmp_path / "r.jsonl"
    good = '\n{"a": 1}\r\n\r{"b": 2}\r  \n{"c": "\u00e9"}\n'
    path.write_bytes((good + 'not json\n{"d": 4}\n').encode())
    with open(path) as fh:
        lines = [(n, json.loads(line)) for n, line in enumerate(fh, 1)
                 if line.strip() and line.strip() != "not json"]
    records = iter_records(path)
    # the records before the bad line come out before it raises
    assert list(islice(records, 3)) == lines[:3]
    with pytest.raises(RecordError, match=f"^{path}:7: Expecting value"):
        next(records)
    path.write_bytes(good.encode())
    digest = hashlib.sha256()
    assert list(iter_records(path, digest)) == lines[:3]
    assert digest.hexdigest() == file_digest(path)


@pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"],
                         ids=["LF", "CR", "CRLF"])
def test_bad_utf8_names_its_line(tmp_path, end):
    path = tmp_path / "r.jsonl"
    good = b'{"a": "\xc3\xa9"}' + end
    path.write_bytes(good + b'{"b": "\xff"}' + end + good)
    records = iter_records(path)
    # the record before the bad byte comes out before it raises
    assert next(records) == (1, {"a": "\u00e9"})
    with pytest.raises(RecordError, match="^" + re.escape(
            f"{path}:2: 'utf-8' codec can't decode byte 0xff")):
        next(records)
    path.write_bytes(good * 3)
    digest = hashlib.sha256()
    assert [n for n, _ in iter_records(path, digest)] == [1, 2, 3]
    assert digest.hexdigest() == file_digest(path)


# The reference run has a chunk of 10**6: it reads each file whole and
# filters, tables and matches all of its scenes as one group.
@settings(max_examples=200, deadline=None)
@given(record_files(), st.sampled_from([1, 3, 64]),
       st.sampled_from([1, 5, 16, 100]),
       st.sampled_from([["filter"], ["match"], ["match", "--no-plf"]]),
       st.booleans())
def test_streamed_commands_equal_one_pass(records, chunk, batch, argv,
                                          blank_first):
    argv = argv + ["--batch-size", str(batch)]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "s.jsonl", records, blank_first)
        assert (_command_outcome(path, argv, chunk)
                == _command_outcome(path, argv, 10**6))


# ---------------------------------------------------------------------------
# Whole chunks of LOAD_CHUNK records

@pytest.fixture(scope="module")
def three_chunks(tmp_path_factory):
    """Records of a simulated file of two full chunks and a partial one."""
    path = tmp_path_factory.mktemp("scenes") / "scenes.jsonl"
    assert run(["simulate", "--scenes", str(2 * cli.LOAD_CHUNK + 5),
                "--boxes", "3", "--spurious", "0.5", "--jitter", "0.5",
                "--seed", "3", "-o", str(path)]) == EXIT_OK
    return read_records(path)


def test_valid_file_loads_without_the_scalar_path(three_chunks, tmp_path):
    path = _write(tmp_path / "s.jsonl", three_chunks)
    with mock.patch.object(cli, "scene_from_record",
                           side_effect=AssertionError("scalar path")):
        fast = _outcome(path)
    assert fast[0] == "ok" and len(fast[1][1]) == len(three_chunks)
    assert fast == _outcome(path, columnar=False)


def _every(key, field, value):
    """A change that sets field of every key item of a record."""
    def change(rec):
        for item in rec[key]:
            item[field] = value
    return change


def _first(key, field, value):
    """A change that sets field of the first key item of a record."""
    def change(rec):
        rec[key][0][field] = value
    return change


def _row(*head):
    """class_probs of 5 classes that start with head."""
    return list(head) + [0.0] * (5 - len(head))


def _ir_ids(rec):
    for item, ident in zip(rec["ir_gt"], [False, True, 2]):
        item["id"] = ident


def _int_boxes(rec):
    for key in ("ir_gt", "rgb_obs"):
        for item in rec[key]:
            item.update(cx=3, cy=4, w=5, h=6, theta=1)


# changes to one record that scene_from_record rejects
REJECTED = {
    "zero w": _first("rgb_obs", "w", 0),
    "negative zero w": _first("ir_gt", "w", -0.0),
    "negative h": _first("rgb_obs", "h", -1.0),
    "infinite cx": _first("ir_gt", "cx", math.inf),
    "infinite theta": _first("rgb_obs", "theta", -math.inf),
    "float ir id": _first("ir_gt", "id", 1.5),
    "whole float rgb id": _first("rgb_obs", "id", 2.0),
    "float class": _first("ir_gt", "class", 2.0),
    "class beyond count": _first("ir_gt", "class", 5),
    "negative prob": _first("rgb_obs", "class_probs", _row(-0.25, 0.5)),
    "prob above 1": _first("rgb_obs", "class_probs", _row(1.5)),
    "sum an ulp above the bound": _first(
        "rgb_obs", "class_probs", _row(0.75, ABOVE_BOUND)),
    "no classes": _every("rgb_obs", "class_probs", []),
    "number probs": _every("rgb_obs", "class_probs", 0.5),
    "nested probs": _every("rgb_obs", "class_probs", [[0.5]] * 5),
    "list cx": _every("ir_gt", "cx", [1.0]),
    "list ids": _every("ir_gt", "id", [1]),
    "float scene id": lambda rec: rec.update(scene_id=1.5),
    "cx beyond float range": _first("ir_gt", "cx", 10**400),
    "prob beyond float range": _first("rgb_obs", "class_probs",
                                      _row(0.5, 10**400)),
    "list corr_id": _first("rgb_obs", "corr_id", [1]),
    "float corr_id": _first("rgb_obs", "corr_id", 1.5),
    "string corr_id": _first("rgb_obs", "corr_id", "x"),
    "short true_offset": lambda rec: rec.update(true_offset=[1.0]),
    "string true_offset": lambda rec: rec.update(true_offset=["a", "b"]),
    "nan true_offset": lambda rec: rec.update(true_offset=[math.nan, 0.0]),
    "true_offset beyond float range": lambda rec: rec.update(
        true_offset=[10**400, 0]),
    "string canvas": lambda rec: rec.update(canvas=["640", "480"]),
    "zero canvas": lambda rec: rec.update(canvas=[0, 480]),
}

# changes that scene_from_record accepts and the columns take as they are
ACCEPTED = {
    "int box fields": _int_boxes,
    "bool ids": _ir_ids,
    "bool prob": _first("rgb_obs", "class_probs", _row(True)),
    "int probs": _every("rgb_obs", "class_probs", [0, 1, 0, 0, 0]),
    "sum at the bound": _first("rgb_obs", "class_probs",
                               _row(0.75, AT_BOUND)),
    "rounded-away terms after the bound": _first(
        "rgb_obs", "class_probs", _row(0.75, AT_BOUND, 1e-16, 1e-16, 1e-16)),
    "signed zero tie": _first("rgb_obs", "class_probs", _row(-0.0, 0.0)),
    "cx beyond int64": _first("ir_gt", "cx", 2**63),
    "bool theta": _first("rgb_obs", "theta", True),
    "no rgb_obs": lambda rec: rec.update(rgb_obs=[]),
}

# changes that scene_from_record accepts and the columns leave to it
UNUSUAL = {
    "string prob": _first("rgb_obs", "class_probs", _row("0.5")),
    "id beyond int64": _first("rgb_obs", "id", 2**63),
    "bool class only": _every("ir_gt", "class", False),
    "empty string rgb_obs": lambda rec: rec.update(rgb_obs=""),
}


@pytest.mark.parametrize("chunk", [1, cli.LOAD_CHUNK])
@pytest.mark.parametrize("name", sorted(REJECTED) + sorted(ACCEPTED)
                         + sorted(UNUSUAL))
def test_one_changed_record(three_chunks, tmp_path, name, chunk):
    records = json.loads(json.dumps(three_chunks))
    index = cli.LOAD_CHUNK + 1
    {**REJECTED, **ACCEPTED, **UNUSUAL}[name](records[index])
    path = _write(tmp_path / "s.jsonl", records)
    scalar = _outcome(path, columnar=False, chunk=chunk)
    if name in ACCEPTED:
        with mock.patch.object(cli, "scene_from_record",
                               side_effect=AssertionError("scalar path")):
            assert _outcome(path, chunk=chunk) == scalar
    else:
        assert _outcome(path, chunk=chunk) == scalar
    assert scalar[0] == ("error" if name in REJECTED else "ok")
    if name in REJECTED:
        assert scalar[2].startswith(f"{path}:{index + 1}: field ")


@pytest.mark.parametrize("columnar", [True, False])
@pytest.mark.parametrize("change,field", [
    (_first("ir_gt", "cx", 10**400), "ir_gt[0].cx"),
    (_first("rgb_obs", "w", -10**400), "rgb_obs[0].w"),
    (_first("rgb_obs", "class_probs", _row(0.5, 10**400)),
     "rgb_obs[0].class_probs"),
])
def test_int_beyond_float_range_is_a_data_error(three_chunks, tmp_path, capsys,
                                                change, field, columnar):
    records = json.loads(json.dumps(three_chunks))
    index = cli.LOAD_CHUNK + 1
    change(records[index])
    path = _write(tmp_path / "s.jsonl", records)
    with mock.patch.object(cli, "scenes_from_records",
                           cli.scenes_from_records if columnar
                           else lambda records: None):
        assert run(["match", "--input", str(path),
                    "-o", str(tmp_path / "p.jsonl")]) == EXIT_DATA
    assert f"{path}:{index + 1}: field '{field}': " in capsys.readouterr().err


def _bad_cx(records, index):
    records[index]["rgb_obs"][0]["cx"] = math.nan


def _repeated_scene_id(records, index):
    records[index]["scene_id"] = records[index - 2]["scene_id"]


def _bad_then_repeated(records, index):
    # the repeated scene id comes first in the file and wins
    _repeated_scene_id(records, index)
    _bad_cx(records, index + 1)


def _bad_twice(records, index):
    _bad_cx(records, index)
    _bad_cx(records, index + 3)


@pytest.mark.parametrize("index", [cli.LOAD_CHUNK - 1, cli.LOAD_CHUNK,
                                   cli.LOAD_CHUNK + 1, 2 * cli.LOAD_CHUNK - 1,
                                   2 * cli.LOAD_CHUNK])
@pytest.mark.parametrize("corrupt,field", [
    (_bad_cx, "rgb_obs[0].cx"),
    (_repeated_scene_id, "scene_id"),
    (_bad_then_repeated, "scene_id"),
    (_bad_twice, "rgb_obs[0].cx"),
])
def test_bad_record_at_chunk_edges(three_chunks, tmp_path, index, corrupt,
                                   field):
    records = json.loads(json.dumps(three_chunks))
    corrupt(records, index)
    path = _write(tmp_path / "s.jsonl", records, blank_first=True)
    fast = _outcome(path)
    assert fast == _outcome(path, columnar=False)
    assert fast[:2] == ("error", "RecordError")
    assert fast[2].startswith(f"{path}:{index + 2}: field '{field}':")


@pytest.mark.parametrize("chunk,batch", [(1, 16), (3, 5), (64, 5),
                                         (64, 16), (64, 100)])
@pytest.mark.parametrize("argv", [["filter"], ["match"]])
def test_streamed_simulated_file_equals_one_pass(three_chunks, tmp_path, argv,
                                                 chunk, batch):
    # spurious candidates make the filter drop some, so a batch split
    # differently from the one-pass run changes the output
    path = _write(tmp_path / "s.jsonl", three_chunks)
    argv = argv + ["--batch-size", str(batch)]
    outcome = _command_outcome(path, argv, chunk)
    assert outcome[0] == EXIT_OK
    assert outcome == _command_outcome(path, argv, 10**6)


class _Record(dict):
    """A record that a weak reference can follow."""


def test_chunk_records_are_released(three_chunks, tmp_path):
    path = _write(tmp_path / "s.jsonl", three_chunks)
    read, seen, held = [], [], []
    stream, build = cli.iter_records, cli.scenes_from_records

    def tracked(rec):
        rec = _Record(rec)
        read.append(weakref.ref(rec))
        return rec

    def reader(path, digest=None):
        for line_no, rec in stream(path, digest):
            yield line_no, tracked(rec)

    def live():
        return sum(r() is not None for r in read)

    def spy(chunk):
        seen.append((len(read), live()))
        return build(chunk)

    with mock.patch.object(cli, "iter_records", reader), \
            mock.patch.object(cli, "scenes_from_records", spy):
        for _ in cli._scenes(path):
            held.append(live())
    n, size = len(three_chunks), cli.LOAD_CHUNK
    # chunk k is built from records k * size on, with no record before it
    # still held and none after it read; its scenes go out without it
    assert seen == [(min(n, (k + 1) * size), min(size, n - k * size))
                    for k in range(3)]
    assert held == [0] * n
