"""The columnar scene loader against the per-record loop it stands in for.

The column stream cli._scenes(path, columns=True), which match and filter
read, builds each chunk of records with simulate.scenes_from_records, and
record by record with scene_from_record and scene_columns when that returns
None. With scenes_from_records patched to return None it is the per-record
loop alone; on any record file the two must give the same SceneColumns,
value for value and type for type, or the same error. pipeline's Scenes
come from scene_from_record alone.
"""
import contextlib
import copy
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair import cli
from crosspair.cli import EXIT_DATA, EXIT_OK, run
from crosspair.filtering import PROB_SUM_TOL
from crosspair.records import (READ_BUFFER, RecordError, file_digest,
                               iter_records, read_records)


def _flat(value):
    """value as nested (type name, contents) pairs. Floats compare by
    float.hex, so 0.0 and -0.0, or 1 and 1.0, differ, and arrays by dtype,
    shape and items."""
    kind = type(value).__name__
    if isinstance(value, float):
        return kind, value.hex()
    if isinstance(value, np.ndarray):
        return kind, str(value.dtype), value.shape, _flat(value.tolist())
    if isinstance(value, (tuple, list)):
        return kind, tuple(_flat(v) for v in value)
    if dataclasses.is_dataclass(value):
        return kind, tuple((f.name, _flat(getattr(value, f.name)))
                           for f in dataclasses.fields(value))
    return kind, repr(value)


def _outcome(path, columnar=True, chunk=cli.LOAD_CHUNK,
             boxes=cli.LOAD_BOXES):
    """The SceneColumns of cli._scenes(path, columns=True), flattened, or
    the error it raises, with chunks of chunk records and boxes boxes."""
    with mock.patch.object(cli, "LOAD_CHUNK", chunk), \
            mock.patch.object(cli, "LOAD_BOXES", boxes):
        with mock.patch.object(cli, "scenes_from_records",
                               cli.scenes_from_records if columnar
                               else lambda records: None):
            try:
                return "ok", _flat(list(cli._scenes(path, columns=True)))
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
    a repeated scene or item id, ir_gt or rgb_obs emptied, deleted or set
    to what is not a list, or a record that is not an object. Values drawn
    from ANY and ODD are copied, so that a later mutation of the record
    does not change the lists the next example draws from."""
    r = draw(st.integers(0, len(records) - 1))
    kind = draw(st.sampled_from(["slot", "slot", "slot", "repeat", "record",
                                 "items"]))
    if kind == "record" or not isinstance(records[r], dict):
        records[r] = copy.deepcopy(draw(st.sampled_from(ANY)))
        return
    if kind == "items":
        key = draw(st.sampled_from(["ir_gt", "rgb_obs"]))
        value = draw(st.sampled_from(ANY + [DELETE]))
        if value is DELETE:
            records[r].pop(key, None)
        else:
            records[r][key] = copy.deepcopy(value)
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
        container[key] = copy.deepcopy(value)


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


# box budgets that close chunks at arbitrary records of the random files
BUDGETS = [1, 7, cli.LOAD_BOXES]


@settings(max_examples=300, deadline=None)
@given(record_files(), st.sampled_from([1, 2, 3, 5, 64]), st.booleans(),
       st.sampled_from(BUDGETS))
def test_columnar_load_equals_scalar_loop(records, chunk, blank_first, boxes):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "s.jsonl", records, blank_first)
        assert (_outcome(path, chunk=chunk, boxes=boxes)
                == _outcome(path, columnar=False, chunk=chunk, boxes=boxes))


def _command_outcome(path, argv, chunk, boxes=cli.LOAD_BOXES):
    """Exit code, standard error and output files but manifests of argv run
    on path with LOAD_CHUNK patched to chunk and LOAD_BOXES to boxes."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "LOAD_CHUNK", chunk), \
            mock.patch.object(cli, "LOAD_BOXES", boxes):
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


def test_truncated_utf8_at_line_end_keeps_its_message(tmp_path):
    # the line's LF is not part of what is decoded: the message is that of
    # the line alone, which ends in the middle of a character
    path = tmp_path / "r.jsonl"
    path.write_bytes(b'{"a": "\xc3\n')
    with pytest.raises(RecordError, match=re.escape(
            "'utf-8' codec can't decode byte 0xc3 in position 7: "
            "unexpected end of data")):
        list(iter_records(path))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
LINE_ENDS = ["\n", "\r", "\r\n"]


def _padded(length, fill="x"):
    """A JSON object line of length characters."""
    return json.dumps({"pad": ""})[:-2] + fill * (length - 11) + '"}'


@st.composite
def line_files(draw):
    """The bytes of a file of JSON, blank and whitespace-only lines, each
    ended by LF, CR or CRLF, the last maybe by nothing. Some lines are
    longer than the read buffer, and the file may start with a line whose
    CR is the last byte of the first buffer-sized read."""
    lines = []
    if draw(st.booleans()):
        lines.append(_padded(READ_BUFFER - 1) + draw(st.sampled_from(
            ["\r", "\r\n"])))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["json"] * 4 + ["long", "blank",
                                                    "space"]))
        if kind == "json":
            text = json.dumps(draw(json_values),
                              ensure_ascii=draw(st.booleans()))
        elif kind == "long":
            text = _padded(draw(st.integers(READ_BUFFER - 2,
                                            2 * READ_BUFFER + 2)), "y")
        elif kind == "blank":
            text = ""
        else:
            text = draw(st.text(" \t\x0b\x0c", min_size=1, max_size=3))
        lines.append(text + draw(st.sampled_from(LINE_ENDS)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines).encode()


@settings(max_examples=60, deadline=None)
@given(line_files())
def test_iter_records_equals_text_lines(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.jsonl"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh:
            want = [(n, json.loads(line)) for n, line in enumerate(fh, 1)
                    if line.strip()]
        digest = hashlib.sha256()
        assert list(iter_records(path, digest)) == want
        assert digest.hexdigest() == file_digest(path)


# The reference run has chunks of 10**6 records and 10**6 boxes: it reads
# each file whole and filters, tables and matches all of its scenes as one
# group.
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
                == _command_outcome(path, argv, 10**6, 10**6))


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
    "string prob": _first("rgb_obs", "class_probs", _row("0.5")),
    "string class_probs": _first("rgb_obs", "class_probs", "00000"),
    "empty string rgb_obs": lambda rec: rec.update(rgb_obs=""),
    "null rgb_obs": lambda rec: rec.update(rgb_obs=None),
    "object ir_gt": lambda rec: rec.update(ir_gt={}),
    "no ir_gt": lambda rec: rec.pop("ir_gt"),
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
    "no ir_gt items": lambda rec: rec.update(ir_gt=[]),
}

# changes that scene_from_record accepts and the columns leave to it
UNUSUAL = {
    "id beyond int64": _first("rgb_obs", "id", 2**63),
    "bool class only": _every("ir_gt", "class", False),
}


# (records, boxes) a chunk closes at; a budget of 7 or 20 boxes closes the
# simulated file's chunks after one to three records
@pytest.mark.parametrize("chunk,boxes", [
    (1, cli.LOAD_BOXES), (cli.LOAD_CHUNK, cli.LOAD_BOXES),
    (cli.LOAD_CHUNK, 7), (cli.LOAD_CHUNK, 20)],
    ids=["1", str(cli.LOAD_CHUNK), "boxes 7", "boxes 20"])
@pytest.mark.parametrize("name", sorted(REJECTED) + sorted(ACCEPTED)
                         + sorted(UNUSUAL))
def test_one_changed_record(three_chunks, tmp_path, name, chunk, boxes):
    records = json.loads(json.dumps(three_chunks))
    index = cli.LOAD_CHUNK + 1
    {**REJECTED, **ACCEPTED, **UNUSUAL}[name](records[index])
    path = _write(tmp_path / "s.jsonl", records)
    scalar = _outcome(path, columnar=False, chunk=chunk, boxes=boxes)
    if name in ACCEPTED:
        with mock.patch.object(cli, "scene_from_record",
                               side_effect=AssertionError("scalar path")):
            assert _outcome(path, chunk=chunk, boxes=boxes) == scalar
    else:
        assert _outcome(path, chunk=chunk, boxes=boxes) == scalar
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
    assert outcome == _command_outcome(path, argv, 10**6, 10**6)


def _record_path_outcome(path, argv, boxes=cli.LOAD_BOXES):
    """_command_outcome of argv with every chunk built record by record
    with scene_from_record and turned into columns by scene_columns."""
    with mock.patch.object(cli, "scenes_from_records", lambda records: None):
        return _command_outcome(path, argv, cli.LOAD_CHUNK, boxes)


def _odd_values(records):
    """records with integer box fields, boolean ids, a boolean probability
    and a signed zero tie, which the columns take as they are."""
    for rec, change in zip(records[::7], [_int_boxes, _ir_ids, ACCEPTED[
            "bool prob"], ACCEPTED["signed zero tie"]] * len(records)):
        change(rec)
    return records


COMMANDS = [["match"], ["match", "--no-plf"], ["match", "--iou-match-only"],
            ["match", "--batch-size", "5"], ["filter"],
            ["filter", "--per-class"]]


@pytest.mark.parametrize("odd", [False, True], ids=["plain", "odd values"])
@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_column_and_record_paths_write_the_same_bytes(three_chunks, tmp_path,
                                                      argv, odd):
    records = json.loads(json.dumps(three_chunks))
    path = _write(tmp_path / "s.jsonl", _odd_values(records) if odd
                  else records)
    with mock.patch.object(cli, "scene_from_record",
                           side_effect=AssertionError("scalar path")):
        columnar = _command_outcome(path, argv, cli.LOAD_CHUNK)
    assert columnar[0] == EXIT_OK
    assert columnar == _record_path_outcome(path, argv)


# sha256 of pipeline's report, .csv and .bags.jsonl on the odd-values file,
# recorded when pipeline's Scenes of a checked chunk came from its columns
# (Python 3.11, numpy 2.4, x86-64 Linux). The bags write the boxes' own
# values, so a type change, say an int cx written as 3.0, shows here.
ODD_PIPELINE = (
    "af68b24db61802c451180ddd4d25497cf0fbff90bc8dc5aabe6ec6c706d3d452",
    "dfcafa4aaef5826eace119b7a12c38e52bfbead16300eff6274ef6b586b8049e",
    "74092e7c48cc0ccf7cfc5e4409aad7111bc4f5f53b41e6a2c714f2de6ed6368c")


def test_pipeline_on_odd_values_writes_the_recorded_bytes(three_chunks,
                                                          tmp_path):
    records = json.loads(json.dumps(three_chunks))
    path = _write(tmp_path / "s.jsonl", _odd_values(records))
    rc, _, outputs = _command_outcome(
        path, ["pipeline", "--k1", "1", "--k2", "1", "--k3", "2", "--k4", "2"],
        cli.LOAD_CHUNK)
    assert rc == EXIT_OK
    assert b"[3, 4, 5, 6, 1.0]" in outputs["o.jsonl.bags.jsonl"]
    assert tuple(hashlib.sha256(outputs["o.jsonl" + s]).hexdigest()
                 for s in ("", ".csv", ".bags.jsonl")) == ODD_PIPELINE


@settings(max_examples=100, deadline=None)
@given(record_files(), st.sampled_from(COMMANDS), st.sampled_from(BUDGETS))
def test_random_files_give_the_same_bytes_on_both_paths(records, argv, boxes):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "s.jsonl", records)
        assert (_command_outcome(path, argv, cli.LOAD_CHUNK, boxes)
                == _record_path_outcome(path, argv, boxes))


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
        for _ in cli._scenes(path, columns=True):
            held.append(live())
    n, size = len(three_chunks), cli.LOAD_CHUNK
    # chunk k is built from records k * size on, with no record before it
    # still held and none after it read; its scenes go out without it
    assert seen == [(min(n, (k + 1) * size), min(size, n - k * size))
                    for k in range(3)]
    assert held == [0] * n


def test_crowded_chunks_close_at_the_box_budget(tmp_path):
    path = tmp_path / "crowded.jsonl"
    assert run(["simulate", "--scenes", "40", "--boxes", "32",
                "--spurious", "1.0", "--canvas", "1024", "1024",
                "--seed", "4", "-o", str(path)]) == EXIT_OK
    read, chunks, held = [], [], []
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
        chunks.append(([len(rec["ir_gt"]) + len(rec["rgb_obs"])
                        for rec in chunk], len(read), live()))
        return build(chunk)

    with mock.patch.object(cli, "iter_records", reader), \
            mock.patch.object(cli, "scenes_from_records", spy):
        for _ in cli._scenes(path, columns=True):
            held.append(live())
    sizes = [len(counts) for counts, _, _ in chunks]
    assert sum(sizes) == len(read) == 40 and len(chunks) > 1
    for k, (counts, n_read, n_live) in enumerate(chunks):
        # under the budget until its last record, which reaches it unless
        # the file ends first
        assert sum(counts[:-1]) < cli.LOAD_BOXES
        assert (sum(counts) >= cli.LOAD_BOXES) == (k < len(chunks) - 1)
        # the chunk is all that was read since the last one, and no record
        # of an earlier chunk is still held
        assert n_read == sum(sizes[:k + 1]) and n_live == sizes[k]
    assert held == [0] * len(read)
