"""The decode rule of records.iter_records against the decode it speeds up.

iter_records reads a line with orjson where orjson gives json.loads's value,
and with json.loads elsewhere. On any file, each record must be the one
that json.loads gives for the line's stripped UTF-8 text, with the same
types, float bits and key order, or the reading must stop at the same line
with the same RecordError text.
"""
import json
import math
import sys
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosspair.records import RecordError, iter_records


def _reference(data, path):
    """The records and the error text of the stdlib decode of data: each
    line's stripped UTF-8 text through json.loads, blank lines skipped."""
    records = []
    for line_no, raw in enumerate(data.splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
            if line:
                records.append((line_no, json.loads(line)))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            return records, str(RecordError(path, line_no, str(exc)))
    return records, None


def _read(path):
    """The records of iter_records(path) and the text of the RecordError
    that stops it, if any."""
    records = []
    try:
        for item in iter_records(path):
            records.append(item)
    except RecordError as exc:
        return records, str(exc)
    return records, None


def _assert_decodes_as_json_loads(data):
    # json.loads's depth limit is the recursion limit, which Hypothesis
    # raises while a test runs; the rule is written for the default, 1000
    limit = sys.getrecursionlimit()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.jsonl"
        path.write_bytes(data)
        sys.setrecursionlimit(1000)
        try:
            got, want = _read(path), _reference(data, path)
        finally:
            sys.setrecursionlimit(limit)
    # repr tells an int from a float from a bool, a float's bits (NaN
    # aside, which only json.loads gives) and a dict's key order
    assert repr(got) == repr(want)


# 2**63 and 2**64 bound the integers orjson keeps as integers
BOUNDS = [s * (2 ** e + d) for s in (1, -1) for e in (63, 64)
          for d in (-1, 0, 1)]
integers = st.one_of(
    st.sampled_from(BOUNDS),
    st.builds(lambda digits, sign: sign * digits,
              st.integers(17, 24).flatmap(
                  lambda k: st.integers(10 ** k, 10 ** (k + 1) - 1)),
              st.sampled_from([1, -1])),
    st.integers(-10 ** 6, 10 ** 6)).map(str)


@st.composite
def long_decimals(draw):
    """A float token of 17 to 40 significant digits, its point anywhere,
    with or without an exponent up to +-400."""
    k = draw(st.integers(17, 40))
    digits = str(draw(st.integers(10 ** (k - 1), 10 ** k - 1)))
    point = draw(st.integers(1, k))
    text = digits[:point] + ("." + digits[point:] if point < k else "")
    if point == k or draw(st.booleans()):
        text += f"e{draw(st.integers(-400, 400))}"
    return draw(st.sampled_from(["", "-"])) + text


@st.composite
def halfway_decimals(draw):
    """The exact decimal halfway between a double and the next, maybe cut
    to 17 to 40 significant digits or nudged by one in its last digit."""
    x = draw(st.floats(0, math.inf, exclude_max=True))
    y = math.nextafter(x, math.inf)
    if math.isinf(y):
        y = x
    with localcontext() as ctx:
        ctx.prec = 2000
        _, digits, exp = ((Decimal(x) + Decimal(y)) / 2).as_tuple()
    digits = "".join(map(str, digits))
    cut = draw(st.sampled_from([None, "cut", "nudge"]))
    if cut == "cut":
        keep = draw(st.integers(17, 40))
        exp += max(len(digits) - keep, 0)
        digits = digits[:keep]
    elif cut == "nudge":
        digits = str(int(digits) + draw(st.sampled_from([1, -1])))
    return f"{digits}e{exp}"


floats = st.one_of(
    long_decimals(), halfway_decimals(),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                     "1e-400", "-0", "-0.0", "4.9e-324",
                     "1.7976931348623159e308"]))
strings = st.one_of(
    st.text(max_size=6).map(json.dumps),
    st.text(max_size=6).map(lambda s: json.dumps(s, ensure_ascii=False)),
    # lone surrogate escapes, and one pair
    st.sampled_from(['"\\ud800"', '"a\\udfff"', '"\\udbff\\u0041"',
                     '"\\ud83d\\ude00"']))
# bytes that are not UTF-8 (a stray byte, a surrogate, an overlong form, a
# code point past U+10FFFF, a cut sequence), and a raw tab in a string
RAW_STRINGS = [b'"\xff"', b'"\xed\xa0\x80"', b'"\xc0\xaf"',
               b'"\xf4\x90\x80\x80"', b'"\xe2\x82"', b'"\t"']
values = st.recursive(
    st.one_of(integers, floats, strings,
              st.sampled_from(["true", "false", "null"])).map(str.encode)
    | st.sampled_from(RAW_STRINGS),
    lambda inner: st.lists(inner, max_size=4).map(
        lambda items: b"[" + b", ".join(items) + b"]")
    # keys from a small set, so that many objects repeat one
    | st.lists(st.tuples(st.sampled_from([b'"a"', b'"b"', b'"\\u0061"']),
                         inner), max_size=4).map(
        lambda pairs: b"{" + b", ".join(k + b": " + v for k, v in pairs)
        + b"}"),
    max_leaves=12)


@st.composite
def nested(draw):
    """A value inside arrays or objects nested around the depth where
    the stdlib path takes over (500 brackets), or far past the depth where
    json.loads raises RecursionError."""
    depth = draw(st.one_of(st.integers(0, 3), st.integers(490, 510),
                           st.integers(1500, 1600)))
    left, right = draw(st.sampled_from([(b"[", b"]"), (b'{"k": ', b"}")]))
    return left * depth + draw(values) + right * depth


# what str.strip removes, JSON's whitespace, and what neither does (a BOM)
ENDS = [b"", b" ", b"\t", b"\r", b"\xef\xbb\xbf", b"\x0b", b"\x0c", b"\x1c",
        b"\xc2\x85", b"\xc2\xa0", b"\xe2\x80\xa8", b"\xe3\x80\x80"]
line_ends = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def lines(draw):
    """The bytes of one line: a value or a blank, maybe with whitespace, a
    BOM or a CR at either end."""
    body = draw(st.one_of(values, nested(), st.just(b"")))
    return (b"".join(draw(st.lists(st.sampled_from(ENDS), max_size=2)))
            + body
            + b"".join(draw(st.lists(st.sampled_from(ENDS), max_size=2))))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(lines(), line_ends), min_size=1, max_size=4))
@example([(b"NaN", b"\n")])
@example([(b'{"cx": NaN}', b"\n")])
@example([(b"\xef\xbb\xbf{}", b"\n")])
@example([(b"\xc2\xa0{}\xe3\x80\x80", b"\n")])
@example([(b'"\\ud800"', b"\n")])
@example([(b" ", b"\n"), (b"[1e400, -0, 4.9e-324]", b"\n")])
@example([(b'{"a": 1, "b": 2, "a": 3}', b"\n")])
@example([(b"[" * 1030 + b"]" * 1030, b"\n")])
def test_lines_decode_as_json_loads(file_lines):
    _assert_decodes_as_json_loads(b"".join(a + b for a, b in file_lines))


@settings(max_examples=300, deadline=None)
@given(st.lists(integers, min_size=1, max_size=6), st.sampled_from(ENDS[:3]))
@example(["-9223372036854775809"], b"")
@example(["18446744073709551616"], b"")
@example(["1" * 19], b"")
def test_big_integers_keep_their_value(tokens, pad):
    # as a record's field, in a list, and as the whole line
    fields = b", ".join(f'"n{i}": {t}'.encode() for i, t in enumerate(tokens))
    data = (b"{" + fields + b', "all": [' + ", ".join(tokens).encode()
            + b"]}\n" + pad + tokens[0].encode() + pad + b"\n")
    _assert_decodes_as_json_loads(data)


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, min_size=1, max_size=6))
def test_floats_keep_their_bits(tokens):
    data = b"".join(b'{"x": ' + t.encode() + b"}\n" for t in tokens)
    _assert_decodes_as_json_loads(data + b"[" + ", ".join(tokens).encode()
                                  + b"]\n")
