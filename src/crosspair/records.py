"""Line-delimited record files, content digests, and run manifests.

Every writer here writes a temporary file beside its target and then moves
it into place with os.replace, so a failed or interrupted run leaves the
previous file (or none), never a truncated one. The JSON writers raise
ValueError for a NaN or an infinity, which JSON cannot hold. Record lines
are decoded by orjson only where it gives json.loads's value (iter_records).
"""
from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left
from contextlib import contextmanager, suppress
from pathlib import Path

import orjson


class RecordError(ValueError):
    """Malformed record stream or manifest; carries the offending line
    number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@contextmanager
def _replacing(path):
    """A text file to write in place of path; it replaces path only when
    the block completes, and is removed when the block raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# json.dumps(rec, allow_nan=False), without building an encoder per record
_ENCODE = json.JSONEncoder(allow_nan=False).encode

# bytes per read of iter_records: above the length of a crowded scene's line
READ_BUFFER = 65536


def write_records(path, records):
    with _replacing(path) as fh:
        for rec in records:
            fh.write(_ENCODE(rec) + "\n")


def write_json(path, obj):
    """obj as indented JSON with sorted keys and a final newline."""
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# _loads's view of a line: each digit as "0", "." as itself, others as " "
_DIGITS = b" " * 46 + b". " + b"0" * 10 + b" " * 198
_LONG = b" " + b"0" * 19  # the end of an integer of 19 or more digits
_BLANK = object()


def _loads(raw):
    """json.loads's value of a line's stripped UTF-8 text, or _BLANK."""
    if raw.count(b"[") + raw.count(b"{") < 500:
        digits = raw.translate(_DIGITS)
        # rfind, not in: searched from its end, most of the line is skipped
        if digits.rfind(_LONG) < 0 and not digits.startswith(_LONG[1:]):
            with suppress(orjson.JSONDecodeError):
                return orjson.loads(raw)
    line = raw.decode("utf-8").strip()
    return json.loads(line) if line else _BLANK


def iter_records(path, digest=None):
    """(line number, record) of each non-blank line of a record file, in
    order, read one line at a time.

    Lines end at LF, CR or CRLF, as open(path) ends them, and each is
    decoded as UTF-8, the encoding of JSON text. A line that is not UTF-8,
    not JSON or nested too deep for json.loads raises a RecordError naming
    it only when the reading reaches it. digest: a hashlib object that
    every byte of the file is added to as it is read, so that once the
    records are exhausted it holds the hash of the bytes they were parsed
    from.

    The file is read in pieces that end at LF, through a READ_BUFFER byte
    buffer; only a piece that holds a CR is split further. orjson decodes
    a line's bytes; json.loads decodes its stripped text where orjson fails
    or could give another value: an integer of 19 or more digits, which
    orjson makes a float beyond 64 bits, and 500 or more "[" and "{", which
    orjson nests past json.loads's RecursionError (near 1000 deep).
    """
    line_no = 0
    with open(path, "rb", buffering=READ_BUFFER) as fh:
        for piece in fh:
            if digest is not None:
                digest.update(piece)
            # a piece without CR is one line, its LF, if any, the last byte
            lines = (piece.splitlines() if b"\r" in piece
                     else (piece.rstrip(b"\n"),))
            for raw in lines:
                line_no += 1
                try:
                    record = _loads(raw)
                except (UnicodeDecodeError, json.JSONDecodeError,
                        RecursionError) as exc:
                    raise RecordError(path, line_no, str(exc)) from exc
                if record is not _BLANK:
                    yield line_no, record


def read_records(path):
    """The records of a record file, as iter_records reads them."""
    return [record for _, record in iter_records(path)]


def write_csv(path, header, rows):
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_path(output_path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def write_manifest(output_path, subcommand, config, artifacts,
                   input_digest=None):
    """Record the resolved run next to its primary output.

    The manifest's seed is config["seed"], or 0 for a run without one.
    artifacts: list of file paths produced by the run; stored with their
    content hashes so a rerun can be verified bit-for-bit. input_digest:
    the file_digest of the run's input file, for runs that read one.
    """
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": config.get("seed", 0),
        "artifact_digests": {
            os.path.basename(str(p)): file_digest(p) for p in artifacts
        },
    }
    if input_digest is not None:
        manifest["input_digest"] = input_digest
    mpath = manifest_path(output_path)
    write_json(mpath, manifest)
    return mpath


def _too_deep(text) -> bool:
    """True if decoding text as JSON passes the recursion limit. The
    decoder reads from the start, so a text that begins with one that
    passes it passes it too."""
    try:
        json.loads(text)
    except RecursionError:
        return True
    except ValueError:
        pass
    return False


def read_manifest(path) -> dict:
    """The JSON value of a manifest file. Text that is not JSON raises a
    RecordError naming the line where decoding failed, and text nested too
    deep to decode one naming the first line that it is too deep up to.
    It is decoded by json, not orjson: only json's errors give the line."""
    with open(path) as fh:
        lines = fh.readlines()
    try:
        return json.loads("".join(lines))
    except json.JSONDecodeError as exc:
        raise RecordError(path, exc.lineno, exc.msg) from exc
    except RecursionError as exc:
        line_no = 1 + bisect_left(range(len(lines)), True, key=lambda k:
                                  _too_deep("".join(lines[:k + 1])))
        raise RecordError(path, line_no, str(exc)) from exc
