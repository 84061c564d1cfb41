"""Line-delimited record files, content digests, and run manifests.

Every writer here writes a temporary file beside its target and then moves
it into place with os.replace, so a failed or interrupted run leaves the
previous file (or none), never a truncated one.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path


class RecordError(ValueError):
    """Malformed record stream; carries the offending line number."""

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


def write_records(path, records):
    with _replacing(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_json(path, obj):
    """obj as indented JSON with sorted keys and a final newline."""
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_records(path):
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise RecordError(path, line_no, str(exc)) from exc
    return out


def record_line(path, index) -> int:
    """Line number of the index-th (0-based) record that read_records returns."""
    seen = 0
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                if seen == index:
                    return line_no
                seen += 1
    raise IndexError(f"{path} holds no record {index}")


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


def write_manifest(output_path, subcommand, config, seed, artifacts,
                   input_digest=None):
    """Record the resolved run next to its primary output.

    artifacts: list of file paths produced by the run; stored with their
    content hashes so a rerun can be verified bit-for-bit. input_digest:
    the file_digest of the run's input file, for runs that read one.
    """
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "artifact_digests": {
            os.path.basename(str(p)): file_digest(p) for p in artifacts
        },
    }
    if input_digest is not None:
        manifest["input_digest"] = input_digest
    mpath = manifest_path(output_path)
    write_json(mpath, manifest)
    return mpath


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
