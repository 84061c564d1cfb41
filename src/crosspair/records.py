"""Line-delimited record files, content digests, and run manifests."""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


class RecordError(ValueError):
    """Malformed record stream; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def write_records(path, records):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
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


def write_manifest(output_path, subcommand, config, seed, artifacts):
    """Record the resolved run next to its primary output.

    artifacts: list of file paths produced by the run; stored with their
    content hashes so a rerun can be verified bit-for-bit.
    """
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "artifact_digests": {
            os.path.basename(str(p)): file_digest(p) for p in artifacts
        },
    }
    mpath = manifest_path(output_path)
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return mpath


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
