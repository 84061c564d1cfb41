"""crosspair benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train_default [--seed N]
                             [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Set-up generates the workload's input from the seed and times a few bare
``import crosspair.cli`` interpreters. The measured window then runs
repetitions, each a fresh single-threaded Python process, until ``--seconds``
have passed. Each repetition also times a fixed reference probe in the same
process just before and just after the command (see ``child.py``), and
``wall_norm`` is the command's wall time over the probe's. With
``--trace 1`` every untraced repetition is followed by a traced one, and the
per-layer metrics come from the traced ones. After the window, one
``crosspair verify`` replays the last repetition's manifest.

The last line of standard output is the result JSON; the line before it
holds the details (input sha256, environment, per-repetition samples, raw
wall times, quality figures and any correctness problems).
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5           # bare-import interpreters per run, for setup_s
CHILD_TIMEOUT_S = 120

sys.path[:0] = [str(HERE), str(SRC)]
try:
    from crosspair.records import manifest_path
    from workloads import WORKLOADS
except ImportError as exc:  # not a checkout with the crosspair sources
    sys.exit(f"benchmark error: {exc}")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def _git(*args):
    if not (ROOT / ".git").exists():  # an exported checkout, not a clone
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    src = hashlib.sha256()
    for path in sorted((SRC / "crosspair").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "loadavg": list(os.getloadavg()),
    }


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("CROSSPAIR_OUTPUT_DIR", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=str(work), PYTHONPATH=str(SRC))
    return env


def run_child(work: Path, tag: str, argv=None, trace=False) -> dict | None:
    """One fresh interpreter; its timings, or None if it failed."""
    result_path = work / f"{tag}.result.json"
    spec = {"src": str(SRC), "argv": argv, "result": str(result_path)}
    if trace:
        spec["trace"] = str(work / f"{tag}.trace.json")
    cmd = [sys.executable, str(HERE / "child.py")]
    spec["spawned"] = time.monotonic()
    proc = subprocess.Popen(cmd + [json.dumps(spec)], cwd=work,
                            env=_child_env(work), stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    if trace:
        with open(spec["trace"]) as fh:
            result["trace"] = json.load(fh)
    return result


def setup_probe(work: Path, i: int) -> float:
    """Seconds from spawning a fresh interpreter until crosspair.cli is
    imported."""
    result = run_child(work, f"setup{i}")
    if result is None:
        raise BenchError("a bare `import crosspair.cli` interpreter failed")
    return result["setup_s"]


def repetition(wl, seed, work: Path, i: int, trace: bool) -> dict:
    """Run one repetition and check its outputs."""
    out = work / f"{'traced' if trace else 'rep'}{i}"
    out.mkdir()
    argv = wl.argv(seed, work, out)
    rep = {"out": out, "manifest": manifest_path(argv[argv.index("-o") + 1])}
    result = run_child(work, out.name, argv, trace)
    if result is None or result["rc"] != 0:
        rep["problems"] = [f"{out.name}: command failed "
                           f"({'no result' if result is None else result['rc']})"]
        return rep
    rep.update(result)
    rep["wall_norm"] = rep["wall_s"] / rep["probe_s"]
    try:
        with open(rep["manifest"]) as fh:
            rep["digests"] = json.load(fh)["artifact_digests"]
        problems = wl.check(work, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    rep["problems"] = [f"{out.name}: {p}" for p in problems]
    return rep


def verify(work: Path, manifest: Path) -> bool:
    """`crosspair verify` on a repetition's manifest, outside the timed
    window, from a cwd other than the input's."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "crosspair.cli", "verify", str(manifest)],
            cwd=manifest.parent, env=_child_env(work),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def _median_metrics(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run_workload(name, seed, seconds, trace) -> dict:
    """Set up, measure and check one workload; returns every figure."""
    from tracer import call_counts, summarize

    if not (SRC / "crosspair" / "cli.py").is_file():
        raise BenchError(f"no crosspair sources under {SRC}")
    wl = WORKLOADS[name]
    seed = wl.default_seed if seed is None else seed
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        input_sha256 = wl.make_input(seed, work)
        setup_samples = [setup_probe(work, i) for i in range(SETUP_PROBES)]

        reps, traced = [], []
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < seconds:
            reps.append(repetition(wl, seed, work, len(reps), False))
            if trace:
                traced.append(repetition(wl, seed, work, len(traced), True))
        measured_s = time.perf_counter() - t0

        done = [r for r in reps + traced if not r["problems"]]
        for r in done:
            if r["digests"] != done[0]["digests"]:
                r["problems"].append(f"{r['out'].name}: output digests differ "
                                     "from the first repetition's")
        problems = [p for r in reps + traced for p in r["problems"]]
        ok = [r for r in reps if not r["problems"]]
        ok_traced = [r for r in traced if not r["problems"]]
        if not ok:
            raise BenchError("no repetition succeeded: " + "; ".join(problems))
        verified = verify(work, reps[-1]["manifest"])
        if not verified:
            problems.append("crosspair verify failed on the last repetition")

        wall_norm = statistics.median(r["wall_norm"] for r in ok)
        wall_s = statistics.median(r["wall_s"] for r in ok)
        quality = wl.quality(work, ok[0]["out"])
        end_to_end = {
            "wall_norm": wall_norm,
            "setup_s": statistics.median(
                setup_samples + [r["setup_s"] for r in ok]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "pair_precision": quality.pop("pair_precision"),
            "pair_recall": quality.pop("pair_recall"),
        }
        per_layer = None
        if ok_traced:
            per_layer = _median_metrics([summarize(r["trace"])
                                         for r in ok_traced])
            traced_norm = statistics.median(r["wall_norm"] for r in ok_traced)
            per_layer["trace.overhead_ratio"] = traced_norm / wall_norm - 1.0
            counts = [(call_counts(r["trace"]), r["trace"]["counters"])
                      for r in ok_traced]
            if any(c != counts[0] for c in counts):
                problems.append("traced counts differ between repetitions")
        elif trace:
            raise BenchError("no traced repetition succeeded: "
                             + "; ".join(problems))

        attempted = len(reps) + len(traced)
        failed = attempted - len(ok) - len(ok_traced)
        return {
            "workload": name, "seed": seed, "input_sha256": input_sha256,
            "environment": environment(),
            "correct": not problems, "problems": problems,
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted, "verified": verified,
            "measured_s": measured_s,
            "end_to_end": end_to_end, "quality": quality,
            "raw": {"wall_s": wall_s, "scene_passes_per_s": wl.passes / wall_s,
                    "probe_s": statistics.median(r["probe_s"] for r in ok)},
            "per_layer": per_layer,
            "traces": [r["trace"] for r in ok_traced],
            "samples": {
                "setup_s": setup_samples,
                "reps": [{k: r.get(k) for k in ("wall_s", "probe_s", "setup_s",
                                                "cpu_s", "peak_rss_mb")}
                         for r in reps],
                "traced": [{k: r.get(k) for k in ("wall_s", "probe_s")}
                           for r in traced],
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def benchmark_spec() -> dict:
    """BENCHMARK.json: the run length and the declared metrics' units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"run_seconds": spec["run_seconds"],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _metric_block(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's default seed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        spec = benchmark_spec()
        seconds = (spec["run_seconds"] if args.seconds is None
                   else args.seconds)
        res = run_workload(args.workload, args.seed, seconds,
                           bool(args.trace))
        metrics = (_metric_block(res["per_layer"], spec["per_layer"])
                   if args.trace else
                   _metric_block(res["end_to_end"], spec["end_to_end"]))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    detail = {k: v for k, v in res.items() if k != "traces"}
    print(json.dumps(detail))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
