"""One repetition: a fresh interpreter that imports crosspair and runs one
CLI command, then writes its timings as JSON.

Usage: python3 child.py '<spec json>'

The spec holds ``src`` (the directory holding the crosspair package),
``argv`` (the CLI arguments), ``result`` (where to write the timings),
``spawned`` (``time.monotonic()`` in the parent just before it started this
process) and, for a traced repetition, ``trace`` (where to dump the spans).
``setup_s`` runs from ``spawned`` until ``import crosspair.cli`` returns;
CLOCK_MONOTONIC is shared by all processes of the machine.

``probe_s`` is the time of a fixed reference workload that touches no
crosspair code, run once just before and once just after the command in this
same process. It tracks how fast the host runs this process while the
command runs, so ``wall_s / probe_s`` cancels most of the host's drift.
"""
import json
import resource
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import crosspair.cli  # noqa: E402

setup_s = time.monotonic() - spec["spawned"]
if spec["argv"] is None:
    with open(spec["result"], "w") as fh:
        json.dump({"setup_s": setup_s}, fh)
    sys.exit(0)


import numpy as np  # noqa: E402  (crosspair.cli has imported it already)


def reference_probe() -> float:
    """Seconds for fixed work of the three kinds the commands do: integer
    arithmetic, small numpy array operations and JSON round trips. It
    allocates next to nothing, so it neither raises the peak resident set
    nor waits on page faults."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    a = np.arange(16.0).reshape(4, 4)
    for _ in range(6_000):
        acc += float((a @ a).sum() + np.hypot(a[0], a[1]).max())
    for i in range(3_000):
        record = {"cx": i * 0.5, "cy": i * 0.25, "w": 3.0, "h": 4.0,
                  "ids": [i, i + 1, i + 2]}
        acc += len(json.loads(json.dumps(record)))
    return time.perf_counter() - t0


def peak_rss_mb():
    # VmHWM belongs to this address space alone; ru_maxrss would carry over
    # the parent's peak through fork and exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


probe_s = reference_probe()
tracer = None
if spec.get("trace"):
    from tracer import ROOT, Tracer

    tracer = Tracer()
    tracer.install()

cpu0 = cpu_s()
t0 = time.perf_counter()
if tracer is None:
    rc = crosspair.cli.run(spec["argv"])
else:
    rc = tracer.span(ROOT, crosspair.cli.run, spec["argv"])
wall_s = time.perf_counter() - t0
result = {"rc": rc, "wall_s": wall_s, "setup_s": setup_s,
          "cpu_s": cpu_s() - cpu0, "peak_rss_mb": peak_rss_mb()}
if tracer is not None:
    tracer.uninstall()
result["probe_s"] = probe_s + reference_probe()
if tracer is not None:
    with open(spec["trace"], "w") as fh:
        json.dump(tracer.dump(), fh)
with open(spec["result"], "w") as fh:
    json.dump(result, fh)
