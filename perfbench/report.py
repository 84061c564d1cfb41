"""Human-readable benchmark report.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seconds S]

For each workload, on its default seed, it runs the benchmark with tracing
(untraced repetitions give the end-to-end metrics, traced ones the per-layer
figures), runs the correctness checks, and prints every end-to-end metric
with its unit, the raw wall times, the quality figures, the environment and
reference probe, the per-layer self-time table and every per-layer metric.
Exits 1 if any check failed.
"""
from __future__ import annotations

import argparse
import sys

from run import BenchError, WORKLOADS, benchmark_spec, run_workload
from tracer import layer_table


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(res, spec):
    env = res["environment"]
    reps = res["samples"]["reps"]
    probes = [r["probe_s"] for r in reps if r["probe_s"] is not None]
    print(f"== {res['workload']}  seed {res['seed']}  "
          f"input sha256 {res['input_sha256'][:16]}")
    print(f"   {env['nproc']} cpu ({env['cpu_model']}), python {env['python']}, "
          f"numpy {env['numpy']}, git {env['git_sha']} "
          f"dirty={env['git_dirty']}, load {env['loadavg']}")
    print(f"   reference probe {min(probes) * 1e3:.1f}-"
          f"{max(probes) * 1e3:.1f} ms over {len(probes)} repetitions")
    print("-- end to end (median of "
          f"{len(reps)} untraced repetitions; setup_s over "
          f"{len(res['samples']['setup_s']) + len(reps)} interpreters)")
    for name, unit in spec["end_to_end"].items():
        print(f"   {name:<22} {_fmt(res['end_to_end'][name]):>14} {unit}")
    for name, value in [*res["raw"].items(), *res["quality"].items()]:
        print(f"   {name:<22} {_fmt(value):>14}")
    print(f"-- correctness: {'ok' if res['correct'] else 'FAILED'}  "
          f"fail_ratio {res['failed']}/{res['attempted']}  "
          f"verify {'ok' if res['verified'] else 'FAILED'}")
    for problem in res["problems"]:
        print(f"   {problem}")
    if res["traces"]:
        print(f"-- per-layer self time (traced run 1 of {len(res['traces'])})")
        print(f"   {'layer':<12} {'self_s':>10} {'share':>7} {'calls':>9}")
        for layer, own, share, calls in layer_table(res["traces"][0]):
            print(f"   {layer:<12} {own:>10.4f} {share:>6.1%} {calls:>9}")
        print("-- per-layer metrics (median over traced runs)")
        for name, unit in spec["per_layer"].items():
            print(f"   {name:<30} {_fmt(res['per_layer'][name]):>14} {unit}")
    print()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    args = p.parse_args(argv)
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    ok = True
    for name in WORKLOADS:
        try:
            res = run_workload(name, None, seconds, trace=True)
        except BenchError as exc:
            print(f"== {name}: benchmark error: {exc}")
            ok = False
            continue
        print_report(res, spec)
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
