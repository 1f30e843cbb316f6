#!/usr/bin/env python3
"""Run one workload of the LAC simulator benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) from the checkout, then
runs its binary in separate processes, each with cold caches:

* SETUP_PROBES set-up-only processes, each timing process start through
  one warm-up operation;
* with `--trace 0`, MEASURE_PROCESSES measurement processes that set up
  the same way and then share the `--seconds` between them; each metric
  is the median over those processes;
* with `--trace 1`, one measurement process for the whole `--seconds`:
  host speed from its untraced first third, per-layer metrics from the
  spans of the rest.

`setup_s` is the median over every process. Every process reports a
digest of its warm-up's simulated result and compile-cache size, and
the measurement processes report the simulated metrics of a full pass
over the inputs: equal seeds must agree exactly, or the run is marked
incorrect. The last line of stdout is the result object (`correct`,
`attempted`, `failed`, `metrics`). Spans of a traced run are written
under the build directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fleet_batch", "tenant_burst", "serve_mixed")
SETUP_PROBES = 3
MEASURE_PROCESSES = 3
# Simulated metrics: a pure function of the seed, equal in every process.
SIMULATED = ("makespan_cycles", "utilization", "gflops_per_w",
             "p50_sojourn_cycles", "p99_sojourn_cycles")
# Every process after the build must finish within this many seconds.
DEADLINE_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(root / "perfbench" / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Cargo's own output goes to stderr; stdout carries only the result.
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({done.returncode})")
    return target / "release" / "perfbench"


def measure(binary, root, extra, deadline):
    try:
        done = subprocess.run(
            [str(binary), *extra], cwd=root, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1),
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(extra)}: still running {DEADLINE_S} s after the build")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(extra)}: exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target)
    deadline = time.monotonic() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [measure(binary, root, [*common, "--setup-only"], deadline)
              for _ in range(SETUP_PROBES)]
    if args.trace:
        spans = target / "perfbench-spans" / f"{args.workload}-seed{args.seed}.tsv"
        runs = [measure(binary, root, [*common, "--seconds", str(args.seconds), "--trace", "1",
                                       "--spans", str(spans)], deadline)]
    else:
        share = args.seconds / MEASURE_PROCESSES
        runs = [measure(binary, root, [*common, "--seconds", str(share), "--trace", "0"], deadline)
                for _ in range(MEASURE_PROCESSES)]

    correct = True
    digests = {p["digest"] for p in [*probes, *runs]}
    if len(digests) != 1:
        print(f"perfbench: same seed, different warm-ups: {sorted(digests)}", file=sys.stderr)
        correct = False
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        if name in SIMULATED and len(set(values)) != 1:
            print(f"perfbench: same seed, different {name}: {values}", file=sys.stderr)
            correct = False
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    if "setup_s" in metrics:
        metrics["setup_s"]["value"] = statistics.median(p["setup_s"] for p in [*probes, *runs])
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": correct and failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
