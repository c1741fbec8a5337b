#!/usr/bin/env python3
"""Builds and runs the rdmasem host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload shuffle_sp16 --seed 1 --seconds 10 --trace 0

The first run in a checkout configures and builds the simulator libraries
from ../src plus the benchmark binary into .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr. The binary's
stdout is passed through, so the last line of stdout is the result JSON.
Traced runs (--trace 1) also write the benchmark's spans as Chrome trace
JSON into the build directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "rdmasem_perfbench"

WORKLOADS = ("micro_rand_bigmr", "shuffle_sp16", "shuffle_sp16_shards4",
             "kv_zipf_mixed")
# The seed whose digests expected_digests.json records.
DEFAULT_SEED = 1
# shards4 runs shuffle_sp16's inputs and must reproduce its output exactly.
DIGEST_KEY = {"shuffle_sp16_shards4": "shuffle_sp16"}
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "rdmasem_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_digest(workload, size, seed):
    if seed != DEFAULT_SEED:
        return None
    table = json.loads((BENCH_DIR / "expected_digests.json").read_text())
    return table.get(size, {}).get(DIGEST_KEY.get(workload, workload))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="smoke: tiny inputs for the benchmark's own test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    digest = expected_digest(args.workload, args.size, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    if args.trace:
        cmd += ["--spans-out", str(BUILD_DIR / f"spans_{args.workload}_"
                                               f"seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"rdmasem_perfbench exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
