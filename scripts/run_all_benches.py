#!/usr/bin/env python3
"""Parallel bench driver: run the whole figure battery, aggregate reports.

Discovers every fig*/ext_*/table* binary (plus selfbench_engine with
--selfbench) under <builddir>/bench, runs them concurrently — each bench
is a self-contained process writing BENCH_<name>.json via
RDMASEM_BENCH_OUT, so process-level parallelism is safe — validates every
report with check_bench_json, and folds them into one BENCH_ALL.json:

  {
    "schema": "rdmasem-bench-all-v1",
    "trajectory": {... one-row summary of the whole battery ...},
    "benches": { "<name>": <the full rdmasem-bench-v1 report>, ... }
  }

The trajectory row is the number CI and humans track across commits:
bench count, total sweep points, total table rows, battery wall time, and
each bench's own wall time ("bench_seconds"; at --jobs > 1 benches share
the host, so read them from serial rows).
It prints as a single line, e.g.

  trajectory: 22 benches ok, 0 failed, 214 points, 131 rows, 418.2s wall

The row names the source tree the binaries were built from: the git
commit of the build's CMAKE_HOME_DIRECTORY and whether that tree had
uncommitted changes ("dirty"), so rows measured before a change is
committed still say what they measured.

The row is appended in a committed format (schema rdmasem-trajectory-v1,
one JSON object per line) to bench/trajectory.jsonl, so the battery
accumulates a perf history across PRs instead of overwriting it. Point
--trajectory-file elsewhere or at "" to disable. The accumulated history
is mirrored into BENCH_ALL.json under "trajectory_history".

Shrink knobs: the benches honour the same env as scripts/bench_smoke.cmake
(RDMASEM_SHUFFLE_ENTRIES etc.).

Stdlib only. Exit 0 = all benches ran and validated, 1 otherwise.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_json  # noqa: E402  (sibling module, stdlib-only)

PREFIXES = ("fig", "ext_", "table")

TRAJECTORY_SCHEMA = "rdmasem-trajectory-v1"
DEFAULT_TRAJECTORY = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "bench",
    "trajectory.jsonl")


def discover(bench_dir, with_selfbench):
    names = []
    for entry in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, entry)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            continue
        if entry.startswith(PREFIXES) or (with_selfbench and
                                          entry == "selfbench_engine"):
            names.append(entry)
    return names


def source_revision(builddir):
    """-> (commit, dirty) of the source tree `builddir` was configured
    from, or (None, None) when it cannot be told."""
    src = None
    try:
        with open(os.path.join(builddir, "CMakeCache.txt"),
                  encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    src = line.split("=", 1)[1].strip()
    except OSError:
        return None, None
    if not src:
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", src, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", src, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return commit, bool(status.strip())


def run_one(bench_dir, out_dir, name, timeout):
    """-> (name, report_path | None, error | None, seconds)"""
    t0 = time.monotonic()
    env = dict(os.environ, RDMASEM_BENCH_OUT=out_dir)
    try:
        proc = subprocess.run(
            [os.path.join(bench_dir, name)], env=env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return name, None, f"timed out after {timeout}s", time.monotonic() - t0
    sec = time.monotonic() - t0
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-10:])
        return name, None, f"exit {proc.returncode}:\n{tail}", sec
    report = os.path.join(out_dir, f"BENCH_{name}.json")
    if not os.path.exists(report):
        return name, None, "wrote no BENCH json", sec
    return name, report, None, sec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("builddir", nargs="?", default="build",
                    help="cmake build tree containing bench/ (default: build)")
    ap.add_argument("--out", default=None,
                    help="report directory (default: <builddir>/bench-all)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="concurrent bench processes (default: host cores)")
    ap.add_argument("--timeout", type=float, default=1800,
                    help="per-bench timeout in seconds (default: 1800)")
    ap.add_argument("--selfbench", action="store_true",
                    help="include selfbench_engine (wall-clock bench; noisy "
                         "when run concurrently with the battery)")
    ap.add_argument("--trajectory-file", default=DEFAULT_TRAJECTORY,
                    help="committed perf-history file to append this run's "
                         "trajectory row to (JSONL; \"\" disables; default: "
                         "bench/trajectory.jsonl)")
    args = ap.parse_args()

    bench_dir = os.path.join(args.builddir, "bench")
    if not os.path.isdir(bench_dir):
        print(f"run_all_benches: no such directory: {bench_dir}",
              file=sys.stderr)
        return 2
    out_dir = os.path.abspath(args.out or
                              os.path.join(args.builddir, "bench-all"))
    os.makedirs(out_dir, exist_ok=True)

    names = discover(bench_dir, args.selfbench)
    if not names:
        print(f"run_all_benches: no bench binaries in {bench_dir} "
              "(build them first)", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    results = []
    seconds = {}
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_one, bench_dir, out_dir, n, args.timeout)
                   for n in names]
        for fut in concurrent.futures.as_completed(futures):
            name, report, err, sec = fut.result()
            seconds[name] = round(sec, 2)
            status = "ok" if err is None else "FAIL"
            print(f"run_all_benches: {name}: {status} ({sec:.1f}s)")
            if err is not None:
                print(f"  {err}", file=sys.stderr)
            results.append((name, report, err))
    wall = time.monotonic() - t0

    benches, failed = {}, []
    points = rows = 0
    for name, report, err in sorted(results):
        if err is not None:
            failed.append(name)
            continue
        try:
            check_bench_json.check_report(report)
        except SystemExit as e:
            print(f"run_all_benches: {name}: invalid report: {e}",
                  file=sys.stderr)
            failed.append(name)
            continue
        with open(report, encoding="utf-8") as f:
            benches[name] = json.load(f)
        points += len(benches[name].get("points", []))
        rows += len(benches[name]["table"].get("rows", []))

    commit, dirty = source_revision(args.builddir)
    trajectory = {
        "schema": TRAJECTORY_SCHEMA,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit,
        "dirty": dirty,
        "benches_ok": len(benches),
        "benches_failed": len(failed),
        "failed": failed,
        "points": points,
        "table_rows": rows,
        "wall_seconds": round(wall, 1),
        "jobs": args.jobs,
        "bench_seconds": dict(sorted(seconds.items())),
    }

    history = []
    if args.trajectory_file:
        tpath = os.path.abspath(args.trajectory_file)
        try:
            with open(tpath, encoding="utf-8") as f:
                history = [json.loads(line) for line in f if line.strip()]
        except OSError:
            pass  # first run: no history yet
        except ValueError as e:
            print(f"run_all_benches: {tpath}: corrupt history ignored: {e}",
                  file=sys.stderr)
            history = []
        history.append(trajectory)
        with open(tpath, "a", encoding="utf-8") as f:
            json.dump(trajectory, f, separators=(",", ":"), sort_keys=True)
            f.write("\n")
        print(f"trajectory history: {tpath} ({len(history)} row(s))")

    all_path = os.path.join(out_dir, "BENCH_ALL.json")
    with open(all_path, "w", encoding="utf-8") as f:
        json.dump({"schema": "rdmasem-bench-all-v1",
                   "trajectory": trajectory,
                   "trajectory_history": history,
                   "benches": benches}, f, indent=1)
        f.write("\n")

    print(f"aggregate report: {all_path}")
    print(f"trajectory: {len(benches)} benches ok, {len(failed)} failed, "
          f"{points} points, {rows} rows, {wall:.1f}s wall")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
