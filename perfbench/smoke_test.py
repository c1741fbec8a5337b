#!/usr/bin/env python3
"""Smoke test of the host-time benchmark at tiny input sizes.

Run from the repository root (takes well under a minute once built):

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs the untraced and the traced
pass and asserts that the result line has exactly the contract's keys,
that every named metric prints with its declared unit, and that no
operation failed. It asserts that the digests match the ones recorded for
the default seed, that shuffle_sp16_shards4 reproduces shuffle_sp16 on a
non-default seed too, and that the benchmark refuses to run, printing no
result, when the simulator sources are absent.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(proc, spec, workload, trace):
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{workload}: keys {sorted(result)}"
    assert result["correct"] is True, f"{workload}: incorrect\n{proc.stderr}"
    assert result["failed"] == 0, f"{workload}: {result['failed']} failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want), (
        f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{name}: unit {got[name]['unit']}"
        assert isinstance(got[name]["value"], (int, float)), name
    match = re.search(r"digest=([0-9a-f]{16})", proc.stderr)
    assert match, f"{workload}: no digest line"
    return match.group(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH_DIR / "expected_digests.json").read_text())
    digests = {}
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            d = check_result(run(w, 1, trace), spec, w, trace)
            digests.setdefault(w, set()).add(d)
        assert len(digests[w]) == 1, f"{w}: traced digest differs from untraced"
        print(f"ok  {w}  digest {digests[w].pop()}")

    for w, want in expected["smoke"].items():
        got = check_result(run(w, 1, 0), spec, w, 0)
        assert got == want, f"{w}: digest {got}, recorded {want}"
    serial = check_result(run("shuffle_sp16", 7, 0), spec, "shuffle_sp16", 0)
    sharded = check_result(run("shuffle_sp16_shards4", 7, 0), spec,
                           "shuffle_sp16_shards4", 0)
    assert serial == sharded, f"seed 7: shards4 {sharded} != serial {serial}"
    print("ok  recorded digests; shards4 == serial on seed 7")

    # Without the simulator sources the benchmark must fail and print no
    # result line.
    bare = ROOT / ".bench_build" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = run("shuffle_sp16", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without simulator sources"
    assert "{" not in proc.stdout, "printed a result without sources"
    print("ok  refuses to run without simulator sources")


if __name__ == "__main__":
    main()
