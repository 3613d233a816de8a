"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Checks that each run is correct and emits exactly the metrics, with the
units, that BENCHMARK.json names; and that a directory holding only the
benchmark (no flucast sources) makes it fail without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import gen
import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def bench_line(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), \
        proc.stderr


def main() -> int:
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(gen.WORKLOADS):
        problems.append(f"workloads {names} != {list(gen.WORKLOADS)}")
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            code, result, err = bench_line(
                run.ROOT, "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--size", "tiny")
            label = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, {result}, {err}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in set(got) & set(want[trace])
                               if got[k] != want[trace][k])
                problems.append(f"{label}: missing {missing}, extra {extra},"
                                f" wrong units {wrong}")
            print(f"ok {label}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(SPEC, bare)
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".md", ".json")):
            shutil.copy(os.path.join(run.HERE, name),
                        os.path.join(bare, "perfbench"))
    code, result, _ = bench_line(bare, "--workload", "train_grid", "--seed",
                                 "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without sources: exit {code}, printed {result}")
    else:
        print("ok without sources: exit", code)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
