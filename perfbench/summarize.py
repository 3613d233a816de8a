"""Summarize benchmark records into per-workload medians and quartiles.

    python3 perfbench/summarize.py [--out perfbench/baseline.json]

Reads every full-size record in perfbench/results/ (one per run of
run.py) and prints, per workload and metric, the median, the quartiles
and the quartile spread as a share of the median, over the runs found.
With --out it also writes them, with the machine, as JSON.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import run


def summarize(records):
    """{workload: {kind: {"seeds": [...], "metrics": {name: stats}}}}."""
    out = {}
    for rec in records:
        kind = "per_layer" if rec["trace"] else "end_to_end"
        slot = out.setdefault(rec["workload"], {}).setdefault(
            kind, {"seeds": [], "metrics": {}})
        slot["seeds"].append(rec["seed"])
        for name, m in rec["result"]["metrics"].items():
            slot["metrics"].setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
    for kinds in out.values():
        for slot in kinds.values():
            for entry in slot["metrics"].values():
                v = entry.pop("values")
                q = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                med = statistics.median(v)
                entry.update(median=med, q1=q[0], q3=q[2], runs=len(v),
                             spread=(q[2] - q[0]) / med if med else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    records = []
    for path in sorted(glob.glob(os.path.join(run.RESULTS, "*-full-*.json"))):
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        if rec["result"]["correct"]:
            records.append(rec)
    if not records:
        print("no correct full-size records found", file=sys.stderr)
        return 1
    summary = summarize(records)
    for workload, kinds in summary.items():
        for kind, slot in kinds.items():
            print(f"# {workload} {kind} seeds={sorted(slot['seeds'])}")
            for name, e in slot["metrics"].items():
                print(f"{workload}\t{name}\t{e['median']:.6g}\t"
                      f"{e['unit']}\tspread={e['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"machine": records[0]["machine"],
                       "run_seconds": records[0]["seconds"],
                       "workloads": summary}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
