#!/usr/bin/env python3
"""Compare two sets of perfbench result records.

    python3 perfbench/compare.py <before> <after>

Each argument is a result file or a directory of them, as perfbench writes
under <build>/results/ (one JSON record per run, machine block included).
Runs of one workload and trace mode are pooled by the median of each metric.
Two sets whose machine blocks differ are refused (exit code 2): a rerun on
another host can move a metric by more than any change under test.
"""

import glob
import json
import os
import statistics
import sys


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            records.append(json.load(handle))
    if not records:
        raise SystemExit(f"compare: no result records under {path}")
    return records


def machine_of(records, path):
    blocks = {json.dumps(r["machine"], sort_keys=True) for r in records}
    if len(blocks) != 1:
        raise SystemExit(f"compare: {path} mixes results from different machines")
    return blocks.pop()


def medians(records):
    pooled = {}
    for record in records:
        key = (record["workload"], record["trace"])
        for name, metric in record["result"]["metrics"].items():
            pooled.setdefault(key, {}).setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    return {key: {name: (unit, statistics.median(values), len(values))
                  for name, (unit, values) in metrics.items()}
            for key, metrics in pooled.items()}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before_path, after_path = sys.argv[1:]
    before, after = load(before_path), load(after_path)
    if machine_of(before, before_path) != machine_of(after, after_path):
        print("compare: machine blocks differ; refusing to compare\n"
              f"  {before_path}: {machine_of(before, before_path)}\n"
              f"  {after_path}: {machine_of(after, after_path)}", file=sys.stderr)
        return 2
    a, b = medians(before), medians(after)
    print(f"{'workload':<16} {'trace':>5} {'metric':<28} {'before':>12} {'after':>12} "
          f"{'after/before':>12}  runs")
    for key in sorted(set(a) & set(b)):
        for name in a[key]:
            if name not in b[key]:
                continue
            unit, x, n = a[key][name]
            _, y, m = b[key][name]
            ratio = f"{y / x:.3f}" if x else "-"
            print(f"{key[0]:<16} {key[1]:>5} {name:<28} {x:>12.5g} {y:>12.5g} {ratio:>12}  "
                  f"{n}/{m} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
