#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

Each set is a `results.jsonl` file as the benchmark appends it (one record
per run: workload, seed, whether the generator kept its schedule, and the
run's result object). Runs whose generator fell behind are left out, as are
traced runs; a run whose output check failed fails the comparison outright.

For every workload and end-to-end metric, the head's median may be worse
than the base's median by at most the metric's bound (a share of the base's
median). `setup_s` is compared like any other metric.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl [--bounds BENCHMARK.json]

Exits 0 when nothing regressed, 1 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(path):
    """Untraced records of `path`, grouped by workload."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(base, head, metrics):
    """Returns `(rows, failures)`. `metrics` is BENCHMARK.json's `end_to_end`
    list; `base` and `head` map workload -> list of run records."""
    rows, failures = [], []
    for workload in sorted(set(base) | set(head)):
        b_runs = [r for r in base.get(workload, []) if r["valid"]]
        h_runs = [r for r in head.get(workload, []) if r["valid"]]
        for side, runs in (("base", base), ("head", head)):
            bad = [r["seed"] for r in runs.get(workload, []) if not r["result"]["correct"]]
            if bad:
                failures.append(f"{workload}: {side} output check failed (seeds {bad})")
        if not b_runs or not h_runs:
            failures.append(f"{workload}: no valid runs on {'base' if not b_runs else 'head'}")
            continue
        for m in metrics:
            name = m["name"]
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in b_runs)
            h = statistics.median(r["result"]["metrics"][name]["value"] for r in h_runs)
            worse = (h - b) if m["better"] == "lower" else (b - h)
            change = worse / b if b else 0.0
            regressed = change > m["bound"]
            rows.append((workload, name, b, h, change, m["bound"], regressed))
            if regressed:
                failures.append(
                    f"{workload}: {name} worse by {change:.1%} (bound {m['bound']:.0%}): "
                    f"{b:.4g} -> {h:.4g} {m['unit']}"
                )
    return rows, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--bounds", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    metrics = json.loads(Path(args.bounds).read_text())["end_to_end"]
    rows, failures = compare(load_runs(args.base), load_runs(args.head), metrics)
    print(f"{'workload':16} {'metric':20} {'base':>12} {'head':>12} {'worse by':>9} {'bound':>6}")
    for workload, name, b, h, change, bound, regressed in rows:
        flag = "  REGRESSED" if regressed else ""
        print(f"{workload:16} {name:20} {b:12.4f} {h:12.4f} {change:9.1%} {bound:6.0%}{flag}")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
