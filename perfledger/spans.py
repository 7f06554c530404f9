#!/usr/bin/env python3
"""Summarizes a span file written by a traced ledger run.

    python3 perfledger/spans.py .bench_out/<workload>.spans.csv

Prints, per span name: count, total host time, and self time (the span's
duration minus the parts of it its child spans cover), plus each name's
share of all core.run time.
"""

import csv
import sys
from collections import defaultdict


def main(path):
    spans = {}
    children = defaultdict(list)
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            span = {k: int(row[k]) for k in ("id", "parent", "start_ns", "end_ns")}
            span["name"] = row["name"]
            spans[span["id"]] = span
            children[span["parent"]].append(span["id"])

    count = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    for span in spans.values():
        duration = span["end_ns"] - span["start_ns"]
        covered = 0
        # Children of one span may run on other threads and overlap; merge
        # their intervals, clipped to the parent, before subtracting.
        intervals = sorted((max(spans[c]["start_ns"], span["start_ns"]),
                            min(spans[c]["end_ns"], span["end_ns"]))
                           for c in children[span["id"]])
        reach = span["start_ns"]
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        count[span["name"]] += 1
        total[span["name"]] += duration
        self_ns[span["name"]] += duration - covered

    run_ns = total.get("core.run", 0)
    print(f"{'span':22s} {'count':>9s} {'total_s':>10s} {'self_s':>10s} {'of core.run':>12s}")
    for name in sorted(total, key=lambda n: -self_ns[n]):
        share = f"{total[name] / run_ns:12.3f}" if run_ns else f"{'-':>12s}"
        print(f"{name:22s} {count[name]:9d} {total[name] * 1e-9:10.4f} "
              f"{self_ns[name] * 1e-9:10.4f} {share}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
