#!/usr/bin/env python3
"""Compare benchmark results of two source trees.

    python3 perfbench/compare.py --base OUT... --new OUT...

Each OUT file holds the standard output of one or more run.py runs; their
'record' lines are read.  Refuses (exit 2) when the records' stamps
differ in Python, numpy, nproc or kernel backend, or when the records of
one side come from different sources.  For every workload and metric it
prints both medians, the change, and the base side's quartile spread as a
share of its median, which is the least change that can be told apart
from noise.
"""

import argparse
import json
import statistics
import sys

ENVIRONMENT = ("python", "numpy", "nproc", "backend")


def records(paths):
    out = []
    for path in paths:
        with open(path) as fh:
            out.extend(
                json.loads(line[len("record "):]) for line in fh if line.startswith("record ")
            )
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    sides = {"base": records(args.base), "new": records(args.new)}
    if not sides["base"] or not sides["new"]:
        print("error: no record lines on one side", file=sys.stderr)
        return 2
    envs = {
        tuple(r["stamp"][k] for k in ENVIRONMENT) for rs in sides.values() for r in rs
    }
    if len(envs) != 1:
        print(f"error: stamps differ in {ENVIRONMENT}: {sorted(envs)}", file=sys.stderr)
        return 2
    for side, rs in sides.items():
        sources = {(r["stamp"]["git_sha"], r["stamp"]["source"]) for r in rs}
        if len(sources) != 1:
            print(f"error: {side} records come from several sources: {sorted(sources)}",
                  file=sys.stderr)
            return 2
        print(f"{side}: git {sources.pop()[0]}, {len(rs)} runs")
    print(f"{'workload':<14} {'metric':<46} {'base':>12} {'new':>12} {'change':>8} {'spread':>7}")
    groups = sorted({(r["workload"], r["trace"]) for r in sides["base"]})
    for workload, trace in groups:
        base = [r for r in sides["base"] if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in sides["new"] if (r["workload"], r["trace"]) == (workload, trace)]
        if not new:
            continue
        for metric in base[0]["metrics"]:
            b = [r["metrics"][metric] for r in base]
            n = [r["metrics"][metric] for r in new if metric in r["metrics"]]
            if not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            print(f"{workload:<14} {metric:<46} {mb:>12.6g} {mn:>12.6g} "
                  f"{change:>+8.2%} {spread(b):>7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
