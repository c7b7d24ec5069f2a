#!/usr/bin/env python3
"""Record the reference answers of every pool entry from this source tree.

    python3 perfbench/record.py [--workload NAME ...]

Run from the repository root.  Each entry runs once, with --threads 1 on
threaded workloads, so runs at --threads <nproc> are checked against the
single-threaded answers.  Rewrites perfbench/references.json, keeping the
entries of workloads not named.  Record only from a commit whose answers
are trusted: a later run treats these as the truth.
"""

import argparse
import json
import sys
from pathlib import Path

from run import REFERENCES, invoke
from workloads import POOL_SIZE, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    root = Path.cwd()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entries = {}
        for index in range(POOL_SIZE):
            inv = invoke(root, workload, index, 1, False, timeout=600)
            if any(inv.codes):
                print(f"{name} entry {index}: command failed", file=sys.stderr)
                return 1
            entries[str(index)] = {"inputs": inv.inputs, "answers": inv.answers}
            print(f"{name} {index:2d} wall={inv.wall_s:.3f}s answers={len(inv.answers)}",
                  flush=True)
        refs[name] = entries
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
