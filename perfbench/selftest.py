#!/usr/bin/env python3
"""Check that the benchmark's answer check catches a wrong answer.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload it runs pool entry 0 once,
as run.py does, and requires every answer to match the references.  It
then feeds in one wrong answer, by changing the report of the first
command, and requires fail_frac > 0.  The change is the last integer
field of the last row, plus one, or, for reports of certified sums, the
last sum scaled by 1 + 1e-6.  Exits 1 if any check does not hold.
"""

import sys
from fractions import Fraction
from pathlib import Path

from answers import compare
from run import collect, invoke, load_references, nproc
from workloads import WORKLOADS


def corrupt(text: str, spec) -> str:
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    header = lines[data[0]].split(",")
    row = lines[data[-1]].split(",")
    if spec.numeric:
        col = header.index(spec.numeric[-1])
        row[col] = repr(float(Fraction(row[col])) * (1 + 1e-6))
    else:
        col = max(
            header.index(c) for c in spec.exact if row[header.index(c)].lstrip("-").isdigit()
        )
        row[col] = str(int(row[col]) + 1)
    lines[data[-1]] = ",".join(row)
    return "\n".join(lines) + "\n"


def main() -> int:
    root = Path.cwd()
    ok = True
    for name, workload in WORKLOADS.items():
        refs = load_references(workload)
        threads = nproc() if workload.threaded else None
        inv = invoke(root, workload, 0, threads, False, timeout=170)
        ref = refs["0"]["answers"]
        checked, wrong = compare(inv.answers, ref)
        _, commands = workload.entry(0, threads)
        texts = [corrupt(inv.texts[0], commands[0].spec)] + inv.texts[1:]
        answers, _ = collect(commands, texts)
        bad_checked, bad_wrong = compare(answers, ref)
        fail_frac = len(bad_wrong) / bad_checked
        passed = not wrong and fail_frac > 0
        ok &= passed
        print(
            f"{name}: {checked} answers, {len(wrong)} wrong; with one wrong answer "
            f"fail_frac={fail_frac:.4f} ({', '.join(bad_wrong)}) "
            f"{'PASS' if passed else 'FAIL'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
