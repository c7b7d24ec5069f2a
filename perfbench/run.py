#!/usr/bin/env python3
"""Layered benchmark of the diocurve CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a diocurve source tree; it imports the package from
./src and writes reports under ./.bench_build/perfbench.  Workloads are
listed in workloads.py.  For --seconds seconds it picks pool entries with
--seed and runs each entry's CLI commands in a fresh interpreter
(child.py), then checks every answer against references.json.

With --trace 0 it reports, as medians over the invocations of the run:
  wall_s       time from entering cli.main to the report written, after set-up
  setup_s      interpreter start, `import diocurve.cli` and growing the
               shared sieve to the largest q the workload factorizes
  peak_rss_mb  peak resident set of the invocation's process
The speed of a shared virtual machine drifts by tens of percent over
minutes, for any code.  So each child also times a fixed loop that does
not use diocurve (child.calibrate) before and after its commands, and
wall_s and setup_s are scaled to a machine on which that loop takes
CAL_REF_S: time * CAL_REF_S / loop time.  A change to diocurve does not
move the loop, so it moves the scaled times as much as the raw ones.  The
raw times and loop times are in the record.
With --trace 1 each round runs one untraced and one traced invocation of
the same entry and reports calls and self seconds per span (tracer.py),
the work counters, process.cpu_s of the untraced invocations and
trace.overhead_s, the traced minus the untraced median wall time.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, where attempted counts answers checked and failed the wrong
ones.  The line before it, 'record {...}', holds the stamp (Python, numpy,
nproc, git sha, source digest, kernel backend), every sample, the work
counters and fail_frac; compare.py reads those lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from answers import compare, count_rows, extract
from tracer import SPANS
from workloads import POOL_SIZE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT_DIR = Path(".bench_build") / "perfbench"
# a run must end within 180 s; no child may outlive this
RUN_LIMIT_S = 170
# child.calibrate() time on a 2-vCPU 2.1 GHz x86-64 VM under Python 3.11;
# only a unit: wall_s and setup_s are reported in seconds of that machine
CAL_REF_S = 0.1


class BenchError(Exception):
    pass


@dataclass
class Invocation:
    index: int
    inputs: dict
    setup_s: float
    command_s: list[float]  # wall time of each command
    cpu_s: float
    rss_mb: float
    codes: list[int]
    texts: list[str]
    answers: dict[str, object]
    rows: int
    stamp: dict
    cal_s: list  # calibration loop before and after the commands
    layers: dict = field(default_factory=dict)
    missing_spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.command_s)

    @property
    def wall_ref_s(self) -> float:
        return self.wall_s * CAL_REF_S / statistics.mean(self.cal_s)

    @property
    def setup_ref_s(self) -> float:
        return self.setup_s * CAL_REF_S / self.cal_s[0]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path):
    # only the tree's own repository: git would otherwise search the parents
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src" / "diocurve"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def collect(commands, texts) -> tuple[dict[str, object], int]:
    """Answers and data-row count of the reports of one pool entry.  The
    answers of a missing or malformed report are left out, so they count
    as wrong."""
    answers, rows = {}, 0
    for k, (command, text) in enumerate(zip(commands, texts)):
        try:
            answers.update(extract(text, command.spec, prefix=f"{k}:"))
        except ValueError:
            continue
        rows += count_rows(text)
    return answers, rows


def invoke(
    root: Path, workload: Workload, index: int, threads, trace: bool, timeout: float
) -> Invocation:
    """Run one pool entry in a fresh interpreter and parse its answers."""
    inputs, commands = workload.entry(index, threads)
    out_dir = root / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, argvs = [], []
    for k, command in enumerate(commands):
        path = out_dir / f"{workload.name}-{k}.csv"
        path.unlink(missing_ok=True)
        paths.append(path)
        argvs.append(list(command.argv) + ["--output", str(path)])
    spec = {
        "src": str(root / "src"),
        "commands": argvs,
        "sieve": workload.sieve,
        "trace": trace,
    }
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=root, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload.name} entry {index} ran past {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload.name} entry {index}: child exited {proc.returncode}\n"
            + proc.stderr[-2000:]
        )
    result = json.loads(proc.stdout.splitlines()[-1])
    texts = [
        path.read_text() if code == 0 and path.is_file() else ""
        for path, code in zip(paths, result["codes"])
    ]
    answers, rows = collect(commands, texts)
    return Invocation(
        index=index,
        inputs=inputs,
        setup_s=(result["ready_ns"] - spawn_ns) / 1e9,
        command_s=result["command_s"],
        cpu_s=result["cpu_s"],
        rss_mb=result["rss_kb"] * 1024 / 1e6,
        codes=result["codes"],
        texts=texts,
        answers=answers,
        rows=rows,
        stamp=result["stamp"],
        cal_s=result["cal_s"],
        layers=result.get("layers", {}),
        missing_spans=result.get("missing_spans", []),
    )


def load_references(workload: Workload) -> dict:
    try:
        refs = json.loads(REFERENCES.read_text())[workload.name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no references for {workload.name}: {exc!r}") from None
    for index in range(POOL_SIZE):
        inputs, _ = workload.entry(index)
        if refs.get(str(index), {}).get("inputs") != inputs:
            raise BenchError(
                f"references for {workload.name} entry {index} do not match its "
                "inputs; record them again with perfbench/record.py"
            )
    return refs


def layer_metrics(plain: list[Invocation], traced: list[Invocation]) -> dict[str, float]:
    def med(key):
        return statistics.median(inv.layers[key] for inv in traced)

    metrics = {
        f"{name}.{suffix}": med(f"{name}.{suffix}")
        for name, _, _ in SPANS
        for suffix in ("calls", "self_s")
    }
    for counter in ("counting.q_scanned", "counting.hits", "covers.sum_width"):
        metrics[counter] = med(counter)
    metrics["covers.GcdBand.contains.accept_ratio"] = statistics.median(
        inv.layers["covers.GcdBand.contains.accepted"]
        / max(1, inv.layers["covers.GcdBand.contains.calls"])
        for inv in traced
    )
    metrics["cli.rows_emitted"] = statistics.median(inv.rows for inv in plain)
    metrics["process.cpu_s"] = statistics.median(inv.cpu_s for inv in plain)
    metrics["trace.overhead_s"] = statistics.median(
        inv.wall_s for inv in traced
    ) - statistics.median(inv.wall_s for inv in plain)
    return metrics


def layer_shares(traced: list[Invocation]) -> dict[str, float]:
    """Share of the traced self time held by each module."""
    totals: dict[str, float] = {}
    for inv in traced:
        for name, _, _ in SPANS:
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + inv.layers[f"{name}.self_s"]
    whole = sum(totals.values()) or 1.0
    return {layer: round(t / whole, 4) for layer, t in totals.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    refs = load_references(workload)
    rng = random.Random(f"{workload.name}/{seed}")
    threads = nproc() if workload.threaded else None
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    start = time.monotonic()
    while True:
        index = rng.randrange(POOL_SIZE)
        for traced_round in (False, True) if trace else (False,):
            timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
            inv = invoke(root, workload, index, threads, traced_round, timeout)
            (traced if traced_round else plain).append(inv)
        if time.monotonic() - start >= seconds:
            break

    checked = wrong = 0
    wrong_names = []
    for inv in plain + traced:
        n, bad = compare(inv.answers, refs[str(inv.index)]["answers"])
        checked += n
        wrong += len(bad)
        wrong_names.extend(f"entry {inv.index}: {name}" for name in bad[:3])
    stamps = {json.dumps(inv.stamp, sort_keys=True) for inv in plain + traced}
    if len(stamps) != 1:
        raise BenchError(f"invocations disagree on their stamp: {sorted(stamps)}")
    stamp = {
        **plain[0].stamp,
        "nproc": nproc(),
        "git_sha": git_sha(root),
        "source": source_digest(root),
    }

    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = {
            "wall_s": statistics.median([inv.wall_ref_s for inv in plain]),
            "setup_s": statistics.median([inv.setup_ref_s for inv in plain]),
            "peak_rss_mb": statistics.median([inv.rss_mb for inv in plain]),
        }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "stamp": stamp,
        "threads": threads,
        "samples": len(plain),
        "traced_samples": len(traced),
        "entries": [inv.index for inv in plain],
        "wall_s": [inv.wall_s for inv in plain],
        "command_s": [inv.command_s for inv in plain],
        "setup_s": [inv.setup_s for inv in plain],
        "peak_rss_mb": [inv.rss_mb for inv in plain],
        "cpu_s": [inv.cpu_s for inv in plain],
        "cal_s": [inv.cal_s for inv in plain],
        "rows": [inv.rows for inv in plain],
        "answers_checked": checked,
        "answers_wrong": wrong,
        "fail_frac": wrong / checked,
        "wrong": wrong_names[:10],
        "metrics": metrics,
    }
    if trace:
        record["layer_share"] = layer_shares(traced)
        record["missing_spans"] = sorted({m for inv in traced for m in inv.missing_spans})
    return {
        "record": record,
        "result": {
            "correct": wrong == 0,
            "attempted": checked,
            "failed": wrong,
            "metrics": {
                name: {"value": value, "unit": unit_of(name)}
                for name, value in metrics.items()
            },
        },
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("accept_ratio"):
        return "ratio"
    if name.endswith("sum_width"):
        return "ulp"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "diocurve" / "cli.py").is_file():
        print(f"error: {root} holds no src/diocurve; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec = out["record"]
    print(
        f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} "
        f"samples={rec['samples']} answers={rec['answers_checked']} "
        f"wrong={rec['answers_wrong']}"
    )
    print("record " + json.dumps(rec))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
