"""The benchmark's workloads: real `diocurve` CLI commands over fixed input pools.

Every workload owns a pool of POOL_SIZE inputs.  The benchmark's --seed
picks entries from the pool, so the answers of every entry can be recorded
once (references.json, written by record.py) and checked on every run.
Entries of one pool differ in their inputs but not in the amount of work,
so timings from different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from answers import STABILIZATION, SCAN_HITS, SERIES, THRESHOLD, AnswerSpec

POOL_SIZE = 16

# The threshold experiment is checked below diocurve's oracle_limit = 10^4,
# where the banded center count is enumerated, not the divisor-sum bound.
ORACLE_LIMIT = 10**4


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    spec: AnswerSpec


@dataclass(frozen=True)
class Workload:
    name: str
    # largest q the commands factorize; set-up grows the shared sieve to it
    sieve: int
    # whether the commands take --threads <nproc>
    threaded: bool
    _entry: Callable[[int], tuple[dict, list[Command]]]

    def entry(self, index: int, threads: Optional[int] = None) -> tuple[dict, list[Command]]:
        """The input description and the commands of one pool entry.

        `threads` is appended as --threads to threaded workloads.
        """
        if not 0 <= index < POOL_SIZE:
            raise ValueError(f"pool entry {index} outside 0..{POOL_SIZE - 1}")
        inputs, commands = self._entry(index)
        if self.threaded and threads is not None:
            commands = [
                Command(c.argv + ("--threads", str(threads)), c.spec) for c in commands
            ]
        return inputs, commands


def _scan_narrow(i: int):
    # four dyadic alphas drawn by the CLI from --seed i
    argv = (
        "experiment", "--kind", "stabilization", "--tau", "13/4",
        "--alpha-count", "4", "--qlo", str(1 << 8), "--qhi", str(1 << 15),
        "--seed", str(i),
    )
    return {"seed": i}, [Command(argv, STABILIZATION)]


def _scan_wide(i: int):
    bits = 128
    num = random.Random(f"scan-wide/{i}").getrandbits(bits) | 1
    alpha = f"{num}/{1 << bits}"
    argv = (
        "scan", "--poly", "0,0,-1", "--tau", "7/4", "--band", "1/4,1/4",
        "--alpha", alpha, "--qmax", str(1 << 13),
    )
    return {"alpha": alpha}, [Command(argv, SCAN_HITS)]


# Entries vary only in inputs of equal cost: exponents of the same
# denominator and size, small integer weights, moduli with the same primes.
def _cover_full(i: int):
    taus = f"5/2;3;{('7/2', '9/2')[i & 1]}"
    z = ("2", "3")[i >> 1 & 1]
    s = ("6/5", "7/5")[i >> 2 & 1]
    n = ("6", "12")[i >> 3 & 1]
    threshold = ("experiment", "--kind", "threshold", "--taus", taus, "--schedule", "2:14")
    series = (
        "cover", "--mode", "series", "--z", z, "--s", s, "--n", n,
        "--qmax", str(1 << 18),
    )
    return {"taus": taus, "z": z, "s": s, "n": n}, [
        Command(threshold, THRESHOLD),
        Command(series, SERIES),
    ]


_BANDED_TOP_EXP = 10
assert 1 << _BANDED_TOP_EXP <= ORACLE_LIMIT


def _cover_banded(i: int):
    # one residue enumeration and one GcdBand.contains per residue whatever
    # the entry; both bands compare against exponents with denominator 4
    tau = f"{5 + 2 * (i % 8)}/2"
    band = ("1/2,1/4", "1/4,1/2")[i // 8]
    argv = (
        "experiment", "--kind", "threshold", "--taus", tau, "--band", band,
        "--schedule", f"2:{_BANDED_TOP_EXP}",
    )
    return {"tau": tau, "band": band}, [Command(argv, THRESHOLD)]


# Why each workload is in the benchmark is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-narrow", 1 << 15, True, _scan_narrow),
        Workload("scan-wide", 1 << 13, False, _scan_wide),
        Workload("cover-full", 1 << 14, False, _cover_full),
        Workload("cover-banded", 1 << _BANDED_TOP_EXP, False, _cover_banded),
    )
}
