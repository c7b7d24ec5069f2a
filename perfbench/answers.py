"""Answers parsed out of CLI reports, and their check against references.

A report is '#'-prefixed lines followed by CSV.  Only the data rows and
the verdict and fraction summary lines are answers.  The other '#' lines
echo the configuration (library version, backend, count-source policy) and
are expected to change, so they are ignored.

Each answer is one (name, value) pair.  Text columns are compared exactly.
Certified-sum columns are parsed as numbers and compared with a relative
tolerance of REL_TOL, so a report that prints the same enclosure with more
digits or as a fraction still passes.  Reports with thousands of rows are
reduced to one digest per octave of q plus the row count.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

REL_TOL = 1e-9


@dataclass(frozen=True)
class AnswerSpec:
    key: tuple[str, ...]  # columns that name a row
    exact: tuple[str, ...] = ()  # columns compared as text
    numeric: tuple[str, ...] = ()  # columns compared as numbers, within REL_TOL
    digest: bool = False  # one digest per octave of key[0] instead of per row


STABILIZATION = AnswerSpec(("alpha_index",), exact=("new_hits", "verdict"))
SCAN_HITS = AnswerSpec(
    ("q",), exact=("q", "b", "error_num", "error_den", "gcd_bq", "flags_passed"), digest=True
)
THRESHOLD = AnswerSpec(("tau", "Q"), exact=("verdict",), numeric=("sum_lo", "sum_hi"))
SERIES = AnswerSpec(("z", "s", "n", "Q"), numeric=("sum_lo", "sum_hi"))


def parse_report(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """The report's '# key = value' lines and its CSV rows."""
    comments: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(" = ")
            if sep:
                comments[key.strip()] = value.strip()
        elif line:
            body.append(line)
    return comments, list(csv.DictReader(body))


def extract(text: str, spec: AnswerSpec, prefix: str = "") -> dict[str, object]:
    """Every answer of one report; raises ValueError on a malformed report."""
    comments, rows = parse_report(text)
    out: dict[str, object] = {}
    for key, value in comments.items():
        if key.startswith("verdict") or key.endswith("_fraction"):
            out[f"{prefix}#{key}"] = value
    try:
        if spec.digest:
            octaves = defaultdict(list)
            for row in rows:
                octaves[int(row[spec.key[0]]).bit_length() - 1].append(
                    ",".join(row[c] for c in spec.exact)
                )
            out[f"{prefix}rows"] = str(len(rows))
            for k, lines in octaves.items():
                blob = "\n".join(sorted(lines)).encode()
                out[f"{prefix}{spec.key[0]} in [2^{k},2^{k + 1})"] = hashlib.sha256(
                    blob
                ).hexdigest()[:16]
            return out
        for row in rows:
            name = prefix + ",".join(f"{c}={row[c]}" for c in spec.key)
            for c in spec.exact:
                out[f"{name}:{c}"] = row[c]
            for c in spec.numeric:
                out[f"{name}:{c}"] = float(Fraction(row[c]))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed report: {exc!r}") from None
    return out


def count_rows(text: str) -> int:
    return len(parse_report(text)[1])


def compare(got: dict[str, object], ref: dict[str, object]) -> tuple[int, list[str]]:
    """(answers checked, names of wrong ones).  A missing or extra answer is
    wrong."""
    names = sorted(ref.keys() | got.keys())
    wrong = []
    for name in names:
        a, b = got.get(name), ref.get(name)
        if isinstance(a, float) and isinstance(b, float):
            ok = math.isclose(a, b, rel_tol=REL_TOL)
        else:
            ok = a == b
        if not ok:
            wrong.append(name)
    return len(names), wrong
