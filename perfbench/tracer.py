"""Spans around the public functions of each diocurve layer, for traced runs.

A span records a call's start and end on the thread that made it.  Its
self time is its duration minus the part covered by its child spans.  A
span opened on a worker thread with nothing open on that thread is a child
of the span open on the main thread at that moment: the program's thread
pools are started and waited on by that call.  Calls, self times and work
counters are summed in memory per thread and merged when the run ends, so
no update is lost under --threads.

The modules bind their imports by name (`from .covers import tail_sum`),
so a wrapper is installed under every name in every diocurve module that
refers to the original function, and on the class for methods.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time

# metric prefix, module, attribute
SPANS = (
    ("cli.main", "diocurve.cli", "main"),
    ("experiments.threshold_experiment", "diocurve.experiments", "threshold_experiment"),
    ("experiments.stabilization_experiment", "diocurve.experiments", "stabilization_experiment"),
    ("counting.find_hits", "diocurve.counting", "find_hits"),
    ("covers.GcdBand.contains", "diocurve.covers", "GcdBand.contains"),
    ("covers.banded_center_count", "diocurve.covers", "banded_center_count"),
    ("covers.tail_sum", "diocurve.covers", "tail_sum"),
    ("covers.restricted_series_partial", "diocurve.covers", "restricted_series_partial"),
    ("covers.IntervalSum.add_ratio_with_root", "diocurve.covers", "IntervalSum.add_ratio_with_root"),
    ("residues.is_power_residue", "diocurve.residues", "is_power_residue"),
    ("residues.is_primitive_power_residue", "diocurve.residues", "is_primitive_power_residue"),
    ("residues.solution_witness", "diocurve.residues", "solution_witness"),
    ("residues.count_solutions", "diocurve.residues", "count_solutions"),
    ("residues.scaled_power_residue_count", "diocurve.residues", "scaled_power_residue_count"),
    ("arithmetic.factorize", "diocurve.arithmetic", "factorize"),
    ("arithmetic.iroot", "diocurve.arithmetic", "iroot"),
    ("arithmetic.get_sieve", "diocurve.arithmetic", "get_sieve"),
    ("kernels.spf_sieve", "diocurve._kernels", "spf_sieve"),
    ("kernels.omega_table", "diocurve._kernels", "omega_table"),
    ("kernels.residue_set", "diocurve._kernels", "residue_set"),
)

COUNTERS = (
    "counting.q_scanned",
    "counting.hits",
    "covers.GcdBand.contains.accepted",
    "covers.sum_width",
)


def _find_hits_counts(counters, bind, args, kwargs, result):
    counters["counting.q_scanned"] += bind(*args, **kwargs).arguments["qmax"]
    counters["counting.hits"] += len(result)


def _contains_counts(counters, bind, args, kwargs, result):
    counters["covers.GcdBand.contains.accepted"] += bool(result)


def _sum_width(counters, bind, args, kwargs, result):
    # width of the certified enclosure, in units of 2^-bits
    bound = bind(*args, **kwargs)
    bound.apply_defaults()
    lo, hi = result
    counters["covers.sum_width"] += int((hi - lo) * (1 << bound.arguments["bits"]))


_HOOKS = {
    "counting.find_hits": _find_hits_counts,
    "covers.GcdBand.contains": _contains_counts,
    "covers.tail_sum": _sum_width,
    "covers.restricted_series_partial": _sum_width,
}


class _ThreadState:
    __slots__ = ("stack", "stats", "counters")

    def __init__(self):
        self.stack = []  # open frames: [child_ns, cross-thread child intervals]
        self.stats = {name: [0, 0] for name, _, _ in SPANS}  # calls, self_ns
        self.counters = dict.fromkeys(COUNTERS, 0)


def _covered(intervals, start, end) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self._state()
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def install(self) -> None:
        """Wrap every function in SPANS; names that no longer exist are
        listed in `missing`."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "diocurve" or n.startswith("diocurve."))
        ]
        for name, module, attr in SPANS:
            owner = sys.modules.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        state = self._state
        main = self._main
        lock = self._lock
        hook = _HOOKS.get(name)
        bind = inspect.signature(fn).bind

        def span(*args, **kwargs):
            st = state()
            stack = st.stack
            cause = None
            if not stack and st is not main and main.stack:
                cause = main.stack[-1]
            frame = [0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if frame[1]:
                    own -= _covered(frame[1], start, end)
                record = st.stats[name]
                record[0] += 1
                record[1] += own
                if stack:
                    stack[-1][0] += duration
                elif cause is not None:
                    with lock:
                        if cause[1] is None:
                            cause[1] = []
                        cause[1].append((start, end))
            if hook is not None:
                hook(st.counters, bind, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def metrics(self) -> dict[str, float]:
        """Calls and self seconds per span, plus the work counters."""
        out: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = sum(s.stats[name][0] for s in states)
            out[f"{name}.self_s"] = sum(s.stats[name][1] for s in states) / 1e9
        for counter in COUNTERS:
            out[counter] = sum(s.counters[counter] for s in states)
        return out
