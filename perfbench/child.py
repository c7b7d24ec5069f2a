"""One benchmark invocation in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec names the source directory, the CLI argument lists, the sieve
size and whether to trace.  The child imports diocurve.cli, grows the
shared sieve (the end of set-up), runs each command through cli.main and
prints one JSON line: the monotonic clock at the end of set-up, the wall
time of each command, return codes, CPU seconds, peak RSS, the time of
the calibration loop before and after the commands, the version stamp
and, when traced, the per-layer metrics.  CLOCK_MONOTONIC is shared
by all processes, so the parent measures set-up from before it spawned
this process to `ready_ns`.
"""

import json
import resource
import sys
import time
from fractions import Fraction


def calibrate(n: int = 25_000) -> float:
    """Seconds for a fixed loop that uses no diocurve code but works like
    its scans: big-integer products and divisions, Fractions, a dict and a
    churning list.  It reads the machine's speed at this moment."""
    t0 = time.perf_counter()
    num, den = 0x9E3779B97F4A7C15F39CC0605CEDC835, 1 << 128
    kept, seen = [], {}
    for q in range(1, n):
        t = q * q
        b, rem = divmod(t * num, den)
        if rem**4 * q**13 < (den * t) ** 4:
            kept.append((q, b))
        kept.append(Fraction(rem % 997 + 1, q))
        seen[b % 4099] = q
        if len(kept) > 20_000:
            kept.sort(key=hash)
            del kept[:10_000]
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from diocurve import _kernels, arithmetic, cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # looked up through the module so a traced get_sieve is the one called
    arithmetic.get_sieve(spec["sieve"])
    ready_ns = time.monotonic_ns()

    cal0 = calibrate()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    walls, codes = [], []
    for argv in spec["commands"]:
        t0 = time.monotonic_ns()
        codes.append(cli.main(argv))
        walls.append((time.monotonic_ns() - t0) / 1e9)
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cal1 = calibrate()

    import numpy

    out = {
        "ready_ns": ready_ns,
        "command_s": walls,
        "codes": codes,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "rss_kb": cpu1.ru_maxrss,
        "cal_s": [cal0, cal1],
        "stamp": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "backend": _kernels.backend_name(),
        },
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["missing_spans"] = tracer.missing
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
