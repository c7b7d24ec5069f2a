"""Desk-scale experiment drivers: the convergence threshold of the cover
series, growth exponents of the banded counting function, the critical
gcd band, s-volume partial sums, and stabilization above the threshold
(the share of alphas with no hit in a window of moduli), plus
deterministic report emission.

Verdicts at finite scale need explicit rules.  They are the module
constants below, the same for every experiment; reports do not echo them:

* sums are sampled along a geometric Q schedule of ratio 2; Cauchy
  increments are taken over consecutive non-overlapping quadruplings of Q
  (per-doubling increments of a barely-convergent series shrink by less
  than the SHRINK_FACTOR cut, quadrupling restores the margin);
* "flattening" means the last three such increments each shrink by a
  factor >= SHRINK_FACTOR = 1.5; "unbounded" means they are non-shrinking
  and the total exceeds GROWTH_TOTAL_FACTOR = 10 times the first schedule
  increment, tagged logarithmic below the slope LOG_SLOPE_CUT = 0.15;
* exponent fits are least squares on log-log points over the top half of
  the schedule only, always reported with residual and window; the
  critical band calls a slope <= FLAT_SLOPE = 0.1 subpolynomial;
* an s-volume trace flattens when the top half of its schedule adds at
  most SVOLUME_REL_TOL = 0.1 of its final value;
* almost-everywhere claims are checked as supermajorities over seeded
  random alphas, never as universals.

Each experiment visits its alphas one after another in seed order, all
through one scan loop (``_alpha_hits``).  The per-alpha work is
pure-Python big-integer arithmetic that holds the GIL, so a thread pool
measured slower than this loop, and on the stabilization scan one alpha
costs less than starting a worker process.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ._version import __version__
from .arithmetic import Rational, iroot
from .counting import count_curve, dyadic_alphas, find_hits, required_alpha_bits
from .covers import GcdBand, IntervalSum, tail_sums
from .curve import ConstrainedHit, IntPolynomial
from .residues import count_solutions


SHRINK_FACTOR = 1.5
GROWTH_TOTAL_FACTOR = 10.0
FLAT_SLOPE = 0.1
LOG_SLOPE_CUT = 0.15  # below this a diverging sum is tagged logarithmic
SVOLUME_REL_TOL = 0.1  # sparse-sum flattening: relative top-half growth


def geometric_schedule(lo_exp: int, hi_exp: int) -> tuple[int, ...]:
    """Powers of two 2^lo_exp .. 2^hi_exp, each twice the one before."""
    return tuple(1 << k for k in range(lo_exp, hi_exp + 1))


@dataclass(frozen=True)
class ExperimentConfig:
    polynomial: IntPolynomial
    tau: Fraction
    band: GcdBand
    alpha_count: int = 20
    alpha_bits: int = 0  # 0 = derive from (d, tau, qmax) with a 128-bit floor
    seed: int = 0
    q_schedule: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tau", Fraction(self.tau))
        if self.alpha_count < 1:
            raise ValueError("alpha count must be >= 1")
        if self.alpha_bits < 0:
            raise ValueError(f"alpha bits must be >= 0, got {self.alpha_bits}")
        if self.q_schedule and any(
            a >= b for a, b in zip(self.q_schedule, self.q_schedule[1:])
        ):
            raise ValueError("Q schedule must be strictly increasing")

    @property
    def d(self) -> int:
        return self.polynomial.degree

    @property
    def a_d(self) -> int:
        return self.polynomial.lead_negated

    def schedule(self, default: tuple[int, ...]) -> tuple[int, ...]:
        return self.q_schedule if self.q_schedule else default

    def alphas(self, qmax: int) -> list[Fraction]:
        bits = self.alpha_bits or required_alpha_bits(self.d, self.tau, qmax)
        return dyadic_alphas(self.seed, bits, self.alpha_count)

    def echo(self, *, draws: bool = True, **extra) -> dict:
        """Config echo for report files, one `# key = value` line per entry.

        draws=False leaves out tau and the alpha draw (alpha_count,
        alpha_bits, seed), for a driver that reads none of them.
        """
        echo = {
            "library": f"diocurve {__version__}",
            "poly": self.polynomial.format(),
            "tau": str(self.tau),
            "band": self.band.format(),
            "alpha_count": self.alpha_count,
            "alpha_bits": self.alpha_bits or "auto",
            "seed": self.seed,
        }
        if not draws:
            for key in ("tau", "alpha_count", "alpha_bits", "seed"):
                del echo[key]
        return {**echo, **extra}


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(value) against log(Q) over a stated window."""

    slope: float
    residual: float
    window: tuple[int, int]
    npoints: int


def fit_loglog(samples: Sequence[tuple[int, float]], window: tuple[int, int]) -> ExponentFit:
    """Fit over samples with positive value inside [window_lo, window_hi];
    fewer than two usable points reads as flat (slope 0)."""
    lo, hi = window
    pts = [
        (math.log(Q), math.log(v)) for Q, v in samples if lo <= Q <= hi and v > 0
    ]
    if len(pts) < 2:
        return ExponentFit(0.0, 0.0, window, len(pts))
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = n * sxx - sx * sx
    if denom == 0:
        return ExponentFit(0.0, 0.0, window, n)
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    residual = math.sqrt(
        sum((y - slope * x - intercept) ** 2 for x, y in pts) / n
    )
    return ExponentFit(slope, residual, window, n)


def top_half_window(schedule: Sequence[int]) -> tuple[int, int]:
    half = list(schedule)[len(schedule) // 2 :]
    return half[0], half[-1]


def _quadrupling_increments(values: Sequence[float]) -> list[float]:
    """Increments over consecutive non-overlapping quadruplings, newest last,
    for a schedule of ratio 2 (every ``geometric_schedule``)."""
    out = []
    i = len(values) - 1
    while i - 2 >= 0:
        out.append(values[i] - values[i - 2])
        i -= 2
    return list(reversed(out))


def series_verdict(schedule: Sequence[int], sums: Sequence[float]) -> str:
    """Classify a nondecreasing partial-sum trace as converging/diverging."""
    incs = _quadrupling_increments(sums)
    if len(incs) < 4 or len(sums) < 3:
        return "indeterminate"
    last = incs[-3:]
    prev = incs[-4:-1]
    shrinking = all(
        new == 0 or (old / new) >= SHRINK_FACTOR for old, new in zip(prev, last)
    )
    if shrinking:
        return "converging"
    # not geometrically flattening: call it diverging once the total has
    # visibly outgrown the first schedule increment, tagging the slow
    # (logarithmic-looking) cases by their log-log slope
    first_inc = sums[1] - sums[0]
    if first_inc > 0 and sums[-1] >= GROWTH_TOTAL_FACTOR * first_inc:
        fit = fit_loglog(list(zip(schedule, sums)), top_half_window(schedule))
        if fit.slope < LOG_SLOPE_CUT:
            return "diverging (logarithmic)"
        return "diverging"
    return "indeterminate"


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    """Rows plus config echo; renders to CSV or JSON-lines deterministically.

    The echo and the summary are rendered as one `# key = value` line per
    entry, echo first.  Numeric sum columns are display approximations of
    the certified bounds; the exact rationals live in the library API.
    """

    header: list[str]
    rows: list[tuple]
    echo: dict
    summary: dict = field(default_factory=dict)

    def render(self, fmt: str) -> str:
        """The echo and summary lines, then the CSV or JSON-lines body, each
        line ended by a newline."""
        if fmt == "csv":
            rows = (",".join(map(str, row)) for row in self.rows)
            body = [",".join(self.header), *rows]
        elif fmt == "jsonl":
            body = [json.dumps(dict(zip(self.header, r)), default=str) for r in self.rows]
        else:
            raise ValueError(f"unknown format {fmt!r}")
        items = (*self.echo.items(), *self.summary.items())
        head = [f"# {k} = {v}" for k, v in items]
        return "".join(line + "\n" for line in (*head, *body))

    def gnuplot_columns(self, xcol: str, ycol: str, *, key: Optional[str] = None):
        """Two-column plain data blocks keyed by `key` (one dict per curve)."""
        xi, yi = self.header.index(xcol), self.header.index(ycol)
        curves: dict[str, list[str]] = {}
        ki = self.header.index(key) if key else None
        for row in self.rows:
            label = str(row[ki]) if ki is not None else "curve"
            curves.setdefault(label, []).append(f"{row[xi]} {row[yi]}")
        return {label: "\n".join(lines) + "\n" for label, lines in curves.items()}


DEFAULT_THRESHOLD_SCHEDULE = geometric_schedule(2, 16)
DEFAULT_COUNT_SCHEDULE = geometric_schedule(6, 20)


def threshold_experiment(
    cfg: ExperimentConfig, taus: Sequence[Rational]
) -> Report:
    """Partial sums of the per-q cover measures for each tau, with a
    convergence verdict per tau and a growth-exponent fit when diverging.

    Reads the polynomial, band and schedule of cfg, and not its tau or
    alpha draw, which the report therefore does not echo."""
    schedule = cfg.schedule(DEFAULT_THRESHOLD_SCHEDULE)
    taus = [Fraction(t) for t in taus]
    # one count pass over [1, schedule[-1]] serves every segment and every tau
    segments = tail_sums(taus, cfg.d, cfg.a_d, 1, schedule, cfg.band)
    rows = []
    verdicts = {}
    for i, tau in enumerate(taus):
        lo_acc = Fraction(0)
        hi_acc = Fraction(0)
        sums = []
        for Q, segment in zip(schedule, segments):
            lo, hi = segment[i]
            lo_acc += lo
            hi_acc += hi
            mid = float((lo_acc + hi_acc) / 2)
            sums.append(mid)
            rows.append((str(tau), Q, f"{float(lo_acc):.12g}", f"{float(hi_acc):.12g}", ""))
        verdict = series_verdict(schedule, sums)
        fit = fit_loglog(list(zip(schedule, sums)), top_half_window(schedule))
        if verdict.startswith("diverging"):
            verdicts[str(tau)] = f"{verdict} slope={fit.slope:.4f}"
        else:
            verdicts[str(tau)] = verdict
        rows[-1] = rows[-1][:4] + (verdicts[str(tau)],)
    report = Report(
        header=["tau", "Q", "sum_lo", "sum_hi", "verdict"],
        rows=rows,
        echo=cfg.echo(
            draws=False,
            experiment="threshold",
            taus=";".join(map(str, taus)),
            schedule=f"{schedule[0]}..{schedule[-1]}x2",
        ),
        summary={f"verdict tau={t}": v for t, v in verdicts.items()},
    )
    return report


def _alpha_hits(cfg: ExperimentConfig, band: GcdBand, qmax: int) -> list[list[ConstrainedHit]]:
    """The hits of each alpha of ``cfg.alphas(qmax)`` for q <= qmax in the
    given band, in seed order: the one per-alpha scan of the experiments."""
    return [find_hits(alpha, cfg.d, cfg.a_d, cfg.tau, band, qmax) for alpha in cfg.alphas(qmax)]


def _per_alpha_fits(
    cfg: ExperimentConfig, band: GcdBand, schedule: Sequence[int]
) -> tuple[list[tuple[tuple[int, int], ...]], list[ExponentFit]]:
    """The (Q, N) samples of each alpha's counting function along the
    schedule, and their fits over its top half."""
    qmax = iroot(schedule[-1], cfg.d)
    window = top_half_window(schedule)
    curves = [count_curve(hits, schedule, cfg.d) for hits in _alpha_hits(cfg, band, qmax)]
    fits = [fit_loglog([(Q, float(n)) for Q, n in c], window) for c in curves]
    return curves, fits


def growth_exponent_experiment(cfg: ExperimentConfig) -> Report:
    """Per-alpha exponent fits of N(Q) for the banded counting function,
    plus the cross-alpha median."""
    schedule = cfg.schedule(DEFAULT_COUNT_SCHEDULE)
    curves, fits = _per_alpha_fits(cfg, cfg.band, schedule)
    rows = []
    for i, (curve, fit) in enumerate(zip(curves, fits)):
        for Q, n in curve:
            rows.append((i, Q, n, "", "", ""))
        rows[-1] = (
            i,
            curve[-1][0],
            curve[-1][1],
            f"{fit.slope:.6f}",
            f"{fit.residual:.6f}",
            f"{fit.window[0]}..{fit.window[1]}",
        )
    median = statistics.median(f.slope for f in fits)
    return Report(
        header=["alpha_index", "Q", "N", "slope", "residual", "fit_window"],
        rows=rows,
        echo=cfg.echo(
            experiment="growth-exponent",
            schedule=f"{schedule[0]}..{schedule[-1]}x2",
        ),
        summary={
            "median_slope": f"{median:.6f}",
            "slopes": ";".join(f"{f.slope:.4f}" for f in fits),
        },
    )


def critical_band_experiment(cfg: ExperimentConfig, delta: Rational) -> Report:
    """Growth fits in the critical band eps = 1 + d - tau; verdict
    'subpolynomial' per alpha when the top-window slope stays small."""
    eps = Fraction(1 + cfg.d) - cfg.tau
    if not 0 <= eps < 1:
        raise ValueError(f"critical band eps = {eps} outside [0, 1); need tau in (d, d+1]")
    band = GcdBand(eps, Fraction(delta))
    schedule = cfg.schedule(DEFAULT_COUNT_SCHEDULE)
    curves, fits = _per_alpha_fits(cfg, band, schedule)
    rows = []
    flat = 0
    for i, (curve, fit) in enumerate(zip(curves, fits)):
        verdict = "subpolynomial" if fit.slope <= FLAT_SLOPE else "growing"
        flat += verdict == "subpolynomial"
        rows.append(
            (
                i,
                curve[-1][1],
                f"{fit.slope:.6f}",
                f"{fit.residual:.6f}",
                f"{fit.window[0]}..{fit.window[1]}",
                verdict,
            )
        )
    return Report(
        header=["alpha_index", "final_N", "slope", "residual", "fit_window", "verdict"],
        rows=rows,
        echo=cfg.echo(
            experiment="critical-band",
            band=band.format(),  # the band scanned, not cfg.band
            eps=str(eps),
            delta=str(Fraction(delta)),
            schedule=f"{schedule[0]}..{schedule[-1]}x2",
        ),
        summary={
            "subpolynomial_fraction": f"{flat}/{len(fits)}",
        },
    )


def svolume_experiment(
    cfg: ExperimentConfig, s_grid: Sequence[Rational], qmax: int
) -> Report:
    """s-volume partial sums V(s, Q) = sum over hits of 2 c_n q_n^(-tau s),
    with a flattening verdict per s and the critical s* per alpha.

    Boundedness of V(s, .) as the scan deepens witnesses a vanishing
    s-dimensional sum at that s; s* is the smallest grid s that flattens.
    The default schedule runs from 2^6 to the least power of two, at least
    2^20, that reaches qmax^d, so that every hit of the scan is summed; a
    given schedule must reach qmax^d too.
    """
    s_grid = sorted(Fraction(s) for s in s_grid)
    if any(not 0 < s <= 1 for s in s_grid):
        raise ValueError("s grid must lie in (0, 1]")
    top = qmax**cfg.d
    schedule = cfg.schedule(geometric_schedule(6, max(20, (top - 1).bit_length())))
    if schedule[-1] < top:
        raise ValueError(
            f"svolume schedule must reach qmax^d = {top}, got top {schedule[-1]}"
        )
    # verdicts read the sums at the middle and the end of the schedule, and
    # the end takes every hit
    mid_cut = iroot(schedule[len(schedule) // 2], cfg.d)
    rows = []
    stars = []
    for i, hits in enumerate(_alpha_hits(cfg, cfg.band, qmax)):
        qs = [h.q for h in hits]
        nums = [2 * count_solutions(h.b % h.q, h.q, cfg.d, cfg.a_d) for h in hits]
        half = bisect.bisect_right(qs, mid_cut)  # hits ascend in q
        s_star = None
        for s in s_grid:
            exponent = cfg.tau * s
            u, v = exponent.numerator, exponent.denominator
            acc = IntervalSum(64)
            sums = []
            for part in (slice(half), slice(half, None)):
                acc.add_ratios(nums[part], qs[part], u, v)
                sums.append(float(sum(acc.interval()) / 2))  # midpoint
            mid, final = sums
            # sparse sums have no steady Cauchy trace; flattening here means
            # the top half of the schedule adds at most SVOLUME_REL_TOL of
            # the final value
            rel = (final - mid) / final if final > 0 else 0.0
            flattened = rel <= SVOLUME_REL_TOL
            verdict = "flattening" if flattened else "growing"
            rows.append((i, str(s), f"{final:.10g}", verdict, f"relgrow={rel:.4f}"))
            if flattened and s_star is None:
                s_star = s
        stars.append(s_star)
        rows.append((i, "s*", "" if s_star is None else str(s_star), "", ""))
    finite = [float(s) for s in stars if s is not None]
    summary = {
        "s_star_per_alpha": ";".join(str(s) if s is not None else "none" for s in stars),
    }
    if finite:
        summary["s_star_median"] = f"{statistics.median(finite):.6f}"
        summary["s_star_spread"] = f"{min(finite):.6f}..{max(finite):.6f}"
    return Report(
        header=["alpha_index", "s", "V_final", "verdict", "note"],
        rows=rows,
        echo=cfg.echo(
            experiment="svolume",
            qmax=qmax,
            s_grid=";".join(str(s) for s in s_grid),
            schedule=f"{schedule[0]}..{schedule[-1]}x2",
        ),
        summary=summary,
    )


def stabilization_experiment(
    cfg: ExperimentConfig, q_lo: int, q_hi: int
) -> Report:
    """Fraction of seeded alphas with no hit at all for q in [q_lo, q_hi]
    (emptiness witness for the regime above the convergence threshold)."""
    if not 1 <= q_lo <= q_hi:
        raise ValueError(
            f"stabilization window needs 1 <= q_lo <= q_hi, got [{q_lo}, {q_hi}]"
        )
    counts = [sum(h.q >= q_lo for h in hits) for hits in _alpha_hits(cfg, cfg.band, q_hi)]
    rows = [
        (i, q_lo, q_hi, c, "stable" if c == 0 else "new-hits")
        for i, c in enumerate(counts)
    ]
    stable = sum(1 for c in counts if c == 0)
    return Report(
        header=["alpha_index", "q_lo", "q_hi", "new_hits", "verdict"],
        rows=rows,
        echo=cfg.echo(experiment="stabilization", q_lo=q_lo, q_hi=q_hi),
        summary={"stable_fraction": f"{stable}/{len(counts)}"},
    )
