import statistics
from fractions import Fraction

import pytest

from diocurve.covers import GcdBand
from diocurve.curve import IntPolynomial
from diocurve.experiments import (
    DEFAULT_COUNT_SCHEDULE,
    ExperimentConfig,
    ExponentFit,
    critical_band_experiment,
    fit_loglog,
    geometric_schedule,
    growth_exponent_experiment,
    series_verdict,
    stabilization_experiment,
    svolume_experiment,
    threshold_experiment,
    top_half_window,
)

SQ = IntPolynomial((0, 0, -1))
FULL = GcdBand.full()


def _cfg(**kw):
    base = dict(polynomial=SQ, tau=Fraction(5, 2), band=FULL, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_schedule_and_window_helpers():
    sched = geometric_schedule(4, 8)
    assert sched == (16, 32, 64, 128, 256)
    assert top_half_window(sched) == (64, 256)
    with pytest.raises(ValueError):
        ExperimentConfig(polynomial=SQ, tau=2, band=FULL, q_schedule=(8, 8))


def test_config_rejects_negative_alpha_bits():
    # at construction, so a run that never draws an alpha reports it too
    with pytest.raises(ValueError, match="alpha bits must be >= 0, got -1"):
        _cfg(alpha_bits=-1)
    assert _cfg(alpha_bits=0).echo()["alpha_bits"] == "auto"


def test_fit_loglog_recovers_power_law():
    samples = [(Q, 3.0 * Q**0.5) for Q in geometric_schedule(4, 16)]
    fit = fit_loglog(samples, (2**10, 2**16))
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-9)
    assert fit.npoints == 7
    # insufficient points degrade to flat
    assert fit_loglog([(16, 0.0)], (1, 100)).slope == 0.0


def test_series_verdict_synthetic():
    sched = geometric_schedule(0, 14)
    geo = [3.0 - 2.0**-k for k in range(15)]  # increments shrink by 2 per step
    assert series_verdict(sched, geo) == "converging"
    power = [float(Q) ** 0.5 for Q in sched]
    assert series_verdict(sched, power) == "diverging"
    logarithmic = [1.0 + 0.2 * k for k in range(15)]
    assert series_verdict(sched, logarithmic) == "diverging (logarithmic)"


def test_threshold_experiment_verdicts():
    cfg = _cfg(q_schedule=geometric_schedule(2, 13))
    report = threshold_experiment(cfg, [Fraction(5, 2), Fraction(7, 2)])
    assert report.summary["verdict tau=7/2"] == "converging"
    assert report.summary["verdict tau=5/2"].startswith("diverging slope=")
    # sums are certified: lo <= hi throughout, nondecreasing in Q per tau
    seen = {}
    for tau, Q, lo, hi, _ in report.rows:
        lo, hi = float(lo), float(hi)
        assert lo <= hi
        if tau in seen:
            assert lo >= seen[tau][0] and hi >= seen[tau][1]
        seen[tau] = (lo, hi)
    csv = report.render("csv")
    assert "# experiment = threshold" in csv
    assert "# library = diocurve" in csv
    # the config echo carries no count-policy lines: banded counts have one
    # source; nor cfg.tau or the alpha draw, which the sums do not read
    keys = [line[2:].split(" = ")[0] for line in csv.splitlines() if line.startswith("# ")]
    assert keys == [
        "library", "poly", "band", "experiment", "taus", "schedule",
        "verdict tau=5/2", "verdict tau=7/2",
    ]


def test_growth_experiment_median_slope():
    cfg = _cfg(
        band=GcdBand(Fraction(0), Fraction(1, 4)),
        alpha_count=8,
        alpha_bits=128,
        q_schedule=geometric_schedule(6, 18),
    )
    report = growth_exponent_experiment(cfg)
    median = float(report.summary["median_slope"])
    assert 0.05 <= median <= 0.7  # wide sanity band at reduced scale


def test_critical_band_experiment_runs():
    cfg = _cfg(alpha_count=6, alpha_bits=128, q_schedule=geometric_schedule(6, 16))
    report = critical_band_experiment(cfg, Fraction(1, 4))
    assert report.echo["eps"] == "1/2"
    assert report.echo["band"] == "1/2,1/4"  # the band scanned, not cfg.band
    num, den = report.summary["subpolynomial_fraction"].split("/")
    assert int(den) == 6 and 0 <= int(num) <= 6
    with pytest.raises(ValueError):
        critical_band_experiment(_cfg(tau=Fraction(7, 2)), Fraction(1, 4))


def test_svolume_monotone_and_s1_flattens():
    # tau > d + 1: finitely many hits, so V(1, .) flattens trivially
    cfg = _cfg(tau=Fraction(7, 2), alpha_count=3, alpha_bits=128)
    report = svolume_experiment(cfg, [Fraction(1, 4), Fraction(1)], qmax=256)
    rows_by_alpha = {}
    for row in report.rows:
        if row[1] in ("s*",):
            continue
        rows_by_alpha.setdefault(row[0], []).append(row)
    for rows in rows_by_alpha.values():
        finals = [float(r[2]) for r in rows]
        assert finals == sorted(finals, reverse=True)  # V nonincreasing in s
        assert rows[-1][3] == "flattening"  # s = 1


def test_svolume_critical_exponent_example():
    # tau = 11/4: median s* across seeded alphas lands within 0.15 of
    # (d + 1 - tau)/tau = 1/11 under the declared flattening rule
    cfg = _cfg(tau=Fraction(11, 4), alpha_count=20, alpha_bits=128)
    grid = [Fraction(k, 40) for k in range(1, 17)] + [Fraction(1)]
    report = svolume_experiment(cfg, grid, qmax=1024)
    med = float(report.summary["s_star_median"])
    assert abs(med - 1 / 11) <= 0.15, report.summary
    assert "s_star_spread" in report.summary


def test_svolume_sums_every_hit_up_to_qmax():
    # qmax = 4096 lies above iroot(2^20, 2) = 1024, the top of the old fixed
    # schedule; at s = 4/11 and 8/11 the exponent tau * s is 1 and 2, so
    # V_final = sum over hits of 2 c_n / q_n^(tau s) is an exact rational
    from diocurve.counting import find_hits
    from diocurve.residues import count_solutions

    cfg = _cfg(tau=Fraction(11, 4), alpha_count=2)
    grid = [Fraction(4, 11), Fraction(8, 11)]
    qmax = 4096
    report = svolume_experiment(cfg, grid, qmax=qmax)
    assert report.echo["schedule"] == "64..16777216x2"
    finals = {(r[0], r[1]): float(r[2]) for r in report.rows if r[1] != "s*"}
    above = 0
    for i, alpha in enumerate(cfg.alphas(qmax)):
        hits = find_hits(alpha, 2, 1, cfg.tau, FULL, qmax)
        above += sum(h.q > 1024 for h in hits)
        for s in grid:
            exact = sum(
                Fraction(2 * count_solutions(h.b % h.q, h.q, 2, 1), h.q ** int(cfg.tau * s))
                for h in hits
            )
            assert finals[i, str(s)] == pytest.approx(float(exact), rel=1e-9), (i, s)
    assert above  # the sums include hits the old schedule dropped


def test_stabilization_experiment():
    cfg = _cfg(tau=Fraction(13, 4), alpha_count=5, alpha_bits=192)
    report = stabilization_experiment(cfg, 2**8, 2**10)
    num, den = report.summary["stable_fraction"].split("/")
    assert int(den) == 5
    for row in report.rows:
        assert row[4] in ("stable", "new-hits")


def test_report_formats_and_gnuplot():
    cfg = _cfg(q_schedule=geometric_schedule(2, 12))
    report = threshold_experiment(cfg, [Fraction(7, 2)])
    csv = report.render("csv")
    jsonl = report.render("jsonl")
    assert csv.splitlines()[0].startswith("# library = diocurve")
    assert jsonl.splitlines()[0].startswith("# library = diocurve")
    import json

    data_lines = [l for l in jsonl.splitlines() if not l.startswith("#")]
    first = json.loads(data_lines[0])
    assert first["tau"] == "7/2" and first["Q"] == 4
    curves = report.gnuplot_columns("Q", "sum_hi", key="tau")
    assert set(curves) == {"7/2"}
    assert curves["7/2"].splitlines()[0].split()[0] == "4"


def test_determinism_across_threads_and_reruns():
    cfg = _cfg(alpha_count=6, alpha_bits=128, q_schedule=geometric_schedule(6, 16))
    for run in (
        growth_exponent_experiment,
        lambda c: critical_band_experiment(c, Fraction(1, 4)),
    ):
        outs = [run(cfg).render("csv") for _ in range(2)]
        assert outs[0] == outs[1]  # byte-identical across repeat runs


def test_threshold_logarithmic_at_boundary():
    # tau = d + 1 exactly: sums grow like log Q; verdict tags it
    cfg = _cfg(q_schedule=geometric_schedule(2, 16))
    report = threshold_experiment(cfg, [Fraction(3)])
    assert report.summary["verdict tau=3"].startswith("diverging (logarithmic)")


def test_band_position_ordering():
    # same setup, three band positions: below the critical exponent the
    # count visibly grows; above it effectively stabilizes
    common = dict(
        polynomial=SQ, tau=Fraction(5, 2), alpha_count=20, alpha_bits=128,
        seed=0, q_schedule=geometric_schedule(6, 20),
    )
    medians = {}
    flats = {}
    for eps in (Fraction(3, 10), Fraction(1, 2), Fraction(3, 5)):
        cfg = ExperimentConfig(band=GcdBand(eps, Fraction(1, 4)), **common)
        rep = growth_exponent_experiment(cfg)
        slopes = [float(x) for x in rep.summary["slopes"].split(";")]
        medians[eps] = float(rep.summary["median_slope"])
        flats[eps] = sum(1 for s in slopes if s <= 0.1)
    # below-critical median strictly exceeds the critical one
    assert medians[Fraction(3, 10)] > medians[Fraction(1, 2)]
    # above the critical exponent, >= 90% of alphas are flat
    assert flats[Fraction(3, 5)] >= 18


def test_empty_band_near_zero_counts():
    from diocurve.counting import count_curve, dyadic_alphas, find_hits

    band = GcdBand(Fraction(99, 100), Fraction(1, 100))
    for a in dyadic_alphas(0, 128, 5):
        hits = find_hits(a, 2, 1, Fraction(9, 4), band, 2**8)
        assert count_curve(hits, [2**16], 2) == ((2**16, 0),)
