"""Command line interface.

Subcommands: residues, congruence, reduce, cover, scan, experiment.  All
emit CSV (default) or JSON-lines with a '#'-prefixed config echo block.
Exit codes: 0 on success, 2 on usage/precondition errors (an unwritable
--output or --dump-gnuplot path included), 1 on internal errors.  main
parses a line that starts with a subcommand by that subcommand's parser
alone, built as the tree builds it, so its help and errors are the tree's;
the tree of all six is built only when no subcommand is named or arguments
are left over.  In a fresh process the first build and parse of a
stabilization command took a median 2.55 ms alone against 3.24 ms through
the tree (25 processes each, 2-vCPU x86-64 box, Python 3.11), a share of a
millisecond-scale command.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from ._version import __version__
from .arithmetic import Factorization, PreconditionError, factor_pairs_over
from .counting import HitFlags, count_curve, find_hits
from .covers import GcdBand, cover_measures, restricted_series_partial, tail_sum
from .curve import (
    IntPolynomial,
    derivative_sup_bound,
    lift_constrained,
    reduce_simultaneous,
)
from .experiments import (
    ExperimentConfig,
    Report,
    critical_band_experiment,
    geometric_schedule,
    growth_exponent_experiment,
    stabilization_experiment,
    svolume_experiment,
    threshold_experiment,
)
from .residues import (
    _check,
    count_solutions,
    hensel_lift,
    power_residues,
    scaled_power_residue_count,
    unit_power_count,
    unity_roots_count,
)

_PROG = "diocurve"

# the (x, y, key) columns that --dump-gnuplot plots, by command or experiment kind
_PLOT_COLUMNS = {
    "scan": ("Q", "N", None),
    "threshold": ("Q", "sum_hi", "tau"),
    "growth": ("Q", "N", "alpha_index"),
}

# Per command, the option that picks the form (_FORM) and, per form, the
# options that only some forms read, "!" marking one the form needs.  main
# checks every command against this table before dispatch, then fills in _DEFAULTS.
_FORM = {"congruence": "mode", "cover": "mode", "scan": "curve", "experiment": "kind"}
_READS = {
    "congruence": {"count": "d! ad", "lift": "poly! ptilde!"},
    "cover": {
        "measures": "tau! d! ad q qlo qhi band",
        "tail": "tau! d! ad qlo! qhi! band",
        "series": "z! s! n qmax!",
    },
    "scan": {True: "dump_gnuplot", False: ""},
    "experiment": {
        "threshold": "taus band schedule dump_gnuplot",
        "growth": "tau seed band alpha_count alpha_bits schedule dump_gnuplot",
        # scans eps = 1 + d - tau
        "critical-band": "tau seed delta alpha_count alpha_bits schedule",
        "svolume": "tau seed band alpha_count alpha_bits schedule qmax! s_grid",
        "stabilization": "tau seed band alpha_count alpha_bits qlo! qhi!",
    },
}
# parsed once, as {command: {form: {dest: needed}}}
_READS = {
    cmd: {f: {d.rstrip("!"): d.endswith("!") for d in r.split()} for f, r in forms.items()}
    for cmd, forms in _READS.items()
}
_DEFAULTS = dict(
    ad=1, band=GcdBand.full(), n=1, taus="5/2", tau=Fraction(5, 2), seed=0,
    delta=Fraction(1, 4), alpha_count=20, alpha_bits=0,
)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _series(items) -> str:
    *head, last = items
    return f"{', '.join(head)} and {last}" if head else last


def _served(command: str, dest: str) -> str:
    """The forms of `command` that read `dest`, as `--kind a, b and c`, or `--curve`."""
    forms = [form for form, reads in _READS[command].items() if dest in reads]
    return f"--{_FORM[command]}" + ("" if forms == [True] else f" {_series(forms)}")


def _check_reads(args) -> None:
    """Hold the options to what the chosen form reads and needs; fill in defaults."""
    cmd = args.command
    if cmd in _READS:
        form = getattr(args, _FORM[cmd])
        reads = _READS[cmd][form]
        for dest in dict.fromkeys(d for r in _READS[cmd].values() for d in r):
            if dest not in reads and getattr(args, dest) is not None:
                served = _served(cmd, dest)
                if isinstance(form, bool):  # a flag picks the form
                    raise PreconditionError(f"{_flag(dest)} needs {served}")
                raise PreconditionError(f"{_flag(dest)} serves {served}, not {form}")
        needs = [dest for dest, needed in reads.items() if needed]
        if any(getattr(args, dest) is None for dest in needs):
            raise PreconditionError(f"--{_FORM[cmd]} {form} needs {_series(map(_flag, needs))}")
    vars(args).update((d, v) for d, v in _DEFAULTS.items() if getattr(args, d, v) is None)


def _echo(args, **extra) -> dict:
    return {"library": f"{_PROG} {__version__}", "format": args.format, **extra}


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _band(text: str) -> GcdBand:
    try:
        return GcdBand.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0  # not an integer: refused with the same message
    if n < 1:
        raise argparse.ArgumentTypeError(f"thread count must be an integer >= 1, got {text!r}")
    return n


def _option(p, command: str, flag: str, help: str, **kw) -> None:
    """Add an option that only some forms of `command` read; its help names them."""
    served = _served(command, flag[2:].replace("-", "_"))
    p.add_argument(flag, help=f"{help}; for {served}", **kw)


def _with_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """`p` given --format, --output and the options of command `name`."""
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", help="write to this path instead of stdout")
    _COMMANDS[name][1](p)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, for help, usage and errors."""
    ap = argparse.ArgumentParser(
        prog=_PROG,
        description="exact-arithmetic toolkit for constrained Diophantine "
        "approximation on translated polynomial curves",
    )
    ap.add_argument("--version", action="version", version=f"{_PROG} {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help, *_) in _COMMANDS.items():
        _with_options(sub.add_parser(name, help=help), name)
    return ap


def _moduli(args) -> range:
    """The single --q, or every q in [--qlo, --qhi]."""
    if args.q is not None:
        if args.qlo is not None or args.qhi is not None:
            raise PreconditionError("need --q or both --qlo and --qhi, not both")
        return range(args.q, args.q + 1)
    if args.qlo is None or args.qhi is None:
        raise PreconditionError("need --q or both --qlo and --qhi")
    if args.qlo > args.qhi:
        raise PreconditionError(f"need --qlo <= --qhi, got {args.qlo} > {args.qhi}")
    return range(args.qlo, args.qhi + 1)


def _residues_options(p) -> None:
    p.add_argument("--q", type=int)
    p.add_argument("--qlo", type=int)
    p.add_argument("--qhi", type=int)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--elements", action="store_true", help="also list the residue set")
    p.add_argument("--ad", type=int, help="leading coefficient a_d, default 1")


def _cmd_residues(args) -> Report:
    qs = _moduli(args)
    header = ["q", "u", "e", "r"]
    rows = []
    d, ad = args.d, args.ad
    _check(qs[0], d, ad)  # the least q: every q is then >= 1
    pairs_of = factor_pairs_over(qs[0], qs[-1])  # each q factored once, for all three counts
    for q in qs:
        f = Factorization(q, tuple(pairs_of(q)))
        r = scaled_power_residue_count(f, d, ad)
        row = (q, unity_roots_count(f, d), unit_power_count(f, d), r)
        if args.elements:
            elems = power_residues(q, d, ad).elements
            row = row + (" ".join(map(str, elems)),)
        rows.append(row)
    if args.elements:
        header.append("elements")
    return Report(header, rows, _echo(args, d=d, ad=ad))


def _congruence_options(p) -> None:
    p.add_argument("--mode", choices=("count", "lift"), default="count")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _option(p, "congruence", "--d", "power degree", type=int)
    _option(p, "congruence", "--ad", "leading coefficient a_d, default 1", type=int)
    _option(p, "congruence", "--poly", "coefficients, constant first")
    _option(p, "congruence", "--ptilde", "base solution mod q", type=int)


def _cmd_congruence(args) -> Report:
    if args.mode == "count":
        c = count_solutions(args.b, args.q, args.d, args.ad)
        rows = [(args.q, args.b, args.d, args.ad, c, str(c > 0).lower())]
        return Report(["q", "b", "d", "ad", "solutions", "solvable"], rows, _echo(args))
    poly = IntPolynomial.parse(args.poly)
    d, a_d = poly.degree, poly.lead_negated
    p = hensel_lift(args.ptilde, args.b, args.q, d, a_d, poly)
    rows = [(args.q, args.b, args.ptilde, p, args.q ** (d - 1))]
    return Report(["q", "b", "ptilde", "p", "modulus"], rows, _echo(args, poly=poly.format()))


def _reduce_options(p) -> None:
    p.add_argument("--poly", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--x", type=_fraction, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tau", type=_fraction, required=True)
    p.add_argument("--M", type=int, default=0)


def _cmd_reduce(args) -> Report:
    poly = IntPolynomial.parse(args.poly)
    bound = derivative_sup_bound(poly, args.M)
    hit = reduce_simultaneous(
        args.alpha, args.x, args.p, args.q, args.r, args.tau, bound, poly
    )
    r_back, radius = lift_constrained(
        args.alpha, hit.b, hit.q, args.p, args.tau, bound, poly
    )
    rows = [
        (
            hit.q,
            hit.b,
            hit.error.numerator,
            hit.error.denominator,
            hit.gcd_bq,
            bound.value,
            r_back,
            f"{radius.numerator}/{radius.denominator}",
        )
    ]
    return Report(
        ["q", "b", "error_num", "error_den", "gcd_bq", "K", "r", "radius"],
        rows,
        _echo(
            args,
            poly=poly.format(),
            alpha=args.alpha,
            x=args.x,
            p=args.p,
            r=args.r,
            M=args.M,
            tau=args.tau,
        ),
    )


def _cover_options(p) -> None:
    p.add_argument("--mode", choices=("measures", "tail", "series"), default="measures")
    _option(p, "cover", "--tau", "approximation exponent", type=_fraction)
    _option(p, "cover", "--d", "power degree", type=int)
    _option(p, "cover", "--ad", "leading coefficient a_d, default 1", type=int)
    _option(p, "cover", "--q", "one modulus", type=int)
    _option(p, "cover", "--qlo", "first modulus", type=int)
    _option(p, "cover", "--qhi", "last modulus", type=int)
    _option(p, "cover", "--band", "gcd band, default full", type=_band)
    _option(p, "cover", "--z", "series weight z", type=_fraction)
    _option(p, "cover", "--s", "series exponent s", type=_fraction)
    _option(p, "cover", "--n", "series coprimality modulus, default 1", type=int)
    _option(p, "cover", "--qmax", "series cutoff", type=int)


def _cmd_cover(args) -> Report:
    if args.mode == "series":
        lo, hi = restricted_series_partial(args.z, args.s, args.n, args.qmax)
        rows = [(str(args.z), str(args.s), args.n, args.qmax, float(lo), float(hi), float(hi - lo))]
        return Report(["z", "s", "n", "Q", "sum_lo", "sum_hi", "width"], rows, _echo(args))
    if args.mode == "tail":
        qs = _moduli(args)  # [--qlo, --qhi]: tail reads no --q
        lo, hi = tail_sum(args.tau, args.d, args.ad, qs[0], qs[-1], args.band)
        rows = [(str(args.tau), args.qlo, args.qhi, float(lo), float(hi))]
        echo = _echo(args, d=args.d, ad=args.ad, band=args.band.format())
        return Report(["tau", "qlo", "qhi", "sum_lo", "sum_hi"], rows, echo)
    qs = _moduli(args)
    rows = [
        (
            rec.q,
            rec.center_count,
            f"{rec.measure_lo.numerator}/{rec.measure_lo.denominator}",
            f"{rec.measure_hi.numerator}/{rec.measure_hi.denominator}",
        )
        for rec in cover_measures(qs[0], qs[-1], args.tau, args.d, args.ad, args.band)
    ]
    return Report(
        ["q", "center_count", "measure_lo", "measure_hi"],
        rows,
        _echo(args, tau=args.tau, d=args.d, ad=args.ad, band=args.band.format()),
    )


def _scan_options(p) -> None:
    p.add_argument("--poly", required=True)
    p.add_argument("--tau", type=_fraction, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--band", type=_band, help="gcd band, default full")
    p.add_argument("--primitive", action="store_true")
    p.add_argument("--coprime", action="store_true")
    p.add_argument("--omega-max", type=int)
    p.add_argument(
        "--curve",
        action="store_true",
        help="emit the (Q, N) counting curve along a doubling schedule "
        "instead of individual hits",
    )
    _option(p, "scan", "--dump-gnuplot", "also write PREFIX_curve.dat", metavar="PREFIX")


def _cmd_scan(args) -> Report:
    poly = IntPolynomial.parse(args.poly)
    d, a_d = poly.degree, poly.lead_negated
    flags = HitFlags(args.primitive, args.coprime, args.omega_max)
    hits = find_hits(args.alpha, d, a_d, args.tau, args.band, args.qmax, flags)
    passed = flags.describe()
    echo = _echo(
        args,
        poly=poly.format(),
        tau=args.tau,
        alpha=args.alpha,
        qmax=args.qmax,
        band=args.band.format(),
        flags=passed,
    )
    if args.curve:
        # the first power of two at or past qmax^d, so every hit is counted
        hi_exp = max(2, (args.qmax**d - 1).bit_length())
        rows = list(count_curve(hits, geometric_schedule(2, hi_exp), d))
        return Report(["Q", "N"], rows, echo)
    rows = [(h.q, h.b, h.error.numerator, h.error.denominator, h.gcd_bq, passed) for h in hits]
    return Report(
        ["q", "b", "error_num", "error_den", "gcd_bq", "flags_passed"], rows, echo
    )


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"--schedule takes LOEXP:HIEXP, two integers, got {text}") from None
    if lo < 0:
        raise ValueError(f"--schedule LOEXP:HIEXP needs LOEXP >= 0, got {text}")
    if lo > hi:
        raise ValueError(f"--schedule LOEXP:HIEXP needs LOEXP <= HIEXP, got {text}")
    return geometric_schedule(lo, hi)


def _parse_rationals(flag: str, text: str) -> list[Fraction]:
    """The distinct rationals of a semicolon list such as --taus '5/2;3'."""
    try:
        values = [Fraction(x) for x in text.split(";")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} takes rationals separated by ';', got {text}") from None
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} lists {value} twice, got {text}")
    return values


def _experiment_options(p) -> None:
    p.add_argument(
        "--kind",
        choices=("threshold", "growth", "critical-band", "svolume", "stabilization"),
        required=True,
    )
    p.add_argument("--poly", default="0,0,-1")
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="accepted for compatibility; has no effect (reports are "
        "identical for every value)",
    )
    _option(p, "experiment", "--tau", "approximation exponent, default 5/2", type=_fraction)
    _option(p, "experiment", "--seed", "alpha draw seed, default 0", type=int)
    _option(p, "experiment", "--taus", "semicolon list, e.g. '5/2;3;7/2', default 5/2")
    _option(p, "experiment", "--band", "gcd band, default full", type=_band)
    _option(p, "experiment", "--delta", "band width, default 1/4", type=_fraction)
    _option(p, "experiment", "--alpha-count", "seeded alphas, default 20", type=int)
    _option(p, "experiment", "--alpha-bits", "alpha bits, default 0: auto", type=int)
    _option(p, "experiment", "--schedule", "LOEXP:HIEXP powers of two, e.g. 6:20")
    _option(p, "experiment", "--qmax", "scan depth", type=int)
    _option(p, "experiment", "--qlo", "window start", type=int)
    _option(p, "experiment", "--qhi", "window end", type=int)
    _option(p, "experiment", "--s-grid", "semicolon list of s values")
    write = "also write one two-column PREFIX_<curve>.dat file per tau or alpha"
    _option(p, "experiment", "--dump-gnuplot", write, metavar="PREFIX")


def _cmd_experiment(args) -> Report:
    cfg = ExperimentConfig(
        polynomial=IntPolynomial.parse(args.poly),
        tau=args.tau,
        band=args.band,
        alpha_count=args.alpha_count,
        alpha_bits=args.alpha_bits,
        seed=args.seed,
        q_schedule=_parse_schedule(args.schedule) if args.schedule else (),
    )
    if args.kind == "threshold":
        return threshold_experiment(cfg, _parse_rationals("--taus", args.taus))
    if args.kind == "growth":
        return growth_exponent_experiment(cfg)
    if args.kind == "critical-band":
        return critical_band_experiment(cfg, args.delta)
    if args.kind == "svolume":
        grid = (
            _parse_rationals("--s-grid", args.s_grid)
            if args.s_grid
            else [Fraction(k, 40) for k in range(1, 11)] + [Fraction(1)]
        )
        return svolume_experiment(cfg, grid, args.qmax)
    return stabilization_experiment(cfg, args.qlo, args.qhi)


# per subcommand: its help line, the function that adds its options, and
# the function that runs it
_COMMANDS = {
    "residues": ("power-residue profiles and sets", _residues_options, _cmd_residues),
    "congruence": ("solution counts and Hensel lifts", _congruence_options, _cmd_congruence),
    "reduce": ("simultaneous-to-constrained round trip", _reduce_options, _cmd_reduce),
    "cover": ("cover measures, tail sums, L series", _cover_options, _cmd_cover),
    "scan": ("constrained hit scan / counting curve", _scan_options, _cmd_scan),
    "experiment": ("the five experiment drivers", _experiment_options, _cmd_experiment),
}


def main(argv=None) -> int:
    """Run one command: render its report once, write it to --output or
    stdout, then write the --dump-gnuplot files, one per curve."""
    argv = sys.argv[1:] if argv is None else argv
    args = None
    # the top level refuses "--=..." as an ambiguous option of its own
    if argv and argv[0] in _COMMANDS and not any(a.startswith("--=") for a in argv):
        one = _with_options(argparse.ArgumentParser(prog=f"{_PROG} {argv[0]}"), argv[0])
        args, rest = one.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        _check_reads(args)
        *_, run = _COMMANDS[args.command]
        report = run(args)
        text = report.render(args.format)
        if args.output:
            _write_file(args.output, text)
        else:
            sys.stdout.write(text)
        if getattr(args, "dump_gnuplot", None):
            xcol, ycol, key = _PLOT_COLUMNS[getattr(args, "kind", args.command)]
            for label, data in report.gnuplot_columns(xcol, ycol, key=key).items():
                _write_file(f"{args.dump_gnuplot}_{label.replace('/', '_')}.dat", data)
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - internal failure boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
