import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from diocurve.cli import _FORM, _READS, build_parser, main
from diocurve.residues import scaled_power_residue_count, unit_power_count, unity_roots_count


def run_cli(*argv, expect=0):
    out = subprocess.run(
        [sys.executable, "-m", "diocurve.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert out.returncode == expect, (out.stdout, out.stderr)
    return out.stdout


def body(text):
    return [l for l in text.splitlines() if not l.startswith("#")]


def test_residues_example_row(capsys):
    assert main(["residues", "--q", "8", "--d", "2"]) == 0
    lines = body(capsys.readouterr().out)
    assert lines == ["q,u,e,r", "8,4,1,3"]


def test_residues_range_and_elements(capsys):
    assert main(["residues", "--qlo", "5", "--qhi", "6", "--d", "2", "--elements"]) == 0
    lines = body(capsys.readouterr().out)
    assert lines[0] == "q,u,e,r,elements"
    assert lines[1] == "5,2,2,3,0 1 4"
    assert lines[2] == "6,2,1,4,0 1 3 4"  # m^2 = 1 mod 6 for m in {1, 5}


def test_scan_example(capsys):
    assert (
        main(["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", "4"])
        == 0
    )
    lines = body(capsys.readouterr().out)
    assert lines[0] == "q,b,error_num,error_den,gcd_bq,flags_passed"
    qs = [int(l.split(",")[0]) for l in lines[1:]]
    assert sorted(set(qs)) == [1, 2, 3, 4]
    assert "4,5,1,48,1,none" in lines


def _scan_rows(capsys, qmax, *extra):
    argv = ["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", str(qmax)]
    assert main([*argv, *extra]) == 0
    return [l.split(",") for l in body(capsys.readouterr().out)[1:]]


def test_scan_curve_counts_every_hit_modulus(capsys):
    # the schedule runs to the first power of two at or past qmax^d, so its
    # last N is the number of distinct hit moduli q <= qmax
    for qmax in (1000, 1024):
        curve = _scan_rows(capsys, qmax, "--curve")
        moduli = {int(row[0]) for row in _scan_rows(capsys, qmax)}
        # a power-of-two qmax keeps the schedule it had: 2^2 .. qmax^2
        assert [int(Q) for Q, _ in curve] == [1 << e for e in range(2, 21)], qmax
        assert int(curve[-1][1]) == len(moduli), qmax
    assert curve[-1] == ["1048576", "345"]
    assert _scan_rows(capsys, 1000, "--curve")[-1] == ["1048576", "337"]


def test_scan_jsonl(capsys):
    assert (
        main(
            [
                "scan",
                "--poly", "0,0,-1",
                "--tau", "5/2",
                "--alpha", "1/3",
                "--qmax", "4",
                "--format", "jsonl",
            ]
        )
        == 0
    )
    lines = body(capsys.readouterr().out)
    rows = [json.loads(l) for l in lines]
    assert {r["q"] for r in rows} == {1, 2, 3, 4}


def test_cover_jsonl(capsys):
    assert main(["cover", "--tau", "3", "--d", "2", "--qlo", "4", "--qhi", "5",
                 "--format", "jsonl"]) == 0
    out = capsys.readouterr().out
    assert "# format = jsonl" in out.splitlines()
    assert [json.loads(l) for l in body(out)] == [
        {"q": 4, "center_count": 8, "measure_lo": "1/4", "measure_hi": "1/4"},  # {0, 1} x 4
        {"q": 5, "center_count": 15, "measure_lo": "6/25", "measure_hi": "6/25"},
    ]


def test_cover_example(capsys):
    assert main(["cover", "--tau", "3", "--d", "2", "--ad", "1", "--q", "5"]) == 0
    lines = body(capsys.readouterr().out)
    assert lines == [
        "q,center_count,measure_lo,measure_hi",
        "5,15,6/25,6/25",
    ]


def test_cover_tail_and_series(capsys):
    assert (
        main(["cover", "--mode", "tail", "--tau", "4", "--d", "2",
              "--qlo", "2", "--qhi", "4"]) == 0
    )
    lines = body(capsys.readouterr().out)
    lo = float(lines[1].split(",")[3])
    hi = float(lines[1].split(",")[4])
    assert lo <= 307 / 432 <= hi
    assert main(["cover", "--mode", "series", "--z", "1", "--s", "2", "--qmax", "100"]) == 0
    lines = body(capsys.readouterr().out)
    assert lines[0] == "z,s,n,Q,sum_lo,sum_hi,width"
    assert 0 < float(lines[1].split(",")[6]) <= 100 / 2**63


def test_congruence_count_and_lift(capsys):
    assert main(["congruence", "--mode", "count", "--b", "2", "--q", "7", "--d", "2"]) == 0
    lines = body(capsys.readouterr().out)
    assert lines[1] == "7,2,2,1,2,true"
    assert (
        main(
            ["congruence", "--mode", "lift", "--poly", "0,0,0,-1",
             "--b", "2", "--q", "5", "--ptilde", "3"]
        )
        == 0
    )
    lines = body(capsys.readouterr().out)
    assert lines[1] == "5,2,3,3,25"


def test_reduce_round_trip(capsys):
    assert (
        main(
            ["reduce", "--poly", "0,0,-1", "--alpha", "19/64", "--x", "33/64",
             "--p", "1", "--q", "2", "--r", "0", "--tau", "2"]
        )
        == 0
    )
    lines = body(capsys.readouterr().out)
    assert lines[1].startswith("2,1,3,64,1,3,0,")


def test_exit_codes():
    # malformed flags: argparse usage error -> 2
    run_cli("scan", "--poly", "0,0,-1", "--tau", "bad/x", "--alpha", "1/3",
            "--qmax", "4", expect=2)
    # precondition violation -> 2
    run_cli("cover", "--tau", "2", "--d", "2", "--q", "5", expect=2)
    run_cli("congruence", "--mode", "lift", "--poly", "0,0,0,-1",
            "--b", "3", "--q", "5", "--ptilde", "1", expect=2)
    # unknown subcommand -> 2
    run_cli("frobnicate", expect=2)


def test_stabilization_window_validation(capsys):
    base = ["experiment", "--kind", "stabilization", "--alpha-count", "2"]
    for window, message in (
        (["--qlo", "500", "--qhi", "100"], "1 <= q_lo <= q_hi, got [500, 100]"),
        (["--qlo", "0", "--qhi", "100"], "1 <= q_lo <= q_hi, got [0, 100]"),
        (["--qhi", "100"], "needs --qlo and --qhi"),
    ):
        assert main(base + window) == 2
        assert message in capsys.readouterr().err


def test_precondition_errors_exit_2(capsys):
    for argv, message in (
        (["residues", "--qlo", "5", "--d", "2"], "need --q or both --qlo and --qhi"),
        (["cover", "--tau", "3", "--d", "2", "--qlo", "5"], "need --q or both --qlo and --qhi"),
        (["residues", "--q", "8", "--d", "2", "--qlo", "1", "--qhi", "50"],
         "need --q or both --qlo and --qhi, not both"),
        (["cover", "--tau", "3", "--d", "2", "--q", "8", "--qlo", "1", "--qhi", "50"],
         "need --q or both --qlo and --qhi, not both"),
        (["experiment", "--kind", "threshold", "--taus", "3", "--schedule", "9:4"],
         "needs LOEXP <= HIEXP, got 9:4"),
        (["experiment", "--kind", "threshold", "--taus", "3", "--schedule", "9"],
         "--schedule takes LOEXP:HIEXP, two integers, got 9"),
        (["experiment", "--kind", "threshold", "--taus", "3", "--schedule=-1:3"],
         "--schedule LOEXP:HIEXP needs LOEXP >= 0, got -1:3"),
        (["experiment", "--kind", "svolume", "--qmax", "0"], "qmax must be >= 1"),
        (["experiment", "--kind", "svolume", "--qmax", "4096", "--schedule", "6:23"],
         "svolume schedule must reach qmax^d = 16777216, got top 8388608"),
        (["residues", "--qlo", "6", "--qhi", "5", "--d", "2"], "need --qlo <= --qhi, got 6 > 5"),
        (["cover", "--tau", "3", "--d", "2", "--qlo", "6", "--qhi", "5"],
         "need --qlo <= --qhi, got 6 > 5"),
        (["cover", "--mode", "tail", "--tau", "3", "--d", "2", "--qlo", "6", "--qhi", "5"],
         "need --qlo <= --qhi, got 6 > 5"),
        (["cover", "--mode", "series", "--z", "2", "--s", "6/5", "--n", "-6", "--qmax", "100"],
         "coprimality modulus n must be >= 1, got -6"),
        (["cover", "--mode", "series", "--z", "2", "--s", "6/5", "--n", "0", "--qmax", "100"],
         "coprimality modulus n must be >= 1, got 0"),
        (["cover", "--mode", "series", "--z", "2", "--s", "6/5", "--qmax", str(1 << 48)],
         f"omega series needs Q < 2^48, got {1 << 48}"),
        (["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", "4",
          "--omega-max", "-1"], "omega_max must be >= 0, got -1"),
        (["scan", "--poly", "0,0,-1", "--tau", "0", "--alpha", "1/3", "--qmax", "3"],
         "tau must be > 0, got 0"),
        (["scan", "--poly", "0,0,-1", "--tau", "-1", "--alpha", "1/3", "--qmax", "3"],
         "tau must be > 0, got -1"),
        (["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", "4",
          "--dump-gnuplot", "P"], "--dump-gnuplot needs --curve"),
        (["experiment", "--kind", "critical-band", "--dump-gnuplot", "P"],
         "--dump-gnuplot serves --kind threshold and growth, not critical-band"),
        (["experiment", "--kind", "svolume", "--qmax", "4", "--dump-gnuplot", "P"],
         "--dump-gnuplot serves --kind threshold and growth, not svolume"),
        (["experiment", "--kind", "stabilization", "--qlo", "1", "--qhi", "4",
          "--dump-gnuplot", "P"],
         "--dump-gnuplot serves --kind threshold and growth, not stabilization"),
        (["congruence", "--mode", "count", "--b", "2", "--q", "7", "--d", "2", "--ad", "0"],
         "a_d must be nonzero"),
        (["residues", "--q", "8", "--d", "2", "--ad", "0", "--elements"],
         "a_d must be nonzero"),
        (["residues", "--q", "8", "--d", "2", "--ad", "0"], "a_d must be nonzero"),
        # a residues range is validated at its least q, before any q is factored
        (["residues", "--qlo", "-3", "--qhi", "9", "--d", "2"], "modulus must be >= 1, got -3"),
        (["residues", "--q", "0", "--d", "1"], "modulus must be >= 1, got 0"),
        (["residues", "--qlo", "1", "--qhi", "9", "--d", "1"], "power degree must be >= 2, got 1"),
        (["experiment", "--kind", "critical-band", "--band", "1/4,1/4"],
         "--band serves --kind threshold, growth, svolume and stabilization, not critical-band"),
        (["experiment", "--kind", "critical-band", "--delta", "0"],
         "need 0 <= eps < eps + delta <= 1, got eps=1/2, delta=0"),
        (["experiment", "--kind", "threshold", "--taus", "7/2", "--delta", "1/4"],
         "--delta serves --kind critical-band, not threshold"),
        (["experiment", "--kind", "growth", "--delta", "1/4"],
         "--delta serves --kind critical-band, not growth"),
        (["experiment", "--kind", "svolume", "--qmax", "4", "--delta", "1/4"],
         "--delta serves --kind critical-band, not svolume"),
        (["experiment", "--kind", "stabilization", "--qlo", "1", "--qhi", "4",
          "--delta", "1/4"], "--delta serves --kind critical-band, not stabilization"),
        # threshold reads --taus alone and draws no alpha
        (["experiment", "--kind", "threshold", "--tau", "3", "--taus", "7/2"],
         "--tau serves --kind growth, critical-band, svolume and stabilization, not threshold"),
        (["experiment", "--kind", "threshold", "--taus", "7/2", "--seed", "9"],
         "--seed serves --kind growth, critical-band, svolume and stabilization, not threshold"),
        # list entries must parse, each once
        (["experiment", "--kind", "threshold", "--taus", ";"],
         "--taus takes rationals separated by ';', got ;"),
        (["experiment", "--kind", "threshold", "--taus", "5/2;5/2"],
         "--taus lists 5/2 twice, got 5/2;5/2"),
        (["experiment", "--kind", "svolume", "--qmax", "4", "--s-grid", "1/2;x"],
         "--s-grid takes rationals separated by ';', got 1/2;x"),
        (["experiment", "--kind", "svolume", "--qmax", "4", "--s-grid", "1/2;1/2"],
         "--s-grid lists 1/2 twice, got 1/2;1/2"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


# Valid commands of every form in _READS, the smallest first: each exits 0,
# and together they give every option the form reads; {tmp} is a temporary dir.
_FORM_COMMANDS = {
    ("congruence", "count"): ["congruence --mode count --b 2 --q 7 --d 2",
                              "congruence --b 2 --q 7 --d 2 --ad 1"],
    ("congruence", "lift"): ["congruence --mode lift --poly 0,0,0,-1 --b 2 --q 5 --ptilde 3"],
    ("cover", "measures"): ["cover --tau 3 --d 2 --q 5",
                            "cover --tau 3 --d 2 --ad 1 --qlo 4 --qhi 5 --band full"],
    ("cover", "tail"): ["cover --mode tail --tau 3 --d 2 --qlo 1 --qhi 4",
                        "cover --mode tail --tau 3 --d 2 --qlo 1 --qhi 4 --ad 1 --band 0,1/2"],
    ("cover", "series"): ["cover --mode series --z 2 --s 2 --qmax 16",
                          "cover --mode series --z 2 --s 2 --qmax 16 --n 6"],
    ("scan", False): ["scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax 4"],
    ("scan", True): ["scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax 4 --curve",
                     "scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax 4 --curve "
                     "--dump-gnuplot {tmp}/s"],
    ("experiment", "threshold"): [
        "experiment --kind threshold --schedule 2:4",
        "experiment --kind threshold --taus 3 --band full --schedule 2:4 --dump-gnuplot {tmp}/t",
    ],
    ("experiment", "growth"): [
        "experiment --kind growth --alpha-count 1 --schedule 6:8",
        "experiment --kind growth --alpha-count 1 --alpha-bits 128 --band full "
        "--schedule 6:8 --dump-gnuplot {tmp}/g --tau 3 --seed 1",
    ],
    ("experiment", "critical-band"): [
        "experiment --kind critical-band --alpha-count 1 --schedule 6:8",
        "experiment --kind critical-band --alpha-count 1 --alpha-bits 128 --delta 1/8 "
        "--schedule 6:8 --tau 11/4 --seed 1",
    ],
    ("experiment", "svolume"): [
        "experiment --kind svolume --qmax 4 --alpha-count 1",
        "experiment --kind svolume --qmax 4 --alpha-count 1 --alpha-bits 128 --band full "
        "--schedule 4:6 --s-grid 1 --tau 3 --seed 1",
    ],
    ("experiment", "stabilization"): [
        "experiment --kind stabilization --qlo 1 --qhi 4 --alpha-count 1",
        "experiment --kind stabilization --qlo 1 --qhi 4 --alpha-count 1 --alpha-bits 128 "
        "--band full --tau 13/4 --seed 1",
    ],
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _and(items):
    *head, last = items
    return f"{', '.join(head)} and {last}" if head else last


def test_reads_table_names_parser_options():
    assert {(c, f) for c in _READS for f in _READS[c]} == set(_FORM_COMMANDS)
    parser = build_parser()
    for (command, form), commands in _FORM_COMMANDS.items():
        args = parser.parse_args(commands[0].split())
        assert getattr(args, _FORM[command]) == form, commands[0]
        for dest in _READS[command][form]:
            assert hasattr(args, dest), (command, dest)  # no typo in _READS


def test_one_command_parser_parses_like_the_full_one():
    full = build_parser()
    for commands in _FORM_COMMANDS.values():
        for line in commands:
            argv = line.format(tmp="t").split()
            assert build_parser(argv[0]).parse_args(argv) == full.parse_args(argv), line
    # the other subcommands are registered without their options
    with pytest.raises(SystemExit):
        build_parser("scan").parse_args(["cover", "--tau", "3", "--d", "2", "--q", "5"])


# sha256 of stdout + stderr at 80 columns, recorded before main built only
# the invoked subcommand's options: help, usage and parse errors keep their bytes
_PARSER_OUTPUT = {
    "": "6aa15294093a601fd9de91bf31ec4ac3053576e205d1898736b72669f97d68ce",
    "--help": "4e9173bfe05018c7b4903afdc0329d6a7111b2763944897993f2775c87a9173b",
    "residues --help": "5e849e185ba50450a9f1a31b137234d5fa58fe77ac551d01327bfa99497c53e5",
    "congruence --help": "25a9123e87f68342cf3e6204cf30425f4507381c8241f95c31659456bda7ef77",
    "reduce --help": "ea44a2f2273ea10b0247895bde6d1aa8e95d7322c1abe810dfd68c80b0d16e69",
    "cover --help": "bfeec7424112e3c28a06981754bbc548b78c0a78dfb7daf0f7021d67df930657",
    "scan --help": "3a847fa7d14eb9e5d973c5237c5f7e9ea77a9a22eaca825d75bb0dd54ef81488",
    "experiment --help": "0e152f343c9df30421e79aa7a105058ff9c6207a56623b375d8358e82a944a2f",
    "frobnicate": "330890764781c5e9b229ee24f2adcb6b48022855b5f014a7c8de5ce5962bb575",
    # an unrecognized argument is reported with the usage of all six commands
    "scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax 4 extra":
        "8787bbfa9b7730011c08d3bb58ed9db4c7333259e2ba1c79290460f4a0c85f79",
    "scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax x":
        "636bb59dd71df4d16300613185c3c848bb80b894b3cb71672546c11ceeb9518e",
    "scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax 0":
        "45e762cb38360476b92389c46f0132ff7b448f418415997faa9c4e18205d22ca",
}


@pytest.mark.parametrize("line", _PARSER_OUTPUT)
def test_help_usage_and_errors_keep_their_bytes(capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(line.split())
    except SystemExit as exc:
        code = exc.code
    assert code == (0 if line.endswith("--help") else 2)
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == _PARSER_OUTPUT[line]


def test_every_form_runs_with_every_option_it_reads(capsys, tmp_path):
    for (command, form), commands in _FORM_COMMANDS.items():
        given = set()
        for line in commands:
            argv = line.format(tmp=tmp_path).split()
            assert main(argv) == 0, (line, capsys.readouterr().err)
            given |= {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
        assert set(_READS[command][form]) <= given, (command, form)
    capsys.readouterr()


def test_options_a_form_does_not_read_or_needs_exit_2(capsys):
    for (command, form), commands in _FORM_COMMANDS.items():
        smallest = commands[0].split()
        reads = _READS[command][form]
        others = {d for r in _READS[command].values() for d in r} - set(reads)
        for dest in sorted(others):
            served = [f for f, r in _READS[command].items() if dest in r]
            # any value the parser takes: the check runs before the command
            value = {"band": "full", "schedule": "2:4"}.get(dest, "1")
            assert main([*smallest, _flag(dest), value]) == 2, (command, form, dest)
            err = capsys.readouterr().err
            if isinstance(form, bool):
                assert err == f"error: {_flag(dest)} needs --curve\n"
            else:
                served = f"--{_FORM[command]} {_and(served)}"
                assert err == f"error: {_flag(dest)} serves {served}, not {form}\n"
        needs = [_flag(d) for d, needed in reads.items() if needed]
        for flag in needs:
            at = smallest.index(flag)
            assert main(smallest[:at] + smallest[at + 2:]) == 2, (command, form, flag)
            err = capsys.readouterr().err
            assert err == f"error: --{_FORM[command]} {form} needs {_and(needs)}\n"


def test_critical_band_default_delta(capsys):
    argv = ["experiment", "--kind", "critical-band", "--alpha-count", "2", "--schedule", "6:8"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# delta = 1/4" in lines and "# band = 1/2,1/4" in lines


def test_residue_count_matches_listed_elements(capsys):
    # r counts a_d G_d(q), the set that --elements lists
    for d in (2, 3):
        for ad in (1, 2, 3, -6):
            argv = ["residues", "--qlo", "1", "--qhi", "60", "--d", str(d), "--ad", str(ad)]
            assert main([*argv, "--elements"]) == 0
            rows = [l.split(",") for l in body(capsys.readouterr().out)[1:]]
            assert len(rows) == 60
            for q, _, _, r, elements in rows:
                assert int(r) == len(elements.split()), (d, ad, q)


@pytest.mark.parametrize("d, ad", [(2, 1), (3, -12), (4, 6)])
def test_residues_range_factors_each_q_once(capsys, factorizations, d, ad):
    argv = ["residues", "--qlo", "1", "--qhi", "1000", "--d", str(d), "--ad", str(ad)]
    assert main(argv) == 0
    assert sorted(factorizations) == list(range(1, 1001))
    rows = [tuple(map(int, l.split(","))) for l in body(capsys.readouterr().out)[1:]]
    assert rows == [
        (q, unity_roots_count(q, d), unit_power_count(q, d), scaled_power_residue_count(q, d, ad))
        for q in range(1, 1001)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", "4"],
        ["cover", "--tau", "3", "--d", "2", "--q", "5"],
        ["experiment", "--kind", "threshold"],
    ],
    ids=lambda argv: argv[0],
)
def test_band_errors_reach_the_user(capsys, argv):
    # GcdBand's own message, not argparse's "invalid parse value"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--band", "1/2,3/4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --band: bad band '1/2,3/4': need 0 <= eps < eps + delta <= 1, " \
        "got eps=1/2, delta=3/4" in err
    assert "invalid parse value" not in err


@pytest.mark.parametrize("text", ["x", "1/2", "1,2,3", "a,b", "1/0,1/2"])
def test_band_parse_errors_name_the_format(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["cover", "--tau", "3", "--d", "2", "--q", "5", "--band", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --band: bad band {text!r}: a band is 'full' or 'EPS,DELTA'" in err
    assert "unpack" not in err and "Invalid literal" not in err


def test_banded_cover_validates_like_full(capsys):
    for band in ("1/4,1/4", "full"):
        base = ["cover", "--tau", "3", "--band", band]
        for extra, message in (
            (["--d", "2", "--q", "12", "--ad", "0"], "a_d must be nonzero"),
            (["--d", "2", "--q", "0"], "modulus must be >= 1"),
            (["--d", "1", "--q", "12"], "power degree must be >= 2"),
        ):
            assert main(base + extra) == 2
            assert message in capsys.readouterr().err
    assert main(["cover", "--tau", "3", "--d", "2", "--q", "12", "--band", "1/4,1/4"]) == 0
    assert body(capsys.readouterr().out)[1] == "12,12,1/72,1/72"  # 1 class x 12


def test_tail_validates_like_per_q_path(capsys):
    # full band (counts from the table) and a band (counts per q) agree
    for band in ("full", "1/4,1/4"):
        base = ["cover", "--mode", "tail", "--tau", "3", "--band", band]
        for extra, message in (
            (["--d", "2", "--qlo", "1", "--qhi", "9", "--ad", "0"], "a_d must be nonzero"),
            (["--d", "1", "--qlo", "1", "--qhi", "9"], "power degree must be >= 2, got 1"),
            (["--d", "2", "--qlo", "0", "--qhi", "9"], "modulus must be >= 1, got 0"),
        ):
            assert main(base + extra) == 2
            assert message in capsys.readouterr().err


def test_threads_below_one_rejected(capsys):
    for bad in ("0", "-3", "x", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--kind", "stabilization", "--qlo", "1", "--qhi", "4",
                  "--threads", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"error: argument --threads: thread count must be an integer >= 1, got {bad!r}\n"
        )


_NO_DRAW = {
    "residues": ["residues", "--q", "8", "--d", "2"],
    "congruence": ["congruence", "--b", "2", "--q", "7", "--d", "2"],
    "reduce": ["reduce", "--poly", "0,0,-1", "--alpha", "19/64", "--x", "33/64",
               "--p", "1", "--q", "2", "--r", "0", "--tau", "2"],
    "cover": ["cover", "--tau", "3", "--d", "2", "--q", "5"],
    "scan": ["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", "4"],
}


@pytest.mark.parametrize("option", [["--seed", "1"], ["--threads", "2"]])
@pytest.mark.parametrize("command", sorted(_NO_DRAW))
def test_seed_and_threads_only_on_experiment(capsys, command, option):
    # only experiment draws alphas; --threads stays there as a no-op
    assert main(_NO_DRAW[command]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*_NO_DRAW[command], *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_reports_echo_the_inputs_they_read(capsys):
    for argv, lines in (
        (["cover", "--mode", "tail", "--tau", "13/4", "--d", "3", "--ad", "2",
          "--band", "1/4,1/4", "--qlo", "1", "--qhi", "50"],
         ["# d = 3", "# ad = 2", "# band = 1/4,1/4"]),
        (["congruence", "--mode", "lift", "--poly", "0,0,0,-1", "--b", "2", "--q", "5",
          "--ptilde", "3"], ["# poly = 0,0,0,-1"]),
        (_NO_DRAW["reduce"],
         ["# poly = 0,0,-1", "# alpha = 19/64", "# x = 33/64", "# p = 1", "# r = 0"]),
        (_NO_DRAW["scan"], ["# qmax = 4"]),
    ):
        assert main(argv) == 0
        echo = capsys.readouterr().out.splitlines()
        assert set(lines) <= set(echo), (argv, echo)
        assert not any(line.startswith("# seed") for line in echo)


def test_experiment_subcommand_and_output(tmp_path):
    out_path = tmp_path / "report.csv"
    run_cli(
        "experiment", "--kind", "threshold", "--taus", "7/2",
        "--schedule", "2:12", "--output", str(out_path),
    )
    text = out_path.read_text()
    assert "# experiment = threshold" in text
    assert "verdict" in text


def test_experiment_gnuplot_dump(tmp_path):
    prefix = tmp_path / "plot"
    run_cli(
        "experiment", "--kind", "threshold", "--taus", "7/2",
        "--schedule", "2:12", "--output", str(tmp_path / "r.csv"),
        "--dump-gnuplot", str(prefix),
    )
    dat = prefix.parent / "plot_7_2.dat"
    assert dat.exists()
    first = dat.read_text().splitlines()[0].split()
    assert len(first) == 2 and first[0] == "4"


def test_scan_curve_gnuplot_dump(tmp_path, capsys):
    prefix = tmp_path / "scan"
    argv = ["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", "64",
            "--curve", "--dump-gnuplot", str(prefix)]
    assert main(argv) == 0
    rows = body(capsys.readouterr().out)[1:]
    assert [p.name for p in tmp_path.iterdir()] == ["scan_curve.dat"]
    expected = "".join(row.replace(",", " ") + "\n" for row in rows)
    assert (tmp_path / "scan_curve.dat").read_text() == expected


def test_dump_gnuplot_only_where_it_writes(capsys):
    # only scan --curve and experiment --kind threshold|growth write curves
    for argv in (
        ["residues", "--q", "8", "--d", "2"],
        ["congruence", "--b", "2", "--q", "7", "--d", "2"],
        ["reduce", "--poly", "0,0,-1", "--alpha", "19/64", "--x", "33/64",
         "--p", "1", "--q", "2", "--r", "0", "--tau", "2"],
        ["cover", "--tau", "3", "--d", "2", "--q", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--dump-gnuplot", "P"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dump-gnuplot P" in capsys.readouterr().err


def test_unwritable_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x"
    for argv in (
        ["cover", "--mode", "tail", "--tau", "7/2", "--d", "2", "--qlo", "1", "--qhi", "10",
         "--output", f"{missing}.csv"],
        ["scan", "--poly", "0,0,-1", "--tau", "5/2", "--alpha", "1/3", "--qmax", "4",
         "--curve", "--dump-gnuplot", str(missing)],
        ["experiment", "--kind", "threshold", "--taus", "7/2", "--schedule", "2:4",
         "--dump-gnuplot", str(missing)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}"), err
        assert "No such file or directory" in err
    assert not missing.parent.exists()


def test_readme_cli_examples(capsys, tmp_path):
    # each example runs twice: --output writes the bytes stdout gets
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = [line for line in block.splitlines() if line.startswith("diocurve ")]
    assert len(commands) == 15
    out = {}
    for i, line in enumerate(commands):
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        text = capsys.readouterr().out
        path = tmp_path / f"{i}.out"
        assert main([*argv, "--output", str(path)]) == 0, line
        assert capsys.readouterr().out == ""
        assert path.read_text() == text, line
        out[" ".join(argv)] = body(text)
    assert out["residues --q 8 --d 2"][1] == "8,4,1,3"
    assert out["cover --tau 3 --d 2 --ad 1 --q 5"][1].split(",")[2] == "6/25"


def test_cli_determinism_across_threads():
    args = [
        "experiment", "--kind", "growth", "--alpha-count", "5",
        "--alpha-bits", "128", "--schedule", "6:16", "--seed", "11",
    ]
    a = run_cli(*args, "--threads", "1")
    b = run_cli(*args, "--threads", "4")
    assert a == b  # byte-identical regardless of threads


def test_version_flag():
    out = run_cli("--version")
    assert out.startswith("diocurve ")
