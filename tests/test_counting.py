import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diocurve import _kernels, arithmetic, counting
from diocurve.arithmetic import iroot
from diocurve.cli import main
from diocurve.counting import (
    HitFlags,
    _exact_hits,
    _survivors,
    count_curve,
    dyadic_alphas,
    find_hits,
    required_alpha_bits,
)
from diocurve.covers import GcdBand, _ceil_qpow_array
from diocurve.residues import is_power_residue, is_primitive_power_residue
from oracles import band_contains_by_powers, per_q_window_hits

FULL = GcdBand.full()


def test_dyadic_alphas():
    b1 = dyadic_alphas(7, 128, 1)[0]
    b2, b3 = dyadic_alphas(7, 128, 2)
    assert b1 == b2 and b1 != b3  # deterministic in (seed, index)
    assert b1.denominator == 1 << 128
    assert b1.numerator % 2 == 1


def test_find_hits_takes_plain_rationals():
    # alpha is any rational in [0, 1]: a Fraction or an int, the ends included
    assert {h.q for h in find_hits(Fraction(1, 3), 2, 1, Fraction(5, 2), FULL, 4)} == {1, 2, 3, 4}
    for alpha in (0, 1):
        hits = find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 50)
        assert hits and all(h.b == alpha * h.q**2 and h.error == 0 for h in hits)
    for alpha in (Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(ValueError, match="alpha must lie in"):
            find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 4)


def test_required_alpha_bits():
    assert required_alpha_bits(2, Fraction(5, 2), 1024) == 128  # floor wins
    assert required_alpha_bits(2, Fraction(13, 4), 2**16) == 128  # estimate 100
    assert required_alpha_bits(2, Fraction(13, 4), 2**24) == 142  # 5.25 * 24 + 16


def test_find_hits_example_one_third():
    alpha = Fraction(1, 3)
    hits = find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 4)
    assert {h.q for h in hits} == {1, 2, 3, 4}
    # q = 4 hit is b = 5 with error 1/3 - ... = |16/3 - 5|/16 = 1/48
    h4 = [h for h in hits if h.q == 4]
    assert len(h4) == 1 and h4[0].b == 5 and h4[0].error == Fraction(1, 48)
    # no hit at q = 5: nearest b = 8 is not a square mod 5
    hits5 = find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 5)
    assert {h.q for h in hits5} == {1, 2, 3, 4}


def test_find_hits_exact_center():
    # alpha = b0/q0^d with b0 in the residue set gives a zero-error hit
    alpha = Fraction(4, 49)
    hits = [h for h in find_hits(alpha, 2, 1, Fraction(4), FULL, 7) if h.q == 7]
    assert any(h.b == 4 and h.error == 0 for h in hits)


def test_find_hits_numerators_in_residue_set():
    # every hit's numerator has a solution p of p^d = b (mod q): its class
    # is in the enumerated set {a_d x^d mod q}
    alpha = Fraction(1, 3)
    hits = find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 50)
    assert hits
    for h in hits:
        assert h.b % h.q in _kernels.residue_set(h.q, 2, 1).tolist()


@pytest.mark.parametrize("primitive", (False, True))
def test_narrow_scan_factorizes_each_hit_modulus_once(factorizations, primitive):
    # --omega-max and the residue test read one factorization per q, taken
    # only once the band has kept a candidate; every factorization, the
    # API wrappers' included, comes from the sieve or from past it
    calls = factorizations
    alpha = Fraction(5741, 9973)
    for b in (FULL, GcdBand(Fraction(0), Fraction(1, 2))):
        calls.clear()
        flags = HitFlags(primitive_only=primitive, omega_max=2)
        hits = find_hits(alpha, 2, 1, Fraction(5, 2), b, 3000, flags)
        assert hits
        assert len(calls) == len(set(calls))
        assert {h.q for h in hits} <= set(calls)
        an, ad = alpha.numerator, alpha.denominator
        for q in calls:  # each q factorized has a candidate in the band
            t = q * q
            b0 = t * an // ad
            near = [c for c in (b0, b0 + 1) if (t * an - c * ad) ** 2 * q**5 < (ad * t) ** 2]
            assert any(b.contains(math.gcd(c, q), q) for c in near), q


def test_find_hits_band_and_flag_filters():
    alpha = Fraction(1, 3)
    band = GcdBand(Fraction(1, 4), Fraction(3, 4))
    banded = find_hits(alpha, 2, 1, Fraction(5, 2), band, 50)
    for h in banded:
        assert band.contains(h.gcd_bq, h.q)
    coprime = find_hits(
        alpha, 2, 1, Fraction(5, 2), FULL, 50, HitFlags(coprime_to_d_ad=True)
    )
    assert all(h.q % 2 == 1 for h in coprime)  # gcd(q, 2) = 1
    omega1 = find_hits(
        alpha, 2, 1, Fraction(5, 2), FULL, 50, HitFlags(omega_max=1)
    )
    from diocurve.arithmetic import distinct_prime_count, factorize

    assert all(distinct_prime_count(factorize(h.q)) <= 1 for h in omega1 if h.q > 1)
    prim = find_hits(
        alpha, 2, 1, Fraction(5, 2), FULL, 50, HitFlags(primitive_only=True)
    )
    assert prim
    for h in prim:
        assert is_primitive_power_residue(h.b % h.q, h.q, 2, 1)
        # a unit x with a_d x^d = b (mod q), found by enumeration
        assert any(
            math.gcd(x, h.q) == 1 and pow(x, 2, h.q) == h.b % h.q for x in range(h.q)
        )


def brute_close_b(alpha, d, tau, q):
    """Oracle: every b in [0, q^d] with |alpha - b/q^d| < q^-tau, no
    nearest-b shortcut.

    Integer arithmetic: |alpha - b/q^d| < q^-tau iff
    |an t - b ad|^v q^u < (ad t)^v with alpha = an/ad, t = q^d, tau = u/v.
    """
    an, ad = alpha.numerator, alpha.denominator
    u, v = tau.numerator, tau.denominator
    t = q**d
    rhs = (ad * t) ** v
    qu = q**u
    return [b for b in range(t + 1) if abs(an * t - b * ad) ** v * qu < rhs]


def brute_filter(close, d, a_d, band, q, flags):
    """The (q, b) with b in `close` that pass the flags, the band and the
    power-residue test, each checked on its own."""
    from diocurve.arithmetic import distinct_prime_count, factorize

    if flags.coprime_to_d_ad and math.gcd(q, d * abs(a_d)) != 1:
        return []
    if flags.omega_max is not None and distinct_prime_count(factorize(q)) > flags.omega_max:
        return []
    test = is_primitive_power_residue if flags.primitive_only else is_power_residue
    return [
        (q, b)
        for b in close
        if band.contains(math.gcd(b, q), q) and test(b % q, q, d, a_d)
    ]


def brute_scan(alpha, d, a_d, tau, band, q, flags):
    """Oracle: the hits of modulus q, from a scan of every b in [0, q^d]."""
    return brute_filter(brute_close_b(alpha, d, tau, q), d, a_d, band, q, flags)


@pytest.mark.parametrize(
    "alpha_frac,flags",
    [
        (Fraction(1, 3), HitFlags()),
        (Fraction(355, 1130), HitFlags(primitive_only=True)),
        (Fraction(2719, 9973), HitFlags(coprime_to_d_ad=True, omega_max=2)),
        (Fraction(5741, 8192), HitFlags(primitive_only=True, coprime_to_d_ad=True)),
    ],
)
def test_find_hits_matches_full_scan(alpha_frac, flags):
    tau = Fraction(5, 2)
    for band in (FULL, GcdBand(Fraction(0), Fraction(1, 2))):
        got = [
            (h.q, h.b)
            for h in find_hits(alpha_frac, 2, 1, tau, band, 120, flags)
        ]
        expected = []
        for q in range(1, 121):
            expected.extend(brute_scan(alpha_frac, 2, 1, tau, band, q, flags))
        assert got == expected, (alpha_frac, band.format(), flags)


def test_find_hits_nontrivial_ad():
    alpha = Fraction(2719, 9973)
    tau = Fraction(7, 3)
    got = [(h.q, h.b) for h in find_hits(alpha, 3, -2, tau, FULL, 60)]
    expected = []
    for q in range(1, 61):
        expected.extend(brute_scan(Fraction(2719, 9973), 3, -2, tau, FULL, q, HitFlags()))
    assert got == expected


def test_find_hits_matches_full_scan_every_flag_combo():
    # spec-scale oracle equivalence: q <= 300, every flag combination
    tau = Fraction(5, 2)
    combos = [
        HitFlags(p, c, m)
        for p in (False, True)
        for c in (False, True)
        for m in (None, 2)
    ]
    for alpha_frac in (Fraction(1, 3), Fraction(5741, 9973)):
        # the distance scan does not depend on the flags: one per (alpha, q)
        close = {q: brute_close_b(alpha_frac, 2, tau, q) for q in range(1, 301)}
        for flags in combos:
            got = [(h.q, h.b) for h in find_hits(alpha_frac, 2, 1, tau, FULL, 300, flags)]
            expected = []
            for q in range(1, 301):
                expected.extend(brute_filter(close[q], 2, 1, FULL, q, flags))
            assert got == expected, flags


def counting_n(alpha, tau, band, Q, d=2):
    """N(Q) at a_d = 1, read from one scan to iroot(Q, d) as the CLI does."""
    hits = find_hits(alpha, d, 1, tau, band, iroot(Q, d))
    return count_curve(hits, [Q], d)[0][1]


def test_counting_function_examples():
    alpha = Fraction(1, 3)
    assert counting_n(alpha, Fraction(5, 2), FULL, 16) == 4
    assert counting_n(alpha, Fraction(5, 2), FULL, 1) == 1


def test_counting_function_huge_tau_only_q1():
    hits = 0
    for alpha in dyadic_alphas(99, 192, 20):
        hits += counting_n(alpha, Fraction(100), FULL, 10**6) == 1
    assert hits >= 19


def test_counting_monotonicity():
    alpha = Fraction(2719, 9973)
    ns = [counting_n(alpha, Fraction(5, 2), FULL, Q) for Q in (4, 16, 64, 256, 1024)]
    assert ns == sorted(ns)
    # nonincreasing in tau
    for tau1, tau2 in ((Fraction(9, 4), Fraction(5, 2)), (Fraction(5, 2), Fraction(3))):
        assert counting_n(alpha, tau1, FULL, 4096) >= counting_n(alpha, tau2, FULL, 4096)
    # FULL band dominates any band
    band = GcdBand(Fraction(1, 8), Fraction(1, 2))
    assert counting_n(alpha, Fraction(5, 2), FULL, 4096) >= counting_n(
        alpha, Fraction(5, 2), band, 4096
    )


def test_repeat_run_determinism():
    alpha = dyadic_alphas(3, 160, 3)[2]
    base = find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 400)
    for _ in range(3):
        assert find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 400) == base


def has_candidate(alpha, d, tau, q):
    """Exact: some integer b has |q^d alpha - b| < q^(d - tau)."""
    an, ad = alpha.numerator, alpha.denominator
    u, v = tau.numerator, tau.denominator
    t = q**d
    rem = t * an % ad
    return min(rem, ad - rem) ** v * q**u < (ad * t) ** v


@given(
    d=st.sampled_from([2, 3, 4]),
    excess=st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(1), Fraction(7, 2)]),
    bits=st.integers(min_value=64, max_value=200),
    q0=st.integers(min_value=1, max_value=1 << 16)
    | st.sampled_from([1 << k for k in range(17)]),
    b_seed=st.integers(min_value=0, max_value=1 << 64),
    sign=st.sampled_from([-1, 1]),
    offset=st.integers(min_value=-2, max_value=2),
    m_seed=st.none() | st.integers(min_value=0, max_value=1 << 200),
)
@settings(max_examples=300, deadline=None)
def test_prefilter_keeps_every_q_with_a_candidate(
    d, excess, bits, q0, b_seed, sign, offset, m_seed
):
    # alpha = n/m sits within a few 1/m of the edge b0/q0^d +- q0^-tau, on
    # either side of it, with m = 2^bits or (m_seed given) an odd m of bits
    # bits; octave starts 2^k are where the bound is tightest
    tau = d + excess
    u, v = tau.numerator, tau.denominator
    q0 = min(q0, iroot((1 << 63) - 1, d))
    t0 = q0**d
    b0 = b_seed % (t0 + 1)
    m = 1 << bits if m_seed is None else m_seed % (1 << bits) | 1 << (bits - 1) | 1
    radius = iroot(m**v // q0**u, v)  # floor(m q0^-tau)
    num = b0 * m // t0 + sign * (radius + offset)
    alpha = Fraction(min(max(num, 0), m), m)
    qmax = min(q0 + 3, iroot((1 << 63) - 1, d))
    survivors = list(_survivors(alpha, d, tau, qmax))
    assert survivors == sorted(set(survivors))
    kept = set(survivors)
    for q in {*range(1, min(qmax, 64) + 1), *range(max(1, q0 - 3), qmax + 1)}:
        if has_candidate(alpha, d, tau, q):
            assert q in kept, (q, alpha, d, tau)


def test_prefilter_keeps_a_candidate_one_unit_past_the_octave_bound():
    # F falls short of 2^64 q^d alpha by eps < 1 + t 2^-64, so where the
    # radius 2^64 q^(d - tau) lies within t 2^-64 of T_k a q can have a
    # candidate at ||F|| = T_k + 1: slack 2 keeps it, slack 1 would not.  At
    # d = 4, tau = 86/11 and q = 2^15 + 1 the radius is 0.060 below T_k = 106
    # and t 2^-64 is 0.0625.  b makes t (A + 1) / 2^64 pass b 2^64 - T_k by
    # (t - 1) / 2^64, for the largest A with t A / 2^64 < b 2^64 - T_k, and
    # alpha = n/m, m = 2^200 + 1, lies just below (A + 1) / 2^128
    d, tau, q = 4, Fraction(86, 11), (1 << 15) + 1
    u, v = tau.numerator, tau.denominator
    t, k = q**d, q.bit_length() - 1
    bound = iroot(1 << 64 * v + k * (d * v - u), v) + 1
    b = (1 + (bound << 64)) * pow(1 << 128, -1, t) % t
    a = -(-((b << 64) - bound << 64) // t) - 1
    m = (1 << 200) + 1
    alpha = Fraction(-(-(a + 1) * m >> 128) - 1, m)
    assert (alpha.numerator << 128) // m == a
    assert (1 << 64) - (t * a >> 64) % (1 << 64) == bound + 1  # ||F||
    assert has_candidate(alpha, d, tau, q)
    assert q in _survivors(alpha, d, tau, q)


@pytest.mark.parametrize("block", [4096, 100])
def test_prefilter_compares_each_q_with_its_own_octave(monkeypatch, block):
    # the survivors are exactly the q with ||F|| < T_k + 2 for the octave
    # 2^k <= q < 2^(k+1) of each q, F worked out in Python integers from
    # A = floor(2^128 alpha); blocks of 4096 and of 100 q cross octave edges
    # at different places
    monkeypatch.setattr(counting, "_PREFILTER_BLOCK", block)
    rng = random.Random(2027)
    cases = ((2, Fraction(13, 4), 9000), (3, Fraction(7, 2), 5000), (2, Fraction(9, 4), 3000))
    for d, tau, qmax in cases:
        u, v = tau.numerator, tau.denominator

        def keep_below(q):
            e = 64 * v + (q.bit_length() - 1) * (d * v - u)
            return (iroot(1 << e, v) + 1 if e >= 0 else 1) + 2

        def norm_f(a, q):
            t = q**d
            f = (t * (a >> 64) + (t * (a % (1 << 64)) >> 64)) % (1 << 64)
            return min(f, (1 << 64) - f)

        alphas = [Fraction(rng.getrandbits(bits) | 1, 1 << bits) for bits in (128, 200)]
        for bits in (64, 128, 200):
            m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            alphas.append(Fraction(rng.randrange(m + 1), m))
        alphas.append(Fraction(2, 7))
        # alphas with ||F|| = T_k + 1 (kept) and T_k + 2 (dropped) at an odd
        # q0: F = t0 H (mod 2^64) from A = H 2^64, which n/m gives when
        # n = ceil(H m / 2^64) and m = 2^200 + 1
        q0, m = qmax // 2 | 1, (1 << 200) + 1
        edge = keep_below(q0) - 1
        for f0 in (edge, (1 << 64) - edge - 1):
            h = f0 * pow(q0**d, -1, 1 << 64) % (1 << 64)
            alphas.append(Fraction(-(-h * m >> 64), m))
        big_a = [(a.numerator << 128) // a.denominator % (1 << 128) for a in alphas]
        assert [norm_f(a, q0) for a in big_a[-2:]] == [edge, edge + 1]
        for alpha, a in zip(alphas, big_a):
            expected = [q for q in range(1, qmax + 1) if norm_f(a, q) < keep_below(q)]
            assert 0 < len(expected) < qmax / 2
            assert list(_survivors(alpha, d, tau, qmax)) == expected, (d, tau, alpha)


@pytest.mark.parametrize("d, tau, q0", [(2, Fraction(13, 4), 12287), (4, Fraction(19, 4), 55097)])
def test_prefilter_screen_keeps_a_q_only_its_slack_keeps(d, tau, q0):
    # A = H 2^64 + L with L = 2^64 - 1 gives mulhi(t0, L) = t0 - 1, so
    # coarse = t0 H lies t0 - 1 further from 0 than F = 2^64 - (T_k + 1):
    # ||coarse|| = T_k + t0, one below the screen's bound T_k + 2 + t0 - 1,
    # and the keep test keeps q0; at F = 2^64 - (T_k + 2) it drops q0.
    # q0 = qmax is odd and the last q of its block, which starts in q0's
    # octave, so the block's bound is q0's own; at d = 4, q0 is 11 below
    # iroot(2^63 - 1, 4).  alpha = n/m, m = 2^200 + 1, n = ceil(A m / 2^128)
    u, v = tau.numerator, tau.denominator
    t0, k = q0**d, q0.bit_length() - 1
    bound = iroot(1 << 64 * v + k * (d * v - u), v) + 1  # T_k
    assert (q0 - 1) // counting._PREFILTER_BLOCK * counting._PREFILTER_BLOCK + 1 >= 1 << k
    assert bound + t0 <= 1 << 63  # so ||coarse|| = T_k + t0
    m = (1 << 200) + 1
    for gap, kept in ((bound + 1, True), (bound + 2, False)):
        f = (1 << 64) - gap
        h = (f - t0 + 1) * pow(t0, -1, 1 << 64) % (1 << 64)
        a = ((h + 1) << 64) - 1
        alpha = Fraction(-(-a * m >> 128), m)
        assert (alpha.numerator << 128) // m == a
        assert (t0 * a >> 64) % (1 << 64) == f
        assert (q0 in _survivors(alpha, d, tau, q0)) == kept, (d, gap - bound)


@pytest.mark.parametrize("block", [4096, 100])
def test_prefilter_keeps_every_q_at_alpha_0_and_1(monkeypatch, block):
    # A = 0 at alpha = 0, and A = 2^128, taken as 0, at alpha = 1: coarse =
    # F = 0 at every q, so the screen and the keep test keep every q <=
    # min(qmax, top), and past top (d = 5) every q is kept untested
    monkeypatch.setattr(counting, "_PREFILTER_BLOCK", block)
    cases = ((2, Fraction(13, 4), 9000), (3, Fraction(7, 2), 5000), (5, Fraction(21, 4), 6300))
    for d, tau, qmax in cases:
        for alpha in (Fraction(0), Fraction(1)):
            assert list(_survivors(alpha, d, tau, qmax)) == list(range(1, qmax + 1)), (d, alpha)


def test_find_hits_matches_exact_scan_on_prefilter_cases():
    # every input property the prefilter keys on, each compared with the
    # exact scan over every q <= qmax under every flag combination
    rng = random.Random(20131305)
    cases = []  # (alpha, d, a_d, tau, qmax)
    for d, qmax in ((2, 1500), (3, 400)):
        for a_d in (1, -1, 2, -6):
            for bits in (64, 128, 200):
                alpha = Fraction(rng.getrandbits(bits) | 1, 1 << bits)
                cases.append((alpha, d, a_d, d + Fraction(1, 4), qmax))
    for alpha in (Fraction(0), Fraction(1)):
        cases.append((alpha, 2, 1, Fraction(9, 4), 300))
    # alphas that are not dyadic: small denominators, where q^d alpha is
    # often an integer; a tie |q^d alpha - b| = q^(d - tau) at q = 7 and at
    # q = 5; a denominator 2^200 + 1, where A truncates
    cases.append((Fraction(5741, 9973), 2, 1, Fraction(9, 4), 1500))
    cases.append((Fraction(1, 3), 2, 1, Fraction(9, 4), 1500))
    cases.append((Fraction(2, 7), 3, -6, Fraction(13, 4), 400))
    cases.append((Fraction(141, 343), 2, 1, Fraction(3), 1500))
    cases.append((Fraction(186, 625), 3, 2, Fraction(4), 400))
    m = (1 << 200) + 1
    cases.append((Fraction(rng.randrange(m), m), 2, -1, Fraction(5, 2), 1500))
    cases.append((Fraction(rng.randrange(m), m), 3, 1, Fraction(7, 2), 400))
    # qmax^4 just below 2^63, the last d = 4 scan whose every q is prefiltered
    top = iroot((1 << 63) - 1, 4)
    m = rng.getrandbits(128) | 1 << 127 | 1
    cases.append((Fraction(rng.randrange(m), m), 4, 1, Fraction(17, 4), top))
    combos = [
        HitFlags(p, c, m)
        for p in (False, True)
        for c in (False, True)
        for m in (None, 2)
    ]
    band = GcdBand(Fraction(0), Fraction(1, 2))
    for i, (alpha, d, a_d, tau, qmax) in enumerate(cases):
        for flags in combos:
            b = (FULL, band)[i % 2]
            got = find_hits(alpha, d, a_d, tau, b, qmax, flags)
            expected = _exact_hits(alpha, d, a_d, tau, b, range(1, qmax + 1), flags)
            assert got == expected, (alpha, d, a_d, flags)
    # past the limit q^d < 2^63 the prefilter keeps every q untested: scans
    # run a few hundred q beyond it, at q = 55,109 for d = 4, 6,209 for d = 5
    # and 1,449 for d = 6, under every flag combination where the exact scan
    # over every q stays cheap
    for d, a_d, past in ((4, 1, 300), (5, 6, 200), (6, -1, 200)):
        tau, qmax = d + Fraction(1, 4), iroot((1 << 63) - 1, d) + past
        m = rng.getrandbits(128) | 1 << 127 | 1
        for alpha in (Fraction(rng.getrandbits(128) | 1, 1 << 128), Fraction(rng.randrange(m), m)):
            for b in (FULL, band):
                for flags in combos if d > 4 else [HitFlags()]:
                    got = find_hits(alpha, d, a_d, tau, b, qmax, flags)
                    expected = _exact_hits(alpha, d, a_d, tau, b, range(1, qmax + 1), flags)
                    assert got == expected, (alpha, d, b, flags)


def test_find_hits_keeps_a_hit_past_2_64():
    # q0 = 100,003 is prime and q0^4 > 2^64, so uint64 arithmetic at q0
    # would wrap; alpha lies q0^-5 / 2 < q0^-tau above the centre b / q0^4,
    # whose b = 2^4 mod q0 is a fourth power there
    d, tau, q0 = 4, Fraction(17, 4), 100_003
    t = q0**d
    b = t // 3 - (t // 3 - 16) % q0
    alpha = Fraction(b, t) + Fraction(1, 2 * q0**5)
    assert t > 1 << 64 and b % q0 == 16
    assert q0 in _survivors(alpha, d, tau, q0)
    assert (q0, b) in {(h.q, h.b) for h in find_hits(alpha, d, 1, tau, FULL, q0)}


def cmp_band(band):
    """Band membership by band_contains_by_powers, cached per (g, q)."""
    if band.is_full:
        return lambda g, q: True

    @functools.lru_cache(maxsize=None)
    def inside(g, q):
        return band_contains_by_powers(band, g, q)

    return inside


def walk_hits(alpha, d, a_d, tau, inside, qmax, flags):
    """Oracle: the neighbourhood walk, stepping b down from floor(q^d alpha)
    and up from the next integer while |alpha - b/q^d| < q^-tau, with the
    band decided by inside(g, q)."""
    from diocurve.arithmetic import distinct_prime_count, factorize
    from diocurve.curve import ConstrainedHit

    test = is_primitive_power_residue if flags.primitive_only else is_power_residue
    an, ad = alpha.numerator, alpha.denominator
    u, v = tau.numerator, tau.denominator
    hits = []
    for q in range(1, qmax + 1):
        if flags.coprime_to_d_ad and math.gcd(q, d * abs(a_d)) != 1:
            continue
        if flags.omega_max is not None and distinct_prime_count(factorize(q)) > flags.omega_max:
            continue
        t = q**d
        b0, rem = divmod(t * an, ad)
        rhs = (ad * t) ** v
        candidates = []
        for b, dist, step in ((b0, rem, -1), (b0 + 1, ad - rem, 1)):
            while dist**v * q**u < rhs:
                candidates.append((b, dist))
                b += step
                dist += ad
        for b, dist in sorted(candidates):
            g = math.gcd(b, q)
            if inside(g, q) and test(b % q, q, d, a_d):
                hits.append(ConstrainedHit(q, b, Fraction(dist, ad * t), g))
    return hits


def test_exact_hits_matches_neighbourhood_walk():
    # the exact window and the cuts filter against the old walk,
    # every q from 1 (always wide) to qmax; tau = d sits on the regime edge
    # and tau = 5/2 > 2 is narrow for d = 2
    alphas = (
        Fraction(0),
        Fraction(1),
        Fraction(5741, 9973),
        Fraction(random.Random(20131306).getrandbits(128) | 1, 1 << 128),
    )
    bands = [FULL] + [GcdBand.parse(t) for t in ("1/4,1/4", "0,1/2", "1/3,2/3", "1/2,1/4")]
    combos = [
        HitFlags(p, c, m)
        for p in (False, True)
        for c in (False, True)
        for m in (None, 2)
    ]
    for band in bands:
        inside = cmp_band(band)
        for d, qmax in ((2, 30), (3, 10)):
            for tau in (Fraction(3, 2), Fraction(7, 4), d - Fraction(1, 3), Fraction(d), Fraction(5, 2)):
                for a_d in (1, -1, 2, -6):
                    for alpha in alphas:
                        for flags in combos:
                            got = _exact_hits(
                                alpha, d, a_d, tau, band, range(1, qmax + 1), flags
                            )
                            expected = walk_hits(alpha, d, a_d, tau, inside, qmax, flags)
                            assert got == expected, (d, tau, a_d, band.format(), alpha, flags)


# (d, tau) -> qmax: a few thousand candidates per scan however wide the
# windows; at tau = d + 1/8 the radius is at least 1/2 up to q = 2^8, where
# the oracle takes the window by a root and the scan tests two b
WIDE_CASES = {
    (2, Fraction(1, 2)): 25, (2, Fraction(3, 2)): 150, (2, Fraction(7, 4)): 300,
    (2, Fraction(2)): 300, (2, Fraction(17, 8)): 300,
    (3, Fraction(1, 2)): 10, (3, Fraction(3, 2)): 25, (3, Fraction(7, 4)): 40,
    (3, Fraction(3)): 300, (3, Fraction(25, 8)): 300,
    (4, Fraction(1, 2)): 7, (4, Fraction(3, 2)): 10, (4, Fraction(7, 4)): 12,
    (4, Fraction(4)): 300, (4, Fraction(33, 8)): 300,
}


def test_wide_stage_matches_per_q_window(monkeypatch):
    # a block of 11 candidates, so chunks of 5 q: one q's window spans
    # several blocks, and a block several q; a class batch of 37 survivors
    # spans several blocks and chunks, and most batch ends split the
    # survivors of one q; every band and flag combination at every
    # (d, tau), with (a_d, alpha) rotating so that each flag combination,
    # each band and each (d, tau) meets all 16 pairs
    monkeypatch.setattr(counting, "_WIDE_BLOCK", 11)
    monkeypatch.setattr(counting, "_CLASS_BATCH", 37)
    chunks = []

    def radii(q, x):
        chunks.append(len(q))
        return _ceil_qpow_array(q, x)

    monkeypatch.setattr(counting, "_ceil_qpow_array", radii)
    alphas = (
        Fraction(0),
        Fraction(1),
        Fraction(5741, 9973),
        Fraction(random.Random(20131307).getrandbits(128) | 1, 1 << 128),
    )
    bands = [FULL] + [GcdBand.parse(t) for t in ("1/4,1/4", "0,1/2", "1/3,2/3", "1/2,1/4")]
    combos = [
        HitFlags(p, c, m)
        for p in (False, True)
        for c in (False, True)
        for m in (None, 2)
    ]
    for case, ((d, tau), qmax) in enumerate(WIDE_CASES.items()):
        for i, band in enumerate(bands):
            for j, flags in enumerate(combos):
                a_d, alpha = (1, -1, 2, -6)[(i + j) % 4], alphas[(j // 4 + 2 * i + case) % 4]
                got = find_hits(alpha, d, a_d, tau, band, qmax, flags)
                expected = per_q_window_hits(alpha, d, a_d, tau, band, range(1, qmax + 1), flags)
                assert got == expected, (d, tau, a_d, band.format(), alpha, flags)
    assert max(chunks) == 5 and len(chunks) > 1000


def test_window_blocks_lay_out_every_window_once(monkeypatch):
    # blocks of 7 candidates over random radii: windows span blocks and
    # blocks span windows; only the last block of the array is short
    monkeypatch.setattr(counting, "_WIDE_BLOCK", 7)
    rng = random.Random(27)
    for n in (1, 2, 5, 40):
        radius = sorted(rng.randrange(1, 12) for _ in range(n))
        blocks = list(counting._window_blocks(np.array(radius, dtype=np.int64)))
        assert all(len(seg) == 7 for seg, _ in blocks[:-1]) and 1 <= len(blocks[-1][0]) <= 7
        laid = [(int(i), int(o)) for seg, off in blocks for i, o in zip(seg, off)]
        assert laid == [(i, o) for i, R in enumerate(radius) for o in range(1 - R, R + 1)], radius


def test_wide_scan_refuses_radius_at_2_50(capsys, monkeypatch):
    # d = 3, tau = 1/2: ceil(q^(5/2)) is 2^50 at q = 2^20 (refused, exit 2)
    # and below 2^50 at q = 2^20 - 1, where the scan starts; the windows
    # of a chunk of _WIDE_BLOCK // 2 q then sum to less than 2^63
    assert counting._WIDE_LIMIT == 1 << 50
    assert (counting._WIDE_BLOCK // 2) * 2 * (counting._WIDE_LIMIT - 1) < 1 << 63
    started = []
    monkeypatch.setattr(counting, "_exact_hits", lambda *args: started.append(args[-2]) or [])
    tau, qmax = Fraction(1, 2), 1 << 20
    with pytest.raises(ValueError, match="below 2\\^50"):
        find_hits(Fraction(1, 3), 3, 1, tau, FULL, qmax)
    argv = ["scan", "--poly", "0,0,0,-1", "--tau", "1/2", "--alpha", "1/3", "--qmax", str(qmax)]
    assert main(argv) == 2
    assert "below 2^50" in capsys.readouterr().err
    assert started == []
    assert find_hits(Fraction(1, 3), 3, 1, tau, FULL, qmax - 1) == []
    assert started == [range(1, qmax)]


def test_find_hits_refuses_degree_below_two():
    # in both stages, before any q is scanned
    for tau in (Fraction(1, 2), Fraction(5, 2)):
        with pytest.raises(ValueError, match="power degree must be >= 2, got 1"):
            find_hits(Fraction(1, 3), 1, 1, tau, FULL, 4)


def test_wide_scan_refuses_int64_overflow(capsys):
    # at tau <= d the radius ceil(qmax^(d - tau)) reaching 2^50, or qmax
    # itself 2^62, is refused before anything is allocated
    for tau, qmax in ((Fraction(1, 2), 1 << 42), (Fraction(2), 1 << 62)):
        with pytest.raises(ValueError, match="below 2\\^50"):
            find_hits(Fraction(1, 3), 2, 1, tau, FULL, qmax)
    argv = ["scan", "--poly", "0,0,-1", "--tau", "1/2", "--alpha", "1/3", "--qmax", str(1 << 42)]
    assert main(argv) == 2
    assert "below 2^50" in capsys.readouterr().err


def test_wide_scan_refuses_moduli_past_the_powmod_bound(capsys, monkeypatch):
    # the class stage multiplies two residues mod p^j <= q in int64; a scan
    # that is not refused fails here instead of running for hours
    monkeypatch.setattr(counting, "_exact_hits", lambda *args: pytest.fail("the scan started"))
    qmax = _kernels.POWMOD_QMAX + 1
    for tau in (Fraction(2), Fraction(7, 4)):
        with pytest.raises(ValueError, match=f"q <= {_kernels.POWMOD_QMAX}"):
            find_hits(Fraction(1, 3), 2, 1, tau, FULL, qmax)
    argv = ["scan", "--poly", "0,0,-1", "--tau", "2", "--alpha", "1/3", "--qmax", str(qmax)]
    assert main(argv) == 2
    assert f"q <= {_kernels.POWMOD_QMAX}" in capsys.readouterr().err


@pytest.mark.parametrize("primitive", (False, True))
def test_wide_scan_factorizes_no_single_modulus(factorizations, primitive):
    # the class stage factors each batch of survivors in one block pass
    flags = HitFlags(primitive_only=primitive, omega_max=2)
    alpha = Fraction(5741, 9973)
    for band in (FULL, GcdBand(Fraction(1, 4), Fraction(1, 4))):
        assert find_hits(alpha, 2, -6, Fraction(7, 4), band, 3000, flags)
    assert factorizations == []


def test_wide_scan_grows_the_sieve_only_to_its_root(monkeypatch):
    # primes up to isqrt(qmax) come from a sieve of 2^16, whatever qmax is
    monkeypatch.setattr(arithmetic, "_sieve", None)
    band = GcdBand(Fraction(1, 2), Fraction(1, 4))
    assert find_hits(Fraction(5741, 9973), 2, 1, Fraction(2), band, (1 << 17) + 100)
    assert arithmetic._sieve.limit == 1 << 16


def test_corollary_search_statistic():
    # with unit-class numerators, gcd(q, d a_d) = 1 and omega <= 2, seeded
    # alphas keep producing hits: >= 3 by qmax = 10^5 for >= 16 of 20
    flags = HitFlags(primitive_only=True, coprime_to_d_ad=True, omega_max=2)
    good = 0
    results = []
    for alpha in dyadic_alphas(0, 192, 20):
        hits = find_hits(alpha, 2, 1, Fraction(3), FULL, 10**5, flags)
        results.append(len(hits))
        good += len(hits) >= 3
    assert good >= 16, f"hit counts per alpha: {results}"


def test_count_curve():
    alpha = Fraction(1, 3)
    hits = find_hits(alpha, 2, 1, Fraction(5, 2), FULL, 32)
    schedule = (4, 16, 64, 256, 1024)
    curve = count_curve(hits, schedule, 2)
    qs = {h.q for h in hits}
    assert curve == tuple((Q, sum(1 for q in qs if q * q <= Q)) for Q in schedule)
    ns = [n for _, n in curve]
    assert ns == sorted(ns)
    # at d = 3 the same hits are read on the q^3 <= Q scale, cube roots floored
    cubes = (1, 7, 8, 26, 27, 1000)
    assert count_curve(hits, cubes, 3) == tuple(
        (Q, sum(1 for q in qs if q**3 <= Q)) for Q in cubes
    )
