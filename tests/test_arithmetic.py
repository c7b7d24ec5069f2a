import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diocurve import _kernels, arithmetic
from diocurve.arithmetic import (
    Factorization,
    cmp_frac_qpow,
    divisor_count,
    distinct_prime_count,
    divisors,
    euler_phi,
    factorize,
    frac_lt_qpow,
    iroot,
    is_probable_prime,
    root_enclosure,
)
from diocurve.covers import GcdBand
from diocurve.residues import count_solutions, is_power_residue, scaled_power_residue_count
from oracles import floor_root, trial_division


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(9699690).factors == tuple(trial_division(9699690))
    assert factorize(9699690).factors == (
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
    )


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def test_factorize_matches_trial_division_sample():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        assert factorize(n).factors == tuple(trial_division(n))


def test_factorize_beyond_sieve():
    # recompose + per-factor primality instead of a slow trial oracle
    for n in (2**25 + 1, 67_108_859, 10**12 + 39, 2**52 + 1, 10**9 + 7):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        for p, e in f.factors:
            assert e >= 1
            assert is_probable_prime(p)


def test_sieve_primes_match_trial_division():
    # chunk edges (2^16 - 1, 2^16, 2^16 + 1) and a limit that is not a
    # power of two
    for limit in (2, 3, 30, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 100_003):
        primes = arithmetic.SpfSieve(limit).primes(limit)
        want = [n for n in range(2, limit + 1) if trial_division(n) == [(n, 1)]]
        assert primes.tolist() == want, limit


def test_sieve_primes_hold_no_array_of_the_sieve_length():
    # a full-length index array would be 8 bytes per sieve entry, 8 MB here;
    # the chunked listing holds about twice the primes' own bytes
    sieve = arithmetic.SpfSieve(1 << 20)
    tracemalloc.start()
    try:
        primes = sieve.primes(1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 82_025
    assert peak < 2 * primes.nbytes + (1 << 20), peak


def eratosthenes(limit):
    """Independent primes oracle: the primes up to limit, by a sieve of
    Eratosthenes on a bytearray."""
    marks = bytearray([1]) * (limit + 1)
    marks[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for n in range(2, math.isqrt(limit) + 1):
        if marks[n]:
            marks[n * n :: n] = bytes(len(range(n * n, limit + 1, n)))
    return [n for n in range(limit + 1) if marks[n]]


def test_sieve_primes_list_only_up_to_the_bound_asked():
    sieve = arithmetic.SpfSieve(1 << 20)
    for bound in (1, 2, 100, 1000, 99, (1 << 16) + 5, 1 << 21):
        want = eratosthenes(min(bound, 1 << 20))
        assert sieve.primes(bound).tolist() == want, bound
    # the listing is kept and grown: a smaller bound after a larger one
    # reads the kept primes
    assert sieve.primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_primes_grow_only_as_far_as_asked(monkeypatch):
    # a first small bound lists no whole chunk of 2^16 entries; each later
    # listing stops at the bound, or at twice the listed length when that
    # is more, for bounds around the chunk edges (real ones, and 64-entry
    # chunks) and on a new sieve after the shared one grows
    chunk = arithmetic._PRIME_CHUNK
    for edge in (chunk, 64):
        monkeypatch.setattr(arithmetic, "_PRIME_CHUNK", edge)
        sieve = arithmetic.SpfSieve(1 << 18)
        assert sieve.primes(90).tolist() == eratosthenes(90) and sieve._listed == 90
        bounds = [k * edge + j for k in (1, 2, 3, 7) for j in (-1, 0, 1)]
        for bound in bounds + [(1 << 18) - 1, 1 << 18, 1 << 19, 5, 300]:
            listed = sieve._listed
            assert sieve.primes(bound).tolist() == eratosthenes(min(bound, 1 << 18)), bound
            grown = max(bound, 2 * listed) if bound > listed else listed
            assert sieve._listed == min(grown, 1 << 18), (edge, bound)
    monkeypatch.setattr(arithmetic, "_sieve", None)
    small = arithmetic.get_sieve(100)
    assert small.primes(1 << 15).tolist() == eratosthenes(1 << 15)
    large = arithmetic.get_sieve((1 << 17) + 1)
    assert large is not small and large.limit == 1 << 18
    for bound in (97, 1 << 15, (1 << 17) + 3, 1 << 18):
        assert large.primes(bound).tolist() == eratosthenes(bound), bound


def test_factorize_past_a_large_sieve_lists_only_the_primes_it_needs(monkeypatch):
    # factorize(2^25 + 1) needs the primes up to isqrt(2^25 + 1) = 5792; a
    # listing of every prime of a 2^22 sieve would hold 295,947 of them
    # (2.4 MB of int64), one chunk of 2^16 sieve entries peaks near 0.65 MB
    monkeypatch.setattr(arithmetic, "_sieve", arithmetic.SpfSieve(1 << 22))
    tracemalloc.start()
    try:
        f = factorize((1 << 25) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.factors == ((3, 1), (11, 1), (251, 1), (4051, 1))
    assert peak < 1 << 20, peak


def test_factor_pairs_over_grows_the_sieve_only_for_long_ranges(monkeypatch):
    monkeypatch.setattr(arithmetic, "_sieve", None)
    # [2^20 - 100, 2^20] holds fewer than isqrt(2^20) = 1024 moduli
    short = arithmetic.factor_pairs_over((1 << 20) - 100, 1 << 20)
    for q in range((1 << 20) - 100, (1 << 20) + 1):
        assert short(q) == trial_division(q)
    assert arithmetic._sieve.limit == 1 << 16
    # 1100 moduli up to 2^17 + 1: the sieve grows to cover them
    long = arithmetic.factor_pairs_over((1 << 17) - 1098, (1 << 17) + 1)
    assert arithmetic._sieve.limit == 1 << 18
    for q in range((1 << 17) - 1098, (1 << 17) + 2):
        assert long(q) == trial_division(q)
    # a sieve that already covers Q serves a range of any length
    assert arithmetic.factor_pairs_over(1000, 1000) == arithmetic._sieve.factor_pairs
    # past DEFAULT_SIEVE_LIMIT each q is factored on its own
    past = arithmetic.factor_pairs_over(1, arithmetic.DEFAULT_SIEVE_LIMIT + 1)
    assert past(2**25 + 1) == trial_division(2**25 + 1)
    assert arithmetic._sieve.limit == 1 << 18


def test_one_modulus_near_the_limit_does_not_build_the_sieve(monkeypatch):
    # one n near DEFAULT_SIEVE_LIMIT is factored past the sieve, whichever
    # call factors it; only the primes up to isqrt(n) are sieved
    monkeypatch.setattr(arithmetic, "_sieve", None)
    n = arithmetic.DEFAULT_SIEVE_LIMIT - 3  # a prime
    assert factorize(n).factors == tuple(trial_division(n)) == ((n, 1),)
    square = pow(2, (n - 1) // 2, n) == 1  # Euler's criterion
    assert is_power_residue(2, n, 2) == square
    assert count_solutions(2, n, 2) == 2 * square
    assert scaled_power_residue_count(n, 2, 1) == 1 + (n - 1) // 2
    assert arithmetic._sieve.limit <= 1 << 16


def test_single_factorizations_climbing_q_double_the_sieve(monkeypatch):
    # single calls that climb q one at a time double the sieve as they go
    monkeypatch.setattr(arithmetic, "_sieve", None)
    limits = set()
    for q in range(1, (1 << 17) + 11):
        assert factorize(q).value == q
        if q > 1:
            limits.add(arithmetic._sieve.limit)
    assert limits == {1 << 16, 1 << 17, 1 << 18}
    assert arithmetic._sieve.limit == 1 << 18


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # wrong product


def test_round_trip_exhaustive_to_1e6():
    # recomposing the factorization returns the input, for all n <= 10^6
    sieve_spf = _kernels.spf_sieve(10**6).tolist()
    for n in range(1, 10**6 + 1):
        m = n
        prod = 1
        while m > 1:
            p = sieve_spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            prod *= p**e
        assert prod == n
    # and through the public dataclass on a sample
    rng = random.Random(1)
    for _ in range(2000):
        n = rng.randrange(1, 10**6)
        assert math.prod(p**e for p, e in factorize(n).factors) == n


def brute_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_phi_examples_and_brute_force():
    assert euler_phi(factorize(1)) == 1
    assert euler_phi(factorize(8)) == brute_phi(8) == 4
    assert euler_phi(factorize(12)) == brute_phi(12) == 4
    for n in range(1, 200):
        assert euler_phi(factorize(n)) == brute_phi(n)


def test_divisor_count_examples():
    assert divisor_count(factorize(1)) == 1
    assert divisor_count(factorize(12)) == len([1, 2, 3, 4, 6, 12]) == 6
    assert divisor_count(factorize(2**10)) == 11
    for n in range(1, 300):
        assert divisor_count(factorize(n)) == sum(
            1 for a in range(1, n + 1) if n % a == 0
        )


def test_omega_examples():
    assert distinct_prime_count(factorize(1)) == 0
    assert distinct_prime_count(factorize(12)) == 2
    assert distinct_prime_count(factorize(30030)) == len(trial_division(30030)) == 6


def test_divisors_between_band_cuts():
    # the divisors a with lo <= a < hi for the integer cuts of a gcd band:
    # 12^(1/4) = 1.86..., 12^(9/20) = 3.06... leave 2 and 3 of 12
    def between(n, band):
        lo, hi = band.cuts(n)
        return [a for a in divisors(factorize(n)) if lo <= a < hi]

    assert between(12, GcdBand(Fraction(1, 4), Fraction(1, 5))) == [2, 3]
    assert between(7, GcdBand.full()) == [1, 7]
    assert between(1, GcdBand(Fraction(1, 2), Fraction(1, 2))) == []


def test_multiplicativity_of_phi_tau_omega():
    rng = random.Random(3)
    checked = 0
    while checked < 2000:
        m = rng.randrange(2, 10**4)
        n = rng.randrange(2, 10**4)
        if math.gcd(m, n) != 1:
            continue
        fm, fn, fmn = factorize(m), factorize(n), factorize(m * n)
        assert euler_phi(fmn) == euler_phi(fm) * euler_phi(fn)
        assert divisor_count(fmn) == divisor_count(fm) * divisor_count(fn)
        assert distinct_prime_count(fmn) == distinct_prime_count(fm) + distinct_prime_count(fn)
        checked += 1


def test_tau_average_order_at_1e6():
    # sum_{k<=N} tau(k) = sum_{d<=N} floor(N/d): independent identity oracle
    N = 10**6
    total = sum(N // d for d in range(1, N + 1))
    ratio = (total / N) / math.log(N)
    assert 0.9 <= ratio <= 1.1
    # spot-check the identity against per-k divisor counts
    small = 1000
    assert sum(divisor_count(factorize(k)) for k in range(1, small + 1)) == sum(
        small // d for d in range(1, small + 1)
    )


def test_omega_growth_sanity_at_1e6():
    # Desk-scale check of the maximal-order shape omega(n) ~ log n / log log n.
    # The worst ratio omega(n) * loglog n / log n up to 10^6 is attained at the
    # primorial 510510 and equals 1.3719...; it is pinned here exactly so any
    # regression in omega shows up. (The asymptotic constant is 1.)
    primes = arithmetic.get_sieve(1000).primes(1000).tolist()
    w = [0] + _kernels.omega_table(1, 10**6, primes).tolist()
    worst_n, worst = 0, 0.0
    for n in range(3, 10**6 + 1):
        ln = math.log(n)
        val = w[n] * math.log(ln) / ln
        if val > worst:
            worst_n, worst = n, val
    assert worst_n == 510510
    assert w[510510] == 7
    assert worst == pytest.approx(7 * math.log(math.log(510510)) / math.log(510510))
    assert worst < 1.4


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=11))
@settings(max_examples=300, deadline=None)
def test_iroot_exact(n, k):
    x = iroot(n, k)
    assert x**k <= n
    assert (x + 1) ** k > n


@given(st.integers(min_value=0, max_value=2**700), st.integers(min_value=3, max_value=9))
@settings(max_examples=500, deadline=None)
def test_iroot_exact_wide(n, k):
    x = iroot(n, k)
    assert x**k <= n < (x + 1) ** k


def test_iroot_sum_operands():
    # the operand shapes of the certified sums: q^u << (v * bits), v-th root;
    # the omega series' shapes also at every q of its top range
    low, top = range(1, 2**12 + 1), range(2**18 - 4096, 2**18 + 1)
    for u, v, bits, qs in (
        (6, 5, 64, low), (7, 5, 64, low), (13, 4, 96, low), (10, 3, 96, low), (9, 7, 96, low),
        (6, 5, 64, top), (7, 5, 64, top),
    ):
        for q in qs:
            n = q**u << (v * bits)
            x = iroot(n, v)
            assert x**v <= n < (x + 1) ** v, (q, u, v, bits)


def test_iroot_exact_powers_and_neighbours():
    rng = random.Random(7)
    roots = [1, 2, 3, 2**26 - 1, 2**26, 2**45 + 1, 2**60 - 1, 3**40]
    roots += [rng.getrandbits(b) | 1 for b in (20, 53, 90, 150, 230)]
    for k in range(3, 10):
        for x in roots:
            n = x**k
            assert iroot(n, k) == x, (x, k)
            assert iroot(n - 1, k) == x - 1, (x, k)
            assert iroot(n + 1, k) == x, (x, k)


def test_iroot_from_a_seed_below_the_root(monkeypatch):
    # one unconditional Newton step lifts any seed >= 1 to at or above the
    # root (AM-GM), so a seed far below it still gives the exact floor
    cases = [(q**6 << 320, 5) for q in (2, 97, 4093)] + [(3**200 + 1, 7), (10**50, 3)]
    for below in (lambda r: 1, lambda r: max(r // 3, 1), lambda r: r - 1):
        for n, k in cases:
            r = iroot(n, k)
            monkeypatch.setattr(arithmetic, "_root_seed", lambda n, k: below(r))
            assert iroot(n, k) == r, (n, k)
            monkeypatch.undo()


def test_iroot_from_a_seed_above_the_root(monkeypatch):
    # from above, the Newton steps strictly descend to the root, however far
    cases = [(q**6 << 320, 5) for q in (2, 97, 4093)] + [(3**200 + 1, 7), (10**50, 3)]
    for above in (lambda n, r: r + 1, lambda n, r: 2 * r, lambda n, r: n):
        for n, k in cases:
            r = iroot(n, k)
            monkeypatch.setattr(arithmetic, "_root_seed", lambda n, k: above(n, r))
            assert iroot(n, k) == r, (n, k)
            monkeypatch.undo()


def test_iroot_shift_path_exact_powers_and_neighbours():
    # n >= 2^1000 seeds from n >> shift (float(n) overflows at 2^1024), also
    # at k = 60 and 200; there the roots 2 and 3 sit just above 2^52
    rng = random.Random(11)
    cases = []
    for k in range(3, 10):
        top = -(-1000 // k) + 1  # x of this many bits has x^k >= 2^1000
        roots = [1 << (top - 1), 3 ** math.ceil((top - 1) / math.log2(3))]
        roots += [rng.getrandbits(b) | 1 << (b - 1) for b in (top, top + 7, 5000 // k)]
        cases += [(x, k) for x in roots]
    cases += [(x, 60) for x in (1, 2, 3, 1 << 17, 3**11, rng.getrandbits(40) | 1 << 39)]
    cases += [(x, 200) for x in (1, 2, 3, 33, 1 << 6, rng.getrandbits(20) | 1 << 19)]
    assert sum(x**k >= 1 << 1000 for x, k in cases) >= 30
    for x, k in cases:
        n = x**k
        assert iroot(n, k) == x, (x, k)
        assert iroot(n - 1, k) == x - 1, (x, k)
        assert iroot(n + 1, k) == x, (x, k)
    # float roots below 2, or just below an integer, above 2^52; and
    # n >> shift = 0 at k > 1000
    for n, k, r in ((1 << 53, 60, 1), (1 << 53, 200, 1), (3**60 - 1, 60, 2),
                    (1 << 1000, 1500, 1), (1 << 1500, 1200, 2)):
        assert iroot(n, k) == r, (n, k)


def test_iroot_matches_floor_root_on_small_n_and_around_2_52():
    # one path for every root of degree >= 3: _root_descent from _root_seed,
    # also where n is an exact float and where it stops being one
    for k in range(3, 9):
        small = range(1, 1 << 16)
        assert [iroot(n, k) for n in small] == [floor_root(n, k) for n in small], k
        for centre in (1 << 52, 1 << 53):
            for n in range(centre - 512, centre + 512):
                assert iroot(n, k) == floor_root(n, k), (n, k)


def test_iroot_matches_floor_root_on_random_n_to_1100_bits():
    # 200 n of each bit length 53..1100, k = 3..8 in turn: the float seed of
    # n < 2^1000 and the shifted seed above; r^k <= n < (r + 1)^k defines the
    # floor root, so it checks as much as the bisection oracle
    rng = random.Random(29)
    for bits in range(53, 1101):
        for i in range(200):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            k = 3 + i % 6
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)


def test_iroot_known():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(2**90 - 1, 3) == 2**30 - 1
    assert iroot(2**90, 3) == 2**30


@given(
    st.fractions(min_value=0, max_value=100, max_denominator=1000),
    st.integers(min_value=1, max_value=50),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
@settings(max_examples=300, deadline=None)
def test_cmp_frac_qpow_against_float(x, q, e):
    # float comparison is only a sanity guide; skip razor-thin cases
    approx = float(x) - float(q) ** float(e)
    if abs(approx) < 1e-9:
        return
    assert cmp_frac_qpow(x, q, e) == (1 if approx > 0 else -1)


def test_cmp_frac_qpow_exact_boundaries():
    assert cmp_frac_qpow(Fraction(2), 4, Fraction(1, 2)) == 0
    assert cmp_frac_qpow(Fraction(3), 4, Fraction(1, 2)) == 1
    assert cmp_frac_qpow(Fraction(1, 2), 4, Fraction(-1, 2)) == 0
    assert frac_lt_qpow(Fraction(1, 3), 2, Fraction(-3, 2))  # 1/3 < 2^-1.5


def test_root_enclosure():
    lo, hi = root_enclosure(5, Fraction(1, 2), bits=64)
    assert lo <= Fraction(math.isqrt(5 * 4**64), 2**64) <= hi
    assert lo * lo <= 5 <= hi * hi
    assert hi - lo <= Fraction(2, 2**64) * hi
    lo, hi = root_enclosure(7, Fraction(-3, 2), bits=64)
    assert lo <= hi
    assert lo**2 * 7**3 <= 1 <= hi**2 * 7**3
    lo, hi = root_enclosure(9, Fraction(3), bits=64)
    assert lo == hi == 729
    # lo <= q^(u/v) <= hi decided exactly as lo^v <= q^u <= hi^v, and the
    # width bound, for negative exponents too
    for u, v in ((-3, 2), (-6, 5), (7, 5)):
        for bits in (64, 96):
            for q in range(1, 2**12 + 1):
                lo, hi = root_enclosure(q, Fraction(u, v), bits=bits)
                assert lo**v <= Fraction(q) ** u <= hi**v, (q, u, v, bits)
                assert 0 < hi - lo <= hi / 2 ** (bits - 1), (q, u, v, bits)


def test_is_probable_prime():
    primes = {2, 3, 5, 7, 11, 13, 2**31 - 1, 10**12 + 39}
    for p in primes:
        assert is_probable_prime(p)
    for n in (1, 4, 9, 2**31, 10**12 + 41 * 3):
        assert not is_probable_prime(n)
