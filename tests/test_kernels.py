import math

import numpy as np
import pytest

from diocurve import _kernels
from oracles import omega, residue_profiles, scaled_counts, trial_division


def brute_profile(q, d):
    """Pure-python oracle, independent of the numpy kernels."""
    powers = set()
    unit_powers = set()
    u = 0
    for m in range(q):
        x = pow(m, d, q)
        powers.add(x)
        if math.gcd(m, q) == 1:
            unit_powers.add(x)
            if x == 1 % q:
                u += 1
    return u, len(unit_powers), len(powers)


def brute_prime_divisors(n):
    """Pure-python oracle: the primes dividing n, by trial division."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % k for k in range(2, p))]


def brute_primes(limit):
    """Pure-python oracle: the primes up to limit, by trial division."""
    return [p for p in range(2, limit + 1) if all(p % k for k in range(2, math.isqrt(p) + 1))]


def test_spf_backends_agree():
    a = _kernels.spf_sieve(50_000)
    assert int(a[1]) == 1 and int(a[2]) == 2 and int(a[49999]) == 49999  # prime
    assert int(a[49998]) == 2 and int(a[12345]) == 3
    assert [int(x) for x in a[2:600]] == [brute_prime_divisors(n)[0] for n in range(2, 600)]


def test_profiles_backends_and_oracle():
    assert _kernels.backend_name() == "numpy"
    u, e, r = residue_profiles(8, 8, 2)
    assert (int(u[0]), int(e[0]), int(r[0])) == (4, 1, 3)
    unp = residue_profiles(1, 300, 3)
    for idx, q in enumerate(range(1, 301)):
        assert (int(unp[0][idx]), int(unp[1][idx]), int(unp[2][idx])) == brute_profile(q, 3)


@pytest.mark.parametrize("q,d,ad", [(12, 2, 1), (12, 2, 5), (40, 4, -3), (1, 2, 7)])
def test_residue_set_backends(q, d, ad):
    expected = sorted({ad * pow(m, d, q) % q for m in range(q)})
    assert _kernels.residue_set(q, d, ad).tolist() == expected


def test_scaled_counts_backends():
    a = scaled_counts(1, 120, 2, 6)
    expected = [len({6 * pow(m, 2, q) % q for m in range(q)}) for q in range(1, 121)]
    assert a.tolist() == expected


def test_omega_backends():
    primes = brute_primes(100)
    a = _kernels.omega_table(1, 10_000, primes)  # a[i] = omega(1 + i)
    assert int(a[0]) == 0 and int(a[1]) == 1 and int(a[11]) == 2 and int(a[29]) == 3
    assert [int(x) for x in a[:599]] == [len(brute_prime_divisors(n)) for n in range(1, 600)]


def test_omega_block_away_from_one():
    # a block that does not start at 1, with leftover primes above isqrt(hi)
    lo, hi = (1 << 20) - 500, (1 << 20) + 500
    a = _kernels.omega_table(lo, hi, brute_primes(math.isqrt(hi) + 1))
    assert a.tolist() == [omega(n) for n in range(lo, hi + 1)]


def test_kernels_refuse_out_of_int64_range_before_allocating():
    # each of these would allocate gigabytes if the check came second
    with pytest.raises(ValueError, match="2\\^31"):
        _kernels.spf_sieve(1 << 31)
    with pytest.raises(ValueError, match="3037000499"):
        _kernels.residue_set(3_037_000_500, 2)
    with pytest.raises(ValueError, match="3037000499"):
        _kernels._powmod(np.arange(3, dtype=np.int64), 2, 3_037_000_500)
    with pytest.raises(ValueError, match="2\\^63"):
        _kernels.omega_table(1, 1 << 63, [2, 3])
    # at the largest accepted modulus every product still fits in int64
    q = _kernels.POWMOD_QMAX
    base = np.array([q - 1, q - 2, 123456789], dtype=np.int64)
    assert _kernels._powmod(base, 5, q).tolist() == [pow(b, 5, q) for b in base.tolist()]


def test_powmod_takes_exponents_and_moduli_per_element():
    # at the largest accepted modulus, exponents up to 2^31 per element
    q = _kernels.POWMOD_QMAX
    rng = np.random.default_rng(26)
    base = np.concatenate(([0, 1, q - 1, q - 2, -5], rng.integers(0, q, 200)))
    top = 1 << 31
    exp = np.concatenate(([0, top, top - 1, 2, 3], rng.integers(0, top, 200, endpoint=True)))
    got = _kernels._powmod(base, exp, q).tolist()
    assert got == [pow(b, e, q) for b, e in zip(base.tolist(), exp.tolist())]
    # moduli per element too, down to 1, and a scalar exponent against them
    mods = np.concatenate(([1, 2, q, q - 1], rng.integers(1, q, 200, endpoint=True)))
    got = _kernels._powmod(base[: len(mods)], exp[: len(mods)], mods).tolist()
    assert got == [pow(b, e, m) for b, e, m in zip(base.tolist(), exp.tolist(), mods.tolist())]
    assert _kernels._powmod(base[:4], 7, mods[:4]).tolist() == [
        pow(b, 7, m) for b, m in zip(base[:4].tolist(), mods[:4].tolist())
    ]
    # an array of moduli is refused as a single one is, if any entry is too large
    with pytest.raises(ValueError, match="3037000499"):
        _kernels._powmod(base[:2], 2, np.array([5, q + 1], dtype=np.int64))


def test_mod_each_takes_either_sign_and_any_size():
    m = np.array([1, 2, 3, 97, (1 << 48) - 59, 12345678901], dtype=np.int64)
    for a in (0, 1, -1, 6, -6, 3 << 70, -(3 << 70), (1 << 200) + 12345, -(7**90)):
        assert _kernels._mod_each(a, m).tolist() == [a % x for x in m.tolist()], a


def test_factor_pairs_block_matches_trial_division(monkeypatch):
    # repeated entries, q = 1, prime powers and cofactors above the root; a
    # span of 64 splits the entries over several passes, one gap jumps spans
    rng = np.random.default_rng(7)
    q = np.sort(np.concatenate((
        [1, 1, 2, 4, 4, 97, 128, 243, 1000, 1000],
        rng.integers(1, 5000, 300),
        [1 << 20, (1 << 20) + 1, 1_048_583, 1023 * 1024],
    ))).astype(np.int64)
    primes = brute_primes(math.isqrt(int(q[-1])) + 1)
    for span in (1 << 16, 64):
        monkeypatch.setattr(_kernels, "_PAIRS_SPAN", span)
        at, p, k = _kernels.factor_pairs_block(q, primes)
        got = [[] for _ in q]
        for i, pi, ki in zip(at.tolist(), p.tolist(), k.tolist()):
            got[i].append((pi, ki))
        assert [sorted(g) for g in got] == [trial_division(n) for n in q.tolist()], span
