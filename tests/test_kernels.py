import math

import numpy as np
import pytest

from diocurve import _kernels
from oracles import omega, residue_profiles, scaled_counts


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
