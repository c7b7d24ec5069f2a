"""Enumeration kernels, vectorised with numpy.

The hot inner loops of this package (smallest-prime-factor sieve, brute
enumeration of one d-th power residue set, the per-prime slice pass that
factors one block of consecutive integers, and the omega table built on
it) are integer-only and fit in int64 for every modulus the library
accepts; each kernel refuses, before it allocates, an input that would
leave that range.  The brute-force count twins of the closed forms live
with the tests (tests/oracles.py).

Everything exact and big-integer (rational scans, Hensel lifts, certified
interval sums) lives outside this module in plain Python.
"""

from __future__ import annotations

import math

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, stamped on benchmark records."""
    return "numpy"


# ---------------------------------------------------------------------------
# smallest prime factor sieve


def spf_sieve(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n (spf[0]=0, spf[1]=1); refuses
    limit >= 2^31, where the int32 table would wrap."""
    if limit >= 1 << 31:
        raise ValueError(f"spf_sieve needs limit < 2^31 (int32), got {limit}")
    spf = np.arange(limit + 1, dtype=np.int32)
    # ascending primes + minimum keeps the first (smallest) hit
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            np.minimum(spf[i * i :: i], np.int32(i), out=spf[i * i :: i])
    return spf


# ---------------------------------------------------------------------------
# d-th power residue enumeration


# the largest q with q^2 < 2^63: a product of two residues mod q stays in
# int64
POWMOD_QMAX = 3_037_000_499


def _check_powmod_modulus(q: int) -> None:
    if q > POWMOD_QMAX:
        raise ValueError(f"modulus must be <= {POWMOD_QMAX} for int64 products, got {q}")


def _powmod(base: np.ndarray, exp: int, q: int) -> np.ndarray:
    """base^exp mod q elementwise, for q <= POWMOD_QMAX."""
    _check_powmod_modulus(q)
    x = np.full(base.shape, 1 % q, dtype=np.int64)
    b = base % q
    while exp:
        if exp & 1:
            x = x * b % q
        b = b * b % q
        exp >>= 1
    return x


def residue_set(q: int, d: int, ad: int = 1) -> np.ndarray:
    """Sorted array of {ad * m^d mod q : m in Z/qZ}, by enumeration, for
    q <= POWMOD_QMAX."""
    _check_powmod_modulus(q)
    m = np.arange(q, dtype=np.int64)
    x = _powmod(m, d, q)
    return np.unique((ad % q) * x % q)


# ---------------------------------------------------------------------------
# block factoring: one slice per prime power over consecutive integers


def prime_exponents(lo: int, rem: np.ndarray, primes):
    """Factor the block rem = [lo, lo + len(rem)) (lo >= 1) by its small
    primes: for each p of the ascending ``primes`` with p^2 <= the block's
    last value and a multiple in the block, divide p^k out of rem and yield
    (p, start, e), where rem[start::p] are the multiples of p and e[i] =
    v_p of the i-th of them.  If primes run past the square root of the
    last value, rem ends as 1 or one prime above it at every position."""
    n = len(rem)
    hi = lo + n - 1
    for p in primes:
        if p * p > hi:
            break
        start = (-lo) % p
        if start >= n:
            continue
        e = np.zeros(len(range(start, n, p)), dtype=np.int64)
        pk = p
        while (s := (-lo) % pk) < n:
            rem[s::pk] //= p
            e[(s - start) // p :: pk // p] += 1
            pk *= p
        yield p, start, e


def omega_table(lo: int, hi: int, primes) -> np.ndarray:
    """omega[i] = number of distinct prime factors of lo + i, for lo + i in
    [lo, hi] with lo >= 1 and hi < 2^63; primes ascend past isqrt(hi)."""
    if hi >= 1 << 63:
        raise ValueError(f"omega_table needs hi < 2^63 (int64), got {hi}")
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    w = np.zeros(len(rem), dtype=np.uint8)
    for p, start, _ in prime_exponents(lo, rem, primes):
        w[start::p] += 1
    w += rem > 1  # the prime left above isqrt(hi)
    return w
