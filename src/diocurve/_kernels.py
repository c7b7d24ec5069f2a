"""Enumeration kernels, vectorised with numpy.

The hot inner loops of this package (smallest-prime-factor sieve, modular
powers with one exponent and modulus per element, brute enumeration of one
d-th power residue set, the per-prime slice pass that factors one block of
consecutive integers, and the omega table and the factor pairs of sorted
moduli built on it) are integer-only and fit in int64 for every modulus
the library accepts; each kernel refuses, before it allocates, an input
that would leave that range.  The brute-force count twins of the closed
forms live with the tests (tests/oracles.py).

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


def _powmod(base: np.ndarray, exp, q) -> np.ndarray:
    """base^exp mod q elementwise, for exp >= 0 and 1 <= q <= POWMOD_QMAX;
    exp and q are ints or int64 arrays broadcast against base.  The largest
    modulus is checked before anything is allocated."""
    _check_powmod_modulus(int(np.max(q, initial=1)))
    b = base % q
    x = np.ones(np.broadcast_shapes(b.shape, np.shape(exp)), dtype=np.int64) % q
    e = np.array(exp, dtype=np.int64)
    while e.any():
        x = np.where(e & 1, x * b % q, x)
        b = b * b % q
        e >>= 1
    return x


def residue_set(q: int, d: int, ad: int = 1) -> np.ndarray:
    """Sorted array of {ad * m^d mod q : m in Z/qZ}, by enumeration, for
    q <= POWMOD_QMAX."""
    _check_powmod_modulus(q)
    m = np.arange(q, dtype=np.int64)
    x = _powmod(m, d, q)
    return np.unique((ad % q) * x % q)


def _mod_each(a: int, m: np.ndarray) -> np.ndarray:
    """a mod m elementwise for an integer a of any size and sign and 0 < m <
    2^48: Horner over the 15-bit limbs of |a| keeps every step below 2^63."""
    r = np.zeros_like(m)
    n = abs(a)
    for shift in range(n.bit_length() // 15 * 15, -1, -15):
        r = ((r << 15) | ((n >> shift) & 0x7FFF)) % m
    return r if a >= 0 else -r % m


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


# consecutive integers per ``prime_exponents`` pass of ``factor_pairs_block``:
# a pass holds a few int64 rows per integer it spans (a traced peak of 1.9
# MB for 2,048 entries spread over a full span near 2^24), so entries far
# apart cannot make one pass hold more
_PAIRS_SPAN = 1 << 13


def factor_pairs_block(q: np.ndarray, primes):
    """The (p, k) of every entry of a nondecreasing int64 array q >= 1, as
    flat int64 arrays (at, p, k), one row per prime p of each entry q[at]
    and its exponent k; primes ascend past isqrt(q[-1]).

    Each run of entries within _PAIRS_SPAN consecutive integers, from lo to
    its last entry, is factored by one ``prime_exponents`` pass.  The
    multiples of a yielded p sit at x = start, start + p, ... in the run,
    with exponents e, and what the pass leaves above 1 at x is one prime to
    the first power: these are the block's rows.  With count[x] entries at
    x, from index begin[x] on (q is sorted), each block row is repeated
    once per entry at its x, and the slices count[start::p] and
    begin[start::p] read the entries of every multiple of p at once."""
    at, primes_of, ks = [], [], []
    first = 0
    while first < len(q):
        lo = int(q[first])
        last = int(np.searchsorted(q, lo + _PAIRS_SPAN))
        rem = np.arange(lo, int(q[last - 1]) + 1, dtype=np.int64)
        count = np.bincount(q[first:last] - lo, minlength=len(rem))
        begin = np.cumsum(count) - count + first
        found, begins, counts, exps = [], [], [], []
        for p, start, e in prime_exponents(lo, rem, primes):
            found.append(p)
            begins.append(begin[start::p])
            counts.append(count[start::p])
            exps.append(e)
        big = np.flatnonzero(rem > 1)
        lens = [len(e) for e in exps]
        P = np.concatenate((np.repeat(np.array(found, dtype=np.int64), lens), rem[big]))
        K = np.concatenate(exps + [np.ones(len(big), dtype=np.int64)])
        B = np.concatenate(begins + [begin[big]])
        C = np.concatenate(counts + [count[big]])
        row = np.repeat(np.arange(len(C)), C)
        at.append(B[row] + np.arange(len(row)) - (np.cumsum(C) - C)[row])
        primes_of.append(P[row])
        ks.append(K[row])
        first = last
    return np.concatenate(at), np.concatenate(primes_of), np.concatenate(ks)
