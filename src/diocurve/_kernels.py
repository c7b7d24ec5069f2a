"""Enumeration kernels, vectorised with numpy.

The hot inner loops of this package (smallest-prime-factor sieve, brute
enumeration of one d-th power residue set, omega tables) are integer-only
and fit in int64 for every modulus the library accepts.  The brute-force
count twins of the closed forms live with the tests (tests/oracles.py).

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
    """spf[n] = smallest prime factor of n (spf[0]=0, spf[1]=1)."""
    spf = np.arange(limit + 1, dtype=np.int32)
    # ascending primes + minimum keeps the first (smallest) hit
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            np.minimum(spf[i * i :: i], np.int32(i), out=spf[i * i :: i])
    return spf


# ---------------------------------------------------------------------------
# d-th power residue enumeration


def _powmod(base: np.ndarray, exp: int, q: int) -> np.ndarray:
    x = np.full(base.shape, 1 % q, dtype=np.int64)
    b = base % q
    while exp:
        if exp & 1:
            x = x * b % q
        b = b * b % q
        exp >>= 1
    return x


def residue_set(q: int, d: int, ad: int = 1) -> np.ndarray:
    """Sorted array of {ad * m^d mod q : m in Z/qZ}, by enumeration."""
    m = np.arange(q, dtype=np.int64)
    x = _powmod(m, d, q)
    return np.unique((ad % q) * x % q)


# ---------------------------------------------------------------------------
# omega table (number of distinct prime factors for every n up to a limit)


def omega_table(limit: int) -> np.ndarray:
    """omega[n] = number of distinct prime factors of n, for n <= limit."""
    w = np.zeros(limit + 1, dtype=np.uint8)
    spf = spf_sieve(limit)
    primes = np.nonzero(spf == np.arange(limit + 1, dtype=np.int32))[0][2:]
    for p in primes:
        w[p::p] += 1
    return w
