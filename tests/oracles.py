"""Brute-force enumeration oracles for the closed-form residue counts,
omega by trial division, and outward rounding of numerator / q^(u/v) with
roots found by bisection.

Test-side only: no library code calls these.  They enumerate every m
modulo q with the numpy kernels, so they are exact for every modulus the
tests use.
"""

import numpy as np

from diocurve._kernels import _powmod, residue_set


def residue_profiles(qlo: int, qhi: int, d: int):
    """Brute-force (u, e, r) arrays for every modulus in [qlo, qhi].

    u counts solutions of m^d = 1, e counts distinct d-th powers of
    units, r counts distinct d-th powers, all modulo q.
    """
    n = qhi - qlo + 1
    u = np.zeros(n, dtype=np.int64)
    e = np.zeros(n, dtype=np.int64)
    r = np.zeros(n, dtype=np.int64)
    for idx in range(n):
        q = qlo + idx
        m = np.arange(q, dtype=np.int64)
        x = _powmod(m, d, q)
        r[idx] = np.unique(x).size
        xu = x[np.gcd(m, np.int64(q)) == 1]
        e[idx] = np.unique(xu).size
        u[idx] = int(np.count_nonzero(xu == (1 % q)))
    return u, e, r


def scaled_counts(qlo: int, qhi: int, d: int, ad: int) -> np.ndarray:
    """|{ad * m^d mod q}| for every q in [qlo, qhi], by enumeration."""
    return np.array(
        [residue_set(q, d, ad).size for q in range(qlo, qhi + 1)],
        dtype=np.int64,
    )


def omega(q: int) -> int:
    """Number of distinct prime factors of q >= 1, by trial division."""
    count, p = 0, 2
    while p * p <= q:
        if q % p == 0:
            count += 1
            while q % p == 0:
                q //= p
        p += 1
    return count + (q > 1)


def ratio_with_root_bounds(numerator: int, q: int, u: int, v: int, bits: int) -> tuple[int, int]:
    """(lo, hi) integers bounding numerator * 2^bits / q^(u/v), rounded as
    the fixed-point sums round it.

    v = 1: floor and ceiling of numerator * 2^bits / q^u.  v >= 2: with
    r = floor(2^bits q^(u/v)), found by integer bisection on
    r^v <= q^u 2^(bits v), lo = floor(numerator 2^(2 bits) / (r + 1)) and
    hi = ceil(numerator 2^(2 bits) / r).
    """
    if v == 1:
        num, den = numerator << bits, q**u
        return num // den, -(-num // den)
    target = q**u << (bits * v)
    size = target.bit_length()
    lo, hi = 1 << ((size - 1) // v), 1 << (size // v + 1)  # lo^v <= target < hi^v
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**v <= target:
            lo = mid
        else:
            hi = mid
    num = numerator << (2 * bits)
    return num // (lo + 1), -(-num // lo)
