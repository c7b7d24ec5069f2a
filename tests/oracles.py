"""Brute-force enumeration oracles for the closed-form residue counts,
and omega by trial division.

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
