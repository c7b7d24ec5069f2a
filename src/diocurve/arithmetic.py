"""Exact integer arithmetic: factorization and multiplicative functions.

A smallest-prime-factor sieve answers factorization queries in O(log n);
beyond the sieve a deterministic Miller-Rabin test plus Brent's rho take
over (good far past the 2^63 moduli ceiling this package supports).  One
rule, ``factor_pairs_over``, picks between them for a range [N, Q] (and
``factorize`` is its one-n case): the sieve grows to Q <= 2^24 when the
range holds at least isqrt(Q) moduli or Q is at most twice the sieve's
limit, so q climbing one at a time doubles it and one lone n near 2^24
does not build it.  The doubling costs once: a short range just above a
sieve of Q/2 or more grows it, to at most twice its size.

Quantities of the form q^(u/v) are never materialised as floats.  Order
comparisons against them are decided by raising both sides to the v-th
power in exact integers, and certified rational enclosures come from
integer v-th roots at a configurable precision.  Every integer root of
degree 3 or more ends in the same exact descent (``_root_descent``):
``iroot`` starts it from its own float seed, and the certified sums of
``covers`` from float seeds worked out for a whole block of moduli at once.
A float only ever starts the descent; the floor it stops at is decided in
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import _kernels

DEFAULT_SIEVE_LIMIT = 1 << 24
_MIN_SIEVE_LIMIT = 1 << 16
# sieve entries per comparison when the primes are listed
_PRIME_CHUNK = 1 << 16

# deterministic Miller-Rabin witness set, valid for n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

Rational = Union[int, Fraction]


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for these inputs."""


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition of a positive integer.

    factors is ordered by prime; Factorization(1) has an empty list.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError(f"malformed factor list for {self.value}")
            prod *= p**e
            last = p
        if prod != self.value or self.value < 1:
            raise ValueError(f"factor list does not recompose {self.value}")


class SpfSieve:
    """Smallest-prime-factor table, immutable once built; the listing of
    its primes grows as calls ask for it."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.spf = _kernels.spf_sieve(self.limit)
        self._primes = np.zeros(0, dtype=np.intp)  # the primes up to _listed
        self._listed = 1

    def primes(self, bound: int):
        """The primes p <= min(bound, limit), ascending: the n >= 2 with
        spf[n] = n.  The listing is kept, and grown only when a call asks
        past it: to the bound, or to twice the listed length when that is
        more, so rising bounds grow it at most log2(limit) times.  It
        compares at most _PRIME_CHUNK sieve entries at a time, so a small
        bound on a large sieve lists only the primes it needs, and no array
        of the sieve's length is held besides the sieve itself."""
        bound = min(bound, self.limit)
        if bound > self._listed:
            stop = min(max(bound, 2 * self._listed), self.limit) + 1
            chunks = [self._primes]
            for lo in range(self._listed + 1, stop, _PRIME_CHUNK):
                hi = min(lo + _PRIME_CHUNK, stop)
                chunks.append(np.flatnonzero(self.spf[lo:hi] == np.arange(lo, hi)) + lo)
            self._primes, self._listed = np.concatenate(chunks), stop - 1
        return self._primes[: np.searchsorted(self._primes, bound, side="right")]

    def factor_pairs(self, n: int) -> list[tuple[int, int]]:
        spf = self.spf
        out = []
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out


_sieve: SpfSieve | None = None


def get_sieve(need: int = _MIN_SIEVE_LIMIT) -> SpfSieve:
    """Return the shared sieve, growing it (power-of-two sized) on demand."""
    global _sieve
    if _sieve is None or _sieve.limit < need:
        limit = _MIN_SIEVE_LIMIT
        while limit < need:
            limit <<= 1
        _sieve = SpfSieve(limit)
    return _sieve


def _primes_to_root(n: int) -> list[int]:
    """The primes up to isqrt(n), ascending, as ints, from the shared sieve."""
    root = math.isqrt(n)
    return get_sieve(root).primes(root).tolist()


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (ample for this package)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n; deterministic parameter walk."""
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> Factorization:
    """Factorization of n >= 1; rejects n <= 0. Deterministic.

    The one-n case of ``factor_pairs_over``: n comes from the shared sieve
    when n is at most twice its limit, growing it to n, so calls that climb
    n double the sieve and one call near 2^24 does not build it, unless a
    sieve of 2^23 is already held: that call then pays once to double it.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    return Factorization(n, tuple(factor_pairs_over(n, n)(n)))


def _factor_pairs_beyond_sieve(n: int) -> list[tuple[int, int]]:
    """The (p, k) of n >= 1 by prime: strip the primes of the shared sieve,
    grown to at most min(isqrt(n), 2^20), while p^2 <= the cofactor, then
    split what is left by Miller-Rabin and Brent's rho."""
    root = min(math.isqrt(n), _MIN_SIEVE_LIMIT << 4)
    pairs: dict[int, int] = {}
    rem = n
    for p in map(int, get_sieve(root).primes(root)):
        if p * p > rem:
            break
        while rem % p == 0:
            pairs[p] = pairs.get(p, 0) + 1
            rem //= p
    stack = [rem] if rem > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            pairs[m] = pairs.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return sorted(pairs.items())


def factor_pairs_over(N: int, Q: int):
    """A function q -> the (p, k) of q by prime, for the q in [N, Q]: the
    one choice between the shared sieve and trial division plus rho
    (``_factor_pairs_beyond_sieve``).

    The sieve grows to Q <= DEFAULT_SIEVE_LIMIT when the range holds at
    least isqrt(Q) moduli (a sieve of Q then costs about as much as trial
    division of the range), or when Q is at most twice the sieve's limit
    (_MIN_SIEVE_LIMIT if none), so calls that climb q one at a time double
    it.  Otherwise each q is factored on its own, so one q or a few just
    below the limit do not build a sieve of it.  The doubling clause costs
    once: after ``get_sieve(2^23)``, a short range just above it grows the
    sieve (one banded ``cover_measure`` at 2^24 - 3 then takes about 0.3 s
    instead of 2 ms), to at most twice the one already built.
    """
    limit = _MIN_SIEVE_LIMIT if _sieve is None else _sieve.limit
    if Q <= DEFAULT_SIEVE_LIMIT and (Q <= 2 * limit or Q - N + 1 >= math.isqrt(Q)):
        return get_sieve(Q).factor_pairs
    return _factor_pairs_beyond_sieve


def _as_factorization(f: Union[int, Factorization]) -> Factorization:
    return f if isinstance(f, Factorization) else factorize(f)


def euler_phi(f: Union[int, Factorization]) -> int:
    f = _as_factorization(f)
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def divisor_count(f: Union[int, Factorization]) -> int:
    f = _as_factorization(f)
    return math.prod(e + 1 for _, e in f.factors)


def distinct_prime_count(f: Union[int, Factorization]) -> int:
    return len(_as_factorization(f).factors)


def divisors(f: Union[int, Factorization]) -> list[int]:
    f = _as_factorization(f)
    out = [1]
    for p, e in f.factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# exact handling of rational-exponent powers


def _root_seed(n: int, k: int) -> int:
    """One past the float root of n >> shift, times 2^(shift/k), for n >= 1
    and k >= 3: shift is 0 below 2^1000 (float(n) overflows at 2^1024), else
    the least multiple of k that brings n under 2^1000.  At least 1, so any
    n may start ``_root_descent`` from it."""
    if n.bit_length() <= 1000:
        return int(float(n) ** (1.0 / k)) + 1
    shift = n.bit_length() - 1000
    shift += (-shift) % k
    return (int(float(n >> shift) ** (1.0 / k)) + 1) << (shift // k)


def _root_descent(n: int, k: int, x: int) -> int:
    """floor(n^(1/k)) for n >= 1 and k >= 2, from any seed x >= 1.

    By AM-GM ((k-1) x + n / x^(k-1)) / k >= n^(1/k) for any x >= 1, and
    flooring n / x^(k-1) first does not change the floor of that mean, so
    one Newton step from any seed lands at or above r = floor(n^(1/k)).
    While x^k > n, n // x^(k-1) <= x - 1, so each further step strictly
    decreases x and stays at or above r: the descent stops exactly at r.
    From a seed within a float error of the root that is usually the
    first step (one step from x far below overshoots by about
    (n^(1/k) / x)^(k-1) / k, and the descent from there takes longer).
    """
    x = ((k - 1) * x + n // x ** (k - 1)) // k  # now x >= floor(n^(1/k))
    while (p := x ** (k - 1)) * x > n:
        x = ((k - 1) * x + n // p) // k
    return x


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) in exact integers, n >= 0, k >= 1.

    Degree 2 is ``math.isqrt``; every degree of 3 or more is
    ``_root_descent`` from ``_root_seed``, all 53 bits of the float root
    plus one, which puts the seed above the root or at most a float error
    below it.
    """
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if k == 1 or n == 0:
        return n
    if k == 2:
        return math.isqrt(n)
    return _root_descent(n, k, _root_seed(n, k))


def cmp_frac_qpow(x: Rational, q: int, exponent: Fraction) -> int:
    """Sign of x - q**exponent for x >= 0, q >= 1, rational exponent.

    Decided exactly: x ? q^(u/v) becomes x^v ? q^u in integers.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("cmp_frac_qpow requires x >= 0")
    if q < 1:
        raise ValueError("cmp_frac_qpow requires q >= 1")
    exponent = Fraction(exponent)
    u, v = exponent.numerator, exponent.denominator
    if u >= 0:
        lhs = x.numerator**v
        rhs = x.denominator**v * q**u
    else:
        lhs = x.numerator**v * q**-u
        rhs = x.denominator**v
    return (lhs > rhs) - (lhs < rhs)


def frac_lt_qpow(x: Rational, q: int, exponent: Fraction) -> bool:
    """x < q**exponent, exactly."""
    return cmp_frac_qpow(x, q, exponent) < 0


def root_enclosure(q: int, exponent: Fraction, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo <= q**exponent <= hi, width <= hi * 2^(1-bits).

    Exact (lo == hi) when the exponent is an integer.
    """
    if q < 1:
        raise ValueError("root_enclosure requires q >= 1")
    exponent = Fraction(exponent)
    u, v = exponent.numerator, exponent.denominator
    if v == 1:
        exact = Fraction(q**u) if u >= 0 else Fraction(1, q**-u)
        return exact, exact
    au = abs(u)
    r = iroot(q**au << (v * bits), v)
    lo, hi = Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)
    if u < 0:
        lo, hi = 1 / hi, 1 / lo
    return lo, hi
