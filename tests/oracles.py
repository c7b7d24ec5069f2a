"""Brute-force enumeration oracles for the closed-form residue counts,
factor pairs and omega by trial division, outward rounding of numerator /
q^(u/v) with roots found by bisection (split at the integer part of u/v,
as the sums round, and unsplit), the exact union measure of one cover
layer, the truncated Euler product of the omega series, gcd-band
membership by two power comparisons, the per-q banded center count, and
the hit scan one q at a time with one integer root per wide window.

Test-side only: no library code calls these.  The residue oracles
enumerate every m modulo q with the numpy kernels, so they are exact for
every modulus the tests use.
"""

import math
from fractions import Fraction

import numpy as np

from diocurve._kernels import _powmod, residue_set
from diocurve.arithmetic import Rational, cmp_frac_qpow, factorize, get_sieve, iroot
from diocurve.covers import _ceil_qpow
from diocurve.curve import ConstrainedHit
from diocurve.residues import (
    _check,
    _valuation_counts,
    is_power_residue,
    is_primitive_power_residue,
    power_residues,
)


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


def trial_division(n: int) -> list[tuple[int, int]]:
    """The (p, k) of n >= 1 by prime, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


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


def floor_root(target: int, v: int) -> int:
    """floor(target^(1/v)) for target >= 1, v >= 1, by integer bisection
    on r^v <= target."""
    size = target.bit_length()
    lo, hi = 1 << ((size - 1) // v), 1 << (size // v + 1)  # lo^v <= target < hi^v
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**v <= target:
            lo = mid
        else:
            hi = mid
    return lo


def ratio_with_root_bounds(numerator: int, q: int, u: int, v: int, bits: int) -> tuple[int, int]:
    """(lo, hi) integers bounding numerator * 2^bits / q^(u/v), rounded as
    the fixed-point sums round it.

    Split u/v = k + w/v with 0 <= w < v.  w = 0: floor and ceiling of
    numerator * 2^bits / q^k.  w > 0: with R = floor(2^bits q^(w/v)) by
    ``floor_root``, lo = floor(numerator 2^(2 bits) / (q^k (R + 1))) and
    hi = ceil(numerator 2^(2 bits) / (q^k R)).
    """
    k, w = divmod(u, v)
    if w == 0:
        num, den = numerator << bits, q**k
        return num // den, -(-num // den)
    R = floor_root(q**w << (bits * v), v)
    num = numerator << (2 * bits)
    return num // (q**k * (R + 1)), -(-num // (q**k * R))


def unsplit_ratio_bounds(numerator: int, q: int, u: int, v: int, bits: int) -> tuple[int, int]:
    """The tighter rounding against one root of the whole power: v = 1 as
    in ``ratio_with_root_bounds``; v >= 2 with r = floor(2^bits q^(u/v)),
    lo = floor(numerator 2^(2 bits) / (r + 1)) and hi = ceil(numerator
    2^(2 bits) / r).  Every ``ratio_with_root_bounds`` interval contains
    this one."""
    if v == 1:
        return ratio_with_root_bounds(numerator, q, u, v, bits)
    r = floor_root(q**u << (bits * v), v)
    num = numerator << (2 * bits)
    return num // (r + 1), -(-num // r)


def exact_union_measure(
    q: int, tau: int, d: int, a_d: int
) -> tuple[Fraction, bool]:
    """True Lebesgue measure of the union of intervals of radius q^-tau
    around the admissible centers b/q^d, plus an overlap flag.

    Integer tau only (the merge runs over a common denominator q^tau).
    Unlike the formula path this validator accepts tau <= d, where
    overlapping intervals actually occur; for integer tau > d adjacent
    centers are at least q^-d apart and never overlap.
    """
    if not isinstance(tau, int) or tau < 1:
        raise ValueError("exact_union_measure requires integer tau >= 1")
    residues = power_residues(q, d, a_d).elements
    scale = q ** (tau - d)  # center spacing unit in the q^-tau grid
    radius = 1  # one unit of q^-tau... scaled below
    # positions of centers in units of q^-tau: (b + j q) * q^(tau - d)
    starts = []
    for j in range(q ** (d - 1)):
        base = j * q
        for b in residues:
            starts.append((base + b) * scale)
    starts.sort()
    total = 0
    overlap = False
    cur_lo = cur_hi = None
    for c in starts:
        lo, hi = c - radius, c + radius
        if cur_hi is None:
            cur_lo, cur_hi = lo, hi
        elif lo <= cur_hi:
            # touching open intervals only share an endpoint: same measure,
            # no overlap; anything closer genuinely overlaps
            if lo < cur_hi:
                overlap = True
            cur_hi = max(cur_hi, hi)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return Fraction(total, q**tau), overlap


def euler_product_partial(z: Rational, s: int, n: int, prime_limit: int) -> Fraction:
    """Truncated Euler product prod_{pi coprime to n, pi <= limit}
    (1 + z / (pi^s - 1)); integer s only.  Cross-check for the series at s=2."""
    z = Fraction(z)
    out = Fraction(1)
    for p in map(int, get_sieve(prime_limit).primes(prime_limit)):
        if n % p == 0:
            continue
        out *= 1 + z / (p**s - 1)
    return out


def band_contains_by_powers(band, g: int, q: int) -> bool:
    """q^eps <= g < q^(eps + delta), each side by one cmp_frac_qpow test
    rather than by the band's integer cuts."""
    return (
        cmp_frac_qpow(g, q, band.eps) >= 0
        and cmp_frac_qpow(g, q, band.eps + band.delta) < 0
    )


def banded_center_count_per_q(q: int, band, d: int, a_d: int) -> int:
    """#{b in a_d G_d(q) : gcd(b, q) in the band} at one q, on its own:
    factorize q, expand the divisors g with their counts prod N_p(v_p(g))
    from ``_valuation_counts``, and keep the g between the two cuts, each
    taken by one ``_ceil_qpow`` root."""
    _check(q, d, a_d)
    terms = [(1, 1)]  # (divisor g of the primes so far, count for that g)
    for p, k in factorize(q).factors:
        counts = _valuation_counts(p, k, d, a_d)
        terms = [(g * p**s, t * n) for g, t in terms for s, n in enumerate(counts) if n]
    if band.is_full:
        lo, hi = 1, q + 1
    else:
        lo, hi = _ceil_qpow(q, band.eps), _ceil_qpow(q, band.eps + band.delta)
    return sum(t for g, t in terms if lo <= g < hi)


def per_q_window_hits(alpha: Fraction, d: int, a_d: int, tau: Fraction, band, qs, flags):
    """The hits at the moduli qs (increasing), one q at a time, each window
    taken by one integer root.

    With alpha = an/ad, t = q^d and tau = u/v, b is admissible when
    D = |t an - b ad| satisfies D^v q^u < (ad t)^v.  Below radius 1/2 the
    two b nearest t alpha are tested.  Otherwise dmax = iroot(((ad t)^v -
    1) // q^u, v) is the largest D that passes, and the window is every b
    with t an - dmax <= b ad <= t an + dmax.  Each b is then kept when
    gcd(b, q) lies between the band's cuts and b mod q passes
    ``is_power_residue`` (``is_primitive_power_residue`` for unit-class
    numerators).
    """
    an, ad = alpha.numerator, alpha.denominator
    u, v = tau.numerator, tau.denominator
    residue_test = is_primitive_power_residue if flags.primitive_only else is_power_residue
    hits = []
    for q in qs:
        if flags.coprime_to_d_ad and math.gcd(q, d * abs(a_d)) != 1:
            continue
        t = q**d
        num = t * an
        rhs = (ad * t) ** v
        qu = q**u
        # radius >= 1/2  <=>  2^v q^(dv - u) >= 1
        if d * v >= u or 2**v >= q ** (u - d * v):
            dmax = iroot((rhs - 1) // qu, v)
            candidates = range(-((dmax - num) // ad), (num + dmax) // ad + 1)
        else:
            b0, rem = divmod(num, ad)
            candidates = [b for b, dist in ((b0, rem), (b0 + 1, ad - rem)) if dist**v * qu < rhs]
        if not candidates:
            continue
        if flags.omega_max is not None and len(factorize(q).factors) > flags.omega_max:
            continue
        lo, hi = band.cuts(q)
        for b in candidates:
            g = math.gcd(b, q)
            if lo <= g < hi and residue_test(b % q, q, d, a_d):
                hits.append(ConstrainedHit(q, b, Fraction(abs(num - b * ad), ad * t), g))
    return hits
