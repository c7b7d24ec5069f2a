"""Hit scanning for constrained approximations of alpha and the counting
function N(Q) read from its hits.

Every hit predicate is decided in exact integer arithmetic: alpha is an
exact rational (dyadic when randomly drawn, with enough bits that no
scanned q can produce a boundary tie), and comparisons against q^(u/v)
use the integer power rule.  The scan tests only the one or two integers
b nearest q^d alpha whenever the approximation radius is below 1/2.
Otherwise (q = 1, or tau <= d) one integer root gives the exact window of
admissible b.  Band membership of each candidate's gcd is two integer
comparisons against the band's cuts, walked along the q with a candidate
(``GcdBand.cut_walk``): consecutive q step a cut by at most 1, and only a
sparse q takes an integer root to seed it again.

In the narrow regime tau > d, when alpha's denominator is a power of two
and qmax^d < 2^63, a vectorised prefilter (`_dyadic_survivors`) first
discards the q whose q^d alpha lies provably too far from every integer;
the exact scan then runs on the survivors only.  Every other input is
scanned exactly at every q.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .arithmetic import Rational, factorize, iroot
from .covers import GcdBand
from .curve import ConstrainedHit
from .residues import is_power_residue, is_primitive_power_residue


MIN_ALPHA_BITS = 128


def dyadic_alphas(seed: int, bits: int, count: int) -> list[Fraction]:
    """count alphas, each an odd numerator over 2^bits, drawn in order from
    one stream seeded by seed, so entry i is the same for every count > i."""
    rng = random.Random(seed)
    return [Fraction(rng.getrandbits(bits) | 1, 1 << bits) for _ in range(count)]


def required_alpha_bits(d: int, tau: Fraction, qmax: int) -> int:
    """Enough dyadic bits that every scan predicate up to qmax is tie-free,
    and never fewer than MIN_ALPHA_BITS."""
    est = math.ceil(float(d + tau) * math.log2(max(qmax, 2))) + 16
    return max(MIN_ALPHA_BITS, est)


@dataclass(frozen=True)
class HitFlags:
    """Optional hit filters: unit-class numerators, gcd(q, d*a_d) = 1,
    and a cap on the number of distinct prime factors of q."""

    primitive_only: bool = False
    coprime_to_d_ad: bool = False
    omega_max: Optional[int] = None

    def __post_init__(self):
        if self.omega_max is not None and self.omega_max < 0:
            raise ValueError(f"omega_max must be >= 0, got {self.omega_max}")

    def describe(self) -> str:
        parts = []
        if self.primitive_only:
            parts.append("primitive")
        if self.coprime_to_d_ad:
            parts.append("coprime")
        if self.omega_max is not None:
            parts.append(f"omega<={self.omega_max}")
        return "|".join(parts) if parts else "none"


def _exact_hits(
    alpha: Fraction,
    d: int,
    a_d: int,
    tau: Fraction,
    band: GcdBand,
    qs: Iterable[int],
    flags: HitFlags,
) -> list[ConstrainedHit]:
    """All hits at the moduli qs (increasing), each decided exactly.

    With alpha = an/ad, t = q^d and tau = u/v, a numerator b is admissible
    when D = |t an - b ad| satisfies D^v qu < rhs, where qu = q^max(u, 0)
    and rhs = (ad t)^v q^max(-u, 0).  Below radius 1/2 only the two b
    nearest t alpha can be admissible, and each is tested.  Otherwise (the
    wide regime: q = 1, or tau <= d) the admissible b form one window.
    dmax = iroot((rhs - 1) // qu, v) is the largest integer D with
    D^v qu < rhs, because D^v qu < rhs <=> D^v qu <= rhs - 1 <=>
    D^v <= (rhs - 1) // qu.  So b is admissible exactly when
    t an - dmax <= b ad <= t an + dmax, that is when b lies in
    [ceil((t an - dmax) / ad), floor((t an + dmax) / ad)].

    Each admissible b is kept when gcd(b, q) lies between the band's cuts
    at q, walked by ``GcdBand.cut_walk`` over the q with a candidate; FULL's
    cuts admit every gcd.
    """
    an, ad = alpha.numerator, alpha.denominator
    u, v = tau.numerator, tau.denominator
    residue_test = is_primitive_power_residue if flags.primitive_only else is_power_residue
    cuts_at = band.cut_walk()  # called only at the q with a candidate
    hits: list[ConstrainedHit] = []
    for q in qs:
        # a gcd costs less than the window and drops q before it; factorize
        # costs more, so it runs only at the few q with a candidate
        if flags.coprime_to_d_ad and math.gcd(q, d * abs(a_d)) != 1:
            continue
        t = q**d
        num = t * an
        rhs = (ad * t) ** v * q ** max(0, -u)
        qu = q ** max(0, u)
        # radius >= 1/2 can admit more than b0 and b0 + 1; decided exactly:
        # q^(d - tau) >= 1/2  <=>  2^v q^(dv - u) >= 1
        if d * v >= u or 2**v >= q ** (u - d * v):
            dmax = iroot((rhs - 1) // qu, v)
            candidates = range(-((dmax - num) // ad), (num + dmax) // ad + 1)
        else:
            b0, rem = divmod(num, ad)
            candidates = [
                b for b, dist in ((b0, rem), (b0 + 1, ad - rem)) if dist**v * qu < rhs
            ]
        if not candidates:
            continue
        if flags.omega_max is not None and len(factorize(q).factors) > flags.omega_max:
            continue
        lo, hi = cuts_at(q)
        for b in candidates:
            g = math.gcd(b, q)  # gcd(0, q) = q by convention
            if not lo <= g < hi:
                continue
            if not residue_test(b % q, q, d, a_d):
                continue
            hits.append(ConstrainedHit(q, b, Fraction(abs(num - b * ad), ad * t), g))
    return hits


# q per prefilter block, so the prefilter's arrays stay a few hundred kB
# whatever qmax is
_PREFILTER_BLOCK = 4096
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _dyadic_survivors(alpha: Fraction, d: int, tau: Fraction, qmax: int) -> Iterator[int]:
    """Increasing q <= qmax: a superset of the q with an integer b such that
    |q^d alpha - b| < q^(d - tau), for alpha = n/2^m in [0, 1], tau > d and
    qmax^d < 2^63.

    Proof of the superset property.  Let t = q^d < 2^63, count in units of
    2^-64, and let ||x|| = min(x mod 2^64, 2^64 - x mod 2^64) be the
    distance from x to the nearest multiple of 2^64; it is 1-Lipschitz.  A
    candidate b exists at q exactly when D = ||2^64 t alpha|| < 2^64 q^(d-tau).

    * Truncating alpha to 128 bits.  A = floor(2^128 alpha) = n 2^128 >> m
      gives 2^128 alpha = A + delta with 0 <= delta < 1, so
      2^64 t alpha = t A / 2^64 + t delta / 2^64, and the last term lies in
      [0, t 2^-64), within [0, 1/2): below 1 unit.
    * The wrap at alpha = 1.  There A = 2^128, which is taken mod 2^128 as
      0.  Adding 2^128 to A adds t 2^64 to t A / 2^64, a multiple of 2^64,
      so ||.|| does not change.  The same holds for every A mod 2^128.
    * The floor in mulhi.  Write A mod 2^128 = H 2^64 + L with H, L < 2^64.
      Then t A / 2^64 = t H + mulhi(t, L) + phi, where
      mulhi(t, L) = floor(t L / 2^64) is exact from 32-bit limbs and
      0 <= phi < 1: below 1 unit.
    * So F = (t H + mulhi(t, L)) mod 2^64, computed in wrapping uint64,
      satisfies 2^64 t alpha = F + eps (mod 2^64) with 0 <= eps < 2, and
      ||F|| <= D + eps < D + 2.  Slack 2 is the sum of the two
      below-1-unit terms.
    * The octave bound.  For q in [2^k, 2^(k+1)), tau = u/v > d gives
      q^(d-tau) <= 2^(k(d-tau)), so 2^64 q^(d-tau) <= 2^(E/v) with
      E = 64v + k(dv - u).  T_k = iroot(2^E, v) + 1 > 2^(E/v) for E >= 0,
      and T_k = 1 > 2^(E/v) for E < 0.

    A candidate at q therefore gives ||F|| < T_k + 2, both sides integers,
    and that is the keep test.  No float enters it.
    """
    m = alpha.denominator.bit_length() - 1
    a = alpha.numerator << 128 >> m  # A = floor(2^128 alpha)
    hi = np.uint64(a >> 64 & _MASK64)  # H of A mod 2^128 (alpha = 1 gives 0)
    lo1 = np.uint64(a >> 32 & _MASK32)  # L = lo1 2^32 + lo0
    lo0 = np.uint64(a & _MASK32)
    u, v = tau.numerator, tau.denominator
    for k in range(qmax.bit_length()):
        e = 64 * v + k * (d * v - u)
        bound = iroot(1 << e, v) + 1 if e >= 0 else 1
        # ||F|| <= 2^63, so a bound past 2^64 - 1 keeps the whole octave
        keep_below = np.uint64(min(bound + 2, _MASK64))
        top = min(2 << k, qmax + 1)
        for start in range(1 << k, top, _PREFILTER_BLOCK):
            q = np.arange(start, min(start + _PREFILTER_BLOCK, top), dtype=np.uint64)
            t = q**d
            t1, t0 = t >> 32, t & _MASK32
            p00, p01, p10 = t0 * lo0, t0 * lo1, t1 * lo0
            mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
            mulhi = t1 * lo1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
            frac = t * hi + mulhi  # wraps mod 2^64
            yield from q[np.minimum(frac, -frac) < keep_below].tolist()


def find_hits(
    alpha: Rational,
    d: int,
    a_d: int,
    tau: Rational,
    band: GcdBand,
    qmax: int,
    flags: HitFlags = HitFlags(),
) -> list[ConstrainedHit]:
    """All (q, b) with q <= qmax, |alpha - b/q^d| < q^-tau, b in the scaled
    residue class set, gcd(b, q) in the band, and all flags satisfied, in
    increasing (q, b).  alpha is any rational in [0, 1].  tau must be
    positive: at tau <= 0 the window holds about 2 q^(d - tau) numerators
    per q.

    For a dyadic alpha with tau > d and qmax^d < 2^63, only the survivors of
    the prefilter `_dyadic_survivors` are scanned; it keeps every q that can
    hit, so the result is that of the exact scan over every q <= qmax.
    """
    value = Fraction(alpha)
    if not 0 <= value <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {value}")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    if a_d == 0:
        raise ValueError("a_d must be nonzero")
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    ad = value.denominator
    if ad & (ad - 1) == 0 and tau > d and qmax**d < 1 << 63:
        qs: Iterable[int] = _dyadic_survivors(value, d, tau, qmax)
    else:
        qs = range(1, qmax + 1)
    return _exact_hits(value, d, a_d, tau, band, qs, flags)


def count_curve(
    hits: Iterable[ConstrainedHit], schedule: Sequence[int], d: int
) -> tuple[tuple[int, int], ...]:
    """Samples (Q, N(Q)) of the counting function along a Q schedule, read
    from the hits of one scan: N(Q) is the number of distinct hit moduli
    q <= iroot(Q, d), that is with q^d <= Q."""
    qs = sorted({h.q for h in hits})
    return tuple((Q, bisect.bisect_right(qs, iroot(Q, d))) for Q in schedule)
