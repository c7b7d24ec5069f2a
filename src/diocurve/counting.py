"""Hit scanning for constrained approximations of alpha and the counting
function N(Q) read from its hits.

Every hit predicate is decided in exact integer arithmetic: alpha is an
exact rational (the drivers draw dyadic ones, with enough bits that no
scanned q can produce a boundary tie), and comparisons against q^(u/v)
use the integer power rule.  When tau > d the approximation radius
r = q^(d - tau) is at most 1, and the scan tests only the two integers b
nearest q^d alpha, at the q that a vectorised prefilter (`_survivors`)
keeps: from floor(2^128 alpha), in blocks of q that cross octaves, it
drops each q with q^d < 2^63 whose q^d alpha lies provably too far from
every integer.  One wrapping product per q, with the high word of
floor(2^128 alpha), screens each block first; the two-word product and
the octave test run only on the q that pass it.  Band membership of each
candidate's gcd is two integer comparisons against the band's cuts, taken
at each q with a candidate by ``GcdBand.cuts``: two integer roots at the
sparse q that get that far.

When tau <= d (the wide regime, r >= 1) the block stage ``_wide_hits``
takes, around the centre c0 = floor(q^d alpha), the offsets [1 - R, R]
with R = ceil(r): a proved superset of the admissible b, whose interior
[2 - R, R - 2] is admissible with no test.  Per q, Python works out only
c0 mod q; numpy forms the radii and band cuts per chunk of q, and the
residues and their gcds with q per block of a few thousand candidates.
The band survivors go through a numpy class stage in batches of a few
thousand: one block pass factors a batch's q, and
``residues._solvable_block`` decides the residue class of every survivor,
with --primitive and --omega-max.  Only the class survivors return to
Python, where the three boundary offsets take the exact integer test.

--coprime drops a q once, before the stage is picked.  In the narrow
stage, --omega-max and the residue class read the q's factor pairs, the
class through ``residues._solvable``; the wrappers ``is_power_residue``
and ``is_primitive_power_residue`` serve the API.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .arithmetic import Rational, _primes_to_root, factor_pairs_over, iroot
from .covers import GcdBand, _ceil_qpow, _ceil_qpow_array
from .curve import ConstrainedHit
from .residues import _check, _solvable, _solvable_block


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

    With alpha = an/ad, t = q^d, tau = u/v, c0 = t an // ad and
    rem = t an - c0 ad in [0, ad), a numerator b = c0 + off is admissible
    when D = |rem - off ad| = |t an - b ad| satisfies D^v q^u < (ad t)^v,
    that is when |q^d alpha - b| < r = q^(d - tau).

    When tau > d, only off = 0 and off = 1 can be admissible, and each is
    tested: q^u >= t^v, so every D >= ad fails the test, and off <= -1
    gives D >= rem + ad, off >= 2 gives D > (off - 1) ad >= ad.

    When tau <= d, every q goes through the block stage ``_wide_hits``.
    With R = ceil(r), the least integer R >= 1 with R^v q^u >= t^v, its
    candidates are off in [1 - R, R]:
    * a superset.  An admissible b has D^v q^u < (ad t)^v <= (R ad)^v q^u,
      so D < R ad.  Off >= R + 1 gives D = off ad - rem > (off - 1) ad >=
      R ad, and off <= -R gives D = rem - off ad >= -off ad >= R ad.
    * the interior off in [2 - R, R - 2] is admissible with no test.  By
      the least R, (R - 1)^v q^u < t^v, so every D <= (R - 1) ad passes.
      For 1 <= off <= R - 2, D = off ad - rem <= off ad < (R - 1) ad; for
      2 - R <= off <= 0, D = rem - off ad < (1 - off) ad <= (R - 1) ad.
    So only the offsets {1 - R, R - 1, R} take the test D^v q^u < (ad t)^v.

    Each admissible b is kept when gcd(b, q) lies between the band's cuts
    at q: ``GcdBand.cuts`` at each q with a candidate when tau > d, and
    ``GcdBand.cut_arrays`` per chunk of q when tau <= d.  --coprime drops
    a q here, before either stage, by a gcd in Python (a_d has no bound).
    When tau > d, a q is factorized once, after the band keeps a candidate,
    from ``arithmetic.factor_pairs_over`` on [1, q]; when tau <= d, the
    class stage of ``_wide_hits`` factors batches of q.
    """
    if flags.coprime_to_d_ad:
        dad = d * abs(a_d)
        qs = (q for q in qs if math.gcd(q, dad) == 1)
    if tau <= d:
        return _wide_hits(alpha, d, a_d, tau, band, qs, flags)
    an, ad = alpha.numerator, alpha.denominator
    u, v = tau.numerator, tau.denominator
    hits: list[ConstrainedHit] = []
    for q in qs:
        t = q**d
        num = t * an
        rhs = (ad * t) ** v
        qu = q**u
        b0, rem = divmod(num, ad)
        candidates = [b for b, dist in ((b0, rem), (b0 + 1, ad - rem)) if dist**v * qu < rhs]
        if not candidates:
            continue
        lo, hi = band.cuts(q)
        # gcd(0, q) = q by convention
        kept = [(b, g) for b in candidates if lo <= (g := math.gcd(b, q)) < hi]
        if not kept:
            continue
        # a scan starts at q = 1, which the prefilter and --coprime keep
        pairs = factor_pairs_over(1, q)(q)
        if flags.omega_max is not None and len(pairs) > flags.omega_max:
            continue
        for b, g in kept:
            if _solvable(b % q, pairs, d, a_d, flags.primitive_only):
                hits.append(ConstrainedHit(q, b, Fraction(abs(num - b * ad), ad * t), g))
    return hits


# candidates per block of the wide stage, so its int64 arrays stay a few
# hundred kB however wide a window is
_WIDE_BLOCK = 1 << 13
# the radius R of the wide stage stays below this (2^50), so that the
# windows of a chunk of _WIDE_BLOCK // 2 q sum to less than 2^63
_WIDE_LIMIT = (1 << 62) // (_WIDE_BLOCK // 2)
# Band survivors per class batch of the wide stage.  Chosen from a sweep of
# perfbench scan-wide (three 12 s runs per size, seeds 801-803, 2-vCPU box),
# ranges over the runs:
#
#     batch   wall_s (ms)   peak_rss_mb
#       256   63.9-67.8     35.41-35.44
#       512   56.7-62.3     35.43-35.44
#      1024   53.7-55.4     35.42-35.45
#      2048   50.0-52.8     35.44-35.45
#      4096   49.0-53.4     36.27-36.38
#
# Past 2048 the time stops falling and the peak RSS rises by about 0.9 MB.
_CLASS_BATCH = 1 << 11


def _wide_hits(
    alpha: Fraction,
    d: int,
    a_d: int,
    tau: Fraction,
    band: GcdBand,
    qs: Iterable[int],
    flags: HitFlags,
) -> list[ConstrainedHit]:
    """The hits at the moduli qs (increasing) for tau <= d, where the
    radius r = q^(d - tau) is at least 1.

    The q come in chunks of _WIDE_BLOCK // 2, whose windows of at least 2
    candidates each fill a block.  Per q, Python works out only c0 mod q,
    from the exact centre c0 = floor(q^d alpha); R = ceil(r) and the band
    cuts come per chunk from ``_ceil_qpow_array``.  ``_window_blocks`` cuts
    the windows of offsets [1 - R, R] around c0 (proofs at ``_exact_hits``)
    into blocks of at most _WIDE_BLOCK candidates, where numpy forms (c0 mod
    q + off) mod q, its gcd with q and the band test.  The survivors wait in
    batches of _CLASS_BATCH, across q, blocks and chunks, for the class
    stage: ``_kernels.factor_pairs_block`` factors the batch's q in block
    passes, with the primes up to the root of its last q, and
    ``residues._solvable_block`` decides the residue class (a unit class for
    --primitive) of every survivor, while --omega-max counts the rows of
    each survivor's q.  Only the class survivors return to Python, where the
    boundary offsets {1 - R, R - 1, R} take the exact test
    D^v q^u < (ad t)^v.  No q is factorized alone, so the shared sieve
    grows at most to the batches' roots.  ``find_hits`` refuses a q above
    ``_kernels.POWMOD_QMAX`` and an R at or above _WIDE_LIMIT = 2^50, so
    the summed windows of a chunk, and every value the arrays hold, stay
    below 2^63 in absolute value, and the class stage's products of two
    residues fit int64.
    """
    an, ad = alpha.numerator, alpha.denominator
    u, v = tau.numerator, tau.denominator
    hits: list[ConstrainedHit] = []
    # band survivors not yet through the class stage: (q, offset, residue,
    # gcd, 1 at a boundary offset)
    held = np.empty((0, 5), dtype=np.int64)

    def class_stage(least: int) -> None:
        """Put the held survivors through the class stage, _CLASS_BATCH at a
        time, while at least `least` of them are held."""
        nonlocal held
        while len(held) >= least:
            batch, held = held[:_CLASS_BATCH], held[_CLASS_BATCH:]
            q = batch[:, 0]
            pairs = _kernels.factor_pairs_block(q, _primes_to_root(int(q[-1])))
            keep = _solvable_block(batch[:, 2], pairs, d, a_d, flags.primitive_only)
            if flags.omega_max is not None:
                keep &= np.bincount(pairs[0], minlength=len(q)) <= flags.omega_max
            for qi, o, _, gi, edge in batch[keep].tolist():
                t = qi**d
                c0, rem = divmod(t * an, ad)
                dist = abs(rem - o * ad)
                if edge and dist**v * qi**u >= (ad * t) ** v:
                    continue
                hits.append(ConstrainedHit(qi, c0 + o, Fraction(dist, ad * t), gi))

    def band_stage(seg: np.ndarray, off: np.ndarray) -> np.ndarray:
        """One block's band survivors, as rows of held.  Called through
        starmap, so the caller holds no block array in the class stage."""
        qq, R = q[seg], radius[seg]
        res = (c0_mod[seg] + off) % qq
        g = np.gcd(res, qq)
        keep = (g >= lo[seg]) & (g < hi[seg])
        edge = (off <= 1 - R) | (off >= R - 1)
        return np.stack([col[keep] for col in (qq, off, res, g, edge)], axis=1)

    qs = iter(qs)
    while len(q := np.fromiter(itertools.islice(qs, _WIDE_BLOCK // 2), np.int64)):
        c0_mod = np.array([p**d * an // ad % p for p in q.tolist()], dtype=np.int64)
        radius = _ceil_qpow_array(q, d - tau)
        lo, hi = band.cut_arrays(q)
        for kept in itertools.starmap(band_stage, _window_blocks(radius)):
            held = np.concatenate((held, kept))
            class_stage(_CLASS_BATCH)
    class_stage(1)
    return hits


def _window_blocks(radius: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The windows of offsets [1 - R, R] of a radius array, R < _WIDE_LIMIT,
    in blocks of at most _WIDE_BLOCK candidates: per block, each candidate's
    entry and offset.  Window i ends at the cumulative length ends[i], below
    2^63 for a chunk of _WIDE_BLOCK // 2 radii; a block [s, e) holds windows
    a to b, found by ``np.searchsorted`` and laid out by ``np.repeat``, and
    candidate j of window i has offset j - (ends[i] - R - 1)."""
    ends = np.cumsum(2 * radius)
    base, total = ends - radius - 1, int(ends[-1])
    for s in range(0, total, _WIDE_BLOCK):
        e = min(s + _WIDE_BLOCK, total)
        a, b = np.searchsorted(ends, (s, e - 1), side="right")
        i = np.repeat(np.arange(a, b + 1), np.diff(np.minimum(ends[a : b + 1], e), prepend=s))
        yield i, np.arange(s, e) - base[i]


# q per prefilter block, so the prefilter's arrays stay a few hundred kB
# whatever qmax is
_PREFILTER_BLOCK = 4096
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _survivors(alpha: Fraction, d: int, tau: Fraction, qmax: int) -> Iterator[int]:
    """Increasing q <= qmax: a superset of the q with an integer b such that
    |q^d alpha - b| < q^(d - tau), for alpha = n/m in [0, 1] and tau > d.
    Each q with q^d >= 2^63 is kept untested; the proof covers the rest.

    Proof of the superset property.  Let t = q^d < 2^63, count in units of
    2^-64, and let ||x|| = min(x mod 2^64, 2^64 - x mod 2^64) be the
    distance from x to the nearest multiple of 2^64; it is 1-Lipschitz.  A
    candidate b exists at q exactly when D = ||2^64 t alpha|| < 2^64 q^(d-tau).

    * Truncating alpha to 128 bits.  A = floor(2^128 alpha) = n 2^128 // m
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
    and that is the keep test, each q of a block of _PREFILTER_BLOCK q
    against the bound of its own octave.

    * The screen.  F = coarse + mulhi(t, L) (mod 2^64) with coarse = t H
      mod 2^64 and 0 <= mulhi(t, L) <= t - 1, so a q that the keep test
      keeps has ||coarse|| <= ||F|| + t - 1 < T_k + 2 + t - 1.  T_k falls
      as k rises and t rises with q, so for a block [start, stop) the bound
      of the octave of start plus (stop - 1)^d - 1, capped at 2^64 - 1,
      holds at each of its q.  Only the q with ||coarse|| below it take
      the limb product and the keep test, which leaves the survivors as
      they were.

    Both tests compare integers.  The octave k of a kept q is the exponent
    of q from frexp, less 1: exact, since q < 2^32 converts to float64
    exactly.
    """
    top = min(qmax, iroot((1 << 63) - 1, d))
    a = (alpha.numerator << 128) // alpha.denominator  # A = floor(2^128 alpha)
    hi = np.uint64(a >> 64 & _MASK64)  # H of A mod 2^128 (alpha = 1 gives 0)
    lo1 = np.uint64(a >> 32 & _MASK32)  # L = lo1 2^32 + lo0
    lo0 = np.uint64(a & _MASK32)
    u, v = tau.numerator, tau.denominator
    exps = [64 * v + k * (d * v - u) for k in range(top.bit_length())]
    t_k = [iroot(1 << e, v) + 1 if e >= 0 else 1 for e in exps]
    # ||F|| <= 2^63, so a bound past 2^64 - 1 keeps the whole octave
    keep_below = np.array([min(t + 2, _MASK64) for t in t_k], dtype=np.uint64)
    for start in range(1, top + 1, _PREFILTER_BLOCK):
        stop = min(start + _PREFILTER_BLOCK, top + 1)
        t = np.arange(start, stop, dtype=np.uint64) ** d
        coarse = t * hi  # wraps mod 2^64
        screen = min(int(keep_below[start.bit_length() - 1]) + (stop - 1) ** d - 1, _MASK64)
        i = np.flatnonzero(np.minimum(coarse, -coarse) < np.uint64(screen))
        if not i.size:
            continue
        t, coarse = t[i], coarse[i]
        t1, t0 = t >> 32, t & _MASK32
        p00, p01, p10 = t0 * lo0, t0 * lo1, t1 * lo0
        mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        mulhi = t1 * lo1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        frac = coarse + mulhi
        q = i + start
        bound = keep_below[np.frexp(q)[1] - 1]
        yield from q[np.minimum(frac, -frac) < bound].tolist()
    yield from range(top + 1, qmax + 1)


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

    For tau > d, only the q kept by the prefilter `_survivors`, a superset
    of those that hit, are scanned: the result is the exact scan's.
    For tau <= d the block stage holds q and its window offsets in int64,
    and its class stage multiplies two residues mod p^j <= q, so a scan
    whose qmax exceeds ``_kernels.POWMOD_QMAX`` (about 3.0e9, the largest q
    with q^2 < 2^63) or whose radius ceil(qmax^(d - tau)) reaches 2^50 is
    refused before any allocation.  Such a scan could never finish: the
    first starts at q = 1 with at least two candidates per q, so it would
    take more than 3e9 passes of the per-q loop, and the second has at
    least 2^51 candidates at its last q alone.
    """
    value = Fraction(alpha)
    if not 0 <= value <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {value}")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    _check(qmax, d, a_d)
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if tau <= d and (qmax > _kernels.POWMOD_QMAX or _ceil_qpow(qmax, d - tau) >= _WIDE_LIMIT):
        raise ValueError(
            f"tau <= d keeps q <= {_kernels.POWMOD_QMAX} and ceil(q^(d - tau)) "
            f"below 2^50 (int64), got qmax = {qmax} at tau = {tau}, d = {d}"
        )
    qs = _survivors(value, d, tau, qmax) if tau > d else range(1, qmax + 1)
    return _exact_hits(value, d, a_d, tau, band, qs, flags)


def count_curve(
    hits: Iterable[ConstrainedHit], schedule: Sequence[int], d: int
) -> tuple[tuple[int, int], ...]:
    """Samples (Q, N(Q)) of the counting function along a Q schedule, read
    from the hits of one scan: N(Q) is the number of distinct hit moduli
    q <= iroot(Q, d), that is with q^d <= Q."""
    qs = sorted({h.q for h in hits})
    return tuple((Q, bisect.bisect_right(qs, iroot(Q, d))) for Q in schedule)
