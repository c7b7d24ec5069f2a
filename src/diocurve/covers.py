"""Cover measures for the limsup interval families, gcd-banded center
counts, certified tail sums, and the omega-weighted restricted series.

Every count here is a product over the prime powers p^k || q of
``residues._valuation_counts``, the number of residues a_d G_d(p^k) of
each p-valuation.  Banded center counts keep, at every q, the divisors
gcd(b, q) in the band.  One function, ``center_counts``, supplies them
to cover measures and tail sums alike, and makes the one choice between
two ways of counting a range of q.  Any band over at least TABLE_MIN
moduli with Q < 2^48 reads a sieve-built count table, one numpy block of
at most 2^16 moduli at a time, instead of factorizing each q: the full
band as r_d(q / gcd(q, a_d)), other bands by expanding each q's divisor
terms in numpy.  Every other range takes the per-q rule: each q is
factorized once, its divisor terms are expanded from the valuation
counts, and those between the band's two cuts ``GcdBand.cuts(q)`` are
summed.  Enumeration checks both in the test suite.  The omega-weighted
series walks the table's blocks and takes omega(q) from the same
per-prime slice pass (``_kernels.prime_exponents``).  The exact union
measure of a layer, the truncated Euler product and the divisor-sum
upper bound on banded counts, which validate the formula measure, the
series and the counts, live with the test oracles.

Sums over large q-ranges accumulate in fixed point: each term contributes
exact integer lower/upper bounds at scale 2^-S, so the reported interval
certifiably contains the true sum while denominators stay bounded (exact
rational accumulation would blow up on ranges like q <= 2^16).  Tail sums
round term by term, each layer measure 2 count(q) q^(d-1) / q^tau as 2
count(q) / q^(tau-d+1), and the tail sums of several taus share one count
pass per block (``tail_sums``).  Each term numerator / q^(k + w/v), 0 <= w
< v, is rounded against q^k times R = floor(2^bits q^(w/v)), a root of q^w
alone: its interval contains the one that the root of the whole power
q^(k v + w) would give (proof at ``IntervalSum``).  One loop rounds every
term (``_add_terms``): the taus of one w/v go through it together, up to
ROOT_CHUNK moduli at a time, and share its roots (float seeds, each
settled by the exact integer descent of ``iroot``) and one big division
per term; ``IntervalSum.add_ratios`` is its one-tau case.  The omega
series rounds blocks of H consecutive moduli at once
(``IntervalSum.add_consecutive``): a Taylor expansion of q^-s around the
block's first modulus q0, with a remainder of known sign, needs one root
of q0 and two divisions per block.  H grows with q0, 32 below 2^14, 64
below 2^15 and 128 from there, while the block's numerators stay small
enough for exact int64 moments at that H.
A block goes term by term instead when its numerators are too large for
exact int64 moments even at 32, or its Taylor interval is wider than 2
units of 2^-bits per term.  Tail sums keep term-by-term rounding: at the
default 96 bits no tail-sum block passes that width rule below q of about
2^17, far past the ranges the threshold experiment sums.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _kernels
from .arithmetic import (
    DEFAULT_SIEVE_LIMIT,
    Rational,
    _primes_to_root,
    _root_descent,
    _root_seed,
    factor_pairs_over,
    factorize,
    iroot,
    root_enclosure,
)
from .residues import _check, _valuation_counts

SUM_BITS = 96


def _ceil_qpow(q: int, x: Fraction) -> int:
    """ceil(q^x) for q >= 1 and x >= 0: one integer root and an exactness
    check."""
    n, v = q**x.numerator, x.denominator
    r = iroot(n, v)
    return r if r**v == n else r + 1


def _ceil_qpow_array(q: np.ndarray, x: Fraction) -> np.ndarray:
    """ceil(q^x) at every entry of a nondecreasing array q >= 1, for any x
    >= 0, in q's dtype: int64 when ceil(q[-1]^x) < 2^63, object (Python
    ints) for any q.  One integer root at each end of q (one when both ends
    hold the same q) and one per step of ceil(q^x) between them, or one per
    entry when there are more steps than entries.

    With x = num/den, an integer q has q^x > c exactly when q^num > c^den,
    that is when q > s_c = iroot(c^den, num).  So with ca and cb the values
    at the ends, ceil(q^x) = ca + #{c in [ca, cb) : s_c < q} for every q in
    between: each c < ca lies below q^x, and no c >= cb does.  The s_c
    ascend and lie below q[-1], so one ``np.searchsorted`` counts them in
    q's dtype.  For x <= 1, (q + 1)^x <= q^x + 1 (t -> t^x is subadditive),
    so over consecutive q there are fewer steps than entries; for x > 1
    most arrays take the per-entry roots.
    """
    num, den = x.numerator, x.denominator
    ca = _ceil_qpow(int(q[0]), x)
    cb = ca if q[-1] == q[0] else _ceil_qpow(int(q[-1]), x)
    if cb - ca > len(q):
        return np.array([_ceil_qpow(n, x) for n in q.tolist()], dtype=q.dtype)
    steps = np.array([iroot(c**den, num) for c in range(ca, cb)], dtype=q.dtype)
    return ca + np.searchsorted(steps, q, side="left").astype(q.dtype, copy=False)


@dataclass(frozen=True)
class GcdBand:
    """The constraint q^eps <= gcd(b, q) < q^(eps+delta), or FULL (none).

    The exponents are rationals in [0, 1] with eps + delta <= 1.  Band
    membership is decided in integers through the cuts of ``cuts(q)``:
    for an integer g, q^eps <= g < q^(eps+delta) holds exactly when
    ceil(q^eps) <= g < ceil(q^(eps+delta)).  The hit scan and the banded
    center count compare each gcd against the cuts.
    """

    eps: Optional[Fraction]
    delta: Optional[Fraction]

    def __post_init__(self):
        if (self.eps is None) != (self.delta is None):
            raise ValueError("eps and delta must both be set, or both None")
        if self.eps is not None:
            object.__setattr__(self, "eps", Fraction(self.eps))
            object.__setattr__(self, "delta", Fraction(self.delta))
            if not (0 <= self.eps and self.delta > 0 and self.eps + self.delta <= 1):
                raise ValueError(
                    f"need 0 <= eps < eps + delta <= 1, got eps={self.eps}, delta={self.delta}"
                )

    @classmethod
    def full(cls) -> "GcdBand":
        return cls(None, None)

    @classmethod
    def parse(cls, text: str) -> "GcdBand":
        """CLI format: 'full' or 'EPS,DELTA' with rational entries like 1/4."""
        text = text.strip().lower()
        if text == "full":
            return cls.full()
        try:
            eps_s, delta_s = text.split(",")
            eps, delta = Fraction(eps_s), Fraction(delta_s)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad band {text!r}: a band is 'full' or 'EPS,DELTA'") from None
        try:
            return cls(eps, delta)
        except ValueError as exc:
            raise ValueError(f"bad band {text!r}: {exc}") from None

    def format(self) -> str:
        if self.is_full:
            return "full"
        return f"{self.eps},{self.delta}"

    @property
    def is_full(self) -> bool:
        return self.eps is None

    @cached_property
    def _upper(self) -> Fraction:
        """eps + delta, added once per band; not a field, so == and hash hold."""
        return self.eps + self.delta

    def cuts(self, q: int) -> tuple[int, int]:
        """(lo, hi) = (ceil(q^eps), ceil(q^(eps+delta))) at one q >= 1, so
        that an integer g is in the band at q exactly when lo <= g < hi.

        g >= q^eps holds for an integer g exactly when g >= ceil(q^eps).
        g < x holds exactly when g < ceil(x): if x is an integer the two
        are the same, otherwise g < x means g <= floor(x) = ceil(x) - 1.
        Each cut takes one integer root (``_ceil_qpow``).  FULL gives (1,
        q + 1), which holds every gcd(b, q) in [1, q].
        """
        if self.is_full:
            return 1, q + 1
        return _ceil_qpow(q, self.eps), _ceil_qpow(q, self._upper)

    def cut_arrays(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cuts (lo, hi) of ``cuts`` at every entry of a nondecreasing
        array q >= 1, as two arrays of q's dtype (``_ceil_qpow_array``):
        int64 while q[-1] + 1 < 2^63, object for any q."""
        if self.is_full:
            return np.ones_like(q), q + 1
        return _ceil_qpow_array(q, self.eps), _ceil_qpow_array(q, self._upper)

    def contains(self, g: int, q: int) -> bool:
        """Is gcd value g admissible for modulus q?"""
        if self.is_full:
            return True
        lo, hi = self.cuts(q)
        return lo <= g < hi


@dataclass(frozen=True)
class CoverRecord:
    """Per-q cover data: center count and a certified measure enclosure.

    center_count is the exact number of centers b/q^d in [0, 1) whose
    numerator lies in a_d G_d(q) modulo q with gcd in the band.
    measure_lo == measure_hi whenever tau is an integer.
    """

    q: int
    center_count: int
    measure_lo: Fraction
    measure_hi: Fraction

    def __post_init__(self):
        if self.measure_lo > self.measure_hi:
            raise ValueError("measure_lo must not exceed measure_hi")


def cover_measure(
    q: int,
    tau: Rational,
    d: int,
    a_d: int,
    band: GcdBand = GcdBand.full(),
) -> CoverRecord:
    """Formula measure 2 * c * q^(d-1) / q^tau of the q-th cover layer, where
    c = banded_center_count(q, band, d, a_d) (r_d(q~) for the full band):
    the one-q case of ``cover_measures``.

    Requires tau > d (below that the layers stop being unions of short
    intervals).  For small q the intervals may overlap or spill out of
    [0,1]; the test suite's ``exact_union_measure`` oracle
    (``tests/oracles.py``) certifies where the formula value is the true
    Lebesgue measure.
    """
    return cover_measures(q, q, tau, d, a_d, band)[0]


def cover_measures(
    N: int,
    Q: int,
    tau: Rational,
    d: int,
    a_d: int,
    band: GcdBand = GcdBand.full(),
) -> list[CoverRecord]:
    """``cover_measure`` at every q in [N, Q], from one ``center_counts``
    pass.  q^tau is enclosed per q (``root_enclosure``), so each record
    holds the same exact rationals as a call at that q alone.  Validates
    tau > d, then like ``center_counts``; an empty range (N > Q) gives [].
    """
    tau = Fraction(tau)
    if tau <= d:
        raise ValueError(f"cover measure needs tau > d, got tau={tau}, d={d}")
    records = []
    for lo, counts in center_counts(N, Q, band, d, a_d):
        for q, c in zip(itertools.count(lo), counts):
            count = c * q ** (d - 1)
            lo_p, hi_p = root_enclosure(q, tau, SUM_BITS)
            twice = Fraction(2 * count)
            records.append(CoverRecord(q, count, twice / hi_p, twice / lo_p))
    return records


def banded_center_count(q: int, band: GcdBand, d: int, a_d: int) -> int:
    """#{b in a_d G_d(q) : gcd(b, q) in the band}, exactly, at every q:
    the one-q case of ``center_counts``."""
    return next(center_counts(q, q, band, d, a_d))[1][0]


# A range of at least TABLE_MIN moduli reads the count table; shorter
# ranges factor each q.  Chosen from sweeps of count-only times, table
# against per-q pass, in ms, over L moduli from Q + 1000, each in a fresh
# process (sieve and prime listing built by the call; 2-vCPU box), for the
# full band and for the band 1/4,1/2 at d = 2 (1/2,1/4 read alike):
#
#     Q     L = 2      4      8     16     32     64
#     2^32     4/1    2/1    4/3    4/4   3/16   3/35     full band
#     2^40   24/30  30/44  33/89 34/114 36/161 36/250
#     2^44  119/65 145/81 143/74 115/150 101/225 156/236
#     2^47  532/43 495/36 474/90 413/171 498/404 507/740
#     2^32     3/2    3/2    3/2    3/5    4/9   6/32     band 1/4,1/2
#     2^40   31/26  30/33  31/53 27/142 29/131 37/188
#     2^44  111/56  99/45 93/102 103/159 99/128 117/324
#     2^47  428/25 409/38 482/57 446/111 392/297 460/514
#
# At 16 the wrong side costs at most about 4x (2^47, L = 16); at 32 a band
# would cost 5x (2^40, L = 16), and at 8 the full band 5x (2^47, L = 8).
TABLE_MIN = 16


def center_counts(N: int, Q: int, band: GcdBand, d: int, a_d: int):
    """``banded_center_count`` at every q in [N, Q], as (first q, list of
    counts) pairs over consecutive blocks: the one count source of
    ``cover_measures`` and ``tail_sums``.

    Multiplicative per divisor: the residues with gcd(b, q) = g number
    prod over p^k || q of N_p(v_p(g)), where N_p is
    ``residues._valuation_counts(p, k, d, a_d)``.  Summed over the divisors
    g in the band; over the full band the sum is r_d(q / gcd(q, a_d)).

    Any band over at least TABLE_MIN moduli with Q < TABLE_QMAX reads the
    count table, one block of at most COUNT_BLOCK moduli at a time
    (``_count_block``).  Every other range, which includes every one-q
    count, takes the per-q rule over the same blocks: each q is factorized
    once, from the shared sieve only when the range is long enough to pay
    for it (``arithmetic.factor_pairs_over``), and the terms of the
    divisors g with lo <= g < hi, (lo, hi) = ``GcdBand.cuts(q)``, are
    summed.  Validates like ``scaled_power_residue_count`` at q = N,
    before it yields; an empty range (N > Q) yields nothing.  Both ways
    are checked against enumeration and the per-q oracle in the test
    suite.
    """
    if N > Q:
        return
    _check(N, d, a_d)
    if Q - N + 1 >= TABLE_MIN and Q < TABLE_QMAX:
        primes = _primes_to_root(Q)
        for lo, hi in _aligned_blocks(N, Q):
            yield lo, _count_block(lo, hi, d, abs(a_d), primes, band).tolist()
        return
    factor_pairs = factor_pairs_over(N, Q)
    for lo, hi in _aligned_blocks(N, Q):
        out = []
        for q in range(lo, hi + 1):
            g_lo, g_hi = band.cuts(q)
            terms = [(1, 1)]  # (divisor g of the primes so far, count for that g)
            for p, k in factor_pairs(q):
                counts = _valuation_counts(p, k, d, a_d)
                terms = [(g * p**s, t * n) for g, t in terms for s, n in enumerate(counts) if n]
            out.append(sum(t for g, t in terms if g_lo <= g < g_hi))
        yield lo, out


# ---------------------------------------------------------------------------
# count table

# Blocks are aligned to multiples of COUNT_BLOCK, so memory stays flat for
# any range.  Below TABLE_QMAX the primes up to isqrt(q) come from a sieve
# of at most DEFAULT_SIEVE_LIMIT, and every value the builder holds (q, its
# cofactors, r_d(q~) <= q, divisor terms and weights <= q, the limb steps of
# ``_kernels._mod_each``) is below 2^63.
COUNT_BLOCK = 1 << 16
TABLE_QMAX = DEFAULT_SIEVE_LIMIT**2
# moduli whose divisor terms a banded block expands at once
EXPAND_CHUNK = 1 << 11


def _count_block(lo: int, hi: int, d: int, a: int, primes, band: GcdBand) -> np.ndarray:
    """The banded center count of each q in [lo, hi], as int64, for a =
    |a_d| > 0; primes ascend past isqrt(hi), and hi < TABLE_QMAX.  By x ->
    -x, a_d G_d(q) and -a_d G_d(q) are images under b -> -b, which keeps
    gcd(b, q), so a serves a_d and -a_d alike.

    One ``_kernels.prime_exponents`` pass divides each prime p <= isqrt(q)
    out of q with its exponent e; the cofactor left is 1 or one prime P to
    the first power.  With N_p = ``residues._valuation_counts(p, e, d, a)``:
    - full band: the count is r_d(q / gcd(q, a)), the product over p of the
      sum of N_p, r_d(p^(e - min(e, v_p(a)))), times r_d(P) = 1 + (P -
      1)/gcd(P - 1, d) for P, or 1 when P | a;
    - other bands: the residues with gcd(b, q) = g number the product over
      p of N_p(v_p(g)) (``center_counts``), so the count is the sum of
      those products over the divisors g with cut_lo <= g < cut_hi, the
      band's ``cut_arrays``.  Each (p, e) gives the branches (p^s, N_p(s))
      with N_p(s) > 0, and P gives (P, N_P(1) = 1) and, unless P | a, (1,
      N_P(0) = e_d(P) = (P - 1)/gcd(P - 1, d)).  Each q's terms (g, weight)
      start at (1, 1) and take one prime of q per rank, P last, each term
      repeated once per branch of that prime (``np.repeat``); a term with g
      >= cut_hi is dropped as soon as it appears, since g only grows, and a
      q with fewer primes than the rank has its terms final.  Positions go
      EXPAND_CHUNK at a time, so the terms held stay bounded.  A weight and
      a q's count are at most q < 2^48 (the terms of q split its residues by
      gcd), so the float64 sums of ``np.bincount``, partial sums of
      nonnegative integers below 2^53, are exact.  Positions (below
      COUNT_BLOCK), ranks, offsets into the branch table and branch counts
      are int32; g and the weights stay int64.
    """
    n = hi - lo + 1
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    count = np.ones(n, dtype=np.int64)
    seen = np.zeros(n, dtype=np.int32)  # primes of each q taken so far
    rows, tab = [], [(1, 1)]  # per prime: positions, ranks, offsets into tab, branches
    for p, start, e in _kernels.prime_exponents(lo, rem, primes):
        counts = [_valuation_counts(p, j, d, a) for j in range(int(e.max()) + 1)]
        if band.is_full:
            count[start::p] *= np.array([sum(c) for c in counts], dtype=np.int64)[e]
            continue
        branches = [[(p**s, n_s) for s, n_s in enumerate(c) if n_s] for c in counts]
        num = np.array([len(b) for b in branches], dtype=np.int32)
        off = len(tab) + np.cumsum(num, dtype=np.int32) - num
        rows.append((np.arange(start, n, p, dtype=np.int32), seen[start::p].copy(), off[e], num[e]))
        seen[start::p] += 1
        tab += itertools.chain.from_iterable(branches)
    # what is left above 1 is one prime P > isqrt(hi) to the first power
    big = np.flatnonzero(rem > 1)
    P = rem[big]
    unit = (P - 1) // np.gcd(P - 1, d)
    unit[_kernels._mod_each(a, P) == 0] = 0  # P | a_d: q~ loses P, N_P(0) = 0
    if band.is_full:
        count[big] *= 1 + unit
        return count
    # P takes the last rank, with the branches (P, 1) and, if unit > 0, (1, unit)
    off_big = len(tab) + 2 * np.arange(len(big), dtype=np.int32)
    rows.append((big.astype(np.int32), seen[big], off_big, 1 + (unit > 0).astype(np.int32)))
    pos, rank, off, num = map(np.concatenate, zip(*rows))
    ones = np.ones_like(P)
    pairs = np.column_stack((P, ones, ones, unit)).reshape(-1, 2)
    g_br, w_br = np.concatenate((np.array(tab, dtype=np.int64), pairs)).T.copy()
    off_at = np.zeros((int(rank.max(initial=-1)) + 1, n), dtype=np.int32)
    num_at = np.zeros_like(off_at)  # 0 where q has fewer primes than the rank
    off_at[rank, pos] = off
    num_at[rank, pos] = num
    cut_lo, cut_hi = band.cut_arrays(np.arange(lo, hi + 1, dtype=np.int64))
    for c0 in range(0, n, EXPAND_CHUNK):
        where, done = np.arange(c0, min(c0 + EXPAND_CHUNK, n)), []
        g = w = np.ones(len(where), dtype=np.int64)
        for off_r, num_r in zip(off_at, num_at):
            k = num_r[where]
            last = k == 0  # q has no prime left
            done.append((where[last], g[last], w[last]))
            # term i becomes k[i] terms, reading tab at off_r + 0, ..., k[i] - 1
            rep = np.repeat(np.arange(len(k)), k)
            br = np.arange(len(rep)) - np.repeat(np.cumsum(k) - k - off_r[where], k)
            where, g, w = where[rep], g[rep] * g_br[br], w[rep] * w_br[br]
            keep = g < cut_hi[where]
            where, g, w = where[keep], g[keep], w[keep]
        where, g, w = map(np.concatenate, zip(*done, (where, g, w)))
        keep = (cut_lo[where] <= g) & (g < cut_hi[where])  # q = 1 has no prime
        count[c0 : c0 + EXPAND_CHUNK] = np.bincount(
            where[keep] - c0, weights=w[keep], minlength=min(EXPAND_CHUNK, n - c0)
        )
    return count


def _aligned_blocks(N: int, Q: int):
    """(lo, hi) for the blocks of at most COUNT_BLOCK moduli, aligned to its
    multiples, that cover [N, Q] in order."""
    lo = N
    while lo <= Q:
        hi = min(lo | (COUNT_BLOCK - 1), Q)
        yield lo, hi
        lo = hi + 1


# ---------------------------------------------------------------------------
# certified fixed-point accumulation


# ``tail_sums`` and the per-term fallback of ``add_consecutive`` round at
# most this many terms per ``_add_terms`` call, so the float seeds and
# roots of a count-table block are never held all at once
ROOT_CHUNK = 1 << 10

# The block rule of ``IntervalSum.add_consecutive``: H consecutive moduli,
# H one of TAYLOR_LENGTHS, share one root through a Taylor expansion of
# degree TAYLOR_DEGREE.  _TAYLOR_POWERS[h][j] = h^j for h < 128 and j <=
# TAYLOR_DEGREE + 1, and the moments of a block of H moduli stay below 2^63
# while its numerators are at most _TAYLOR_NUM_MAX[H].  The table is a list,
# made an int64 array only when used: numpy arithmetic at import raised the
# peak RSS of an import by 0.25 MB.
TAYLOR_LENGTHS = (128, 64, 32)
TAYLOR_DEGREE = 6
_TAYLOR_POWERS = [[h**j for j in range(TAYLOR_DEGREE + 2)] for h in range(TAYLOR_LENGTHS[0])]
_TAYLOR_NUM_MAX = {
    H: ((1 << 63) - 1) // sum(row[-1] for row in _TAYLOR_POWERS[:H]) for H in TAYLOR_LENGTHS
}


def _taylor_coefficients(u: int, v: int) -> list[int]:
    """c_j = binom(-u/v, j) v^(m+1) (m+1)! for j <= m + 1, m =
    TAYLOR_DEGREE: integers, as binom(-u/v, j) v^j j! is the product of
    -(u + i v) over i < j."""
    m1 = TAYLOR_DEGREE + 1
    coeffs, c = [], 1  # c = binom(-u/v, j) v^j j!
    for j in range(m1 + 1):
        coeffs.append(c * v ** (m1 - j) * math.factorial(m1) // math.factorial(j))
        c *= -(u + j * v)
    return coeffs


def _split_roots(qs, w: int, v: int, bits: int) -> list[int]:
    """R = floor(2^bits q^(w/v)) for each int q >= 1 of qs, 0 < w < v.

    v = 2 takes one ``math.isqrt(q << 2 bits)`` per q.  v >= 3 works out
    the float seeds 2^bits q^(w/v) of all qs in one numpy pass, and each
    seed starts the exact integer descent ``_root_descent`` on q^w 2^(v
    bits), so R is the exact floor whichever side of it the seed falls.
    A seed that is not a finite float starts from ``iroot``'s own seed.
    """
    shift = v * bits
    if v == 2:
        return [math.isqrt(q << shift) for q in qs]
    with np.errstate(over="ignore"):
        seeds = np.ldexp(np.asarray(qs, dtype=np.float64) ** (w / v), bits)
    seeds[~np.isfinite(seeds)] = 0
    roots = []
    for q, seed in zip(qs, seeds.tolist()):
        n = q**w << shift
        roots.append(_root_descent(n, v, int(seed) or _root_seed(n, v)))
    return roots


def _check_exponent(u: int, v: int) -> None:
    # u/v <= 0 would round the terms against q^k R with k < 0 or R = 0:
    # a float or an error, not an enclosure
    if u <= 0 or v <= 0:
        raise ValueError(f"exponent u/v needs u > 0 and v > 0, got {u}/{v}")


class IntervalSum:
    """Accumulates certified [lo, hi] enclosures at fixed scale 2^-bits.

    Two rounding methods, both outward, for terms numerator / q^tau with
    tau = u/v > 0 and numerators >= 0.  ``add_ratios`` rounds term by
    term: it splits tau = k + w/v with 0 <= w < v and takes R = floor(2^bits
    q^(w/v)); each term is rounded outward against q^k R, the terms of a
    call are summed in local integers, and the totals are added to lo and
    hi once.  ``add_consecutive`` rounds blocks of H consecutive moduli, H
    in TAYLOR_LENGTHS, at once from a Taylor expansion and hands a block to
    ``add_ratios`` only when the expansion is too coarse for it.

    Nesting: with r = floor(2^bits q^tau), the one root an unsplit rounding
    takes, q^k R is an integer <= 2^bits q^tau, so q^k R <= r, and q^k (R +
    1) is an integer > 2^bits q^tau >= r, so q^k (R + 1) >= r + 1.  Every
    term's interval [N // (q^k (R + 1)), ceil(N / (q^k R))], N = numerator
    2^(2 bits), therefore contains [N // (r + 1), ceil(N / r)].  An integer
    tau is w = 0, where 2^bits q^0 is exact and the term is floored and
    ceiled at numerator 2^bits / q^k.

    Block rule: for q = q0 + h, 0 <= h < H, and x = h / q0 >= 0,
    q^-s = q0^-s (1 + x)^-s with s = tau.  The j-th derivative of f(x) = (1
    + x)^-s is j! C_j (1 + x)^(-s-j), C_j = binom(-s, j), so Taylor's
    theorem with Lagrange remainder gives, for some xi in [0, x],

        (1 + x)^-s = sum_{j<=m} C_j x^j + C_{m+1} (1 + xi)^(-s-m-1) x^(m+1),

    m = TAYLOR_DEGREE.  As xi >= 0 and s + m + 1 > 0, the factor (1 +
    xi)^(-s-m-1) lies in (0, 1], so the remainder lies between C_{m+1}
    x^(m+1) and 0.  C_j = prod_{i<j} (-s - i) / j! has the sign of (-1)^j,
    and m is even, so C_{m+1} < 0 and the remainder is <= 0.  Summed
    against numerators num_h >= 0 with moments M_j = sum_h num_h h^j, the
    block's sum times q0^s therefore lies in [P_{m+1}, P_m], P_i = sum_{j<=i}
    C_j M_j / q0^j.  Scaled by the integer D = v^(m+1) (m+1)!, each c_j =
    C_j D is an integer (C_j v^j j! is the product of -(u + i v) over i <
    j), so D q0^(m+1) P_m and D q0^(m+1) P_{m+1} are integers from one
    Horner pass over the c_j M_j.  They are divided by D q0^(m+1+k) and by
    2^bits q0^(w/v), which lies in [R, R + 1) for R = floor(2^bits
    q0^(w/v)): the lower end floored against R + 1, the upper end ceiled
    against R, one root per block instead of one per term.  A lower end
    below 0 (h / q0 too large for the expansion) divides to at most 0,
    still below the sum.  Nothing here depends on H: the remainder keeps
    its sign for every h >= 0, so any block length is sound, and H only
    moves the width of the interval and the int64 range of the moments.
    """

    def __init__(self, bits: int = SUM_BITS):
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.bits = bits
        self.lo = 0
        self.hi = 0

    def add_ratios(self, numerators, qs, u: int, v: int) -> None:
        """Add numerator / q^(u/v) (u, v > 0) for each pair of numerators and
        qs, every term rounded outward: the one-group case of
        ``_add_terms``."""
        _check_exponent(u, v)
        k, w = divmod(u, v)
        _add_terms([(k, self)], numerators, qs, w, v)

    def add_consecutive(self, numerators: np.ndarray, q0: int, u: int, v: int) -> None:
        """Add numerators[h] / (q0 + h)^(u/v) (u, v > 0) for every h, with
        q0 >= 1 and numerators >= 0 in a 1-D array: int64, or object when
        some numerator does not fit in int64.

        The moduli are cut into spans of at most ROOT_CHUNK blocks, and the
        blocks of a span, H moduli each, are rounded by the block rule
        (proof at ``IntervalSum``): their moments M_j, j <= TAYLOR_DEGREE +
        1, come from one int64 matmul against the table of h^j, which is
        exact while max(num) * sum_{h<H} h^(m+1) < 2^63, that is while the
        numerators are at most _TAYLOR_NUM_MAX[H].  Each span takes the
        longest H of TAYLOR_LENGTHS with H <= q >> 8 at its first modulus q
        (so h / q < 2^-8, where a degree-6 expansion is far inside the width
        allowance) whose guard all of the span's numerators meet, and 32
        otherwise.  A span ends early where the next longer H would start to
        be allowed, so the lengths step up at q = 2^14 and 2^15.  A block of
        32 whose numerators break the guard, or any block whose Taylor
        interval is wider than 2 units of 2^-bits per nonzero term, is
        rounded term by term in ``add_ratios`` instead, at most ROOT_CHUNK
        terms per call.
        """
        _check_exponent(u, v)
        start, size = 0, len(numerators)
        while start < size:
            q = q0 + start
            for H in TAYLOR_LENGTHS:  # ends at 32 if no break
                end = start + ROOT_CHUNK * H
                if q < H << 9:  # 2H is allowed from q = H << 9 on
                    end = min(end, start - (q - (H << 9)) // H * H)
                part = numerators[start:end]
                if H <= q >> 8 and part.max() <= _TAYLOR_NUM_MAX[H]:
                    break
            if len(part) % H:
                part = np.concatenate((part, np.zeros(-len(part) % H, dtype=part.dtype)))
            self._add_blocks(part.reshape(-1, H), q, u, v)
            start = end

    def _add_blocks(self, nums: np.ndarray, q0: int, u: int, v: int) -> None:
        """``add_consecutive`` for the rows of nums, H = nums.shape[1] wide,
        row i holding the numerators of q0 + H i + h."""
        bits, H = self.bits, nums.shape[1]
        k, w = divmod(u, v)
        fits = nums.max(axis=1) <= _TAYLOR_NUM_MAX[H]
        powers = np.array(_TAYLOR_POWERS[:H], dtype=np.int64)
        moments = np.where(fits[:, None], nums, 0).astype(np.int64, copy=False) @ powers
        nonzero = np.count_nonzero(nums, axis=1)
        taylor = np.flatnonzero(fits & (nonzero > 0)).tolist()
        moments, nonzero = moments.tolist(), nonzero.tolist()
        starts = [q0 + H * i for i in taylor]
        if w:
            shift, step = 2 * bits, 1
            roots = _split_roots(starts, w, v, bits)
        else:
            shift, step, roots = bits, 0, itertools.repeat(1)
        *head, last = _taylor_coefficients(u, v)
        scale = v ** (TAYLOR_DEGREE + 1) * math.factorial(TAYLOR_DEGREE + 1)  # D
        lo = hi = 0
        rounded = set()
        for i, q, root in zip(taylor, starts, roots):
            *M, top = moments[i]
            poly = 0
            for c, m in zip(head, M):
                poly = poly * q + c * m
            upper = poly * q  # D q^(m+1) P_m; D q^(m+1) P_{m+1} = upper + last * top
            den = scale * q ** (TAYLOR_DEGREE + 1 + k)
            block_lo = (upper + last * top << shift) // (den * (root + step))
            block_hi = -(-(upper << shift) // (den * root))
            if block_hi - block_lo <= 2 * nonzero[i]:
                lo += block_lo
                hi += block_hi
                rounded.add(i)
        self.lo += lo
        self.hi += hi
        terms = [
            (num, q0 + H * i + h)
            for i in range(len(nums))
            if nonzero[i] and i not in rounded
            for h, num in enumerate(nums[i].tolist())
            if num
        ]
        for start in range(0, len(terms), ROOT_CHUNK):
            chunk_nums, chunk_qs = zip(*terms[start : start + ROOT_CHUNK])
            self.add_ratios(chunk_nums, chunk_qs, u, v)

    def add_ratio_with_root(self, numerator: int, q: int, u: int, v: int) -> None:
        """Add numerator / q^(u/v) (u, v > 0) with outward rounding."""
        self.add_ratios((numerator,), (q,), u, v)

    def interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.lo, 1 << self.bits), Fraction(self.hi, 1 << self.bits)


def _add_terms(group, numerators, qs, w: int, v: int) -> None:
    """Add numerator / q^(k + w/v) into acc, rounded outward, for each (k,
    acc) of group (k >= 0, every acc at the same bits) and each pair of
    numerators and qs: the one term-rounding loop of the certified sums.

    Each term is rounded once, at the least k, k0, against q^k0 R (upper)
    and q^k0 (R + 1) (lower), R = floor(2^bits q^(w/v)) from
    ``_split_roots`` (R = 1 at scale 2^0 when w = 0), and the bounds are
    summed in local integers.  Every other k divides the rounded bounds by
    q^(k - k0): floor(floor(n / a) / b) = floor(n / (a b)) for integers n
    and a, b >= 1, and ceil(n / a) = -floor(-n / a), so each bound is the
    integer that rounding at k alone gives, from one big division per term.
    """
    bits = group[0][1].bits
    k0 = min(k for k, _ in group)
    if w:
        shift, step, roots = 2 * bits, 1, _split_roots(qs, w, v, bits)
    else:
        shift, step, roots = bits, 0, itertools.repeat(1)
    los, negs = [], []  # floor(n / (q^k0 (R + step))) and -ceil(n / (q^k0 R))
    for numerator, q, root in zip(numerators, qs, roots):
        num, qk = numerator << shift, q**k0
        los.append(num // (qk * (root + step)))
        negs.append(-num // (qk * root))
    for k, acc in group:
        if k == k0:
            acc.lo += sum(los)
            acc.hi -= sum(negs)
        else:
            pows = [q ** (k - k0) for q in qs]
            acc.lo += sum(map(operator.floordiv, los, pows))
            acc.hi -= sum(map(operator.floordiv, negs, pows))


def tail_sums(
    taus,
    d: int,
    a_d: int,
    N: int,
    ends,
    band: GcdBand,
    *,
    bits: int = SUM_BITS,
) -> list[list[tuple[Fraction, Fraction]]]:
    """``tail_sum`` at each tau of taus over each segment of a schedule, from
    one count pass over [N, ends[-1]]: one list of per-tau enclosures per
    segment.

    The ends ascend; segment 0 holds the q in [N, ends[0]] and segment i >
    0 the q in [N, ends[i]] above ends[i-1], so a segment wholly below N is
    empty and sums to zero.  Every tau and the order of the ends are
    checked before any count is taken.  A term 2 count(q) q^(d-1) /
    q^tau is summed as 2 count(q) / q^a, a = tau - d + 1 > 1: q^(d-1)
    divides its numerator and both of its rounding divisors q^k R and q^k
    (R + 1), so each rounded bound is the same integer, from a smaller
    numerator.  The counts come from ``center_counts``, one block at a
    time, kept for the q with a nonzero count.  Within a segment the taus
    with the same fractional part w/v are rounded together, at most
    ROOT_CHUNK terms per ``_add_terms`` call: they share the chunk's roots
    floor(2^bits q^(w/v)) (5/2, 7/2 and 9/2 all take isqrt(q << 2 bits))
    and each term's big division.  Each term is rounded into its own
    segment's sums, so every segment's bounds are the integers a separate
    call over that segment alone gives.
    """
    taus = [Fraction(t) for t in taus]
    for tau in taus:
        if tau <= d:
            raise ValueError(f"needs tau > d, got tau={tau}, d={d}")
    ends = list(ends)
    for prev, end in zip(ends, ends[1:]):
        if end <= prev:
            raise ValueError(f"segment ends must ascend, got {end} after {prev}")
    if not ends:
        return []
    accs = [[IntervalSum(bits) for _ in taus] for _ in ends]
    groups = []  # per segment, {(w, v): [(k, acc), ...]}
    for seg_accs in accs:
        seg_groups: dict[tuple[int, int], list[tuple[int, IntervalSum]]] = {}
        for tau, acc in zip(taus, seg_accs):
            a = tau - (d - 1)
            k, w = divmod(a.numerator, a.denominator)
            seg_groups.setdefault((w, a.denominator), []).append((k, acc))
        groups.append(seg_groups)
    for lo, counts in center_counts(N, ends[-1], band, d, a_d):
        first, last = lo, lo + len(counts) - 1
        while first <= last:  # the part of the block in each segment it meets
            i = bisect.bisect_left(ends, first)
            end = min(ends[i], last)
            part = counts[first - lo : end - lo + 1]
            qs = list(itertools.compress(range(first, end + 1), part))
            nums = [2 * c for c in part if c]
            for start in range(0, len(qs), ROOT_CHUNK):
                chunk = slice(start, start + ROOT_CHUNK)
                for (w, v), group in groups[i].items():
                    _add_terms(group, nums[chunk], qs[chunk], w, v)
            first = end + 1
    return [[acc.interval() for acc in seg_accs] for seg_accs in accs]


def tail_sum(
    tau: Rational,
    d: int,
    a_d: int,
    N: int,
    Q: int,
    band: GcdBand,
    *,
    bits: int = SUM_BITS,
) -> tuple[Fraction, Fraction]:
    """Certified interval containing sum_{q=N..Q} of the per-q layer measure
    2 * count(q) * q^(d-1) / q^tau, count(q) = banded_center_count(q, ...),
    taken from ``center_counts``; the q with no center are skipped.  The
    terms are rounded by ``_add_terms``, ROOT_CHUNK at a time.  Empty
    range (N > Q) sums to zero.  Monotone nondecreasing in Q.  The one-tau,
    one-segment case of ``tail_sums``.
    """
    return tail_sums([tau], d, a_d, N, [Q], band, bits=bits)[0][0]


def restricted_series_partial(
    z: Rational,
    s: Rational,
    n: int,
    Q: int,
    *,
    bits: int = 64,
) -> tuple[Fraction, Fraction]:
    """Certified interval for sum_{q<=Q, gcd(q,n)=1} z^omega(q) / q^s, for
    Q < TABLE_QMAX.  Walks the count table's blocks; with z = a/b and W =
    Q.bit_length() > omega(q), each term has numerator a^w b^(W-w), 0 for
    q not coprime to n, and each block's numerators are rounded outward in
    one ``IntervalSum.add_consecutive`` call; the total is divided exactly
    by b^W."""
    z = Fraction(z)
    s = Fraction(s)
    if z <= 0 or s <= 0:
        raise ValueError("z and s must be positive")
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if Q >= TABLE_QMAX:
        raise ValueError(f"omega series needs Q < 2^48, got {Q}")
    if n < 1:
        raise ValueError(f"coprimality modulus n must be >= 1, got {n}")
    u, v = s.numerator, s.denominator
    W = Q.bit_length()
    # weight[omega] for omega <= W; the q not coprime to n take weight[W + 1] = 0
    weight = [z.numerator**w * z.denominator ** (W - w) for w in range(W + 1)] + [0]
    table = np.array(weight, dtype=np.int64 if max(weight) < 1 << 63 else object)
    n_primes = [p for p, _ in factorize(n).factors]

    acc = IntervalSum(bits)
    acc.lo = acc.hi = weight[0] << bits  # q = 1 term, exact
    primes = _primes_to_root(Q)
    for lo, hi in _aligned_blocks(2, Q):
        omega = _kernels.omega_table(lo, hi, primes)
        for p in n_primes:
            omega[(-lo) % p :: p] = W + 1
        acc.add_consecutive(table[omega], lo, u, v)
    lo, hi = acc.interval()
    return lo / z.denominator**W, hi / z.denominator**W
