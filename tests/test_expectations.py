"""The hit scan against the certified sums, where brute force cannot reach.

For alpha uniform on [0, 1], the expected number of hits (q, b) with q <= Q
is exactly E = sum over q <= Q of 2 count(q) q^(d - 1 - tau).  Whether b is
admissible at q depends only on b mod q, and count(q) residues are, so the
admissible centres b / q^d lie periodically, count(q) q^(d - 1) of them per
unit of alpha; each holds the alphas with |alpha - b / q^d| < q^-tau, an
interval of length 2 q^-tau.  For tau > d, E is the layer sum
``tail_sum(tau, d, a_d, 1, Q, band)``.  ``tail_sums`` refuses tau <= d, so
the wide case sums the same terms here from ``center_counts``.

Each case scans a fixed-seed sample of n alphas, 128-bit dyadic ones or n/m
with a random odd 128-bit m, and compares the mean number of hits with the
midpoint of E's enclosure: z = (mean - E) / (sd / sqrt(n)), sd the sample
standard deviation.  The verdict |z| <= 5 is deterministic at fixed seeds.
For a correct scan a fresh seed would break it, under the normal
approximation, with probability about 5.7e-7 per case, 4e-6 over the seven.
No flags: --primitive and --omega-max change the expectation.
"""

import itertools
import math
import random
import statistics
from fractions import Fraction

import pytest

from diocurve.counting import dyadic_alphas, find_hits
from diocurve.covers import GcdBand, IntervalSum, center_counts, tail_sum

FULL = GcdBand.full()


def rational_alphas(seed, count):
    """count alphas n/m, each with a random odd 128-bit m and n uniform in
    [0, m]."""
    rng = random.Random(seed)
    alphas = []
    for _ in range(count):
        m = rng.getrandbits(128) | 1 << 127 | 1
        alphas.append(Fraction(rng.randrange(m + 1), m))
    return alphas


def expected_hits(tau, d, a_d, Q, band):
    """The midpoint of a certified enclosure of E."""
    if tau > d:
        lo, hi = tail_sum(tau, d, a_d, 1, Q, band)
    else:
        acc = IntervalSum()
        a = tau - d + 1  # 2 count(q) q^(d - 1 - tau) = 2 count(q) / q^a
        for first, counts in center_counts(1, Q, band, d, a_d):
            qs = list(itertools.compress(itertools.count(first), counts))
            acc.add_ratios([2 * c for c in counts if c], qs, a.numerator, a.denominator)
        lo, hi = acc.interval()
    return (lo + hi) / 2


def band(eps, delta):
    return GcdBand(Fraction(eps), Fraction(delta))


CASES = {  # tau, d, a_d, Q, band, alphas of which kind, how many
    "narrow-full-dyadic": (Fraction(5, 2), 2, 1, 1 << 10, FULL, "dyadic", 400),
    "narrow-banded-odd": (Fraction(5, 2), 2, 1, 1 << 11, band("1/2", "1/4"), "odd", 600),
    "narrow-banded-d3-dyadic": (Fraction(7, 2), 3, 12, 1 << 8, band("1/4", "1/2"), "dyadic", 1000),
    "narrow-full-ad-6-odd": (Fraction(13, 4), 2, -6, 1 << 12, FULL, "odd", 2000),
    "narrow-banded-ad-6-dyadic": (Fraction(9, 4), 2, -6, 1 << 9, band(0, "1/2"), "dyadic", 400),
    "narrow-full-d3-odd": (Fraction(7, 2), 3, 12, 1 << 8, FULL, "odd", 1000),
    "wide-banded-dyadic": (Fraction(7, 4), 2, 1, 1 << 8, band("1/4", "1/4"), "dyadic", 200),
}


@pytest.mark.parametrize("case", CASES)
def test_mean_hits_match_the_certified_expectation(case):
    tau, d, a_d, Q, gcd_band, kind, n = CASES[case]
    alphas = dyadic_alphas(0, 128, n) if kind == "dyadic" else rational_alphas(0, n)
    counts = [len(find_hits(alpha, d, a_d, tau, gcd_band, Q)) for alpha in alphas]
    mean, sd = statistics.fmean(counts), statistics.stdev(counts)
    expected = float(expected_hits(tau, d, a_d, Q, gcd_band))
    z = (mean - expected) / (sd / math.sqrt(n))
    assert abs(z) <= 5, (expected, mean, sd, z)
