import math
import random
from fractions import Fraction

import numpy as np
import pytest

from diocurve import _kernels, arithmetic, covers
from diocurve.arithmetic import (
    cmp_frac_qpow,
    divisor_count,
    distinct_prime_count,
    divisors,
    factorize,
    get_sieve,
    root_enclosure,
)
from diocurve.covers import (
    _TAYLOR_NUM_MAX,
    _TAYLOR_POWERS,
    COUNT_BLOCK,
    ROOT_CHUNK,
    SUM_BITS,
    TABLE_MIN,
    TABLE_QMAX,
    TAYLOR_LENGTHS,
    GcdBand,
    IntervalSum,
    _ceil_qpow,
    _ceil_qpow_array,
    banded_center_count,
    center_counts,
    cover_measure,
    cover_measures,
    divisor_sum_center_bound,
    restricted_series_partial,
    tail_sum,
    tail_sums,
)
from diocurve.residues import power_residue_count, scaled_power_residue_count
from oracles import (
    band_contains_by_powers,
    banded_center_count_per_q,
    euler_product_partial,
    exact_union_measure,
    floor_root,
    omega,
    ratio_with_root_bounds,
    unsplit_ratio_bounds,
)


def test_band_validation_and_parse():
    full = GcdBand.full()
    assert full.is_full and full.contains(17, 4)
    band = GcdBand(Fraction(1, 4), Fraction(1, 5))
    assert GcdBand.parse("1/4,1/5") == band
    assert GcdBand.parse("full").is_full
    with pytest.raises(ValueError):
        GcdBand(Fraction(3, 4), Fraction(1, 2))  # eps + delta > 1
    with pytest.raises(ValueError):
        GcdBand(Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        GcdBand.parse("nonsense,")


def test_band_membership_exact():
    band = GcdBand(Fraction(1, 4), Fraction(1, 5))  # [q^0.25, q^0.45)
    # q = 12: 12^0.25 = 1.86..., 12^0.45 = 3.06...
    assert band.cuts(12) == (2, 4)
    assert [a for a in divisors(factorize(12)) if band.contains(a, 12)] == [2, 3]
    assert not band.contains(1, 12)
    assert band.contains(2, 12) and band.contains(3, 12)
    assert not band.contains(4, 12)
    # exact boundary: divisor equal to q^eps is included
    b2 = GcdBand(Fraction(1, 2), Fraction(1, 4))
    assert b2.contains(4, 16)  # 16^(1/2) = 4 exactly
    assert not b2.contains(8, 16)  # 16^(3/4) = 8 excluded


CUT_BANDS = ("1/2,1/4", "1/4,1/5", "0,1/2", "1/3,2/3", "1/4,1/4", "0,1")


def test_band_cuts_match_cmp_frac_qpow():
    # for every g in 0..q+1, lo <= g < hi equals the two cmp_frac_qpow tests
    for text in CUT_BANDS:
        band = GcdBand.parse(text)
        upper = band.eps + band.delta
        for q in range(1, 3001):
            lo, hi = band.cuts(q)
            assert 1 <= lo <= hi <= q + 1, (text, q)
            # cmp_frac_qpow(g, q, x) is nondecreasing in g, so the sign
            # changes at lo - 1 | lo and at hi - 1 | hi pin it at every g
            assert cmp_frac_qpow(lo, q, band.eps) >= 0, (text, q)
            assert cmp_frac_qpow(lo - 1, q, band.eps) < 0, (text, q)
            assert cmp_frac_qpow(hi, q, upper) >= 0, (text, q)
            assert cmp_frac_qpow(hi - 1, q, upper) < 0, (text, q)
            if q <= 200:  # and every g, one by one
                for g in range(q + 2):
                    inside = lo <= g < hi
                    assert inside == band_contains_by_powers(band, g, q) == band.contains(g, q), (
                        text, q, g,
                    )
    b2 = GcdBand(Fraction(1, 2), Fraction(1, 4))
    assert b2.cuts(16) == (4, 8)  # 16^(1/2) = 4 and 16^(3/4) = 8 exactly
    assert b2.cuts(17) == (5, 9)
    assert GcdBand.full().cuts(12) == (1, 13)


def _check_cut_arrays(arrays):
    """``cut_arrays`` and ``cuts`` of every band against ``_ceil_qpow``."""
    for text in CUT_BANDS + ("0,1/3", "2/3,1/3", "9/20,1/20", "full"):
        band = GcdBand.parse(text)
        for q in arrays:
            if band.is_full:
                expected = [(1, n + 1) for n in q.tolist()]
            else:
                upper = band.eps + band.delta
                expected = [(_ceil_qpow(n, band.eps), _ceil_qpow(n, upper)) for n in q.tolist()]
            lo, hi = band.cut_arrays(q)
            assert lo.dtype == hi.dtype == q.dtype
            assert list(zip(lo.tolist(), hi.tolist())) == expected, (text, q[0])
            assert [band.cuts(n) for n in q.tolist()] == expected, (text, q[0])


def test_cut_arrays_match_ceil_qpow_over_q_runs():
    # consecutive runs from several starts, sparse q with gaps, every 7th
    # sieve prime, and squares (a cut can rise by more than 1 between entries)
    rng = random.Random(20)
    gaps, q = [], 1
    while q <= 1 << 20:
        gaps.append(q)
        q += rng.randrange(1, 1 << 14)
    arrays = [np.arange(start, start + 3000) for start in (1, 2, 15, 1000, 4097, (1 << 20) - 7)]
    arrays += [
        np.array([n * n for n in range(1, 1 << 10)]),
        get_sieve(1 << 16).primes(1 << 16)[::7],
        np.array(gaps),
    ]
    _check_cut_arrays([a.astype(np.int64) for a in arrays])


def test_cut_arrays_match_ceil_qpow():
    # repeated q, more steps than entries, two entries, and object arrays past 2^63
    arrays = [
        np.array([5, 5, 5, 6, 1000, 1000, 5000]),
        np.array([1, 2, 1 << 20, 1 << 30]),  # more steps than entries
        np.array([1]),
        *(np.array([n, n + 1]) for n in (1, 7, 8, 15, 16, 63, 64)),  # two ends, one step apart
    ]
    arrays = [a.astype(np.int64) for a in arrays]
    arrays.append(np.array([2**63 - 2, 2**63 - 1, 2**63, 2**63, 2**63 + 5, 2**64 + 1], dtype=object))
    arrays.append(np.arange(2**63 - 3, 2**63 + 3, dtype=object))  # steps past 2^63
    _check_cut_arrays(arrays)
    b2 = GcdBand(Fraction(1, 2), Fraction(1, 4))
    lo, hi = b2.cut_arrays(np.array([15, 16, 16, 17]))
    assert lo.tolist() == [4, 4, 4, 5] and hi.tolist() == [8, 8, 8, 9]
    edge = GcdBand(Fraction(0), Fraction(1))  # eps = 0 and eps + delta = 1
    assert [edge.cuts(q) for q in (1, 2, 3, 100, 101)] == [(1, q) for q in (1, 2, 3, 100, 101)]
    assert GcdBand.parse("1/2,1/4").cuts(1) == (1, 1)


def test_ceil_qpow_array_matches_ceil_qpow_for_any_exponent():
    # x > 1 as the wide scan's radius ceil(q^(d - tau)) takes it; near 2^40
    # ceil(q^(3/2)) rises by about 1.5 * 2^20 per q, more steps than entries
    arrays = [np.arange(1, 501), np.arange(37, 300), np.array([1, 1, 2, 64, 64, 65, 499])]
    for x in map(Fraction, ("0", "1/4", "1/3", "1", "3/2", "5/2")):
        for q in arrays:
            got = _ceil_qpow_array(q.astype(np.int64), x)
            assert got.dtype == np.int64
            assert got.tolist() == [_ceil_qpow(n, x) for n in q.tolist()], (x, q[0])
        if x <= Fraction(3, 2):  # ceil((2^40)^x) < 2^63
            near = np.arange((1 << 40) - 5, (1 << 40) + 6, dtype=np.int64)
            got = _ceil_qpow_array(near, x)
            assert got.dtype == np.int64
            assert got.tolist() == [_ceil_qpow(n, x) for n in near.tolist()], x


def test_one_q_takes_one_root_per_cut(monkeypatch):
    # an array whose ends hold the same q roots it once per cut, so a one-q
    # count or measure takes 2 roots, not 4
    q, band = 10**12 + 39, GcdBand.parse("1/4,1/2")
    count = banded_center_count_per_q(q, band, 2, 1)
    cuts = [(q, band.eps), (q, band.eps + band.delta)]
    roots = []
    ceil_qpow = covers._ceil_qpow
    monkeypatch.setattr(covers, "_ceil_qpow", lambda n, x: roots.append((n, x)) or ceil_qpow(n, x))
    assert banded_center_count(q, band, 2, 1) == count
    assert roots == cuts
    roots.clear()
    assert cover_measure(q, 3, 2, 1, band).center_count == count * q
    assert roots == cuts
    roots.clear()
    lo, hi = band.cut_arrays(np.full(5, q, dtype=np.int64))
    assert lo.tolist() == [ceil_qpow(*cuts[0])] * 5 and hi.tolist() == [ceil_qpow(*cuts[1])] * 5
    assert roots == cuts


def _counts(N, Q, band, d, a_d):
    """``center_counts`` over [N, Q] as one list, checking that its blocks
    are consecutive, aligned to COUNT_BLOCK and hold Python ints."""
    out = []
    for lo, counts in center_counts(N, Q, band, d, a_d):
        assert lo == N + len(out)
        assert lo == N or lo % COUNT_BLOCK == 0
        assert lo // COUNT_BLOCK == (lo + len(counts) - 1) // COUNT_BLOCK
        assert 0 < len(counts) <= COUNT_BLOCK and all(type(c) is int for c in counts)
        out += counts
    assert len(out) == max(Q - N + 1, 0)
    return out


def test_short_range_near_the_sieve_limit_does_not_build_the_sieve(monkeypatch):
    # a count for a few q just below DEFAULT_SIEVE_LIMIT = 2^24 factors each
    # q on its own, and so does the per-q oracle's factorize
    monkeypatch.setattr(arithmetic, "_sieve", None)
    top = arithmetic.DEFAULT_SIEVE_LIMIT
    band = GcdBand.parse("1/4,1/2")
    counts = _counts(top - 64, top - 1, band, 2, 1)
    record = cover_measure(top - 3, 3, 2, 1, band)
    assert arithmetic._sieve.limit < top
    assert counts == [banded_center_count_per_q(q, band, 2, 1) for q in range(top - 64, top)]
    assert any(counts)
    assert record.center_count == banded_center_count_per_q(top - 3, band, 2, 1) * (top - 3)
    assert arithmetic._sieve.limit < top


def test_cover_measure_examples():
    rec = cover_measure(5, 3, 2, 1)
    assert rec.center_count == 15  # r_2(5) * 5
    assert rec.measure_lo == rec.measure_hi == Fraction(6, 25)
    rec1 = cover_measure(1, 3, 2, 1)
    assert rec1.center_count == 1
    assert rec1.measure_lo == 2  # pre-asymptotic single center
    rec7 = cover_measure(7, 4, 2, 1)
    assert rec7.measure_lo == Fraction(56, 2401)
    with pytest.raises(ValueError):
        cover_measure(5, 2, 2, 1)  # tau <= d refused


def test_cover_measure_fractional_tau_enclosure():
    rec = cover_measure(5, Fraction(7, 2), 2, 1)
    # true value 30/5^3.5: check enclosure via squared comparison
    assert rec.measure_lo <= rec.measure_hi
    # measure^2 * 5^7 should straddle (2*15)^2
    assert rec.measure_lo**2 * 5**7 <= 900 <= rec.measure_hi**2 * 5**7
    assert rec.measure_hi - rec.measure_lo < Fraction(1, 2**80)


@pytest.mark.parametrize("band", ("full", "1/2,1/4", "0,1/3", "1/3,2/3"))
def test_cover_measures_match_per_q_oracle(band):
    band = GcdBand.parse(band)
    cases = [
        (Fraction(7, 2), 2, 1, 1, 300),
        (3, 2, 12, 95, 160),
        (Fraction(13, 4), 3, -8, 1, 120),
        (Fraction(9, 2), 4, 2, 250, 300),
    ]
    if band.is_full:  # the count table serves past 2^24 too
        cases += [(3, 2, 1, (1 << 24) - 4, 1 << 24), (3, 2, 1, (1 << 24) - 1, (1 << 24) + 2)]
    for tau, d, a_d, N, Q in cases:
        got = cover_measures(N, Q, tau, d, a_d, band)
        assert [rec.q for rec in got] == list(range(N, Q + 1))
        for rec in got:
            q = rec.q
            count = banded_center_count_per_q(q, band, d, a_d) * q ** (d - 1)
            lo_p, hi_p = root_enclosure(q, Fraction(tau), SUM_BITS)
            assert rec.center_count == count, (q, tau, d, a_d)
            assert (rec.measure_lo, rec.measure_hi) == (2 * count / hi_p, 2 * count / lo_p)
        assert got[-1] == cover_measure(Q, tau, d, a_d, band)


def test_cover_measures_validate():
    assert cover_measures(12, 11, 3, 2, 1) == []
    with pytest.raises(ValueError, match="cover measure needs tau > d, got tau=2, d=2"):
        cover_measures(12, 11, 2, 2, 1)
    for band in (GcdBand.full(), GcdBand.parse("1/4,1/2")):
        for N, d, a_d in ((0, 2, 1), (1, 1, 1), (1, 2, 0)):
            with pytest.raises(ValueError) as err:
                cover_measures(N, 10, 7, d, a_d, band)
            with pytest.raises(ValueError, match=str(err.value)):
                list(center_counts(N, 10, band, d, a_d))


def test_exact_union_vs_formula():
    # at integer tau > d adjacent centers sit >= q^-d apart while intervals
    # have radius <= q^-(d+1): no overlap can occur, and the formula measure
    # is exactly the union measure for every q
    for q in range(1, 201):
        for tau in (3, 4):
            exact, overlapped = exact_union_measure(q, tau, 2, 1)
            formula = cover_measure(q, tau, 2, 1).measure_lo
            assert not overlapped, (q, tau)
            assert exact == formula, (q, tau)


def test_exact_union_detects_overlap_below_threshold():
    # at tau <= d the radius exceeds the center gap and the detector fires
    for q in (3, 5, 12):
        exact, overlapped = exact_union_measure(q, 2, 2, 1)
        formula = 2 * Fraction(
            cover_measure(q, 3, 2, 1).center_count, q**2
        )  # what the naive 2*count/q^tau convention would claim at tau=2
        assert overlapped
        assert exact < formula


def _gcd_classes(q, d, a_d):
    """Brute-force oracle: (g, #{b in a_d G_d(q) : gcd(b, q) = g}) pairs."""
    gcds, counts = np.unique(np.gcd(_kernels.residue_set(q, d, a_d), q), return_counts=True)
    return list(zip(gcds.tolist(), counts.tolist()))


def test_banded_center_count_matches_enumeration():
    bands = [GcdBand.full()] + [
        GcdBand.parse(t) for t in ("0,1/2", "1/4,1/4", "1/4,1/5", "1/2,1/4", "1/2,1/2")
    ]
    cases = [(q, 2, 1) for q in range(1, 3001)] + [
        (q, d, a_d)
        for q in range(1, 401)
        for d in (2, 3, 4)
        for a_d in (1, -1, 2, -6, 12)
        if (d, a_d) != (2, 1)
    ]
    in_band = {}  # (band index, q, g) -> band.contains(g, q), one call each
    for q, d, a_d in cases:
        classes = _gcd_classes(q, d, a_d)
        for i, band in enumerate(bands):
            expected = 0
            for g, n in classes:
                if (i, q, g) not in in_band:
                    in_band[i, q, g] = band.contains(g, q)
                expected += n * in_band[i, q, g]
            count = banded_center_count(q, band, d, a_d)
            assert type(count) is int
            assert count == expected, (q, band.format(), d, a_d)


def test_banded_center_count_examples():
    band = GcdBand(Fraction(1, 4), Fraction(1, 5))  # divisors {2,3} of 12
    in_band = [(g, n) for g, n in _gcd_classes(12, 2, 1) if band.contains(g, 12)]
    assert in_band == [(3, 1)]  # only b = 9
    assert banded_center_count(12, band, 2, 1) == 1
    assert divisor_sum_center_bound(12, band, 2) == 6  # r_2(6) + r_2(4) = 4 + 2
    assert banded_center_count(7, GcdBand.full(), 2, 1) == 4
    b2 = GcdBand(Fraction(1, 2), Fraction(1, 4))  # divisor {2} of 4
    assert banded_center_count(4, b2, 2, 1) == 0  # squares mod 4 = {0,1}: gcds 4 and 1
    assert divisor_sum_center_bound(4, b2, 2) == power_residue_count(2, 2)


def test_banded_center_counts_match_per_q_oracle():
    # the range form against the per-q closed form at every q <= 2^12 and
    # on ranges from later starts, whose cuts are seeded at their first q
    ranges = ((1, 1 << 12), (2, 600), (1000, 1600), (4097, 4700))
    for text in ("1/2,1/4", "1/4,1/2", "0,1/3", "1/3,2/3"):
        band = GcdBand.parse(text)
        for d in (2, 3, 4):
            for a_d in (1, 12, -8):
                oracle = [banded_center_count_per_q(q, band, d, a_d) for q in range(1, 4701)]
                for N, Q in ranges:
                    assert _counts(N, Q, band, d, a_d) == oracle[N - 1 : Q], (text, d, a_d, N)


def test_per_q_counts_match_oracle_across_block_edges_and_past_2_63():
    # the per-q pass takes each aligned block's cuts as one array: across a
    # COUNT_BLOCK edge, across 2^63 (int64 cuts below the block that ends at
    # 2^63 - 1, object cuts from there), and at q = 2^64 + 1
    ranges = (
        (COUNT_BLOCK - 300, COUNT_BLOCK + 300),
        (2**63 - 3, 2**63 + 2),
        (2**64 + 1, 2**64 + 1),
    )
    for text in ("1/2,1/4", "1/4,1/2", "0,1", "full"):
        band = GcdBand.parse(text)
        for N, Q in ranges:
            for d, a_d in ((2, 1), (3, 12)):
                want = [banded_center_count_per_q(q, band, d, a_d) for q in range(N, Q + 1)]
                assert _counts(N, Q, band, d, a_d) == want, (text, N, d)
                assert any(want), (text, N, d)


def test_banded_center_count_validates():
    band = GcdBand(Fraction(1, 4), Fraction(1, 4))
    for q, d, a_d in ((12, 2, 0), (0, 2, 1), (12, 1, 1)):
        for b in (band, GcdBand.full()):
            with pytest.raises(ValueError):
                banded_center_count(q, b, d, a_d)
    for N, Q, d, a_d, message in (
        (0, 5, 2, 1, "modulus must be >= 1"),
        (-3, 5, 2, 1, "modulus must be >= 1"),
        (1, 5, 1, 1, "power degree must be >= 2"),
        (1, 5, 2, 0, "a_d must be nonzero"),
    ):
        with pytest.raises(ValueError, match=message):
            list(center_counts(N, Q, band, d, a_d))
    assert list(center_counts(6, 5, band, 2, 1)) == []
    assert list(center_counts(13, 12, GcdBand.full(), 2, 1)) == []
    with pytest.raises(ValueError):
        cover_measure(12, 3, 2, 0, band)


def test_tail_sum_single_term_and_empty():
    lo, hi = tail_sum(3, 2, 1, 5, 5, GcdBand.full())
    rec = cover_measure(5, 3, 2, 1)
    assert lo <= rec.measure_lo <= hi
    assert hi - lo <= Fraction(2, 2**96)
    assert tail_sum(3, 2, 1, 9, 3, GcdBand.full()) == (0, 0)


def _table(N, Q, d, a_d, band=GcdBand.full()):
    """The count table's counts over [N, Q] as one list (``_counts``),
    read with TABLE_MIN = 1 so that every range takes the table, checking
    that every block is built in int64."""
    count_block, dtypes = covers._count_block, []

    def record(*args):
        block = count_block(*args)
        dtypes.append(block.dtype)
        return block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "TABLE_MIN", 1)
        mp.setattr(covers, "_count_block", record)
        out = _counts(N, Q, band, d, a_d)
    assert len(dtypes) == len(list(covers._aligned_blocks(N, Q)))
    assert all(dtype == np.int64 for dtype in dtypes)
    return out


def _per_q(N, Q, d, a_d, band):
    """``_counts`` with TABLE_MIN past the range's length, so that every
    range takes the per-q pass."""
    with pytest.MonkeyPatch.context() as mp:
        blocks = _probe_table_blocks(mp)
        mp.setattr(covers, "TABLE_MIN", Q - N + 2)
        out = _counts(N, Q, band, d, a_d)
    assert blocks == []
    return out


# ranges for banded counts: from q = 1, across a COUNT_BLOCK edge, up to q =
# 257^2 (257 is the largest prime up to isqrt(Q), divided out of q with e =
# 2), and across q = 2^20
_BANDED_RANGES = (
    (1, 300),
    (COUNT_BLOCK - 100, COUNT_BLOCK + 100),
    (257**2 - 60, 257**2),
    (2**20 - 40, 2**20 + 40),
)


@pytest.mark.parametrize("band", ("0,1", "0,1/3", "1/4,1/2", "1/2,1/4", "1/3,2/3"))
def test_banded_table_and_per_q_pass_match_oracle(band):
    band = GcdBand.parse(band)
    for d in (2, 3, 4):
        for a_d in (1, -6, 12, 3 * 2**70):
            for N, Q in _BANDED_RANGES:
                want = [banded_center_count_per_q(q, band, d, a_d) for q in range(N, Q + 1)]
                assert any(want), (band, d, a_d, N)
                assert _table(N, Q, d, a_d, band) == want, (band, d, a_d, N)
                assert _per_q(N, Q, d, a_d, band) == want, (band, d, a_d, N)


def test_banded_table_where_the_cofactor_divides_a_d():
    # the prime P left after the block's primes divides a_d: 65521 and 65537
    # past isqrt(Q), and 2 and 3 in ranges too short to divide them out
    cases = ((-(3**50) * 65537 * 65521, 65000, 66000), (6, 1, 3), (6, 6, 6), (12, 2, 3))
    for text in ("0,1", "0,1/3", "1/2,1/4"):
        band = GcdBand.parse(text)
        for d in (2, 3):
            for a_d, N, Q in cases:
                want = [banded_center_count_per_q(q, band, d, a_d) for q in range(N, Q + 1)]
                assert _table(N, Q, d, a_d, band) == want, (text, d, a_d, N)


def test_banded_counts_are_equal_at_a_d_and_minus_a_d():
    # x -> -x maps a_d G_d(q) onto -a_d G_d(q) and keeps gcd(b, q), so the
    # table may take |a_d|; the per-q pass takes a_d as given
    for text in ("0,1/3", "1/4,1/2", "1/3,2/3"):
        band = GcdBand.parse(text)
        for d in (2, 3, 4):
            for a_d in (1, 6, 12, 3 * 2**70):
                for N, Q in _BANDED_RANGES[:2]:
                    want = _per_q(N, Q, d, a_d, band)
                    assert _per_q(N, Q, d, -a_d, band) == want, (text, d, a_d, N)
                    assert _table(N, Q, d, -a_d, band) == want, (text, d, a_d, N)


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_count_table_matches_closed_form(d):
    ranges = (
        (1, 3000),
        (2**20 - 500, 2**20 + 500),
        (COUNT_BLOCK - 300, COUNT_BLOCK + 300),  # a block boundary
    )
    for a_d in (1, -1, 2, -6, 8, 12, 30):
        for N, Q in ranges:
            expected = [scaled_power_residue_count(q, d, a_d) for q in range(N, Q + 1)]
            assert _table(N, Q, d, a_d) == expected, (d, a_d, N, Q)


def test_count_table_large_a_d_and_tiny_ranges():
    # a_d beyond int64, with primes above isqrt(Q) that divide it
    for a_d in (2**70 * 1000003, -(3**50) * 65537 * 65521):
        for N, Q in ((1, 400), (65000, 66000)):
            expected = [scaled_power_residue_count(q, 2, a_d) for q in range(N, Q + 1)]
            assert _table(N, Q, 2, a_d) == expected, (a_d, N, Q)
    for N, Q in ((1, 1), (1, 3), (2, 2), (7, 7), (5, 4)):
        assert _table(N, Q, 3, 1) == [scaled_power_residue_count(q, 3, 1) for q in range(N, Q + 1)]


def _probe_table_blocks(monkeypatch):
    """A list that records the (lo, hi) of each ``_count_block`` call: the
    count table's blocks."""
    blocks = []
    count_block = covers._count_block
    monkeypatch.setattr(
        covers,
        "_count_block",
        lambda lo, hi, *args: blocks.append((lo, hi)) or count_block(lo, hi, *args),
    )
    return blocks


def test_count_table_refuses_q_past_table_qmax(monkeypatch):
    # past TABLE_QMAX the full band factors each q, however long the range
    blocks = _probe_table_blocks(monkeypatch)
    N = TABLE_QMAX - TABLE_MIN
    assert _counts(N, TABLE_QMAX, GcdBand.full(), 2, 1) == [
        banded_center_count_per_q(q, GcdBand.full(), 2, 1) for q in range(N, TABLE_QMAX + 1)
    ]
    assert blocks == []
    for tau in (3, Fraction(7, 2)):
        Q = TABLE_QMAX + 3
        want = _per_q_tail_sum(Fraction(tau), 2, 1, TABLE_QMAX, Q)
        assert tail_sum(tau, 2, 1, TABLE_QMAX, Q, GcdBand.full()) == want
    assert blocks == []


@pytest.mark.parametrize("N", (1000, 1 << 30))
def test_center_counts_take_the_table_from_table_min_moduli(monkeypatch, N):
    # below and past 2^24, for the full band and a band alike, TABLE_MIN - 1
    # moduli take the per-q pass and TABLE_MIN moduli the table
    blocks = _probe_table_blocks(monkeypatch)
    for band, d, a_d in ((GcdBand.full(), 2, 1), (GcdBand.parse("1/4,1/2"), 3, 12)):
        for L, used in ((TABLE_MIN - 1, []), (TABLE_MIN, [(N, N + TABLE_MIN - 1)])):
            Q = N + L - 1
            blocks.clear()
            assert _counts(N, Q, band, d, a_d) == [
                banded_center_count_per_q(q, band, d, a_d) for q in range(N, Q + 1)
            ]
            assert blocks == used, (band, L)


def _encloses(lo, hi, numerator, q, u, v, bits):
    """lo / 2^bits <= numerator / q^(u/v) <= hi / 2^bits, decided as
    lo^v q^u <= (numerator 2^bits)^v <= hi^v q^u."""
    scaled = (numerator << bits) ** v
    return 0 <= lo and lo**v * q**u <= scaled <= hi**v * q**u


def _split_term(numerator, q, u, v, bits):
    """The split oracle's rounding of one term, checked to enclose the
    term and to contain the unsplit rounding."""
    lo, hi = ratio_with_root_bounds(numerator, q, u, v, bits)
    unsplit_lo, unsplit_hi = unsplit_ratio_bounds(numerator, q, u, v, bits)
    assert _encloses(lo, hi, numerator, q, u, v, bits), (numerator, q, u, v, bits)
    assert lo <= unsplit_lo <= unsplit_hi <= hi, (numerator, q, u, v, bits)
    return lo, hi


def _per_q_tail_sum(tau, d, a_d, N, Q, oracle=_split_term):
    """Full-band tail sum with one closed-form count per q, each term
    rounded by a bisection oracle."""
    lo = hi = 0
    for q in range(N, Q + 1):
        count = scaled_power_residue_count(q, d, a_d)
        term_lo, term_hi = oracle(
            2 * count * q ** (d - 1), q, tau.numerator, tau.denominator, SUM_BITS
        )
        lo += term_lo
        hi += term_hi
    return Fraction(lo, 1 << SUM_BITS), Fraction(hi, 1 << SUM_BITS)


def test_full_band_tail_sum_equals_per_q_sum():
    # the threshold schedule 2^2..2^14 at the taus of the benchmark; every
    # term encloses its value and contains the unsplit rounding
    for tau in (Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(9, 2)):
        prev = 0
        for e in range(2, 15):
            Q = 1 << e
            assert tail_sum(tau, 2, 1, prev + 1, Q, GcdBand.full()) == _per_q_tail_sum(
                tau, 2, 1, prev + 1, Q
            ), (tau, Q)
            prev = Q
    assert tail_sum(Fraction(13, 3), 3, -6, 1, 700, GcdBand.full()) == _per_q_tail_sum(
        Fraction(13, 3), 3, -6, 1, 700
    )


def test_add_ratios_matches_oracle():
    qs = list(range(1, 401)) + list(range(2**18 - 300, 2**18 + 1))
    for u, v in ((3, 1), (5, 2), (7, 2), (9, 2), (6, 5), (7, 5), (13, 4), (3, 5)):
        for bits in (32, 64, 96):
            for numerator in (0, 1, 3**19):
                terms = [_split_term(numerator, q, u, v, bits) for q in qs]
                expected = (5 + sum(lo for lo, _ in terms), 7 + sum(hi for _, hi in terms))
                acc = IntervalSum(bits)
                acc.lo, acc.hi = 5, 7  # the batch adds to what is there
                acc.add_ratios([numerator] * len(qs), qs, u, v)
                assert (acc.lo, acc.hi) == expected, (numerator, u, v, bits)
                acc.add_ratios([], [], u, v)
                assert (acc.lo, acc.hi) == expected
            # mixed numerators in one batch, and the single-term call
            nums = [(0, 1, 3**19)[q % 3] for q in qs]
            acc = IntervalSum(bits)
            acc.add_ratios(nums, qs, u, v)
            single = IntervalSum(bits)
            for n, q in zip(nums, qs):
                single.add_ratio_with_root(n, q, u, v)
            bounds = [ratio_with_root_bounds(n, q, u, v, bits) for n, q in zip(nums, qs)]
            assert (acc.lo, acc.hi) == (single.lo, single.hi) == (
                sum(lo for lo, _ in bounds),
                sum(hi for _, hi in bounds),
            ), (u, v, bits)


_SPLITS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (11, 20))


def test_split_roots_match_bisection():
    # R = floor(2^bits q^(w/v)) from float seeds and the exact descent, for
    # small q, q near 2^18, 2^24 and 2^47, and exact powers q = m^v, where
    # R = m^w 2^bits and the float seed may sit on either side of it
    near = [q for e in (18, 24, 47) for q in range(2**e - 20, 2**e + 21)]
    qs = list(range(1, 401)) + near
    for w, v in _SPLITS:
        powers = [m**v for m in (2, 3, 7, 10, 97, 1 << 10, 3**7) if m**v < 2**62]
        for bits in (32, 64, 96):
            for case in (qs, powers):
                roots = covers._split_roots(case, w, v, bits)
                assert roots == [floor_root(q**w << (v * bits), v) for q in case], (w, v, bits)
            assert [r >> bits for r in covers._split_roots(powers, w, v, bits)] == [
                round(q ** (w / v)) for q in powers
            ]


def test_split_roots_past_the_float_range():
    # 2^bits q^(w/v) overflows a float here, so the descent starts from
    # iroot's own seed
    for w, v in ((1, 3), (3, 4), (11, 20)):
        qs = [1, 2, 3**20, 2**47 + 5]
        roots = covers._split_roots(qs, w, v, 1100)
        assert roots == [floor_root(q**w << (v * 1100), v) for q in qs], (w, v)


_TAILS_TAUS = {
    (2, 1): [Fraction(7, 2), Fraction(3), Fraction(9, 2), Fraction(13, 4)],
    (3, -6): [Fraction(13, 3), Fraction(7, 2), Fraction(4), Fraction(9, 2)],
}


@pytest.mark.parametrize("band", ("full", "1/2,1/4", "1/4,1/2"))
@pytest.mark.parametrize("d,a_d", ((2, 1), (3, -6)))
def test_tail_sums_equal_tail_sum_per_tau(band, d, a_d):
    band = GcdBand.parse(band)
    taus = _TAILS_TAUS[d, a_d]
    ranges = [(1, 300), (97, 1024), (COUNT_BLOCK - 40, COUNT_BLOCK + 40)]
    for N, Q in ranges:
        [sums] = tail_sums(taus, d, a_d, N, [Q], band)
        assert all(isinstance(x, Fraction) for pair in sums for x in pair)
        assert sums == [tail_sum(t, d, a_d, N, Q, band) for t in taus], (N, Q)
    assert tail_sums(taus, d, a_d, 12, [11], band) == [[(0, 0)] * len(taus)]
    assert tail_sums([], d, a_d, 1, [50], band) == [[]]


_SHARED_TAUS = [Fraction(5, 2), Fraction(7, 2), Fraction(9, 2), Fraction(3), Fraction(13, 4)]


def test_tail_sums_share_roots_across_taus(monkeypatch):
    # 5/2, 7/2 and 9/2 share their roots floor(2^96 q^(1/2)); 3 takes none
    for band, ranges in (
        ("full", [(1, 300), (COUNT_BLOCK - 40, COUNT_BLOCK + 40)]),
        ("1/4,1/2", [(97, 1024)]),
    ):
        band = GcdBand.parse(band)
        for N, Q in ranges:
            [sums] = tail_sums(_SHARED_TAUS, 2, 1, N, [Q], band)
            assert sums == [tail_sum(t, 2, 1, N, Q, band) for t in _SHARED_TAUS], (N, Q)
    calls = []
    split_roots = covers._split_roots

    def counted(qs, w, v, bits):
        calls.append((len(qs), w, v))
        return split_roots(qs, w, v, bits)

    monkeypatch.setattr(covers, "_split_roots", counted)
    tail_sums(_SHARED_TAUS, 2, 1, COUNT_BLOCK - 40, [COUNT_BLOCK + 3 * ROOT_CHUNK], GcdBand.full())
    chunks = [40, ROOT_CHUNK, ROOT_CHUNK, ROOT_CHUNK, 1]  # two blocks, chunked
    assert sorted(calls) == sorted((n, w, v) for n in chunks for w, v in ((1, 2), (1, 4)))


def test_tail_sums_share_divisions_within_a_split(monkeypatch):
    # the taus with one w/v (integer taus too) are rounded in one
    # ``_add_terms`` call per chunk, once at the least k, and give the
    # per-term oracle's integers; [1, 700] is one chunk of 700 terms
    cases = (
        ([Fraction(5, 2), Fraction(3), Fraction(7, 2)], 2, {(1, 2, (1, 2)), (0, 1, (2,))}),
        ([Fraction(3), Fraction(4), Fraction(5)], 2, {(0, 1, (2, 3, 4))}),
        (
            [Fraction(7, 3), Fraction(10, 3), Fraction(13, 3), Fraction(13, 4)],
            2,
            {(1, 3, (1, 2, 3)), (1, 4, (2,))},
        ),
        ([Fraction(11, 2), Fraction(7, 2)], 3, {(1, 2, (1, 3))}),
    )
    expected = [
        [_per_q_tail_sum(t, d, 1, 1, 700) for t in taus] for taus, d, _ in cases
    ]
    seen = []
    add_terms = covers._add_terms

    def record(group, numerators, qs, w, v):
        seen.append((w, v, tuple(sorted(k for k, _ in group)), len(qs)))
        return add_terms(group, numerators, qs, w, v)

    monkeypatch.setattr(covers, "_add_terms", record)
    for (taus, d, groups), want in zip(cases, expected):
        seen.clear()
        assert tail_sums(taus, d, 1, 1, [700], GcdBand.full()) == [want], taus
        assert sorted(seen) == sorted(group + (700,) for group in groups), taus


def test_tail_sums_nest_outside_unsplit_rounding():
    # over the threshold schedule 2^2..2^14 each segment's sum contains the
    # unsplit rounding's sum and is at most twice as wide
    schedule = [1 << e for e in range(2, 15)]
    segments = tail_sums(_SHARED_TAUS, 2, 1, 1, schedule, GcdBand.full())
    assert len(segments) == len(schedule)
    for prev, Q, sums in zip([0, *schedule], schedule, segments):
        for tau, (lo, hi) in zip(_SHARED_TAUS, sums):
            ulo, uhi = _per_q_tail_sum(tau, 2, 1, prev + 1, Q, unsplit_ratio_bounds)
            assert lo <= ulo <= uhi <= hi, (tau, Q)
            assert hi - lo <= 2 * (uhi - ulo), (tau, Q)


# (N, ends): segments of the doubling schedule from 4 (the first ones
# shorter than TABLE_MIN, so one pass reads the count table where a call per
# segment factors each q, the last ones longer than ROOT_CHUNK); segments
# around a COUNT_BLOCK boundary, one of a single q, one crossing the
# boundary and longer than ROOT_CHUNK, one ending where a block starts;
# segments wholly below N
_SCHEDULES = (
    (1, [1 << e for e in range(2, 13)]),
    (COUNT_BLOCK - 1500, [COUNT_BLOCK - 1495, COUNT_BLOCK - 1494, COUNT_BLOCK - 1400,
                          COUNT_BLOCK, COUNT_BLOCK + 40, COUNT_BLOCK + 1100]),
    (40, [10, 39, 45, 100]),
)


@pytest.mark.parametrize("band", ("full", "1/4,1/2"))
@pytest.mark.parametrize("d,a_d", ((2, 1), (2, 6), (3, -6)))
def test_tail_sums_over_a_schedule_equal_one_call_per_segment(monkeypatch, band, d, a_d):
    band = GcdBand.parse(band)
    taus = _TAILS_TAUS[2, 1] if d == 2 else _TAILS_TAUS[3, -6]
    passes = []
    counts = covers.center_counts

    def recorded(N, Q, *args):
        passes.append((N, Q))
        return counts(N, Q, *args)

    for N, ends in _SCHEDULES:
        want = [
            tail_sums(taus, d, a_d, max(N, prev + 1), [end], band)[0]
            for prev, end in zip([N - 1, *ends], ends)
        ]
        monkeypatch.setattr(covers, "center_counts", recorded)
        passes.clear()
        assert tail_sums(taus, d, a_d, N, ends, band) == want, (N, ends)
        assert passes == [(N, ends[-1])]
        monkeypatch.setattr(covers, "center_counts", counts)


def test_tail_sums_refuse_ends_that_do_not_ascend(monkeypatch):
    # like a bad tau, refused before any count is taken or any term rounded
    calls = []
    for name in ("_add_terms", "center_counts"):
        monkeypatch.setattr(covers, name, lambda *args, name=name: calls.append(name))
    for ends, message in (
        ([8, 4], "got 4 after 8"),
        ([4, 4], "got 4 after 4"),
        ([4, 8, 6, 16], "got 6 after 8"),
    ):
        with pytest.raises(ValueError, match=f"segment ends must ascend, {message}"):
            tail_sums([Fraction(7, 2)], 2, 1, 1, ends, GcdBand.full())
    assert tail_sums([Fraction(7, 2)], 2, 1, 1, [], GcdBand.full()) == []
    assert calls == []


def test_tail_sums_check_every_tau_before_summing(monkeypatch):
    # a bad tau is refused before any count is taken or any term rounded
    calls = []
    for name in ("_add_terms", "center_counts"):
        monkeypatch.setattr(covers, name, lambda *args, name=name: calls.append(name))
    for band in (GcdBand.full(), GcdBand.parse("1/4,1/2")):
        for d, second in ((2, Fraction(2)), (2, Fraction(3, 2)), (3, Fraction(3))):
            with pytest.raises(ValueError, match=f"needs tau > d, got tau={second}, d={d}"):
                tail_sums([Fraction(9, 2), second, Fraction(5)], d, 1, 1, [100], band)
    assert calls == []


def test_tail_sum_validates_like_per_q_path():
    band = GcdBand(Fraction(1, 4), Fraction(1, 4))
    for d, a_d, N, message in (
        (2, 0, 1, "a_d must be nonzero"),
        (1, 1, 1, "power degree must be >= 2, got 1"),
        (2, 1, 0, "modulus must be >= 1, got 0"),
        (2, 1, -3, "modulus must be >= 1, got -3"),
    ):
        with pytest.raises(ValueError) as per_q:
            scaled_power_residue_count(N, d, a_d)
        assert str(per_q.value) == message
        for b in (GcdBand.full(), band):
            with pytest.raises(ValueError) as raised:
                tail_sum(3, d, a_d, N, 10, b)
            assert str(raised.value) == message, b.format()
        # an empty range sums to zero before any count is asked for
        assert tail_sum(3, d, a_d, 11, 10, GcdBand.full()) == (0, 0)


def test_tail_sum_three_terms_exact():
    # q = 2, 3, 4 at tau = 4: 1/2 + 4/27 + 1/16 = 307/432
    lo, hi = tail_sum(4, 2, 1, 2, 4, GcdBand.full())
    expected = sum(cover_measure(q, 4, 2, 1).measure_lo for q in (2, 3, 4))
    assert expected == Fraction(307, 432)
    assert lo <= expected <= hi
    assert hi - lo <= Fraction(6, 2**96)


def test_tail_sum_monotone_in_Q():
    prev_hi = Fraction(0)
    prev_lo = Fraction(0)
    for Q in (4, 8, 16, 32, 64):
        lo, hi = tail_sum(Fraction(7, 2), 2, 1, 1, Q, GcdBand.full())
        assert lo >= prev_lo and hi >= prev_hi
        prev_lo, prev_hi = lo, hi


def test_tail_sum_banded_uses_oracle_truth():
    band = GcdBand(Fraction(1, 4), Fraction(1, 5))
    lo, hi = tail_sum(3, 2, 1, 12, 12, band)
    # exact count 1 center-class: measure 2 * 1 * 12 / 12^3
    expected = Fraction(2 * 12, 12**3)
    assert lo <= expected <= hi


def test_banded_sum_bound_chain():
    # q^(1-eps-delta) / (4d)^omega <= sum of banded r_d(l) <= 2^omega tau(q)^2 q^(1-eps).
    # The upper bound holds for every q.  The lower bound presupposes a
    # divisor of q inside the band window; it holds unconditionally for
    # eps = 0 (a = 1 is always in band) and is vacuously false otherwise
    # for window-free q -- see the pinned counterexample below.
    d = 2
    for eps, delta in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 4))):
        band = GcdBand(eps, delta)
        # q = 1 is degenerate for every band: 1 < 1^(eps+delta) fails, so no
        # divisor is ever in band there
        assert band.cuts(1) == (1, 1)
        for q in range(2, 1500):
            f = factorize(q)
            w = distinct_prime_count(f)
            t = divisor_count(f)
            lo, hi = band.cuts(q)
            in_band = [a for a in divisors(f) if lo <= a < hi]
            total = sum(power_residue_count(q // a, d) for a in in_band)
            # right: total <= 2^w tau(q)^2 q^(1-eps), always
            if total:
                assert cmp_frac_qpow(
                    Fraction(total, 2**w * t**2), q, 1 - eps
                ) <= 0, q
            # left: q^(1-eps-delta) <= (4d)^w * total, whenever the window
            # is inhabited (always the case at eps = 0)
            if eps == 0:
                assert in_band, q
            if in_band:
                assert cmp_frac_qpow(
                    Fraction((4 * d) ** w * total), q, 1 - eps - delta
                ) >= 0, q


def test_banded_lower_bound_counterexample():
    # q = 7 has no divisor in [7^(1/4), 7^(1/2)): the divisor sum is empty
    # and the lower-bound side of the chain cannot hold there
    band = GcdBand(Fraction(1, 4), Fraction(1, 4))
    lo, hi = band.cuts(7)
    assert (lo, hi) == (2, 3)
    assert [a for a in divisors(factorize(7)) if lo <= a < hi] == []
    assert divisor_sum_center_bound(7, band, 2) == 0
    assert cmp_frac_qpow(Fraction(0), 7, Fraction(1, 2)) < 0  # 0 < 7^(1/2)


def test_threshold_dichotomy_small_scale():
    # partial sums flatten for tau = 3.5 and keep growing for tau = 2.5
    full = GcdBand.full()
    sums35 = []
    sums25 = []
    prev = 1
    acc35 = Fraction(0)
    acc25 = Fraction(0)
    for Q in (2**k for k in range(4, 13)):
        lo35, hi35 = tail_sum(Fraction(7, 2), 2, 1, prev, Q, full)
        lo25, hi25 = tail_sum(Fraction(5, 2), 2, 1, prev, Q, full)
        acc35 += (lo35 + hi35) / 2
        acc25 += (lo25 + hi25) / 2
        sums35.append(acc35)
        sums25.append(acc25)
        prev = Q + 1
    # quadrupling increments shrink by ~2 for tau=3.5 and grow for tau=2.5
    inc35 = [sums35[i] - sums35[i - 2] for i in (4, 6, 8)]
    assert inc35[0] > inc35[1] * Fraction(3, 2) > inc35[2] * Fraction(9, 4)
    inc25 = [sums25[i] - sums25[i - 2] for i in (4, 6, 8)]
    assert inc25[0] < inc25[1] < inc25[2]


def test_interval_sum_certification():
    acc = IntervalSum(64)
    acc.add_ratios([1], [3], 1, 1)  # 1 / 3
    acc.add_ratio_with_root(7, 5, 1, 2)  # 7 / sqrt(5)
    lo, hi = acc.interval()
    # lo <= 1/3 + 7/sqrt(5) <= hi, decided exactly: with x = bound - 1/3,
    # x <= 7/sqrt(5) iff x <= 0 or 5 x^2 <= 49
    x_lo, x_hi = lo - Fraction(1, 3), hi - Fraction(1, 3)
    assert x_lo <= 0 or 5 * x_lo**2 <= 49
    assert x_hi > 0 and 5 * x_hi**2 >= 49
    assert hi - lo < Fraction(1, 2**60)


def test_restricted_series_examples():
    # q = 1 only
    lo, hi = restricted_series_partial(Fraction(5, 3), Fraction(3, 2), 7, 1)
    assert lo <= 1 <= hi and hi - lo <= Fraction(1, 2**62)
    # z = 1, n = 1, s = 2: partial sums approach pi^2/6 within 1/Q
    for Q in (100, 1000):
        lo, hi = restricted_series_partial(1, 2, 1, Q)
        zeta2 = math.pi**2 / 6
        assert float(lo) <= zeta2 <= float(hi) + 1 / Q
        assert zeta2 - float(hi) <= 1 / Q
    # Euler product cross-check at s = 2
    lo, hi = restricted_series_partial(2, 2, 6, 5000)
    prod = euler_product_partial(2, 2, 6, 5000)
    assert abs(float(prod) - float((lo + hi) / 2)) < 0.02


def _series_oracle(z, s, n, qs):
    """Exact sum over q in qs with gcd(q, n) = 1 of z^omega(q) / q^s, at
    integer s."""
    terms = (Fraction(z) ** omega(q) / q**s for q in qs if math.gcd(q, n) == 1)
    return sum(terms, Fraction(0))


@pytest.mark.parametrize("z", [Fraction(2, 3), Fraction(5, 2), 3])
def test_restricted_series_encloses_exact_sum(z):
    # n = 2 * 1009 has a prime factor above isqrt(5000)
    for s, n, Q in ((2, 2 * 1009, 5000), (1, 6, 3000), (3, 30, 97), (2, 7, 1)):
        lo, hi = restricted_series_partial(z, s, n, Q)
        assert lo <= _series_oracle(z, s, n, range(1, Q + 1)) <= hi
        assert hi - lo <= Fraction(Q, 2**63)
    # across the table's block boundary at 2^16: the two partial sums
    # enclose the exact sum of the terms between them
    Q0, Q1 = (1 << 16) - 200, (1 << 16) + 200
    lo0, hi0 = restricted_series_partial(z, 2, 2 * 1009, Q0)
    lo1, hi1 = restricted_series_partial(z, 2, 2 * 1009, Q1)
    assert lo1 - hi0 <= _series_oracle(z, 2, 2 * 1009, range(Q0 + 1, Q1 + 1)) <= hi1 - lo0


def _per_term_series(z, s, n, Q, bits=64):
    """The series with every term rounded on its own in
    ``IntervalSum.add_ratios``, omega(q) by trial division."""
    z, s = Fraction(z), Fraction(s)
    W = Q.bit_length()
    weight = [z.numerator**w * z.denominator ** (W - w) for w in range(W + 1)]
    qs = [q for q in range(2, Q + 1) if math.gcd(q, n) == 1]
    acc = IntervalSum(bits)
    acc.lo = acc.hi = weight[0] << bits
    acc.add_ratios([weight[omega(q)] for q in qs], qs, s.numerator, s.denominator)
    lo, hi = acc.interval()
    return lo / z.denominator**W, hi / z.denominator**W


def _record_per_term(monkeypatch):
    """The (numerator, q) pairs that reach ``IntervalSum.add_ratios``."""
    seen = []
    add_ratios = IntervalSum.add_ratios

    def record(self, numerators, qs, u, v):
        seen.extend(zip(numerators, qs))
        return add_ratios(self, numerators, qs, u, v)

    monkeypatch.setattr(IntervalSum, "add_ratios", record)
    return seen


# the block length steps up from 32 to 64 at q = 2^14 and to 128 at 2^15
_SWITCH_WINDOWS = [((1 << 14) - 150, (1 << 14) + 150), ((1 << 15) - 150, (1 << 15) + 150)]


@pytest.mark.parametrize("s", [1, 2, 3])
def test_restricted_series_block_rule_encloses_exact_sum(s, monkeypatch):
    # windows of q where blocks take the Taylor rule, one across the count
    # table's edge at 2^16 and two where the block length steps up: two
    # partial sums enclose the exact sum between
    per_term = _record_per_term(monkeypatch)
    edge = ((1 << 16) - 150, (1 << 16) + 150)
    windows = ((3, 2 * 1009, (6000, 6300)), (3, 2 * 1009, edge), (Fraction(5, 2), 6, edge))
    windows += tuple((z, 6, window) for z in (2, 3) for window in _SWITCH_WINDOWS)
    for z, n, (Q0, Q1) in windows:
        per_term.clear()
        lo0, hi0 = restricted_series_partial(z, s, n, Q0)
        lo1, hi1 = restricted_series_partial(z, s, n, Q1)
        window = range(Q0 + 1, Q1 + 1)
        assert not any(q in window for _, q in per_term), (z, Q0)
        assert lo1 - hi0 <= _series_oracle(z, s, n, window) <= hi1 - lo0
        assert hi1 - lo1 <= Fraction(Q1, 2**63)


@pytest.mark.parametrize("s", [Fraction(6, 5), Fraction(7, 5), Fraction(13, 4)])
def test_restricted_series_block_rule_overlaps_bisection_oracle(s, monkeypatch):
    per_term = _record_per_term(monkeypatch)
    bits = 192
    for Q0, Q1 in [((1 << 15) - 100, (1 << 15) + 100)] + _SWITCH_WINDOWS:
        per_term.clear()
        lo0, hi0 = restricted_series_partial(2, s, 1, Q0)
        lo1, hi1 = restricted_series_partial(2, s, 1, Q1)
        assert not any(Q0 < q <= Q1 for _, q in per_term), Q0
        bounds = [
            ratio_with_root_bounds(2 ** omega(q), q, s.numerator, s.denominator, bits)
            for q in range(Q0 + 1, Q1 + 1)
        ]
        oracle_lo = Fraction(sum(lo for lo, _ in bounds), 1 << bits)
        oracle_hi = Fraction(sum(hi for _, hi in bounds), 1 << bits)
        assert oracle_lo <= hi1 - lo0 and lo1 - hi0 <= oracle_hi, Q0


def _record_block_lengths(monkeypatch):
    """The (first modulus, H, rows) of each span that reaches
    ``IntervalSum._add_blocks``."""
    seen = []
    add_blocks = IntervalSum._add_blocks

    def record(self, nums, q0, u, v):
        seen.append((q0, nums.shape[1], nums.shape[0]))
        return add_blocks(self, nums, q0, u, v)

    monkeypatch.setattr(IntervalSum, "_add_blocks", record)
    return seen


@pytest.mark.parametrize("z", [2, 3])
def test_block_length_grows_with_q(z, monkeypatch):
    spans = _record_block_lengths(monkeypatch)
    restricted_series_partial(z, Fraction(6, 5), 6, 3 << 15)
    for q0, H, _ in spans:
        assert H == (128 if q0 >= 1 << 15 else 64 if q0 >= 1 << 14 else 32), (q0, H)
    # each length starts within one block of its switch point, and the
    # spans cover [2, 3 * 2^15] with no gap (the last block of a count
    # table block is padded)
    assert [(q0, H) for q0, H, _ in spans if q0 - H < H << 8 <= q0] == [
        (2 + 512 * 32, 64),
        (2 + 512 * 32 + 256 * 64, 128),
    ]
    for (q0, H, rows), (following, _, _) in zip(spans, spans[1:]):
        assert q0 < following <= q0 + H * rows
    q0, H, rows = spans[-1]
    assert q0 + H * rows > 3 << 15


def test_block_length_follows_the_moment_guard(monkeypatch):
    spans = _record_block_lengths(monkeypatch)
    q0, n = 1 << 16, 3 * 128
    for num, H in (
        (_TAYLOR_NUM_MAX[128], 128),
        (_TAYLOR_NUM_MAX[128] + 1, 64),
        (_TAYLOR_NUM_MAX[64], 64),
        (_TAYLOR_NUM_MAX[64] + 1, 32),
    ):
        spans.clear()
        nums = np.zeros(n, dtype=np.int64)
        nums[n // 2] = num  # one large numerator sets the span's length
        IntervalSum(64).add_consecutive(nums, q0, 6, 5)
        assert [h for _, h, _ in spans] == [H], num
    # below 2^15 the length is capped by q whatever the numerators
    spans.clear()
    IntervalSum(64).add_consecutive(np.ones(n, dtype=np.int64), 1 << 14, 6, 5)
    assert [h for _, h, _ in spans] == [64]


def test_taylor_moments_exact_at_each_length_bound():
    for H in TAYLOR_LENGTHS:
        bound = _TAYLOR_NUM_MAX[H]
        rows = _TAYLOR_POWERS[:H]
        nums = np.full((1, H), bound, dtype=np.int64)
        got = (nums @ np.array(rows, dtype=np.int64)).tolist()[0]
        assert got == [sum(bound * row[j] for row in rows) for j in range(len(rows[0]))], H
        # the bound is the largest that keeps the top moment below 2^63
        top = sum(row[-1] for row in rows)
        assert bound * top < 1 << 63 <= (bound + 1) * top


def test_block_length_rule_narrows_the_series(monkeypatch):
    # the benchmark's series inputs: the enclosure overlaps the one with
    # every block held at 32 moduli, and is no wider
    cases = [(z, s, n) for z in (2, 3) for s in (Fraction(6, 5), Fraction(7, 5)) for n in (6, 12)]
    grown = [restricted_series_partial(z, s, n, 1 << 18) for z, s, n in cases]
    monkeypatch.setattr(covers, "TAYLOR_LENGTHS", (32,))
    for case, (lo, hi) in zip(cases, grown):
        lo32, hi32 = restricted_series_partial(*case, 1 << 18)
        assert max(lo, lo32) <= min(hi, hi32), case
        assert hi - lo <= hi32 - lo32, case


@pytest.mark.parametrize("bits", [32, 48, 64])
def test_restricted_series_width_per_term(bits):
    for z, s, n, Q in (
        (2, Fraction(6, 5), 1, (1 << 16) + 100),
        (3, 2, 6, 20000),
        (Fraction(2, 3), Fraction(7, 5), 1, 5000),
        (8, Fraction(13, 4), 30, 3000),
    ):
        lo, hi = restricted_series_partial(z, s, n, Q, bits=bits)
        assert hi - lo <= Fraction(Q, 2 ** (bits - 1)), (z, s, n, Q)


def test_restricted_series_per_term_fallback(monkeypatch):
    # weights past the int64 guard (1/27 at W = 13: 27^12 and less, all in
    # int64; 10^20: past int64), and Q <= 2^10, where no block's Taylor
    # interval is narrow enough at s <= 2: every term is rounded on its
    # own, from a Python int numerator (an int64 shifted left by 2 bits
    # would wrap)
    per_term = _record_per_term(monkeypatch)
    cases = [(z, s, 6, 5000) for z in (Fraction(1, 27), 10**20) for s in (Fraction(6, 5), 2)]
    cases += [
        (z, s, n, Q)
        for z in (2, Fraction(2, 3), 8)
        for s in (Fraction(6, 5), Fraction(7, 5), 2)
        for n in (1, 6)
        for Q in (3, 33, 512, 1024)
    ]
    for z, s, n, Q in cases:
        per_term.clear()
        got = restricted_series_partial(z, s, n, Q)
        assert len(per_term) == sum(math.gcd(q, n) == 1 for q in range(2, Q + 1))
        assert all(type(num) is int for num, _ in per_term)
        assert got == _per_term_series(z, s, n, Q), (z, s, n, Q)


def test_interval_sums_refuse_bits_below_one():
    for bits in (0, -3):
        with pytest.raises(ValueError, match="bits must be >= 1"):
            IntervalSum(bits)
        with pytest.raises(ValueError, match="bits must be >= 1"):
            restricted_series_partial(2, 2, 1, 100, bits=bits)
        with pytest.raises(ValueError, match="bits must be >= 1"):
            tail_sum(Fraction(7, 2), 2, 1, 1, 100, GcdBand.full(), bits=bits)


def test_interval_sums_refuse_exponents_at_most_zero():
    # u = -1 once left lo = hi = 2^65 as a float inside the sum
    for u, v in ((-1, 1), (0, 1), (0, 3), (-7, 2), (1, 0), (1, -2)):
        acc = IntervalSum(64)
        with pytest.raises(ValueError, match="exponent u/v needs u > 0 and v > 0"):
            acc.add_ratios([1], [2], u, v)
        with pytest.raises(ValueError, match="exponent u/v needs u > 0 and v > 0"):
            acc.add_consecutive(np.ones(40, dtype=np.int64), 2, u, v)
        assert (acc.lo, acc.hi) == (0, 0)


def test_restricted_series_refuses_q_past_table_qmax():
    with pytest.raises(ValueError, match=r"Q < 2\^48"):
        restricted_series_partial(2, Fraction(6, 5), 6, TABLE_QMAX)


def _series_increment_ratio(z, n, s, Qs, bits=48):
    vals = []
    for Q in Qs:
        lo, hi = restricted_series_partial(z, s, n, Q, bits=bits)
        vals.append((lo + hi) / 2)
    return (vals[2] - vals[1]) / (vals[1] - vals[0])


def test_restricted_series_dichotomy():
    # At s = 1.2 the quadrupling increments shrink by ~4^-(s-1) = 0.758 times
    # a (log Q)^(z-1)-style drift, so desk-scale flattening is visible for
    # z = 1 and z = 2.  At s = 1.0 increments never shrink.
    Qs = (2**12, 2**14, 2**16)
    for z, n in ((1, 1), (2, 6)):
        assert _series_increment_ratio(z, n, Fraction(6, 5), Qs) < Fraction(17, 20), (z, n)
    for z, n in ((1, 1), (2, 6), (8, 30)):
        assert _series_increment_ratio(z, n, Fraction(1), Qs) > Fraction(99, 100), (z, n)


def test_restricted_series_heavy_weight_regression():
    # For z = 8 the summand behaves like an 8th zeta power: the s = 1.2 sum
    # does converge, but its increments keep growing until Q ~ e^35, so no
    # finite desk scale shows Cauchy flattening.  Pin the measured behaviour:
    # still slower than the genuinely divergent s = 1.0 trace.
    Qs = (2**12, 2**14, 2**16)
    r_conv = _series_increment_ratio(8, 30, Fraction(6, 5), Qs)
    r_div = _series_increment_ratio(8, 30, Fraction(1), Qs)
    assert Fraction(1) < r_conv < Fraction(6, 5)
    assert r_div > Fraction(14, 10)
    assert r_conv < r_div


def test_restricted_series_dichotomy_full_scale():
    Qs = (2**16, 2**18, 2**20)
    for z, n in ((1, 1), (2, 6)):
        assert _series_increment_ratio(z, n, Fraction(6, 5), Qs) < Fraction(17, 20), (z, n)
    for z, n in ((1, 1), (2, 6), (8, 30)):
        assert _series_increment_ratio(z, n, Fraction(1), Qs) > Fraction(99, 100), (z, n)


def test_tail_sum_chunked_merge_is_exact():
    # disjoint q-ranges merge by plain interval addition with no slack:
    # fixed-point accumulation is associative
    full = tail_sum(Fraction(7, 2), 2, 1, 1, 100, GcdBand.full())
    parts = [
        tail_sum(Fraction(7, 2), 2, 1, lo, hi, GcdBand.full())
        for lo, hi in ((1, 33), (34, 71), (72, 100))
    ]
    assert full == (sum(p[0] for p in parts), sum(p[1] for p in parts))
