import math
import random
from fractions import Fraction

import numpy as np
import pytest

from diocurve import _kernels
from diocurve.arithmetic import PreconditionError, factorize, get_sieve, is_probable_prime
from diocurve.curve import IntPolynomial, eval_scaled
from diocurve.residues import (
    ENUMERATION_LIMIT,
    ResidueSet,
    count_solutions,
    hensel_lift,
    is_power_residue,
    is_primitive_power_residue,
    power_residue_count,
    power_residues,
    scaled_power_residue_count,
    solution_witness,
    unit_power_count,
    unity_roots_count,
    zero_class_count_alt,
    _solvable,
    _solvable_block,
)


def brute_counts(q, d):
    powers = set()
    unit_powers = set()
    u = 0
    for m in range(q):
        x = pow(m, d, q)
        powers.add(x)
        if math.gcd(m, q) == 1:
            unit_powers.add(x)
            if x == 1 % q:
                u += 1
    return u, len(unit_powers), len(powers)


def test_unity_roots_examples():
    assert unity_roots_count(8, 2) == 4  # 1,3,5,7 all square to 1 mod 8
    assert unity_roots_count(7, 3) == 3  # 1,2,4
    assert unity_roots_count(5, 2) == 2  # +-1
    assert unity_roots_count(1, 2) == 1


def test_unit_power_examples():
    assert unit_power_count(7, 3) == 2  # {1, 6}
    assert unit_power_count(8, 2) == 1  # {1}
    assert unit_power_count(1, 5) == 1


def test_power_residue_count_examples():
    assert power_residue_count(8, 2) == 3  # {0, 1, 4}
    assert power_residue_count(7, 3) == 3  # {0, 1, 6}
    assert power_residue_count(12, 2) == 4  # {0,1,4,9} = r_2(4) * r_2(3)
    assert power_residue_count(4, 2) * power_residue_count(3, 2) == 4


def test_power_residues_enumeration():
    assert power_residues(5, 2).elements == (0, 1, 4)
    assert power_residues(1, 2).elements == (0,)
    assert power_residues(6, 2).elements == (0, 1, 3, 4)
    with pytest.raises(PreconditionError):
        power_residues(ENUMERATION_LIMIT + 1, 2)


def test_residue_set_invariants():
    rs = power_residues(36, 2)
    assert len(rs.elements) == power_residue_count(36, 2)
    with pytest.raises(ValueError):
        ResidueSet(5, (0, 7))


def test_closed_forms_vs_oracle_sample():
    # exhaustive small sweep; the acceptance suite pushes this to q <= 5000
    for d in (2, 3, 4, 5, 6):
        for q in range(1, 400):
            u, e, r = brute_counts(q, d)
            assert unity_roots_count(q, d) == u, (q, d)
            assert unit_power_count(q, d) == e, (q, d)
            assert power_residue_count(q, d) == r, (q, d)


def test_profile_closed_forms():
    from diocurve.arithmetic import euler_phi

    for q in (2, 8, 36, 360, 1):
        u, e, r = unity_roots_count(q, 2), unit_power_count(q, 2), power_residue_count(q, 2)
        if q == 8:
            assert (u, e, r) == (4, 1, 3)
        phi = euler_phi(factorize(q))
        assert phi % u == 0 and e == phi // u
        assert e <= r <= q or q == 1


def test_scaling_identity_examples():
    assert scaled_power_residue_count(4, 2, 2) == 2  # {0, 2}
    assert scaled_power_residue_count(9, 2, 3) == 2  # {0, 3}
    assert scaled_power_residue_count(7, 2, 1) == power_residue_count(7, 2) == 4


def test_scaling_identity_vs_enumeration():
    for q in range(1, 250):
        for a_d in (1, -1, 2, -3, 6, 12, -12):
            expected = len({a_d * pow(m, 2, q) % q for m in range(q)})
            assert scaled_power_residue_count(q, 2, a_d) == expected, (q, a_d)


def test_counts_take_the_factorization_of_q():
    # the same counts from q or from its Factorization, and the identity
    # |a_d G_d(q)| = r_d(q / gcd(q, a_d)) for either
    for q in (1, 8, 12, 360, 1001, 2**20 + 7, 2**40 + 15):
        f = factorize(q)
        for d in (2, 3, 4):
            assert unity_roots_count(f, d) == unity_roots_count(q, d)
            assert unit_power_count(f, d) == unit_power_count(q, d)
            assert power_residue_count(f, d) == power_residue_count(q, d)
            for a_d in (1, -6, 12, 2**45):
                expected = power_residue_count(q // math.gcd(q, a_d), d)
                assert scaled_power_residue_count(f, d, a_d) == expected, (q, d, a_d)
                assert scaled_power_residue_count(q, d, a_d) == expected, (q, d, a_d)
    with pytest.raises(ValueError, match="power degree must be >= 2, got 1"):
        unity_roots_count(factorize(12), 1)
    with pytest.raises(ValueError, match="a_d must be nonzero"):
        scaled_power_residue_count(factorize(12), 2, 0)


def test_membership_examples():
    assert is_power_residue(2, 7, 2, 1)  # 3^2 = 9 = 2
    assert not is_power_residue(5, 8, 2, 1)  # squares mod 8 = {0,1,4}
    assert is_power_residue(0, 97 * 64, 2, 1)  # p = 0 always works
    assert is_power_residue(0, 1, 2, 5)


def test_membership_vs_enumeration():
    rng = random.Random(11)
    for q in range(1, 500):
        for d in (2, 3, 4, 6):
            for a_d in (1, -1, 2, 5, -6, 12, -8):
                G = {a_d * pow(m, d, q) % q for m in range(q)}
                Gx = {
                    a_d * pow(m, d, q) % q
                    for m in range(q)
                    if math.gcd(m, q) == 1
                }
                for b in rng.sample(range(q), min(q, 8)):
                    assert is_power_residue(b, q, d, a_d) == (b in G), (b, q, d, a_d)
                    assert is_primitive_power_residue(b, q, d, a_d) == (b in Gx), (
                        b, q, d, a_d,
                    )


BLOCK_COEFFICIENTS = (1, -1, 2, -6, 12, 3 * 2**70)


def block_verdicts(qs, bs, d, a_d, unit):
    """The wide stage's class test at the moduli qs (nondecreasing) and
    numerators bs, on the factor pairs of one ``factor_pairs_block`` pass."""
    qs = np.array(qs, dtype=np.int64)
    root = math.isqrt(int(qs[-1]))
    pairs = _kernels.factor_pairs_block(qs, get_sieve(root).primes(root).tolist())
    return _solvable_block(np.array(bs, dtype=np.int64), pairs, d, a_d, unit).tolist()


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_block_class_test_matches_solvable_below_300(d):
    # every b mod q for every q <= 300 in one block
    qs = [q for q in range(1, 301) for _ in range(q)]
    bs = [b for q in range(1, 301) for b in range(q)]
    pairs = {q: factorize(q).factors for q in range(1, 301)}
    for a_d in BLOCK_COEFFICIENTS:
        for unit in (False, True):
            want = [_solvable(b, pairs[q], d, a_d, unit) for q, b in zip(qs, bs)]
            assert block_verdicts(qs, bs, d, a_d, unit) == want, (a_d, unit)


def test_block_class_test_matches_solvable_at_edge_moduli():
    # the deepest 2-adic and odd prime powers, the largest prime, and the
    # square of the largest prime at the root of the int64 modulus bound
    top = _kernels.POWMOD_QMAX
    top_prime = next(n for n in range(top, 0, -1) if is_probable_prime(n))
    root_prime = next(n for n in range(math.isqrt(top), 0, -1) if is_probable_prime(n))
    rng = random.Random(26)
    for q in (1 << 31, 3**19, 7**11, top_prime, root_prime**2):
        pairs = factorize(q).factors
        p = pairs[0][0]
        for d in (2, 3, 4, 5):
            for a_d in BLOCK_COEFFICIENTS:
                # zero, units, multiples of p^s, and classes a_d x^d, x = p^s y
                xs = [rng.randrange(q) for _ in range(20)]
                xs += [p**s * rng.randrange(1, q) for s in range(4)]
                bs = {0, 1, q - 1, *(rng.randrange(q) for _ in range(20))}
                bs |= {p**s * rng.randrange(1, q) % q for s in range(1, 8)}
                bs |= {a_d * pow(x, d, q) % q for x in xs}
                bs = sorted(bs)
                for unit in (False, True):
                    want = [_solvable(b, pairs, d, a_d, unit) for b in bs]
                    got = block_verdicts([q] * len(bs), bs, d, a_d, unit)
                    assert got == want, (q, d, a_d, unit)


def test_count_solutions_examples():
    assert count_solutions(2, 7, 2, 1) == 2 == unity_roots_count(7, 2)
    assert count_solutions(0, 8, 2, 1) == 2  # p in {0, 4}
    assert count_solutions(3, 5, 2, 1) == 0  # nonresidue


def test_count_solutions_vs_enumeration():
    # a_d = 12, -8 give v_p(a_d) >= 2; with d = 4 the zero class reaches t > 1
    for q in range(1, 400):
        for d in (2, 3, 4):
            for a_d in (1, 2, -3, 12, -8):
                for b in range(0, q, max(1, q // 7)):
                    expected = sum(
                        1 for p in range(q) if (a_d * pow(p, d, q) - b) % q == 0
                    )
                    assert count_solutions(b, q, d, a_d) == expected, (b, q, d, a_d)


def test_zero_coefficient_rejected():
    # a_d = 0 has no valuation; every function that takes a_d refuses it
    square = IntPolynomial((0, 0, -1))
    for call in (
        lambda: count_solutions(2, 7, 2, 0),
        lambda: is_power_residue(2, 7, 2, 0),
        lambda: is_primitive_power_residue(2, 7, 2, 0),
        lambda: scaled_power_residue_count(8, 2, 0),
        lambda: power_residues(8, 2, 0),
        lambda: solution_witness(0, 8, 2, 0),
        lambda: zero_class_count_alt(2, 3, 2, 0),
        lambda: hensel_lift(1, 1, 5, 2, 0, square),
    ):
        with pytest.raises(ValueError, match="^a_d must be nonzero$"):
            call()


def test_zero_class_count_discrepancy():
    # enumeration gives 2 solutions of p^2 = 0 mod 8; the complement-style
    # closed form gives 4.  Both are pinned so the disagreement stays visible.
    assert count_solutions(0, 8, 2, 1) == 2
    assert zero_class_count_alt(2, 3, 2, 1) == 4
    assert sum(1 for p in range(8) if p * p % 8 == 0) == 2


def test_multiplicativity_random_pairs():
    rng = random.Random(5)
    checked = 0
    while checked < 400:
        q1 = rng.randrange(2, 2000)
        q2 = rng.randrange(2, 2000)
        if math.gcd(q1, q2) != 1:
            continue
        d = rng.choice((2, 3, 4))
        assert power_residue_count(q1 * q2, d) == power_residue_count(
            q1, d
        ) * power_residue_count(q2, d)
        assert unity_roots_count(q1 * q2, d) == unity_roots_count(
            q1, d
        ) * unity_roots_count(q2, d)
        assert unit_power_count(q1 * q2, d) == unit_power_count(
            q1, d
        ) * unit_power_count(q2, d)
        b = rng.randrange(q1 * q2)
        assert count_solutions(b, q1 * q2, d) == count_solutions(
            b % q1, q1, d
        ) * count_solutions(b % q2, q2, d)
        checked += 1


def test_bound_chain_sample():
    # q / (|a_d| (4d)^omega) <= |a_d G_d(q)| and r_d(q) <= 2^omega tau(q) q,
    # plus 1 <= u_d <= (2d)^omega; acceptance pushes this to q <= 10^5
    from diocurve.arithmetic import divisor_count, distinct_prime_count

    for q in range(1, 2000):
        f = factorize(q)
        w = distinct_prime_count(f)
        t = divisor_count(f)
        for d, a_d in ((2, 1), (2, -6), (3, 2)):
            r_scaled = scaled_power_residue_count(q, d, a_d)
            assert q <= abs(a_d) * (4 * d) ** w * r_scaled, (q, d, a_d)
            assert power_residue_count(q, d) <= 2**w * t * q, (q, d)
            u = unity_roots_count(q, d)
            assert 1 <= u <= (2 * d) ** w, (q, d)


def test_solution_witness():
    assert solution_witness(2, 7, 2) == 3
    assert solution_witness(3, 5, 2) is None
    assert solution_witness(0, 8, 2) == 0


# ---------------------------------------------------------------------------
# Hensel lifting


def test_hensel_examples():
    cube = IntPolynomial((0, 0, 0, -1))  # -X^3
    assert hensel_lift(3, 2, 5, 3, 1, cube) == 3  # 3^3 = 27 = 2 mod 25
    # degenerate d=2: lift modulus is q itself
    square = IntPolynomial((0, 0, -1))
    assert hensel_lift(5, 25, 7, 2, 1, square) == 5 % 7
    # unit solution lifts to p = 1 mod q
    for q in (5, 7, 11, 35):
        p = hensel_lift(1, 1, q, 3, 1, cube)
        assert p % q == 1
        assert (-eval_scaled(cube, p, q) - 1) % q**2 == 0


def test_hensel_precondition_errors():
    cube = IntPolynomial((0, 0, 0, -1))
    with pytest.raises(PreconditionError, match="b = a_d"):
        hensel_lift(1, 3, 5, 3, 1, cube)  # 1^3 != 3 mod 5
    with pytest.raises(PreconditionError, match="gcd"):
        hensel_lift(5, 0, 5, 3, 1, cube)  # p not a unit
    with pytest.raises(PreconditionError, match="degree"):
        hensel_lift(1, 1, 5, 2, 1, cube)  # wrong d for this poly


def _random_admissible(rng):
    d = rng.choice((2, 3, 4))
    a_d = rng.choice((1, -1, 2, 3, -5))
    coeffs = [rng.randrange(-4, 5) for _ in range(d)] + [-a_d]
    poly = IntPolynomial(tuple(coeffs))
    while True:
        q = rng.randrange(2, 501)
        if math.gcd(q, d * a_d) != 1:
            continue
        p_t = rng.randrange(1, q)
        if math.gcd(p_t, q) != 1:
            continue
        b = (a_d * pow(p_t, d, q) + q * rng.randrange(0, q)) % q**2
        b += q**2 * rng.randrange(-2, 3)
        # keep b in the right class mod q
        b = a_d * pow(p_t, d, q) % q + q * rng.randrange(0, q ** (d - 1))
        return poly, d, a_d, q, p_t, b


def test_hensel_round_trip_500():
    rng = random.Random(2024)
    for _ in range(500):
        poly, d, a_d, q, p_t, b = _random_admissible(rng)
        p = hensel_lift(p_t, b, q, d, a_d, poly)
        mod = q ** (d - 1)
        assert 0 <= p < mod
        assert (-eval_scaled(poly, p, q) - b) % mod == 0  # full congruence
        assert (p - p_t) % q == 0
        assert (a_d * pow(p, d, q) - b) % q == 0  # reduction mod q
        assert math.gcd(q, p * d * a_d) == 1


def test_hensel_uniqueness_per_prime_power():
    rng = random.Random(77)
    for _ in range(60):
        poly, d, a_d, q, p_t, b = _random_admissible(rng)
        p = hensel_lift(p_t, b, q, d, a_d, poly)
        for prime, k in factorize(q).factors:
            pk = prime**k
            mod = pk ** (d - 1)
            sols = [
                x
                for x in range(p_t % pk, mod, pk)
                if (-eval_scaled(poly, x, q) - b) % mod == 0
            ]
            assert sols == [p % mod], (q, prime, k)
