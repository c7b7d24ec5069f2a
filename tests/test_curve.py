import math
import random
from fractions import Fraction

import pytest

from diocurve.arithmetic import PreconditionError
from diocurve.curve import (
    ConstrainedHit,
    IntPolynomial,
    derivative_sup_bound,
    eval_scaled,
    lift_constrained,
    reduce_simultaneous,
)


def test_polynomial_validation_and_parse():
    with pytest.raises(ValueError):
        IntPolynomial((1, 2))  # degree 1
    with pytest.raises(ValueError):
        IntPolynomial((1, 2, 0))  # zero leading coefficient
    poly = IntPolynomial.parse("0,0,-1")
    assert poly.degree == 2
    assert poly.lead_negated == 1
    assert poly.format() == "0,0,-1"
    assert IntPolynomial.parse(" 3 , 0 , -2 ").coefficients == (3, 0, -2)
    with pytest.raises(ValueError):
        IntPolynomial.parse("1,x,2")


def test_eval_scaled_examples():
    assert eval_scaled(IntPolynomial((0, 0, -1)), 3, 2) == -9
    assert eval_scaled(IntPolynomial((0, 1, 0, -1)), 1, 1) == 0  # P(1) = 0
    assert eval_scaled(IntPolynomial((3, 0, -2)), 5, 3) == -23
    # denominator-free by construction: q^d P(p/q) is this integer exactly
    poly = IntPolynomial((2, -1, 4, -3))
    p, q = 7, 5
    assert Fraction(eval_scaled(poly, p, q)) == poly(Fraction(p, q)) * q**3


def test_derivative_bound_examples():
    sq = IntPolynomial((0, 0, -1))
    assert derivative_sup_bound(sq, 0).value == 3  # 1 + sup|2x| on [0,1]
    assert derivative_sup_bound(sq, -1).value == 3
    shifted = IntPolynomial((7, 0, -1))
    assert derivative_sup_bound(shifted, 4).value == derivative_sup_bound(sq, 4).value


def test_derivative_bound_soundness_dense_sampling():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.choice((2, 3, 4))
        poly = IntPolynomial(
            tuple(rng.randrange(-9, 10) for _ in range(d)) + (rng.choice((-3, -1, 1, 2)),)
        )
        M = rng.randrange(-3, 3)
        K = derivative_sup_bound(poly, M).value
        for _ in range(500):
            x = Fraction(rng.randrange(0, 1001), 1000) + M
            assert 1 + abs(poly.derivative(x)) <= K


def test_reduce_example_19_64():
    poly = IntPolynomial((0, 0, -1))
    bound = derivative_sup_bound(poly, 0)
    hit = reduce_simultaneous(
        Fraction(19, 64), Fraction(33, 64), 1, 2, 0, Fraction(2), bound, poly
    )
    assert hit.b == 1
    assert hit.error == Fraction(3, 64)
    assert hit.error < Fraction(bound.value, 4)  # K_0 / q^tau = 3/4
    assert hit.gcd_bq == 1


def test_reduce_exact_point_gives_zero_error():
    poly = IntPolynomial((0, 0, -1))
    bound = derivative_sup_bound(poly, 0)
    # x = p/q and alpha = b'/q^d exactly
    x = Fraction(1, 2)
    r = 0
    bprime = r * 2 - eval_scaled(poly, 1, 2)
    alpha = Fraction(bprime, 4)
    hit = reduce_simultaneous(alpha, x, 1, 2, r, Fraction(2), bound, poly)
    assert hit.error == 0


def test_reduce_precondition_messages():
    poly = IntPolynomial((0, 0, -1))
    bound = derivative_sup_bound(poly, 0)
    with pytest.raises(PreconditionError, match="x - p/q"):
        reduce_simultaneous(
            Fraction(1, 3), Fraction(9, 10), 1, 2, 0, Fraction(2), bound, poly
        )
    with pytest.raises(PreconditionError, match="P\\(x\\)"):
        reduce_simultaneous(
            Fraction(9, 10), Fraction(33, 64), 1, 2, 0, Fraction(2), bound, poly
        )


def test_lift_examples():
    sq = IntPolynomial((0, 0, -1))
    bound = derivative_sup_bound(sq, 0)
    r, radius = lift_constrained(Fraction(1, 4), 1, 2, 1, Fraction(2), bound, sq)
    assert r == 0  # 1/4 - 1/4
    assert radius == Fraction(2 * bound.value, 4)
    cube = IntPolynomial((0, 0, 0, -1))
    bound3 = derivative_sup_bound(cube, 0)
    r, _ = lift_constrained(Fraction(2, 125), 2, 5, 3, Fraction(7, 2), bound3, cube)
    assert r == -1  # 5 * (2/125 - 27/125)
    # b = 0, p = 0, P(0) = 0 gives r = 0
    r, _ = lift_constrained(Fraction(0), 0, 9, 0, Fraction(3), bound, sq)
    assert r == 0


def test_lift_congruence_error():
    sq = IntPolynomial((0, 0, -1))
    bound = derivative_sup_bound(sq, 0)
    with pytest.raises(PreconditionError, match="congruence"):
        lift_constrained(Fraction(1, 4), 2, 4, 1, Fraction(3), bound, sq)


def test_lift_radius_is_certified_upper_bound():
    sq = IntPolynomial((0, 0, -1))
    bound = derivative_sup_bound(sq, 0)
    _, radius = lift_constrained(Fraction(1, 4), 1, 2, 1, Fraction(5, 2), bound, sq)
    # radius is a rational >= 2 K / q^tau:  radius^2 * q^5 >= (2K)^2
    assert radius**2 * 2**5 >= (2 * bound.value) ** 2


def _random_round_trip_instance(rng):
    d = rng.choice((2, 3))
    a_d = rng.choice((1, -1, 2))
    poly = IntPolynomial(
        tuple(rng.randrange(-3, 4) for _ in range(d)) + (-a_d,)
    )
    M = rng.randrange(-2, 2)
    bound = derivative_sup_bound(poly, M)
    tau = Fraction(rng.choice((2, 3)), 1) + Fraction(rng.choice((0, 1)), 2)
    q = rng.randrange(1, 40)
    p = rng.randrange(M * q, (M + 1) * q + 1)
    # x within q^-tau of p/q: q^-tau >= q^-4 always here
    x = Fraction(p, q) + Fraction(rng.randrange(-99, 100), 100 * q**4)
    # choose r so that P(x) + alpha is within q^-tau of r/q, alpha in [0,1]
    target = poly(x)
    r = math.floor(target * q) + rng.randrange(0, q + 1)
    alpha = Fraction(r, q) - target + Fraction(rng.choice((-1, 1)), 2 * q**4)
    return poly, bound, tau, q, p, x, r, alpha, M


def test_round_trip_200_random_instances():
    rng = random.Random(321)
    done = 0
    while done < 200:
        poly, bound, tau, q, p, x, r, alpha, M = _random_round_trip_instance(rng)
        try:
            hit = reduce_simultaneous(alpha, x, p, q, r, tau, bound, poly)
        except PreconditionError:
            continue  # constructed instance missed the inequality; rare
        # certified error: |alpha - b/q^d| < K_M / q^tau, exactly
        from diocurve.arithmetic import frac_lt_qpow

        assert frac_lt_qpow(hit.error / bound.value, q, -tau)
        # congruence consistency: b = a_d p^d (mod q)
        assert (hit.b - poly.lead_negated * pow(p, poly.degree, q)) % q == 0
        r_back, radius = lift_constrained(alpha, hit.b, q, p, tau, bound, poly)
        assert r_back == r
        # simultaneous approximation recovered within the certified radius
        # for sampled x' within q^-tau of p/q (endpoints-ish included)
        for k in (-9, -5, 0, 5, 9):
            xp = Fraction(p, q) + Fraction(k, 10) * Fraction(1, q**4)
            err = abs(poly(xp) + alpha - Fraction(r_back, q))
            assert err < radius
        done += 1


def test_constrained_hit_validation():
    with pytest.raises(ValueError):
        ConstrainedHit(2, 1, Fraction(-1, 4), 1)
    hit = ConstrainedHit(4, 0, Fraction(0), 4)
    assert hit.gcd_bq == 4  # gcd(0, q) = q convention
