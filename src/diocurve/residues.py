"""Power residues modulo q: counting functions, membership, solution counts,
and Hensel lifting for the congruence b = a_d * p^d.

Closed forms are evaluated per prime power and combined multiplicatively.
Every closed-form count here has a brute-force enumeration twin in the
test suite's oracles (or ``power_residues``); the formulas are trusted
only because the tests check them against exhaustive enumeration below a
large threshold.  Enumeration is authoritative throughout: one
classical-looking count fails it (kept as ``zero_class_count_alt`` for
regression), as does the divisor-sum banded count
(``covers.divisor_sum_center_bound``).  The per-prime-power helpers below
also give ``covers.banded_center_count`` its e_d factors and
``covers.scaled_count_blocks`` its r_d factors.

``solution_witness`` finds the least solution x by scanning every class
mod q.  No library path calls it: the hit scan decides solvability with
``is_power_residue`` and ``is_primitive_power_residue`` and records no
witness.  It stays as a small scan-based reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .arithmetic import PreconditionError, factorize
from .curve import IntPolynomial, eval_scaled

ENUMERATION_LIMIT = 10**6


def _check_qd(q: int, d: int) -> None:
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if d < 2:
        raise ValueError(f"power degree must be >= 2, got {d}")


def _phi_pp(p: int, k: int) -> int:
    return p ** (k - 1) * (p - 1) if k >= 1 else 1


def _u_pp(p: int, k: int, d: int) -> int:
    if k == 0:
        return 1
    phi = _phi_pp(p, k)
    if d % 2 == 0 and p == 2 and k >= 3:
        return math.gcd(2 * d, phi)
    return math.gcd(d, phi)


def _r_pp(p: int, k: int, d: int) -> int:
    # one term per divisibility class that still yields nonzero powers,
    # plus 1 for the zero class
    total = 1
    s = 0
    while k - s * d >= 1:
        kk = k - s * d
        total += _phi_pp(p, kk) // _u_pp(p, kk, d)
        s += 1
    return total


def unity_roots_count(q: int, d: int) -> int:
    """u_d(q): number of solutions of m^d = 1 (mod q)."""
    _check_qd(q, d)
    out = 1
    for p, k in factorize(q).factors:
        out *= _u_pp(p, k, d)
    return out


def unit_power_count(q: int, d: int) -> int:
    """e_d(q): number of distinct d-th powers of units mod q."""
    _check_qd(q, d)
    out = 1
    for p, k in factorize(q).factors:
        out *= _phi_pp(p, k) // _u_pp(p, k, d)
    return out


def power_residue_count(q: int, d: int) -> int:
    """r_d(q): number of distinct d-th powers mod q, zero included."""
    _check_qd(q, d)
    out = 1
    for p, k in factorize(q).factors:
        out *= _r_pp(p, k, d)
    return out


def scaled_power_residue_count(q: int, d: int, a_d: int) -> int:
    """|{a_d * x : x a d-th power mod q}| = r_d(q / gcd(q, a_d))."""
    _check_qd(q, d)
    if a_d == 0:
        raise ValueError("a_d must be nonzero")
    return power_residue_count(q // math.gcd(q, abs(a_d)), d)


@dataclass(frozen=True)
class ResidueSet:
    """Sorted set of residues in [0, q)."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for x in self.elements:
            if not prev < x < self.modulus:
                raise ValueError("residues must be strictly increasing in [0, q)")
            prev = x


def power_residues(q: int, d: int, a_d: int = 1) -> ResidueSet:
    """{a_d * m^d mod q} by brute enumeration; refuses q > ENUMERATION_LIMIT."""
    _check_qd(q, d)
    if q > ENUMERATION_LIMIT:
        raise PreconditionError(
            f"enumeration threshold exceeded (q={q} > {ENUMERATION_LIMIT}); "
            "use is_power_residue for membership instead"
        )
    arr = _kernels.residue_set(q, d, a_d)
    return ResidueSet(q, tuple(int(x) for x in arr))


# ---------------------------------------------------------------------------
# membership and solution counting, per prime power


def _v_p(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _unit_is_dth_power(y: int, p: int, k: int, d: int) -> bool:
    """Is the unit y a d-th power of a unit mod p^k?

    Odd p (and 2^1, 2^2): the unit group is cyclic, so the exponent test
    y^(phi/gcd(d,phi)) = 1 decides.  For 2^k, k >= 3 the group is not
    cyclic and the test degenerates; there the d-th powers of units are
    exactly the units = 1 mod 2^min(v2(d)+2, k) when d is even (every
    unit qualifies when d is odd).
    """
    pk = p**k
    y %= pk
    if y == 1 % pk:
        return True
    if p == 2 and k >= 3:
        if d % 2 == 1:
            return True
        e2 = (d & -d).bit_length() - 1
        return y % (1 << min(e2 + 2, k)) == 1
    phi = _phi_pp(p, k)
    g = math.gcd(d, phi)
    return pow(y, phi // g, pk) == 1


def _split_pp(b: int, p: int, k: int, d: int, a_d: int):
    """Classify b = a_d * x^d (mod p^k) by divisibility class.

    Returns one of
      ('zero', beta)   b = 0 mod p^k (solutions are the high-valuation classes)
      ('none',)        no solution
      ('unit', j, y, t)  reduced to x = p^t * (unit u), u^d = y (mod p^j)
    """
    pk = p**k
    b %= pk
    beta = min(_v_p(abs(a_d), p), k)
    if b == 0:
        return ("zero", beta)
    if beta >= k:
        return ("none",)
    s = _v_p(b, p)
    if s < beta or (s - beta) % d != 0:
        return ("none",)
    t = (s - beta) // d
    j = k - s
    pj = p**j
    abar = (a_d // p**beta) % pj
    y = (b // p**s) * pow(abar, -1, pj) % pj
    return ("unit", j, y, t)


def is_power_residue(b: int, q: int, d: int, a_d: int = 1) -> bool:
    """Does a_d * x^d = b (mod q) have a solution?  Decided per prime power."""
    _check_qd(q, d)
    if q == 1:
        return True
    for p, k in factorize(q).factors:
        case = _split_pp(b, p, k, d, a_d)
        if case[0] == "zero":
            continue
        if case[0] == "none":
            return False
        _, j, y, _t = case
        if not _unit_is_dth_power(y, p, j, d):
            return False
    return True


def is_primitive_power_residue(b: int, q: int, d: int, a_d: int = 1) -> bool:
    """Does a_d * x^d = b (mod q) have a solution with x a unit mod q?"""
    _check_qd(q, d)
    if q == 1:
        return True
    for p, k in factorize(q).factors:
        case = _split_pp(b, p, k, d, a_d)
        if case[0] == "zero":
            # a_d * unit^d has valuation exactly beta, so beta >= k is forced
            if case[1] < k:
                return False
            continue
        if case[0] == "none":
            return False
        _, j, y, t = case
        if t != 0 or not _unit_is_dth_power(y, p, j, d):
            return False
    return True


def count_solutions(b: int, q: int, d: int, a_d: int = 1) -> int:
    """#{x mod q : a_d * x^d = b (mod q)}, multiplicative over prime powers.

    For the zero class mod p^k the count is p^(k - ceil((k - beta)/d))
    with beta = v_p(a_d); for a solvable unit class it is
    u_d(p^(k-s)) * p^(s - t) with s = v_p(b) and t = (s - beta)/d.  Both
    agree with exhaustive enumeration (the test suite checks this for
    every modulus below a threshold); see ``zero_class_count_alt`` for a
    formula that does not.
    """
    _check_qd(q, d)
    if q == 1:
        return 1
    total = 1
    for p, k in factorize(q).factors:
        case = _split_pp(b, p, k, d, a_d)
        if case[0] == "zero":
            beta = case[1]
            if beta >= k:
                total *= p**k
            else:
                t0 = -((beta - k) // d)  # ceil((k - beta) / d)
                total *= p ** (k - t0)
            continue
        if case[0] == "none":
            return 0
        _, j, y, t = case
        if not _unit_is_dth_power(y, p, j, d):
            return 0
        total *= _u_pp(p, j, d) * p ** (k - j - t)  # s = k - j = v_p(b)
    return total


def zero_class_count_alt(p: int, k: int, d: int, a_d: int = 1) -> int:
    """The complement-style count p^k - p^ceil((k - v_p(a_d))+ / d) for the
    zero class.

    Looks plausible but fails enumeration: for p=2, k=3, d=2, a_d odd it
    gives 4 while exhaustive search (and count_solutions) give 2.  Kept
    only as a regression reference.
    """
    beta = _v_p(abs(a_d), p)
    kd = -((min(beta, k) - k) // d) if beta < k else 0
    return p**k - p**kd


def solution_witness(b: int, q: int, d: int, a_d: int = 1, *, limit: int = 10**5):
    """Smallest x with a_d * x^d = b (mod q), by scan; None if none/too large."""
    _check_qd(q, d)
    if q > limit:
        return None
    b %= q
    for x in range(q):
        if a_d * pow(x, d, q) % q == b:
            return x
    return None


# ---------------------------------------------------------------------------
# Hensel lifting to the full congruence b = -q^d P(p/q) (mod q^(d-1))


def hensel_lift(
    p_tilde: int, b: int, q: int, d: int, a_d: int, poly: IntPolynomial
) -> int:
    """Lift a solution of b = a_d * p^d (mod q) with gcd(q, p*d*a_d) = 1 to
    the unique p mod q^(d-1) solving b = -q^d P(p/q) (mod q^(d-1)) in the
    same residue class mod q.

    Newton iteration on F(p) = -q^d P(p/q) - b; the derivative is a unit
    modulo every power of q thanks to the gcd condition, so precision
    doubles each step.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if poly.degree != d or poly.lead_negated != a_d:
        raise PreconditionError(
            f"polynomial has degree {poly.degree} and negated leading "
            f"coefficient {poly.lead_negated}; expected d={d}, a_d={a_d}"
        )
    if (b - a_d * pow(p_tilde, d, q)) % q != 0:
        raise PreconditionError(
            f"b = a_d * p^d (mod q) fails: b={b}, p={p_tilde}, q={q}"
        )
    if math.gcd(q, p_tilde * d * a_d) != 1:
        raise PreconditionError(
            f"gcd(q, p*d*a_d) = 1 fails: "
            f"gcd({q}, {p_tilde}*{d}*{a_d}) = {math.gcd(q, p_tilde * d * a_d)}"
        )

    def f(x: int) -> int:
        return -eval_scaled(poly, x, q) - b

    def fprime(x: int) -> int:
        c = poly.coefficients
        return -sum(k * c[k] * x ** (k - 1) * q ** (d - k) for k in range(1, d + 1))

    target = d - 1
    x = p_tilde % q
    e = 1
    while e < target:
        e = min(2 * e, target)
        m = q**e
        x = (x - f(x) * pow(fprime(x), -1, m)) % m
    assert f(x) % q**target == 0
    return x % q**target
