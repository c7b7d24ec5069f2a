"""Power residues modulo q: counting functions, membership, solution counts,
and Hensel lifting for the congruence b = a_d * p^d.

Closed forms are evaluated per prime power and combined multiplicatively.
Two per-prime-power functions carry every count and test on the
congruence: ``_solution_class`` reduces b = a_d x^d (mod p^k) to one unit
class (membership, unit solutions and solution counts read it), and
``_valuation_counts`` counts the residues a_d G_d(p^k) by valuation (r_d,
and the counts of ``covers.center_counts``, table or per-q pass, are sums
of it).  Every closed-form count here has a brute-force enumeration twin
in the test suite's oracles (or ``power_residues``); the formulas are
trusted only because the tests check them against exhaustive enumeration
below a large threshold.
Enumeration is authoritative throughout: a complement-style zero-class
count and the divisor-sum banded count both fail it, and the test
oracles keep them as regression references.  Every function that takes
a_d rejects a_d = 0.

Membership has one rule, ``_solution_class`` per prime power, in two
forms.  ``_solvable`` takes q's factor pairs and reads ``_solution_class``
per prime power: the narrow stage of the hit scan calls it with the
factor pairs it holds, and ``is_power_residue`` and
``is_primitive_power_residue`` are its API wrappers, which factorize q.
``_solvable_block`` evaluates the same rule in numpy for every (entry,
p^k || q) row of a block of moduli at once, in integers below 2^63 with
no modular inverse; the wide stage of the hit scan calls it on its
batches of band survivors.  The tests check the block form against
``_solvable`` on every b mod q for q <= 300 and at the largest prime
powers and primes below POWMOD_QMAX.

The functions that take q factor it once, after validating it
(``_factor_pairs``): the wrappers above, ``count_solutions`` and the
counts u_d, e_d, r_d and |a_d G_d(q)|.  The counts also take q's
``Factorization``, so the ``residues`` command factors each q of a range
once for all of them.  Everything else here takes factor pairs or one
prime power.

``solution_witness`` finds the least solution x by scanning every class
mod q.  No library path calls it: the hit scan decides solvability with
``_solvable`` or ``_solvable_block`` and records no witness.  It stays as
a small scan-based reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .arithmetic import Factorization, PreconditionError, _as_factorization
from .curve import IntPolynomial, eval_scaled

ENUMERATION_LIMIT = 10**6


def _check(q: int, d: int, a_d: int = 1) -> None:
    """Validate a modulus q, a power degree d and a coefficient a_d."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if d < 2:
        raise ValueError(f"power degree must be >= 2, got {d}")
    if a_d == 0:
        raise ValueError("a_d must be nonzero")


def _phi_pp(p: int, k: int) -> int:
    return p ** (k - 1) * (p - 1) if k >= 1 else 1


def _u_pp(p: int, k: int, d: int) -> int:
    if k == 0:
        return 1
    phi = _phi_pp(p, k)
    if d % 2 == 0 and p == 2 and k >= 3:
        return math.gcd(2 * d, phi)
    return math.gcd(d, phi)


def _factor_pairs(q: Union[int, Factorization], d: int, a_d: int = 1):
    """The (p, k) of a modulus q, given as an int or its Factorization,
    after ``_check`` has validated q, d and a_d."""
    _check(q.value if isinstance(q, Factorization) else q, d, a_d)
    return _as_factorization(q).factors


def unity_roots_count(q: Union[int, Factorization], d: int) -> int:
    """u_d(q): number of solutions of m^d = 1 (mod q)."""
    out = 1
    for p, k in _factor_pairs(q, d):
        out *= _u_pp(p, k, d)
    return out


def unit_power_count(q: Union[int, Factorization], d: int) -> int:
    """e_d(q): number of distinct d-th powers of units mod q."""
    out = 1
    for p, k in _factor_pairs(q, d):
        out *= _phi_pp(p, k) // _u_pp(p, k, d)
    return out


def power_residue_count(q: Union[int, Factorization], d: int) -> int:
    """r_d(q): number of distinct d-th powers mod q, zero included."""
    return scaled_power_residue_count(q, d, 1)


def scaled_power_residue_count(q: Union[int, Factorization], d: int, a_d: int) -> int:
    """|{a_d * x : x a d-th power mod q}| = r_d(q / gcd(q, a_d)): per p^k ||
    q, the sum of ``_valuation_counts``, r_d(p^(k - min(k, v_p(a_d))))."""
    out = 1
    for p, k in _factor_pairs(q, d, a_d):
        out *= sum(_valuation_counts(p, k, d, a_d))
    return out


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
    _check(q, d, a_d)
    if q > ENUMERATION_LIMIT:
        raise PreconditionError(
            f"enumeration threshold exceeded (q={q} > {ENUMERATION_LIMIT}); "
            "use is_power_residue for membership instead"
        )
    arr = _kernels.residue_set(q, d, a_d)
    return ResidueSet(q, tuple(int(x) for x in arr))


# ---------------------------------------------------------------------------
# the congruence a_d x^d = b, per prime power


def _v_p(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _valuation_counts(p: int, k: int, d: int, a_d: int) -> list[int]:
    """N(s) = #{b in a_d G_d(p^k) : v_p(b) = s} for s = 0..k (b = 0 is s = k).

    With beta = min(v_p(a_d), k), a nonzero b = a_d x^d has s = beta + d
    v_p(x) < k, and its classes with that s are the e_d(p^(k-s)) unit d-th
    powers mod p^(k-s) scaled by p^s and a_d's unit part.  So N(s) =
    e_d(p^(k-s)) when s >= beta and d | s - beta, else 0, and N(k) = 1.
    The sum of N is r_d(p^(k - beta)).
    """
    beta = min(_v_p(a_d, p), k)
    counts = [0] * k + [1]
    for s in range(beta, k, d):
        counts[s] = _phi_pp(p, k - s) // _u_pp(p, k - s, d)
    return counts


def _solution_class(b: int, p: int, k: int, d: int, a_d: int):
    """(j, t) for a_d x^d = b (mod p^k), or None when it has no solution.

    The solutions are x = p^t u with u^d = y (mod p^j) for one unit y, so
    there are u_d(p^j) p^(k-j-t) of them, and they are units exactly when
    t = 0.  With beta = min(v_p(a_d), k): b = 0 is j = 0 and t = ceil((k -
    beta) / d); otherwise s = v_p(b) must be beta + d t, j = k - s, and y is
    b / p^s over the unit part of a_d, mod p^j.

    Whether y is a d-th power of a unit: for odd p (and 2^1, 2^2) the unit
    group is cyclic, so y^(phi/gcd(d, phi)) = 1 decides.  For 2^j, j >= 3,
    the unit d-th powers are every unit when d is odd, and the units = 1
    mod 2^min(v_2(d) + 2, j) when d is even.
    """
    b %= p**k
    beta = min(_v_p(a_d, p), k)
    if b == 0:
        return 0, -((beta - k) // d)
    s = _v_p(b, p)
    b //= p**s
    t, rest = divmod(s - beta, d)
    if t < 0 or rest:
        return None
    j = k - s
    pj = p**j
    y = b * pow(a_d // p**beta, -1, pj) % pj
    if p == 2 and j >= 3:
        ok = d % 2 or y % (1 << min((d & -d).bit_length() + 1, j)) == 1
    else:
        phi = _phi_pp(p, j)
        ok = y == 1 or pow(y, phi // math.gcd(d, phi), pj) == 1
    return (j, t) if ok else None


def _solvable(b: int, pairs, d: int, a_d: int, unit: bool) -> bool:
    """Does a_d * x^d = b (mod q) have a solution, a unit x when unit is
    set, for the q with factor pairs (p, k)?  Decided per prime power by
    ``_solution_class``: a unit solution is one with t = 0."""
    for p, k in pairs:
        solution = _solution_class(b, p, k, d, a_d)
        if solution is None or (unit and solution[1]):
            return False
    return True


def _solvable_block(b, pairs, d: int, a_d: int, unit: bool):
    """``_solvable`` at every entry of an int64 array b, for moduli q_i <=
    POWMOD_QMAX given by their factor pairs pairs = (at, p, k), flat int64
    arrays as ``_kernels.factor_pairs_block`` returns them (row j is the
    prime power p^k || q_at[j]): a bool array, True where a_d x^d = b_i
    (mod q_i) has a solution, a unit x when unit is set.

    Every row evaluates the rule of ``_solution_class`` at p^k, with r = b
    mod p^k and no inverse, float or value of 2^63 or more:
    * ps = gcd(r, p^k) is p^s, s = v_p(r), for r != 0, and p^k for r = 0:
      the zero class is ps = p^k.  pb = gcd(a_d mod p^k, p^k) is p^beta,
      beta = min(v_p(a_d), k).
    * The zero class always has a solution, with t = ceil((k - beta) / d),
      so t = 0 exactly when beta = k, that is pb = p^k.
    * Otherwise there is a solution only if s - beta = d t for some t >= 0:
      pb divides ps, and the exponent of p in ps / pb, counted by dividing
      p out, is a multiple of d; t = 0 exactly when that exponent is 0.
    * Then j = k - s >= 1 and pj = p^j = p^k / ps.  The unit part of b mod
      p^k is u = r / ps < pj, and a' = (a_d mod pb pj) / pb is a_d / p^beta
      mod pj: a_d = p^beta (a_d / p^beta) gives a_d mod p^(beta + j) =
      p^beta (a_d / p^beta mod p^j), and pb pj = p^(k - (s - beta)) <= p^k.
      The class of ``_solution_class`` is y = u a'^-1 mod pj, and a' is a
      unit, so y = 1 mod m exactly when u = a' mod m, and y^e = 1 exactly
      when u^e = a'^e (mod pj).
    * For 2^j, j >= 3, y is a d-th power exactly when d is odd or y = 1 mod
      m = 2^min(v_2(d) + 2, j) = min(2^(v_2(d) + 2), pj).  Otherwise the
      unit group is cyclic and y is one exactly when y^e = 1 for e =
      phi(pj) / gcd(d, phi(pj)); y = 1 passes this test too.
    So a row passes exactly when ``_solution_class`` gives (j, t), with t =
    0 when unit is set, and an entry is kept when all of its rows pass, as
    in ``_solvable``; an entry with no rows (q = 1) is kept.  Every modulus
    divides p^k <= q_i <= POWMOD_QMAX, so a product of two residues stays
    in int64 (``_kernels._powmod``).
    """
    at, p, k = pairs
    pk = p**k
    r = b[at] % pk
    amod = _kernels._mod_each(a_d, pk)
    ps, pb = np.gcd(r, pk), np.gcd(amod, pk)
    zero = ps == pk
    x = np.where(zero, 1, ps // pb)  # p^(s - beta) when pb | ps, else 0
    live = np.flatnonzero(x > 1)
    x, p_live, e_live = x[live], p[live], np.zeros(len(live), dtype=np.int64)
    while (step := x > 1).any():
        x = np.where(step, x // p_live, x)
        e_live += step
    e = np.zeros_like(pk)
    e[live] = e_live
    ok = zero | ((ps >= pb) & (e % d == 0))
    if unit:
        ok &= np.where(zero, pb == pk, e == 0)
    i = np.flatnonzero(ok & ~zero)
    pi, psi, pbi = p[i], ps[i], pb[i]
    pj = pk[i] // psi
    u = r[i] // psi
    a1 = amod[i] % (pbi * pj) // pbi
    phi = pj // pi * (pi - 1)
    ex = phi // np.gcd(phi, d)
    powered = np.flatnonzero(a1 != 1)  # a'^e = 1 at every other row
    pw = _kernels._powmod(
        np.concatenate((u, a1[powered])),
        np.concatenate((ex, ex[powered])),
        np.concatenate((pj, pj[powered])),
    )
    rhs = np.ones_like(u)
    rhs[powered] = pw[len(u) :]
    m = np.minimum(pj, 1 << ((d & -d).bit_length() + 1))
    two_adic = (pi == 2) & (pj >= 8)
    ok[i] = np.where(two_adic, bool(d % 2) | ((u - a1) % m == 0), pw[: len(u)] == rhs)
    return np.bincount(at[~ok], minlength=len(b)) == 0


def is_power_residue(b: int, q: int, d: int, a_d: int = 1) -> bool:
    """Does a_d * x^d = b (mod q) have a solution?  Decided per prime power."""
    return _solvable(b, _factor_pairs(q, d, a_d), d, a_d, False)


def is_primitive_power_residue(b: int, q: int, d: int, a_d: int = 1) -> bool:
    """Does a_d * x^d = b (mod q) have a solution with x a unit mod q?"""
    return _solvable(b, _factor_pairs(q, d, a_d), d, a_d, True)


def count_solutions(b: int, q: int, d: int, a_d: int = 1) -> int:
    """#{x mod q : a_d * x^d = b (mod q)}, multiplicative over prime powers.

    Each p^k || q contributes the u_d(p^j) p^(k-j-t) solutions of its
    ``_solution_class`` (j, t); for the zero class that is p^(k - t) with t
    = ceil((k - v_p(a_d)) / d).  This agrees with exhaustive enumeration
    (the test suite checks it for every modulus below a threshold); the
    test oracles keep ``zero_class_count_alt``, a formula that does not.
    """
    total = 1
    for p, k in _factor_pairs(q, d, a_d):
        solution = _solution_class(b, p, k, d, a_d)
        if solution is None:
            return 0
        j, t = solution
        total *= _u_pp(p, j, d) * p ** (k - j - t)
    return total


def solution_witness(b: int, q: int, d: int, a_d: int = 1, *, limit: int = 10**5):
    """Smallest x with a_d * x^d = b (mod q), by scan; None if none/too large."""
    _check(q, d, a_d)
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
    _check(q, d, a_d)
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
