"""The integer polynomial, exact scaled evaluation, derivative bounds, and
the two reductions between simultaneous approximation of (x, P(x)+alpha)
and constrained approximation of alpha.

All inequality checks run in exact rational arithmetic; comparisons
against q^(u/v) go through the integer power rule in ``arithmetic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import PreconditionError, frac_lt_qpow, root_enclosure


@dataclass(frozen=True)
class IntPolynomial:
    """P(X) with integer coefficients, constant term first, degree >= 2.

    The top coefficient is stored as given; by convention its negation
    a_d = -coefficients[-1] is what the congruence machinery works with.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) < 3:
            raise ValueError("degree must be >= 2")
        if self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse the CLI coefficient format, e.g. '0,0,-1' for -X^2."""
        try:
            coeffs = tuple(int(t.strip()) for t in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad polynomial {text!r}: {exc}") from None
        return cls(coeffs)

    def format(self) -> str:
        return ",".join(str(c) for c in self.coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def lead_negated(self) -> int:
        """a_d, the negation of the leading coefficient."""
        return -self.coefficients[-1]

    def __call__(self, x: Fraction) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def derivative(self, x: Fraction) -> Fraction:
        out = Fraction(0)
        for k in range(self.degree, 0, -1):
            out = out * x + k * self.coefficients[k]
        return out


@dataclass(frozen=True)
class DerivativeBound:
    """K >= 1 + sup |P'| over [M, M+1]; any upper bound is admissible."""

    value: int


@dataclass(frozen=True)
class ConstrainedHit:
    """One constrained approximation event |alpha - b/q^d| small."""

    q: int
    b: int
    error: Fraction
    gcd_bq: int

    def __post_init__(self):
        if self.error.numerator < 0:
            raise ValueError("error must be nonnegative")


def eval_scaled(poly: IntPolynomial, p: int, q: int) -> int:
    """The integer q^d * P(p/q) = sum c_k p^k q^(d-k)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    d = poly.degree
    return sum(c * p**k * q ** (d - k) for k, c in enumerate(poly.coefficients))


def derivative_sup_bound(poly: IntPolynomial, M: int) -> DerivativeBound:
    """Coefficient bound 1 + sum k |c_k| T^(k-1), T = max(|M|, |M+1|).

    Dominates 1 + sup |P'| on [M, M+1]; the reduction lemmas only need an
    upper bound, so no root isolation is attempted.
    """
    T = max(abs(M), abs(M + 1))
    bound = 1 + sum(
        k * abs(c) * T ** (k - 1) for k, c in enumerate(poly.coefficients) if k >= 1
    )
    return DerivativeBound(bound)


def reduce_simultaneous(
    alpha: Fraction,
    x: Fraction,
    p: int,
    q: int,
    r: int,
    tau: Fraction,
    bound: DerivativeBound,
    poly: IntPolynomial,
) -> ConstrainedHit:
    """Map a simultaneous approximation of (x, P(x)+alpha) at order tau to a
    constrained approximation of alpha with numerator b = r q^(d-1) - q^d P(p/q)
    and certified error < K_M / q^tau.
    """
    alpha = Fraction(alpha)
    x = Fraction(x)
    tau = Fraction(tau)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not frac_lt_qpow(abs(x - Fraction(p, q)), q, -tau):
        raise PreconditionError(
            f"|x - p/q| < q^-tau fails: |{x} - {p}/{q}| at tau={tau}"
        )
    curve_err = abs(poly(x) + alpha - Fraction(r, q))
    if not frac_lt_qpow(curve_err, q, -tau):
        raise PreconditionError(
            f"|P(x) + alpha - r/q| < q^-tau fails: error {curve_err} at tau={tau}"
        )
    d = poly.degree
    b = r * q ** (d - 1) - eval_scaled(poly, p, q)
    error = abs(alpha - Fraction(b, q**d))
    if not frac_lt_qpow(error / bound.value, q, -tau):
        raise AssertionError(
            f"certified error bound violated: {error} >= {bound.value}/q^{tau}"
        )
    return ConstrainedHit(q, b, error, math.gcd(b, q))


def lift_constrained(
    alpha: Fraction,
    b: int,
    q: int,
    p: int,
    tau: Fraction,
    bound: DerivativeBound,
    poly: IntPolynomial,
) -> tuple[int, Fraction]:
    """Partial converse: from b/q^d + P(p/q) in Z/q and |alpha - b/q^d| <
    K_M/q^tau, produce the integer r with b/q^d + P(p/q) = r/q and a
    certified rational radius >= 2 K_M / q^tau such that
    |P(x) + alpha - r/q| stays below it for every x within q^-tau of p/q.
    """
    alpha = Fraction(alpha)
    tau = Fraction(tau)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    d = poly.degree
    scaled = b + eval_scaled(poly, p, q)  # q^d * (b/q^d + P(p/q))
    if scaled % q ** (d - 1) != 0:
        raise PreconditionError(
            f"b/q^d + P(p/q) is not in Z/q: congruence fails for b={b}, p={p}, q={q}"
        )
    err = abs(alpha - Fraction(b, q**d))
    if not frac_lt_qpow(err / bound.value, q, -tau):
        raise PreconditionError(
            f"|alpha - b/q^d| < K/q^tau fails: {err} at K={bound.value}, tau={tau}"
        )
    r = scaled // q ** (d - 1)
    _, hi = root_enclosure(q, -tau)
    return r, 2 * bound.value * hi
