"""Tribonacci numbers two ways.

T_n as the x^2 coefficient of x^(n+1) in Z_m[x]/(f), in O(log n) ring
squarings: mod m, or exactly with m so large that no reduction bites; and
the explicit root formula evaluated in F_p or whichever extension of F_p
the roots of x^3 - x^2 - x - 1 land in.  Both are judged against plain
iteration, the oracle in the test suite.  The root formula runs in a
small generic quotient ring F_p[x]/(m), m monic of degree 1..3, which
carries its three ambient rings: the prime field, a quadratic extension
and the full cubic extension.  A scan never imports this module.

Indexing is fixed by T_0 = 0, T_1 = T_2 = 1, T_3 = 2.
"""

from __future__ import annotations

from typing import NamedTuple

from .gfext import (
    DISCRIMINANT,
    F_COEFFS,
    RAMIFIED_PRIMES,
    RamifiedPrime,
    Shape,
    _cofactor_quadratic,
    _splitting_type,
    _xpow,
)
from .modmath import InvalidModulus, PrimeLike, require_prime

#: trib_exact refuses indexes above this; T_n has about 0.56*n bits
EXACT_INDEX_LIMIT = 10**6


class IndexOutOfRange(ValueError):
    """Index too large for exact evaluation; use trib_mod instead."""


class ModulusMismatch(ValueError):
    """Mixed operands from different moduli or rings."""


def trib_exact(n: int) -> int:
    """T_n as an exact integer, for 0 <= n <= 10**6: `trib_mod`'s power of x, never reduced."""
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    if n > EXACT_INDEX_LIMIT:
        raise IndexOutOfRange(
            f"exact evaluation capped at index {EXACT_INDEX_LIMIT}, got {n}"
        )
    # The ladder, and the table of small powers it starts from, only add and
    # multiply non-negative values (f's reduction is x^3 = x^2 + x + 1), so
    # every value it forms for x^(n+1) is an exact coefficient of some x^k
    # with k <= n + 1: T_{k-2}, T_{k-2} + T_{k-3} or T_{k-1}.  Since
    # T_k < 2^k, each is below 2^(n+2), so no reduction mod 2^(n+2) ever
    # changes a value.
    return _xpow(n + 1, 1 << (n + 2))[2]


def trib_mod(n: int, m: int) -> int:
    """T_n mod m as the x^2 coefficient of x^(n+1) in Z_m[x]/(f).

    In Z[x]/(f), x^k = T_{k-1} x^2 + (T_{k-2} + T_{k-3}) x + T_{k-2}.
    Since f is monic this holds mod any m >= 2, and the cost is O(log n)
    ring multiplications.
    """
    if m < 2:
        raise InvalidModulus(f"modulus must be at least 2, got {m}")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    return _xpow(n + 1, m)[2]


# -- generic quotient ring F_p[x]/(m), degree 1 to 3 --


class QuotientRing:
    """F_p[x]/(m) for a monic m of degree 1..3 given by its lower coefficients.

    Degree 1 realizes F_p itself (elements are constants), degree 2 a
    quadratic extension, degree 3 the cubic one.
    """

    __slots__ = ("p", "modulus", "degree")

    def __init__(self, p: int, modulus: tuple[int, ...]):
        if p < 2:
            raise InvalidModulus(f"characteristic must be at least 2, got {p}")
        if not 1 <= len(modulus) <= 3:
            raise ValueError(f"modulus degree must be 1..3, got {len(modulus)}")
        self.p = p
        self.modulus = tuple(c % p for c in modulus)
        self.degree = len(self.modulus)

    def element(self, coeffs) -> "RingElement":
        c = [v % self.p for v in coeffs]
        if len(c) > self.degree:
            raise ValueError(f"got {len(c)} coefficients for degree {self.degree}")
        c += [0] * (self.degree - len(c))
        return RingElement(self, tuple(c))

    def const(self, c: int) -> "RingElement":
        return self.element([c])

    def gen(self) -> "RingElement":
        """The image of x; in degree 1 that is the constant -m0."""
        if self.degree == 1:
            return self.const(-self.modulus[0])
        return self.element([0, 1])

    def same_as(self, other: "QuotientRing") -> bool:
        return self.p == other.p and self.modulus == other.modulus

    def __repr__(self) -> str:
        return f"QuotientRing(p={self.p}, modulus={self.modulus})"


class RingElement:
    """An element of a QuotientRing; supports +, -, *, ** and equality."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: QuotientRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other: "RingElement") -> None:
        if self.ring is not other.ring and not self.ring.same_as(other.ring):
            raise ModulusMismatch(f"elements of {self.ring} and {other.ring}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        p = self.ring.p
        return RingElement(
            self.ring, tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        p = self.ring.p
        return RingElement(
            self.ring, tuple((x - y) % p for x, y in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        ring = self.ring
        p, d, m = ring.p, ring.degree, ring.modulus
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    prod[i + j] += ai * bj
        # fold x^k for k >= d using x^d = -(m0 + m1 x + ...)
        for k in range(2 * d - 2, d - 1, -1):
            t = prod[k]
            if t:
                for i, mc in enumerate(m):
                    prod[k - d + i] -= t * mc
        return RingElement(ring, tuple(c % p for c in prod[:d]))

    def __pow__(self, exp: int) -> "RingElement":
        if exp < 0:
            raise ValueError(f"exponent must be non-negative, got {exp}")
        result = self.ring.const(1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring.same_as(other.ring)
            and self.coeffs == other.coeffs
        )

    @property
    def is_constant(self) -> bool:
        return not any(self.coeffs[1:])

    def constant_value(self) -> int:
        if not self.is_constant:
            raise ArithmeticError(f"{self.coeffs} is not a prime-field constant")
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"RingElement({self.coeffs} mod {self.ring.modulus}, p={self.ring.p})"


class RootFormulaContext(NamedTuple):
    """The three roots of x^3 - x^2 - x - 1 over F_p, in their ambient ring.

    When the cubic splits completely the ring is F_p itself; with one
    rational root the other two live in the quadratic extension; when it
    is irreducible everything sits in F_p[x]/(f).  `delta` is the
    Vandermonde product (alpha-beta)(alpha-gamma)(beta-gamma), whose
    square is the discriminant -44, so dividing by delta never needs a
    general ring inverse.
    """

    p: int
    shape: Shape
    ring: QuotientRing
    alpha: RingElement
    beta: RingElement
    gamma: RingElement
    delta: RingElement


def build_root_context(p: PrimeLike) -> RootFormulaContext:
    """Locate the three roots for an unramified prime and package them."""
    pv = require_prime(p)
    if pv in RAMIFIED_PRIMES:
        raise RamifiedPrime(f"no root context at ramified prime {pv}")
    st = _splitting_type(pv)
    if st.shape is Shape.THREE_DISTINCT_ROOTS:
        ring = QuotientRing(pv, (0,))  # F_p, as the degree-1 quotient by x
        alpha, beta, gamma = (ring.const(r) for r in st.roots)
    elif st.shape is Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC:
        r = st.roots[0]
        ring = QuotientRing(pv, _cofactor_quadratic(r, pv))
        alpha = ring.const(r)
        beta = ring.gen()
        gamma = beta**pv
    else:
        ring = QuotientRing(pv, F_COEFFS[:3])  # f itself
        alpha = ring.gen()
        beta = alpha**pv
        gamma = beta**pv
    delta = (alpha - beta) * (alpha - gamma) * (beta - gamma)
    if delta * delta != ring.const(DISCRIMINANT):
        raise ArithmeticError(f"delta^2 != {DISCRIMINANT} mod {pv}")
    return RootFormulaContext(pv, st.shape, ring, alpha, beta, gamma, delta)


def trib_via_roots(n: int, ctx: RootFormulaContext) -> int:
    """T_n mod p from the alternating root-power combination.

    Evaluates alpha^(n+1)(beta-gamma) - beta^(n+1)(alpha-gamma)
    + gamma^(n+1)(alpha-beta), which equals delta * T_n, then divides by
    delta via delta/(-44).  The result must be Frobenius-invariant, so
    any nonzero coordinate outside the prime field is reported as an
    error rather than projected away silently.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    a, b, g, k = ctx.alpha, ctx.beta, ctx.gamma, n + 1
    inv_disc = ctx.ring.const(pow(DISCRIMINANT, -1, ctx.p))
    alternating = a**k * (b - g) - b**k * (a - g) + g**k * (a - b)
    return (alternating * ctx.delta * inv_disc).constant_value()
