"""Tribonacci numbers two ways.

T_n as the x^2 coefficient of x^(n+1) in Z_m[x]/(f), in O(log n) ring
squarings: mod m, or exactly with m so large that no reduction bites; and
the explicit root formula evaluated in F_p or whichever extension of F_p
the roots of x^3 - x^2 - x - 1 land in.  Both are judged against plain
iteration, the oracle in the test suite.

Indexing is fixed by T_0 = 0, T_1 = T_2 = 1, T_3 = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gfext import (
    DISCRIMINANT,
    RAMIFIED_PRIMES,
    QuotientRing,
    RamifiedPrime,
    RingElement,
    Shape,
    _cofactor_quadratic,
    _xpow,
    splitting_type,
)
from .modmath import InvalidModulus, ModPrime, PrimeLike, require_prime

#: trib_exact refuses indexes above this; T_n has about 0.56*n bits
EXACT_INDEX_LIMIT = 10**6


class IndexOutOfRange(ValueError):
    """Index too large for exact evaluation; use trib_mod instead."""


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


@dataclass(frozen=True)
class RootFormulaContext:
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
    st = splitting_type(ModPrime(pv))
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
        ring = QuotientRing(pv, (pv - 1, pv - 1, pv - 1))  # f itself
        alpha = ring.gen()
        beta = alpha**pv
        gamma = beta**pv
    delta = (alpha - beta) * (alpha - gamma) * (beta - gamma)
    if delta * delta != ring.const(DISCRIMINANT):
        raise ArithmeticError(f"delta^2 != {DISCRIMINANT} mod {pv}")
    return RootFormulaContext(pv, st.shape, ring, alpha, beta, gamma, delta)


def _alternating_sum(ctx: RootFormulaContext, k: int) -> RingElement:
    # alpha^k(beta-gamma) - beta^k(alpha-gamma) + gamma^k(alpha-beta) = delta * T_{k-1}
    a, b, g = ctx.alpha, ctx.beta, ctx.gamma
    return a**k * (b - g) - b**k * (a - g) + g**k * (a - b)


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
    inv_disc = ctx.ring.const(pow(DISCRIMINANT, -1, ctx.p))
    return (_alternating_sum(ctx, n + 1) * ctx.delta * inv_disc).constant_value()


def frobenius_reduction_check(p: PrimeLike) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of delta*T_{p-1} = alpha^p(beta-gamma) - beta^p(alpha-gamma) + gamma^p(alpha-beta).

    The left side goes through `trib_mod`, the right side through ring
    exponentiation of each root; the two coefficient tuples returned must
    be equal at every unramified prime.
    """
    ctx = build_root_context(p)
    pv = ctx.p
    lhs = ctx.delta * ctx.ring.const(trib_mod(pv - 1, pv))
    return lhs.coeffs, _alternating_sum(ctx, pv).coeffs
