"""Tribonacci numbers three ways.

Exact values by big-integer iteration (the reference the other routes are
judged against), T_n mod m in O(log n) as a coefficient of a power of x
in Z_m[x]/(f), and the explicit root formula evaluated in F_p or whichever
extension of F_p the roots of x^3 - x^2 - x - 1 land in.

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
    _pow3,
    splitting_type,
)
from .modmath import InvalidModulus, ModPrime, PrimeLike, inv_mod, require_prime

#: trib_exact refuses indexes above this; T_n has about 0.56*n bits
EXACT_INDEX_LIMIT = 10**6


class IndexOutOfRange(ValueError):
    """Index too large for exact evaluation; use trib_mod instead."""


def trib_exact(n: int) -> int:
    """T_n as an exact integer, for 0 <= n <= 10**6."""
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    if n > EXACT_INDEX_LIMIT:
        raise IndexOutOfRange(
            f"exact evaluation capped at index {EXACT_INDEX_LIMIT}, got {n}"
        )
    a, b, c = 0, 1, 1  # T_0, T_1, T_2
    if n < 3:
        return (a, b, c)[n]
    for _ in range(n - 2):
        a, b, c = b, c, a + b + c
    return c


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
    return _pow3((0, 1, 0), n + 1, m)[2]


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
        # quadratic cofactor of (x - r): x^2 + (r-1)x + (r^2 - r - 1)
        ring = QuotientRing(pv, ((r * r - r - 1) % pv, (r - 1) % pv))
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
    a, b, g = ctx.alpha, ctx.beta, ctx.gamma
    rhs = (
        a ** (n + 1) * (b - g)
        - b ** (n + 1) * (a - g)
        + g ** (n + 1) * (a - b)
    )
    scaled = rhs * ctx.delta * ctx.ring.const(inv_mod(DISCRIMINANT, ctx.p))
    return scaled.constant_value()


def frobenius_reduction_check(p: PrimeLike) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of delta*T_{p-1} = alpha^p(beta-gamma) - beta^p(alpha-gamma) + gamma^p(alpha-beta).

    The left side goes through `trib_mod`, the right side through ring
    exponentiation of each root; the two coefficient tuples returned must
    be equal at every unramified prime.
    """
    ctx = build_root_context(p)
    pv = ctx.p
    a, b, g = ctx.alpha, ctx.beta, ctx.gamma
    lhs = ctx.delta * ctx.ring.const(trib_mod(pv - 1, pv))
    rhs = a**pv * (b - g) - b**pv * (a - g) + g**pv * (a - b)
    return lhs.coeffs, rhs.coeffs
