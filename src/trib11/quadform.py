"""Representations p = x^2 + 11*y^2.

Cornacchia's descent does the real work; an exhaustive scan over y is
kept alongside it as the oracle the fast path is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .modmath import PrimeLike, require_prime, sqrt_mod

#: the fixed form coefficient; the public contract is x^2 + 11*y^2 only
FORM_D = 11


@dataclass(frozen=True, slots=True)
class Representation:
    """A canonical solution (x, y >= 0) of p = x^2 + 11*y^2, or certified absence."""

    p: int
    x: int | None
    y: int | None
    exists: bool


def represent(p: PrimeLike) -> Representation:
    """Canonical representation of the prime p by x^2 + 11*y^2, if any.

    Cornacchia: take r with r^2 = -11 mod p (the smaller root, for
    reproducibility), run the Euclidean remainder cascade from (p, r)
    until the remainder drops to sqrt(p) or below, and test the candidate.
    Primes below 11 fall back to the exhaustive scan.
    """
    pv = require_prime(p)
    if pv < FORM_D:
        return represent_bruteforce(pv)
    b = sqrt_mod(-FORM_D % pv, pv)
    if b is None:  # -11 is not a square mod p
        return Representation(pv, None, None, False)
    prev = pv
    limit = isqrt(pv)
    while b > limit:
        prev, b = b, prev % b
    rest = pv - b * b
    y_sq, r = divmod(rest, FORM_D)
    if r:
        return Representation(pv, None, None, False)
    y = isqrt(y_sq)
    if y * y != y_sq:
        return Representation(pv, None, None, False)
    return Representation(pv, b, y, True)


def represent_bruteforce(n: int) -> Representation:
    """Exhaustive scan over y; works for any n >= 1, prime or not.

    Returns the hit with the smallest y (for primes there is at most one
    hit, which the tests confirm empirically).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    y = 0
    while FORM_D * y * y <= n:
        rest = n - FORM_D * y * y
        x = isqrt(rest)
        if x * x == rest:
            return Representation(n, x, y, True)
        y += 1
    return Representation(n, None, None, False)
