"""Modular arithmetic over machine-scale moduli.

Primitives (inversion, Jacobi symbol, square roots), exact primality
testing, and a segmented prime stream.
Residues are plain ints kept canonical in [0, p); moduli are bounded by
2**63 so every intermediate product stays far below anything Python's
integers would struggle with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import Iterator, Union

MAX_MODULUS = 1 << 63


class InvalidModulus(ValueError):
    """Modulus outside a function's contract (wrong parity, size, ...)."""


class NotInvertible(ValueError):
    """The residue has no inverse for the given modulus."""


class NotPrime(ValueError):
    """An argument that must be prime is not."""


@dataclass(frozen=True, slots=True)
class ModPrime:
    """A modulus together with its primality certificate.

    Direct construction asserts the certificate and is meant for callers
    that already know the answer (e.g. consumers of the sieve); use
    `ModPrime.of` to have it checked.
    """

    p: int
    is_prime: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.p < MAX_MODULUS:
            raise InvalidModulus(f"modulus out of range [2, 2**63): {self.p}")

    @classmethod
    def of(cls, n: int) -> "ModPrime":
        if not 2 <= n < MAX_MODULUS:
            raise InvalidModulus(f"modulus out of range [2, 2**63): {n}")
        return cls(n, is_prime(n))


PrimeLike = Union[int, ModPrime]


def require_prime(p: PrimeLike) -> int:
    """Return the integer value of a prime argument, validating bare ints.

    A ModPrime is trusted via its certificate; an int is checked with
    `is_prime` (so hot loops should build ModPrime once from a source that
    already guarantees primality, like the sieve).
    """
    if isinstance(p, ModPrime):
        if not p.is_prime:
            raise NotPrime(f"{p.p} is not prime")
        return p.p
    if not 2 <= p < MAX_MODULUS:
        raise NotPrime(f"not a prime in [2, 2**63): {p}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo a prime p."""
    try:
        return pow(a, -1, p)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not invertible mod {p}") from exc


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise InvalidModulus(f"Jacobi symbol needs an odd positive modulus, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """Square root of a modulo an odd prime p, or None if a is a non-residue.

    Returns the smaller of the two roots so results are reproducible.
    Tonelli-Shanks in the general case, with the exponent shortcut for
    p = 3 mod 4.
    """
    if p < 3 or p % 2 == 0:
        raise InvalidModulus(f"sqrt_mod needs an odd prime modulus, got {p}")
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while jacobi(z, p) != -1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            r = r * b % p
            t = t * c % p
    return min(r, p - r)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness tiers: each base set is proven exact
# below its bound, the last one beyond 2**64 (Jaeschke; Sorenson-Webster).
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (1 << 64, _SMALL_PRIMES),
)


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2**64; never probabilistic."""
    if n >= 1 << 64:
        raise ValueError("is_prime is exact only below 2**64")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            break
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SEGMENT = 1 << 16


def primes_in_range(lo: int, hi: int) -> Iterator[int]:
    """Yield every prime in [lo, hi) exactly once, ascending.

    Segmented sieve: memory stays O(sqrt(hi) + segment) no matter how wide
    the range is, so disjoint ranges can be sieved independently.
    """
    if not 0 <= lo <= hi <= MAX_MODULUS:
        raise ValueError(f"bad range [{lo}, {hi})")
    lo = max(lo, 2)
    if lo >= hi:
        return
    base = _prime_flags(isqrt(hi - 1))
    for seg_lo in range(lo, hi, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT, hi)
        seg = bytearray(b"\x01") * (seg_hi - seg_lo)
        for q in compress(range(isqrt(seg_hi - 1) + 1), base):
            start = max(q * q, -(-seg_lo // q) * q)
            if start < seg_hi:
                seg[start - seg_lo :: q] = b"\x00" * ((seg_hi - 1 - start) // q + 1)
        for i, flag in enumerate(seg):
            if flag:
                yield seg_lo + i


def _prime_flags(n: int) -> bytearray:
    # plain sieve, inclusive: flag i is 1 iff i is prime.  Only used for the
    # base primes up to sqrt(hi); flags, not a list of ints, because near
    # 10**16 that list would hold ~6e6 ints, about 230 MB.
    if n < 2:
        return bytearray(n + 1)
    s = bytearray(b"\x01") * (n + 1)
    s[0] = s[1] = 0
    for i in range(2, isqrt(n) + 1):
        if s[i]:
            s[i * i :: i] = b"\x00" * ((n - i * i) // i + 1)
    return s
