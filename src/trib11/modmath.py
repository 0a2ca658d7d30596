"""Modular arithmetic over machine-scale moduli.

Primitives (Jacobi symbol, square roots), exact primality testing, and a
segmented prime stream.  Above 2**38 the stream finishes its sieve
survivors with a Baillie-PSW test; the 7-base Miller-Rabin `is_prime`, a
route the stream never takes, stays the public test and the judge of it.
Residues are plain ints kept canonical in [0, p); moduli are bounded by
2**63 so every intermediate product stays far below anything Python's
integers would struggle with.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import isqrt
from typing import Iterator, Sequence, Union

MAX_MODULUS = 1 << 63


class InvalidModulus(ValueError):
    """Modulus outside a function's contract (wrong parity, size, ...)."""


class NotPrime(ValueError):
    """An argument that must be prime is not."""


class ModPrime:
    """A prime modulus, certified by whoever builds it.

    Construction checks only the range; it is meant for callers that
    already know the value is prime (e.g. consumers of the sieve).
    `p` is read-only.
    """

    __slots__ = ("_p",)

    def __init__(self, p: int) -> None:
        if not 2 <= p < MAX_MODULUS:
            raise InvalidModulus(f"modulus out of range [2, 2**63): {p}")
        self._p = p

    @property
    def p(self) -> int:
        """The prime (read-only)."""
        return self._p

    def __repr__(self) -> str:
        return f"ModPrime(p={self._p})"


PrimeLike = Union[int, ModPrime]


def require_prime(p: PrimeLike) -> int:
    """Return the integer value of a prime argument, validating bare ints.

    A ModPrime is trusted as a certificate; an int is checked with
    `is_prime` (so hot loops should build ModPrime once from a source that
    already guarantees primality, like the sieve).
    """
    if isinstance(p, ModPrime):
        return p.p
    if not 2 <= p < MAX_MODULUS:
        raise NotPrime(f"not a prime in [2, 2**63): {p}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


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


def _sqrt_mod(a: int, p: int) -> int | None:
    # the smaller square root of a modulo an odd prime p, or None for a non-residue:
    # Tonelli-Shanks, with the exponent shortcut for p = 3 mod 4.  p is not checked,
    # and modulo a composite the non-residue search may never end.
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
# below its bound.  The first two are from Pomerance, Selfridge and Wagstaff
# (1980); the last is Sinclair's 7-base set (2011), exact below 2**64 as
# checked against the Feitsma-Galway list of base-2 strong pseudoprimes (see
# also Sorenson and Webster, arXiv:1509.00864).  Every n that reaches a tier
# exceeds each of its bases, so no base needs reducing mod n; a tier with a
# base of n or more would have to reduce it and skip a base that is 0 mod n.
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
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


def _bpsw(n: int) -> bool:
    # Baillie-PSW for an odd n with no prime factor below 2**16 (a sieve
    # survivor above 2**38): a strong base-2 test, then the extra strong Lucas
    # test with Q = 1 (Grantham 2001).  No composite below 2**64 passes both
    # (Baillie, Fiori and Wagstaff, Math. Comp. 2021).  The base-2 step
    # repeats is_prime's witness loop rather than share it: is_prime judges
    # this test, so the two share no code.
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(2, d >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    # a square n, such as the base-2 strong pseudoprime 1093**2, has no P
    # below, and the search for one would never end
    r = isqrt(n)
    if r * r == n:
        return False
    # P is the least of 3, 4, 5, ... with ((P*P - 4) | n) = -1
    p = 3
    while jacobi(p * p - 4, n) != -1:
        p += 1
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # (v, w) = (V(k), V(k+1)) up the bits of d, from k = 1:
    # V(2k) = V(k)**2 - 2 and V(2k+1) = V(k)*V(k+1) - P
    v, w = p, p * p - 2
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w = (v * w - p) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - p) % n
    # U(d) = 0 reads as 2*V(d+1) - P*V(d) = 0, since D*U(k) = 2*V(k+1) - P*V(k)
    # and D is prime to n; then V(d) = +-2, or V(d * 2**r) = 0 for an r < s - 1
    if (v == 2 or v == n - 2) and (2 * w - p * v) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


# a segment's width: it holds the odd numbers of 2**18 integers, a byte each,
# so that a chunk of a scan above the narrow band (verifier._BANDS) is one
# segment and pays once for its loop over the base primes
_SEGMENT = 1 << 18

# A range ending at or below 2**38 is sieved by every prime up to its square
# root (at most the 43,390 below 2**19), so each survivor is prime.  Above
# 2**38 every survivor goes to `_bpsw`, and base primes past _BASE = 2**16
# would cost a segment more than the one base-2 test that rejects each
# composite they strike out.  The switch was set where the two routes cost
# the same on 2**15 scan chunks, with the base sieved anew for each: the full
# sieve took 0.69x the time of the 2**16 base plus `_bpsw` at 10**11, 1.08x at
# 2**38 and 1.60x at 10**12 (in process on a shared 2-vCPU x86-64 host,
# Python 3.11).  With the base built once and the 2**18 chunks of a scan there,
# it took 0.09x at 10**11, 0.12x at 2**38 and 0.18x at 10**12 (4 chunks, best
# of 3), so the switch could move up; it stays until a workload there can claim
# the move.  The stream never calls `is_prime`, so the tests and the benchmark
# gate judge it with the 7-base Miller-Rabin.
_SIEVED = 1 << 38
_BASE = 1 << 16

# the odd primes up to _odd_top, as an array('I') built on first use and grown
# when a range needs more; a grown base is a new array, so a stream that holds
# the old one reads it unchanged
_odd_primes: Sequence[int] = ()
_odd_top = 2


def primes_in_range(lo: int, hi: int) -> Iterator[int]:
    """Yield every prime in [lo, hi) exactly once, ascending.

    Segmented sieve over the odd numbers: memory stays O(2**19 + segment) no
    matter how wide or how high the range is, so disjoint ranges can be
    sieved independently.  Up to hi = 2**38 the base primes are all those
    up to sqrt(hi), so every survivor is prime.  Above, the base primes stop
    at 2**16 and each survivor is finished by Baillie-PSW: a strong base-2
    test and an extra strong Lucas test, which no composite below 2**64
    passes.  `is_prime` (7-base Miller-Rabin) is never called here, so it
    can judge the stream.
    """
    if not 0 <= lo <= hi <= MAX_MODULUS:
        raise ValueError(f"bad range [{lo}, {hi})")
    if lo <= 2 < hi:
        yield 2
    lo = max(lo, 3) | 1
    if lo >= hi:
        return
    sieved = hi <= _SIEVED
    top = isqrt(hi - 1) if sieved else _BASE
    base = _base_primes(top)
    for seg_lo in range(lo, hi, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT, hi)
        cells = (seg_hi - seg_lo + 1) >> 1  # cell i is the odd number seg_lo + 2i
        seg = bytearray(b"\x01") * cells
        half = seg_lo >> 1
        for q in base[: bisect_right(base, min(isqrt(seg_hi - 1), top))]:
            # the cell of q*q, or of the first odd multiple of q past seg_lo
            i = max((q * q - seg_lo) >> 1, ((q >> 1) - half) % q)
            if i < cells:
                seg[i::q] = bytes((cells - 1 - i) // q + 1)
        survivors = compress(range(seg_lo, seg_hi, 2), seg)
        yield from survivors if sieved else filter(_bpsw, survivors)


def _base_primes(top: int) -> Sequence[int]:
    # an array whose entries up to top are the odd primes up to top, ascending.
    # The base grows to the least power of two at or above top, at most 2**19,
    # and is sieved by this stream from the base below it.  array is loaded
    # here, not with the module, so that the main process of a pooled scan,
    # which sieves nothing, does not load it.
    global _odd_primes, _odd_top
    if top > _odd_top:
        from array import array

        bound = 1 << (top - 1).bit_length()
        _odd_primes = array("I", primes_in_range(3, bound + 1))
        _odd_top = bound
    return _odd_primes
