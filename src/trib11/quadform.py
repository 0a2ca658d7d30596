"""Representations p = x^2 + 11*y^2.

A scan chunk below 2**33 reads its primes' representations off marks of
the form's values in the chunk, one isqrt per row y; above, and for a
single prime, Cornacchia's descent does the work.  `represent` is
Cornacchia and judges the marks; an exhaustive scan over y judges
Cornacchia.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, NamedTuple

from .modmath import PrimeLike, _sqrt_mod, require_prime

#: the fixed form coefficient; the public contract is x^2 + 11*y^2 only
FORM_D = 11


class Representation(NamedTuple):
    """A canonical solution (x, y >= 0) of p = x^2 + 11*y^2, or (None, None) for none."""

    x: int | None
    y: int | None

    @property
    def exists(self) -> bool:
        return self.x is not None


#: the one "no representation" value, shared by every prime that has none
_NONE = Representation(None, None)

#: represent_bruteforce refuses n above this; it walks y up to sqrt(n/11)
BRUTEFORCE_MAX = 10**12


def represent(p: PrimeLike) -> Representation:
    """Canonical representation of the prime p by x^2 + 11*y^2, if any.

    Cornacchia: take r with r^2 = -11 mod p (the smaller root, for
    reproducibility), run the Euclidean remainder cascade from (p, r)
    until the remainder drops to sqrt(p) or below, and test the candidate.
    2 is not of the form.  A scan below 2**33 takes the marks of
    `_representations` instead, which this judges.
    """
    return _cornacchia(require_prime(p))


def _cornacchia(p: int) -> Representation:
    # represent for a p already known to be prime
    if p == 2:  # _sqrt_mod needs an odd prime
        return _NONE
    b = _sqrt_mod(-FORM_D % p, p)
    if b is None:  # -11 is not a square mod p
        return _NONE
    prev = p
    limit = isqrt(p)
    while b > limit:
        prev, b = b, prev % b
    rest = p - b * b
    y_sq, r = divmod(rest, FORM_D)
    if r:
        return _NONE
    y = isqrt(y_sq)
    if y * y != y_sq:
        return _NONE
    return Representation(b, y)


#: a chunk ending at or below this marks the values of the form; above, each
#: prime runs Cornacchia
_MARKED = 1 << 33


def _representations(lo: int, hi: int) -> Callable[[int], Representation]:
    # p -> represent(p) for the primes p of the chunk [lo, hi).  Below _MARKED a
    # chunk holds about 0.24 * (hi - lo) values x^2 + 11*y^2 on sqrt(hi/11) rows
    # y.  A cell holds y + 1 for the last (x, y) written there; a prime has at
    # most one representation with x, y >= 0 (Cox, Primes of the Form x^2 + ny^2),
    # and composites, which may have several, are never read.  y < 2**16 here,
    # so the cells are 16 bits: 64 KB for a 2**15 chunk, 512 KB for a 2**18 one.
    #
    # Each row costs one isqrt: top is its largest x, at cell v.  v < 0 leaves
    # the row empty; v < 2*top - 1 means (top - 1)^2 + 11y^2 < lo, so x = top is
    # the row's only value; only a row with more takes the second isqrt for its
    # smallest x.  Near 10**9 most rows hold one value or none.  The rows cost
    # the same whatever the chunk's width, so the walk's cost per prime falls as
    # chunks widen.  Per prime, over 16 chunks of 2**15 (CPU time, best of 9,
    # CPython 3.11 on a Xeon), the walk against Cornacchia cost 1.6-1.8 vs
    # 4.3-4.4 us at 10**9, 3.1-3.6 vs 8.2-8.5 at 2**32, 4.7-6.6 vs 7.8-10.3 at
    # 2**33, 5.9-6.8 vs 8.2-10.5 at 2**34 and 8.9-11.6 vs 8.4-8.6 at 2**35; so
    # the marks stopped at 2**33, short of that crossover.  Over 4 chunks of
    # 2**18, the width of scan chunks there (best of 5, 2-vCPU x86-64 host), it
    # costs 1.1 vs 4.3-4.5 us at 10**9, 2.1-2.4 vs 11.2-11.6 ending at 2**33,
    # 2.0-2.1 vs 9.0-9.4 at 2**34 and 2.3 vs 8.9-9.4 at 2**35: no crossover up
    # to 2**35.  _MARKED stays at 2**33 until a workload there can claim a move.
    if hi > _MARKED:
        return _cornacchia
    marks = memoryview(bytearray(2 * (hi - lo))).cast("H")
    rest = hi - 1 - lo  # hi - 1 - 11y^2 is rest - off
    off = -lo  # 11y^2 - lo, the cell of x = 0
    step = FORM_D  # 11(2y + 1), from row y to row y + 1
    for t in range(1, isqrt((hi - 1) // FORM_D) + 2):  # t = y + 1 for every 11y^2 < hi
        top = isqrt(rest - off)
        v = top * top + off
        if v >= 0:
            if v < 2 * top - 1:
                marks[v] = t
            else:
                first = isqrt(-off - 1) + 1 if off < 0 else 0  # ceil(sqrt(lo - 11y^2))
                for x in range(first, top + 1):
                    marks[x * x + off] = t
        off += step
        step += 2 * FORM_D

    def representation(p: int) -> Representation:
        t = marks[p - lo]
        if not t:
            return _NONE
        y = t - 1
        return Representation(isqrt(p - FORM_D * y * y), y)

    return representation


def represent_bruteforce(n: int) -> Representation:
    """Exhaustive scan over y; works for any 1 <= n <= BRUTEFORCE_MAX, prime or not.

    Returns the hit with the smallest y (for primes there is at most one
    hit, which the tests confirm empirically).  Past BRUTEFORCE_MAX the walk
    of about sqrt(n/11) steps would not finish in predictable time, so such
    an n raises ValueError.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > BRUTEFORCE_MAX:
        raise ValueError(f"exhaustive search capped at n = {BRUTEFORCE_MAX}, got {n}")
    y = 0
    while FORM_D * y * y <= n:
        rest = n - FORM_D * y * y
        x = isqrt(rest)
        if x * x == rest:
            return Representation(x, y)
        y += 1
    return _NONE
