"""Representations p = x^2 + 11*y^2.

A scan chunk below 2**33 reads its primes' representations off marks of
the form's values in the chunk, one isqrt per row y; above, and for a
single prime, Cornacchia's descent does the work.  `represent` is
Cornacchia and judges the marks; an exhaustive scan over y judges
Cornacchia.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

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


def _representations(lo: int, hi: int, primes) -> tuple[list, list]:
    # the columns (xs, ys) of represent(p) = (x, y) for the ascending primes p of
    # the chunk [lo, hi), each None where p has none.  Below _MARKED a chunk holds
    # about 0.24 * (hi - lo) values x^2 + 11*y^2 on sqrt(hi/11) rows y.  Primes
    # above 2 are odd, and x^2 + 11y^2 is odd exactly when x + y is, so each row
    # walks one parity of x, and cell i, for the odd value (lo | 1) + 2i, holds
    # y + 1 for the last (x, y) written there.  A prime has at most one
    # representation with x, y >= 0 (Cox, Primes of the Form x^2 + ny^2), and
    # composites, which may have several, are never read; 2 reads the cell of 3
    # (lo >= 2), which the form never takes.  y < 2**16 here, so the cells are
    # 16 bits: 32 KB for a 2**15 chunk, 256 KB for 2**18.
    #
    # Each row costs one isqrt: top is its largest x of the row's parity, at v
    # above the first cell's value.  v < 0 leaves the row empty; v < 4*top - 4
    # means (top - 2)^2 + 11y^2 < lo, so x = top is the row's only value; only a
    # row with more takes the second isqrt for its smallest x.  Near 10**9 most
    # rows hold one value or none.  Per prime, against Cornacchia, 16 chunks of
    # 2**15 cost 1.6-1.8 vs 4.3-4.4 us at 10**9, 4.7-6.6 vs 7.8-10.3 at 2**33 and
    # 8.9-11.6 vs 8.4-8.6 at 2**35 (CPU time, best of 9, CPython 3.11 on a Xeon);
    # 4 chunks of 2**18, the width there, cost 1.1 vs 4.3-4.5 us at 10**9,
    # 2.1-2.4 vs 11.2-11.6 ending at 2**33 and 2.3 vs 8.9-9.4 at 2**35 (best of
    # 5, 2-vCPU x86-64 host).  _MARKED stays at 2**33 until a workload above can
    # claim a move.
    if hi > _MARKED:
        reps = [_cornacchia(p) for p in primes]
        return [x for x, _ in reps], [y for _, y in reps]
    marks = memoryview(bytearray((hi - lo + 1) // 2 * 2)).cast("H")
    base = lo | 1
    rest = hi - 1 - base  # hi - 1 - 11y^2 is rest - off
    off = -base  # 11y^2 - base, the value of x = 0 above the first cell
    step = FORM_D  # 11(2y + 1), from row y to row y + 1
    for t in range(1, isqrt((hi - 1) // FORM_D) + 2):  # t = y + 1 for every 11y^2 < hi
        top = isqrt(rest - off)
        top -= (top ^ t) & 1  # x + y odd
        v = top * top + off
        if v >= 0:
            if v < 4 * top - 4:
                marks[v >> 1] = t
            else:
                first = isqrt(-off - 1) + 1 if off < 0 else 0  # ceil(sqrt(base - 11y^2))
                for x in range(first + ((first ^ t) & 1), top + 1, 2):
                    marks[(x * x + off) >> 1] = t
        off += step
        step += 2 * FORM_D
    ys = [marks[(p - lo) >> 1] - 1 for p in primes]
    del marks  # before the columns, which at 10**9 hold as much
    xs = [isqrt(p - FORM_D * y * y) if y >= 0 else None for p, y in zip(primes, ys)]
    return xs, [y if y >= 0 else None for y in ys]


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
