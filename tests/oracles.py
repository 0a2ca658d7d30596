"""Independent brute-force oracles used to validate the fast implementations.

Everything here is deliberately naive: trial division, exhaustive root
enumeration, full scans.  None of it shares code with the package.
"""

from itertools import takewhile
from math import isqrt


def trial_isprime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def sieve_list(n: int) -> list[int]:
    """All primes below n by a plain sieve."""
    if n < 3:
        return [2] if n > 2 else []
    s = bytearray(b"\x01") * n
    s[0] = s[1] = 0
    for i in range(2, isqrt(n - 1) + 1):
        if s[i]:
            s[i * i :: i] = b"\x00" * len(range(i * i, n, i))
    return [i for i, f in enumerate(s) if f]


def trial_primes(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi) by trial division with the primes up to sqrt(hi)."""
    divisors = sieve_list(isqrt(max(hi - 1, 0)) + 1)
    return [
        n for n in range(max(lo, 2), hi)
        if all(n % q for q in takewhile(lambda q: q * q <= n, divisors))
    ]


def f_eval(r: int, p: int) -> int:
    """x^3 - x^2 - x - 1 at r, mod p."""
    return (r * r * r - r * r - r - 1) % p


def naive_roots(p: int) -> list[int]:
    """Roots of x^3 - x^2 - x - 1 mod p by trying every residue."""
    return [r for r in range(p) if f_eval(r, p) == 0]


def naive_root_multiplicity(r: int, p: int) -> int:
    """Multiplicity of a root r of the cubic mod p, via synthetic division."""
    coeffs = [1, -1, -1, -1]  # leading first
    mult = 0
    while True:
        out, acc = [], 0
        for c in coeffs:
            acc = (acc * r + c) % p
            out.append(acc)
        if out[-1] != 0:
            return mult
        mult += 1
        coeffs = out[:-1]
        if not coeffs:
            return mult


def brute_rep_hits(n: int) -> list[tuple[int, int]]:
    """Every (x, y) with x, y >= 0 and x^2 + 11y^2 = n."""
    hits = []
    y = 0
    while 11 * y * y <= n:
        rest = n - 11 * y * y
        x = isqrt(rest)
        if x * x == rest:
            hits.append((x, y))
        y += 1
    return hits


def form_values(lo: int, hi: int) -> set[int]:
    """Every x^2 + 11y^2 in [lo, hi), with x, y >= 0, row by row over y."""
    values = set()
    y = 0
    while 11 * y * y < hi:
        base = 11 * y * y
        first = isqrt(lo - base - 1) + 1 if lo > base else 0
        values.update(x * x + base for x in range(first, isqrt(hi - 1 - base) + 1))
        y += 1
    return values


def trib_list_mod(count: int, m: int) -> list[int]:
    """First `count` Tribonacci values T_0.. mod m by direct iteration."""
    seq = [0 % m, 1 % m, 1 % m]
    while len(seq) < count:
        seq.append((seq[-1] + seq[-2] + seq[-3]) % m)
    return seq[:count]


def trib_list_exact(count: int) -> list[int]:
    seq = [0, 1, 1]
    while len(seq) < count:
        seq.append(seq[-1] + seq[-2] + seq[-3])
    return seq[:count]


def square_and_multiply(base: int, exp: int, m: int) -> int:
    """Reference modular power, written independently of the package."""
    result = 1 % m
    base %= m
    while exp:
        if exp & 1:
            result = result * base % m
        base = base * base % m
        exp >>= 1
    return result
