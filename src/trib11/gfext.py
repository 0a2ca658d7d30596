"""Arithmetic in F_p[x]/(f) for the Tribonacci cubic f = x^3 - x^2 - x - 1.

The module is deliberately not generic over cubics: f is frozen, its
discriminant is -44, and the only two primes where f picks up repeated
factors are 2 and 11.  For every other prime the factorization shape of
f mod p lands in one of three classes matching the conjugacy classes of
S3, exposed here as `splitting_type` / `frobenius_orbit`.

Every power in F_p[x]/(f) goes through one square-and-shift ladder,
`_xpow`, which takes (x + a)^n.  The scan's residues and shapes all come
from x^p, which it takes for a chunk's primes at once
(`_residues_and_shapes`, two flat sequences in the primes' order):
consecutive primes whose product m reaches `_BATCH_BITS` bits share one
ladder for x^q1 mod m, and each prime's residue is one dot product of it
with the x^2 coefficients of the table's x^(q - q1); `verifier.verdict`
takes the batch of one.  `splitting_type`, `frobenius_orbit` and
`tribonacci.trib_mod` take their powers prime by prime, so the tests
judge the batches by them.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .modmath import PrimeLike, _sqrt_mod, require_prime

#: coefficients of f = x^3 - x^2 - x - 1, constant term first
F_COEFFS = (-1, -1, -1, 1)

#: discriminant of f; factors as -(2**2) * 11
DISCRIMINANT = -44


class RamifiedPrime(ValueError):
    """The operation needs a prime where f mod p is squarefree; 2 and 11 are not."""


class Shape(enum.Enum):
    """Factorization shape of f modulo a prime."""

    # members are singletons compared by identity, so hash them by identity
    # too: dict lookups keyed by a member then run no Python code
    __hash__ = object.__hash__

    THREE_DISTINCT_ROOTS = "ThreeDistinctRoots"
    ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC = "OneRootPlusIrreducibleQuadratic"
    IRREDUCIBLE = "Irreducible"
    RAMIFIED_TRIPLE = "RamifiedTriple"
    RAMIFIED_DOUBLE = "RamifiedDouble"

    @property
    def frobenius_class(self) -> "FrobeniusClass":
        """The conjugacy class of Frobenius at a prime with this shape."""
        return _SHAPE_CLASS[self]


class FrobeniusClass(enum.Enum):
    """Conjugacy class in S3 of the Frobenius automorphism (or Ramified)."""

    __hash__ = object.__hash__  # as for Shape

    IDENTITY = "Identity"
    TRANSPOSITION = "Transposition"
    THREE_CYCLE = "ThreeCycle"
    RAMIFIED = "Ramified"


_SHAPE_CLASS = {
    Shape.THREE_DISTINCT_ROOTS: FrobeniusClass.IDENTITY,
    Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC: FrobeniusClass.TRANSPOSITION,
    Shape.IRREDUCIBLE: FrobeniusClass.THREE_CYCLE,
    Shape.RAMIFIED_TRIPLE: FrobeniusClass.RAMIFIED,
    Shape.RAMIFIED_DOUBLE: FrobeniusClass.RAMIFIED,
}

_RAMIFIED_SHAPE = {2: Shape.RAMIFIED_TRIPLE, 11: Shape.RAMIFIED_DOUBLE}

#: the nonzero squares mod 11: (-11|p) = (p|11) = 1 exactly for p mod 11 in this set
_SQUARES_MOD_11 = frozenset({1, 3, 4, 5, 9})

#: the residue class of x in F_p[x]/(f)
_X = (0, 1, 0)

#: primes dividing the discriminant, where f mod p has repeated factors
RAMIFIED_PRIMES = tuple(_RAMIFIED_SHAPE)


class SplittingType(NamedTuple):
    """Shape of f mod p and its distinct roots (ascending)."""

    shape: Shape
    roots: tuple[int, ...]

    @property
    def frobenius_class(self) -> FrobeniusClass:
        return self.shape.frobenius_class


def _small_powers(count):
    # x^k in Z[x]/(f) for 0 <= k < count, each the previous one times x
    powers = [(1, 0, 0)]
    for _ in range(count - 1):
        r0, r1, r2 = powers[-1]
        powers.append((r2, r0 + r2, r1 + r2))
    return tuple(powers)


#: bits of n that `_xpow` reads from `_X_POWERS` instead of the ladder
_TABLE_BITS = 10

#: x^k in Z[x]/(f), exact, for k < 2**_TABLE_BITS, and the column of their x^2
#: coefficients; built by `_x_powers` on first use, so that a process that
#: computes no x^p, such as the parent of a pooled scan, never holds their 0.26 MB
_X_POWERS = _X2 = None


def _x_powers():
    # _X_POWERS, built with _X2 if it is not yet
    global _X_POWERS, _X2
    if _X_POWERS is None:
        _X_POWERS = _small_powers(1 << _TABLE_BITS)
        _X2 = tuple(s[2] for s in _X_POWERS)
    return _X_POWERS


def _xpow(n, m, a=0):
    # (x + a)^n in Z_m[x]/(f) for n >= 0 and 0 <= a < m; f is monic, so any
    # m >= 2 works.  Left to right over the bits of n: square r with 6
    # products, folding x^3 = x^2 + x + 1 and x^4 = 2x^2 + 2x + 1, then on a 1
    # bit multiply by x + a.  For a = 0 that is the shift
    # r*x = (r2, r0 + r2, r1 + r2), left unreduced: the next square or the
    # final % brings it back below m.  Also for a = 0, the power of x for the
    # top _TABLE_BITS bits of n comes reduced from the table, and the ladder
    # walks only the bits below them.
    bits = bin(n)[2:]
    if a:
        r0, r1, r2 = 1, 0, 0
    else:
        low = bits[_TABLE_BITS:]
        r0, r1, r2 = _x_powers()[n >> len(low)]
        r0, r1, r2 = r0 % m, r1 % m, r2 % m
        if not low:
            return r0, r1, r2
        bits = low
    for bit in bits:
        t = r1 * r2
        v = t + r2 * r2
        r0, r1, r2 = (
            (r0 * r0 + t + v) % m,
            2 * (r0 * r1 + v) % m,
            (2 * (r0 * r2 + v) + r1 * r1) % m,
        )
        if bit == "1":
            if a:
                r0, r1, r2 = r2 + a * r0, r0 + r2 + a * r1, r1 + r2 + a * r2
            else:
                r0, r1, r2 = r2, r0 + r2, r1 + r2
    return r0 % m, r1 % m, r2 % m


#: a batch of primes closes once their product reaches this many bits
_BATCH_BITS = 192


#: the shape of f mod q for a q outside {2, 11} where x^q != x, indexed by q mod 11
_NONSPLIT_SHAPE = tuple(
    Shape.IRREDUCIBLE if r in _SQUARES_MOD_11 else Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC
    for r in range(11)
)


def _residues_and_shapes(primes):
    # (residues, shapes) of the ascending primes, each in their order: T_{q-1}
    # mod q, the x^2 coefficient of x^q in F_q[x]/(f), and the shape of f mod q.
    # Consecutive primes gather into a batch until their product m reaches
    # _BATCH_BITS bits, or the next prime lies 2**_TABLE_BITS - 2 or more past
    # the batch's first, q1.  The batch shares one ladder, r = x^q1 mod m.  With
    # d = q - q1, x^q = r0 x^d + r1 x^(d+1) + r2 x^(d+2), so its x^2 coefficient
    # is the dot product of r with t[d], t[d+1], t[d+2], t[n] the x^2 coefficient
    # of the table's x^n.  Z/m -> Z/q is a ring map and f is monic, so that taken
    # mod q is T_{q-1} mod q.
    from array import array  # loaded by the processes that compute chunks only

    x_powers = _x_powers()
    t = _X2
    residues = array("q")
    shapes = []
    add_residue, add_shape = residues.append, shapes.append
    n = len(primes)
    end = 0
    while end < n:
        start, m = end, 1
        q1 = primes[start]
        reach = q1 + (1 << _TABLE_BITS) - 2
        while end < n and m.bit_length() < _BATCH_BITS and primes[end] < reach:
            m *= primes[end]
            end += 1
        r0, r1, r2 = _xpow(q1, m)
        for q in primes[start:end]:
            d = q - q1
            residue = (r0 * t[d] + r1 * t[d + 1] + r2 * t[d + 2]) % q
            add_residue(residue)
            # x^q = x exactly when f has three distinct roots, and that needs a
            # zero residue, so the other two coefficients of r * x^d are formed
            # only then.  Otherwise, as disc(f) = -44 = -11 * 2^2, Frobenius is an
            # even permutation (a 3-cycle) exactly when (-11|q) = 1, and a
            # transposition when (-11|q) = -1.  Since -11 = 1 mod 4, reciprocity
            # gives (-11|q) = (q|11), so the class is read off q mod 11:
            # Q(sqrt(-11)) is the quadratic subfield of the splitting field.
            shape = _NONSPLIT_SHAPE[q % 11]
            if not residue:
                # r * x^d, folding x^3 = x^2 + x + 1 and x^4 = 2x^2 + 2x + 1
                s0, s1, s2 = x_powers[d]
                c = r1 * s2 + r2 * s1 + r2 * s2
                if not (r0 * s0 + c) % q and (r0 * s1 + r1 * s0 + c + r2 * s2) % q == 1:
                    shape = Shape.THREE_DISTINCT_ROOTS
            add_shape(shape)
    # the ramified 2 and 11 keep their fixed shapes; ascending primes hold them
    # among their first five
    for i, q in enumerate(primes[:5]):
        if q in _RAMIFIED_SHAPE:
            shapes[i] = _RAMIFIED_SHAPE[q]
    return residues, shapes


def _f_eval(r: int, p: int) -> int:
    return (((r - 1) * r - 1) * r - 1) % p


# -- small dense-polynomial helpers (coefficient lists, constant term first) --


def _trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _rem(u: list[int], v: list[int], p: int) -> list[int]:
    # remainder of u modulo v over F_p; v nonzero, not necessarily monic
    u = u[:]
    dv = len(v) - 1
    inv_lead = pow(v[-1], -1, p)
    while len(u) > dv:
        q = u[-1] * inv_lead % p
        if q:
            off = len(u) - 1 - dv
            for i in range(dv + 1):
                u[off + i] = (u[off + i] - q * v[i]) % p
        u.pop()
        _trim(u)
    return u


def _gcd_poly(u: list[int], v: list[int], p: int) -> list[int]:
    # monic gcd over F_p
    u, v = _trim(u[:]), _trim(v[:])
    while v:
        u, v = v, _rem(u, v, p)
    if u:
        inv_lead = pow(u[-1], -1, p)
        u = [c * inv_lead % p for c in u]
    return u


def _quadratic_roots(b: int, c: int, p: int) -> tuple[int, int]:
    # both roots of the monic x^2 + bx + c, which must split over F_p
    disc = (b * b - 4 * c) % p
    s = _sqrt_mod(disc, p)
    if s is None:
        raise ArithmeticError(f"quadratic x^2+{b}x+{c} unexpectedly irreducible mod {p}")
    half = (p + 1) // 2
    return (-b + s) * half % p, (-b - s) * half % p


def _cofactor_quadratic(r: int, p: int) -> tuple[int, int]:
    # (c, b), constant term first, with f = (x - r)(x^2 + bx + c):
    # b = r - 1, c = r^2 - r - 1
    return (r * r - r - 1) % p, (r - 1) % p


def _three_roots(p: int) -> tuple[int, ...]:
    """All roots of f mod p when f splits completely and is squarefree.

    Equal-degree splitting with a deterministic probe sequence: for
    a = 0, 1, 2, ... the gcd of f with (x+a)^((p-1)/2) - 1 collects the
    roots r whose shifted value r+a is a nonzero square, which separates
    the three roots after a couple of probes.  Once one root r1 is known
    (from a linear gcd, or from a quadratic gcd and the trace, since the
    roots sum to 1), the other two come from the cofactor of (x - r1).
    """
    half = (p - 1) // 2
    f_list = [c % p for c in F_COEFFS]
    for a in range(p):
        minus_a = (p - a) % p
        if _f_eval(minus_a, p) == 0:
            r1 = minus_a
        else:
            w = _xpow(half, p, a)
            h = _gcd_poly([(w[0] - 1) % p, w[1], w[2]], f_list, p)
            deg = len(h) - 1
            if deg == 1:
                r1 = (-h[0]) % p
            elif deg == 2:
                r1 = (1 + h[1]) % p  # h = x^2 - (r2 + r3)x + r2*r3
            else:
                continue
        c, b = _cofactor_quadratic(r1, p)
        r2, r3 = _quadratic_roots(b, c, p)
        return tuple(sorted((r1, r2, r3)))
    raise ArithmeticError(f"no splitting probe succeeded mod {p}")


def splitting_type(p: PrimeLike) -> SplittingType:
    """Classify the factorization of f modulo the prime p.

    Roots are recovered from gcd(f, x^p - x): a trivial gcd means f is
    irreducible, a linear gcd carries the unique root, and gcd = f means
    f splits completely, and equal-degree splitting separates its roots.
    The two ramified primes get their own shapes, with roots found by
    direct enumeration.
    """
    return _splitting_type(require_prime(p))


def _splitting_type(p: int) -> SplittingType:
    # splitting_type for a p already known to be prime
    shape, g = _gcd_shape(p)
    if shape is Shape.THREE_DISTINCT_ROOTS:
        roots: tuple[int, ...] = _three_roots(p)
    elif shape is Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC:
        roots = ((-g[0]) % p,)
    elif shape is Shape.IRREDUCIBLE:
        roots = ()
    else:  # ramified: p is 2 or 11
        roots = tuple(r for r in range(p) if _f_eval(r, p) == 0)
    return SplittingType(shape, roots)


def _gcd_shape(p: int) -> tuple[Shape, list[int]]:
    # splitting_type's shape for a p known to be prime, from the degree of the
    # monic g = gcd(f, x^p - x), returned with g: f, x - r or [1].  It searches
    # for no root and does not use _residues_and_shapes' p mod 11 rule.  The
    # ramified 2 and 11 get their fixed shapes and g = [].
    if p in _RAMIFIED_SHAPE:
        return _RAMIFIED_SHAPE[p], []
    f_p = [c % p for c in F_COEFFS]
    xp = _xpow(p, p)
    u = [xp[0], (xp[1] - 1) % p, xp[2]]
    if not any(u):
        return Shape.THREE_DISTINCT_ROOTS, f_p
    g = _gcd_poly(u, f_p, p)
    if len(g) == 1:
        return Shape.IRREDUCIBLE, g
    if len(g) == 2:
        return Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC, g
    raise ArithmeticError(f"impossible split-part degree {len(g) - 1} mod {p}")


def frobenius_orbit(p: PrimeLike) -> int:
    """Order of a -> a^p on the residue class of x in F_p[x]/(f): 1, 2, or 3."""
    pv = require_prime(p)
    if pv in RAMIFIED_PRIMES:
        raise RamifiedPrime(f"Frobenius orbit undefined at ramified prime {pv}")
    if _xpow(pv, pv) == _X:
        return 1
    if _xpow(pv**2, pv) == _X:
        return 2
    if _xpow(pv**3, pv) != _X:
        raise ArithmeticError(f"Frobenius orbit of x mod {pv} exceeds 3")
    return 3
