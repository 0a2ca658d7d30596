"""Arithmetic in F_p[x]/(f) for the Tribonacci cubic f = x^3 - x^2 - x - 1.

The module is deliberately not generic over cubics: f is frozen, its
discriminant is -44, and the only two primes where f picks up repeated
factors are 2 and 11.  For every other prime the factorization shape of
f mod p lands in one of three classes matching the conjugacy classes of
S3, exposed here as `splitting_type` / `frobenius_orbit`.

Every power in F_p[x]/(f) goes through one square-and-shift ladder,
`_xpow`, which takes (x + a)^n; the scan's per-prime facts all come from
the single power x^p (`frobenius_power`).

A small generic quotient ring F_p[x]/(m) for monic m of degree 1..3 is
also provided; it carries the three ambient rings (the prime field, a
quadratic extension, the full cubic extension) the explicit Tribonacci
root formula evaluates in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .modmath import (
    InvalidModulus,
    PrimeLike,
    require_prime,
    sqrt_mod,
)

#: coefficients of f = x^3 - x^2 - x - 1, constant term first
F_COEFFS = (-1, -1, -1, 1)

#: discriminant of f; factors as -(2**2) * 11
DISCRIMINANT = -44


class RamifiedPrime(ValueError):
    """The operation needs a prime where f mod p is squarefree; 2 and 11 are not."""


class ModulusMismatch(ValueError):
    """Mixed operands from different moduli or rings."""


class Shape(enum.Enum):
    """Factorization shape of f modulo a prime."""

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


@dataclass(frozen=True, slots=True)
class SplittingType:
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

#: x^k in Z[x]/(f), exact, for k < 2**_TABLE_BITS
_X_POWERS = _small_powers(1 << _TABLE_BITS)


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
        r0, r1, r2 = _X_POWERS[n >> len(low)]
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


def frobenius_power(p: PrimeLike) -> tuple[tuple[int, int, int], Shape]:
    """x^p in F_p[x]/(f), whose x^2 coefficient is T_{p-1} mod p, and the shape of f mod p.

    x^p = x exactly when f has three distinct roots.  Otherwise, as
    disc(f) = -11 * 2^2, Frobenius is an even permutation (a 3-cycle)
    iff (-11|p) = 1, and a transposition iff (-11|p) = -1.  Since
    -11 = 1 mod 4, reciprocity gives (-11|p) = (p|11), so the class is
    read off p mod 11: Q(sqrt(-11)) is the quadratic subfield of the
    splitting field.  The ramified primes 2 and 11 keep their fixed shapes.
    """
    pv = require_prime(p)
    xp = _xpow(pv, pv)
    if pv in _RAMIFIED_SHAPE:
        shape = _RAMIFIED_SHAPE[pv]
    elif xp == _X:
        shape = Shape.THREE_DISTINCT_ROOTS
    elif pv % 11 in _SQUARES_MOD_11:
        shape = Shape.IRREDUCIBLE
    else:
        shape = Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC
    return xp, shape


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
    s = sqrt_mod(disc, p)
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
    f splits completely.  The two ramified primes get their own shapes,
    with roots found by direct enumeration.
    """
    pv = require_prime(p)
    if pv in _RAMIFIED_SHAPE:
        roots = tuple(r for r in range(pv) if _f_eval(r, pv) == 0)
        return SplittingType(_RAMIFIED_SHAPE[pv], roots)
    xp = _xpow(pv, pv)
    u = [xp[0], (xp[1] - 1) % pv, xp[2]]
    if not any(u):
        shape = Shape.THREE_DISTINCT_ROOTS
        roots: tuple[int, ...] = _three_roots(pv)
    else:
        g = _gcd_poly(u, [c % pv for c in F_COEFFS], pv)
        deg = len(g) - 1
        if deg == 0:
            shape, roots = Shape.IRREDUCIBLE, ()
        elif deg == 1:
            shape, roots = Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC, ((-g[0]) % pv,)
        else:
            raise ArithmeticError(f"impossible split-part degree {deg} mod {pv}")
    return SplittingType(shape, roots)


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

    def __neg__(self) -> "RingElement":
        p = self.ring.p
        return RingElement(self.ring, tuple(-x % p for x in self.coeffs))

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

    def __hash__(self) -> int:
        return hash((self.ring.p, self.ring.modulus, self.coeffs))

    @property
    def is_constant(self) -> bool:
        return not any(self.coeffs[1:])

    def constant_value(self) -> int:
        if not self.is_constant:
            raise ArithmeticError(f"{self.coeffs} is not a prime-field constant")
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"RingElement({self.coeffs} mod {self.ring.modulus}, p={self.ring.p})"
