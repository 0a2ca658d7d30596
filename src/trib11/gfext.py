"""Arithmetic in F_p[x]/(f) for the Tribonacci cubic f = x^3 - x^2 - x - 1.

The module is deliberately not generic over cubics: f is frozen, its
discriminant is -44, and the only two primes where f picks up repeated
factors are 2 and 11.  For every other prime the factorization shape of
f mod p lands in one of three classes matching the conjugacy classes of
S3, exposed here as `splitting_type` / `frobenius_orbit`.

Every power in F_p[x]/(f) goes through one kernel, `_pow3`; the scan's
per-prime facts all come from the single power x^p (`frobenius_power`).

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
    inv_mod,
    jacobi,
    require_prime,
    sqrt_mod,
)

#: coefficients of f = x^3 - x^2 - x - 1, constant term first
F_COEFFS = (-1, -1, -1, 1)

#: discriminant of f; factors as -(2**2) * 11
DISCRIMINANT = -44

#: primes dividing the discriminant, where f mod p has repeated factors
RAMIFIED_PRIMES = (2, 11)


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


@dataclass(frozen=True, slots=True)
class SplittingType:
    """Shape of f mod p, its distinct roots (ascending), and the Frobenius class."""

    shape: Shape
    roots: tuple[int, ...]
    frobenius_class: FrobeniusClass


def _mul3(a, b, p):
    # schoolbook product of two degree<3 polys, then fold x^3 and x^4:
    # x^3 = x^2 + x + 1 and x^4 = 2x^2 + 2x + 1
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    c3 = a1 * b2 + a2 * b1
    c4 = a2 * b2
    return ((c0 + c3 + c4) % p, (c1 + c3 + 2 * c4) % p, (c2 + c3 + 2 * c4) % p)


def _pow3(a, exp, p):
    # a**exp in Z_p[x]/(f) for exp >= 0; f is monic, so any modulus p >= 2 works
    r = (1 % p, 0, 0)
    while exp:
        if exp & 1:
            r = _mul3(r, a, p)
        exp >>= 1
        if exp:
            a = _mul3(a, a, p)
    return r


def frobenius_power(p: PrimeLike) -> tuple[tuple[int, int, int], Shape]:
    """x^p in F_p[x]/(f), whose x^2 coefficient is T_{p-1} mod p, and the shape of f mod p.

    x^p = x exactly when f has three distinct roots.  Otherwise, as
    disc(f) = -11 * 2^2, Frobenius is an even permutation (a 3-cycle)
    iff (-11|p) = 1, and a transposition iff (-11|p) = -1.  The ramified
    primes 2 and 11 keep their fixed shapes.
    """
    pv = require_prime(p)
    x = (0, 1, 0)
    xp = _pow3(x, pv, pv)
    if pv == 2:
        shape = Shape.RAMIFIED_TRIPLE
    elif pv == 11:
        shape = Shape.RAMIFIED_DOUBLE
    elif xp == x:
        shape = Shape.THREE_DISTINCT_ROOTS
    elif jacobi(-11, pv) == -1:
        shape = Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC
    else:
        shape = Shape.IRREDUCIBLE
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
    inv_lead = inv_mod(v[-1], p)
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
        inv_lead = inv_mod(u[-1], p)
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
    # f = (x - r)(x^2 + bx + c) with b = r - 1, c = r^2 - r - 1
    return (r - 1) % p, (r * r - r - 1) % p


def _three_roots(p: int) -> tuple[int, int, int]:
    """All roots of f mod p when f splits completely and is squarefree.

    Equal-degree splitting with a deterministic probe sequence: for
    a = 0, 1, 2, ... the gcd of f with (x+a)^((p-1)/2) - 1 collects the
    roots r whose shifted value r+a is a nonzero square, which separates
    the three roots after a couple of probes.  Once any factor is split
    off, the rest follows from the quadratic formula and the trace.
    """
    half = (p - 1) // 2
    f_list = [c % p for c in F_COEFFS]
    for a in range(p):
        r1 = -1
        minus_a = (p - a) % p
        if _f_eval(minus_a, p) == 0:
            r1 = minus_a
        else:
            w = _pow3((a % p, 1, 0), half, p)
            h = _gcd_poly([(w[0] - 1) % p, w[1], w[2]], f_list, p)
            deg = len(h) - 1
            if deg == 1:
                r1 = (-h[0]) % p
            elif deg == 2:
                r2, r3 = _quadratic_roots(h[1], h[0], p)
                triple = sorted((r2, r3, (1 - r2 - r3) % p))
                return triple[0], triple[1], triple[2]
            else:
                continue
        b, c = _cofactor_quadratic(r1, p)
        r2, r3 = _quadratic_roots(b, c, p)
        triple = sorted((r1, r2, r3))
        return triple[0], triple[1], triple[2]
    raise ArithmeticError(f"no splitting probe succeeded mod {p}")


def splitting_type(p: PrimeLike) -> SplittingType:
    """Classify the factorization of f modulo the prime p.

    Roots are recovered from gcd(f, x^p - x): a trivial gcd means f is
    irreducible, a linear gcd carries the unique root, and gcd = f means
    f splits completely.  The two ramified primes get their own shapes,
    with roots found by direct enumeration.
    """
    pv = require_prime(p)
    if pv == 2:
        return SplittingType(Shape.RAMIFIED_TRIPLE, (1,), FrobeniusClass.RAMIFIED)
    if pv == 11:
        roots = tuple(r for r in range(11) if _f_eval(r, 11) == 0)
        return SplittingType(Shape.RAMIFIED_DOUBLE, roots, FrobeniusClass.RAMIFIED)
    xp = _pow3((0, 1, 0), pv, pv)
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
    return SplittingType(shape, roots, _SHAPE_CLASS[shape])


def distinct_roots(p: PrimeLike) -> list[int]:
    """The distinct roots of f in F_p, ascending (0 to 3 of them)."""
    return list(splitting_type(p).roots)


def frobenius_orbit(p: PrimeLike) -> int:
    """Order of a -> a^p on the residue class of x in F_p[x]/(f): 1, 2, or 3."""
    pv = require_prime(p)
    if pv in RAMIFIED_PRIMES:
        raise RamifiedPrime(f"Frobenius orbit undefined at ramified prime {pv}")
    x = (0, 1, 0)
    xp = _pow3(x, pv, pv)
    if xp == x:
        return 1
    xpp = _pow3(xp, pv, pv)
    if xpp == x:
        return 2
    if _pow3(xpp, pv, pv) != x:
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
