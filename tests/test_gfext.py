import random
import warnings

import pytest

from trib11.gfext import (
    DISCRIMINANT,
    F_COEFFS,
    RAMIFIED_PRIMES,
    FrobeniusClass,
    RamifiedPrime,
    Shape,
    _gcd_shape,
    _residues_and_shapes,
    _xpow,
    frobenius_orbit,
    splitting_type,
)
from trib11.modmath import ModPrime, NotPrime, is_prime
from trib11.tribonacci import ModulusMismatch, QuotientRing

from oracles import f_eval, naive_root_multiplicity, naive_roots, sieve_list


def test_defining_cubic_discriminant():
    assert F_COEFFS == (-1, -1, -1, 1)
    # generic cubic discriminant of x^3 + bx^2 + cx + d with b=c=d=-1:
    # 18bcd - 4b^3d + b^2c^2 - 4c^3 - 27d^2
    b = c = d = -1
    disc = 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2
    assert disc == DISCRIMINANT == -44
    for p in (5, 7, 13):
        for r in range(p):
            horner = 0
            for coeff in reversed(F_COEFFS):
                horner = (horner * r + coeff) % p
            assert horner == f_eval(r, p)


X = (0, 1, 0)


def _cubic_ring(p):
    return QuotientRing(p, (p - 1, p - 1, p - 1))  # F_p[x]/(f)


def test_poly_mul_defining_relation():
    ring = _cubic_ring(101)
    assert (ring.gen() * ring.element((0, 0, 1))).coeffs == (1, 1, 1)  # x^3 = x^2 + x + 1
    assert _xpow(3, 101) == (1, 1, 1)
    assert _xpow(4, 101) == (1, 2, 2)  # x^4 = 2x^2 + 2x + 1


def test_poly_mul_identity_and_low_degree():
    ring = _cubic_ring(5)
    assert (ring.const(1) * ring.element((2, 3, 4))).coeffs == (2, 3, 4)
    # (x+1)(x-1) = x^2 - 1, no reduction needed
    assert (ring.element((1, 1)) * ring.element((-1, 1))).coeffs == (4, 0, 1)
    # (x+1)^2 = x^2 + 2x + 1, the ladder's multiply by x + a
    assert _xpow(2, 5, 1) == (1, 2, 1)


def test_poly_mul_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        _cubic_ring(5).gen() * _cubic_ring(7).gen()


def test_poly_pow_basics():
    assert _xpow(0, 13) == (1, 0, 0)
    assert _xpow(0, 13, 5) == (1, 0, 0)
    assert _xpow(1, 13) == X
    assert _xpow(1, 13, 5) == (5, 1, 0)
    assert _xpow(3, 13) == (1, 1, 1)
    assert (_cubic_ring(13).gen() ** 3).coeffs == (1, 1, 1)


def test_poly_pow_matches_repeated_multiplication():
    ring = _cubic_ring(101)
    for a in (0, 1, 3, 100):
        base = ring.element((a, 1))
        acc = ring.const(1)
        for e in range(12):
            assert _xpow(e, 101, a) == acc.coeffs, (a, e)
            acc = acc * base


def test_xpow_table_start_matches_quotient_ring_powers():
    # x^n takes its top 10 bits from the table of small powers: n < 2^10 runs
    # no ladder step, n >= 2^10 squares over the bits below them
    for m in (2, 3, 19, 2**64 - 59):
        x = _cubic_ring(m).gen()
        acc = x ** 0
        for n in range(2**11 + 65):
            assert _xpow(n, m) == acc.coeffs, (n, m)
            acc = acc * x
        for n in (2**20 - 1, 2**20, 2**20 + 1, 2**80 - 1):
            assert _xpow(n, m) == (x ** n).coeffs, (n, m)


def test_poly_pow_frobenius_moves_root_mod_3():
    # f has no roots mod 3, so x -> x^3 cannot fix x
    assert naive_roots(3) == []
    assert _xpow(3, 3) != X


def test_frobenius_orbit_representatives():
    assert len(naive_roots(47)) == 3
    assert frobenius_orbit(47) == 1
    assert naive_roots(7) == [3]
    assert frobenius_orbit(7) == 2
    assert naive_roots(3) == []
    assert frobenius_orbit(3) == 3


def test_frobenius_orbit_ramified_rejected():
    for p in RAMIFIED_PRIMES:
        with pytest.raises(RamifiedPrime):
            frobenius_orbit(p)


def test_splitting_ramified_2():
    st = splitting_type(2)
    assert st.shape is Shape.RAMIFIED_TRIPLE
    assert st.roots == (1,)
    assert st.frobenius_class is FrobeniusClass.RAMIFIED
    assert naive_root_multiplicity(1, 2) == 3


def test_splitting_ramified_11():
    st = splitting_type(11)
    assert st.shape is Shape.RAMIFIED_DOUBLE
    assert st.roots == (7, 9)
    # one double root and one simple root, confirmed by brute force
    assert naive_root_multiplicity(7, 11) == 2
    assert naive_root_multiplicity(9, 11) == 1


def test_splitting_examples():
    assert splitting_type(5).shape is Shape.IRREDUCIBLE
    assert splitting_type(5).frobenius_class is FrobeniusClass.THREE_CYCLE
    assert splitting_type(7).roots == (3,)
    st47 = splitting_type(47)
    assert st47.shape is Shape.THREE_DISTINCT_ROOTS
    assert st47.roots == (5, 17, 26)
    assert list(st47.roots) == naive_roots(47)


def test_splitting_rejects_composites():
    with pytest.raises(NotPrime):
        splitting_type(10)


def test_distinct_roots_examples():
    assert splitting_type(2).roots == (1,)
    assert splitting_type(7).roots == (3,)
    assert splitting_type(47).roots == (5, 17, 26)


def test_splitting_matches_enumeration_below_10k():
    """Exhaustive cross-check of the gcd/splitting machinery vs direct search."""
    shapes_seen = set()
    for p in sieve_list(10**4):
        st = splitting_type(ModPrime(p))
        shapes_seen.add(st.shape)
        expected = naive_roots(p)
        assert list(st.roots) == expected, p
        for r in st.roots:
            assert f_eval(r, p) == 0
        if p in RAMIFIED_PRIMES:
            assert st.frobenius_class is FrobeniusClass.RAMIFIED
            continue
        # orbit length must match the root count
        orbit = frobenius_orbit(ModPrime(p))
        assert {3: 1, 1: 2, 0: 3}[len(st.roots)] == orbit, p
    assert shapes_seen == set(Shape)


def test_frobenius_power_examples():
    cases = {
        2: Shape.RAMIFIED_TRIPLE,
        3: Shape.IRREDUCIBLE,
        7: Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC,
        11: Shape.RAMIFIED_DOUBLE,
        19: Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC,
        47: Shape.THREE_DISTINCT_ROOTS,
    }
    residues = {}
    for p, shape in cases.items():
        (residues[p],), (got,) = _residues_and_shapes((p,))  # the batch of one
        assert residues[p] == _xpow(p, p)[2] == (_cubic_ring(p).gen() ** p).coeffs[2], p
        assert got is shape is _gcd_shape(p)[0] is splitting_type(p).shape, p
    # one batch over all of them, 2 and 11 included, gives the same facts
    batch_residues, batch_shapes = _residues_and_shapes(tuple(cases))
    assert list(batch_residues) == list(residues.values())
    assert batch_shapes == list(cases.values())
    # the x^2 coefficient of x^p is T_{p-1} mod p: T_10 = 149, T_18 = 19*1027
    assert residues[11] == 149 % 11
    assert residues[19] == 0
    assert _xpow(47, 47) == X


#: a prime p near 2**62 with p + 1020 and p + 1022 prime too
_EDGE = 4611686018427389651


@pytest.mark.parametrize("ps", [
    [11, 1031],
    [11, 1033],
    [13, 17, 19, 47, 1033],
    [_EDGE, _EDGE + 1020],
    [_EDGE, _EDGE + 1022],
    [_EDGE, 4611686018427389723, 4611686018427389773, _EDGE + 1020],
], ids=str)
def test_a_batch_reaches_1020_past_its_first_prime(ps):
    # a batch closes before any prime 1022 or more past its first, q1, so that the
    # table of x^k, k < 2**10, holds the x^(q - q1 + 2) its dot products read.
    # Lists 1, 3, 4 and 6 are each one batch whose last prime lies 1020 past its
    # first, 3 with 19, whose zero residue is no split; in 2 and 5 the prime 1022
    # past the first opens a batch of its own
    assert all(map(is_prime, ps)) and ps == sorted(ps)
    residues, shapes = _residues_and_shapes(tuple(ps))
    assert len(residues) == len(shapes) == len(ps)
    for q, residue, shape in zip(ps, residues, shapes):
        assert residue == _xpow(q, q)[2] == (_cubic_ring(q).gen() ** q).coeffs[2], q
        assert shape is _gcd_shape(q)[0], q


def test_splitting_matches_sympy_factorization():
    """Differential check against sympy's factorization mod large primes."""
    sympy = pytest.importorskip("sympy")
    from sympy.utilities.exceptions import SymPyDeprecationWarning

    x = sympy.symbols("x")
    by_degrees = {
        (1, 1, 1): Shape.THREE_DISTINCT_ROOTS,
        (1, 2): Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC,
        (3,): Shape.IRREDUCIBLE,
    }
    rng = random.Random(20261017)
    seen = set()
    for _ in range(30):
        p = rng.randrange(2**40, 2**63 - 25)
        while not is_prime(p):
            p += 1
        with warnings.catch_warnings():
            # sympy 1.14 warns about its own ModularInteger comparisons here
            warnings.simplefilter("ignore", SymPyDeprecationWarning)
            _, factors = sympy.factor_list(x**3 - x**2 - x - 1, modulus=p)
        degrees = tuple(sorted(sympy.degree(g, x) for g, k in factors for _ in range(k)))
        shape = splitting_type(ModPrime(p)).shape
        assert shape is by_degrees[degrees], p
        seen.add(shape)
    assert seen == set(by_degrees.values())


def test_vieta_for_split_primes():
    for p in sieve_list(2000):
        st = splitting_type(ModPrime(p))
        if st.shape is not Shape.THREE_DISTINCT_ROOTS:
            continue
        r1, r2, r3 = st.roots
        assert (r1 + r2 + r3) % p == 1
        assert (r1 * r2 + r1 * r3 + r2 * r3) % p == (-1) % p
        assert (r1 * r2 * r3) % p == 1


def test_cubic_extension_is_a_field():
    # when f is irreducible mod p the quotient is F_{p^3}: a^(p^3) = a
    for p in (3, 5):
        assert splitting_type(p).shape is Shape.IRREDUCIBLE
        ring = _cubic_ring(p)
        for c0 in range(p):
            for c1 in range(p):
                for c2 in range(p):
                    a = ring.element((c0, c1, c2))
                    assert a ** (p**3) == a


def test_quotient_ring_degree_one_is_prime_field():
    ring = QuotientRing(13, (0,))
    a, b = ring.const(7), ring.const(9)
    assert (a * b).coeffs == (7 * 9 % 13,)
    assert (a - b).coeffs == ((7 - 9) % 13,)
    assert (a**5).coeffs == (pow(7, 5, 13),)


def test_quotient_ring_cubic_matches_poly_ops():
    p = 31
    x = _cubic_ring(p).gen()
    assert (x * x * x).coeffs == (1, 1, 1)
    for e in (0, 1, 2, 7, 31, 100):
        assert (x**e).coeffs == _xpow(e, p)


def test_quotient_ring_quadratic():
    # x^2 + 1 over F_7 (irreducible since -1 is not a square mod 7)
    ring = QuotientRing(7, (1, 0))
    i = ring.gen()
    assert (i * i).coeffs == ((-1) % 7, 0)
    assert (i**4).coeffs == (1, 0)
    conj = i**7
    assert conj + i == ring.const(0)  # Frobenius sends i to its conjugate -i


def test_quotient_ring_mismatch_and_validation():
    r1, r2 = QuotientRing(7, (1, 0)), QuotientRing(7, (2, 0))
    with pytest.raises(ModulusMismatch):
        r1.gen() * r2.gen()
    with pytest.raises(ValueError):
        QuotientRing(7, ())
    with pytest.raises(ValueError):
        r1.element((1, 2, 3))


def test_ring_element_equality_and_constants():
    ring = QuotientRing(11, (3, 1))
    a = ring.element((4, 0))
    assert a.is_constant and a.constant_value() == 4
    b = ring.gen()
    assert not b.is_constant
    with pytest.raises(ArithmeticError):
        b.constant_value()
    assert ring.const(15) == ring.const(4)
