"""Property tests over the whole domain [2, 2**63).

The power ladder against `QuotientRing`, `trib_mod` against iteration,
the fused classifier against the other two and its p mod 11 rule against
the Legendre symbol, the prime source against `is_prime`, Cornacchia
against the splitting shape, and `sqrt_mod` near the top of the domain.
"""

from hypothesis import given, settings, strategies as st

from trib11.gfext import (
    F_COEFFS,
    _SQUARES_MOD_11,
    QuotientRing,
    Shape,
    _xpow,
    frobenius_orbit,
    frobenius_power,
    splitting_type,
)
from trib11.modmath import MAX_MODULUS, ModPrime, is_prime, jacobi, primes_in_range, sqrt_mod
from trib11.quadform import represent
from trib11.tribonacci import trib_mod

from oracles import trib_list_mod

# fixed examples, so that every run of the suite checks the same inputs
reproducible = settings(deadline=None, derandomize=True)

_ORBIT_SHAPE = {
    1: Shape.THREE_DISTINCT_ROOTS,
    2: Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC,
    3: Shape.IRREDUCIBLE,
}


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# 2**63 - 25 is the largest prime below 2**63, so the walk up stays below it
primes = st.integers(3, 2**63 - 25).map(_next_prime)


# moduli of every size, most of them composite, each with a shift a in [0, m),
# often a = 0, the path that starts from the table of small powers
moduli_and_shifts = st.one_of(st.integers(2, 100), st.integers(2, 2**64 - 1)).flatmap(
    lambda m: st.tuples(st.just(m), st.one_of(st.just(0), st.integers(0, m - 1)))
)


@reproducible
@given(n=st.integers(0, 2**80 - 1), ma=moduli_and_shifts)
def test_xpow_matches_quotient_ring_power(n, ma):
    # QuotientRing multiplies schoolbook and powers right to left: no shared code
    m, a = ma
    ring = QuotientRing(m, F_COEFFS[:3])
    assert _xpow(n, m, a) == (ring.element((a, 1)) ** n).coeffs


@reproducible
@given(
    p=st.one_of(st.integers(3, 10**4), st.integers(3, 2**63 - 25))
    .map(_next_prime)
    .filter(lambda p: p != 11)
)
def test_mod_11_classifier_is_the_legendre_symbol(p):
    even = jacobi(-11, p) == 1
    assert (p % 11 in _SQUARES_MOD_11) == even
    _, shape = frobenius_power(ModPrime(p))
    assert (shape in (Shape.THREE_DISTINCT_ROOTS, Shape.IRREDUCIBLE)) == even


@reproducible
@given(n=st.integers(0, 2000), m=st.integers(2, 2**64 - 1))
def test_trib_mod_matches_iteration(n, m):
    assert trib_mod(n, m) == trib_list_mod(n + 1, m)[n]


@reproducible
@given(p=primes)
def test_fused_classifier_matches_gcd_and_orbit(p):
    _, shape = frobenius_power(ModPrime(p))
    assert shape is splitting_type(ModPrime(p)).shape
    if p != 11:
        assert shape is _ORBIT_SHAPE[frobenius_orbit(ModPrime(p))]


_WIDTH = 2000

# windows anywhere in the domain, across 2**40 (where sieve survivors stop
# being certainly prime), and ending at MAX_MODULUS
window_starts = st.one_of(
    st.integers(2, MAX_MODULUS - _WIDTH),
    st.integers(2**40 - _WIDTH, 2**40),
    st.integers(0, _WIDTH).map(lambda k: MAX_MODULUS - _WIDTH - k),
)


@settings(reproducible, max_examples=30)
@given(lo=window_starts)
def test_primes_in_range_matches_is_prime(lo):
    hi = min(lo + _WIDTH, MAX_MODULUS)
    assert list(primes_in_range(lo, hi)) == [n for n in range(lo, hi) if is_prime(n)]


@reproducible
@given(p=primes)
def test_representable_iff_three_distinct_roots(p):
    rep = represent(ModPrime(p))
    if rep.exists:
        assert rep.x**2 + 11 * rep.y**2 == p
    if p != 11:
        _, shape = frobenius_power(ModPrime(p))
        assert rep.exists == (shape is Shape.THREE_DISTINCT_ROOTS)


@reproducible
@given(p=st.integers(2**63 - 2**32, 2**63 - 25).map(_next_prime), a=st.integers(0, 2**64))
def test_sqrt_mod_round_trips_near_2_63(p, a):
    r = sqrt_mod(a, p)
    if r is None:
        assert jacobi(a, p) == -1
    else:
        assert r * r % p == a % p and r <= p - r
    assert sqrt_mod(a * a, p) == min(a % p, p - a % p)
