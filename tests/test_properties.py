"""Property tests over the whole domain [2, 2**63).

The power ladder against `QuotientRing`, `trib_mod` against iteration,
the fused classifier against the other two and its p mod 11 rule against
the Legendre symbol, the batches' dot products off one ladder against
the per-prime ladder and gcd, the prime source against trial division and
`is_prime`, `is_prime` above 2**32 against sympy's BPSW test, the sieve's
own BPSW on its survivors above 2**38 against `is_prime` and sympy,
Cornacchia against the splitting shape, a scan chunk's marks of the form's
values below 2**33 against Cornacchia, and `_sqrt_mod` near the top of the
domain.
"""

import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from trib11.gfext import (
    F_COEFFS,
    _BATCH_BITS,
    _SQUARES_MOD_11,
    _TABLE_BITS,
    Shape,
    _gcd_shape,
    _residues_and_shapes,
    _xpow,
    frobenius_orbit,
    splitting_type,
)
from trib11.modmath import (
    MAX_MODULUS,
    ModPrime,
    _bpsw,
    _sqrt_mod,
    is_prime,
    jacobi,
    primes_in_range,
)
from trib11.quadform import _MARKED, _representations, represent
from trib11.tribonacci import QuotientRing, trib_mod
from trib11.verifier import _CHUNK, verdict

from oracles import trial_primes, trib_list_mod

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
    shape = verdict(ModPrime(p)).splitting
    assert (shape in (Shape.THREE_DISTINCT_ROOTS, Shape.IRREDUCIBLE)) == even


@reproducible
@given(n=st.integers(0, 2000), m=st.integers(2, 2**64 - 1))
def test_trib_mod_matches_iteration(n, m):
    assert trib_mod(n, m) == trib_list_mod(n + 1, m)[n]


@reproducible
@given(p=primes)
def test_fused_classifier_matches_gcd_and_orbit(p):
    shape = verdict(ModPrime(p)).splitting
    assert shape is splitting_type(ModPrime(p)).shape
    if p != 11:
        assert shape is _ORBIT_SHAPE[frobenius_orbit(ModPrime(p))]


def _spread_primes(start_and_gaps):
    # ascending primes, each the first prime at least a drawn gap above the one
    # before, so that consecutive ones lie at least that far apart
    start, gaps = start_and_gaps
    ps = [_next_prime(start)]
    for g in gaps:
        if ps[-1] + g > 2**63 - 25:
            break
        ps.append(_next_prime(ps[-1] + g))
    return ps


# ascending prime lists of three kinds: consecutive primes of a window (one
# starting at 2, so 2 and 11 are in it); primes at least 2**_TABLE_BITS apart,
# each too far past the one before to join its batch; and primes of mixed
# sizes whose product crosses _BATCH_BITS
prime_lists = st.one_of(
    st.just(list(primes_in_range(2, 600))),
    st.integers(2, MAX_MODULUS - 600).map(lambda lo: list(primes_in_range(lo, lo + 600))),
    st.tuples(
        st.integers(2, 2**63 - 2**45),
        st.lists(st.integers(2**_TABLE_BITS, 2**40), min_size=1, max_size=8),
    ).map(_spread_primes),
    st.lists(
        st.one_of(st.integers(3, 10**4), st.integers(3, 2**63 - 25)).map(_next_prime),
        min_size=2, max_size=12, unique=True,
    )
    .map(sorted)
    .filter(lambda ps: math.prod(ps).bit_length() >= _BATCH_BITS),
)


@reproducible
@given(ps=prime_lists)
def test_frobenius_powers_walk_matches_per_prime_ladder(ps):
    residues, shapes = _residues_and_shapes(array("q", ps))
    assert len(residues) == len(shapes) == len(ps)
    for q, residue, shape in zip(ps, residues, shapes):
        # T_{q-1} mod q is the x^2 coefficient of x^q, by the ladder and by QuotientRing
        assert residue == _xpow(q, q)[2] == (QuotientRing(q, F_COEFFS[:3]).gen() ** q).coeffs[2], q
        assert shape is _gcd_shape(q)[0], q


_WIDTH = 2000

# windows anywhere in the domain, across 2**32 (the square of the base primes
# kept above 2**38), across 2**38 (where sieve survivors stop being certainly
# prime), and ending at MAX_MODULUS
window_starts = st.one_of(
    st.integers(2, MAX_MODULUS - _WIDTH),
    st.integers(2**32 - _WIDTH, 2**32),
    st.integers(2**38 - _WIDTH, 2**38),
    st.integers(0, _WIDTH).map(lambda k: MAX_MODULUS - _WIDTH - k),
)


@settings(reproducible, max_examples=30)
@given(lo=window_starts)
def test_primes_in_range_matches_is_prime(lo):
    # judged by trial division up to 2**33, where it stays cheap, else by is_prime
    hi = min(lo + _WIDTH, MAX_MODULUS)
    if hi <= 2**33:
        expected = trial_primes(lo, hi)
    else:
        expected = [n for n in range(lo, hi) if is_prime(n)]
    assert list(primes_in_range(lo, hi)) == expected


def _semiprime(p: int) -> int:
    # q(2q - 1) for the first q >= p with both factors prime: the form of the
    # strong pseudoprime 1,373,653 = 829 * 1657 that fools the bases 2 and 3
    q = _next_prime(p)
    while not is_prime(2 * q - 1):
        q = _next_prime(q + 1)
    return q * (2 * q - 1)


# [2**32, 2**64), where is_prime's last witness tier runs, half the draws semiprimes
above_2_32 = st.one_of(
    st.integers(2**32, 2**64 - 1),
    st.integers(46_341, 3_037_000_499).map(_semiprime),
).filter(lambda n: 2**32 <= n < 2**64)


@reproducible
@given(n=above_2_32)
def test_is_prime_matches_bpsw_above_2_32(n):
    # sympy.isprime is no judge here: below 2**64 it runs the same 7 bases
    bpsw = pytest.importorskip("sympy.ntheory.primetest").is_strong_bpsw_prp
    assert is_prime(n) == bpsw(n)


# the product of the primes below 2**16, which the sieve strikes out above 2**38
_STRUCK = math.prod(trial_primes(2, 2**16))


def _next_survivor(n: int) -> int:
    n |= 1
    while math.gcd(n, _STRUCK) != 1:
        n += 2
    return n


# the sieve's survivors above 2**38: no prime factor below 2**16.  Semiprime
# draws have both factors above 2**16 already, and stay semiprimes
survivors_above_2_38 = (
    above_2_32.filter(lambda n: n > 2**38).map(_next_survivor).filter(lambda n: n < 2**64)
)


@reproducible
@given(n=survivors_above_2_38)
def test_bpsw_matches_is_prime_and_sympy_on_sieve_survivors(n):
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    assert _bpsw(n) == is_prime(n) == primetest.is_strong_bpsw_prp(n)
    # the Lucas step is sympy's extra strong test: P from 3 up, Q = 1
    assert _bpsw(n) == (primetest.mr(n, [2]) and primetest.is_extra_strong_lucas_prp(n))


@reproducible
@given(p=primes)
def test_representable_iff_three_distinct_roots(p):
    rep = represent(ModPrime(p))
    if rep.exists:
        assert rep.x**2 + 11 * rep.y**2 == p
    if p != 11:
        shape = verdict(ModPrime(p)).splitting
        assert rep.exists == (shape is Shape.THREE_DISTINCT_ROOTS)


@reproducible
@given(
    lo=st.one_of(st.integers(2, 2**16), st.integers(2, _MARKED - _CHUNK - 1)),
    width=st.integers(1, _CHUNK),
)
def test_marks_match_cornacchia_on_chunks_below_2_33(lo, width):
    # the marks of every x^2 + 11y^2 in [lo, hi), read at each prime
    hi = lo + width
    primes = list(primes_in_range(lo, hi))
    xs, ys = _representations(lo, hi, primes)
    assert len(xs) == len(ys) == len(primes)
    for p, x, y in zip(primes, xs, ys):
        assert (x, y) == represent(p), p


@reproducible
@given(p=st.integers(2**63 - 2**32, 2**63 - 25).map(_next_prime), a=st.integers(0, 2**64))
def test_sqrt_mod_round_trips_near_2_63(p, a):
    r = _sqrt_mod(a, p)
    if r is None:
        assert jacobi(a, p) == -1
    else:
        assert r * r % p == a % p and r <= p - r
    assert _sqrt_mod(a * a, p) == min(a % p, p - a % p)
