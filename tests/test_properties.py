"""Property tests: `trib_mod` against iteration, the fused classifier against the other two."""

from hypothesis import given, settings, strategies as st

from trib11.gfext import Shape, frobenius_orbit, frobenius_power, splitting_type
from trib11.modmath import ModPrime, is_prime
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
