import random

import pytest

from trib11.modmath import (
    MAX_MODULUS,
    InvalidModulus,
    ModPrime,
    NotPrime,
    is_prime,
    jacobi,
    primes_in_range,
    require_prime,
    sqrt_mod,
)

from oracles import sieve_list, square_and_multiply, trial_isprime

P63 = 2**63 - 25  # largest prime below 2**63


# The package multiplies residues with plain `a * b % p` and raises them
# with builtin `pow`; these pin the conventions it relies on.


def test_mul_mod_annihilator_and_identity():
    for x in (0, 1, 5, 96):
        assert 0 * x % 97 == 0
        assert 1 * x % 97 == x


def test_mul_mod_wide_product():
    # the double-width product stays exact: 2**62 * 2 = 2**63 = p + 25
    assert 2**62 * 2 % P63 == 25
    assert (P63 - 1) * (P63 - 1) % P63 == 1


def test_mul_mod_commutes_and_inverts():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randrange(97), rng.randrange(97)
        assert a * b % 97 == b * a % 97
        if a:
            assert a * pow(a, -1, 97) % 97 == 1


def test_pow_mod_empty_product_convention():
    assert pow(0, 0, 7) == 1
    assert pow(5, 0, 7) == 1


def test_pow_mod_values():
    assert pow(2, 10, 1009) == 15  # 1024 mod 1009
    rng = random.Random(2)
    for _ in range(100):
        b, e, m = rng.randrange(10**6), rng.randrange(10**6), rng.randrange(2, 10**6)
        assert pow(b, e, m) == square_and_multiply(b, e, m)


def test_pow_mod_fermat():
    rng = random.Random(3)
    for p in (5, 19, 101, 65537, 999983):
        for _ in range(20):
            a = rng.randrange(1, p)
            assert pow(a, p - 1, p) == 1


def test_inv_mod_values():
    assert pow(1, -1, 19) == 1
    assert pow(3, -1, 19) == 13  # 39 = 2*19 + 1
    assert pow(-44, -1, 19) == 3  # a negative base (the discriminant): -44 = 13 mod 19
    rng = random.Random(4)
    for _ in range(200):
        a = rng.randrange(1, 999983)
        assert a * pow(a, -1, 999983) % 999983 == 1


def test_jacobi_fixed_values():
    assert jacobi(-11, 3) == 1
    assert jacobi(-11, 11) == 0
    # frozen from the square table mod 19: -11 = 8 is not among the squares
    squares = {(r * r) % 19 for r in range(1, 19)}
    assert 8 not in squares
    assert jacobi(-11, 19) == -1


def test_jacobi_matches_euler_criterion_on_primes():
    for p in sieve_list(300):
        if p == 2:
            continue
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert jacobi(a, p) == expected


def test_jacobi_multiplicative():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 2000) * 2 + 1
        a, b = rng.randrange(-500, 500), rng.randrange(-500, 500)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(InvalidModulus):
        jacobi(3, 10)
    with pytest.raises(InvalidModulus):
        jacobi(3, 0)


def test_sqrt_mod_basics():
    assert sqrt_mod(0, 5) == 0
    assert sqrt_mod(4, 5) == 2  # roots are {2, 3}; smaller one
    # -11 is a square mod 47 (47 = 6^2 + 11); smaller root frozen as 6
    assert sqrt_mod(-11 % 47, 47) == 6


def test_sqrt_mod_rejects_even_modulus():
    with pytest.raises(InvalidModulus):
        sqrt_mod(1, 2)


def test_sqrt_mod_exhaustive_small_primes():
    for p in sieve_list(600):
        if p == 2:
            continue
        for a in range(p):
            r = sqrt_mod(a, p)
            if r is None:
                assert jacobi(a, p) == -1
            else:
                assert r * r % p == a
                assert r <= p - r  # canonical smaller root


def test_sqrt_mod_large_prime_round_trip():
    rng = random.Random(6)
    for _ in range(50):
        a = rng.randrange(P63)
        r = sqrt_mod(a, P63)
        if r is not None:
            assert r * r % P63 == a


def test_is_prime_fixed_values():
    assert trial_isprime(149)
    assert is_prime(149)
    assert not is_prime(19513)  # 19 * 1027
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert is_prime(P63)
    assert is_prime(18446744073709551557)  # largest prime below 2**64


def test_is_prime_matches_trial_division():
    for n in range(20000):
        assert is_prime(n) == trial_isprime(n), n


def test_is_prime_strong_pseudoprimes():
    # composites engineered to fool small witness sets
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051,
              341550071728321, 318665857834031151167461):
        if n < 2**64:
            assert not is_prime(n), n
    assert not is_prime(2**64 - 1)


def test_is_prime_rejects_oversized():
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_primes_in_range_small():
    assert list(primes_in_range(0, 10)) == [2, 3, 5, 7]
    assert list(primes_in_range(10, 20)) == [11, 13, 17, 19]
    assert list(primes_in_range(5, 5)) == []
    assert list(primes_in_range(0, 2)) == []


def test_primes_in_range_matches_sieve():
    assert list(primes_in_range(0, 50000)) == sieve_list(50000)


def test_primes_in_range_segment_boundaries():
    # ranges straddling the internal segment width
    seg = 1 << 16
    got = list(primes_in_range(seg - 50, 2 * seg + 50))
    expected = [n for n in range(seg - 50, 2 * seg + 50) if trial_isprime(n)]
    assert got == expected


def test_primes_in_range_offset_start():
    got = list(primes_in_range(999900, 1000100))
    expected = [n for n in range(999900, 1000100) if trial_isprime(n)]
    assert got == expected


def test_primes_in_range_matches_is_prime_filter():
    for lo, hi in ((0, 30000), (10**6 - 2000, 10**6)):
        assert list(primes_in_range(lo, hi)) == [n for n in range(lo, hi) if is_prime(n)]


def test_primes_in_range_validates():
    with pytest.raises(ValueError):
        list(primes_in_range(-1, 10))
    with pytest.raises(ValueError):
        list(primes_in_range(10, 5))


def test_modprime_certificates():
    assert require_prime(ModPrime(47)) == 47
    assert require_prime(47) == 47
    with pytest.raises(NotPrime):
        require_prime(48)
    with pytest.raises(NotPrime):
        require_prime(1)
    with pytest.raises(InvalidModulus):
        ModPrime(MAX_MODULUS)
    with pytest.raises(InvalidModulus):
        ModPrime(1)
