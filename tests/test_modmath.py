import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from trib11 import modmath
from trib11.modmath import (
    _MR_TIERS,
    _bpsw,
    _sqrt_mod,
    MAX_MODULUS,
    InvalidModulus,
    ModPrime,
    NotPrime,
    is_prime,
    jacobi,
    primes_in_range,
    require_prime,
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
    assert _sqrt_mod(0, 5) == 0
    assert _sqrt_mod(4, 5) == 2  # roots are {2, 3}; smaller one
    # -11 is a square mod 47 (47 = 6^2 + 11); smaller root frozen as 6
    assert _sqrt_mod(-11 % 47, 47) == 6


def test_sqrt_mod_exhaustive_small_primes():
    for p in sieve_list(600):
        if p == 2:
            continue
        for a in range(p):
            r = _sqrt_mod(a, p)
            if r is None:
                assert jacobi(a, p) == -1
            else:
                assert r * r % p == a
                assert r <= p - r  # canonical smaller root


def test_sqrt_mod_large_prime_round_trip():
    rng = random.Random(6)
    for _ in range(50):
        a = rng.randrange(P63)
        r = _sqrt_mod(a, P63)
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


# composites engineered to fool small witness sets; each below 2**64 passes the
# strong base-2 test
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 3825123056546413051,
                       341550071728321, 318665857834031151167461)


def test_is_prime_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        if n < 2**64:
            assert not is_prime(n), n
    assert not is_prime(2**64 - 1)


def _chernick_numbers() -> list[int]:
    # (6k+1)(12k+1)(18k+1) with three prime factors is a Carmichael number: every
    # base prime to it is a Fermat liar, and only the square roots of 1 expose it
    k_max = round((2**64 / 1296) ** (1 / 3)) + 1
    prime = set(sieve_list(18 * k_max + 2))
    chernick = [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in range(1, k_max + 1)
        if {6 * k + 1, 12 * k + 1, 18 * k + 1} <= prime
    ]
    return [n for n in chernick if n < 2**64]


def test_is_prime_rejects_chernick_carmichael_numbers():
    chernick = _chernick_numbers()
    assert chernick[:3] == [1729, 294409, 56052361] and max(chernick) > 2**63
    assert [n for n in chernick if is_prime(n)] == []


def _strong_base_2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_bpsw_finds_the_primes_at_the_top_of_the_domain():
    assert _bpsw(P63)
    assert _bpsw(18446744073709551557)  # largest prime below 2**64


def test_bpsw_lucas_step_rejects_base_2_strong_pseudoprimes():
    # each passes the strong base-2 test, so the Lucas step has to reject it
    above = [n for n in STRONG_PSEUDOPRIMES if 2**40 < n < 2**64]
    assert above == [3825123056546413051, 341550071728321]
    assert all(map(_strong_base_2, above))
    assert [n for n in above if _bpsw(n)] == []


def test_bpsw_rejects_chernick_carmichael_numbers_above_2_40():
    chernick = [n for n in _chernick_numbers() if n > 2**40]
    assert len(chernick) > 10 and any(map(_strong_base_2, chernick))
    assert [n for n in chernick if _bpsw(n)] == []


def test_bpsw_square_check_ends_the_parameter_search():
    # 1093 and 3511 are Wieferich primes, so their squares are base-2 strong
    # pseudoprimes; (D | n) is never -1 for a square n, so without the square
    # check the search for P would not end, and the call runs in a child process
    # where a hang fails the test at the timeout
    assert _strong_base_2(1093**2) and _strong_base_2(3511**2)
    code = (
        "from trib11.modmath import _bpsw\n"
        "print(_bpsw(1093**2), _bpsw(3511**2))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(modmath.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False False\n"), proc.stderr


def test_bpsw_rejects_the_extra_strong_lucas_pseudoprimes_below_10_5():
    # the composites that pass the Lucas step alone all fail the base-2 step
    lucas = pytest.importorskip("sympy.ntheory.primetest").is_extra_strong_lucas_prp
    liars = [n for n in range(3, 10**5, 2) if lucas(n) and not trial_isprime(n)]
    assert liars[:4] == [989, 3239, 5777, 10877] and len(liars) == 12
    assert [n for n in liars if _bpsw(n)] == []


def test_witness_tiers_never_meet_a_base_divisible_by_n():
    # n reaches the witnesses only past trial division by the primes to 37, so
    # n >= 41**2; each tier sees only n at or above the bound before it, and a
    # base below every such n needs no reducing and is never 0 mod n
    least_n = 41 * 41
    for bound, witnesses in _MR_TIERS:
        assert max(witnesses) < least_n < bound
        least_n = bound
    assert least_n == 2**64


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
    seg = modmath._SEGMENT
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


_SEG = modmath._SEGMENT


@pytest.mark.parametrize(
    "lo, hi",
    [
        (10**6, 10**6 + 3000),  # even lo
        (10**6 + 1, 10**6 + 3001),  # odd lo
        (1009**2, 1009**2 + 3000),  # lo at the square of a base prime
        (1009**2 + 1, 1009**2 + 3001),  # and just past it
        (1009**2 - 3000, 1009**2),  # hi at it: 1009 is no base prime here
        (1009**2 - 3000, 1009**2 + 1),  # and just past it: 1009 strikes its square
        (31607**2, 31607**2 + 3000),  # the largest base prime below sqrt(10**9)
        (31607**2 + 2, 31607**2 + 3000),
        (0, 3),
        (2, 3),
        (3, 4),
        (4, 5),
        (10**9 - 500, 10**9 + _SEG + 500),  # across one segment boundary
        (10**9 - 501, 10**9 + 2 * _SEG + 500),  # across two, from an odd lo
        (2**38 - _SEG - 1500, 2**38 - 1000),  # just below 2**38, the largest base
        (2**38 - 2 * _SEG - 1001, 2**38 - 1000),
    ],
)
def test_primes_in_range_matches_is_prime_on_the_sieve_s_edges(lo, hi):
    assert list(primes_in_range(lo, hi)) == list(filter(is_prime, range(lo, hi)))


def test_a_grown_base_serves_narrow_windows_and_open_streams():
    # a stream keeps the base it began with when a later, wider range grows it;
    # a narrow window asked for after the wide one reads the grown base only up
    # to its own bound
    narrow = primes_in_range(10**6, 10**6 + 3 * _SEG)
    first = next(narrow)
    wide = list(primes_in_range(2**38 - 3000, 2**38))
    assert modmath._odd_primes[-1] == 524287  # the largest prime below 2**19
    assert [first, *narrow] == list(filter(is_prime, range(10**6, 10**6 + 3 * _SEG)))
    assert wide == list(filter(is_prime, range(2**38 - 3000, 2**38)))
    for lo, hi in ((2, 1000), (10**6, 10**6 + 3000), (2**40, 2**40 + 3000)):
        assert list(primes_in_range(lo, hi)) == list(filter(is_prime, range(lo, hi)))


def _refuse(name):
    def refuse(n):
        raise AssertionError(f"{name}({n}) called")

    return refuse


@pytest.mark.parametrize("lo, count", [(10**9, 4832), (2**38 - 10**5, 3779)])
def test_primes_below_2_38_are_certified_by_the_sieve(lo, count, monkeypatch):
    # up to hi = 2**38 the sieve walks every prime up to sqrt(hi) and asks no
    # test of its survivors
    monkeypatch.setattr(modmath, "is_prime", _refuse("is_prime"))
    monkeypatch.setattr(modmath, "_bpsw", _refuse("_bpsw"))
    assert sum(1 for _ in primes_in_range(lo, lo + 10**5)) == count


@pytest.mark.parametrize("lo", [10**12, 10**16, 2**63 - 10**4])
def test_the_sieve_never_grades_itself_above_2_38(lo, monkeypatch):
    # above 2**38 BPSW finishes the survivors; is_prime is the judge, so the
    # sieve must never call it
    hi = lo + 10**4
    expected = [n for n in range(lo, hi) if is_prime(n)]
    monkeypatch.setattr(modmath, "is_prime", _refuse("is_prime"))
    assert list(primes_in_range(lo, hi)) == expected


def test_a_window_across_2_38_matches_is_prime(monkeypatch):
    # the switch from the full sieve to the 2**16 base plus BPSW: a window that
    # ends above 2**38 takes the second route for every survivor, also below it
    lo, hi = 2**38 - 5000, 2**38 + 5000
    expected = [n for n in range(lo, hi) if is_prime(n)]
    graded = []
    bpsw = modmath._bpsw
    monkeypatch.setattr(modmath, "_bpsw", lambda n: graded.append(n) or bpsw(n))
    assert list(primes_in_range(lo, hi)) == expected
    assert min(graded) < 2**38 < max(graded)


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
