import pytest

from trib11.gfext import RamifiedPrime, Shape
from trib11.modmath import InvalidModulus, ModPrime
from trib11.tribonacci import (
    EXACT_INDEX_LIMIT,
    IndexOutOfRange,
    build_root_context,
    trib_exact,
    trib_mod,
    trib_via_roots,
)

from judges import frobenius_reduction_check
from oracles import sieve_list, trib_list_exact, trib_list_mod


def test_exact_base_values():
    assert [trib_exact(n) for n in range(6)] == [0, 1, 1, 2, 4, 7]
    assert trib_exact(10) == 149
    assert trib_exact(18) == 19513
    assert 19513 == 19 * 1027


def test_exact_matches_recurrence():
    seq = trib_list_exact(500)
    for n, v in enumerate(seq):
        assert trib_exact(n) == v


def test_exact_bounds():
    with pytest.raises(ValueError):
        trib_exact(-1)
    with pytest.raises(IndexOutOfRange):
        trib_exact(EXACT_INDEX_LIMIT + 1)


def test_trib_mod_fixed_values():
    assert trib_mod(10, 11) == 149 % 11 == 6
    assert trib_mod(18, 19) == 0
    assert trib_mod(0, 97) == 0


def test_trib_mod_rejects_bad_modulus():
    with pytest.raises(InvalidModulus):
        trib_mod(5, 1)
    with pytest.raises(ValueError):
        trib_mod(-1, 5)


def test_trib_mod_matches_iteration_exhaustively():
    for m in (2, 3, 7, 11, 97, 10**9 + 7):
        seq = trib_list_mod(1001, m)
        for n in range(1001):
            assert trib_mod(n, m) == seq[n], (n, m)


def test_trib_mod_matches_exact_reduction():
    seq = trib_list_exact(400)
    for m in (2, 5, 149, 2**31 - 1, 2**62):
        for n in range(0, 400, 7):
            assert trib_mod(n, m) == seq[n] % m


def test_trib_mod_huge_index_runs():
    # logarithmic in n; same answer twice
    assert trib_mod(2**62 + 3, 999983) == trib_mod(2**62 + 3, 999983)


def test_root_context_split_prime():
    ctx = build_root_context(47)
    assert ctx.shape is Shape.THREE_DISTINCT_ROOTS
    assert (ctx.alpha.coeffs, ctx.beta.coeffs, ctx.gamma.coeffs) == ((5,), (17,), (26,))
    # delta^2 = -44 = 3 mod 47
    assert (ctx.delta * ctx.delta).coeffs == (3,)


def test_root_context_irreducible_prime():
    ctx = build_root_context(3)
    roots = {ctx.alpha.coeffs, ctx.beta.coeffs, ctx.gamma.coeffs}
    assert len(roots) == 3  # x, x^3, x^9 pairwise distinct


def test_root_context_transposition_prime():
    ctx = build_root_context(7)
    assert ctx.alpha.coeffs == (3, 0)
    assert ctx.beta.coeffs == (0, 1)
    assert ctx.beta != ctx.gamma
    # beta and gamma are exchanged by another Frobenius application
    assert ctx.gamma**7 == ctx.beta


def test_root_context_rejects_ramified():
    for p in (2, 11):
        with pytest.raises(RamifiedPrime):
            build_root_context(p)
        with pytest.raises(RamifiedPrime):
            frobenius_reduction_check(p)


def test_delta_squared_is_discriminant_everywhere():
    for p in sieve_list(300):
        if p in (2, 11):
            continue
        ctx = build_root_context(ModPrime(p))
        assert (ctx.delta * ctx.delta).coeffs == ctx.ring.const(-44).coeffs, p


def test_via_roots_base_cases():
    for p in (47, 7, 3):  # one prime per splitting shape
        ctx = build_root_context(p)
        assert trib_via_roots(0, ctx) == 0
        assert trib_via_roots(1, ctx) == 1
        assert trib_via_roots(2, ctx) == 1


def test_via_roots_divisibility_at_split_prime():
    assert trib_via_roots(46, build_root_context(47)) == 0
    assert trib_mod(46, 47) == 0


def test_via_roots_matches_matrix_route():
    for p in sieve_list(100):
        if p in (2, 11):
            continue
        ctx = build_root_context(ModPrime(p))
        seq = trib_list_mod(61, p)
        for n in range(61):
            assert trib_via_roots(n, ctx) == seq[n] == trib_mod(n, p), (p, n)


def test_via_roots_rejects_negative_index():
    with pytest.raises(ValueError):
        trib_via_roots(-1, build_root_context(7))


def test_frobenius_reduction_representatives():
    for p in (47, 7, 3):
        lhs, rhs = frobenius_reduction_check(p)
        assert lhs == rhs, p


def test_frobenius_reduction_small_primes():
    for p in sieve_list(1000):
        if p in (2, 11):
            continue
        lhs, rhs = frobenius_reduction_check(ModPrime(p))
        assert lhs == rhs, p
