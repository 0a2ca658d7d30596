from math import isqrt

import pytest

from trib11.gfext import Shape, splitting_type
from trib11.modmath import ModPrime, NotPrime, jacobi, primes_in_range
from trib11 import quadform, verifier
from trib11.quadform import (
    _MARKED,
    BRUTEFORCE_MAX,
    FORM_D,
    Representation,
    _representations,
    represent,
    represent_bruteforce,
)

from oracles import brute_rep_hits, form_values, sieve_list

#: the width of scan chunks in the wide band, the band of 10**9 and of 2**33
WIDE = verifier._BANDS[-1][1]


def _marked(lo, hi, ns):
    # the representations of ns, ascending in [lo, hi), off the columns of x and y
    # that the marks of the chunk [lo, hi) give
    xs, ys = _representations(lo, hi, ns)
    assert len(xs) == len(ys) == len(ns)
    return list(map(Representation, xs, ys))


def test_fixed_representations():
    # by Cornacchia, and off the marks of a scan chunk below 2**33
    ps = (11, 47, 53)
    expected = [Representation(0, 1), Representation(6, 1), Representation(3, 2)]
    assert [represent(p) for p in ps] == _marked(2, 100, ps) == expected


def test_fixed_non_representations():
    ps = (2, 3, 5, 7, 13, 19)
    for rep in [represent(p) for p in ps] + _marked(2, 100, ps):
        assert not rep.exists
        assert rep.x is None and rep.y is None


def test_small_primes_take_cornacchia_not_the_oracle(monkeypatch):
    # the exhaustive scan judges represent, so represent must never call it
    def refuse(n):
        raise AssertionError(f"represent called the oracle for {n}")

    monkeypatch.setattr(quadform, "represent_bruteforce", refuse)
    assert [represent(p) for p in (2, 3, 5, 7, 11)] == [(None, None)] * 4 + [(0, 1)]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2, 2**15),
        (10**6 - 2**15, 10**6),
        (1025853374, 1025853374 + 2**15),  # the first chunk of window_1e9_w2
        (2**29 - 2**15, 2**29),
        (2**32, 2**32 + 2**15),
        (_MARKED - 2**15, _MARKED),
        (1025853374, 1025853374 + WIDE),  # the first chunk of window_1e9_w2
        (10**9, 10**9 + WIDE),
        (_MARKED - WIDE, _MARKED),
    ],
)
def test_marks_match_cornacchia_on_scan_chunks(lo, hi):
    # a scan chunk below _MARKED reads its representations off the marks, which
    # represent (Cornacchia) judges; the last chunk ends on the bound itself
    primes = list(primes_in_range(lo, hi))
    for p, rep in zip(primes, _marked(lo, hi, primes)):
        assert rep == represent(p), p


def _assert_marks_are_the_form_values(lo, hi):
    # the marks hold the odd values, the only ones a prime other than 2 takes
    values = form_values(lo, hi)
    odd = range(lo | 1, hi, 2)
    for n, rep in zip(odd, _marked(lo, hi, odd)):
        assert rep.exists == (n in values), n
        if rep.exists:
            assert rep.x**2 + FORM_D * rep.y**2 == n, n


@pytest.mark.parametrize("width", range(1, 17))
def test_narrow_chunks_mark_exactly_the_form_values(width):
    # every odd integer, not only primes: a row whose one value sits on the chunk's
    # first or last cell is where the single-value branch of the walk can slip
    starts = [2, 3, 11, 12, 47, 100, 10**6 - 7, 10**9 + 3, 2**33 - 16]
    starts += range(2, 200, 7)
    for lo in starts:
        _assert_marks_are_the_form_values(lo, lo + width)


@pytest.mark.parametrize(
    "lo, width",
    [pytest.param(lo, width, id=f"{lo}-wide" if width == WIDE else str(lo))
     for width in (2**15, WIDE) for lo in (10**9, _MARKED - width)],
)
def test_full_chunks_mark_exactly_the_form_values(lo, width):
    _assert_marks_are_the_form_values(lo, lo + width)


def test_marks_fit_their_16_bit_cells():
    # a cell holds y + 1 for every y with 11y^2 below the switch
    assert isqrt((_MARKED - 1) // FORM_D) + 1 < 2**16


def test_represent_requires_prime():
    with pytest.raises(NotPrime):
        represent(12)


def test_bruteforce_values():
    assert represent_bruteforce(11) == Representation(0, 1)
    assert represent_bruteforce(53) == Representation(3, 2)
    assert not represent_bruteforce(19).exists
    # composites are fine for the oracle path
    assert represent_bruteforce(12) == Representation(1, 1)
    assert represent_bruteforce(44) == Representation(0, 2)
    with pytest.raises(ValueError):
        represent_bruteforce(0)


def test_bruteforce_refuses_n_past_its_bound():
    # about sqrt(n/11) steps: 3 * 10**5 at the bound, 6.5 * 10**8 near 2**62
    assert BRUTEFORCE_MAX >= 10**10  # the benchmark gate's own limit
    assert represent_bruteforce(BRUTEFORCE_MAX) == Representation(10**6, 0)
    for n in (BRUTEFORCE_MAX + 1, 2**62):
        with pytest.raises(ValueError, match="capped"):
            represent_bruteforce(n)


def test_representation_solves_the_form():
    for p in sieve_list(5000):
        rep = represent(ModPrime(p))
        if rep.exists:
            assert rep.x >= 0 and rep.y >= 0
            assert rep.x * rep.x + 11 * rep.y * rep.y == p


def test_agrees_with_bruteforce_and_unique():
    for p in sieve_list(20000):
        fast = represent(ModPrime(p))
        slow = represent_bruteforce(p)
        assert fast == slow, p
        hits = brute_rep_hits(p)
        assert len(hits) <= 1, p  # essentially unique for primes
        assert fast.exists == bool(hits)


def test_exists_implies_quadratic_residue():
    for p in sieve_list(20000):
        if p == 2 or p == 11:
            continue
        if represent(ModPrime(p)).exists:
            assert jacobi(-11, p) != -1, p


def test_exists_iff_three_roots():
    for p in sieve_list(5000):
        if p == 11:
            continue
        exists = represent(ModPrime(p)).exists
        split = splitting_type(ModPrime(p)).shape is Shape.THREE_DISTINCT_ROOTS
        assert exists == split, p
