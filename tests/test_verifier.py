import pytest

from trib11.gfext import FrobeniusClass, Shape
from trib11.modmath import NotPrime
from trib11.quadform import represent_bruteforce
from trib11.verifier import (
    KNOWN_EXCEPTIONS,
    obstruction_check,
    scan,
    verdict,
)

from oracles import naive_root_multiplicity, naive_roots, sieve_list, trib_list_mod


def test_known_exceptions():
    assert KNOWN_EXCEPTIONS == {11, 19}


def test_verdict_11():
    rec = verdict(11)
    assert rec.trib_residue == 6  # T_10 = 149 = 13*11 + 6
    assert not rec.divisible
    assert rec.representable and (rec.rep_x, rec.rep_y) == (0, 1)
    assert rec.splitting is Shape.RAMIFIED_DOUBLE
    assert not rec.consistent
    assert rec.exceptional


def test_verdict_19():
    rec = verdict(19)
    assert rec.divisible and rec.trib_residue == 0
    assert not rec.representable
    assert rec.frobenius is FrobeniusClass.TRANSPOSITION
    assert rec.exceptional


def test_verdict_7():
    rec = verdict(7)
    assert rec.trib_residue == 13 % 7 == 6  # T_6 = 13
    assert not rec.divisible and not rec.representable
    assert rec.consistent and not rec.exceptional


def test_verdict_47():
    rec = verdict(47)
    assert rec.divisible and rec.representable
    assert (rec.rep_x, rec.rep_y) == (6, 1)
    assert rec.frobenius is FrobeniusClass.IDENTITY
    assert rec.consistent


def test_verdict_2():
    rec = verdict(2)
    assert rec.trib_residue == 1  # T_1 = 1
    assert not rec.divisible and not rec.representable
    assert rec.consistent


def test_verdict_requires_prime():
    with pytest.raises(NotPrime):
        verdict(9)


def _oracle_shape(p):
    roots = naive_roots(p)
    multiplicities = {naive_root_multiplicity(r, p) for r in roots}
    if 3 in multiplicities:
        return Shape.RAMIFIED_TRIPLE
    if 2 in multiplicities:
        return Shape.RAMIFIED_DOUBLE
    return {
        3: Shape.THREE_DISTINCT_ROOTS,
        1: Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC,
        0: Shape.IRREDUCIBLE,
    }[len(roots)]


def test_verdict_matches_independent_oracles_below_5000():
    """Residue, shape and representation of the fused verdict, against brute force."""
    for p in sieve_list(5000):
        rec = verdict(p)
        assert rec.trib_residue == trib_list_mod(p, p)[p - 1], p
        assert rec.splitting is _oracle_shape(p), p
        rep = represent_bruteforce(p)
        assert (rec.representable, rec.rep_x, rec.rep_y) == (rep.exists, rep.x, rep.y), p


def test_scan_first_century():
    report = scan(2, 100)
    assert report.n_primes == 25
    assert [r.p for r in report.records] == sieve_list(100)
    assert report.violations == [11, 19]
    assert report.status == "OK"
    assert sum(report.class_counts.values()) == 25


def test_scan_second_century_clean():
    report = scan(100, 200)
    assert report.violations == []
    assert report.status == "OK"


def test_scan_empty_range():
    report = scan(2, 2)
    assert report.n_primes == 0
    assert report.violations == []
    assert report.status == "OK"
    assert report.identity_density == 0.0


def test_scan_validates_range():
    with pytest.raises(ValueError):
        scan(1, 10)
    with pytest.raises(ValueError):
        scan(10, 5)


def test_scan_worker_count_does_not_change_results():
    solo = scan(2, 20000, workers=1)
    multi = scan(2, 20000, workers=3)
    assert solo.records == multi.records
    assert solo.violations == multi.violations
    assert solo.class_counts == multi.class_counts


def test_scan_consistency_flags():
    report = scan(2, 1000)
    for rec in report.records:
        assert rec.consistent == (rec.divisible == rec.representable)
        assert rec.exceptional == (not rec.consistent)
        if rec.p not in KNOWN_EXCEPTIONS:
            assert rec.consistent, rec.p


def test_obstruction_small_range():
    report = obstruction_check(2, 2000)
    assert report.status == "OK"
    assert report.failures == []
    assert sum(report.checked.values()) == len(sieve_list(2000))
    assert report.checked[FrobeniusClass.RAMIFIED] == 2  # primes 2 and 11
    # 19 sits in the transposition class and divides T_18; 19 | 38 excuses it
    rec19 = verdict(19)
    assert rec19.frobenius is FrobeniusClass.TRANSPOSITION and rec19.divisible
    assert 38 % 19 == 0


def test_obstruction_validates_range():
    with pytest.raises(ValueError):
        obstruction_check(0, 10)
