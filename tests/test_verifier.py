import pytest

from trib11 import verifier
from trib11.gfext import FrobeniusClass, Shape
from trib11.modmath import MAX_MODULUS, NotPrime
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


def _no_sieve(lo, hi):
    raise AssertionError(f"sieved [{lo}, {hi}) before the range check")


def test_scan_validates_range(monkeypatch):
    with pytest.raises(ValueError):
        scan(1, 10)
    with pytest.raises(ValueError):
        scan(10, 5)
    # hi above the domain is refused before sieving (lo = 2 is checked in a
    # memory-capped child by tests/test_cli.py)
    monkeypatch.setattr(verifier, "primes_in_range", _no_sieve)
    with pytest.raises(ValueError):
        scan(MAX_MODULUS - 10, MAX_MODULUS + 1)


class _Deferred:
    # a future whose chunk runs in-process when its result is read
    def __init__(self, pool, fn, arg):
        self.pool, self.fn, self.arg = pool, fn, arg

    def result(self):
        self.pool.in_flight -= 1
        return self.fn(self.arg)


@pytest.fixture
def serial_pools(monkeypatch):
    """Stand-in for ProcessPoolExecutor that starts no process; the pools made, in order."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.submitted = self.in_flight = self.peak = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            self.submitted += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            return _Deferred(self, fn, arg)

    monkeypatch.setattr(verifier.futures, "ProcessPoolExecutor", SerialPool)
    return pools


def test_scan_worker_count_is_clamped(serial_pools, monkeypatch):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 4)
    serial = scan(2, 1000).records
    assert serial_pools == []
    assert scan(2, 1000, workers=100_000).records == serial  # 10 chunks, 4 CPUs
    assert scan(2, 250, workers=100_000).records == serial[:53]  # 3 chunks
    assert scan(2, 1000, workers=2).records == serial
    assert [pool.max_workers for pool in serial_pools] == [4, 3, 2]
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)  # unknown: one worker
    assert scan(2, 1000, workers=100_000).records == serial
    assert len(serial_pools) == 3


def test_parallel_scan_keeps_few_chunks_in_flight(serial_pools, monkeypatch):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    ahead = verifier._IN_FLIGHT * 2
    assert scan(2, 10_000, workers=2).records == scan(2, 10_000).records
    assert (serial_pools[0].submitted, serial_pools[0].peak) == (100, ahead)
    # the first record of a huge range needs only the chunks submitted ahead of it
    stream = verifier.verdicts(2, MAX_MODULUS, workers=2)
    assert next(stream).p == 2
    assert (serial_pools[1].submitted, serial_pools[1].peak) == (ahead + 1, ahead)
    stream.close()


def test_worker_count_below_one_is_refused_at_once(serial_pools, monkeypatch):
    monkeypatch.setattr(verifier, "primes_in_range", _no_sieve)
    for fn in (scan, verifier.verdicts, obstruction_check):
        for workers in (0, -1):
            with pytest.raises(ValueError, match=f"^need workers >= 1, got {workers}$"):
                fn(2, 10**6, workers=workers)
    assert serial_pools == []


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


def test_obstruction_validates_range(monkeypatch):
    with pytest.raises(ValueError):
        obstruction_check(0, 10)
    monkeypatch.setattr(verifier, "primes_in_range", _no_sieve)
    with pytest.raises(ValueError):
        obstruction_check(MAX_MODULUS - 10, MAX_MODULUS + 1)
