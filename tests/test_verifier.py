import logging
import os
import signal
import time

import pytest

from trib11 import cli, gfext, quadform, verifier
from trib11.gfext import FrobeniusClass, Shape
from trib11.modmath import MAX_MODULUS, NotPrime, primes_in_range
from trib11.quadform import represent_bruteforce
from trib11.verifier import KNOWN_EXCEPTIONS, scan, verdict

from judges import obstruction_check
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
    """Residue, shape and representation of the fused verdict, against brute force.

    Both per prime (`verdict`, a batch of one) and as a scan makes them
    (`scan`, whose batches share one ladder).
    """
    one_by_one = [verdict(p) for p in sieve_list(5000)]
    batched = scan(2, 5000).records
    assert [rec.p for rec in batched] == sieve_list(5000)
    for rec in one_by_one + batched:
        p = rec.p
        assert rec.trib_residue == trib_list_mod(p, p)[p - 1], p
        assert rec.splitting is _oracle_shape(p), p
        rep = represent_bruteforce(p)
        assert (rec.representable, rec.rep_x, rec.rep_y) == (rep.exists, rep.x, rep.y), p


def _refuse_cornacchia(p):
    raise AssertionError(f"Cornacchia called for {p}")


@pytest.mark.parametrize("lo, hi", [(2, 10**5), (10**9, 10**9 + 2**15), (2**33 - 2**15, 2**33)])
def test_scans_below_2_33_read_the_marks(lo, hi, monkeypatch):
    # a chunk ending at or below 2**33 marks the values of x^2 + 11y^2 and runs
    # no Cornacchia; verdict, which still does, builds the expected records
    expected = [verdict(p) for p in primes_in_range(lo, hi)]
    monkeypatch.setattr(quadform, "_cornacchia", _refuse_cornacchia)
    assert scan(lo, hi).records == expected


def test_scans_above_2_33_run_cornacchia_per_prime(monkeypatch):
    lo, hi = 2**33, 2**33 + 2**15
    expected = [verdict(p) for p in primes_in_range(lo, hi)]
    called = []
    cornacchia = quadform._cornacchia
    monkeypatch.setattr(quadform, "_cornacchia", lambda p: called.append(p) or cornacchia(p))
    assert scan(lo, hi).records == expected
    assert called == [rec.p for rec in expected]


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


@pytest.fixture
def pools(monkeypatch):
    """Stand-in for verifier._pooled that forks nothing; each pool's worker count, in order."""
    made = []

    def serial_pool(finish, stripes, n_chunks):
        # chunk k from stripe k mod W, finished in chunk order, as the forked workers send them
        made.append(len(stripes))
        parts = [(finish(verifier._facts(bounds)) for bounds in stripe) for stripe in stripes]
        return (next(parts[k % len(parts)]) for k in range(n_chunks))

    monkeypatch.setattr(verifier, "_pooled", serial_pool)
    return made


def _allow_cpus(monkeypatch, n: int) -> None:
    # n CPUs in this process's affinity mask, on a machine with more
    monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: n + 4)


def test_scan_worker_count_is_clamped(pools, monkeypatch):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    _allow_cpus(monkeypatch, 4)
    serial = scan(2, 1000).records
    assert pools == []
    assert scan(2, 1000, workers=100_000).records == serial  # 10 chunks, 4 CPUs
    assert scan(2, 250, workers=100_000).records == serial[:53]  # 3 chunks
    assert scan(2, 1000, workers=2).records == serial
    assert pools == [4, 3, 2]
    _allow_cpus(monkeypatch, 1)  # pinned to one CPU of many: one worker
    assert scan(2, 1000, workers=2).records == serial
    assert len(pools) == 3
    monkeypatch.delattr(verifier.os, "sched_getaffinity", raising=False)  # no affinity API
    assert scan(2, 1000, workers=100_000).records == serial
    assert pools == [4, 3, 2, 5]
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)  # unknown: one worker
    assert scan(2, 1000, workers=100_000).records == serial
    assert len(pools) == 4


_SWITCH, _WIDE = verifier._BANDS[0]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2, 5 * verifier._CHUNK + 7),  # below the switch
        (_SWITCH - 3 * verifier._CHUNK - 5, _SWITCH + 2 * _WIDE + 9),  # across it
        (_SWITCH - 100, _SWITCH + 100),
        (_SWITCH - verifier._CHUNK, _SWITCH + _WIDE),  # full chunks on both sides
        (10**9, 10**9 + 3 * _WIDE + 1),  # above it
        (MAX_MODULUS - 2 * _WIDE - 3, MAX_MODULUS),
    ],
)
def test_chunk_bounds_follow_the_band_table(monkeypatch, lo, hi):
    # each chunk is as wide as its band, cut at the switch and at hi, and the
    # bounds are the same from 1, 2 and 3 forked workers
    _allow_cpus(monkeypatch, 3)
    monkeypatch.setattr(verifier, "_facts", lambda bounds: bounds)
    by_workers = [list(verifier._map_chunks(lambda bounds: bounds, lo, hi, w)) for w in (1, 2, 3)]
    _no_child_left()
    bounds = by_workers[0]
    assert by_workers[1] == by_workers[2] == bounds
    assert bounds[0][0] == lo and bounds[-1][1] == hi
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    for a, b in bounds:
        width, end = (_WIDE, hi) if a >= _SWITCH else (verifier._CHUNK, min(hi, _SWITCH))
        assert b - a == min(width, end - a), (a, b)
    assert (lo < _SWITCH < hi) == (_SWITCH in {a for a, _ in bounds})
    assert len(bounds) == sum(map(len, verifier._starts(lo, hi)))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_band_table_of_small_widths_gives_the_same_records(monkeypatch, workers):
    # chunks 100 wide below 1000, 300 up to 1150, where the band holds one short
    # chunk, and 250 above
    expected = scan(2, 3000).records
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    monkeypatch.setattr(verifier, "_BANDS", ((1000, 300), (1150, 250)))
    _allow_cpus(monkeypatch, 2)
    widths = [b - a for a, b in verifier._bounds(verifier._starts(2, 3000))]
    assert widths == [100] * 9 + [98, 150] + [250] * 7 + [100]
    assert scan(2, 3000, workers=workers).records == expected
    _no_child_left()


def test_without_fork_a_parallel_scan_runs_in_process(monkeypatch):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    _allow_cpus(monkeypatch, 2)
    serial = scan(2, 1000).records
    monkeypatch.delattr(os, "fork")
    assert scan(2, 1000, workers=2).records == serial


def _settled(path, quiet=0.5, limit=60.0):
    # path's lines once they have not changed for `quiet` seconds (at most `limit`)
    deadline = time.monotonic() + limit
    last, since = None, time.monotonic()
    while time.monotonic() < deadline:
        text = path.read_text() if path.exists() else ""
        if text != last:
            last, since = text, time.monotonic()
        elif time.monotonic() - since >= quiet:
            break
        time.sleep(0.05)
    return last.split()


def _no_child_left():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _index(bounds):
    # the number of a chunk of [2, ...) when chunks are 100 wide
    return (bounds[0] - 2) // 100


def test_parallel_scan_keeps_few_chunks_in_flight(monkeypatch, tmp_path):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    _allow_cpus(monkeypatch, 2)
    log = tmp_path / "starts"

    def logged(bounds):
        # logs each chunk whose facts are computed
        with open(log, "a") as f:
            f.write(f"{_index(bounds)}\n")
        return bounds

    monkeypatch.setattr(verifier, "_facts", logged)
    # each chunk finishes as a result larger than a pipe's buffer
    stream = verifier._map_chunks(lambda bounds: bytes(1 << 20), 2, MAX_MODULUS, 2)
    try:
        assert next(stream) == bytes(1 << 20)
        started = sorted(map(int, _settled(log)))
    finally:
        stream.close()
    _no_child_left()
    # worker 0 sent chunk 0 and may have begun chunk 2; worker 1 waits to send chunk 1
    assert started[:2] == [0, 1]
    assert set(started) <= {0, 1, 2}


def test_an_exception_in_a_worker_is_raised_at_its_chunk(monkeypatch):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    _allow_cpus(monkeypatch, 2)

    def fails_on_3(k):
        if k == 3:
            raise ZeroDivisionError(f"chunk {k}")
        return [k]

    # raised ahead of chunk 3's turn by its facts, or at its turn by its finish
    for facts, finish in ((lambda bounds: fails_on_3(_index(bounds)), lambda part: part),
                          (_index, fails_on_3)):
        monkeypatch.setattr(verifier, "_facts", facts)
        stream = verifier._map_chunks(finish, 2, 10_000, 2)
        assert [next(stream) for _ in range(3)] == [[0], [1], [2]]
        with pytest.raises(ZeroDivisionError, match="^chunk 3$"):
            next(stream)
        _no_child_left()


@pytest.mark.parametrize("failing", [2, 3])
def test_an_exception_in_a_writing_worker_leaves_the_rows_before_its_chunk(
    monkeypatch, tmp_path, failing
):
    # a two-worker CLI scan to --out whose chunk `failing` raises
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    _allow_cpus(monkeypatch, 2)
    facts = verifier._facts

    def fails(bounds):
        if _index(bounds) == failing:
            raise ZeroDivisionError(f"chunk {failing}")
        return facts(bounds)

    monkeypatch.setattr(verifier, "_facts", fails)
    path = tmp_path / "out"
    with pytest.raises(ZeroDivisionError, match=f"^chunk {failing}$"):
        cli.cmd_scan(2, 10_000, 2, "csv", str(path))
    _no_child_left()
    records = scan(2, 2 + 100 * failing).records  # the header and chunks 0 .. failing - 1
    assert path.read_text() == "".join(f"{line}\n" for line in cli.record_lines(records, "csv"))


def test_a_worker_that_dies_fails_the_scan(monkeypatch):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    _allow_cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies_after_chunk_0(bounds):
        # worker 1 dies on chunk 1, worker 0 on chunk 2, once chunk 0 is sent
        if bounds[0] != 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return bounds

    monkeypatch.setattr(verifier, "_facts", dies_after_chunk_0)
    stream = verifier._map_chunks(lambda bounds: [bounds], 2, 10_000, 2)
    assert next(stream) == [(2, 102)]
    with pytest.raises(ChildProcessError, match="^a scan worker ended before sending chunk 1$"):
        next(stream)
    _no_child_left()


class _KillsItsPickler:
    # an object whose pickling kills the process that pickles it
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


class _Unpicklable(ZeroDivisionError):
    # an exception that pickle refuses
    def __reduce__(self):
        raise TypeError("not picklable")


def _killed_mid_pickle(k):
    # more than a pipe's buffer is written before the worker dies
    return [bytes(1 << 20), _KillsItsPickler()]


def _raises_unpicklable(k):
    raise _Unpicklable(f"chunk {k}")


class _TwoArguments(ZeroDivisionError):
    # an exception that pickles, but whose pickle calls __init__ with one argument
    def __init__(self, a, b):
        super().__init__(a)


def _raises_unrebuildable(k):
    raise _TwoArguments(f"chunk {k}", "b")


_ENDED = "a scan worker ended before sending chunk 1"


@pytest.mark.parametrize(
    "fail, message, cause",
    [
        (_killed_mid_pickle, _ENDED, type(None)),
        (_raises_unpicklable, _ENDED, type(None)),
        (_raises_unrebuildable,
         "the result of chunk 1 could not be rebuilt from its scan worker's pickle", TypeError),
    ],
    ids=["killed_mid_pickle", "unpicklable_exception", "unrebuildable_exception"],
)
def test_a_worker_that_fails_while_sending_fails_the_scan(monkeypatch, fail, message, cause):
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    _allow_cpus(monkeypatch, 2)

    def fails_on_1(k):
        return fail(k) if k == 1 else [k]

    monkeypatch.setattr(verifier, "_facts", _index)
    stream = verifier._map_chunks(fails_on_1, 2, 10_000, 2)
    assert next(stream) == [0]
    with pytest.raises(ChildProcessError, match=f"^{message}$") as err:
        next(stream)
    assert isinstance(err.value.__cause__, cause)
    _no_child_left()


def test_closing_a_parallel_scan_reaps_its_workers(monkeypatch):
    _allow_cpus(monkeypatch, 2)
    # scan's first chunk of [2, 2**63) from two workers, then no more
    stream = verifier._map_chunks(verifier._records, 2, MAX_MODULUS, 2)
    assert next(stream)[0][0].p == 2
    stream.close()
    _no_child_left()


def test_worker_count_below_one_is_refused_at_once(pools, monkeypatch):
    monkeypatch.setattr(verifier, "primes_in_range", _no_sieve)
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"^need workers >= 1, got {workers}$"):
            scan(2, 10**6, workers=workers)
    assert pools == []


def test_scan_summary_reaches_a_caller_that_configured_logging(caplog):
    with caplog.at_level(logging.INFO, logger="trib11.verifier"):
        scan(2, 100)
    summary = "scan [2, 100): 25 primes, violations [11, 19], status OK"
    assert caplog.record_tuples == [("trib11.verifier", logging.INFO, summary)]


def test_scan_worker_count_does_not_change_results():
    solo = scan(2, 20000, workers=1)
    multi = scan(2, 20000, workers=3)
    assert solo.records == multi.records
    assert solo.violations == multi.violations
    assert solo.class_counts == multi.class_counts


@pytest.mark.parametrize("workers", [1, 2])
def test_ramified_primes_keep_their_place_in_every_small_scan(monkeypatch, workers):
    # 2 and 11 get their fixed shapes after the walk; whatever the range, they
    # must land on their own rows.  With 2 workers and chunks 7 wide, 11 falls
    # first, in the middle and last of a chunk, each chunk one batch
    if workers == 2:
        monkeypatch.setattr(verifier, "_CHUNK", 7)
        _allow_cpus(monkeypatch, 2)
    expected = {p: verdict(p) for p in sieve_list(60)}
    for a in range(2, 60):
        for b in range(a + 1, 61):
            records = scan(a, b, workers=workers).records
            assert records == [expected[p] for p in range(a, b) if p in expected], (a, b)
    _no_child_left()


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


def test_obstruction_classes_find_no_roots(monkeypatch):
    # the degree of gcd(f, x^p - x) fixes the class; the equal-degree root finder never runs
    def no_roots(p):
        raise AssertionError(f"roots searched for mod {p}")

    monkeypatch.setattr(gfext, "_three_roots", no_roots)
    report = obstruction_check(2, 2000)
    assert report.status == "OK"
    assert report.checked == scan(2, 2000).class_counts
