"""Range verification of the divisibility / quadratic-form equivalence.

For every prime p the scanner computes three facts: whether p divides
T_{p-1}, whether p = x^2 + 11y^2, and how x^3 - x^2 - x - 1 factors mod
p.  The first and third come from the power x^p in F_p[x]/(f), which a
scan takes for each chunk's primes in batches that share one ladder,
each prime's residue one dot product off it
(`gfext._residues_and_shapes`; `verdict` is the batch of one).  The
second comes, as columns of x and y, from the chunk's marks of the
values x^2 + 11y^2 below 2^33 and from Cornacchia above (and in
`verdict`); neither reads x^p or p mod 11, so representability shares
nothing with that kernel.  Outside the two known exceptional primes 11
and 19 the first two must agree (and both must match the
completely-split shape); any other disagreement flags the whole report
as FAILED.

A chunk runs in two phases.  Its facts come first: its primes, then
their residues and shapes, each over all of them (`_facts`).  Then, at
the chunk's turn, `_finish` reads the representations, renders each row
from the five facts p, residue, shape, x and y, handing the rows on in
blocks of 512, and counts classes and violations, with no loop of its
own per prime.  Only `scan` and `verdict` build a `VerdictRecord`; the
CLI renders its lines from the facts and writes each block to its output
as it fills, so no process holds more than one block of a chunk's
rendered rows.  Both drain their stream of chunks through one tally
(`_tally`), which sums the counts into the report and keeps whatever
rows a finish returns: `scan`'s records, and none from the CLI.

Scans are deterministic regardless of worker count: the range is cut
into fixed chunks, 2**15 wide below 2**26 and 2**18 wide above, and cut
at 2**26 when it crosses it (`_BANDS`), so chunk bounds depend on lo and
hi only; each chunk is processed by pure functions, and the results are
merged back in ascending order.  They stream: chunks are computed as they
are consumed, so any range of the domain runs in bounded memory.

With W > 1 workers a scan forks W processes.  Worker i computes the
facts of chunks i, i + W, i + 2W, ..., each ahead of its turn: the parent
grants chunk k its turn with one byte on the turn pipe of worker k mod W,
and the worker then finishes the chunk and sends what its finish returned
on its own result pipe as one pickle, which frames itself.  So at most
one chunk's facts per worker wait, in its worker.  The CLI's finish
writes the chunk's rows to the output file the worker inherited and
returns only the counts and violations, so rows never cross a pipe and
the parent never holds them.  A worker leaves only through `os._exit`.
The parent kills and reaps every worker when the stream ends, fails or
is closed.  Call a scan with W > 1 from a process that runs no other
thread, as with any fork.  Where `os.fork` does not exist, a scan runs
in process.
"""

from __future__ import annotations

import os
import sys
from contextlib import closing
from typing import Iterator, NamedTuple, NoReturn

from .gfext import FrobeniusClass, Shape, _residues_and_shapes
from .modmath import MAX_MODULUS, PrimeLike, primes_in_range, require_prime
from .quadform import _cornacchia, _representations

#: the primes where divisibility and representability legitimately disagree
KNOWN_EXCEPTIONS = frozenset({11, 19})

#: the chunk width of the narrow band, from 2 up to the first of _BANDS
_CHUNK = 1 << 15

#: the bands above the narrow one, ascending, each (its lower end, its chunk
#: width).  A chunk's width depends on its magnitude only, so results never
#: depend on the worker count.  A chunk's fixed costs grow with sqrt(hi): the
#: sieve's loop over the base primes and the marks' rows.  A 2**18 chunk pays
#: them once for eight narrow ones, and took 0.84-0.93x their CPU time from
#: 2**25 to 2**30, but 1.01-1.08x at 2**22 and 2**24, where it would also raise
#: the peak RSS (in process, CSV rows, best of 3).
_BANDS = ((1 << 26, 1 << 18),)

#: POSIX's SIGKILL, which ends a scan's workers; the signal module is not loaded for it
_SIGKILL = 9


class VerdictRecord(NamedTuple):
    """Per-prime row joining the three facts and their agreement flags.

    A named tuple because workers send records back pickled, and a tuple
    pickles and unpickles several times faster than a frozen dataclass.
    """

    p: int
    trib_residue: int
    divisible: bool
    representable: bool
    rep_x: int | None
    rep_y: int | None
    splitting: Shape
    frobenius: FrobeniusClass
    consistent: bool
    exceptional: bool


class ScanReport:
    """Counts over the verdicts of [lo, hi), summed chunk by chunk.

    `records` is kept only by `scan`.
    """

    __slots__ = ("lo", "hi", "records", "class_counts", "violations")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.records: list[VerdictRecord] = []
        self.class_counts = dict.fromkeys(FrobeniusClass, 0)
        self.violations: list[int] = []

    @property
    def n_primes(self) -> int:
        return sum(self.class_counts.values())

    @property
    def status(self) -> str:
        """"OK" when the violations stay inside the known exceptions, else "FAILED"."""
        return "OK" if KNOWN_EXCEPTIONS.issuperset(self.violations) else "FAILED"


def _log(level: str, msg: str, *args) -> None:
    # log to this module's logger at `level` ("info", "debug") if the process has
    # imported logging.  One that has not has no handler for the record, and Python's
    # last-resort handler drops INFO and DEBUG, so a scan need not import logging.
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger(__name__), level)(msg, *args, stacklevel=2)


def verdict(p: PrimeLike) -> VerdictRecord:
    """Compute the full per-prime record for one prime."""
    pv = require_prime(p)
    residues, shapes = _residues_and_shapes((pv,))
    return _record(pv, residues[0], shapes[0], *_cornacchia(pv))


def _record(p: int, residue: int, shape: Shape, x: int | None, y: int | None) -> VerdictRecord:
    # the record of the prime p, given T_{p-1} mod p, the shape of f mod p and
    # p's representation (x, y) by x^2 + 11y^2, or (None, None)
    divisible = residue == 0
    representable = x is not None
    consistent = divisible == representable
    return VerdictRecord(p, residue, divisible, representable, x, y,
                         shape, shape.frobenius_class, consistent, not consistent)


#: rows of a chunk that go to its emit function at once
_BLOCK = 512


def _facts(bounds: tuple[int, int]) -> tuple:
    # the chunk's (lo, hi, primes, residues, shapes), computed ahead of its turn.
    # array is loaded here, not with the module, so that the parent of a pooled
    # scan, which computes no chunk, does not load it: that cost 0.25 MB of the
    # parent's peak RSS in a two-worker scan near 10**9.
    from array import array

    lo, hi = bounds
    primes = array("q", primes_in_range(lo, hi))
    return (lo, hi, primes, *_residues_and_shapes(primes))


def _finish(row, emit, facts: tuple) -> tuple[dict[FrobeniusClass, int], list[int]]:
    # (class counts, violations) of the chunk with these facts, the one place a
    # scan counts them.  Its rows, row(p, residue, shape, x, y) for each of its
    # primes ascending, go to emit in lists of _BLOCK rows, the last one shorter;
    # a chunk with no prime emits none.  No loop here runs per prime: the rows map
    # row over slices of the facts and of the columns of x and y, which never
    # read the residue, and the classes are counted by shape.
    lo, hi, primes, residues, shapes = facts
    xs, ys = _representations(lo, hi, primes)
    for i in range(0, len(primes), _BLOCK):
        j = i + _BLOCK
        emit(list(map(row, primes[i:j], residues[i:j], shapes[i:j], xs[i:j], ys[i:j])))
    class_counts = dict.fromkeys(FrobeniusClass, 0)
    for shape in Shape:
        class_counts[shape.frobenius_class] += shapes.count(shape)
    # divisible (residue 0) and representable (x not None) disagree
    violations = [p for p, residue, x in zip(primes, residues, xs) if (residue == 0) is (x is None)]
    return class_counts, violations


def _records(facts: tuple) -> tuple[list, dict[FrobeniusClass, int], list[int]]:
    # scan's finish: the chunk's (records, class counts, violations)
    records = []
    class_counts, violations = _finish(_record, records.extend, facts)
    return records, class_counts, violations


def _map_chunks(finish, lo: int, hi: int, workers: int) -> Iterator:
    """finish(_facts(bounds)) over the chunks of [lo, hi), streamed in order.

    Each chunk has its band's width (`_BANDS`), where the last chunk below a
    band's lower end, or below hi, is cut short.

    A chunk runs in two phases.  `_facts` computes its primes, residues and
    shapes ahead of its turn; `finish` then runs at the chunk's turn, in
    chunk order, in the process that computed its facts, so it may write
    the chunk's rows to an output file that process inherited.  The stream
    yields what finish returns.

    The range and the worker count are checked at once, before any chunk
    is computed or any worker exists, and at most one worker per chunk and
    per CPU is started, or none where the OS cannot fork.  The stream is a
    generator: close it to end its workers before it is exhausted.
    """
    if not 2 <= lo <= hi <= MAX_MODULUS:
        raise ValueError(f"need 2 <= lo <= hi <= 2**63, got [{lo}, {hi})")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    starts = _starts(lo, hi)
    n_chunks = sum(map(len, starts))
    workers = min(workers, n_chunks, _usable_cpus() if hasattr(os, "fork") else 1)
    if workers <= 1:
        return (finish(_facts(bounds)) for bounds in _bounds(starts))
    stripes = [_bounds(starts, i, workers) for i in range(workers)]
    return _pooled(finish, stripes, n_chunks)


def _starts(lo: int, hi: int) -> list[range]:
    # the starts of the chunks of [lo, hi), one range per band: its step is the
    # band's chunk width and its stop is hi or the next band's lower end, where
    # the band's last chunk is cut.  A band [lo, hi) does not meet is empty.
    bands = ((0, _CHUNK), *_BANDS)
    ends = [edge for edge, _ in bands[1:]] + [hi]
    return [range(max(lo, edge), min(hi, end), width)
            for (edge, width), end in zip(bands, ends)]


def _bounds(starts: list[range], first: int = 0, step: int = 1) -> Iterator[tuple[int, int]]:
    # the chunks first, first + step, first + 2*step, ... of those that begin at
    # `starts`, lazily
    for band in starts:
        for c in band[first::step]:
            yield c, min(c + band.step, band.stop)
        first = (first - len(band)) % step


def _usable_cpus() -> int:
    # the CPUs this process may run on (a taskset or cpuset mask counts), where the
    # OS can say; else every CPU, or one when even that is unknown
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pooled(finish, stripes: list[Iterator[tuple[int, int]]], n_chunks: int) -> Iterator:
    # the n_chunks results in order, chunk k from worker k mod W, where worker i is
    # forked to compute the chunks of stripes[i].  The parent grants each chunk its
    # turn, in order, with one byte on its worker's turn pipe, and then reads its
    # result; the worker runs finish on the chunk's facts, and sends what it
    # returns, only once its turn has come.
    import pickle  # noqa: F401  (loaded before the forks, so that no worker loads it)

    pids, results, grants = [], [], []
    try:
        for stripe in stripes:
            read_end, write_end = os.pipe()
            results.append(open(read_end, "rb"))
            turn_end, grant_end = os.pipe()
            grants.append(open(grant_end, "wb", buffering=0))
            # the parent's copies of the worker's ends close on leaving
            with open(turn_end, "rb", buffering=0) as turn, open(write_end, "wb") as send:
                pid = os.fork()
                if pid == 0:
                    _work(finish, stripe, turn, send, results + grants)
            pids.append(pid)
        for k in range(n_chunks):
            i = k % len(pids)
            try:
                grants[i].write(b"\0")  # chunk k's turn
            except BrokenPipeError:
                pass  # a worker that is gone shows as the end of its result pipe
            yield _receive(results[i], k)
    finally:
        for pipe in results + grants:
            pipe.close()
        # signalled before reaped, so no pid can be reused in between
        for pid in pids:
            os.kill(pid, _SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(finish, stripe: Iterator[tuple[int, int]], turn, send, inherited) -> NoReturn:
    # a forked worker: for each chunk of its stripe, its facts, then, once its turn
    # has come, one pickle on send, (None, finish(facts)), or (exc, None) when
    # _facts or finish raises, which ends the stripe.  A chunk whose facts raise is
    # sent without waiting for its turn; the parent reads it only at its turn.  The
    # worker closes the parent's ends of the pipes, so that it meets EOF and EPIPE
    # once the parent is gone, and it leaves only through os._exit, so it runs none
    # of the parent's finally blocks or atexit hooks and flushes no inherited
    # buffer: a pickle cut short by an error ends the pipe as a truncated stream.
    import pickle

    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        for bounds in stripe:
            try:
                facts = _facts(bounds)
                if not turn.read(1):
                    break  # the parent closed the stream
                part = finish(facts)
                error = None
            except Exception as exc:
                error, part = exc, None
            pickle.dump((error, part), send)
            send.flush()
            if error is not None:
                break
        code = 0
    finally:
        os._exit(code)


def _receive(pipe, k: int):
    # chunk k's result, or the exception it raised in its worker.  A pickle that
    # arrived whole but cannot be rebuilt here, such as an exception whose
    # __init__ takes other arguments than it passed on, fails the scan at chunk k
    # with the rebuild's own error as the cause.
    import pickle

    try:
        error, part = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"a scan worker ended before sending chunk {k}") from None
    except Exception as exc:
        raise ChildProcessError(
            f"the result of chunk {k} could not be rebuilt from its scan worker's pickle"
        ) from exc
    if error is not None:
        raise error
    return part


def _tally(report: ScanReport, chunks: Iterator) -> None:
    # drain chunks, the stream of report's range: each chunk's rows go to report's
    # records and its class counts and violations to report's, with a debug line
    # per chunk and the info summary at the end.  The stream is closed on leaving,
    # so a scan's workers end then, not when it is collected.
    n_chunks = sum(map(len, _starts(report.lo, report.hi)))
    with closing(chunks):
        for i, (rows, class_counts, violations) in enumerate(chunks, 1):
            report.records += rows
            for cls, n in class_counts.items():
                report.class_counts[cls] += n
            report.violations += violations
            _log("debug", "chunk %d/%d done (%d primes so far)", i, n_chunks, report.n_primes)
    _log("info", "scan [%d, %d): %d primes, violations %s, status %s",
         report.lo, report.hi, report.n_primes, report.violations, report.status)


def scan(lo: int, hi: int, workers: int = 1) -> ScanReport:
    """Verdicts for every prime in [lo, hi), merged ascending and kept in `records`.

    The report is FAILED if any prime outside {11, 19} has divisible and
    representable disagreeing; 11 and 19 themselves are expected findings
    and are reported, not suppressed.
    """
    report = ScanReport(lo, hi)
    _tally(report, _map_chunks(_records, lo, hi, workers))
    return report
