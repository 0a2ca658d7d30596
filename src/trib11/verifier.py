"""Range verification of the divisibility / quadratic-form equivalence.

For every prime p the scanner computes three facts: whether p divides
T_{p-1}, whether p = x^2 + 11y^2, and how x^3 - x^2 - x - 1 factors mod
p.  The first and third come from the power x^p in F_p[x]/(f), which a
scan takes for each chunk's primes in batches that share one ladder and
walk along the prime gaps (`gfext._frobenius_powers`; `verdict` is the
batch of one).  The second comes from the chunk's marks of the values
x^2 + 11y^2 below 2^33 and from Cornacchia above (and in `verdict`);
neither reads x^p or p mod 11, so representability shares nothing with
that kernel.  Outside the two known exceptional primes 11 and 19 the
first two must agree (and both must match the completely-split shape);
any other disagreement flags the whole report as FAILED.

Scans are deterministic regardless of worker count: the range is cut
into fixed chunks, each chunk is processed by pure functions, and the
results are merged back in ascending order.  They stream: chunks are
computed as they are consumed, so any range of the domain runs in
bounded memory.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .gfext import FrobeniusClass, Shape, _frobenius_powers
from .modmath import MAX_MODULUS, PrimeLike, primes_in_range, require_prime
from .quadform import Representation, _cornacchia, _representations

#: the primes where divisibility and representability legitimately disagree
KNOWN_EXCEPTIONS = frozenset({11, 19})

#: chunk width for scans; fixed so results never depend on worker count
_CHUNK = 1 << 15

#: chunks per worker submitted ahead of the consumer; bounds a parallel scan's memory
_IN_FLIGHT = 2


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


class _Chunk:
    """One chunk of a scan: its rows, in order, with its class counts and violations.

    The rows are the chunk's records, or the CLI's rendered lines, which
    it joins into one UTF-8 bytes object before the chunk leaves its worker.
    """

    __slots__ = ("rows", "class_counts", "violations")

    def __init__(self, rows, class_counts: dict[FrobeniusClass, int],
                 violations: list[int]) -> None:
        self.rows = rows
        self.class_counts = class_counts
        self.violations = violations

    def __len__(self) -> int:
        # the chunk's primes, which the debug log counts
        return sum(self.class_counts.values())


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

    def add(self, chunk: _Chunk) -> None:
        """Add a chunk's class counts and violations to the report's."""
        for cls, n in chunk.class_counts.items():
            self.class_counts[cls] += n
        self.violations += chunk.violations

    def log_summary(self) -> None:
        """Log the report's one-line summary at INFO."""
        _log("info", "scan [%d, %d): %d primes, violations %s, status %s",
             self.lo, self.hi, self.n_primes, self.violations, self.status)


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
    _, xp, shape = next(_frobenius_powers((pv,)))
    return _record(pv, xp, shape, _cornacchia(pv))


def _record(p: int, xp: tuple[int, int, int], shape: Shape,
            rep: Representation) -> VerdictRecord:
    # the record of the prime p, given x^p in F_p[x]/(f), the shape of f mod p
    # and p's representation by x^2 + 11y^2
    residue = xp[2]  # the x^2 coefficient of x^p is T_{p-1} mod p
    divisible = residue == 0
    x, y = rep
    representable = x is not None
    consistent = divisible == representable
    return VerdictRecord(p, residue, divisible, representable, x, y,
                         shape, shape.frobenius_class, consistent, not consistent)


def _chunk(row, bounds: tuple[int, int]) -> _Chunk:
    # row(record) for each prime of the chunk, ascending, with the chunk's class
    # counts and violations: the one place a scan counts them
    lo, hi = bounds
    rows = []
    class_counts = dict.fromkeys(FrobeniusClass, 0)
    violations = []
    representation = _representations(lo, hi)
    for p, xp, shape in _frobenius_powers(primes_in_range(lo, hi)):
        rec = _record(p, xp, shape, representation(p))
        class_counts[rec.frobenius] += 1
        if rec.exceptional:
            violations.append(p)
        rows.append(row(rec))
    return _Chunk(rows, class_counts, violations)


def _itself(rec: VerdictRecord) -> VerdictRecord:
    # the row of a chunk that keeps its records
    return rec


def _map_chunks(chunk_fn, lo: int, hi: int, workers: int) -> Iterator:
    """chunk_fn over the fixed chunks of [lo, hi), its results streamed in order.

    The range and the worker count are checked at once, before any chunk
    is computed or any pool exists, and at most one worker per chunk and
    per CPU is started.  A result's len() is its chunk's count of primes.
    """
    if not 2 <= lo <= hi <= MAX_MODULUS:
        raise ValueError(f"need 2 <= lo <= hi <= 2**63, got [{lo}, {hi})")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    starts = range(lo, hi, _CHUNK)
    workers = min(workers, len(starts), _usable_cpus())
    bounds = ((c, min(c + _CHUNK, hi)) for c in starts)
    parts = map(chunk_fn, bounds) if workers <= 1 else _pooled(chunk_fn, bounds, workers)
    return _counted(parts, len(starts))


def _usable_cpus() -> int:
    # the CPUs this process may run on (a taskset or cpuset mask counts), where the
    # OS can say; else every CPU, or one when even that is unknown
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pooled(chunk_fn, bounds: Iterator[tuple[int, int]], workers: int) -> Iterator:
    # in order, with at most _IN_FLIGHT chunks per worker submitted and not yet consumed;
    # concurrent.futures, and multiprocessing with it, is imported only here
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(chunk_fn, b) for b in islice(bounds, _IN_FLIGHT * workers))
        while pending:
            part = pending.popleft().result()
            pending.extend(pool.submit(chunk_fn, b) for b in islice(bounds, 1))  # the next, if any
            yield part


def _counted(parts: Iterable, n_chunks: int) -> Iterator:
    n = 0
    for i, part in enumerate(parts, 1):
        n += len(part)
        _log("debug", "chunk %d/%d done (%d primes so far)", i, n_chunks, n)
        yield part


def scan(lo: int, hi: int, workers: int = 1) -> ScanReport:
    """Verdicts for every prime in [lo, hi), merged ascending and kept in `records`.

    The report is FAILED if any prime outside {11, 19} has divisible and
    representable disagreeing; 11 and 19 themselves are expected findings
    and are reported, not suppressed.
    """
    report = ScanReport(lo, hi)
    for chunk in _map_chunks(partial(_chunk, _itself), lo, hi, workers):
        report.add(chunk)
        report.records += chunk.rows
    report.log_summary()
    return report
