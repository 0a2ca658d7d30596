"""Range verification of the divisibility / quadratic-form equivalence.

For every prime p the scanner computes three facts: whether p divides
T_{p-1}, whether p = x^2 + 11y^2, and how x^3 - x^2 - x - 1 factors mod
p.  The first and third come from one power x^p in F_p[x]/(f)
(`frobenius_power`); the second from Cornacchia, which shares nothing
with that kernel.  Outside the two known exceptional primes 11 and 19 the
first two must agree (and both must match the completely-split shape);
any other disagreement flags the whole report as FAILED.

Scans are deterministic regardless of worker count: the range is cut
into fixed chunks, each chunk is processed by pure functions, and the
results are merged back in ascending order.  They stream: chunks are
computed as their records are consumed, so any range of the domain runs
in bounded memory.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from concurrent import futures
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .gfext import FrobeniusClass, Shape, frobenius_power, splitting_type
from .modmath import MAX_MODULUS, ModPrime, PrimeLike, primes_in_range, require_prime
from .quadform import represent
from .tribonacci import trib_mod

logger = logging.getLogger(__name__)

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


@dataclass
class ScanReport:
    """Counts over the verdicts of [lo, hi); `records` is kept only by `scan`."""

    lo: int
    hi: int
    records: list[VerdictRecord] = field(default_factory=list)
    class_counts: dict[FrobeniusClass, int] = field(
        default_factory=lambda: dict.fromkeys(FrobeniusClass, 0))
    violations: list[int] = field(default_factory=list)

    @property
    def n_primes(self) -> int:
        return sum(self.class_counts.values())

    @property
    def identity_density(self) -> float:
        n = self.n_primes
        return self.class_counts[FrobeniusClass.IDENTITY] / n if n else 0.0

    @property
    def status(self) -> str:
        """"OK" when the violations stay inside the known exceptions, else "FAILED"."""
        return "OK" if KNOWN_EXCEPTIONS.issuperset(self.violations) else "FAILED"

    def tally(self, records: Iterable[VerdictRecord]) -> Iterator[VerdictRecord]:
        """Pass `records` through, counting each; log the summary when they end."""
        for rec in records:
            self.class_counts[rec.frobenius] += 1
            if rec.exceptional:
                self.violations.append(rec.p)
            yield rec
        logger.info("scan [%d, %d): %d primes, violations %s, status %s",
                    self.lo, self.hi, self.n_primes, self.violations, self.status)


@dataclass
class ObstructionReport:
    """Outcome of the per-class divisibility obstructions over a range."""

    lo: int
    hi: int
    checked: dict[FrobeniusClass, int]
    failures: list[tuple[int, str]]

    @property
    def status(self) -> str:
        return "FAILED" if self.failures else "OK"


def verdict(p: PrimeLike) -> VerdictRecord:
    """Compute the full per-prime record for one prime."""
    return _verdict(require_prime(p))


def _verdict(pv: int) -> VerdictRecord:
    mp = ModPrime(pv)
    xp, shape = frobenius_power(mp)
    residue = xp[2]  # the x^2 coefficient of x^p is T_{p-1} mod p
    divisible = residue == 0
    rep = represent(mp)
    consistent = divisible == rep.exists
    return VerdictRecord(
        p=pv,
        trib_residue=residue,
        divisible=divisible,
        representable=rep.exists,
        rep_x=rep.x,
        rep_y=rep.y,
        splitting=shape,
        frobenius=shape.frobenius_class,
        consistent=consistent,
        exceptional=not consistent,
    )


def _chunk_verdicts(bounds: tuple[int, int]) -> list[VerdictRecord]:
    lo, hi = bounds
    return [_verdict(p) for p in primes_in_range(lo, hi)]


def _chunk_classes(bounds: tuple[int, int]) -> list[tuple[int, FrobeniusClass, bool]]:
    # (p, class by the gcd classifier, p | T_{p-1} by trib_mod) for obstruction_check
    lo, hi = bounds
    return [
        (p, splitting_type(ModPrime(p)).frobenius_class, trib_mod(p - 1, p) == 0)
        for p in primes_in_range(lo, hi)
    ]


def _map_chunks(chunk_fn, lo: int, hi: int, workers: int) -> Iterator:
    """chunk_fn over the fixed chunks of [lo, hi), per-prime results streamed in order.

    The range and the worker count are checked at once, before any chunk
    is computed or any pool exists, and at most one worker per chunk and
    per CPU is started.
    """
    if not 2 <= lo <= hi <= MAX_MODULUS:
        raise ValueError(f"need 2 <= lo <= hi <= 2**63, got [{lo}, {hi})")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    starts = range(lo, hi, _CHUNK)
    workers = min(workers, len(starts), os.cpu_count() or 1)
    bounds = ((c, min(c + _CHUNK, hi)) for c in starts)
    parts = map(chunk_fn, bounds) if workers <= 1 else _pooled(chunk_fn, bounds, workers)
    return _flatten(parts, len(starts))


def _pooled(chunk_fn, bounds: Iterator[tuple[int, int]], workers: int) -> Iterator[list]:
    # in order, with at most _IN_FLIGHT chunks per worker submitted and not yet consumed;
    # the pool's module, and multiprocessing with it, is imported only here
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(chunk_fn, b) for b in islice(bounds, _IN_FLIGHT * workers))
        while pending:
            part = pending.popleft().result()
            pending.extend(pool.submit(chunk_fn, b) for b in islice(bounds, 1))  # the next, if any
            yield part


def _flatten(parts: Iterable[list], n_chunks: int) -> Iterator:
    n = 0
    for i, part in enumerate(parts, 1):
        n += len(part)
        logger.debug("chunk %d/%d done (%d primes so far)", i, n_chunks, n)
        yield from part


def verdicts(lo: int, hi: int, workers: int = 1) -> Iterator[VerdictRecord]:
    """Verdicts for every prime in [lo, hi), ascending, computed as they are consumed.

    The range and `workers` (at least 1) are checked when this is called;
    a bad one raises ValueError.
    """
    return _map_chunks(_chunk_verdicts, lo, hi, workers)


def scan(lo: int, hi: int, workers: int = 1) -> ScanReport:
    """Verdicts for every prime in [lo, hi), merged ascending and kept in `records`.

    The report is FAILED if any prime outside {11, 19} has divisible and
    representable disagreeing; 11 and 19 themselves are expected findings
    and are reported, not suppressed.
    """
    report = ScanReport(lo, hi)
    report.records.extend(report.tally(verdicts(lo, hi, workers)))
    return report


def obstruction_check(lo: int, hi: int, workers: int = 1) -> ObstructionReport:
    """Check the per-class divisibility obstructions over [lo, hi).

    Identity-class primes must divide T_{p-1}; a transposition-class
    prime may do so only if it divides 38; a 3-cycle-class prime p > 2
    never does.  Ramified primes carry no class and are only counted.

    This pass does not reuse the scan's verdicts.  It classifies with the
    gcd-based `splitting_type`, takes the residue from `trib_mod`, and
    runs no Cornacchia.  "Identity => p | T_{p-1}" holds here by
    construction: `trib_mod` and `splitting_type` share the power ladder
    `_xpow`, and x^p = x leaves T_{p-1}, the x^2 coefficient, at zero.
    Independent coverage of the residue comes from acceptance criteria
    04 (`trib_via_roots`), 05 (`frobenius_reduction_check`) and 08
    (plain iteration).  Criterion 06 compares `checked` with a scan's
    `class_counts`, that is the fused p mod 11 classifier of `verdict`
    with the gcd classifier, over [2, 10^6).
    """
    checked = {cls: 0 for cls in FrobeniusClass}
    failures: list[tuple[int, str]] = []
    for p, cls, divisible in _map_chunks(_chunk_classes, lo, hi, workers):
        checked[cls] += 1
        if cls is FrobeniusClass.IDENTITY:
            if not divisible:
                failures.append((p, "split prime does not divide T_{p-1}"))
        elif cls is FrobeniusClass.TRANSPOSITION:
            if divisible and 38 % p != 0:
                failures.append((p, "transposition prime divides T_{p-1} but not 38"))
        elif cls is FrobeniusClass.THREE_CYCLE:
            if p > 2 and divisible:
                failures.append((p, "3-cycle prime divides T_{p-1}"))
    return ObstructionReport(lo, hi, checked, failures)
