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
results are merged back in ascending order.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .gfext import FrobeniusClass, Shape, frobenius_power, splitting_type
from .modmath import ModPrime, PrimeLike, primes_in_range, require_prime
from .quadform import represent
from .tribonacci import trib_mod

logger = logging.getLogger(__name__)

#: the primes where divisibility and representability legitimately disagree
KNOWN_EXCEPTIONS = frozenset({11, 19})

#: chunk width for scans; fixed so results never depend on worker count
_CHUNK = 1 << 15


@dataclass(frozen=True, slots=True)
class VerdictRecord:
    """Per-prime row joining the three facts and their agreement flags."""

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
    lo: int
    hi: int
    records: list[VerdictRecord]
    class_counts: dict[FrobeniusClass, int]
    violations: list[int]
    identity_density: float
    status: str  # "OK" when violations stay inside the known exceptions

    @property
    def n_primes(self) -> int:
        return len(self.records)


@dataclass
class ObstructionReport:
    """Outcome of the per-class divisibility obstructions over a range."""

    lo: int
    hi: int
    checked: dict[FrobeniusClass, int]
    failures: list[tuple[int, str]]
    status: str


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


def _chunked(lo: int, hi: int) -> list[tuple[int, int]]:
    return [(c, min(c + _CHUNK, hi)) for c in range(lo, hi, _CHUNK)]


def _map_chunks(chunk_fn, lo: int, hi: int, workers: int) -> list:
    """chunk_fn over the fixed chunks of [lo, hi), per-prime results concatenated in order."""
    chunks = _chunked(lo, hi)
    results: list = []

    def collect(parts) -> None:
        for i, part in enumerate(parts, 1):
            results.extend(part)
            logger.debug("chunk %d/%d done (%d primes so far)", i, len(chunks), len(results))

    if workers <= 1 or len(chunks) <= 1:
        collect(map(chunk_fn, chunks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(chunk_fn, chunks))
    return results


def scan(lo: int, hi: int, workers: int = 1) -> ScanReport:
    """Verdicts for every prime in [lo, hi), merged ascending.

    The report is FAILED if any prime outside {11, 19} has divisible and
    representable disagreeing; 11 and 19 themselves are expected findings
    and are reported, not suppressed.
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi})")
    records = _map_chunks(_chunk_verdicts, lo, hi, workers)
    counts = {cls: 0 for cls in FrobeniusClass}
    violations = []
    for rec in records:
        counts[rec.frobenius] += 1
        if rec.exceptional:
            violations.append(rec.p)
    n = len(records)
    density = counts[FrobeniusClass.IDENTITY] / n if n else 0.0
    unexpected = [p for p in violations if p not in KNOWN_EXCEPTIONS]
    status = "FAILED" if unexpected else "OK"
    logger.info(
        "scan [%d, %d): %d primes, violations %s, status %s", lo, hi, n, violations, status
    )
    return ScanReport(lo, hi, records, counts, violations, density, status)


def obstruction_check(lo: int, hi: int, workers: int = 1) -> ObstructionReport:
    """Check the per-class divisibility obstructions over [lo, hi).

    Identity-class primes must divide T_{p-1}; a transposition-class
    prime may do so only if it divides 38; a 3-cycle-class prime p > 2
    never does.  Ramified primes carry no class and are only counted.

    This pass does not reuse the scan's verdicts.  It classifies with the
    gcd-based `splitting_type`, takes the residue from `trib_mod`, and
    runs no Cornacchia.  "Identity => p | T_{p-1}" holds here by
    construction: `trib_mod` and `splitting_type` share the power kernel
    `_pow3`, and x^p = x leaves T_{p-1}, the x^2 coefficient, at zero.
    Independent coverage of the residue comes from acceptance criteria
    04 (`trib_via_roots`), 05 (`frobenius_reduction_check`) and 08
    (`trib_exact`).  Criterion 06 compares `checked` with a scan's
    `class_counts`, that is the fused Jacobi classifier of `verdict`
    with the gcd classifier, over [2, 10^6).
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi})")
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
    status = "FAILED" if failures else "OK"
    return ObstructionReport(lo, hi, checked, failures, status)
