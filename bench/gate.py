"""Correctness gate for one scan's output, applied outside any timed region.

A scan passes when its exit code is 0, its summary line names exactly the
known exceptions inside the range, its records cover exactly the primes an
independent count finds, every record is internally consistent, a seeded
sample agrees with the package's independent routes (root formula,
exhaustive form search, Frobenius orbit), and, for a pinned range, its
stdout hashes to the pinned SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import random

from trib11.gfext import RAMIFIED_PRIMES, frobenius_orbit
from trib11.modmath import is_prime
from trib11.quadform import FORM_D, represent_bruteforce
from trib11.tribonacci import build_root_context, trib_exact, trib_via_roots

#: the primes where divisibility and representability legitimately disagree
EXCEPTIONS = (11, 19)

CSV_HEADER = (
    "p,trib_residue,divisible,representable,rep_x,rep_y,"
    "splitting,frobenius,consistent,exceptional"
)

#: records drawn per scan for the independent-route check
SAMPLE = 24

#: represent_bruteforce walks y up to sqrt(p/11); past this it takes too long
BRUTEFORCE_LIMIT = 10**10

_ORBIT_CLASS = {1: "Identity", 2: "Transposition", 3: "ThreeCycle"}
_CLASS_SHAPE = {
    "Identity": "ThreeDistinctRoots",
    "Transposition": "OneRootPlusIrreducibleQuadratic",
    "ThreeCycle": "Irreducible",
}
_RAMIFIED_SHAPE = {2: "RamifiedTriple", 11: "RamifiedDouble"}

# A record is the tuple (p, residue, divisible, representable, x, y, shape,
# class, consistent, exceptional), with None for an absent representation.


def expected_primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by Miller-Rabin, independent of the scan's sieve."""
    head = [2] if lo <= 2 < hi else []
    return head + [n for n in range(max(lo, 3) | 1, hi, 2) if is_prime(n)]


def first_primes(lo: int, n: int) -> list[int]:
    """The n smallest primes >= lo, by Miller-Rabin."""
    primes = []
    while len(primes) < n:
        if is_prime(lo):
            primes.append(lo)
        lo += 1
    return primes


def summary_line(lo: int, hi: int) -> str:
    return f"violations: {[p for p in EXCEPTIONS if lo <= p < hi]}"


def _bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"bad boolean {cell!r}")
    return cell == "true"


def _opt_int(cell: str) -> int | None:
    return int(cell) if cell else None


def parse_records(lines: list[str], fmt: str) -> list[tuple]:
    """Typed records from the scan's record lines (header already removed)."""
    if fmt == "csv":
        out = []
        for line in lines:
            p, res, div, rep, x, y, shape, cls, cons, exc = line.split(",")
            out.append((int(p), int(res), _bool(div), _bool(rep), _opt_int(x),
                        _opt_int(y), shape, cls, _bool(cons), _bool(exc)))
        return out
    if fmt == "jsonl":
        out = []
        for line in lines:
            d = json.loads(line)
            out.append((d["p"], d["trib_residue"], d["divisible"], d["representable"],
                        d["rep_x"], d["rep_y"], d["splitting"], d["frobenius"],
                        d["consistent"], d["exceptional"]))
        return out
    raise ValueError(f"unknown format {fmt!r}")


def as_record(rec) -> tuple:
    """The record tuple of a `verifier.VerdictRecord`."""
    return (rec.p, rec.trib_residue, rec.divisible, rec.representable, rec.rep_x, rec.rep_y,
            rec.splitting.value, rec.frobenius.value, rec.consistent, rec.exceptional)


def _record_problem(rec: tuple) -> str | None:
    """Checks every record can afford: the row agrees with itself."""
    p, res, div, rep, x, y, shape, cls, cons, exc = rec
    if not 0 <= res < p or div != (res == 0):
        return f"p={p}: residue {res} and divisible {div} disagree"
    if rep != (x is not None) or (rep and x * x + FORM_D * y * y != p):
        return f"p={p}: bad representation ({x}, {y})"
    if cons != (div == rep) or exc != (not cons):
        return f"p={p}: consistent/exceptional flags wrong"
    want_shape = _RAMIFIED_SHAPE.get(p) or _CLASS_SHAPE.get(cls)
    if shape != want_shape:
        return f"p={p}: shape {shape} does not match class {cls}"
    return None


def _independent_problem(rec: tuple) -> str | None:
    """Recompute one record by routes other than the scan's: the root formula
    for the residue, the Frobenius orbit for the class and, for small p,
    exhaustive search for the representation."""
    p, res, _, rep, x, y, _, cls, _, _ = rec
    if p in RAMIFIED_PRIMES:
        want_res, want_cls = trib_exact(p - 1) % p, "Ramified"
    else:
        want_res = trib_via_roots(p - 1, build_root_context(p))
        want_cls = _ORBIT_CLASS[frobenius_orbit(p)]
    if res != want_res:
        return f"p={p}: residue {res}, root formula gives {want_res}"
    if cls != want_cls:
        return f"p={p}: class {cls}, Frobenius orbit gives {want_cls}"
    if p < BRUTEFORCE_LIMIT:
        b = represent_bruteforce(p)
        if (rep, x, y) != (b.exists, b.x, b.y):
            return f"p={p}: representation ({x}, {y}), exhaustive search gives ({b.x}, {b.y})"
    return None


def check_records(records: list[tuple], lo: int, hi: int, primes: list[int],
                  rng: random.Random) -> list[str]:
    """Problems with a full record list; an empty list means it passes."""
    if [r[0] for r in records] != primes:
        return [f"{len(records)} records, but [{lo}, {hi}) holds {len(primes)} primes"]
    problems = []
    exceptional = [r[0] for r in records if r[9]]
    if exceptional != [p for p in EXCEPTIONS if lo <= p < hi]:
        problems.append(f"exceptional primes {exceptional}")
    for rec in records:
        problem = _record_problem(rec)
        if problem:
            problems.append(problem)
            break
    for rec in rng.sample(records, min(SAMPLE, len(records))):
        problem = _independent_problem(rec)
        if problem:
            problems.append(problem)
    return problems


def check_scan(rc: int, stdout: bytes, lo: int, hi: int, fmt: str, primes: list[int],
               rng: random.Random, pinned_sha: str | None) -> list[str]:
    """Problems with one `trib11 scan` invocation; an empty list means it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    if pinned_sha is not None and hashlib.sha256(stdout).hexdigest() != pinned_sha:
        return ["stdout differs from the pinned SHA-256"]
    try:
        lines = stdout.decode("ascii").split("\n")
    except UnicodeDecodeError:
        return ["stdout is not ASCII"]
    if lines[-1] != "":
        return ["stdout does not end with a newline"]
    lines.pop()
    if not lines or lines[-1] != summary_line(lo, hi):
        return [f"summary line {lines[-1] if lines else ''!r}, want {summary_line(lo, hi)!r}"]
    body = lines[:-1]
    if fmt == "csv":
        if not body or body[0] != CSV_HEADER:
            return ["missing or wrong CSV header"]
        body = body[1:]
    try:
        records = parse_records(body, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable record: {exc}"]
    return check_records(records, lo, hi, primes, rng)
