"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The million-range scans
are session fixtures shared by the criteria that need them; everything is
checked at exact tolerance except the class-density sanity check, which
is statistical by nature.  One more test checks the paper's proof in
closed form: the norm that leaves only 19, and each Frobenius class's
form for T_{p-1} mod p.  A last test holds the scan's stdout to the
SHA-256s the benchmark pins in `bench/pinned.json`.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from trib11.cli import main, record_lines, summary_line
from trib11.gfext import FrobeniusClass, Shape, _gcd_shape, splitting_type
from trib11.modmath import ModPrime, _sqrt_mod, is_prime, jacobi, primes_in_range
from trib11.quadform import represent, represent_bruteforce
from trib11.tribonacci import build_root_context, trib_exact, trib_mod, trib_via_roots
from trib11.verifier import ScanReport, scan

from judges import frobenius_reduction_check, obstruction_check
from oracles import sieve_list, trial_isprime, trib_list_exact

MILLION = 10**6

PINNED = Path(__file__).resolve().parents[1] / "bench" / "pinned.json"


def _pass(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


@pytest.fixture(scope="session")
def million_scan():
    return scan(2, MILLION, workers=1)


@pytest.fixture(scope="session")
def million_scan_w8():
    return scan(2, MILLION, workers=8)


def test_criterion_01_exact_fixtures():
    assert trib_exact(10) == 149
    assert trib_exact(18) == 19513 == 19 * 1027
    assert trib_mod(10, 11) == 6 != 0
    assert trib_mod(18, 19) == 0
    _pass(1, "T_10 = 149, T_18 = 19513 = 19*1027, residues 6 mod 11 and 0 mod 19")


def test_criterion_02_divisibility_iff_representable_to_a_million(million_scan):
    report = million_scan
    assert report.n_primes == 78498 == len(sieve_list(MILLION))
    assert report.violations == [11, 19]
    assert report.status == "OK"
    for rec in report.records:
        if rec.p not in (11, 19):
            assert rec.divisible == rec.representable, rec.p
    _pass(2, "scan [2, 1000000): equivalence holds, violations exactly {11, 19}")


def test_criterion_03_representable_iff_split():
    for p in primes_in_range(2, 10**5):
        if p == 11:
            continue
        mp = ModPrime(p)
        exists = represent(mp).exists
        split = splitting_type(mp).shape is Shape.THREE_DISTINCT_ROOTS
        assert exists == split, p
    _pass(3, "p = x^2+11y^2 iff three distinct roots, all primes < 10^5 except 11")


def test_criterion_04_root_formula_matches_matrix_route():
    shapes_seen = set()
    for p in primes_in_range(3, 501):
        if p == 11:
            continue
        ctx = build_root_context(ModPrime(p))
        shapes_seen.add(ctx.shape)
        for n in range(201):
            assert trib_via_roots(n, ctx) == trib_mod(n, p), (p, n)
    assert shapes_seen == {
        Shape.THREE_DISTINCT_ROOTS,
        Shape.ONE_ROOT_PLUS_IRREDUCIBLE_QUADRATIC,
        Shape.IRREDUCIBLE,
    }
    _pass(4, "root formula = trib_mod for n <= 200, primes 3..500, all shapes")


def test_criterion_05_frobenius_reduction_identity():
    for p in primes_in_range(3, 10**4):
        if p == 11:
            continue
        lhs, rhs = frobenius_reduction_check(ModPrime(p))
        assert lhs == rhs, p
    _pass(5, "delta*T_{p-1} matches the Frobenius-power combination, 3 <= p < 10^4")


def test_criterion_06_proof_obstructions(million_scan):
    report = obstruction_check(2, MILLION)
    assert report.status == "OK"
    assert report.failures == []
    assert report.checked == million_scan.class_counts
    assert report.checked[FrobeniusClass.RAMIFIED] == 2
    _pass(6, "class obstructions hold over [2, 1000000): identity divides, "
             "transposition only via 38, 3-cycle never")


#: 22 T_{p-1} at a transposition prime, as a polynomial in its root a of f in F_p:
#: 19a^2 - 18a - 13, coefficients from the constant term up
TRANSPOSITION_NUMERATOR = (-13, -18, 19)


def _times_x(v):
    # x (v0 + v1 x + v2 x^2) in Z[x]/(f), where x^3 = x^2 + x + 1
    v0, v1, v2 = v
    return v2, v0 + v2, v1 + v2


def test_the_norm_and_the_class_forms_leave_only_19():
    # The paper's proof in exact checks.  T_{p-1} mod p has one closed form per
    # Frobenius class: 0 for the identity, 19a^2 - 18a - 13 over 22 for a
    # transposition with its root a in F_p, and 11 T^2 = -4 for a 3-cycle.  The
    # norm of the transposition numerator, the determinant of multiplication by
    # it on the basis 1, x, x^2 of Z[x]/(f), is 2^2 11^2 19, so 19 is the only
    # unramified prime where p | T_{p-1} and f does not split completely.  The
    # forms judge the scan's residues; the scan never takes its residue from them.
    columns = [TRANSPOSITION_NUMERATOR]
    columns += [_times_x(columns[-1]), _times_x(_times_x(columns[-1]))]
    (a, b, c), (d, e, f), (g, h, i) = columns
    norm = a * (e * i - f * h) - d * (b * i - c * h) + g * (b * f - c * e)
    assert norm == 9196 == 2**2 * 11**2 * 19

    counts = dict.fromkeys(FrobeniusClass, 0)
    for rec in scan(3, 300_000).records:
        p, t, cls = rec.p, rec.trib_residue, rec.frobenius
        counts[cls] += 1
        if cls is FrobeniusClass.IDENTITY:
            assert t == 0, p
        elif cls is FrobeniusClass.TRANSPOSITION:
            shape, root_factor = _gcd_shape(p)  # x - a, the linear gcd of f and x^p - x
            assert shape is rec.splitting and len(root_factor) == 2, p
            root = -root_factor[0] % p
            assert (root**3 - root**2 - root - 1) % p == 0, p
            numerator = sum(c * root**k for k, c in enumerate(TRANSPOSITION_NUMERATOR))
            assert (22 * t - numerator) % p == 0, p
        elif cls is FrobeniusClass.THREE_CYCLE:
            assert (11 * t * t + 4) % p == 0, p
    assert counts == {
        FrobeniusClass.IDENTITY: 4310,
        FrobeniusClass.TRANSPOSITION: 13032,
        FrobeniusClass.THREE_CYCLE: 8653,
        FrobeniusClass.RAMIFIED: 1,  # 11
    }
    print("the norm of 19a^2 - 18a - 13 is 9196 = 2^2 11^2 19, and all 25,995 "
          "unramified primes in [3, 300000) satisfy their class's form")


def test_criterion_07_cornacchia_vs_bruteforce():
    for p in primes_in_range(2, 10**5):
        assert represent(ModPrime(p)) == represent_bruteforce(p), p
    _pass(7, "Cornacchia agrees with exhaustive search on all primes < 10^5")


def test_criterion_08_modular_arithmetic_suite():
    for n in range(MILLION):
        assert is_prime(n) == trial_isprime(n), n

    for p in sieve_list(2000):
        if p == 2:
            continue
        for a in range(p):
            r = _sqrt_mod(a, p)
            if r is None:
                assert jacobi(a, p) == -1, (a, p)
            else:
                assert r * r % p == a, (a, p)

    exact = trib_list_exact(10**4 + 1)
    rng = random.Random(20260809)
    moduli = [rng.randrange(2, 2**32) for _ in range(100)]
    for m in moduli:
        reduced = [v % m for v in exact]
        for n in range(10**4 + 1):
            assert trib_mod(n, m) == reduced[n], (n, m)
    _pass(8, "is_prime = trial division below 10^6; sqrt_mod round-trips; "
             "trib_mod = T_n mod m by iteration for n <= 10^4 over 100 moduli")


def test_criterion_09_class_densities(million_scan):
    counts = million_scan.class_counts
    n = million_scan.n_primes
    targets = {
        FrobeniusClass.IDENTITY: 1 / 6,
        FrobeniusClass.TRANSPOSITION: 1 / 2,
        FrobeniusClass.THREE_CYCLE: 1 / 3,
    }
    freqs = {}
    for cls, target in targets.items():
        freq = counts[cls] / n
        freqs[cls.value] = round(freq, 4)
        assert abs(freq - target) <= 0.02, (cls, freq)
    _pass(9, f"class frequencies within 0.02 of 1/6, 1/2, 1/3: {freqs}")


def test_criterion_10_scan_determinism(million_scan, million_scan_w8):
    for fmt in ("csv", "jsonl"):
        solo = "\n".join(record_lines(million_scan.records, fmt))
        multi = "\n".join(record_lines(million_scan_w8.records, fmt))
        assert solo.encode() == multi.encode()
    assert summary_line(million_scan) == summary_line(million_scan_w8)
    _pass(10, "scan output with 8 workers is byte-identical to 1 worker on [2, 1000000)")


def _stdout_sha256(records, report: ScanReport, fmt: str) -> str:
    # the bytes `trib11 scan --format FMT` writes: every record line, then the summary
    lines = [*record_lines(records, fmt), summary_line(report)]
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def test_scan_stdout_matches_the_benchmark_pins(million_scan):
    pins = json.loads(PINNED.read_text())
    dense = pins["dense_1e6"]
    assert (dense["from"], dense["to"], dense["format"]) == (2, MILLION, "csv")
    assert _stdout_sha256(million_scan.records, million_scan, "csv") == dense["sha256"]
    window = pins["window_1e9_w2"]
    assert window["format"] == "jsonl"
    report = scan(window["from"], window["to"], workers=2)
    assert _stdout_sha256(report.records, report, "jsonl") == window["sha256"]
    # the only pin above 2**38, where BPSW finishes the sieve's survivors, and the
    # only one above 2**33, where each prime runs Cornacchia; window_1e9_w2 reads
    # the marks
    high = pins["window_1e16"]
    assert high["format"] == "csv"
    report = scan(high["from"], high["to"])
    assert _stdout_sha256(report.records, report, "csv") == high["sha256"]


@pytest.mark.parametrize(
    "name, workers", [("dense_1e6", 1), ("window_1e9_w2", 2), ("window_1e16", 1)]
)
def test_cli_stdout_matches_the_benchmark_pins(name, workers, tmp_path, capsys):
    # the CLI renders chunk by chunk, not through record_lines: its own bytes, the
    # records in --out and the summary on stdout, with the workload's worker count
    pin = json.loads(PINNED.read_text())[name]
    path = tmp_path / "out"
    rc = main(["scan", "--from", str(pin["from"]), "--to", str(pin["to"]),
               "--format", pin["format"], "--workers", str(workers), "--out", str(path)])
    summary = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(path.read_bytes() + summary.encode()).hexdigest() == pin["sha256"]
