import io
import json
import os
import resource
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import pytest

import trib11
from trib11.cli import CSV_COLUMNS, _jsonl_obj, _row, main, record_lines, summary_line
from trib11.modmath import MAX_MODULUS, is_prime
from trib11.verifier import scan, verdict

from oracles import sieve_list, trib_list_exact


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verdict_consistent(capsys):
    rc, out, _ = run(capsys, "verdict", "7")
    assert rc == 0
    assert "consistent: true" in out
    assert "exceptional: false" in out


def test_verdict_exceptional(capsys):
    for p in ("11", "19"):
        rc, out, _ = run(capsys, "verdict", p)
        assert rc == 2
        assert "exceptional: true" in out


def test_verdict_not_prime(capsys):
    rc, _, err = run(capsys, "verdict", "4")
    assert rc == 1
    assert "not prime" in err


def test_verdict_usage_error(capsys):
    rc, _, err = run(capsys, "verdict", "abc")
    assert rc == 1
    assert err


def test_represent(capsys):
    assert run(capsys, "represent", "11")[:2][1].strip() == "0 1"
    assert run(capsys, "represent", "19")[1].strip() == "none"
    assert run(capsys, "represent", "47")[1].strip() == "6 1"
    assert run(capsys, "represent", "15")[0] == 1


def test_trib(capsys):
    assert run(capsys, "trib", "10")[1].strip() == "149"
    assert run(capsys, "trib", "18")[1].strip() == "19513"
    assert run(capsys, "trib", "0")[1].strip() == "0"
    rc, out, _ = run(capsys, "trib", "18", "--mod", "19")
    assert rc == 0 and out.strip() == "0"


def test_trib_refused_arguments_are_one_error_line(capsys):
    assert run(capsys, "trib", "5", "--mod", "1") == (
        1, "", "error: modulus must be at least 2, got 1\n"
    )
    assert run(capsys, "trib", "--", "-1") == (
        1, "", "error: index must be non-negative, got -1\n"
    )


def test_trib_index_cap(capsys):
    rc, _, err = run(capsys, "trib", "2000000")
    assert rc == 1
    assert "--mod" in err
    rc, out, _ = run(capsys, "trib", "2000000", "--mod", "97")
    assert rc == 0 and out.strip().isdigit()


@contextmanager
def int_str_digits(limit):
    """Python's cap on int-to-str digits set to `limit` (a no-op before 3.10.7)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_trib_exact_past_the_digit_cap(capsys):
    with int_str_digits(4300):  # Python's default
        rc, out, err = run(capsys, "trib", "16500")
    assert (rc, err) == (0, "")
    with int_str_digits(0):  # lifted only to compare with the oracle
        assert out == f"{trib_list_exact(16501)[16500]}\n"


def test_trib_exact_at_the_index_limit(capsys):
    with int_str_digits(4300):
        rc, out, err = run(capsys, "trib", "1000000")
    assert (rc, err) == (0, "")
    digits = out.strip()
    assert len(digits) == 264_649 and digits.isdigit()
    rc, tail, _ = run(capsys, "trib", "1000000", "--mod", str(10**18))
    assert rc == 0
    assert digits[-18:] == tail.strip() == "466507007099574176"


def test_trib_prints_where_python_has_no_digit_cap(capsys, monkeypatch):
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run(capsys, "trib", "100") == (0, f"{trib_list_exact(101)[100]}\n", "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit cap before Python 3.10.7")
def test_trib_restores_the_digit_cap(capsys):
    with int_str_digits(5000):
        rc, out, _ = run(capsys, "trib", "20000")
        assert sys.get_int_max_str_digits() == 5000
    assert rc == 0 and len(out.strip()) > 5000


def test_splitting(capsys):
    rc, out, _ = run(capsys, "splitting", "2")
    assert rc == 0
    assert "shape: RamifiedTriple" in out and "roots: 1" in out
    rc, out, _ = run(capsys, "splitting", "47")
    assert "shape: ThreeDistinctRoots" in out and "roots: 5 17 26" in out
    rc, out, _ = run(capsys, "splitting", "5")
    assert "shape: Irreducible" in out and "frobenius: ThreeCycle" in out
    assert run(capsys, "splitting", "9")[0] == 1


def test_scan_csv_stdout(capsys):
    rc, out, _ = run(capsys, "scan", "--from", "2", "--to", "100", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 25 + 1  # header, rows, summary
    assert lines[-1] == "violations: [11, 19]"
    row11 = next(l for l in lines if l.startswith("11,"))
    assert row11 == "11,6,false,true,0,1,RamifiedDouble,Ramified,false,true"
    row3 = next(l for l in lines if l.startswith("3,"))
    assert ",,," in row3 or ",," in row3  # absent rep fields stay empty


def test_scan_jsonl(capsys):
    rc, out, _ = run(capsys, "scan", "--from", "2", "--to", "50", "--format", "jsonl")
    assert rc == 0
    lines = out.strip().splitlines()
    objs = [json.loads(l) for l in lines[:-1]]
    assert [o["p"] for o in objs] == sieve_list(50)
    assert list(objs[0]) == list(CSV_COLUMNS)
    rec11 = next(o for o in objs if o["p"] == 11)
    assert rec11["exceptional"] is True and rec11["rep_x"] == 0
    rec3 = next(o for o in objs if o["p"] == 3)
    assert rec3["rep_x"] is None


def _cell(value):
    # the reference formula for one CSV or table cell
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def test_rows_render_as_the_reference_formulas():
    # None coordinates, both exceptions, the ramified shapes and 19-digit integers
    records = [verdict(p) for p in (2, 3, 11, 19, 47, 53, 2**63 - 25)] + scan(2, 5000).records
    for rec in records:
        assert _row(rec) == (
            _cell(rec.p),
            _cell(rec.trib_residue),
            _cell(rec.divisible),
            _cell(rec.representable),
            _cell(rec.rep_x),
            _cell(rec.rep_y),
            rec.splitting.value,
            rec.frobenius.value,
            _cell(rec.consistent),
            _cell(rec.exceptional),
        ), rec
        assert _jsonl_obj(rec) == json.dumps(
            {
                "p": rec.p,
                "trib_residue": rec.trib_residue,
                "divisible": rec.divisible,
                "representable": rec.representable,
                "rep_x": rec.rep_x,
                "rep_y": rec.rep_y,
                "splitting": rec.splitting.value,
                "frobenius": rec.frobenius.value,
                "consistent": rec.consistent,
                "exceptional": rec.exceptional,
            }
        ), rec


def test_scan_table(capsys):
    rc, out, _ = run(capsys, "scan", "--from", "2", "--to", "20")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["p", "trib_residue"]
    assert len(lines) == 1 + 8 + 1


def test_scan_empty(capsys):
    rc, out, _ = run(capsys, "scan", "--from", "2", "--to", "2", "--format", "csv")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "violations: []"


def test_scan_usage_errors(capsys):
    for lo, hi in (("5", "4"), ("1", "10")):
        assert run(capsys, "scan", "--from", lo, "--to", hi) == (
            1, "", f"error: need 2 <= lo <= hi <= 2**63, got [{lo}, {hi})\n"
        )
    assert run(capsys, "scan", "--to", "10", "--workers", "0") == (
        1, "", "error: need workers >= 1, got 0\n"
    )
    assert run(capsys, "scan")[0] == 1  # --to required


def test_scan_out_file_and_worker_determinism(tmp_path, capsys):
    for fmt in ("csv", "jsonl"):
        paths = []
        for workers in ("1", "3"):
            path = tmp_path / f"out-{fmt}-{workers}"
            rc, out, _ = run(
                capsys, "scan", "--from", "2", "--to", "20000",
                "--workers", workers, "--format", fmt, "--out", str(path),
            )
            assert rc == 0
            assert out.strip() == "violations: [11, 19]"
            paths.append(path)
        a, b = (p.read_bytes() for p in paths)
        assert a == b


def test_refused_range_opens_no_output(tmp_path, capsys):
    path = tmp_path / "out.csv"
    for args, refusal in (
        (("--from", "5", "--to", "4"), "need 2 <= lo <= hi <= 2**63"),
        (("--to", str(10**21)), "need 2 <= lo <= hi <= 2**63"),
        (("--to", "10", "--workers", "0"), "need workers >= 1"),
    ):
        rc, out, err = run(capsys, "scan", *args, "--format", "csv", "--out", str(path))
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {refusal}") and err.count("\n") == 1
        assert not path.exists()


def test_scan_out_unwritable(capsys):
    rc, _, err = run(capsys, "scan", "--from", "2", "--to", "10",
                     "--out", "/nonexistent-dir/report.csv")
    assert rc == 1
    assert err


def test_rerun_is_byte_identical(capsys):
    first = run(capsys, "scan", "--from", "2", "--to", "3000", "--format", "csv")
    second = run(capsys, "scan", "--from", "2", "--to", "3000", "--format", "csv")
    assert first == second


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_record_lines_rejects_unknown_format():
    report = scan(2, 10)
    try:
        list(record_lines(report.records, "xml"))
    except ValueError as exc:
        assert "xml" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_summary_line_format():
    report = scan(2, 30)
    assert summary_line(report) == "violations: [11, 19]"


def test_unknown_trib_log_warns_and_runs(capsys, monkeypatch):
    monkeypatch.delenv("TRIB_LOG", raising=False)
    quiet = run(capsys, "scan", "--to", "100", "--format", "csv")
    monkeypatch.setenv("TRIB_LOG", "verbose")
    rc, out, err = run(capsys, "scan", "--to", "100", "--format", "csv")
    assert (rc, out) == quiet[:2]
    assert err.count("warning:") == 1
    assert "'verbose'" in err and "quiet, info, debug" in err


def _limit_address_space():
    # runs in the child only: cap its address space at 512 MB
    cap = 512 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _kill_group(proc):
    """SIGKILL every process left in the child's group; False if none was left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # every process of the group has exited
        return False
    return True


@contextmanager
def capped_child(*args):
    """`python ARGS` in a child process limited to 512 MB of address space.

    The child leads a new session, so the workers it starts share its
    process group, and the whole group is killed on leaving the block, so
    no test leaves workers behind.  A watchdog kills it after 120 s.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(trib11.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, preexec_fn=_limit_address_space, start_new_session=True,
    )
    watchdog = threading.Timer(120, _kill_group, (proc,))
    watchdog.start()
    try:
        yield proc
    finally:
        watchdog.cancel()
        _kill_group(proc)
        proc.communicate()


def run_capped(*args, lines=None):
    """Run `capped_child(*args)` to its end and return its CompletedProcess.

    With `lines`, only that many stdout lines are read; then the whole
    group is killed, so a streaming test never runs a full range.
    """
    with capped_child(*args) as proc:
        if lines is None:
            out, err = proc.communicate()
        else:
            out = "".join(islice(proc.stdout, lines))
            _kill_group(proc)
            err = proc.communicate()[1]
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_one_worker_scan_loads_no_multiprocessing():
    code = (
        "import sys\n"
        "from trib11.cli import main\n"
        "assert main(['scan', '--to', '1000', '--format', 'csv']) == 0\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("violations: [11, 19]\n")


def test_scan_top_of_domain_in_bounded_memory():
    lo = MAX_MODULUS - 20000
    proc = run_capped(
        "-m", "trib11", "scan", "--from", str(lo), "--to", str(MAX_MODULUS), "--format", "csv"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [int(l.split(",")[0]) for l in lines[1:-1]] == [
        n for n in range(lo, MAX_MODULUS) if is_prime(n)
    ]
    assert lines[-1] == "violations: []"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_streams_a_range_too_large_to_hold(workers):
    # [2, 2**62) holds about 10**17 primes: its first rows can only come from a stream
    expected = list(record_lines(scan(2, 2000).records, "csv"))
    proc = run_capped(
        "-m", "trib11", "scan", "--from", "2", "--to", str(2**62),
        "--format", "csv", "--workers", workers, lines=len(expected),
    )
    assert proc.stdout.splitlines() == expected, proc.stderr
    assert proc.returncode == -signal.SIGKILL  # still streaming when stopped


def test_closed_stdout_ends_the_scan_quietly():
    # a reader that stops early (`| head -3`): no error message, exit 1 (the range is
    # unfinished), and the child takes its workers with it
    with capped_child(
        "-m", "trib11", "scan", "--to", str(2**62), "--workers", "2", "--format", "csv",
    ) as proc:
        head = list(islice(proc.stdout, 3))
        proc.stdout.close()
        err = proc.communicate()[1]
        assert head == [f"{line}\n" for line in islice(record_lines(scan(2, 10).records, "csv"), 3)]
        assert (proc.returncode, err) == (1, "")
        assert not _kill_group(proc)


def test_closed_stdout_is_an_exit_code_not_an_exception(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", sys.stderr)  # click rewraps both streams; restore them
    assert main(["scan", "--to", "100", "--format", "csv"]) == 1
    assert capsys.readouterr().err == ""


def test_info_log_summarises_the_scan(monkeypatch):
    monkeypatch.setenv("TRIB_LOG", "info")
    proc = run_capped("-m", "trib11", "scan", "--to", "100")
    assert proc.returncode == 0, proc.stderr
    summary = "trib11.verifier: scan [2, 100): 25 primes, violations [11, 19], status OK"
    assert summary in proc.stderr.splitlines()


def test_range_beyond_domain_is_refused_at_once():
    proc = run_capped("-m", "trib11", "scan", "--to", str(10**30))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: need 2 <= lo <= hi <= 2**63")
    for fn in ("scan", "obstruction_check"):
        proc = run_capped("-c", (
            f"from trib11.verifier import {fn}\n"
            "try:\n"
            f"    {fn}(2, 2**63 + 1)\n"
            "except ValueError:\n"
            "    print('refused')\n"
        ))
        assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr
