import hashlib
import io
import json
import os
import pickle
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
from trib11 import verifier
from trib11.cli import (
    _csv_line, _jsonl_obj, _row, _table_line, _table_row, main, record_lines, summary_line,
)
from trib11.gfext import Shape
from trib11.modmath import MAX_MODULUS, is_prime
from trib11.verifier import scan, verdict

from oracles import sieve_list, trib_list_exact

#: the stable CSV header as README documents it; spelled out, not derived from the code
CSV_HEADER = "p,trib_residue,divisible,representable,rep_x,rep_y,splitting,frobenius,consistent,exceptional"


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_usage_error(result, prog="trib11"):
    """A parse error: exit 1, nothing on stdout, a usage block and one error line on stderr."""
    rc, out, err = result
    assert (rc, out) == (1, "")
    assert err.startswith(f"usage: {prog} ")
    assert err.splitlines()[-1].startswith(f"{prog}: error: ")


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
    assert_usage_error(run(capsys, "verdict", "abc"), "trib11 verdict")


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
    assert lines[0] == CSV_HEADER
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
    assert list(objs[0]) == CSV_HEADER.split(",")
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


def _reference(rec):
    # a record's ten cells, each by the reference formula, and the dict that
    # json.dumps renders as its JSON line
    cells = (
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
    )
    obj = {
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
    return cells, obj


def test_rows_render_as_the_reference_formulas():
    # None coordinates, both exceptions, the ramified shapes and 19-digit integers
    records = [verdict(p) for p in (2, 3, 11, 19, 47, 53, 2**63 - 25)] + scan(2, 5000).records
    for rec in records:
        cells, obj = _reference(rec)
        # a scan's chunk renders a line from five facts; the flags follow from them
        facts = rec.p, rec.trib_residue, rec.splitting, rec.rep_x, rec.rep_y
        assert _csv_line(*facts) == ",".join(cells), rec
        assert _row(rec) == cells, rec
        assert _table_row(*facts) == _table_line(cells), rec
        assert _jsonl_obj(*facts) == json.dumps(obj), rec


@pytest.mark.parametrize("shape", list(Shape))
def test_table_rows_pad_the_facts_as_the_csv_cells(shape):
    # every row kind in every format against its reference: the record's cells
    # joined by commas, padded to their columns, and its dict as json.dumps
    # writes it.  Each combination of a zero or nonzero residue and x None or
    # not, with numbers narrower and wider than their columns
    for p in (2, 47, 1_000_003, 2**63 - 25):
        for residue in (0, 1, 12345678901):
            for x, y in ((None, None), (0, 1), (6, 1), (1234567, 7654321)):
                facts = p, residue, shape, x, y
                cells, obj = _reference(verifier._record(*facts))
                assert _csv_line(*facts) == ",".join(cells), facts
                assert _table_row(*facts) == _table_line(cells), facts
                assert _jsonl_obj(*facts) == json.dumps(obj), facts


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
    # one chunk that holds no prime writes no line
    assert run(capsys, "scan", "--from", "24", "--to", "29", "--format", "csv") == (
        0, f"{CSV_HEADER}\nviolations: []\n", ""
    )
    assert run(capsys, "scan", "--from", "24", "--to", "29", "--format", "jsonl") == (
        0, "violations: []\n", ""
    )


@pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
def test_a_scan_chunk_comes_back_rendered(monkeypatch, capsys, fmt):
    # a chunk of the CLI's scan reaches stdout rendered, and what its finish
    # returns, which a worker would pickle, is only its counts and violations
    report = scan(2, 20000)
    parts = []
    map_chunks = verifier._map_chunks

    def kept(*args):
        for part in map_chunks(*args):
            parts.append(part)
            yield part

    monkeypatch.setattr(verifier, "_map_chunks", kept)
    lines = "".join(f"{line}\n" for line in record_lines(report.records, fmt))
    assert run(capsys, "scan", "--to", "20000", "--format", fmt) == (
        0, f"{lines}violations: [11, 19]\n", ""
    )
    assert parts == [((), report.class_counts, [11, 19])]
    assert b"VerdictRecord" not in pickle.dumps(parts)


def test_scan_usage_errors(capsys):
    for lo, hi in (("5", "4"), ("1", "10")):
        assert run(capsys, "scan", "--from", lo, "--to", hi) == (
            1, "", f"error: need 2 <= lo <= hi <= 2**63, got [{lo}, {hi})\n"
        )
    assert run(capsys, "scan", "--to", "10", "--workers", "0") == (
        1, "", "error: need workers >= 1, got 0\n"
    )
    assert_usage_error(run(capsys, "scan"), "trib11 scan")  # --to required
    assert_usage_error(run(capsys, "scan", "--to", "1e6"), "trib11 scan")


#: SHA-256 of `trib11 scan --to 70000` in each format, its summary line included
SCAN_70000_SHA256 = {
    "table": "5ca2614bbcff3be24abae2ce176cb8062996cbd16cd6f0d74590f4828b99645b",
    "csv": "8271fafc392bdbbfdbf25c699b4f214ce190ccebb5dbf109c01e0680767a49eb",
    "jsonl": "dbebf02fc5a92e4da3d1e1df0344f3c27ad70512c08495e6a87196c3fe8a247c",
}


def test_scan_out_file_and_worker_determinism(tmp_path):
    # three chunks, so that two workers run a pool and each writes its own rows;
    # in child processes, as the workers write to the real stdout
    for fmt in ("table", "csv", "jsonl"):
        outputs = set()
        for workers in ("1", "2"):
            args = ("-m", "trib11", "scan", "--to", "70000", "--workers", workers, "--format", fmt)
            path = tmp_path / f"out-{fmt}-{workers}"
            to_stdout, to_file = run_capped(*args), run_capped(*args, "--out", str(path))
            assert (to_stdout.returncode, to_file.returncode) == (0, 0)
            assert to_file.stdout == "violations: [11, 19]\n"
            outputs |= {to_stdout.stdout, path.read_text() + to_file.stdout}
        assert len(outputs) == 1, fmt
        # and the bytes themselves, the rows of 2, 11 and 19 among them
        assert hashlib.sha256(outputs.pop().encode()).hexdigest() == SCAN_70000_SHA256[fmt]


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
    assert_usage_error(run(capsys, "frobnicate"))


def test_no_command(capsys):
    assert_usage_error(run(capsys))


def test_help_exits_zero(capsys):
    for args in ((), ("scan",), ("trib",)):
        rc, out, err = run(capsys, *args, "--help")
        assert (rc, err) == (0, "")
        assert out.startswith(" ".join(("usage: trib11", *args)))


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
        watchdog.join()  # no thread outlives the block, so a later test forks none
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


def test_cli_runs_on_the_standard_library_alone():
    # -S leaves site-packages off the path, so no third-party package can be imported
    proc = run_capped("-S", "-m", "trib11", "scan", "--to", "1000", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "violations: [11, 19]"


#: modules a scan has no use for
_NOT_FOR_A_SCAN = ("dataclasses", "logging", "concurrent.futures", "multiprocessing",
                   "threading", "trib11.tribonacci")


def loaded_by(*args):
    """Which of _NOT_FOR_A_SCAN `main(args)` loads, in a fresh `python -S`.

    -S keeps `site` from importing modules of its own; the command must exit 0.
    """
    code = (
        "import sys\n"
        "from trib11.cli import main\n"
        f"rc = main({list(args)!r})\n"
        f"print(*(m for m in {_NOT_FOR_A_SCAN!r} if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    proc = run_capped("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


def test_a_scan_imports_only_what_it_runs(monkeypatch):
    monkeypatch.delenv("TRIB_LOG", raising=False)
    assert loaded_by("scan", "--to", "100", "--format", "csv") == []
    # three chunks on two forked workers, which load only pickle
    assert loaded_by("scan", "--to", "70000", "--format", "csv", "--workers", "2") == []
    assert loaded_by("trib", "10") == ["trib11.tribonacci"]


def test_scan_top_of_domain_in_bounded_memory():
    lo = MAX_MODULUS - 20000
    proc = run_capped(
        "-m", "trib11", "scan", "--from", str(lo), "--to", str(MAX_MODULUS), "--format", "csv"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ctrl_c_ends_the_scan_and_its_workers(workers):
    # SIGINT to the whole group, as a terminal sends it: the command dies of it,
    # silently, and reaps its workers on the way
    with capped_child(
        "-m", "trib11", "scan", "--to", str(2**62), "--workers", workers, "--format", "csv",
    ) as proc:
        assert len(list(islice(proc.stdout, 3))) == 3
        os.killpg(proc.pid, signal.SIGINT)
        err = proc.communicate()[1]
        assert (proc.returncode, err) == (-signal.SIGINT, "")
        assert not _kill_group(proc)


def test_a_worker_that_dies_is_one_error_line():
    # two workers, each killed by its first chunk after [2, 2 + 2**15)
    code = (
        "import os, signal, sys\n"
        "from trib11 import cli, verifier\n"
        "facts = verifier._facts\n"
        "def dies(bounds):\n"
        "    if bounds[0] != 2:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return facts(bounds)\n"
        "verifier._facts = dies\n"
        "verifier._usable_cpus = lambda: 2\n"
        "sys.exit(cli.main(['scan', '--to', '200000', '--workers', '2', '--format', 'csv']))\n"
    )
    with capped_child("-c", code) as proc:
        out, err = proc.communicate()
        assert (proc.returncode, err) == (1, "error: a scan worker ended before sending chunk 1\n")
        assert out.startswith(f"{CSV_HEADER}\n2,")
        assert not _kill_group(proc)


#: a two-worker CSV scan of [2, 200000) in which {code} kills chunk 1's worker
_KILLED_WORKER = """\
import os, signal, sys, time
from trib11 import cli, verifier
parent = os.getpid()
{code}
verifier._usable_cpus = lambda: 2
sys.exit(cli.main(['scan', '--to', '200000', '--workers', '2', '--format', 'csv']))
"""

_DIES_WAITING = """\
facts = verifier._facts
ready = sys.argv[1]
def waits(bounds):
    # chunk 1's facts are done and wait for its turn, which chunk 0 holds up
    # until it has killed chunk 1's worker there
    part = facts(bounds)
    if bounds[0] == 2 + (1 << 15):
        with open(ready, "w") as f:
            f.write(str(os.getpid()))
    elif bounds[0] == 2:
        while not os.path.exists(ready) or not open(ready).read():
            time.sleep(0.01)
        time.sleep(0.2)
        os.kill(int(open(ready).read()), signal.SIGKILL)
    return part
verifier._facts = waits
"""

_DIES_WRITING = """\
finish = verifier._finish
def dies_writing(row, emit, facts):
    # chunk 1's worker writes the first block of its rows, then is killed
    def emits_once(rows):
        emit(rows)
        sys.stdout.buffer.flush()
        os.kill(os.getpid(), signal.SIGKILL)
    return finish(row, emit if os.getpid() == parent or facts[0] == 2 else emits_once, facts)
verifier._finish = dies_writing
"""


@pytest.mark.parametrize("code, rows", [(_DIES_WAITING, 0), (_DIES_WRITING, verifier._BLOCK)],
                         ids=["waiting", "writing"])
def test_a_worker_killed_at_its_turn_is_one_error_line(tmp_path, code, rows):
    # killed while it waits for its turn, or once it has written the first block of
    # its rows on its turn: the output is the header, chunk 0 and the rows chunk 1
    # wrote, and the scan neither hangs nor leaves a worker
    records = scan(2, 200000).records[:len(scan(2, 2 + (1 << 15)).records) + rows]
    written = "".join(f"{line}\n" for line in record_lines(records, "csv"))  # and the header
    with capped_child("-c", _KILLED_WORKER.format(code=code), str(tmp_path / "ready")) as proc:
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, "error: a scan worker ended before sending chunk 1\n")
        assert out == written
        assert not _kill_group(proc)


#: a CLI scan, in a child process, with blocks of 5 rows and chunks 100 wide, that
#: logs which process computes each chunk's facts and which finishes it, in the order
#: they happen
_SMALL_BLOCKS = """\
import os, sys, time
from trib11 import cli, verifier
verifier._BLOCK, verifier._CHUNK = 5, 100
verifier._usable_cpus = lambda: 2
log, *argv = sys.argv[1:]
facts, finish = verifier._facts, verifier._finish
def logged(phase, lo):
    with open(log, "a") as f:
        f.write(f"{phase} {lo} {os.getpid()}\\n")
def logged_facts(bounds):
    if bounds[0] == 2:
        time.sleep(0.2)  # chunk 0 comes late, so a chunk finished before its turn shows
    logged("facts", bounds[0])
    return facts(bounds)
def logged_finish(row, emit, chunk):
    logged("finish", chunk[0])
    return finish(row, emit, chunk)
verifier._facts, verifier._finish = logged_facts, logged_finish
sys.exit(cli.main(argv))
"""


class _Writes(io.BytesIO):
    # a binary stdout that keeps each write apart
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, b):
        self.writes.append(bytes(b))
        return super().write(b)


@pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
def test_a_scan_writes_each_block_at_its_chunk_s_turn(monkeypatch, tmp_path, fmt):
    # ten chunks of a few blocks each: the same bytes as scan's records from one
    # worker and from two, on stdout and through --out; each chunk finishes in
    # chunk order in the process that computed its facts; and a one-worker scan
    # writes each block as one write
    monkeypatch.setattr(verifier, "_BLOCK", 5)
    monkeypatch.setattr(verifier, "_CHUNK", 100)
    records = scan(2, 1000).records
    lines = [f"{line}\n".encode() for line in record_lines(records, fmt)]
    header, rows = lines[:fmt != "jsonl"], lines[fmt != "jsonl":]
    summary = b"violations: [11, 19]\n"
    starts = range(2, 1000, 100)
    blocks = []
    for lo in starts:
        chunk = [row for rec, row in zip(records, rows) if lo <= rec.p < lo + 100]
        blocks += [b"".join(chunk[i:i + 5]) for i in range(0, len(chunk), 5)]
    sink = _Writes()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink))
    assert main(["scan", "--to", "1000", "--format", fmt]) == 0
    assert sink.writes == [*header, *blocks, summary]
    expected = b"".join(lines) + summary
    for workers in ("1", "2"):
        for out in (None, tmp_path / f"{fmt}-{workers}"):
            log = tmp_path / "log"
            log.unlink(missing_ok=True)
            args = ("scan", "--to", "1000", "--workers", workers, "--format", fmt)
            proc = run_capped("-c", _SMALL_BLOCKS, str(log), *args,
                              *(() if out is None else ("--out", str(out))))
            assert proc.returncode == 0, proc.stderr
            written = proc.stdout if out is None else out.read_text() + proc.stdout
            assert written.encode() == expected
            entries = [line.split() for line in log.read_text().splitlines()]
            computed = {int(lo): pid for phase, lo, pid in entries if phase == "facts"}
            finished = [(int(lo), pid) for phase, lo, pid in entries if phase == "finish"]
            assert finished == [(lo, computed[lo]) for lo in starts]
            assert len(set(computed.values())) == int(workers)


def test_a_pooled_parent_builds_no_power_table():
    # the table of x^k is built by the processes that compute chunks; a two-worker
    # scan's parent computes none, and a one-worker scan's process computes them all
    code = (
        "import sys\n"
        "from trib11 import cli, gfext, verifier\n"
        "verifier._usable_cpus = lambda: 2\n"
        "rc = cli.main(['scan', '--to', '70000', '--workers', sys.argv[1], '--format', 'csv'])\n"
        "print(gfext._X_POWERS is None, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    assert [run_capped("-c", code, workers).stderr for workers in ("2", "1")] == ["True\n", "False\n"]


def test_closed_stdout_is_an_exit_code_not_an_exception(monkeypatch, capsys):
    class ClosedPipe(io.BytesIO):
        def write(self, b):
            raise BrokenPipeError(32, "Broken pipe")

    # a text stdout over a closed pipe; a scan writes its records to the bytes underneath
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(ClosedPipe(), write_through=True))
    assert main(["scan", "--to", "100", "--format", "csv"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args", [("verdict", "47"), ("scan", "--to", "100"), ("--help",)])
def test_closed_stdout_is_met_before_the_final_flush(args):
    # output this short sits in stdout's buffer until a flush; with the
    # interpreter's default buffering, only a flush inside main turns the closed
    # pipe into exit 1 rather than an "Exception ignored" traceback and exit 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(trib11.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command starts
    try:
        proc = subprocess.run([sys.executable, "-m", "trib11", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_info_log_summarises_the_scan(monkeypatch):
    monkeypatch.setenv("TRIB_LOG", "info")
    proc = run_capped("-m", "trib11", "scan", "--to", "100")
    assert proc.returncode == 0, proc.stderr
    summary = "trib11.verifier: scan [2, 100): 25 primes, violations [11, 19], status OK"
    assert summary in proc.stderr.splitlines()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_debug_log_reports_each_chunk(monkeypatch, workers):
    monkeypatch.setenv("TRIB_LOG", "debug")
    proc = run_capped("-m", "trib11", "scan", "--to", "70000", "--workers", workers)
    assert proc.returncode == 0, proc.stderr
    ends = (2 + (1 << 15), 2 + (2 << 15), 70000)  # three chunks of 2**15 numbers, the last short
    chunk_lines = [
        f"trib11.verifier: chunk {i}/3 done ({len(sieve_list(end))} primes so far)"
        for i, end in enumerate(ends, 1)
    ]
    assert [l for l in proc.stderr.splitlines() if " chunk " in l] == chunk_lines
    n = len(sieve_list(70000))
    summary = f"trib11.verifier: scan [2, 70000): {n} primes, violations [11, 19], status OK"
    assert summary in proc.stderr.splitlines()  # debug shows the info summary too
    # across the switch of chunk widths: a full narrow chunk and one cut at the
    # switch, then a full wide chunk and a short one
    switch, wide = verifier._BANDS[0]
    lo, hi = switch - (1 << 15) - 1000, switch + wide + 1000
    proc = run_capped("-m", "trib11", "scan", "--from", str(lo), "--to", str(hi),
                      "--format", "csv", "--workers", workers)
    assert proc.returncode == 0, proc.stderr
    ends = (switch - 1000, switch, switch + wide, hi)
    chunk_lines = [
        f"trib11.verifier: chunk {i}/4 done ({sum(map(is_prime, range(lo, end)))} primes so far)"
        for i, end in enumerate(ends, 1)
    ]
    assert [l for l in proc.stderr.splitlines() if " chunk " in l] == chunk_lines


def test_range_beyond_domain_is_refused_at_once():
    proc = run_capped("-m", "trib11", "scan", "--to", str(10**30))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: need 2 <= lo <= hi <= 2**63")
    proc = run_capped("-c", (
        "from trib11.verifier import scan\n"
        "try:\n"
        "    scan(2, 2**63 + 1)\n"
        "except ValueError:\n"
        "    print('refused')\n"
    ))
    assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr
