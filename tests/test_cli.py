import json

from trib11.cli import CSV_COLUMNS, main, record_lines, summary_line
from trib11.verifier import scan

from oracles import sieve_list


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


def test_trib_index_cap(capsys):
    rc, _, err = run(capsys, "trib", "2000000")
    assert rc == 1
    assert "--mod" in err
    rc, out, _ = run(capsys, "trib", "2000000", "--mod", "97")
    assert rc == 0 and out.strip().isdigit()


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
    assert run(capsys, "scan", "--from", "5", "--to", "4")[0] == 1
    assert run(capsys, "scan", "--from", "1", "--to", "10")[0] == 1
    assert run(capsys, "scan", "--to", "10", "--workers", "0")[0] == 1
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
