"""Self-test of the benchmark at a tiny configuration.

Run from the repository root with `python -m pytest -q bench`.  Every
workload shape runs end to end, traced and untraced, on ranges small
enough to finish in seconds, and output tampered with by the harness
must be counted as failed.
"""

import json

import pytest

import run

TINY = {
    "dense_1e6": run.Workload("dense_1e6", "csv", 1, start=2, stop=3000),
    "window_1e9_w2": run.Workload("window_1e9_w2", "jsonl", 2, start=10**6, spread=10**5, primes=300),
    "window_1e16": run.Workload("window_1e16", "csv", 1, start=10**10, spread=10**8, primes=40),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _results(capsys) -> list[dict]:
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_shape_end_to_end(capsys, trace):
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    results = _results(capsys)
    spec = json.loads(run.SPEC.read_text())["per_layer" if trace else "end_to_end"]
    assert len(results) == len(TINY)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec]
        for m in spec:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_dense_reports_the_two_exceptions():
    assert run.gate.summary_line(2, 10**6) == "violations: [11, 19]"
    assert run.gate.summary_line(*TINY["dense_1e6"].bounds(0)[:2]) == "violations: [11, 19]"


def test_windows_move_with_the_seed_and_keep_their_prime_count():
    wl = run.WORKLOADS["window_1e9_w2"]
    a, b = wl.bounds(1), wl.bounds(2)
    assert a[0] != b[0] and len(a[2]) == len(b[2]) == wl.primes
    assert wl.bounds(1) == a


def _flip_class(out: bytes) -> bytes:
    return out.replace(b"Transposition", b"ThreeCycle", 1)


def _drop_record(out: bytes) -> bytes:
    lines = out.split(b"\n")
    return b"\n".join(lines[:3] + lines[4:])


def _bad_summary(out: bytes) -> bytes:
    return out.replace(b"violations: [11, 19]", b"violations: [19]")


def _bad_residue(out: bytes) -> bytes:
    # move every nonzero residue off by one, keeping it nonzero, so that each row
    # still agrees with itself and only the independent routes can notice
    lines = out.split(b"\n")
    for i, line in enumerate(lines[1:-2], 1):
        cells = line.split(b",")
        p, res = int(cells[0]), int(cells[1])
        if 0 < res < p - 1:
            cells[1] = str(res + 1).encode()
            lines[i] = b",".join(cells)
    return b"\n".join(lines)


@pytest.mark.parametrize("tamper", [_flip_class, _drop_record, _bad_summary, _bad_residue])
def test_tampered_output_is_counted_as_failed(tamper):
    wl = TINY["dense_1e6"]
    clean = run.measure(wl, 0, 0.01)
    assert clean["failed"] == 0 and clean["metrics"]["pass_ratio"] == 1
    result = run.measure(wl, 0, 0.01, tamper=tamper)
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_ratio"] == 0


def test_pinned_stdout_is_checked(monkeypatch, tmp_path):
    wl = TINY["dense_1e6"]
    pin = tmp_path / "pinned.json"
    pin.write_text(json.dumps({wl.name: {"from": 2, "to": 3000, "format": "csv", "sha256": "0" * 64}}))
    monkeypatch.setattr(run, "PINNED", pin)
    assert run.measure(wl, 0, 0.01)["problems"] == ["stdout differs from the pinned SHA-256"]


def test_results_carry_the_environment(tmp_path, capsys):
    out = tmp_path / "trajectory.json"
    run.main(["--workload", "window_1e16", "--seconds", "0.01", "--out", str(out)])
    run.main(["--workload", "window_1e16", "--seconds", "0.01", "--out", str(out)])
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2
    env = runs[0]["environment"]
    assert {"nproc", "python", "click", "numpy", "git_sha", "git_dirty"} <= set(env)
    assert env["nproc"] >= 1 and env["click"]
