"""Scan benchmark for trib11: end-to-end and per-layer numbers on fixed workloads.

Run from the root of a trib11 checkout:

    python3 bench/run.py --workload dense_1e6 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 0

With --trace 0, each timed invocation is a real `python -m trib11 scan`
subprocess, run closed-loop (one at a time) for as many invocations as fit
in --seconds (at least one).
Every invocation goes through the correctness gate in gate.py after its
timing ends.  With --trace 1, the workload is replayed in-process through
the package's public functions with a span around each call (spans.py),
and the per-layer metrics come from those spans.

A human-readable table goes to stderr, a results file with the environment
to .bench_out/ (and appended to --out when given), and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINNED = Path(__file__).resolve().parent / "pinned.json"
SPEC = ROOT / "BENCHMARK.json"

if not (SRC / "trib11" / "__init__.py").is_file():
    sys.exit(f"error: no trib11 package under {SRC}; run from the root of a trib11 checkout")
sys.path.insert(0, str(SRC))
import gate  # noqa: E402  (both import trib11 from SRC)
import spans  # noqa: E402

#: one run must finish well inside the three minutes a run is allowed
RUN_LIMIT_S = 170.0

#: interpreter start-ups timed for setup_s before each scan, spreading them over the run
SETUP_PER_SCAN = 3

SETUP_CODE = "import trib11.cli"

# Runs the command in argv[1:] with stderr discarded and writes to stderr its
# exit code, wall seconds, CPU seconds and peak RSS in KiB, covering the
# command and the workers it reaped.  The launcher exists because a child
# started by fork or vfork inherits its parent's peak RSS: started from this
# small process, the command's peak is its own, not the harness's.
LAUNCHER = """\
import json, os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stderr=subprocess.DEVNULL)
_, status, ru = os.wait4(proc.pid, 0)
wall = time.perf_counter() - t0
code = os.waitstatus_to_exitcode(status)
print(json.dumps([code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss]), file=sys.stderr)
"""

# enumerate the range chunk by chunk, as the scan does, and nothing else
ENUM_CODE = """\
import json, sys, time
from trib11.modmath import primes_in_range
lo, hi, chunk = map(int, sys.argv[1:])
t0 = time.perf_counter()
n = sum(1 for c in range(lo, hi, chunk) for _ in primes_in_range(c, min(c + chunk, hi)))
print(json.dumps({"s": time.perf_counter() - t0, "primes": n}))
"""


@dataclass(frozen=True)
class Workload:
    """How `trib11 scan` is asked to run, over a fixed range or a seeded window.

    A fixed range is [start, stop).  A window starts at a seeded point in
    [start, start + spread) and ends just past its `primes`-th prime, so
    every seed verifies the same number of primes at the same magnitude.
    """

    name: str
    fmt: str
    workers: int
    start: int
    stop: int = 0
    spread: int = 0
    primes: int = 0

    def bounds(self, seed: int) -> tuple[int, int, list[int]]:
        """The scan range for this seed, and its primes by an independent count."""
        if not self.spread:
            return self.start, self.stop, gate.expected_primes(self.start, self.stop)
        lo = self.start + random.Random(seed).randrange(self.spread)
        primes = gate.first_primes(lo, self.primes)
        return lo, primes[-1] + 1, primes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_1e6", "csv", 1, start=2, stop=10**6),
        Workload("window_1e9_w2", "jsonl", 2, start=10**9, spread=5 * 10**7, primes=48_000),
        Workload("window_1e16", "csv", 1, start=10**16, spread=5 * 10**13, primes=540),
    )
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "TRIB_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_measured(args: list[str], deadline: float) -> tuple[int, float, float, float, bytes]:
    """Run `python *args` to completion through LAUNCHER, capturing its stdout.

    Returns the exit code, wall seconds, CPU seconds, peak RSS in MB and
    stdout.  The child's whole process group is killed if it is still
    running at `deadline` (time.monotonic); that counts as exit code -9.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as out:
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, sys.executable, *args],
                                stdout=out, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -9, 0.0, 0.0, 0.0, b""
        rc, wall, cpu, rss_kib = json.loads(err.splitlines()[-1])
        out.seek(0)
        return rc, wall, cpu, rss_kib / 1024, out.read()


def pinned_sha(wl: Workload, lo: int, hi: int) -> str | None:
    pin = json.loads(PINNED.read_text()).get(wl.name)
    if pin and (pin["from"], pin["to"], pin["format"]) == (lo, hi, wl.fmt):
        return pin["sha256"]
    return None


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    def git(*args: str) -> str | None:
        # the ceiling keeps git from finding a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "click": version("click"),
        "numpy": version("numpy"),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def time_setup(deadline: float) -> float:
    """Wall seconds to start the interpreter and import the CLI."""
    rc, wall, _, _, _ = run_measured(["-c", SETUP_CODE], deadline)
    if rc != 0:
        raise RuntimeError(f"`python -c {SETUP_CODE!r}` exited with {rc}")
    return wall


def scan_args(wl: Workload, lo: int, hi: int) -> list[str]:
    return ["-m", "trib11", "scan", "--from", str(lo), "--to", str(hi),
            "--format", wl.fmt, "--workers", str(wl.workers)]


def measure(wl: Workload, seed: int, seconds: float, tamper=None) -> dict:
    """Untraced run: time `trib11 scan` invocations for `seconds`, gating each one.

    `tamper`, when given, rewrites each captured stdout before the gate
    sees it; the self-test uses it to prove that bad output is counted.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    lo, hi, primes = wl.bounds(seed)
    pinned = pinned_sha(wl, lo, hi)

    time_setup(deadline)  # warm the page cache and bytecode caches
    setup: list[float] = []
    samples = []
    stop = min(time.monotonic() + seconds, deadline)
    # start another invocation only while the last one's duration says it ends in time
    while not samples or time.monotonic() + samples[-1]["wall_s"] <= stop:
        setup += [time_setup(deadline) for _ in range(SETUP_PER_SCAN)]
        rc, wall, cpu, rss, stdout = run_measured(scan_args(wl, lo, hi), deadline)
        if tamper is not None:
            stdout = tamper(stdout)
        rng = random.Random(seed * 1_000_003 + len(samples))
        problems = gate.check_scan(rc, stdout, lo, hi, wl.fmt, primes, rng, pinned)
        samples.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "problems": problems})

    good = [s for s in samples if not s["problems"]] or samples
    wall = statistics.median(s["wall_s"] for s in good)
    failed = sum(1 for s in samples if s["problems"])
    metrics = {
        "wall_s": wall,
        "primes_per_s": len(primes) / wall,
        "cpu_s": statistics.median(s["cpu_s"] for s in good),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
        "setup_s": statistics.median(setup),
        "pass_ratio": 1 - failed / len(samples),
    }
    return {
        "lo": lo, "hi": hi, "primes": len(primes), "attempted": len(samples), "failed": failed,
        "metrics": metrics,
        "n": {**{name: len(good) for name in metrics}, "setup_s": len(setup), "pass_ratio": len(samples)},
        "problems": [p for s in samples for p in s["problems"]],
        "samples": {"scan": samples, "setup_s": setup},
    }


def measure_traced(wl: Workload, seed: int) -> dict:
    """Traced run: per-layer numbers for one in-process, single-process replay."""
    deadline = time.monotonic() + RUN_LIMIT_S
    lo, hi, primes = wl.bounds(seed)
    problems = []

    rc, _, _, rss, out = run_measured(["-c", ENUM_CODE, str(lo), str(hi), str(spans.CHUNK)], deadline)
    enum = json.loads(out) if rc == 0 else {"s": 0.0, "primes": -1}
    if enum["primes"] != len(primes):
        problems.append(f"enumerator exited {rc} with {enum['primes']} primes, want {len(primes)}")

    untraced_s, records = spans.untraced_scan(lo, hi, wl.fmt, 1)
    scan_s = spans.untraced_scan(lo, hi, wl.fmt, wl.workers)[0] if wl.workers > 1 else untraced_s

    tr = spans.Tracer(wl.name)
    chunks, nbytes = spans.traced_scan(tr, lo, hi, wl.fmt)
    layer, own = spans.layer_metrics(tr)
    traced = [rec for part in chunks for rec in part]
    ipc_bytes, ipc_s = spans.ipc_cost(chunks)
    tr.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.tsv")

    if traced != records:
        problems.append("traced records differ from verifier.scan")
    rng = random.Random(seed * 1_000_003)
    problems += gate.check_records([gate.as_record(r) for r in traced], lo, hi, primes, rng)
    overhead = sum(own.values()) - untraced_s
    if min(own.values()) < 0:
        problems.append("a span's children overlap it")

    values = {
        "modmath.primes_in_range.s": enum["s"],
        "modmath.primes_in_range.primes": enum["primes"],
        "modmath.primes_in_range.rss_mb": rss,
        **layer,
        "verifier.ipc.bytes": ipc_bytes,
        "verifier.ipc.pickle_s": ipc_s,
        "verifier.scan.parallel_eff": untraced_s / (wl.workers * scan_s),
        "cli.record_lines.bytes": nbytes,
        "trace.overhead_s": overhead,
    }
    return {
        "lo": lo, "hi": hi, "primes": len(primes), "attempted": 1, "failed": int(bool(problems)),
        "metrics": values,
        "n": {name: 1 for name in values},
        "problems": problems,
        "samples": {"untraced_s": untraced_s, "scan_s": scan_s,
                    "self_s": own, "spans": len(tr)},
    }


def report(wl: Workload, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """One run of one workload, with its metrics named and unitised as BENCHMARK.json lists them."""
    listed = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    run = measure_traced(wl, seed) if trace else measure(wl, seed, seconds)
    missing = [m["name"] for m in listed if m["name"] not in run["metrics"]]
    if missing:
        raise RuntimeError(f"BENCHMARK.json lists metrics this run does not produce: {missing}")
    run["metrics"] = {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    return {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": env, **run}


def print_table(run: dict) -> None:
    out = sys.stderr
    print(f"{run['workload']} seed={run['seed']} trace={run['trace']} range=[{run['lo']}, {run['hi']}) "
          f"primes={run['primes']} attempted={run['attempted']} failed={run['failed']} "
          f"fail_ratio={run['failed'] / run['attempted']:.3f}", file=out)
    for name, m in run["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']:<6} (n={run['n'][name]})", file=out)
    if run["trace"]:
        untraced = run["samples"]["untraced_s"]
        own = run["samples"]["self_s"]
        print(f"  self time per span (sum {sum(own.values()):.4f} s; untraced scan {untraced:.4f} s):",
              file=out)
        for name, sec in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<34} {sec:>12.4f} s", file=out)
    for problem in run["problems"][:10]:
        print(f"  FAIL {problem}", file=out)


def save(run: dict, path: Path | None) -> None:
    (OUT_DIR / f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json").write_text(
        json.dumps(run, indent=1) + "\n")
    if path is not None:
        doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
        doc["runs"].append(run)
        path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="append the results to this JSON file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run = report(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
        save(run, args.out)
        print_table(run)
        print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": run["metrics"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
