"""In-process traced replay of `trib11 scan`, with spans around each layer call.

The replay follows `verifier.scan` chunk by chunk and prime by prime, but
calls the layers' public functions itself (`primes_in_range`, `trib_mod`,
`represent`, `splitting_type`, `record_lines`) so that a span can wrap
each call without touching the package.  Spans stay in memory and are
written out once, after the scan.  A span's self time is its duration
minus the durations of its children; the replay is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import pickle
import statistics
import time
from array import array
from collections import defaultdict

from trib11 import cli, verifier
from trib11.gfext import splitting_type
from trib11.modmath import ModPrime, primes_in_range
from trib11.quadform import represent
from trib11.tribonacci import trib_mod

#: chunk width of `verifier.scan`, which fixes it so output never depends on workers
CHUNK = 1 << 15

#: metric suffix for each Frobenius class a splitting_type span is tagged with
_CLASS_KEY = {"Identity": "identity", "Transposition": "transposition", "ThreeCycle": "three_cycle"}

_now = time.perf_counter_ns


class Tracer:
    """Spans in flat columns, so that recording them allocates no objects the GC tracks.

    Span i has name names[i], times starts[i]..ends[i] (perf_counter_ns),
    parent span parents[i] (-1 for a root) and an optional tag tags[i].
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self.tags: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._open = [-1]

    def _add(self, name: str, start: int, end: int, parent: int) -> None:
        self.names.append(name)
        self.tags.append("")
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)

    def begin(self, name: str) -> None:
        parent = self._open[-1]
        self._open.append(len(self.names))
        self._add(name, _now(), 0, parent)

    def end(self) -> None:
        self.ends[self._open.pop()] = _now()

    def call(self, name: str, fn, *args):
        """fn(*args) inside a leaf span."""
        t0 = _now()
        result = fn(*args)
        self._add(name, t0, _now(), self._open[-1])
        return result

    def tag(self, value: str) -> None:
        """Attach a tag to the most recent span."""
        self.tags[-1] = value

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> list[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_ns(self) -> list[int]:
        dur = self.durations()
        own = list(dur)
        for d, parent in zip(dur, self.parents):
            if parent >= 0:
                own[parent] -= d
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\ttag\tworkload\n")
            rows = zip(self.parents, self.names, self.starts, self.ends, self.tags)
            for i, (parent, name, start, end, tag) in enumerate(rows):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{tag}\t{self.workload}\n")


def _primes(lo: int, hi: int) -> list[int]:
    return list(primes_in_range(lo, hi))


def _verdict(tr: Tracer, p: int) -> verifier.VerdictRecord:
    # the body of verifier.verdict for a prime the sieve already certified
    tr.begin("verifier.verdict")
    residue = tr.call("tribonacci.trib_mod", trib_mod, p - 1, p)
    mp = ModPrime(p)
    rep = tr.call("quadform.represent", represent, mp)
    if rep.exists:
        tr.tag("hit")
    st = tr.call("gfext.splitting_type", splitting_type, mp)
    tr.tag(st.frobenius_class.value)
    divisible = residue == 0
    consistent = divisible == rep.exists
    rec = verifier.VerdictRecord(
        p=p,
        trib_residue=residue,
        divisible=divisible,
        representable=rep.exists,
        rep_x=rep.x,
        rep_y=rep.y,
        splitting=st.shape,
        frobenius=st.frobenius_class,
        consistent=consistent,
        exceptional=not consistent,
    )
    tr.end()
    return rec


def render_bytes(records, fmt: str) -> int:
    """Render every record as `trib11 scan` would; return the bytes written."""
    return sum(len(line) + 1 for line in cli.record_lines(records, fmt))


def untraced_scan(lo: int, hi: int, fmt: str, workers: int) -> tuple[float, list]:
    """Seconds for `verifier.scan` plus rendering, with no spans; and the records."""
    t0 = time.perf_counter()
    report = verifier.scan(lo, hi, workers=workers)
    render_bytes(report.records, fmt)
    return time.perf_counter() - t0, report.records


def traced_scan(tr: Tracer, lo: int, hi: int, fmt: str) -> tuple[list[list], int]:
    """Single-process scan of [lo, hi) under spans; the records per chunk and rendered bytes."""
    tr.begin("verifier.scan")
    chunks = []
    for c in range(lo, hi, CHUNK):
        tr.begin("verifier.chunk")
        primes = tr.call("modmath.primes_in_range", _primes, c, min(c + CHUNK, hi))
        chunks.append([_verdict(tr, p) for p in primes])
        tr.end()
    records = [rec for part in chunks for rec in part]
    tr.begin("cli.record_lines")
    nbytes = render_bytes(records, fmt)
    tr.end()
    tr.end()
    return chunks, nbytes


def ipc_cost(chunks: list[list]) -> tuple[int, float]:
    """Bytes and seconds to pickle and unpickle each chunk's records, as a worker pool would."""
    nbytes, t = 0, 0.0
    for recs in chunks:
        t0 = time.perf_counter()
        blob = pickle.dumps(recs)
        pickle.loads(blob)
        t += time.perf_counter() - t0
        nbytes += len(blob)
    return nbytes, t


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer sums and counts derived from the spans, and the self seconds per span name."""
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    by_tag: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
    chunk_ns = []
    for name, tag, dur, self_ns in zip(tr.names, tr.tags, tr.durations(), tr.self_ns()):
        total[name] += dur
        own[name] += self_ns
        calls[name] += 1
        if tag:
            by_tag[name, tag][0] += 1
            by_tag[name, tag][1] += dur
        if name == "verifier.chunk":
            chunk_ns.append(dur)
    s = 1e-9
    split_ns = by_tag["gfext.splitting_type", "Identity"][1]
    hits, reps = by_tag["quadform.represent", "hit"][0], calls["quadform.represent"]
    m = {
        "tribonacci.trib_mod.s": total["tribonacci.trib_mod"] * s,
        "tribonacci.trib_mod.calls": calls["tribonacci.trib_mod"],
        "gfext.splitting_type.s": total["gfext.splitting_type"] * s,
        "gfext.splitting_type.calls": calls["gfext.splitting_type"],
        "gfext.splitting_type.split_s": split_ns * s,
        "gfext.splitting_type.nonsplit_s": (total["gfext.splitting_type"] - split_ns) * s,
        **{
            f"gfext.splitting_type.{key}": by_tag["gfext.splitting_type", cls][0]
            for cls, key in _CLASS_KEY.items()
        },
        "quadform.represent.s": total["quadform.represent"] * s,
        "quadform.represent.calls": reps,
        "quadform.represent.hits": hits,
        "quadform.represent.hit_ratio": hits / reps if reps else 0.0,
        "verifier.verdict.s": total["verifier.verdict"] * s,
        "verifier.verdict.self_s": own["verifier.verdict"] * s,
        "verifier.scan.chunks": calls["verifier.chunk"],
        "verifier.chunk_s.p50": statistics.median(chunk_ns) * s if chunk_ns else 0.0,
        "verifier.chunk_s.max": max(chunk_ns, default=0) * s,
        "cli.record_lines.s": total["cli.record_lines"] * s,
    }
    return m, {name: v * s for name, v in own.items()}
