"""Command-line front end.

Subcommands: verdict, scan, represent, trib, splitting.  Exit codes are
part of the contract: 0 for a consistent result, 2 when something
mathematically noteworthy turned up (an exceptional prime, a failed
range), 1 for usage or I/O errors.  Every argument the library refuses
and every I/O error is one `error: ...` line on stderr.  A parse error
(no or an unknown command, a missing `--to`, a non-integer argument)
prints argparse's usage block and its error line on stderr and exits 1,
not argparse's 2.  A reader that closes stdout early
(`trib11 scan ... | head`) stops the command silently, with exit 1, as
its output was not all written.  Ctrl-C flushes the lines already
written and ends the command by SIGINT, also silently.  Output for fixed
arguments is byte-identical across runs and worker counts.  The parser
is argparse, so the command needs nothing outside the standard library.

A scan renders each row from five facts: p, the residue T_{p-1} mod p,
the shape, and x and y with p = x^2 + 11y^2 (None when there are none).
One cell rule derives the row's flags from them, and at import each
format renders every kind of row once through it, cut at the numbers.

Set TRIB_LOG to quiet, info or debug to control diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Iterable

from . import verifier
from .quadform import represent as qf_represent
from .gfext import Shape, splitting_type
from .verifier import ScanReport, VerdictRecord

#: the CSV columns, in the record's field order; this is a stable schema
CSV_COLUMNS = VerdictRecord._fields

_TABLE_WIDTHS = (9, 10, 9, 13, 6, 6, 31, 13, 10, 11)

_LOG_LEVELS = ("quiet", "info", "debug")

#: stands in a row's cells for each of its numbers: p, the residue, x and y
_NUMBER = "\0"


def _cells(shape: Shape, divisible: bool, representable: bool) -> tuple[str, ...]:
    # a row's ten cells, with _NUMBER for each number and "" for an absent x and y.
    # The one place the flags follow from the facts: p | T_{p-1} is divisible,
    # p = x^2 + 11y^2 representable, and the row is consistent when both agree
    consistent = divisible == representable
    xy = _NUMBER if representable else ""
    word = {True: "true", False: "false"}
    return (_NUMBER, _NUMBER, word[divisible], word[representable], xy, xy,
            shape.value, shape.frobenius_class.value, word[consistent], word[not consistent])


def _table_line(cells: Iterable[str]) -> str:
    # each cell padded to its column, but a _NUMBER, which the line's format spec pads
    padded = (c if c == _NUMBER else c.ljust(w) for c, w in zip(cells, _TABLE_WIDTHS))
    return "  ".join(padded).rstrip()


def _jsonl_join(cells: Iterable[str]) -> str:
    # the object json.dumps writes for the cells under the CSV columns' keys: the
    # shape and class names quoted, an absent x and y null
    members = (f'"{key}": "{c}"' if key in ("splitting", "frobenius") else f'"{key}": {c or "null"}'
               for key, c in zip(CSV_COLUMNS, cells))
    return f"{{{', '.join(members)}}}"


def _builder(join, specs: tuple[str, ...] = ("", "", "", "")):
    # the line function of the format whose rows join renders.  Each row kind is
    # rendered once and cut at its numbers, which the line puts back formatted by
    # specs (those of p, the residue, x and y); the kinds are looked up by x
    # present, then shape, then a zero residue, with no tuple built per row
    def cuts(representable: bool) -> dict:
        return {shape: tuple(tuple(join(_cells(shape, divisible, representable)).split(_NUMBER))
                             for divisible in (False, True)) for shape in Shape}

    absent, present = cuts(False), cuts(True)
    p_spec, residue_spec, x_spec, y_spec = specs

    def line(p: int, residue: int, shape: Shape, x: int | None, y: int | None) -> str:
        if x is None:
            a, b, c = absent[shape][residue == 0]
            return f"{a}{p:{p_spec}}{b}{residue:{residue_spec}}{c}"
        a, b, c, d, e = present[shape][residue == 0]
        return f"{a}{p:{p_spec}}{b}{residue:{residue_spec}}{c}{x:{x_spec}}{d}{y:{y_spec}}{e}"

    return line


_csv_line = _builder(",".join)
_jsonl_obj = _builder(_jsonl_join)
_table_row = _builder(_table_line, tuple(f"<{_TABLE_WIDTHS[i]}" for i in (0, 1, 4, 5)))

#: each --format: its header line (None for none) and the function that renders a
#: record from its five facts
_FORMATS = {
    "table": (_table_line(CSV_COLUMNS), _table_row),
    "csv": (",".join(CSV_COLUMNS), _csv_line),
    "jsonl": (None, _jsonl_obj),
}


def _format(fmt: str):
    # the (header, line function) of fmt; ValueError for an unknown one
    try:
        return _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None


def _facts(rec: VerdictRecord) -> tuple[int, int, Shape, int | None, int | None]:
    # the five facts a line is rendered from; the record's flags follow from them
    return rec.p, rec.trib_residue, rec.splitting, rec.rep_x, rec.rep_y


def _row(rec: VerdictRecord) -> tuple[str, ...]:
    # the CSV cells; none can hold a comma (ints, true/false, empty, enum names)
    return tuple(_csv_line(*_facts(rec)).split(","))


def record_lines(records: Iterable[VerdictRecord], fmt: str) -> Iterable[str]:
    """Render records in the given format, one line at a time (no newlines)."""
    header, line = _format(fmt)
    if header is not None:
        yield header
    for rec in records:
        yield line(*_facts(rec))


def summary_line(report: ScanReport) -> str:
    return f"violations: {report.violations}"


def cmd_verdict(p: int) -> int:
    """Full per-prime record for P; exit 2 if P is one of the exceptions."""
    rec = verifier.verdict(p)
    for name, value in zip(CSV_COLUMNS, _row(rec)):
        print(f"{name}: {value if value != '' else '-'}")
    return 2 if rec.exceptional else 0


def cmd_scan(start: int, stop: int, workers: int, fmt: str, out: str | None) -> int:
    """Scan all primes in [FROM, TO) and report equivalence violations."""
    report = ScanReport(start, stop)
    header, line = _format(fmt)

    def write(lines: list[str]) -> None:
        lines.append("")
        fh.write("\n".join(lines).encode())

    def finish(facts: tuple) -> tuple[tuple, dict, list[int]]:
        # at the chunk's turn, in the process that computed its facts: each
        # block of its lines encoded and written to fh as it fills, then
        # flushed, so that no rows cross a pipe; only its counts are returned
        class_counts, violations = verifier._finish(line, write, facts)
        fh.flush()
        return (), class_counts, violations

    # the range is checked here, so that a refused scan opens no --out file
    chunks = verifier._map_chunks(finish, start, stop, workers)
    with open(out, "wb") if out is not None else nullcontext(sys.stdout.buffer) as fh:
        if header is not None:
            fh.write(f"{header}\n".encode())
        fh.flush()  # forked workers inherit fh's buffer, which must not repeat the header
        verifier._tally(report, chunks)
    print(summary_line(report))
    return 0 if report.status == "OK" else 2


def cmd_represent(p: int) -> int:
    """Print x y with P = x^2 + 11y^2, or "none"."""
    rep = qf_represent(p)
    print(f"{rep.x} {rep.y}" if rep.exists else "none")
    return 0


def _decimal(value: int) -> str:
    # T_N has about 0.265*N digits, past Python's default cap on int-to-str
    # conversion (4300 digits) from N of about 16,250.  Lift the cap for this
    # one conversion only; Pythons before 3.10.7 have no cap.
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


def cmd_trib(n: int, m: int | None) -> int:
    """Print T_N exactly, or T_N mod M with --mod."""
    from .tribonacci import EXACT_INDEX_LIMIT, IndexOutOfRange, trib_exact, trib_mod

    if m is None:
        try:
            value = trib_exact(n)
        except IndexOutOfRange:
            print(f"error: exact values stop at index {EXACT_INDEX_LIMIT}; pass --mod",
                  file=sys.stderr)
            return 1
        print(_decimal(value))
        return 0
    print(trib_mod(n, m))
    return 0


def cmd_splitting(p: int) -> int:
    """How x^3 - x^2 - x - 1 factors modulo the prime P."""
    st = splitting_type(p)
    print(f"shape: {st.shape.value}")
    print(f"roots: {' '.join(map(str, st.roots)) if st.roots else '-'}")
    print(f"frobenius: {st.frobenius_class.value}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose only help flag is `--help`, on the top level and on every command."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trib11",
        description="Check, prime by prime, whether p | T_{p-1} matches p = x^2 + 11y^2.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, fn):
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        sub.set_defaults(run=fn)
        return sub

    command("verdict", cmd_verdict).add_argument("p", type=int, metavar="P")
    scan = command("scan", cmd_scan)
    scan.add_argument("--from", dest="start", type=int, default=2, metavar="FROM",
                      help="Range start (default: 2).")
    scan.add_argument("--to", dest="stop", type=int, required=True, metavar="TO",
                      help="Range end (exclusive).")
    scan.add_argument("--workers", type=int, default=1, help="Parallel workers (default: 1).")
    scan.add_argument("--format", dest="fmt", choices=tuple(_FORMATS), default="table",
                      help="Record output format (default: table).")
    scan.add_argument("--out", metavar="FILE",
                      help="Write records to this file instead of stdout.")
    command("represent", cmd_represent).add_argument("p", type=int, metavar="P")
    trib = command("trib", cmd_trib)
    trib.add_argument("n", type=int, metavar="N")
    trib.add_argument("--mod", dest="m", type=int, metavar="M", help="Reduce modulo this value.")
    command("splitting", cmd_splitting).add_argument("p", type=int, metavar="P")
    return parser


def _configure_logging() -> None:
    # logging is imported only for info or debug: the library logs nothing louder,
    # and it skips its records while the process has not imported logging
    name = os.environ.get("TRIB_LOG", "quiet")
    if name not in _LOG_LEVELS:
        valid = ", ".join(_LOG_LEVELS)
        print(f"warning: unknown TRIB_LOG value {name!r}, expected one of {valid}",
              file=sys.stderr)
    elif name != "quiet":
        import logging

        logging.basicConfig(level=name.upper(), stream=sys.stderr, format="%(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising SystemExit."""
    _configure_logging()
    try:
        rc = _command(argv)
        # a closed stdout is met here, while it can still become exit 1, and
        # not by the interpreter's final flush, which would print a traceback
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # A closed stdout (`trib11 scan ... | head`): the reader stopped, so
        # nothing is printed, and exit 1 says the output was not all written.
        # Dropping stdout leaves the interpreter's final flush nothing to fail on.
        sys.stdout = None
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C: keep the lines already rendered, then die of SIGINT, as a shell
        # expects of an interrupted command, with no traceback
        try:
            sys.stdout.flush()
        except OSError:
            pass
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        raise  # only where the signal did not end the process


def _command(argv: list[str] | None) -> int:
    # parse argv and run the command it names; its exit code
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        # --help exits 0; a parse error, once its usage block is printed, exits
        # 1 rather than argparse's 2, which this command keeps for findings
        return 1 if exc.code else 0
    run = args.pop("run")
    return run(**args)
