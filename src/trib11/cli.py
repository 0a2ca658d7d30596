"""Command-line front end.

Subcommands: verdict, scan, represent, trib, splitting.  Exit codes are
part of the contract: 0 for a consistent result, 2 when something
mathematically noteworthy turned up (an exceptional prime, a failed
range), 1 for usage or I/O errors.  Every argument the library refuses
and every I/O error is one `error: ...` line on stderr; only click's own
parse errors print a usage block.  A reader that closes stdout early
(`trib11 scan ... | head`) stops the command silently, with exit 1, as
its output was not all written.  Output for fixed arguments is
byte-identical across runs and worker counts.

Set TRIB_LOG to quiet, info or debug to control diagnostics on stderr.
"""

from __future__ import annotations

import logging
import os
import sys
from contextlib import nullcontext
from typing import Iterable

import click

from . import verifier
from .quadform import represent as qf_represent
from .tribonacci import EXACT_INDEX_LIMIT, IndexOutOfRange, trib_exact, trib_mod
from .gfext import splitting_type
from .verifier import ScanReport, VerdictRecord

#: fixed CSV column order; this is a stable schema
CSV_COLUMNS = (
    "p",
    "trib_residue",
    "divisible",
    "representable",
    "rep_x",
    "rep_y",
    "splitting",
    "frobenius",
    "consistent",
    "exceptional",
)

_TABLE_WIDTHS = (9, 10, 9, 13, 6, 6, 31, 13, 10, 11)

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _row(rec: VerdictRecord) -> tuple[str, ...]:
    p, residue, div, rep, x, y, shape, cls, cons, exc = rec
    return (
        str(p),
        str(residue),
        "true" if div else "false",
        "true" if rep else "false",
        "" if x is None else str(x),
        "" if y is None else str(y),
        shape.value,
        cls.value,
        "true" if cons else "false",
        "true" if exc else "false",
    )


def _jsonl_obj(rec: VerdictRecord) -> str:
    # the JSON object json.dumps writes for these keys, in this order
    p, residue, div, rep, x, y, shape, cls, cons, exc = rec
    return (
        f'{{"p": {p}, "trib_residue": {residue}, '
        f'"divisible": {"true" if div else "false"}, '
        f'"representable": {"true" if rep else "false"}, '
        f'"rep_x": {"null" if x is None else x}, "rep_y": {"null" if y is None else y}, '
        f'"splitting": "{shape.value}", "frobenius": "{cls.value}", '
        f'"consistent": {"true" if cons else "false"}, '
        f'"exceptional": {"true" if exc else "false"}}}'
    )


def record_lines(records: Iterable[VerdictRecord], fmt: str) -> Iterable[str]:
    """Render records in the given format, one line at a time (no newlines)."""
    if fmt == "csv":
        yield ",".join(CSV_COLUMNS)
        for rec in records:
            yield ",".join(_row(rec))
    elif fmt == "jsonl":
        for rec in records:
            yield _jsonl_obj(rec)
    elif fmt == "table":
        yield "  ".join(c.ljust(w) for c, w in zip(CSV_COLUMNS, _TABLE_WIDTHS)).rstrip()
        for rec in records:
            yield "  ".join(c.ljust(w) for c, w in zip(_row(rec), _TABLE_WIDTHS)).rstrip()
    else:
        raise ValueError(f"unknown format {fmt!r}")


def summary_line(report: ScanReport) -> str:
    return f"violations: {report.violations}"


@click.group()
def cli() -> None:
    """Check, prime by prime, whether p | T_{p-1} matches p = x^2 + 11y^2."""


@cli.command("verdict")
@click.argument("p", type=int)
def cmd_verdict(p: int) -> int:
    """Full per-prime record for P; exit 2 if P is one of the exceptions."""
    rec = verifier.verdict(p)
    for name, value in zip(CSV_COLUMNS, _row(rec)):
        click.echo(f"{name}: {value if value != '' else '-'}")
    return 2 if rec.exceptional else 0


@cli.command("scan")
@click.option("--from", "start", type=int, default=2, show_default=True, help="Range start.")
@click.option("--to", "stop", type=int, required=True, help="Range end (exclusive).")
@click.option("--workers", type=int, default=1, show_default=True, help="Parallel workers.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "csv", "jsonl"]),
    default="table",
    show_default=True,
    help="Record output format.",
)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write records to this file instead of stdout.")
def cmd_scan(start: int, stop: int, workers: int, fmt: str, out: str | None) -> int:
    """Scan all primes in [FROM, TO) and report equivalence violations."""
    report = ScanReport(start, stop)
    records = report.tally(verifier.verdicts(start, stop, workers))
    with open(out, "w", encoding="utf-8") if out is not None else nullcontext(sys.stdout) as fh:
        fh.writelines(f"{line}\n" for line in record_lines(records, fmt))
    click.echo(summary_line(report))
    return 0 if report.status == "OK" else 2


@cli.command("represent")
@click.argument("p", type=int)
def cmd_represent(p: int) -> int:
    """Print x y with P = x^2 + 11y^2, or "none"."""
    rep = qf_represent(p)
    click.echo(f"{rep.x} {rep.y}" if rep.exists else "none")
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


@cli.command("trib")
@click.argument("n", type=int)
@click.option("--mod", "m", type=int, default=None, help="Reduce modulo this value.")
def cmd_trib(n: int, m: int | None) -> int:
    """Print T_N exactly, or T_N mod M with --mod."""
    if m is None:
        try:
            value = trib_exact(n)
        except IndexOutOfRange:
            click.echo(
                f"error: exact values stop at index {EXACT_INDEX_LIMIT}; pass --mod",
                err=True,
            )
            return 1
        click.echo(_decimal(value))
        return 0
    click.echo(trib_mod(n, m))
    return 0


@cli.command("splitting")
@click.argument("p", type=int)
def cmd_splitting(p: int) -> int:
    """How x^3 - x^2 - x - 1 factors modulo the prime P."""
    st = splitting_type(p)
    click.echo(f"shape: {st.shape.value}")
    click.echo(f"roots: {' '.join(map(str, st.roots)) if st.roots else '-'}")
    click.echo(f"frobenius: {st.frobenius_class.value}")
    return 0


def _configure_logging() -> None:
    name = os.environ.get("TRIB_LOG", "quiet")
    level = _LOG_LEVELS.get(name)
    if level is None:
        valid = ", ".join(_LOG_LEVELS)
        click.echo(f"warning: unknown TRIB_LOG value {name!r}, expected one of {valid}", err=True)
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, format="%(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising SystemExit."""
    _configure_logging()
    try:
        rc = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:  # includes UsageError
        exc.show()
        return 1
    except SystemExit as exc:
        # A closed stdout: click catches the BrokenPipeError itself, even outside
        # standalone mode, silences the final flush and exits 1.  The reader
        # stopped, so nothing is printed.
        return exc.code
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":
    sys.exit(main())
