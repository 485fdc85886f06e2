"""Command-line surface: verify, analyze, demo, and search.

Exit codes: 0 aont (or success), 1 weak-aont-only, 2 neither, 3 data or
validation error, 4 usage error. Progress goes to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Callable, NoReturn, TypeVar

from . import __version__
from .arrays import AONT, NEITHER, WEAK_AONT_ONLY, AontArray, classify, load_array_csv
from .bounds import ALL_TAGS, DEFAULT_TOLERANCE, check_tag, check_tolerance
from .coding import decode_index, integer
from .constructions import BUILTIN_NAMES, DEFAULT_SEARCH_CAP, builtin, search_linear
from .demos import DEMO_NUMBERS, format_demo, run_demo
from .entropy import SubsetPair, check_pair
from .errors import AontLabError
from .models import load_model_json
from .report import (
    AUTO,
    build_report,
    report_to_csv,
    report_to_json_dict,
    report_to_table,
)

_VERDICT_EXIT = {AONT: 0, WEAK_AONT_ONLY: 1, NEITHER: 2}
# `search` writes its output this many found matrices at a time, so no copy of
# a long listing's whole output is held; each search of perfbench's workload is one write
_MATRICES_PER_WRITE = 1 << 13

T = TypeVar("T")


class _Parser(argparse.ArgumentParser):
    """Exits 4 on bad usage: argparse's own code 2 is the "neither" verdict."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """Write message and its newline to the current stdout or stderr in one write, then flush."""
    stream = sys.stderr if err else sys.stdout
    stream.write(message + "\n" if nl else message)
    stream.flush()


def _read(load: Callable[[str], T], path: str) -> T:
    """load(path), with a file that cannot be read as bad data (exit 3)."""
    try:
        return load(path)
    except OSError as exc:
        _echo(f"error: cannot read {path}: {exc.strerror or exc}", err=True)
        sys.exit(3)


def _load_array(args: argparse.Namespace) -> tuple[AontArray, str]:
    if (args.array is None) == (args.builtin is None):
        raise argparse.ArgumentError(None, "supply exactly one of --array FILE or --builtin NAME")
    if args.builtin is not None:
        return builtin(args.builtin), args.builtin
    return _read(load_array_csv, args.array), args.array


def _parse_pair_spec(spec: str, s: int, t_i: int, t_o: int) -> SubsetPair:
    """Parse 'X cols:Y cols'; the pair must have |X| = t_i and |Y| = s - t_o,
    and lie where `entropy.check_pair` allows; any other is a usage error (exit 4)."""
    try:
        x_part, y_part = spec.split(":", 1)
        x = {integer(c) for c in x_part.split(",") if c}
        y = {integer(c) for c in y_part.split(",") if c}
    except ValueError:
        raise argparse.ArgumentError(None, f"bad --pair spec {spec!r}; expected e.g. '1:4' or '1,2:5'") from None
    # an empty X is never a pair, whatever t_i is
    if not x or len(x) != t_i or len(y) != s - t_o:
        raise argparse.ArgumentError(
            None,
            f"--pair {spec!r} has |X|={len(x)}, |Y|={len(y)}; "
            f"expected |X| = t_i = {t_i} and |Y| = s - t_o = {s - t_o}",
        )
    pair = SubsetPair(tuple(x), tuple(y))
    try:
        check_pair(s, pair)
    except AontLabError as exc:
        raise argparse.ArgumentError(None, str(exc)) from None
    return pair


def _tolerance(text: str) -> float:
    """A --tolerance that `bounds.check_tolerance` accepts; any other is a usage error (exit 4)."""
    try:
        return check_tolerance(float(text))
    except (ValueError, AontLabError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bound_tag(text: str) -> str:
    """'auto', or a --bounds tag that `bounds.check_tag` accepts; any other is a usage error (exit 4)."""
    try:
        return text if text == AUTO else check_tag(text)
    except AontLabError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def verify(args: argparse.Namespace) -> int:
    """Classify an array as aont, weak-aont-only, or neither."""
    array, label = _load_array(args)
    verdict = classify(array, args.ti, args.to)
    if args.format == "json":
        doc = {"array": label, "t_i": args.ti, "t_o": args.to, "verdict": verdict.verdict,
               "witness": list(verdict.witness) if verdict.witness else None}
        _echo(json.dumps(doc))
    else:
        line = f"{label}: {verdict.verdict} (t_i={args.ti}, t_o={args.to})"
        if verdict.witness:
            line += f", first failing columns {verdict.witness}"
        _echo(line)
    return _VERDICT_EXIT[verdict.verdict]


def analyze(args: argparse.Namespace) -> int:
    """Full per-pair entropy and bound report for an array under a model."""
    array, label = _load_array(args)
    model = _read(load_model_json, args.model)
    pairs = [_parse_pair_spec(spec, array.s, args.ti, args.to) for spec in args.pair] or None
    report = build_report(
        array,
        model,
        args.ti,
        args.to,
        bounds_tag=args.bounds,
        tolerance=args.tolerance,
        array_label=label,
        model_label=args.model,
        pairs=pairs,
    )
    if args.format == "json":
        _echo(json.dumps(report_to_json_dict(report), indent=2))
    elif args.format == "csv":
        _echo(report_to_csv(report), nl=False)
    else:
        _echo(report_to_table(report), nl=False)
    return 0


def demo(args: argparse.Namespace) -> int:
    """Reproduce one of the reference scenarios (1-4) and check every value."""
    if args.number not in DEMO_NUMBERS:
        raise argparse.ArgumentError(None, f"demo must be one of {DEMO_NUMBERS}")
    report, checks, passed = run_demo(args.number, args.tolerance)
    if args.format == "json":
        doc = report_to_json_dict(report)
        doc["checks"] = [
            {"label": c.label, "expected": c.expected, "computed": c.computed, "ok": c.ok}
            for c in checks
        ]
        doc["passed"] = passed
        _echo(json.dumps(doc, indent=2))
    else:
        _echo(format_demo(args.number, checks, args.tolerance), nl=False)
    return 0 if passed else 1


def search(args: argparse.Namespace) -> int:
    """Exhaustively search invertible matrices for full (t_i, t_o) transforms."""

    def progress(done: int, total: int) -> None:
        _echo(f"examined {done}/{total} invertible matrices", err=True)

    result = search_linear(args.s, args.v, args.ti, args.to, cap=args.cap, progress=progress)
    found = result.found_count
    if args.format == "json":
        # the document without its matrices, cut where they go: with them, json.dumps(result.to_json_dict())
        document = json.dumps(result._document([]))
        cut = document.index("[]") + 1
        lead, sep, tail = document[:cut], ", ", document[cut:]
    else:
        lead, sep, tail = f"{result.examined} examined, {found} found" + ("\n" if found else ""), "\n", ""
    if not found:
        _echo(lead + tail)
        return 0
    # each row code rendered once, as json.dumps(m.to_json()) prints m's rows; a
    # group is then one join, its prefix's rows written before each last row
    rows = [json.dumps(list(decode_index(code, result.v, result.s))) for code in range(result.v**result.s)]
    room, strings = _MATRICES_PER_WRITE, []
    for prefix, lasts in result.groups:
        pre = "[" + ", ".join([*map(rows.__getitem__, prefix), ""])
        glue = "]" + sep + pre
        while lasts:  # a write ends inside the group where `room` runs out
            part, lasts = lasts[:room], lasts[room:]
            strings.append(pre + glue.join(map(rows.__getitem__, part)) + "]")
            room, found = room - len(part), found - len(part)
            if not room or not found:
                # what comes before a write, and after the last, joins its first and last string
                strings[0] = lead + strings[0]
                if not found:
                    strings[-1] += tail + "\n"
                sys.stdout.write(sep.join(strings))
                lead, room, strings = sep, _MATRICES_PER_WRITE, []
    sys.stdout.flush()
    return 0


@cache
def _parser() -> _Parser:
    """Built on first use, not at import: building the parser costs more than a parse."""
    parser = _Parser(prog="aontlab", description="Verify transform arrays and analyze their conditional entropies.",
                     allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    # a named slot, or older argparse fails on a command line with no command
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run: Callable[[argparse.Namespace], int], formats: tuple[str, ...],
                *parents: argparse.ArgumentParser) -> _Parser:
        sub = commands.add_parser(run.__name__, parents=parents, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        sub.add_argument("--format", choices=formats, default=formats[0])
        return sub

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--array", metavar="FILE", help="CSV array file")
    source.add_argument("--builtin", choices=BUILTIN_NAMES, help="built-in array")
    t_pair = argparse.ArgumentParser(add_help=False)
    t_pair.add_argument("--ti", required=True, type=integer, help="protected input count t_i")
    t_pair.add_argument("--to", required=True, type=integer, help="missing output count t_o")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE,
                           help="a finite number >= 0, the slack of each float comparison; "
                                "perfect security is decided exactly (default: %(default)s)")

    command(verify, ("text", "json"), source, t_pair)

    sub = command(analyze, ("table", "json", "csv"), source, t_pair, tolerance)
    sub.add_argument("--model", required=True, metavar="FILE", help="JSON model file")
    sub.add_argument("--bounds", type=_bound_tag, default=AUTO,
                     help=f"bound family tag or 'auto' ({', '.join(ALL_TAGS)}) (default: %(default)s)")
    sub.add_argument("--pair", action="append", default=[],
                     help="restrict to given pairs, e.g. --pair 1:4 --pair 2:4 (X cols : Y cols)")

    sub = command(demo, ("text", "json"), tolerance)
    sub.add_argument("number", type=integer, metavar="NUMBER")

    sub = command(search, ("text", "json"), t_pair)
    sub.add_argument("--s", required=True, type=integer, help="input block length")
    sub.add_argument("--v", required=True, type=integer, help="alphabet size (prime)")
    sub.add_argument("--cap", type=integer, default=DEFAULT_SEARCH_CAP,
                     help="max candidate matrices (v^(s*s)) (default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Run one command line; always ends in SystemExit with its exit code."""
    try:
        args = _parser().parse_args(argv)
        sys.exit(args.run(args))
    except argparse.ArgumentError as exc:
        args.parser.error(str(exc))
    except (AontLabError, MemoryError) as exc:
        _echo(f"error: {str(exc) or 'out of memory'}", err=True)
        sys.exit(3)
    except BrokenPipeError:  # the reader closed stdout or stderr, as under `| head -1`
        # exit flushes both streams again, and a broken one would fail with what it still holds
        for stream in sys.__stdout__, sys.__stderr__:
            try:
                stream.flush()
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
