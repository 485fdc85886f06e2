"""Command-line surface: verify, analyze, demo, and search.

Exit codes: 0 aont (or success), 1 weak-aont-only, 2 neither, 3 data or
validation error, 4 usage error. Progress goes to stderr, results to stdout.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, TypeVar

import click

from .arrays import AONT, NEITHER, WEAK_AONT_ONLY, AontArray, classify, load_array_csv
from .bounds import ALL_TAGS, DEFAULT_TOLERANCE, check_tolerance
from .constructions import BUILTIN_NAMES, DEFAULT_SEARCH_CAP, builtin, search_linear
from .demos import DEMO_NUMBERS, format_demo, run_demo
from .entropy import SubsetPair
from .errors import AontLabError
from .models import load_model_json
from .report import (
    AUTO,
    build_report,
    report_to_csv,
    report_to_json_dict,
    report_to_table,
)

# keep flag misuse distinguishable from the "neither" verdict (exit code 2)
click.exceptions.UsageError.exit_code = 4

_VERDICT_EXIT = {AONT: 0, WEAK_AONT_ONLY: 1, NEITHER: 2}

T = TypeVar("T")


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """click.echo to the current sys.stdout or sys.stderr.

    Without an explicit file, click caches a wrapper per stream in a
    WeakKeyDictionary whose value is the stream itself, so every redirected
    stream (an in-process caller's io.StringIO) would stay alive forever.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _read(ctx: click.Context, load: Callable[[str], T], path: str) -> T:
    """load(path), with a file that cannot be read as bad data (exit 3)."""
    try:
        return load(path)
    except OSError as exc:
        _echo(f"error: cannot read {path}: {exc.strerror or exc}", err=True)
        ctx.exit(3)


def _load_array(ctx: click.Context, array_path: str | None, builtin_name: str | None) -> tuple[AontArray, str]:
    if (array_path is None) == (builtin_name is None):
        raise click.UsageError("supply exactly one of --array FILE or --builtin NAME")
    if builtin_name is not None:
        return builtin(builtin_name), builtin_name
    return _read(ctx, load_array_csv, array_path), array_path


def _parse_pair_spec(spec: str, s: int, t_i: int, t_o: int) -> SubsetPair:
    """Parse 'X cols:Y cols'; the pair must have |X| = t_i and |Y| = s - t_o."""
    try:
        x_part, y_part = spec.split(":", 1)
        x = {int(c) for c in x_part.split(",") if c}
        y = {int(c) for c in y_part.split(",") if c}
    except ValueError:
        raise click.UsageError(f"bad --pair spec {spec!r}; expected e.g. '1:4' or '1,2:5'") from None
    # an empty X is never a pair, whatever t_i is
    if not x or len(x) != t_i or len(y) != s - t_o:
        raise click.UsageError(
            f"--pair {spec!r} has |X|={len(x)}, |Y|={len(y)}; "
            f"expected |X| = t_i = {t_i} and |Y| = s - t_o = {s - t_o}"
        )
    return SubsetPair(tuple(x), tuple(y))


def _checked_tolerance(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """`bounds.check_tolerance`'s verdict, as a usage error (exit 4)."""
    try:
        check_tolerance(value)
    except AontLabError as exc:
        raise click.BadParameter(str(exc)) from None
    return value


_tolerance_option = click.option(
    "--tolerance", type=float, default=DEFAULT_TOLERANCE, show_default=True, callback=_checked_tolerance,
    help="a finite number >= 0",
)


class _Cli(click.Group):
    """Reports an AontLabError, or running out of memory, from any command as
    bad data: `error: ...` on stderr and exit code 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (AontLabError, MemoryError) as exc:
            _echo(f"error: {str(exc) or 'out of memory'}", err=True)
            ctx.exit(3)


@click.group(cls=_Cli)
@click.version_option()
def cli() -> None:
    """Verify transform arrays and analyze their conditional entropies."""


@cli.command()
@click.option("--array", "array_path", type=click.Path(), help="CSV array file")
@click.option("--builtin", "builtin_name", type=click.Choice(BUILTIN_NAMES), help="built-in array")
@click.option("--ti", required=True, type=int, help="protected input count t_i")
@click.option("--to", required=True, type=int, help="missing output count t_o")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def verify(ctx, array_path, builtin_name, ti, to, fmt) -> None:
    """Classify an array as aont, weak-aont-only, or neither."""
    array, label = _load_array(ctx, array_path, builtin_name)
    verdict = classify(array, ti, to)
    if fmt == "json":
        _echo(
            json.dumps(
                {
                    "array": label,
                    "t_i": ti,
                    "t_o": to,
                    "verdict": verdict.verdict,
                    "witness": list(verdict.witness) if verdict.witness else None,
                }
            )
        )
    else:
        line = f"{label}: {verdict.verdict} (t_i={ti}, t_o={to})"
        if verdict.witness:
            line += f", first failing columns {verdict.witness}"
        _echo(line)
    ctx.exit(_VERDICT_EXIT[verdict.verdict])


@cli.command()
@click.option("--array", "array_path", type=click.Path(), help="CSV array file")
@click.option("--builtin", "builtin_name", type=click.Choice(BUILTIN_NAMES), help="built-in array")
@click.option("--model", "model_path", required=True, type=click.Path(), help="JSON model file")
@click.option("--ti", required=True, type=int)
@click.option("--to", required=True, type=int)
@click.option(
    "--bounds",
    default=AUTO,
    show_default=True,
    help=f"bound family tag or 'auto' ({', '.join(ALL_TAGS)})",
)
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]), default="table")
@_tolerance_option
@click.option(
    "--pair",
    "pair_specs",
    multiple=True,
    help="restrict to given pairs, e.g. --pair 1:4 --pair 2:4 (X cols : Y cols)",
)
@click.pass_context
def analyze(ctx, array_path, builtin_name, model_path, ti, to, bounds, fmt, tolerance, pair_specs) -> None:
    """Full per-pair entropy and bound report for an array under a model."""
    array, label = _load_array(ctx, array_path, builtin_name)
    model = _read(ctx, load_model_json, model_path)
    pairs = [_parse_pair_spec(spec, array.s, ti, to) for spec in pair_specs] or None
    report = build_report(
        array,
        model,
        ti,
        to,
        bounds_tag=bounds,
        tolerance=tolerance,
        array_label=label,
        model_label=model_path,
        pairs=pairs,
    )
    if fmt == "json":
        _echo(json.dumps(report_to_json_dict(report), indent=2))
    elif fmt == "csv":
        _echo(report_to_csv(report), nl=False)
    else:
        _echo(report_to_table(report), nl=False)


@cli.command()
@click.argument("number", type=int)
@_tolerance_option
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def demo(ctx, number, tolerance, fmt) -> None:
    """Reproduce one of the reference scenarios (1-4) and check every value."""
    if number not in DEMO_NUMBERS:
        raise click.UsageError(f"demo must be one of {DEMO_NUMBERS}")
    report, checks, passed = run_demo(number, tolerance)
    if fmt == "json":
        doc = report_to_json_dict(report)
        doc["checks"] = [
            {"label": c.label, "expected": c.expected, "computed": c.computed, "ok": c.ok}
            for c in checks
        ]
        doc["passed"] = passed
        _echo(json.dumps(doc, indent=2))
    else:
        _echo(format_demo(number, checks, passed, tolerance), nl=False)
    ctx.exit(0 if passed else 1)


@cli.command()
@click.option("--s", "s", required=True, type=int, help="input block length")
@click.option("--v", "v", required=True, type=int, help="alphabet size (prime)")
@click.option("--ti", required=True, type=int)
@click.option("--to", required=True, type=int)
@click.option("--cap", type=int, default=DEFAULT_SEARCH_CAP, show_default=True,
              help="max candidate matrices (v^(s*s))")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def search(s, v, ti, to, cap, fmt) -> None:
    """Exhaustively search invertible matrices for full (t_i, t_o) transforms."""

    def progress(done: int, total: int) -> None:
        _echo(f"examined {done}/{total} invertible matrices", err=True)

    result = search_linear(s, v, ti, to, cap=cap, progress=progress)
    if fmt == "json":
        _echo(json.dumps(result.to_json_dict()))
    else:
        # each distinct row rendered once; joined as json.dumps(m.to_json()) prints it
        rendered = {row: json.dumps(list(row)) for row in {row for m in result.found for row in m.entries}}
        lines = [f"{result.examined} examined, {len(result.found)} found"]
        lines.extend("[" + ", ".join([rendered[row] for row in m.entries]) + "]" for m in result.found)
        _echo("\n".join(lines))


def main(argv: list[str] | None = None) -> None:
    cli.main(args=argv, prog_name="aontlab")


if __name__ == "__main__":
    main()
