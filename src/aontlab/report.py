"""Analysis reports: per-pair entropies, bound placement, and renderers.

Rows enumerate every (X, Y) with |X| = t_i and |Y| = s - t_o in
lexicographic order. Table output prints entropies at 6 decimals for
eyeballing; JSON and CSV carry full double precision so re-parsing is
numerically lossless.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter
from typing import Callable, Sequence

from . import bounds as bnd
from .arrays import AontArray, ClassificationVerdict, check_t_range, classify, column_set_family
from .bounds import conditional_entropy_formula  # unused here; perfbench/tracing.py wraps this name
from .coding import integer
from .entropy import SubsetPair, pair_joint, prior_weights
from .entropy import (  # unused here; perfbench/tracing.py wraps these names
    conditional_entropy,
    statistical_distance,
    subset_entropy,
)
from .errors import InvalidParametersError
from .models import INDEPENDENT, InputModel

AUTO = "auto"


@dataclass(frozen=True)
class ReportRow:
    x: tuple[int, ...]
    y: tuple[int, ...]
    oracle: float
    formula: float | None
    stat_distance: float
    h_x: float
    source: str | None
    lower: float | None
    upper: float | None
    within: bool | None
    attains_lower: bool | None
    attains_upper: bool | None


@dataclass(frozen=True)
class AnalysisReport:
    array_label: str
    model_label: str
    verdict: ClassificationVerdict
    bounds_tag: str | None
    tolerance: float
    rows: tuple[ReportRow, ...]
    perfect_security: bool  # X independent of Y for every pair, decided exactly
    min_entropy_cap: float | None  # the symmetric upper bound at t_i; None unless the model is independent

    t_i = property(attrgetter("verdict.t_i"))
    t_o = property(attrgetter("verdict.t_o"))

    @property
    def min_observed(self) -> float:
        return min(r.oracle for r in self.rows)

    @property
    def max_observed(self) -> float:
        return max(r.oracle for r in self.rows)

    @property
    def exceeds_min_entropy_cap(self) -> bool | None:
        cap = self.min_entropy_cap
        return None if cap is None else any(r.oracle > cap + self.tolerance for r in self.rows)

    def row_for(self, x: Sequence[int], y: Sequence[int]) -> ReportRow:
        key = (tuple(sorted(x)), tuple(sorted(y)))
        for row in self.rows:
            if (row.x, row.y) == key:
                return row
        raise KeyError(f"no row for pair {key}")


def admissible_pairs(s: int, t_i: int, t_o: int) -> list[SubsetPair]:
    """All (X, Y) with |X| = t_i, |Y| = s - t_o, lexicographic by (X, Y): the
    mixed column sets of `column_set_family`, split at t_i."""
    t_i, t_o = check_t_range(s, t_i, t_o)
    return [SubsetPair(cols[:t_i], cols[t_i:]) for cols in islice(column_set_family(s, t_i, t_o), 2, None)]


def build_report(
    array: AontArray,
    model: InputModel,
    t_i: int,
    t_o: int,
    bounds_tag: str = AUTO,
    tolerance: float = bnd.DEFAULT_TOLERANCE,
    array_label: str = "array",
    model_label: str = "model",
    pairs: Sequence[SubsetPair] | None = None,
) -> AnalysisReport:
    """Every pair's H(X|Y), closed form, SD and H(X), placed against the
    interval of `bounds_tag` (`auto`: the tightest whose rule holds; None:
    no bounds).

    `pairs` defaults to `admissible_pairs(s, t_i, t_o)`; pairs given must
    have |X| = t_i and |Y| = s - t_o, or InvalidParametersError is raised,
    and a pair given more than once is reported once. Perfect security is
    decided exactly, with no tolerance: it holds iff every pair's SD
    numerator is 0, i.e. X and Y are independent, so H(X|Y) = H(X).
    """
    tolerance = bnd.check_tolerance(tolerance)
    weights, denominator = prior_weights(array, model)  # checks the model's shape and mass first
    verdict = classify(array, t_i, t_o)
    t_i, t_o = verdict.t_i, verdict.t_o  # as classify read them
    tag = bnd.auto_tag(verdict.verdict, model, t_i, t_o) if bounds_tag == AUTO else bounds_tag
    rule = None if tag is None else bnd.checked_rule(tag, verdict.verdict, model, t_i, t_o)

    formula_ok = bnd._mismatch(bnd.SYMMETRIC, verdict.verdict, model, t_i, t_o) is None
    min_cap = bnd.bounds_symmetric(model, t_i).upper if model.kind == INDEPENDENT else None
    h_cols = bnd._prior_terms(model, t_i)[1] if formula_ok else None

    all_pairs = admissible_pairs(array.s, t_i, t_o) if pairs is None else list(dict.fromkeys(pairs))
    if not all_pairs:
        raise InvalidParametersError("no pairs to report")
    for pair in all_pairs:
        if (len(pair.x), len(pair.y)) != (t_i, array.s - t_o):
            raise InvalidParametersError(
                f"pair {pair.x}:{pair.y} has |X|={len(pair.x)}, |Y|={len(pair.y)}; "
                f"the report needs |X| = t_i = {t_i} and |Y| = s - t_o = {array.s - t_o}"
            )
    rows: list[ReportRow] = []
    perfect = True
    for pair in all_pairs:
        joint = pair_joint(array, weights, denominator, pair)
        h_y = joint.h_y()
        oracle = joint.conditional(h_y)
        formula = h_cols - h_y if formula_ok else None
        placed: tuple = (None,) * 6
        if rule is not None:
            cmp = bnd.BoundComparison(pair, oracle, rule.interval(model, t_i, t_o, pair.x, h_y), tolerance)
            iv = cmp.interval
            placed = (iv.source, iv.lower, iv.upper, cmp.within, cmp.attains_lower, cmp.attains_upper)
        sd_num, sd_den = joint.stat_distance_ratio()
        perfect = perfect and not sd_num  # X and Y independent, so H(X|Y) = H(X) exactly
        rows.append(ReportRow(pair.x, pair.y, oracle, formula, sd_num / sd_den, joint.h_x(), *placed))
    rows.sort(key=lambda r: (r.x, r.y))
    return AnalysisReport(array_label, model_label, verdict, tag, tolerance, tuple(rows), perfect, min_cap)


def _cols_label(cols: tuple[int, ...]) -> str:
    return "+".join(str(c) for c in cols) if cols else "-"


def _parse_cols_label(label: str) -> tuple[int, ...]:
    if label == "-":
        return ()
    return tuple(map(integer, label.split("+")))


def _as_is(value):
    return value


def _optional(write: Callable, read: Callable) -> tuple[Callable, Callable]:
    """A cell rule for a field that may be None, written as an empty cell."""
    return (lambda value: "" if value is None else write(value)), (lambda cell: read(cell) if cell else None)


# per annotated ReportRow field type: its JSON value, then its CSV (write, read)
_ENCODINGS = {
    "tuple[int, ...]": (list, _cols_label, _parse_cols_label),
    "float": (_as_is, repr, float),
    "float | None": (_as_is, *_optional(repr, float)),
    "str | None": (_as_is, *_optional(str, str)),
    "bool | None": (_as_is, *_optional(lambda flag: str(int(flag)), lambda cell: bool(integer(cell)))),
}
# the JSON row keys and the CSV header: ReportRow's fields in declaration order
_FIELDS = tuple(f.name for f in fields(ReportRow))
_row_values = attrgetter(*_FIELDS)
_TO_JSON, _TO_CELL, _FROM_CELL = zip(*(_ENCODINGS[f.type] for f in fields(ReportRow)))


def report_to_json_dict(report: AnalysisReport) -> dict:
    return {
        "array": report.array_label,
        "model": report.model_label,
        "t_i": report.t_i,
        "t_o": report.t_o,
        "verdict": report.verdict.verdict,
        "witness": list(report.verdict.witness) if report.verdict.witness else None,
        "bounds": report.bounds_tag,
        "tolerance": report.tolerance,
        "rows": [
            {name: enc(value) for name, enc, value in zip(_FIELDS, _TO_JSON, _row_values(r))}
            for r in report.rows
        ],
        "summary": {
            "min_observed": report.min_observed,
            "max_observed": report.max_observed,
            "perfect_security": report.perfect_security,
            "exceeds_min_entropy_cap": report.exceeds_min_entropy_cap,
        },
    }


def report_to_csv(report: AnalysisReport) -> str:
    """Full-precision CSV; parse_report_csv round-trips it exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDS)
    writer.writerows([write(value) for write, value in zip(_TO_CELL, _row_values(r))] for r in report.rows)
    return buf.getvalue()


def parse_report_csv(text: str) -> list[dict]:
    return [
        {name: read(rec[name]) for name, read in zip(_FIELDS, _FROM_CELL)}
        for rec in csv.DictReader(io.StringIO(text))
    ]


def report_to_table(report: AnalysisReport) -> str:
    """Human-readable table, entropies at 6 decimals."""

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.6f}"

    lines = [
        f"array: {report.array_label}   model: {report.model_label}",
        f"parameters: t_i={report.t_i} t_o={report.t_o}   verdict: {report.verdict.verdict}"
        + (
            f" (witness columns {report.verdict.witness})"
            if report.verdict.witness
            else ""
        ),
        f"bounds: {report.bounds_tag or 'none applicable'}   tolerance: {report.tolerance:g}",
        "",
    ]
    header = f"{'X':>8} {'Y':>8} {'H(X|Y)':>10} {'formula':>10} {'SD':>10} {'lower':>10} {'upper':>10} {'within':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.rows:
        within = "-" if r.within is None else ("yes" if r.within else "NO")
        lines.append(
            f"{_cols_label(r.x):>8} {_cols_label(r.y):>8} {r.oracle:>10.6f} "
            f"{fmt(r.formula):>10} {r.stat_distance:>10.6f} {fmt(r.lower):>10} "
            f"{fmt(r.upper):>10} {within:>7}"
        )
    lines.append("")
    lines.append(
        f"observed range: [{report.min_observed:.6f}, {report.max_observed:.6f}]   "
        f"perfect security: {'yes' if report.perfect_security else 'no'}"
    )
    if report.exceeds_min_entropy_cap is not None:
        lines.append(
            "min-entropy cap exceeded: "
            + ("yes" if report.exceeds_min_entropy_cap else "no")
        )
    return "\n".join(lines) + "\n"
