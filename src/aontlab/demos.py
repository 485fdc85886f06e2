"""Golden reproductions: four canonical array/prior combinations with their
published entropy values, checked side by side at a configurable tolerance."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

from .bounds import DEFAULT_TOLERANCE
from .constructions import builtin
from .entropy import marginal_distribution
from .entropy import (  # unused here; perfbench/tracing.py wraps these names
    conditional_entropy,
    subset_entropy,
)
from .errors import UnknownNameError
from .models import Distribution, InputModel, column_entropy, make_independent_model, uniform
from .report import AnalysisReport, build_report


@dataclass(frozen=True)
class DemoCheck:
    label: str
    expected: float
    computed: float
    ok: bool


def _demo1_model() -> InputModel:
    return make_independent_model([(F(1, 4), F(1, 8), F(5, 8)), (F(1, 3), F(1, 6), F(1, 2))])


def _demo2_model() -> InputModel:
    return make_independent_model([uniform(3), (F(1, 3), F(1, 6), F(1, 2))])


def _demo3_model() -> InputModel:
    return make_independent_model(
        [
            (F(1, 6), F(1, 3), F(1, 2)),
            (F(1, 2), F(1, 4), F(1, 4)),
            (F(7, 10), F(1, 5), F(1, 10)),
        ]
    )


def _demo4_model() -> InputModel:
    return make_independent_model([(F(1, 4), F(3, 4)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))])


# (array name, model builder, t_i, t_o)
_DEMOS = {
    1: ("table1", _demo1_model, 1, 1),
    2: ("table1", _demo2_model, 1, 1),
    3: ("table2", _demo3_model, 1, 2),
    4: ("table3", _demo4_model, 1, 2),
}

# reference entropy values, printed to six decimals in the source tables
_EXPECTED_COLUMN = {
    1: (1.298795, 1.459148),
    2: (1.584963, 1.459148),
    3: (1.459148, 1.500000, 1.156780),
    4: (0.811278, 0.918296, 1.000000),
}

_EXPECTED_OUTPUT = {
    1: (1.561053, 1.559607),
    2: (1.584963, 1.584963),
    4: (0.994985, 0.994985, 0.870864),
}

# H(X_i | Y_j) grids in row-major (i, j) order
_EXPECTED_CONDITIONAL = {
    1: (1.196889, 1.198335, 1.196889, 1.198335),
    2: (1.459148, 1.459148, 1.459148, 1.459148),
    3: (
        1.067794, 1.459148, 1.381719,
        1.500000, 1.098856, 1.381719,
        1.067794, 1.098856, 1.156780,
    ),
    4: (
        0.667521, 0.667521, 0.657504,
        0.740788, 0.740788, 0.727952,
        0.735665, 0.735665, 0.836044,
    ),
}

# exact induced output marginals, where the source prints them as fractions
_EXPECTED_MARGINALS = {
    1: {3: (F(5, 12), F(13, 48), F(5, 16)), 4: (F(1, 4), F(19, 48), F(17, 48))},
    2: {3: (F(1, 3),) * 3, 4: (F(1, 3),) * 3},
    4: {
        4: (F(13, 24), F(11, 24)),
        5: (F(11, 24), F(13, 24)),
        6: (F(7, 24), F(17, 24)),
    },
}

DEMO_NUMBERS = tuple(_DEMOS)


def run_demo(number: int, tolerance: float = DEFAULT_TOLERANCE) -> tuple[AnalysisReport, list[DemoCheck], bool]:
    """Recompute one golden scenario and compare against its reference values."""
    try:
        array_name, model_builder, t_i, t_o = _DEMOS[number]
    except (KeyError, TypeError):  # TypeError: a number that cannot be hashed, such as a list
        raise UnknownNameError(f"demo {number} does not exist; know {DEMO_NUMBERS}") from None
    array = builtin(array_name)
    model = model_builder()
    s = array.s
    # every demo has |Y| = s - t_o = 1, so the report rows are the H(X_i | Y_j) grid
    report = build_report(
        array,
        model,
        t_i,
        t_o,
        tolerance=tolerance,
        array_label=array_name,
        model_label=f"demo{number}",
    )
    outputs: dict[int, Distribution] = {}  # one projection per output column

    def output_marginal(col: int) -> Distribution:
        if col not in outputs:
            outputs[col] = marginal_distribution(array, model, (col,))
        return outputs[col]

    checks: list[DemoCheck] = []

    def check(label: str, expected: float, computed: float) -> None:
        checks.append(DemoCheck(label, expected, computed, abs(expected - computed) <= report.tolerance))

    for i, expected in enumerate(_EXPECTED_COLUMN[number], start=1):
        check(f"H(X{i})", expected, column_entropy(model, i))

    for col, masses in _EXPECTED_MARGINALS.get(number, {}).items():
        observed = output_marginal(col)
        for sym, expected_mass in enumerate(masses):
            checks.append(
                DemoCheck(
                    f"Pr[Y{col - s}={sym}]",
                    float(expected_mass),
                    float(observed.masses[sym]),
                    observed.masses[sym] == expected_mass,
                )
            )

    for j, expected in enumerate(_EXPECTED_OUTPUT.get(number, ()), start=1):
        check(f"H(Y{j})", expected, output_marginal(s + j).entropy_bits())

    grid = _EXPECTED_CONDITIONAL[number]
    n_y = s  # one column per output
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            expected = grid[(i - 1) * n_y + (j - 1)]
            check(f"H(X{i}|Y{j})", expected, report.row_for((i,), (s + j,)).oracle)

    return report, checks, all(c.ok for c in checks)


def format_demo(number: int, checks: list[DemoCheck], tolerance: float) -> str:
    lines = [f"demo {number}: reference reproduction at tolerance {tolerance:g}"]
    for c in checks:
        status = "ok" if c.ok else "FAIL"
        lines.append(f"  {c.label:<14} expected {c.expected:<12.6f} computed {c.computed:<12.6f} [{status}]")
    lines.append(
        f"demo {number}: {'PASS' if all(c.ok for c in checks) else 'FAIL'} "
        f"({sum(c.ok for c in checks)}/{len(checks)} values match)"
    )
    return "\n".join(lines) + "\n"
