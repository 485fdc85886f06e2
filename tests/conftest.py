import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import pytest

from aontlab import builtin, make_independent_model
from aontlab.models import InputModel


@pytest.fixture(scope="session")
def table1():
    return builtin("table1")


@pytest.fixture(scope="session")
def table2():
    return builtin("table2")


@pytest.fixture(scope="session")
def table3():
    return builtin("table3")


def example1_model() -> InputModel:
    F = Fraction
    return make_independent_model([(F(1, 4), F(1, 8), F(5, 8)), (F(1, 3), F(1, 6), F(1, 2))])


def example3_model() -> InputModel:
    F = Fraction
    return make_independent_model(
        [(F(1, 6), F(1, 3), F(1, 2)), (F(1, 2), F(1, 4), F(1, 4)), (F(7, 10), F(1, 5), F(1, 10))]
    )


def example4_model() -> InputModel:
    F = Fraction
    return make_independent_model([(F(1, 4), F(3, 4)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))])


def cross_version_model() -> InputModel:
    """s=3, v=2: a compensated sum of its column entropies (the built-in sum()
    from Python 3.12 on) differs in the last bit from the left-to-right one."""
    F = Fraction
    return make_independent_model([(F(3, 7), F(4, 7)), (F(6, 13), F(7, 13)), (F(7, 15), F(8, 15))])


def random_masses(rng: random.Random, v: int, max_weight: int = 12) -> tuple[Fraction, ...]:
    """Exact rational pmf from positive integer weights."""
    weights = [rng.randint(1, max_weight) for _ in range(v)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_independent_model(rng: random.Random, s: int, v: int) -> InputModel:
    return make_independent_model([random_masses(rng, v) for _ in range(s)])


def masses_over(rng: random.Random, v: int, denominator: int) -> tuple[Fraction, ...]:
    """v positive masses k / denominator, at random."""
    cuts = sorted(rng.sample(range(1, denominator), v - 1))
    return tuple(Fraction(b - a, denominator) for a, b in zip([0, *cuts], [*cuts, denominator]))


class _Tee(io.StringIO):
    """One stream of a command, also copied to the interleaved output."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, text: str) -> int:
        self.output.write(text)
        return super().write(text)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as written
    exception: BaseException | None


class CliRunner:
    """Runs a command-line `main(argv)` in this process with stdout and stderr captured."""

    def invoke(self, main, args) -> CliResult:
        output = io.StringIO()
        out, err = _Tee(output), _Tee(output)
        exception = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                main(list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code, exception = exc.code, exc if exc.code else None
        except Exception as exc:
            exit_code, exception = 1, exc
        return CliResult(exit_code, out.getvalue(), err.getvalue(), output.getvalue(), exception)
