"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Reference golden values are asserted at 1e-6 (they are printed to six
decimals); internal identities at 1e-9; statistical distance at 1e-12.
"""

import random
import time
from fractions import Fraction as F
from math import log2

import pytest

from aontlab import (
    Distribution,
    bounds_asymmetric,
    bounds_symmetric,
    bounds_weak,
    column_entropy,
    compare,
    conditional_entropy,
    conditional_entropy_formula,
    dump_array_csv,
    exact_block_dependent,
    identity_matrix,
    linear_aont,
    make_block_dependent_model,
    make_independent_model,
    marginal_distribution,
    search_linear,
    statistical_distance,
    subset_entropy,
    uniform,
    uniform_model,
)
from aontlab.cli import main as cli
from aontlab.constructions import iter_linear_aont_matrices
from aontlab.entropy import SubsetPair
from aontlab.report import admissible_pairs, build_report

from conftest import CliRunner, example1_model, example3_model, example4_model, random_masses
from matrix_search_oracle import oracle_counts

GOLDEN_TOL = 1e-6
IDENTITY_TOL = 1e-9
SD_TOL = 1e-12


def _report(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion {number:2d}: {status} - {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def linear_aonts_123():
    return [linear_aont(m) for m in search_linear(2, 3, 1, 1).found]


@pytest.fixture(scope="module")
def first_223_array():
    matrix = next(iter_linear_aont_matrices(3, 3, 2, 2))
    return linear_aont(matrix)


def test_criterion_1_example1_reproduction(table1):
    failures: list[str] = []
    start = time.monotonic()
    model = example1_model()
    expected = {
        "H(X1)": (column_entropy(model, 1), 1.298795),
        "H(X2)": (column_entropy(model, 2), 1.459148),
        "H(Y1)": (subset_entropy(table1, model, (3,)), 1.561053),
        "H(Y2)": (subset_entropy(table1, model, (4,)), 1.559607),
        "H(X1|Y1)": (conditional_entropy(table1, model, SubsetPair((1,), (3,))), 1.196889),
        "H(X2|Y1)": (conditional_entropy(table1, model, SubsetPair((2,), (3,))), 1.196889),
        "H(X1|Y2)": (conditional_entropy(table1, model, SubsetPair((1,), (4,))), 1.198335),
        "H(X2|Y2)": (conditional_entropy(table1, model, SubsetPair((2,), (4,))), 1.198335),
    }
    for label, (computed, target) in expected.items():
        _check(failures, abs(computed - target) <= GOLDEN_TOL, f"{label}: {computed} != {target}")
    elapsed = time.monotonic() - start
    _check(failures, elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s")
    _report(1, "first reference scenario reproduced within 1e-6 in under 1s", failures)


def test_criterion_2_example2_reproduction(table1):
    failures: list[str] = []
    model = make_independent_model([uniform(3), (F(1, 3), F(1, 6), F(1, 2))])
    for col in (3, 4):
        marg = marginal_distribution(table1, model, (col,))
        _check(failures, marg.is_uniform(), f"output column {col} marginal not uniform: {marg.masses}")
    h1, h2 = column_entropy(model, 1), column_entropy(model, 2)
    target = min(h1, h2)
    _check(failures, abs(target - 1.459148) <= GOLDEN_TOL, f"min column entropy {target}")
    for pair in admissible_pairs(2, 1, 1):
        observed = conditional_entropy(table1, model, pair)
        _check(failures, abs(observed - 1.459148) <= GOLDEN_TOL, f"{pair}: {observed}")
        _check(failures, abs(observed - target) <= GOLDEN_TOL, f"{pair}: != min col entropy")
        cmp = compare(table1, model, pair, "nonuniform-exact")
        _check(failures, cmp.within and cmp.interval.exact, f"{pair}: exact value not attained")
    _report(2, "uniform-column scenario attains the exact closed form 1.459148", failures)


def test_criterion_3_example3_reproduction(table2):
    failures: list[str] = []
    model = example3_model()
    grid = {
        (1, 4): 1.067794, (1, 5): 1.459148, (1, 6): 1.381719,
        (2, 4): 1.500000, (2, 5): 1.098856, (2, 6): 1.381719,
        (3, 4): 1.067794, (3, 5): 1.098856, (3, 6): 1.156780,
    }
    for (i, j), target in grid.items():
        observed = conditional_entropy(table2, model, SubsetPair((i,), (j,)))
        _check(failures, abs(observed - target) <= GOLDEN_TOL, f"H(X{i}|Y{j - 3}): {observed} != {target}")
    min_cap = min(column_entropy(model, i) for i in (1, 2, 3))
    _check(failures, abs(min_cap - 1.156780) <= GOLDEN_TOL, f"min column entropy {min_cap}")
    h_x1_y2 = conditional_entropy(table2, model, SubsetPair((1,), (5,)))
    _check(failures, h_x1_y2 > min_cap + GOLDEN_TOL, "symmetric-style cap unexpectedly holds")
    report = build_report(table2, model, 1, 2)
    _check(failures, report.exceeds_min_entropy_cap is True, "report does not flag the cap failure")
    _report(3, "asymmetric scenario reproduced; min-entropy cap correctly fails", failures)


def test_criterion_4_example4_reproduction(table3):
    failures: list[str] = []
    model = example4_model()
    grid = {
        (1, 4): 0.667521, (1, 5): 0.667521, (1, 6): 0.657504,
        (2, 4): 0.740788, (2, 5): 0.740788, (2, 6): 0.727952,
        (3, 4): 0.735665, (3, 5): 0.735665, (3, 6): 0.836044,
    }
    for (i, j), target in grid.items():
        observed = conditional_entropy(table3, model, SubsetPair((i,), (j,)))
        _check(failures, abs(observed - target) <= GOLDEN_TOL, f"H(X{i}|Y{j - 3}): {observed} != {target}")
    h_y3 = subset_entropy(table3, model, (6,))
    _check(failures, abs(h_y3 - 0.870864) <= GOLDEN_TOL, f"H(Y3): {h_y3}")
    _report(4, "weak-transform scenario reproduced within 1e-6", failures)


def test_criterion_5_classification_exit_codes(tmp_path):
    failures: list[str] = []
    runner = CliRunner()
    cases = [
        (["verify", "--builtin", "table1", "--ti", "1", "--to", "1"], 0),
        (["verify", "--builtin", "table2", "--ti", "1", "--to", "2"], 0),
        (["verify", "--builtin", "table3", "--ti", "1", "--to", "2"], 1),
    ]
    ident = tmp_path / "identity.csv"
    ident.write_text(dump_array_csv(linear_aont(identity_matrix(2, 3))))
    cases.append((["verify", "--array", str(ident), "--ti", "1", "--to", "1"], 2))
    for args, expected in cases:
        code = runner.invoke(cli, args).exit_code
        _check(failures, code == expected, f"{' '.join(args)}: exit {code}, expected {expected}")
    _report(5, "classification verdicts and exit codes 0/0/1/2", failures)


def test_criterion_6_oracle_formula_equivalence(table1, linear_aonts_123):
    failures: list[str] = []
    rng = random.Random(60)
    arrays = [table1] + linear_aonts_123
    _check(failures, len(arrays) == 9, f"expected table1 + 8 linear arrays, got {len(arrays)}")
    pairs = admissible_pairs(2, 1, 1)
    worst = 0.0
    for _ in range(200):
        model = make_independent_model([random_masses(rng, 3) for _ in range(2)])
        for arr in arrays:
            for pair in pairs:
                oracle = conditional_entropy(arr, model, pair)
                formula = conditional_entropy_formula(arr, model, pair)
                gap = abs(oracle - formula)
                worst = max(worst, gap)
                if gap >= IDENTITY_TOL:
                    failures.append(f"{pair} gap {gap}")
    _report(6, f"oracle vs closed form over 200 models x 9 arrays (worst gap {worst:.2e})", failures)


def test_criterion_7_bound_containment(table1, table2, table3):
    failures: list[str] = []
    rng = random.Random(70)

    # reference intervals, recomputed from the golden priors first
    iv1 = bounds_symmetric(example1_model(), 1)
    _check(failures, abs(iv1.lower - 1.172980) <= GOLDEN_TOL, f"ex1 lower {iv1.lower}")
    _check(failures, abs(iv1.upper - 1.298795) <= GOLDEN_TOL, f"ex1 upper {iv1.upper}")
    iv3 = bounds_asymmetric(example3_model(), 1, 2, x_cols=(1,))
    _check(failures, abs(iv3.lower - 0.946003) <= GOLDEN_TOL, f"ex3 lower {iv3.lower}")
    _check(failures, abs(iv3.upper - 1.459148) <= GOLDEN_TOL, f"ex3 upper {iv3.upper}")
    iv4 = bounds_weak(example4_model(), 1, 2, x_cols=(1,))
    _check(failures, abs(iv4.lower - 0.144611) <= GOLDEN_TOL, f"ex4 lower {iv4.lower}")
    _check(failures, abs(iv4.upper - 0.811278) <= GOLDEN_TOL, f"ex4 upper {iv4.upper}")

    for _ in range(200):
        m1 = make_independent_model([random_masses(rng, 3) for _ in range(2)])
        for pair in admissible_pairs(2, 1, 1):
            observed = conditional_entropy(table1, m1, pair)
            if not bounds_symmetric(m1, 1).contains(observed, GOLDEN_TOL):
                failures.append(f"symmetric {pair}: {observed}")

        m2 = make_independent_model([random_masses(rng, 3) for _ in range(3)])
        for pair in admissible_pairs(3, 1, 2):
            observed = conditional_entropy(table2, m2, pair)
            if not bounds_asymmetric(m2, 1, 2, x_cols=pair.x).contains(observed, GOLDEN_TOL):
                failures.append(f"asymmetric {pair}: {observed}")

        m3 = make_independent_model([random_masses(rng, 2) for _ in range(3)])
        for pair in admissible_pairs(3, 1, 2):
            observed = conditional_entropy(table3, m3, pair)
            if not bounds_weak(m3, 1, 2, x_cols=pair.x).contains(observed, GOLDEN_TOL):
                failures.append(f"weak {pair}: {observed}")
    _report(7, "bound containment over 200 models per array class + derived intervals", failures)


def test_criterion_8_block_dependent_exactness(table1, first_223_array):
    failures: list[str] = []
    rng = random.Random(80)
    arr = first_223_array
    s, v, t = 3, 3, 2
    log_v = log2(v)
    pairs = admissible_pairs(s, t, t)
    for _ in range(50):
        size = rng.choice((1, 2))
        block = tuple(sorted(rng.sample(range(1, s + 1), size)))
        joint = Distribution(v, size, random_masses(rng, v**size))
        model = make_block_dependent_model(s, v, block, joint)
        target = exact_block_dependent(model, t)
        for pair in pairs:
            observed = conditional_entropy(arr, model, pair)
            if abs(observed - target) >= IDENTITY_TOL:
                failures.append(f"block {block} {pair}: {observed} != {target}")
        for y in range(s + 1, 2 * s + 1):
            h_y = subset_entropy(arr, model, (y,))
            if abs(h_y - (s - t) * log_v) >= IDENTITY_TOL:
                failures.append(f"block {block} H(Y{y - s}) = {h_y}")

    # single-column blocks on the 2-column reference array: the exact value
    # is the block entropy itself
    for _ in range(50):
        block = (rng.choice((1, 2)),)
        joint = Distribution(3, 1, random_masses(rng, 3))
        model = make_block_dependent_model(2, 3, block, joint)
        target = exact_block_dependent(model, 1)
        if abs(target - joint.entropy_bits()) >= IDENTITY_TOL:
            failures.append(f"fallback target mismatch for block {block}")
        for pair in admissible_pairs(2, 1, 1):
            observed = conditional_entropy(table1, model, pair)
            if abs(observed - target) >= IDENTITY_TOL:
                failures.append(f"fallback {block} {pair}: {observed} != {target}")
            h_y = subset_entropy(table1, model, pair.y)
            if abs(h_y - log2(3)) >= IDENTITY_TOL:
                failures.append(f"fallback {block} H({pair.y}) = {h_y}")
    _report(8, "block-dependent exact values and uniform output entropies", failures)


def test_criterion_9_search_counts_and_determinism():
    failures: list[str] = []
    start = time.monotonic()
    r1a = search_linear(2, 3, 1, 1)
    r1b = search_linear(2, 3, 1, 1)
    r2 = search_linear(2, 2, 1, 1)
    _check(failures, (r1a.examined, len(r1a.found)) == (48, 8), f"(48, 8) != {(r1a.examined, len(r1a.found))}")
    _check(failures, (r2.examined, len(r2.found)) == (6, 0), f"(6, 0) != {(r2.examined, len(r2.found))}")
    _check(failures, r1a.found == r1b.found, "two runs disagree")
    _check(failures, oracle_counts(2, 3, 1, 1) == (48, 8), "independent oracle disagrees for v=3")
    _check(failures, oracle_counts(2, 2, 1, 1) == (6, 0), "independent oracle disagrees for v=2")
    elapsed = time.monotonic() - start
    _check(failures, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    _report(9, "search counts (48, 8) and (6, 0) confirmed by independent oracle", failures)


def test_criterion_10_perfect_security_at_uniform(table1, table2, linear_aonts_123, first_223_array):
    failures: list[str] = []
    scenarios = [(table1, 1, 1), (table2, 1, 2), (first_223_array, 2, 2)]
    scenarios += [(arr, 1, 1) for arr in linear_aonts_123]
    for arr, t_i, t_o in scenarios:
        model = uniform_model(arr.s, arr.v)
        target = t_i * log2(arr.v)
        for pair in admissible_pairs(arr.s, t_i, t_o):
            observed = conditional_entropy(arr, model, pair)
            if abs(observed - target) >= IDENTITY_TOL:
                failures.append(f"{(arr.s, arr.v, t_i, t_o)} {pair}: H = {observed}")
            sd = statistical_distance(arr, model, pair)
            if sd > SD_TOL:
                failures.append(f"{(arr.s, arr.v, t_i, t_o)} {pair}: SD = {sd}")
    _report(10, "perfect security at the all-uniform model on every verified array", failures)
