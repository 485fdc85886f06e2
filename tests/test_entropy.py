import itertools
import random
from fractions import Fraction as F
from functools import reduce
from math import log2
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aontlab import (
    Alphabet,
    AontArray,
    Distribution,
    build_report,
    builtin,
    classify,
    column_entropy,
    completion_set,
    conditional_entropy,
    conditional_entropy_formula,
    identity_matrix,
    linear_aont,
    make_block_dependent_model,
    make_independent_model,
    marginal_distribution,
    matrix_from_rows,
    statistical_distance,
    subset_entropy,
    uniform_model,
)
from aontlab.arrays import AONT
from aontlab.bounds import SYMMETRIC, _mismatch
from aontlab.entropy import SubsetPair, _accumulate, pair_joint, prior_weights
from aontlab.errors import ArityMismatchError, FormulaPreconditionError, InvalidParametersError, MassSumError
from aontlab.models import INDEPENDENT
from aontlab.report import AUTO

import entropy_oracle
from conftest import example1_model, example3_model, example4_model, masses_over, random_independent_model


def test_marginal_example1_y1(table1):
    d = marginal_distribution(table1, example1_model(), (3,))
    assert d.masses == (F(5, 12), F(13, 48), F(5, 16))


def test_marginal_uniform_inputs_give_uniform_outputs(table1):
    d = marginal_distribution(table1, uniform_model(2, 3), (3,))
    assert d.is_uniform()


def test_marginal_example4_y3(table3):
    d = marginal_distribution(table3, example4_model(), (6,))
    assert d.masses == (F(7, 24), F(17, 24))


def test_subset_entropy_golden(table1, table2):
    assert subset_entropy(table1, example1_model(), (3,)) == pytest.approx(1.561053, abs=1e-6)
    assert subset_entropy(table2, example3_model(), (1,)) == pytest.approx(1.459148, abs=1e-6)
    assert subset_entropy(table1, uniform_model(2, 3), (4,)) == pytest.approx(log2(3), abs=1e-12)


def test_conditional_entropy_golden(table1, table2, table3):
    assert conditional_entropy(table1, example1_model(), SubsetPair((1,), (3,))) == pytest.approx(
        1.196889, abs=1e-6
    )
    assert conditional_entropy(table2, example3_model(), SubsetPair((1,), (5,))) == pytest.approx(
        1.459148, abs=1e-6
    )
    assert conditional_entropy(table3, example4_model(), SubsetPair((3,), (6,))) == pytest.approx(
        0.836044, abs=1e-6
    )


def test_formula_golden(table1):
    value = conditional_entropy_formula(table1, example1_model(), SubsetPair((2,), (4,)))
    assert value == pytest.approx(1.198335, abs=1e-6)


def test_formula_uniform_model(table1):
    value = conditional_entropy_formula(table1, uniform_model(2, 3), SubsetPair((1,), (3,)))
    assert value == pytest.approx(log2(3), abs=1e-12)


def test_formula_rejects_non_aont():
    from aontlab import identity_matrix, linear_aont

    ident = linear_aont(identity_matrix(2, 3))
    with pytest.raises(FormulaPreconditionError):
        conditional_entropy_formula(ident, uniform_model(2, 3), SubsetPair((1,), (3,)))


def test_formula_rejects_block_model(table1):
    joint = Distribution(3, 1, (F(1, 4), F(1, 8), F(5, 8)))
    model = make_block_dependent_model(2, 3, (1,), joint)
    with pytest.raises(FormulaPreconditionError):
        conditional_entropy_formula(table1, model, SubsetPair((1,), (3,)))


def test_formula_rejects_wrong_subset_sizes(table1):
    with pytest.raises(FormulaPreconditionError):
        conditional_entropy_formula(table1, example1_model(), SubsetPair((1,), ()))


@pytest.mark.parametrize("s, v", [(3, 3), (2, 5)])
def test_formula_with_y_empty_rejects_a_model_of_another_shape(table1, s, v):
    """With Y empty no projection checked the model, so the column
    entropies of a prior that does not fit table1 (s=2, v=3) were summed."""
    with pytest.raises(ArityMismatchError, match=f"model shape \\(s={s}, v={v}\\) does not match"):
        conditional_entropy_formula(table1, uniform_model(s, v), SubsetPair((1, 2), ()))


@given(st.integers(0, 100_000))
@settings(max_examples=120, deadline=None)
def test_formula_matches_oracle(table1, seed):
    model = random_independent_model(random.Random(seed), 2, 3)
    for x in ((1,), (2,)):
        for y in ((3,), (4,)):
            pair = SubsetPair(x, y)
            oracle = conditional_entropy(table1, model, pair)
            formula = conditional_entropy_formula(table1, model, pair)
            assert abs(oracle - formula) < 1e-9


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_fixed_y_equality_symmetric(table1, seed):
    # same Y, any X of the same size: conditional entropies agree
    model = random_independent_model(random.Random(seed), 2, 3)
    for y in ((3,), (4,)):
        h1 = conditional_entropy(table1, model, SubsetPair((1,), y))
        h2 = conditional_entropy(table1, model, SubsetPair((2,), y))
        assert abs(h1 - h2) < 1e-9


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_conditioning_never_increases_entropy(table2, seed):
    model = random_independent_model(random.Random(seed), 3, 3)
    for i in (1, 2, 3):
        for j in (4, 5, 6):
            pair = SubsetPair((i,), (j,))
            assert conditional_entropy(table2, model, pair) <= subset_entropy(
                table2, model, pair.x
            ) + 1e-9


def test_perfect_security_at_uniform(table1, table2):
    from aontlab import admissible_pairs

    for arr, t_i, t_o in ((table1, 1, 1), (table2, 1, 2)):
        model = uniform_model(arr.s, arr.v)
        for pair in admissible_pairs(arr.s, t_i, t_o):
            assert conditional_entropy(arr, model, pair) == pytest.approx(
                t_i * log2(arr.v), abs=1e-9
            )
            assert statistical_distance(arr, model, pair) <= 1e-12


def test_statistical_distance_positive_for_example1(table1):
    sd = statistical_distance(table1, example1_model(), SubsetPair((1,), (3,)))
    assert sd > 0


def test_statistical_distance_zero_for_deterministic_input(table1):
    model = make_independent_model([(F(1), F(0), F(0)), (F(1, 3), F(1, 6), F(1, 2))])
    for y in ((3,), (4,)):
        assert statistical_distance(table1, model, SubsetPair((1,), y)) == 0.0


def test_block_model_output_entropy_claim(table1):
    # dependent block of size <= t on a verified symmetric transform makes
    # every size s-t output subset exactly uniform
    joint = Distribution(3, 1, (F(2, 3), F(1, 6), F(1, 6)))
    model = make_block_dependent_model(2, 3, (2,), joint)
    for y in ((3,), (4,)):
        assert subset_entropy(table1, model, y) == pytest.approx(log2(3), abs=1e-9)


def test_completion_set_sizes_table2(table2):
    # verified (1,2) transform: every consistent observation leaves v^(to-ti) options
    for i in (1, 2, 3):
        for j in (4, 5, 6):
            pair = SubsetPair((i,), (j,))
            for u in range(3):
                for w in range(3):
                    assert completion_set(table2, pair, (u,), (w,)).size == 3


def test_completion_set_singleton_table1(table1):
    pair = SubsetPair((1,), (3,))
    for u in range(3):
        for w in range(3):
            cs = completion_set(table1, pair, (u,), (w,))
            assert cs.size == 1
    with pytest.raises(InvalidParametersError, match="observation tuples must match the subset sizes"):
        completion_set(table1, pair, (0, 0), (0,))


def test_completion_set_reads_observed_symbols_as_integers(table1):
    pair = SubsetPair((1,), (3,))
    assert completion_set(table1, pair, [1.0], (0,)) == completion_set(table1, pair, (1,), (0,))
    # True was read as 1, and 1.5 or "1" matched no row
    for bad in (True, 1.5, "1"):
        with pytest.raises(InvalidParametersError, match=f"observed symbol {bad!r} is not an integer"):
            completion_set(table1, pair, (bad,), (0,))
        with pytest.raises(InvalidParametersError, match=f"observed symbol {bad!r} is not an integer"):
            completion_set(table1, pair, (0,), (bad,))


def test_completion_set_range_table3(table3):
    pair = SubsetPair((1,), (4,))
    assert completion_set(table3, pair, (0,), (0,)).size == 1
    assert completion_set(table3, pair, (0,), (1,)).size == 3
    hi = 2 ** (3 - 1) - 2 ** (3 - 2) + 1
    for u in range(2):
        for w in range(2):
            assert 1 <= completion_set(table3, pair, (u,), (w,)).size <= hi


def test_completion_set_weak_range_all_pairs(table3):
    hi = 2 ** (3 - 1) - 2 ** (3 - 2) + 1
    for i in (1, 2, 3):
        for j in (4, 5, 6):
            pair = SubsetPair((i,), (j,))
            for u in range(2):
                for w in range(2):
                    assert 1 <= completion_set(table3, pair, (u,), (w,)).size <= hi


def test_completion_set_matches_row_scan(table2, table3):
    for array in (table2, table3):
        for pair in (SubsetPair((1,), (4,)), SubsetPair((1, 3), (5, 6)), SubsetPair((1, 2, 3), (4,))):
            complement = tuple(c for c in array.input_columns if c not in pair.x)
            for row in array.rows:
                seen = (array.project(row, pair.x), array.project(row, pair.y))
                expected = {
                    array.project(r, complement)
                    for r in array.rows
                    if (array.project(r, pair.x), array.project(r, pair.y)) == seen
                }
                assert completion_set(array, pair, *seen).completions == tuple(sorted(expected))
    # a symbol outside the alphabet matches no row, though (0, 3) encodes like (1, 0)
    assert completion_set(table2, SubsetPair((1,), (4,)), (0,), (3,)).size == 0


def test_pair_validation(table1):
    with pytest.raises(InvalidParametersError):
        conditional_entropy(table1, example1_model(), SubsetPair((3,), (4,)))
    with pytest.raises(InvalidParametersError):
        conditional_entropy(table1, example1_model(), SubsetPair((1,), (2,)))
    with pytest.raises(InvalidParametersError):
        SubsetPair((), (3,))


@pytest.mark.parametrize("cols", [(0,), (5,), (1, 5), (-1, 2)])
def test_subset_entropy_rejects_labels_outside_1_to_2s(table1, cols):
    with pytest.raises(InvalidParametersError, match=r"outside 1\.\.4"):
        subset_entropy(table1, example1_model(), cols)


@pytest.mark.parametrize("cols", [(0,), (5,), (1, 5), (-1, 2)])
def test_marginal_distribution_rejects_labels_outside_1_to_2s(table1, cols):
    with pytest.raises(InvalidParametersError, match=r"outside 1\.\.4"):
        marginal_distribution(table1, example1_model(), cols)


def test_projection_past_2_to_the_24_codes_refused_before_it_is_allocated():
    """X u Y of 8 columns over v = 11 has 11^8 > 2^24 codes for 14,641 rows;
    at s = 3 the 11^6 codes are within the bound and listed densely."""
    pair = SubsetPair((1, 2, 3, 4), (5, 6, 7, 8))
    with pytest.raises(InvalidParametersError, match=r"11\^8 codes, more than max\(N, 2\^24\)"):
        conditional_entropy(linear_aont(identity_matrix(4, 11)), uniform_model(4, 11), pair)
    pair = SubsetPair((1, 2, 3), (4, 5, 6))
    assert conditional_entropy(linear_aont(identity_matrix(3, 11)), uniform_model(3, 11), pair) == 0.0


def test_non_bijective_inputs_rejected(table1):
    # duplicated input projections double-count mass; the accumulator refuses
    rows = list(table1.rows)
    rows[1] = rows[0]
    broken = AontArray(table1.alphabet, 2, tuple(rows))
    with pytest.raises(MassSumError):
        marginal_distribution(broken, example1_model(), (3,))
    with pytest.raises(MassSumError):
        build_report(broken, example1_model(), 1, 1, bounds_tag=None)
    pair = SubsetPair((1,), (3,))
    for entry_point, arg in ((conditional_entropy, pair), (statistical_distance, pair), (subset_entropy, (1, 2))):
        with pytest.raises(MassSumError, match="masses sum to 25/24, expected 1"):
            entry_point(broken, example1_model(), arg)


# --- cross-check against the exact-rational reference engine -----------------


def _random_masses(rng: random.Random, size: int) -> tuple[F, ...]:
    """Exact pmf with some zero masses, so zero-weight rows and tuples occur,
    and some large ones, so common denominators exceed 2**53."""
    weights = [rng.choice((0, 0, 1, 2, 3, 7, 12, 97, 1_000_003, 9_999_991)) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def _random_array(rng: random.Random):
    kind = rng.choice(("builtin", "linear", "random"))
    if kind == "builtin":
        return builtin(rng.choice(("table1", "table2", "table3")))
    s, v = rng.choice(((1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)))
    inputs = [tuple(x) for x in itertools.product(range(v), repeat=s)]
    if kind == "linear":
        while True:
            matrix = matrix_from_rows(v, [[rng.randrange(v) for _ in range(s)] for _ in range(s)])
            if matrix.is_invertible():
                rows = list(linear_aont(matrix).rows)
                break
    else:
        rows = [x + tuple(rng.randrange(v) for _ in range(s)) for x in inputs]
    rng.shuffle(rows)
    return AontArray(Alphabet(v), s, tuple(rows))


def _random_model(rng: random.Random, s: int, v: int):
    if rng.random() < 0.6:
        return make_independent_model([_random_masses(rng, v) for _ in range(s)])
    block = tuple(sorted(rng.sample(range(1, s + 1), rng.randint(0, s))))
    joint = Distribution(v, len(block), _random_masses(rng, v ** len(block)))
    return make_block_dependent_model(s, v, block, joint)


def _random_pair(rng: random.Random, s: int) -> SubsetPair:
    x = rng.sample(range(1, s + 1), rng.randint(1, s))
    y = rng.sample(range(s + 1, 2 * s + 1), rng.randint(0, s))
    return SubsetPair(x, y)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_engine_matches_fraction_reference(seed):
    rng = random.Random(seed)
    array = _random_array(rng)
    model = _random_model(rng, array.s, array.v)
    weights, denominator = prior_weights(array, model)
    for _ in range(3):
        pair = _random_pair(rng, array.s)
        cols = pair.x + pair.y
        exact = [F(w, denominator) for w in _accumulate(array, weights, cols)]
        assert exact == entropy_oracle.accumulate(array, model, cols)
        assert marginal_distribution(array, model, cols).masses == tuple(
            entropy_oracle.accumulate(array, model, sorted(cols))
        )
        # bit-for-bit, not approximately
        assert conditional_entropy(array, model, pair) == entropy_oracle.conditional_entropy(
            array, model, pair.x, pair.y
        )
        assert subset_entropy(array, model, pair.x) == entropy_oracle.subset_entropy(array, model, pair.x)
        assert statistical_distance(array, model, pair) == entropy_oracle.statistical_distance(
            array, model, pair.x, pair.y
        )


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_entropy_of_any_column_set_matches_fraction_reference(seed):
    """Past s columns there can be more codes than rows, and H comes from
    the codes that occur; it must still equal the dense reference bit for
    bit."""
    rng = random.Random(seed)
    array = _random_array(rng)
    model = _random_model(rng, array.s, array.v)
    cols = rng.sample(range(1, 2 * array.s + 1), rng.randint(1, 2 * array.s))
    assert subset_entropy(array, model, cols) == entropy_oracle.subset_entropy(array, model, cols)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_report_rows_match_fraction_reference(seed):
    rng = random.Random(seed)
    array = _random_array(rng)
    model = _random_model(rng, array.s, array.v)
    t_i = rng.randint(1, array.s)
    t_o = rng.randint(t_i, array.s)
    for bounds_tag in (None, AUTO):
        report = build_report(array, model, t_i, t_o, bounds_tag=bounds_tag)
        assert (report.t_i, report.t_o) == (t_i, t_o)
        assert report.min_observed == min(row.oracle for row in report.rows)
        assert report.max_observed == max(row.oracle for row in report.rows)
        # the closed form's hypotheses, spelled out apart from bounds.TAG_RULES
        formula_holds = model.kind == INDEPENDENT and t_i == t_o and report.verdict.verdict == AONT
        for row in report.rows:
            assert (row.formula is not None) == formula_holds
            assert row.within is not False  # the interval auto picks holds
            assert row.oracle == entropy_oracle.conditional_entropy(array, model, row.x, row.y)
            assert row.h_x == entropy_oracle.subset_entropy(array, model, row.x)
            assert row.stat_distance == entropy_oracle.statistical_distance(array, model, row.x, row.y)
            if row.formula is not None:
                # left to right: from Python 3.12 on, sum() compensates
                h_cols = reduce(add, (column_entropy(model, i) for i in range(1, array.s + 1)), 0.0)
                h_y = entropy_oracle.subset_entropy(array, model, row.y) if row.y else 0.0
                assert row.formula == h_cols - h_y


# 7-digit primes; any four of them multiply past 2^80
_SEVEN_DIGIT_PRIMES = (1337647, 1602077, 3188131, 3529423, 3674287, 6050381, 6195401, 7206817)


def _sd_array(rng: random.Random, kind: str, s: int, v: int) -> AontArray:
    """table3 (weak-only at (1, 2)), or a linear array over Z_v as it is, with
    the outputs of two rows swapped, or with its last output column set to 0,
    so that every y with another symbol there has no row (neither)."""
    if kind == "table3":
        return builtin("table3")
    while True:
        matrix = matrix_from_rows(v, [[rng.randrange(v) for _ in range(s)] for _ in range(s)])
        if matrix.is_invertible():
            break
    rows = [list(row) for row in linear_aont(matrix).rows]
    if kind == "swapped":
        a, b = rng.sample(range(len(rows)), 2)
        rows[a][s:], rows[b][s:] = rows[b][s:], rows[a][s:]
    elif kind == "neither":
        for row in rows:
            row[-1] = 0
    return AontArray(Alphabet(v), s, tuple(map(tuple, rows)))


@given(
    st.integers(0, 10**9),
    st.sampled_from(("linear", "swapped", "neither", "table3")),
    st.sampled_from(("with-zeros", "big-primes")),
)
@settings(max_examples=120, deadline=None)
def test_stat_distance_matches_fraction_reference_on_both_paths(seed, kind, prior):
    """SD sums along the X-major joint when X has no more codes than Y, and
    down each y-column otherwise; both must equal the Fraction reference bit
    for bit, also where some y has zero mass and where D exceeds 2^80."""
    rng = random.Random(seed)
    s, v = rng.choice(((4, 2), (4, 3))) if prior == "big-primes" else rng.choice(((2, 3), (2, 5), (3, 2), (3, 3)))
    array = _sd_array(rng, kind, s, v)
    s, v = array.s, array.v
    if prior == "big-primes":
        model = make_independent_model([masses_over(rng, v, p) for p in rng.sample(_SEVEN_DIGIT_PRIMES, s)])
    else:
        model = make_independent_model([_random_masses(rng, v) for _ in range(s)])
    weights, denominator = prior_weights(array, model)
    assert prior != "big-primes" or s < 4 or denominator > 2**80
    inputs, outputs = range(1, s + 1), range(s + 1, 2 * s + 1)
    # X one input, Y every output: v X codes by v^s Y codes; then the reverse
    for pair in (SubsetPair((rng.choice(inputs),), outputs), SubsetPair(inputs, (2 * s,))):
        joint = pair_joint(array, weights, denominator, pair)
        assert (len(joint.x) <= len(joint.y)) == (len(pair.x) == 1)
        if kind == "neither":
            assert 0 in joint.y
        assert joint.stat_distance() == entropy_oracle.statistical_distance(array, model, pair.x, pair.y)


def _formula_array(rng: random.Random, kind: str) -> AontArray:
    """A random output block, a random linear array, a Cauchy array (a
    transform at every (t, t)) or one with the outputs of two rows swapped."""
    if kind in ("random", "linear"):
        s, v = rng.choice(((1, 2), (2, 2), (2, 3), (3, 2), (3, 3)))
        if kind == "linear":
            return _sd_array(rng, kind, s, v)
        inputs = itertools.product(range(v), repeat=s)
        return AontArray(Alphabet(v), s, tuple(x + tuple(rng.randrange(v) for _ in range(s)) for x in inputs))
    s, v = rng.choice(((1, 2), (2, 5), (3, 7)))
    points = rng.sample(range(v), 2 * s)
    cauchy = [[pow(a - b, -1, v) for b in points[s:]] for a in points[:s]]
    rows = [list(row) for row in linear_aont(matrix_from_rows(v, cauchy)).rows]
    if kind == "swapped":
        a, b = rng.sample(range(len(rows)), 2)
        rows[a][s:], rows[b][s:] = rows[b][s:], rows[a][s:]
    return AontArray(Alphabet(v), s, tuple(map(tuple, rows)))


@given(st.integers(0, 10**9), st.sampled_from(("random", "linear", "cauchy", "swapped")))
@settings(max_examples=150, deadline=None)
def test_formula_applies_exactly_where_the_symmetric_rule_holds(seed, kind):
    """The closed form raises iff the symmetric tag's rule fails at
    (|X|, s - |Y|), and is otherwise the report row's formula, bit for bit."""
    rng = random.Random(seed)
    array = _formula_array(rng, kind)
    s = array.s
    model = _random_model(rng, s, array.v)
    for _ in range(4):
        x = rng.sample(range(1, s + 1), rng.randint(1, s))
        # |Y| = s - |X| half the time, where the rule can hold
        y_size = s - len(x) if rng.random() < 0.5 else rng.randint(0, s)
        pair = SubsetPair(x, rng.sample(range(s + 1, 2 * s + 1), y_size))
        t_i, t_o = len(pair.x), s - len(pair.y)
        verdict = classify(array, t_i, t_o).verdict if t_i <= t_o else None
        if _mismatch(SYMMETRIC, verdict, model, t_i, t_o) is not None:
            with pytest.raises(FormulaPreconditionError):
                conditional_entropy_formula(array, model, pair)
        else:
            report = build_report(array, model, t_i, t_o, pairs=[pair])
            assert conditional_entropy_formula(array, model, pair) == report.row_for(pair.x, pair.y).formula
