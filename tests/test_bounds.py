import json
import random
import re
from fractions import Fraction as F
from math import log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aontlab import (
    ASYMMETRIC,
    ASYMMETRIC_GIVEN_HY,
    NONUNIFORM_EXACT,
    SYMMETRIC,
    WEAK,
    WEAK_GIVEN_HY,
    Distribution,
    bounds_asymmetric,
    bounds_asymmetric_given_hy,
    bounds_symmetric,
    bounds_weak,
    bounds_weak_given_hy,
    compare,
    conditional_entropy,
    exact_block_dependent,
    exact_nonuniform_le_t,
    make_block_dependent_model,
    make_independent_model,
    subset_entropy,
    uniform,
    uniform_model,
)
from aontlab.arrays import AONT, NEITHER, WEAK_AONT_ONLY
from aontlab.bounds import ALL_TAGS, BLOCK_EXACT, EntropyInterval, auto_tag, check_tolerance, checked_rule, interval_for
from aontlab.coding import left_sum
from aontlab.entropy import SubsetPair
from aontlab.models import column_entropy
from aontlab.errors import (
    BlockTooLargeError,
    ClassificationMismatchError,
    InvalidParametersError,
    OutputEntropyRangeError,
    TooManyNonuniformError,
)
from aontlab.demos import run_demo
from aontlab.report import build_report, report_to_json_dict, report_to_table

from conftest import cross_version_model, example1_model, example3_model, example4_model, random_independent_model


def test_symmetric_interval_example1():
    iv = bounds_symmetric(example1_model(), 1)
    assert iv.lower == pytest.approx(1.172980, abs=1e-6)
    assert iv.upper == pytest.approx(1.298795, abs=1e-6)
    assert not iv.exact


def test_symmetric_interval_uniform_is_point():
    for t in (1, 2):
        iv = bounds_symmetric(uniform_model(3, 3), t)
        assert iv.exact
        assert iv.lower == pytest.approx(t * log2(3), abs=1e-12)


def test_symmetric_upper_is_min_column_entropy():
    model = make_independent_model([uniform(3), (F(1, 3), F(1, 6), F(1, 2))])
    iv = bounds_symmetric(model, 1)
    assert iv.upper == pytest.approx(1.459148, abs=1e-6)


def test_exact_nonuniform_example2():
    model = make_independent_model([uniform(3), (F(1, 3), F(1, 6), F(1, 2))])
    assert exact_nonuniform_le_t(model, 1) == pytest.approx(1.459148, abs=1e-6)


def test_exact_nonuniform_all_uniform():
    assert exact_nonuniform_le_t(uniform_model(2, 3), 2) == pytest.approx(2 * log2(3), abs=1e-9)


def test_exact_nonuniform_too_many():
    with pytest.raises(TooManyNonuniformError):
        exact_nonuniform_le_t(example1_model(), 1)


def test_exact_block_dependent_values():
    joint = Distribution(2, 2, (F(1, 2), F(0), F(0), F(1, 2)))
    model = make_block_dependent_model(3, 2, (1, 2), joint)
    assert exact_block_dependent(model, 2) == pytest.approx(1.0, abs=1e-12)

    joint1 = Distribution(2, 1, (F(1, 3), F(2, 3)))
    model1 = make_block_dependent_model(3, 2, (1,), joint1)
    assert exact_block_dependent(model1, 2) == pytest.approx(1.918296, abs=1e-6)

    empty = make_block_dependent_model(2, 3, (), None)
    assert exact_block_dependent(empty, 1) == pytest.approx(log2(3), abs=1e-12)


def test_exact_block_dependent_block_too_large():
    joint = Distribution(2, 2, (F(1, 2), F(0), F(0), F(1, 2)))
    model = make_block_dependent_model(3, 2, (1, 2), joint)
    with pytest.raises(BlockTooLargeError):
        exact_block_dependent(model, 1)


def test_asymmetric_interval_example3():
    iv = bounds_asymmetric(example3_model(), 1, 2, x_cols=(1,))
    assert iv.lower == pytest.approx(0.946003, abs=1e-5)
    assert iv.upper == pytest.approx(1.459148, abs=1e-5)
    # X is a set: a repeated column counts once, in the size and in H(X)
    assert bounds_asymmetric(example3_model(), 1, 2, x_cols=(3, 3)) == bounds_asymmetric(
        example3_model(), 1, 2, x_cols=(3,)
    )


def test_asymmetric_uniform_is_point():
    iv = bounds_asymmetric(uniform_model(3, 3), 1, 2)
    assert iv.exact and iv.lower == pytest.approx(log2(3), abs=1e-9)


def test_asymmetric_reduces_to_symmetric_at_equal_t():
    model = example1_model()
    sym = bounds_symmetric(model, 1)
    asym = bounds_asymmetric(model, 1, 1)
    assert asym.lower == pytest.approx(sym.lower, abs=1e-12)
    assert asym.upper == pytest.approx(sym.upper, abs=1e-12)


def test_asymmetric_given_hy_contains_example3(table2):
    model = example3_model()
    h_y = subset_entropy(table2, model, (5,))
    iv = bounds_asymmetric_given_hy(model, 1, 2, h_y)
    assert iv.contains(1.459148, 1e-5)


def test_given_hy_uniform_collapses():
    model = uniform_model(3, 3)
    h_y = (3 - 2) * log2(3)
    iv = bounds_asymmetric_given_hy(model, 1, 2, h_y)
    assert iv.exact and iv.lower == pytest.approx(log2(3), abs=1e-9)


def test_given_hy_equal_t_recovers_closed_form():
    model = example1_model()
    total = sum(
        subset_entropy_col
        for subset_entropy_col in (
            model.columns[0].entropy_bits(),
            model.columns[1].entropy_bits(),
        )
    )
    iv = bounds_asymmetric_given_hy(model, 1, 1, 1.2)
    assert iv.lower == pytest.approx(total - 1.2, abs=1e-9)
    assert iv.upper == pytest.approx(total - 1.2, abs=1e-9)


def test_given_hy_range_check():
    with pytest.raises(OutputEntropyRangeError):
        bounds_asymmetric_given_hy(example3_model(), 1, 2, 10.0)
    with pytest.raises(OutputEntropyRangeError):
        bounds_weak_given_hy(example4_model(), 1, 2, 5.0)


def test_weak_interval_example4():
    iv = bounds_weak(example4_model(), 1, 2, x_cols=(1,))
    assert iv.lower == pytest.approx(0.144611, abs=1e-5)
    assert iv.upper == pytest.approx(0.811278, abs=1e-5)
    assert bounds_weak(example3_model(), 1, 2, x_cols=(3, 3, 3)) == bounds_weak(example3_model(), 1, 2, x_cols=(3,))


# s = 3 in both models; labels 0 and -1 once read H(X_3) and H(X_2) from the end
@pytest.mark.parametrize("x_cols", [(0,), (4,), (-1,)])
def test_asymmetric_interval_rejects_x_outside_the_inputs(x_cols):
    with pytest.raises(InvalidParametersError, match="outside inputs 1..3"):
        bounds_asymmetric(example3_model(), 1, 2, x_cols=x_cols)


@pytest.mark.parametrize("x_cols", [(0,), (4,), (-1,)])
def test_weak_interval_rejects_x_outside_the_inputs(x_cols):
    with pytest.raises(InvalidParametersError, match="outside inputs 1..3"):
        bounds_weak(example4_model(), 1, 2, x_cols=x_cols)


def test_weak_interval_uniform():
    iv = bounds_weak(uniform_model(3, 2), 1, 2, x_cols=(1,))
    assert iv.lower == pytest.approx(3 - 1 - log2(3), abs=1e-9)
    assert iv.upper == pytest.approx(1.0, abs=1e-12)


def test_weak_log_term_vanishes_at_equal_t():
    # v^(s-t) - v^(s-t) + 1 = 1, so the relaxation adds nothing
    model = example1_model()
    weak = bounds_weak(model, 1, 1)
    sym = bounds_symmetric(model, 1)
    assert weak.upper == pytest.approx(sym.upper, abs=1e-12)


def test_parameter_validation():
    model = example1_model()
    with pytest.raises(InvalidParametersError):
        bounds_symmetric(model, 0)
    with pytest.raises(InvalidParametersError):
        bounds_asymmetric(model, 2, 1)
    with pytest.raises(InvalidParametersError):
        bounds_symmetric(uniform_model(2, 3), 3)
    with pytest.raises(InvalidParametersError, match="X must be non-empty"):
        bounds_asymmetric(example3_model(), 1, 2, x_cols=())
    with pytest.raises(InvalidParametersError, match=r"X subset \(1, 2\) must have size t_i=1"):
        bounds_asymmetric(example3_model(), 1, 2, x_cols=(1, 2))
    with pytest.raises(InvalidParametersError, match=r"degenerate interval \[2.0, 1.0\]"):
        EntropyInterval(2.0, 1.0, SYMMETRIC)


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_interval_nesting(seed):
    rng = random.Random(seed)
    s, v = 3, 3
    model = random_independent_model(rng, s, v)
    t_i = rng.randint(1, s)
    t_o = rng.randint(t_i, s)
    weak = bounds_weak(model, t_i, t_o)
    asym = bounds_asymmetric(model, t_i, t_o)
    assert weak.lower <= asym.lower + 1e-9
    assert asym.upper <= weak.upper + 1e-9
    if t_i == t_o:
        sym = bounds_symmetric(model, t_i)
        assert asym.lower <= sym.lower + 1e-9
        assert sym.upper <= asym.upper + 1e-9


def test_compare_example1(table1):
    cmp = compare(table1, example1_model(), SubsetPair((1,), (3,)), SYMMETRIC)
    assert cmp.within
    assert not cmp.attains_lower and not cmp.attains_upper
    assert cmp.observed == pytest.approx(1.196889, abs=1e-6)


def test_compare_example3_attains_upper(table2):
    cmp = compare(table2, example3_model(), SubsetPair((1,), (5,)), ASYMMETRIC)
    assert cmp.within and cmp.attains_upper


def test_compare_exact_example2(table1):
    model = make_independent_model([uniform(3), (F(1, 3), F(1, 6), F(1, 2))])
    for x in ((1,), (2,)):
        for y in ((3,), (4,)):
            cmp = compare(table1, model, SubsetPair(x, y), NONUNIFORM_EXACT)
            assert cmp.within and cmp.interval.exact
            assert cmp.observed == pytest.approx(1.459148, abs=1e-6)


def test_compare_classification_mismatch(table3):
    # a weak-only array cannot be compared against the full-transform bounds
    with pytest.raises(ClassificationMismatchError):
        compare(table3, example4_model(), SubsetPair((1,), (4,)), ASYMMETRIC)


def test_compare_weak_tag_accepts_full_transform(table2):
    cmp = compare(table2, example3_model(), SubsetPair((1,), (4,)), WEAK)
    assert cmp.within


def test_symmetric_cap_only_for_symmetric(table2):
    # the min-entropy cap genuinely fails in the asymmetric case
    model = example3_model()
    min_cap = min(model.columns[i].entropy_bits() for i in range(3))
    observed = conditional_entropy(table2, model, SubsetPair((1,), (5,)))
    assert observed > min_cap + 1e-3


def test_min_entropy_cap_is_symmetric_upper_bound():
    model = example3_model()
    hs = sorted(model.columns[i].entropy_bits() for i in range(3))
    assert bounds_symmetric(model, 1).upper == hs[0]
    assert bounds_symmetric(model, 2).upper == hs[0] + hs[1]
    with pytest.raises(InvalidParametersError):
        bounds_symmetric(make_block_dependent_model(3, 3, (), None), 1)
    for t in (0, 4, -1):  # outside 1..s, where no pair has |X| = t
        with pytest.raises(InvalidParametersError, match="need 1 <= t_i <= t_o <= s"):
            bounds_symmetric(model, t)


def test_left_sum_is_a_plain_left_fold():
    hs = [column_entropy(cross_version_model(), i) for i in (1, 2, 3)]
    total = 0.0
    for h in hs:
        total += h
    assert left_sum(hs) == total
    assert repr(left_sum(hs)) == "2.977747220100814"
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0  # a compensated sum gives 2.0
    assert left_sum([]) == 0.0


def test_bounds_are_the_same_double_on_every_python():
    # at t = s the interval is [sum of H(X_i), sum of the s smallest]: both
    # add all three entropies left to right
    iv = bounds_symmetric(cross_version_model(), 3)
    assert repr(iv.lower) == repr(iv.upper) == "2.977747220100814"


def _block_model(s: int, v: int, block: tuple[int, ...]):
    size = v ** len(block)
    return make_block_dependent_model(s, v, block, Distribution(v, len(block), (F(1, size),) * size))


@pytest.mark.parametrize(
    "verdict, model, t_i, t_o, expected",
    [
        (AONT, example3_model(), 1, 1, SYMMETRIC),
        (AONT, example3_model(), 1, 2, ASYMMETRIC),
        (WEAK_AONT_ONLY, example3_model(), 1, 2, WEAK),
        (WEAK_AONT_ONLY, example3_model(), 2, 2, WEAK),
        (NEITHER, example3_model(), 1, 1, None),
        (AONT, _block_model(3, 2, (1,)), 1, 1, BLOCK_EXACT),
        (AONT, _block_model(3, 2, (1, 2)), 2, 2, BLOCK_EXACT),
        (AONT, _block_model(3, 2, ()), 1, 1, BLOCK_EXACT),
        (AONT, _block_model(3, 2, (1, 2)), 1, 1, None),
        (AONT, _block_model(3, 2, (1,)), 1, 2, None),
        (WEAK_AONT_ONLY, _block_model(3, 2, (1,)), 1, 2, None),
    ],
)
def test_auto_bound_tag_choice(verdict, model, t_i, t_o, expected):
    assert auto_tag(verdict, model, t_i, t_o) == expected


def test_interval_for_checks_the_tag_rule(table1):
    pair = SubsetPair((1,), (3,))
    with pytest.raises(BlockTooLargeError):
        interval_for(table1, _block_model(2, 3, (1, 2)), pair, BLOCK_EXACT)
    with pytest.raises(InvalidParametersError):
        interval_for(table1, _block_model(2, 3, (1,)), pair, SYMMETRIC)
    with pytest.raises(InvalidParametersError):
        interval_for(table1, example1_model(), pair, BLOCK_EXACT)
    with pytest.raises(ClassificationMismatchError):
        interval_for(table1, example1_model(), SubsetPair((1,), ()), SYMMETRIC)
    with pytest.raises(InvalidParametersError):
        interval_for(table1, example1_model(), pair, "no-such-tag")
    assert interval_for(table1, _block_model(2, 3, (1,)), pair, BLOCK_EXACT).exact


# (tag, array fixture, model, t_i, t_o): one case for each tag where its rule holds
_TAG_CASES = [
    (SYMMETRIC, "table1", example1_model, 1, 1),
    (NONUNIFORM_EXACT, "table1", lambda: make_independent_model([uniform(3), (F(1, 3), F(1, 6), F(1, 2))]), 1, 1),
    (BLOCK_EXACT, "table1", lambda: _block_model(2, 3, (1,)), 1, 1),
    (ASYMMETRIC, "table2", example3_model, 1, 2),
    (ASYMMETRIC_GIVEN_HY, "table2", example3_model, 1, 2),
    (WEAK, "table3", example4_model, 1, 2),
    (WEAK_GIVEN_HY, "table3", example4_model, 1, 2),
]


@pytest.mark.parametrize("tag, fixture, make_model, t_i, t_o", _TAG_CASES, ids=[c[0] for c in _TAG_CASES])
def test_compare_matches_report_row_for_every_tag(request, tag, fixture, make_model, t_i, t_o):
    array = request.getfixturevalue(fixture)
    model = make_model()
    report = build_report(array, model, t_i, t_o, bounds_tag=tag)
    assert report.bounds_tag == tag
    for row in report.rows:
        pair = SubsetPair(row.x, row.y)
        cmp = compare(array, model, pair, tag)
        iv = cmp.interval
        assert (cmp.observed, iv.source, iv.lower, iv.upper, cmp.within, cmp.attains_lower, cmp.attains_upper) == (
            row.oracle, row.source, row.lower, row.upper, row.within, row.attains_lower, row.attains_upper
        )
        assert cmp.tolerance == report.tolerance
        assert interval_for(array, model, pair, tag) == cmp.interval


def test_report_rejects_pair_of_wrong_shape(table2):
    with pytest.raises(InvalidParametersError, match="needs"):
        build_report(table2, example3_model(), 1, 2, pairs=[SubsetPair((1,), (4, 5))])
    with pytest.raises(InvalidParametersError, match="outside outputs"):
        build_report(table2, example3_model(), 1, 2, pairs=[SubsetPair((1,), (3,))])
    with pytest.raises(InvalidParametersError, match="no pairs"):
        build_report(table2, example3_model(), 1, 2, pairs=[])


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_compare_rejects_tolerance_that_is_not_finite_and_non_negative(table3, tolerance):
    """inf would make every placement within and attained, nan or -1 none."""
    with pytest.raises(InvalidParametersError, match="tolerance must be a number >= 0"):
        compare(table3, example4_model(), SubsetPair((1,), (6,)), WEAK, tolerance=tolerance)
    with pytest.raises(InvalidParametersError, match="tolerance must be a number >= 0"):
        bounds_weak(example4_model(), 1, 2).contains(0.5, tolerance)


@pytest.mark.parametrize("bad", [True, None, "0.1"])
def test_tolerance_that_is_not_a_real_number_is_refused(table1, bad):
    """True was read as 1; None and "0.1" escaped as TypeError."""
    message = f"tolerance {re.escape(repr(bad))} is not a real number"
    for call in (
        lambda: check_tolerance(bad),
        lambda: bounds_symmetric(example1_model(), 1).contains(1.0, bad),
        lambda: build_report(table1, example1_model(), 1, 1, tolerance=bad),
        lambda: run_demo(1, bad),
    ):
        with pytest.raises(InvalidParametersError, match=message):
            call()


def test_rational_tolerance_is_stored_as_a_float(table1):
    """A Fraction was stored as given, and JSON and the table could not render it."""
    report = build_report(table1, example1_model(), 1, 1, tolerance=F(1, 10))
    assert type(report.tolerance) is float and report.tolerance == 0.1
    assert json.loads(json.dumps(report_to_json_dict(report)))["tolerance"] == 0.1
    assert "tolerance: 0.1" in report_to_table(report)


@pytest.mark.parametrize("bad", [True, None, "1.0"])
def test_output_entropy_that_is_not_a_real_number_is_refused(bad):
    """True was read as 1; "1.0" escaped as TypeError."""
    for bound in (bounds_asymmetric_given_hy, bounds_weak_given_hy):
        with pytest.raises(InvalidParametersError, match=rf"H\(Y\) {re.escape(repr(bad))} is not a real number"):
            bound(example3_model(), 1, 2, bad)


def test_reals_past_the_largest_double_are_refused_by_range():
    """isfinite() of such an int escaped as OverflowError."""
    with pytest.raises(InvalidParametersError, match="tolerance must be a number >= 0 and finite"):
        check_tolerance(10**400)
    with pytest.raises(OutputEntropyRangeError):
        bounds_asymmetric_given_hy(example3_model(), 1, 2, 10**400)


def test_compare_rejects_pair_wider_than_the_array(table1):
    with pytest.raises(ClassificationMismatchError, match=r"\|X\|=2 exceeds s - \|Y\|=1"):
        compare(table1, example1_model(), SubsetPair((1, 2), (3,)), WEAK)


@pytest.mark.parametrize("t", [0, 3])
def test_exact_block_dependent_checks_t_like_its_siblings(t):
    empty = make_block_dependent_model(2, 3, (), None)
    with pytest.raises(InvalidParametersError, match=f"need 1 <= t_i <= t_o <= s, got t_i={t}, t_o={t}, s=2"):
        exact_block_dependent(empty, t)


def test_unknown_bound_tag_names_the_known_ones(table1):
    expected = rf"unknown bound tag 'nope'; know \({', '.join(repr(tag) for tag in ALL_TAGS)}\)"
    with pytest.raises(InvalidParametersError, match=expected):
        checked_rule("nope", AONT, example1_model(), 1, 1)
    with pytest.raises(InvalidParametersError, match=expected):
        build_report(table1, example1_model(), 1, 1, bounds_tag="nope")
