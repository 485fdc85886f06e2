import codecs
import random
from dataclasses import replace
import re
import sys
import time
import tracemalloc
from array import array as int_array
from bisect import bisect_right
from functools import lru_cache, partial
from itertools import accumulate, product
from operator import ne
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aontlab import (
    AONT,
    NEITHER,
    WEAK_AONT_ONLY,
    AontArray,
    SearchResult,
    admissible_pairs,
    bounds_symmetric,
    bounds_weak,
    build_report,
    check_covering,
    check_unbiased,
    classify,
    dump_array_csv,
    iter_linear_aont_matrices,
    load_array_csv,
    parse_array,
    parse_array_csv,
    save_array_csv,
    search_linear,
)
from aontlab import arrays as arrays_module
from aontlab.arrays import (
    Alphabet,
    ClassificationVerdict,
    _count_projection,
    _pack,
    column_set_family,
    field_typecode,
    passes_unbiased_family,
    projection_codes,
    symbol_typecode,
)
from aontlab.bounds import compare
from aontlab.coding import _linear_columns, _pivot_product, _rank_split, encode_tuple, is_prime
from aontlab.constructions import _TABLE1, _TABLE3, builtin, identity_matrix, linear_aont, matrix_from_rows
from aontlab.demos import run_demo
from aontlab.entropy import SubsetPair, _accumulate, conditional_entropy, subset_entropy
from aontlab.errors import (
    DimensionMismatchError,
    InvalidParametersError,
    OversizedColumnSetError,
    UnknownNameError,
    UnknownSymbolError,
)
from aontlab.models import uniform_model

import arrays_oracle
import entropy_oracle
from conftest import random_independent_model
from matrix_search_oracle import expand


def test_parse_table1_glyphs(table1):
    assert table1.v == 3 and table1.s == 2
    assert table1.n_rows == 9
    assert table1.alphabet.glyphs == ("a", "b", "c")
    assert table1.rows[1] == (0, 1, 2, 1)  # a,b,c,b


def test_parse_table3(table3):
    assert table3.v == 2 and table3.s == 3
    assert table3.rows[4] == (1, 0, 0, 0, 1, 1)  # b,a,a,a,b,b


def test_parse_rejects_wrong_row_count():
    rows = [("a", "a", "a", "a")] * 8
    with pytest.raises(DimensionMismatchError):
        parse_array(rows, v=3, s=2)


def test_parse_rejects_wrong_width(table1):
    rows = [row[:3] for row in table1.rows]
    with pytest.raises(DimensionMismatchError):
        parse_array(rows, v=3, s=2)


def test_parse_rejects_unknown_symbol():
    rows = [(0, 1, 2, 3)] + [(0, 0, 0, 0)] * 8
    with pytest.raises(UnknownSymbolError):
        parse_array(rows, v=3, s=2)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", [1], True, False])
def test_array_rejects_non_integer_symbols(bad):
    with pytest.raises(UnknownSymbolError, match="row 1 holds symbol"):
        AontArray(Alphabet(3), 1, ((0, bad), (1, 0), (2, 1)))


def test_array_rejects_float_equal_to_an_earlier_symbol():
    # a set of the symbols holds the integer 1 and drops the later 1.0
    with pytest.raises(UnknownSymbolError, match="row 3 holds symbol 1.0, not an integer"):
        AontArray(Alphabet(3), 1, ((0, 1), (1, 0), (2, 1.0)))


@given(
    shape=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (257, 1)]),
    linear=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_arrays_built_from_rows_and_from_columns_agree(shape, linear, seed):
    v, s = shape
    rng = random.Random(seed)
    if linear:  # some verdicts are aont
        rows = expand(tuple(tuple(rng.randrange(v) for _ in range(s)) for _ in range(s)), s, v)
    else:
        rows = [tuple(rng.randrange(v) for _ in range(2 * s)) for _ in range(v**s)]
    by_rows = AontArray(Alphabet(v), s, rows)
    by_columns = AontArray.from_columns(Alphabet(v), s, [list(column) for column in zip(*rows)])
    assert by_rows.rows == by_columns.rows == tuple(rows)
    assert by_rows.packed_columns == by_columns.packed_columns
    assert by_rows == by_columns and hash(by_rows) == hash(by_columns)
    for t_o in range(1, s + 1):
        for t_i in range(1, t_o + 1):
            assert classify(by_rows, t_i, t_o) == classify(by_columns, t_i, t_o)
    swapped = [rows[1], rows[0], *rows[2:]]
    assert (AontArray(Alphabet(v), s, swapped) == by_rows) == (swapped == rows)


@pytest.mark.parametrize(
    "columns, error, message",
    [
        ([(0, 1, 2)], DimensionMismatchError, "expected 2 columns"),
        ([(0, 1, 2), (0, 1)], DimensionMismatchError, "column 2 has 2 rows, expected 3"),
        ([(0, 1, 2), (0, 3, 1)], UnknownSymbolError, "column 2 holds symbol 3 outside 0..2"),
        ([(0, -1, 2), (0, 1, 2)], UnknownSymbolError, "column 1 holds a symbol that is not an integer in 0..2"),
        ([(0, 1, 2), (0, 1.0, 2)], UnknownSymbolError, "column 2 holds a symbol that is not an integer in 0..2"),
        ([(0, 1, 2), [0, True, 2]], UnknownSymbolError, "column 2 holds a symbol that is not an integer in 0..2"),
    ],
)
def test_from_columns_rejects_bad_columns(columns, error, message):
    with pytest.raises(error, match=message):
        AontArray.from_columns(Alphabet(3), 1, columns)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Alphabet(1), InvalidParametersError, "alphabet size must be >= 2, got 1"),
        (lambda: Alphabet(3, ("a", "b")), InvalidParametersError, "need 3 distinct glyphs"),
        (lambda: Alphabet(2, ("a", "a")), InvalidParametersError, "need 2 distinct glyphs"),
        (lambda: Alphabet(2, ("a", "b")).symbol("c"), UnknownSymbolError, "token 'c' not in alphabet"),
        # '²' is a digit to str.isdigit() but not to int()
        (lambda: parse_array_csv("0,²\n1,1\n2,0\n"), UnknownSymbolError, "token '²' is not a symbol"),
        # '٢' is a digit to int() too, but a symbol is written in ASCII digits
        (lambda: parse_array_csv("0,٢\n1,1\n2,0\n"), UnknownSymbolError, "token '٢' is not a symbol"),
        (lambda: parse_array_csv("# v=٣ s=1\n0,0\n"), DimensionMismatchError, "malformed header: 'v=٣ s=1'"),
        (lambda: parse_array_csv("# v=+3 s=0_1\n0,0\n"), DimensionMismatchError, r"malformed header: 'v=\+3 s=0_1'"),
        (lambda: symbol_typecode(2**64 + 1), InvalidParametersError, "do not fit in 64 bits"),
        (lambda: AontArray(Alphabet(2), 0, []), InvalidParametersError, "s must be >= 1, got 0"),
        (lambda: AontArray(Alphabet(2), 1, [(0, 1)]), DimensionMismatchError, "expected 2 rows for v=2, s=1, got 1"),
        (lambda: AontArray.from_columns(Alphabet(2), 0, []), InvalidParametersError, "s must be >= 1, got 0"),
        (lambda: check_unbiased(builtin("table1"), []), InvalidParametersError, "column set must be non-empty"),
        (lambda: parse_array([(0, 0)], 1, 1), InvalidParametersError, "need v >= 2 and s >= 1, got v=1, s=1"),
        (lambda: parse_array_csv("# v=1 s=1\n0,0\n"), InvalidParametersError, "need v >= 2 and s >= 1"),
        # a three-digit token is left to the token path by the whole-text decode
        (lambda: parse_array_csv("# v=2 s=1\n100,1\n1,0\n"), UnknownSymbolError, "symbol 100 outside 0..1"),
        # column labels were read by int(), or not read at all
        (lambda: check_unbiased(builtin("table1"), [1.5]), InvalidParametersError, "column label 1.5 is not an integer"),
        (lambda: check_unbiased(builtin("table1"), [True]), InvalidParametersError, "column label True is not"),
        (lambda: check_unbiased(builtin("table1"), ["1"]), InvalidParametersError, "column label '1' is not"),
        (lambda: SubsetPair((True,), (3,)), InvalidParametersError, "column label True is not an integer"),
        (lambda: SubsetPair((1,), ("3",)), InvalidParametersError, "column label '3' is not an integer"),
        (
            lambda: conditional_entropy(builtin("table1"), uniform_model(2, 3), SubsetPair((1.5,), (3,))),
            InvalidParametersError,
            "column label 1.5 is not an integer",
        ),
        # shape integers escaped as TypeError or AttributeError, or a fractional size was kept
        (lambda: Alphabet(2.5), InvalidParametersError, "alphabet size 2.5 is not an integer"),
        (lambda: Alphabet(True), InvalidParametersError, "alphabet size True is not an integer"),
        (lambda: AontArray(Alphabet(2), "1", [(0, 0), (1, 1)]), InvalidParametersError, "s '1' is not"),
        (lambda: AontArray.from_columns(Alphabet(2), True, [[0, 1]] * 2), InvalidParametersError, "s True is not"),
        (lambda: parse_array([(0, 0), (1, 1)], "2", 1), InvalidParametersError, "v '2' is not an integer"),
        (lambda: parse_array([(0, 0), (1, 1)], 2, 1.5), InvalidParametersError, "s 1.5 is not an integer"),
        # a name that cannot be hashed escaped as TypeError from a dict lookup
        (lambda: builtin([]), UnknownNameError, r"no built-in array named \[\]"),
        (lambda: run_demo([]), UnknownNameError, r"demo \[\] does not exist"),
        (
            lambda: compare(builtin("table1"), uniform_model(2, 3), SubsetPair((1,), (3,)), which=[]),
            InvalidParametersError,
            r"unknown bound tag \[\]",
        ),
        # an array stores a bool as 0 or 1: this built rows ((1, 0), (0, 1))
        (lambda: parse_array([(True, False), (False, True)], 2, 1), UnknownSymbolError, "row 1 holds symbol True"),
    ],
)
def test_each_array_rule_raises_its_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_array_equality_with_another_type_is_not_implemented(table1):
    assert table1.__eq__(5) is NotImplemented
    assert table1 != 5


def test_parse_infers_glyphs_by_first_appearance():
    # first row introduces only "z"; mapping must follow row-major appearance
    rows = [("z", "z"), ("z", "q")]
    arr = parse_array(rows, v=2, s=1)
    assert arr.rows == ((0, 0), (0, 1))
    assert arr.alphabet.glyphs == ("z", "q")


def test_unbiased_table1_input_pair(table1):
    rep = check_unbiased(table1, (1, 2))
    assert rep.holds and rep.expected_multiplicity == 1


def test_unbiased_table1_single_output(table1):
    rep = check_unbiased(table1, (3,))
    assert rep.holds and rep.expected_multiplicity == 3


def test_unbiased_table3_mixed_pair_fails(table3):
    rep = check_unbiased(table3, (1, 4))
    assert not rep.holds
    assert rep.expected_multiplicity == 2
    # lexicographically first bad tuple is (a,a), observed once
    assert rep.first_violation == (0, 0) and rep.observed_count == 1
    # and the (a,b) projection indeed appears three times
    count_ab = sum(1 for row in table3.rows if (row[0], row[3]) == (0, 1))
    assert count_ab == 3


def test_covering_table3_mixed_pair_holds(table3):
    assert check_covering(table3, (1, 4)).holds


def test_covering_fails_on_constant_column(table1):
    rows = [row[:2] + (0,) + row[3:] for row in table1.rows]
    arr = AontArray(table1.alphabet, 2, tuple(rows))
    rep = check_covering(arr, (3,))
    assert not rep.holds and rep.first_violation == (1,) and rep.observed_count == 0


def test_oversized_column_set(table1):
    with pytest.raises(OversizedColumnSetError):
        check_unbiased(table1, (1, 2, 3))
    with pytest.raises(OversizedColumnSetError):
        check_covering(table1, (1, 2, 3))


def test_classify_golden(table1, table2, table3):
    assert classify(table1, 1, 1).verdict == AONT
    assert classify(table2, 1, 2).verdict == AONT
    v3 = classify(table3, 1, 2)
    assert v3.verdict == WEAK_AONT_ONLY
    assert v3.witness == (1, 4)


def test_classify_neither_reports_covering_witness(table1):
    rows = [row[:2] + (0,) + row[3:] for row in table1.rows]
    arr = AontArray(table1.alphabet, 2, tuple(rows))
    verdict = classify(arr, 1, 1)
    assert verdict.verdict == NEITHER
    assert verdict.witness is not None


def _random_matrix(v: int, s: int, rng: random.Random, singular: bool) -> list[list[int]]:
    """A random s x s matrix over Z_v: its last row a combination of the
    rows above if `singular`, else invertible when v is prime."""
    while True:
        m = [[rng.randrange(v) for _ in range(s)] for _ in range(s)]
        if singular:
            weights = [rng.randrange(v) for _ in range(s - 1)]
            m[-1] = [sum(w * row[j] for w, row in zip(weights, m)) % v for j in range(s)]
            return m
        if not is_prime(v) or _pivot_product(m, v):
            return m


@settings(max_examples=100, deadline=None)
@given(s=st.integers(1, 4), v=st.sampled_from([2, 3, 5]), data=st.data())
def test_rank_split_matches_the_rank_of_the_column_set(s, v, data):
    """Columns C of [I_s | M] are independent mod v iff the rows of M
    outside I, restricted to J, have full column rank."""
    m = data.draw(st.lists(st.lists(st.integers(0, v - 1), min_size=s, max_size=s), min_size=s, max_size=s))
    cols = tuple(sorted(data.draw(st.sets(st.integers(1, 2 * s), min_size=1, max_size=s))))
    rows, j_cols = _rank_split(s, cols)
    expanded = [[int(r == c - 1) if c <= s else m[r][c - s - 1] for c in cols] for r in range(s)]
    by_split = not j_cols or _pivot_product([[m[r][j] for j in j_cols] for r in rows], v) != 0
    assert by_split == (_pivot_product(expanded, v) != 0)


def _linear_array(m: list[list[int]], v: int) -> AontArray:
    """{(x, xM)} over Z_v for every x in lexicographic order, for any M."""
    s = len(m)
    identity = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    return AontArray.from_columns(Alphabet(v), s, list(_linear_columns(identity + list(zip(*m)), v)))


def _classify_case(kind: str, v: int, s: int, rng: random.Random) -> AontArray:
    """A linear array {(x, xM)} with M invertible (when v is prime) or
    singular, a linear array with its rows shuffled, a random bijection or a
    random output block, with up to two edits: swap the outputs of two rows
    (both blocks stay bijections) or overwrite one symbol."""
    inputs = list(product(range(v), repeat=s))
    if kind in ("linear", "singular", "permuted"):
        rows = [list(row) for row in _linear_array(_random_matrix(v, s, rng, kind == "singular"), v).rows]
        if kind == "permuted":
            rng.shuffle(rows)
    elif kind == "bijection":
        outputs = rng.sample(inputs, len(inputs))
        rows = [list(x + y) for x, y in zip(inputs, outputs)]
    else:
        rows = [list(x) + [rng.randrange(v) for _ in range(s)] for x in inputs]
    for _ in range(rng.randrange(3)):
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        if rng.random() < 0.7:
            rows[a][s:], rows[b][s:] = rows[b][s:], rows[a][s:]
        else:
            rows[a][rng.randrange(2 * s)] = rng.randrange(v)
    return AontArray(Alphabet(v), s, tuple(map(tuple, rows)))


@given(
    kind=st.sampled_from(["linear", "singular", "permuted", "bijection", "random"]),
    shape=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (4, 2), (2, 3), (3, 3), (2, 4)]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_one_pass_classify_matches_two_pass_reference(kind, shape, seed, data):
    v, s = shape
    array = _classify_case(kind, v, s, random.Random(seed))
    # a weak-aont-only verdict needs a mixed set smaller than s, i.e. t_i < t_o < s
    pairs = [(t_i, t_o) for t_o in range(1, s + 1) for t_i in range(1, t_o + 1)]
    t_i, t_o = data.draw(st.sampled_from(pairs + [(t_i, t_o) for t_i, t_o in pairs if t_i < t_o < s] * 4))
    with mock.patch.object(arrays_module, "_count_projection", wraps=_count_projection) as counting:
        verdict = classify(array, t_i, t_o)
    assert verdict == arrays_oracle.classify(array, t_i, t_o)
    assert counting.called == _routes_to_counting(array, verdict)


def _linear_rows(array: AontArray) -> list[tuple[int, ...]] | None:
    """The rows (x, xM) for every x in lexicographic order, row i of M read
    from the array's row with input e_i, expanded row by row; None over a
    composite v."""
    v, s = array.v, array.s
    if not is_prime(v):
        return None
    m = [array.rows[v ** (s - 1 - i)][s:] for i in range(s)]
    return [
        x + tuple(sum(xi * row[j] for xi, row in zip(x, m)) % v for j in range(s))
        for x in product(range(v), repeat=s)
    ]


def _routes_to_counting(array: AontArray, verdict: ClassificationVerdict) -> bool:
    """Must `classify` count to reach this verdict? Over a prime v, with the
    array off {(x, xM)} in fewer than N/2 rows D, only a rank-deficient set
    of k columns is counted, and only when |D| >= v^(k-1)(v-1), among the
    sets the verdict loop visits: up to the witness for neither, else all."""
    linear = _linear_rows(array)
    if linear is None:
        return True
    d = sum(map(ne, array.rows, linear))
    if 2 * d >= array.n_rows:
        return True
    v = array.v
    family = list(column_set_family(array.s, verdict.t_i, verdict.t_o))
    if verdict.verdict == NEITHER:
        family = family[: family.index(verdict.witness) + 1]
    return any(
        len({array.project(row, cols) for row in linear}) < v ** len(cols) and d >= v ** (len(cols) - 1) * (v - 1)
        for cols in family
    )


@given(
    shape=st.sampled_from(
        [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)]
    ),
    singular=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=120, deadline=None)
def test_corrected_linear_classify_matches_reference(shape, singular, seed):
    """A linear array with 0-4 edits (output swaps, input swaps, symbol
    overwrites in any column), each edited row drawn half the time from the
    unit rows that M is read from: at every (t_i, t_o) the verdict and
    witness are counting's, and counting runs exactly where the correction
    rule says it must."""
    v, s = shape
    rng = random.Random(seed)
    rows = [list(row) for row in _linear_array(_random_matrix(v, s, rng, singular), v).rows]
    units = [v ** (s - 1 - i) for i in range(s)]

    def row_index() -> int:
        return rng.choice(units) if rng.random() < 0.5 else rng.randrange(len(rows))

    for _ in range(rng.randrange(5)):
        a, b, edit = row_index(), row_index(), rng.randrange(3)
        if edit == 0:
            rows[a][s:], rows[b][s:] = rows[b][s:], rows[a][s:]
        elif edit == 1:
            rows[a][:s], rows[b][:s] = rows[b][:s], rows[a][:s]
        else:
            rows[a][rng.randrange(2 * s)] = rng.randrange(v)
    array = AontArray(Alphabet(v), s, tuple(map(tuple, rows)))
    for t_o in range(1, s + 1):
        for t_i in range(1, t_o + 1):
            with mock.patch.object(arrays_module, "_count_projection", wraps=_count_projection) as counting:
                verdict = classify(array, t_i, t_o)
            assert verdict == arrays_oracle.classify(array, t_i, t_o)
            assert counting.called == _routes_to_counting(array, verdict)


def _other_symbol(symbol: int, v: int, rng: random.Random) -> int:
    """A symbol other than `symbol`. Past a byte, 0 and v - 1 trade places:
    over v = 257 they are the items 0x0000 and 0x0100, which differ in the
    high byte only."""
    if v > 256 and symbol in (0, v - 1):
        return v - 1 - symbol
    return (symbol + rng.randrange(1, v)) % v


@given(
    shape=st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 2), (7, 2), (11, 2), (257, 1), (257, 2)]),
    off=st.sampled_from(["edits", "below-half", "half", "above-half"]),
    singular=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_linear_matrix_finds_the_rows_off_linear_in_one_mask(shape, off, singular, seed):
    """Against the row-by-row expansion: M is read from the unit rows, D is
    exactly the rows that differ, in order, and the columns are those of
    {(x, xM)}, each the array's own where it agrees; None exactly when
    2|D| >= N. The edits are 0-4 overwritten symbols, half of them in the
    unit rows M is read from, or (N-1)//2, N//2 or (N+1)//2 rows outside
    them, so 2|D| lands on N - 1 or N + 1 (odd N), N - 2 or N (even N)."""
    v, s = shape
    rng = random.Random(seed)
    rows = [list(row) for row in _linear_array(_random_matrix(v, s, rng, singular), v).rows]
    n = len(rows)
    units = [v ** (s - 1 - i) for i in range(s)]
    if off == "edits":
        edited = [rng.choice(units) if rng.random() < 0.5 else rng.randrange(n) for _ in range(rng.randrange(5))]
    else:
        d = {"below-half": (n - 1) // 2, "half": n // 2, "above-half": (n + 1) // 2}[off]
        edited = rng.sample(sorted(set(range(n)) - set(units)), d)
    for r in edited:
        c = rng.randrange(2 * s)
        rows[r][c] = _other_symbol(rows[r][c], v, rng)
    array = AontArray(Alphabet(v), s, tuple(map(tuple, rows)))
    linear = _linear_rows(array)
    differing = [r for r, (row, expected) in enumerate(zip(array.rows, linear)) if row != expected]
    found = arrays_module._linear_matrix(array)
    assert (found is None) == (2 * len(differing) >= n)
    if found is None:
        return
    m, d_rows, columns = found
    assert m == [array.rows[u][s:] for u in units]
    assert d_rows == differing
    assert [list(column) for column in columns] == [list(column) for column in zip(*linear)]
    assert [column is own for column, own in zip(columns, array.columns)] == [
        column == own for column, own in zip(columns, array.columns)
    ]


class _Counted(Exception):
    """Raised in place of projection counting, to show a verdict needs none."""


def _counting_raises(monkeypatch) -> None:
    def count(array, cols):
        raise _Counted(cols)

    monkeypatch.setattr(arrays_module, "_count_projection", count)


def _cauchy(s: int, v: int) -> list[list[int]]:
    """1 / (x - y) mod v for x in 0..s-1 and y in s..2s-1: every square
    submatrix is invertible, so its linear array is a full transform at
    every (t_i, t_o)."""
    return [[pow(x - y, -1, v) for y in range(s, 2 * s)] for x in range(s)]


def test_linear_arrays_are_decided_by_rank_without_counting(monkeypatch, table1, table2):
    """table1 and table2 are linear over Z_3 through their glyphs; one
    output swap makes the Cauchy array non-linear, and it is counted."""
    cauchy = linear_aont(matrix_from_rows(11, _cauchy(5, 11)))
    columns = [int_array("B", column) for column in cauchy.columns]
    for column in columns[5:]:
        column[1], column[2] = column[2], column[1]
    swapped = AontArray.from_columns(cauchy.alphabet, 5, columns)
    built_ins = {(table1, t): arrays_oracle.classify(table1, *t) for t in [(1, 1), (1, 2), (2, 2)]}
    built_ins |= {(table2, t): arrays_oracle.classify(table2, *t) for t in [(1, 1), (1, 2), (2, 3), (3, 3)]}
    _counting_raises(monkeypatch)
    for t_i, t_o in [(1, 1), (2, 4), (3, 3)]:
        assert classify(cauchy, t_i, t_o) == ClassificationVerdict(t_i, t_o, AONT)
    for (array, t), verdict in built_ins.items():
        assert classify(array, *t) == verdict
    with pytest.raises(_Counted):
        classify(swapped, 1, 1)


@pytest.mark.parametrize(
    "m, v",
    [([[0]], 3), ([[1, 2], [2, 4]], 5), ([[1, 0, 2], [0, 3, 1], [1, 3, 3]], 7), ([[1, 1, 0, 1]] * 4, 2)],
)
def test_singular_linear_array_fails_on_its_output_block(monkeypatch, m, v):
    array = _linear_array(m, v)
    s = len(m)
    pairs = [(t_i, t_o) for t_o in range(1, s + 1) for t_i in range(1, t_o + 1)]
    oracle = [arrays_oracle.classify(array, t_i, t_o) for t_i, t_o in pairs]
    _counting_raises(monkeypatch)
    for (t_i, t_o), verdict in zip(pairs, oracle):
        expected = ClassificationVerdict(t_i, t_o, NEITHER, witness=array.output_columns)
        assert classify(array, t_i, t_o) == verdict == expected


def test_recognition_compares_every_column(monkeypatch):
    """Rows listed in the order x -> xA keep the outputs of the linear array
    {(y, yAM)}, so only the input columns tell it apart, in most rows: it is
    counted. A single overwritten input symbol is one row off the linear
    array, and the correction decides it without counting. Both match the
    reference."""
    v, s = 5, 2
    base = _linear_array(_cauchy(s, v), v)
    # x -> xA for A = [[1, 2], [0, 1]]: (x0, x1) -> (x0, 2 x0 + x1)
    order = [encode_tuple((x0, (2 * x0 + x1) % v), v) for x0, x1 in product(range(v), repeat=s)]
    reordered = AontArray(base.alphabet, s, tuple(base.rows[r] for r in order))
    rows = [list(row) for row in base.rows]
    rows[7][1] = (rows[7][1] + 1) % v
    overwritten = AontArray(base.alphabet, s, tuple(map(tuple, rows)))
    oracle = {array: arrays_oracle.classify(array, 1, 1) for array in (reordered, overwritten)}
    with monkeypatch.context() as patch:
        _counting_raises(patch)
        with pytest.raises(_Counted):
            classify(reordered, 1, 1)
        assert classify(overwritten, 1, 1) == oracle[overwritten]
    assert classify(reordered, 1, 1) == oracle[reordered]


def test_cauchy_array_three_rows_off_linear_is_decided_without_counting(monkeypatch):
    """s=4, v=11: two rows trade outputs and a third has one output symbol
    changed, none of them a unit row. Every set of a Cauchy matrix has full
    rank, so every verdict comes from the correction."""
    v, s = 11, 4
    array = linear_aont(matrix_from_rows(v, _cauchy(s, v)))
    columns = [int_array("B", column) for column in array.columns]
    for column in columns[s:]:
        column[100], column[9000] = column[9000], column[100]
    columns[6][5000] = (columns[6][5000] + 3) % v
    edited = AontArray.from_columns(array.alphabet, s, columns)
    pairs = [(t_i, t_o) for t_o in range(1, s + 1) for t_i in range(1, t_o + 1)]
    oracle = [arrays_oracle.classify(edited, t_i, t_o) for t_i, t_o in pairs]
    assert {verdict.verdict for verdict in oracle} == {NEITHER}
    _counting_raises(monkeypatch)
    assert [classify(edited, t_i, t_o) for t_i, t_o in pairs] == oracle


def _traded_outputs(swaps: int) -> AontArray:
    """v=3, s=3: on columns (1, 4) the codes (0, 0) and (2, 2) each have
    N/v^2 = 3 rows, none a unit row; the first `swaps` rows of each trade
    their outputs, so (0, 0) keeps 3 - swaps rows and 2 * swaps rows are
    off linear."""
    v, s = 3, 3
    base = linear_aont(matrix_from_rows(v, [[1, 1, 1], [1, 1, 2], [1, 2, 1]]))
    rows = [list(row) for row in base.rows]
    lose = [r for r, row in enumerate(rows) if (row[0], row[3]) == (0, 0)]
    gain = [r for r, row in enumerate(rows) if (row[0], row[3]) == (2, 2)]
    for a, b in zip(lose[:swaps], gain):
        rows[a][s:], rows[b][s:] = rows[b][s:], rows[a][s:]
    return AontArray(base.alphabet, s, tuple(map(tuple, rows)))


def test_correction_finds_a_code_that_loses_every_row(monkeypatch):
    """Trading all 3 rows of code (0, 0) on columns (1, 4) empties it. With
    6 rows off linear, more than the 3 a code holds, the correction must
    count each code's losses and gains to see it."""
    s = 3
    array = _traded_outputs(3)
    pairs = [(t_i, t_o) for t_o in range(1, s + 1) for t_i in range(1, t_o + 1)]
    oracle = [arrays_oracle.classify(array, t_i, t_o) for t_i, t_o in pairs]
    assert oracle[pairs.index((1, 2))] == ClassificationVerdict(1, 2, NEITHER, witness=(1, 4))
    _counting_raises(monkeypatch)
    assert [classify(array, t_i, t_o) for t_i, t_o in pairs] == oracle


@pytest.mark.parametrize("swaps, properties", [(2, (False, True)), (3, (False, False))])
def test_net_loss_rule_decides_covering_past_a_codes_rows(monkeypatch, swaps, properties):
    """With 2 * swaps >= 4 rows off linear, more than the 3 rows a code holds
    on (1, 4), code (0, 0) keeps a row after 2 swaps and none after 3: a
    full-rank set is covering iff no code's net loss reaches N/v^k."""
    s = 3
    array = _traded_outputs(swaps)
    pairs = [(t_i, t_o) for t_o in range(1, s + 1) for t_i in range(1, t_o + 1)]
    oracle = [arrays_oracle.classify(array, t_i, t_o) for t_i, t_o in pairs]
    _counting_raises(monkeypatch)
    assert arrays_module._set_properties(array)((1, 4)) == properties
    assert [classify(array, t_i, t_o) for t_i, t_o in pairs] == oracle


def test_near_linear_array_past_a_byte_is_decided_without_counting(monkeypatch):
    """v = 257 stores two bytes per symbol: an edit from 0 to 256 changes only
    the high byte, and still marks its row as off the linear array."""
    v, s = 257, 2
    array = linear_aont(matrix_from_rows(v, [[1, 2], [3, 5]]))
    columns = [int_array(column.typecode, column) for column in array.columns]
    for column in columns[s:]:
        column[100], column[5000] = column[5000], column[100]
    row = next(r for r in range(v + 1, v * v) if columns[2][r] == 0)
    columns[2][row] = 256
    edited = AontArray.from_columns(array.alphabet, s, columns)
    pairs = [(1, 1), (1, 2), (2, 2)]
    oracle = [arrays_oracle.classify(edited, t_i, t_o) for t_i, t_o in pairs]
    _counting_raises(monkeypatch)
    assert [classify(edited, t_i, t_o) for t_i, t_o in pairs] == oracle
    assert classify(array, 1, 1) == ClassificationVerdict(1, 1, AONT)


def test_classify_parameter_checks(table1):
    with pytest.raises(InvalidParametersError):
        classify(table1, 0, 1)
    with pytest.raises(InvalidParametersError):
        classify(table1, 2, 1)
    # the family the verdict quantifies over, and the report's pairs, share the rule
    for s, t_i, t_o in ((3, 2, 1), (2, 3, 1)):
        with pytest.raises(InvalidParametersError, match="need 1 <= t_i <= t_o <= s"):
            admissible_pairs(s, t_i, t_o)


def test_integral_float_shape_read_as_int(table1):
    rows, columns = table1.rows, [list(c) for c in table1.columns]
    alphabet = Alphabet(3.0, table1.alphabet.glyphs)
    built = [
        parse_array(rows, 3.0, 2.0, table1.alphabet.glyphs),
        AontArray(alphabet, 2.0, rows),
        AontArray.from_columns(alphabet, 2.0, columns),
    ]
    assert built == [table1] * 3
    assert all(type(a.v) is type(a.s) is int for a in built)


# every public entry point that takes t_i and t_o from a caller, t given for both
_T_CALLS = [
    pytest.param(lambda t: classify(builtin("table1"), t, t), id="classify"),
    pytest.param(lambda t: list(column_set_family(2, t, t)), id="column_set_family"),
    pytest.param(lambda t: admissible_pairs(2, t, t), id="admissible_pairs"),
    pytest.param(lambda t: bounds_symmetric(uniform_model(2, 3), t), id="bounds_symmetric"),
    pytest.param(lambda t: bounds_weak(uniform_model(2, 3), t, t), id="bounds_weak"),
    pytest.param(lambda t: search_linear(2, 3, t, t), id="search_linear"),
    pytest.param(lambda t: list(iter_linear_aont_matrices(2, 3, t, t)), id="iter_linear_aont_matrices"),
    pytest.param(lambda t: build_report(builtin("table1"), uniform_model(2, 3), t, t), id="build_report"),
]


@pytest.mark.parametrize("call", _T_CALLS)
@pytest.mark.parametrize("t", [True, "1", 1.5])
def test_t_that_is_not_an_integer_is_refused(call, t):
    """Each once escaped as TypeError, and True was read as 1."""
    with pytest.raises(InvalidParametersError, match=f"t_i {t!r} is not an integer"):
        call(t)


@pytest.mark.parametrize("call", _T_CALLS)
def test_integral_float_t_read_as_int(call):
    got, want = call(1.0), call(1)
    if isinstance(want, SearchResult):
        got, want = replace(got, elapsed_seconds=0.0), replace(want, elapsed_seconds=0.0)
    # repr tells 1.0 from 1 in a verdict's or a result's t_i and t_o
    assert repr(got) == repr(want)


def test_t_o_read_on_its_own(table1):
    with pytest.raises(InvalidParametersError, match="t_o True is not an integer"):
        classify(table1, 1, True)
    assert repr(classify(table1, 1, 2.0)) == repr(classify(table1, 1, 2))
    assert bounds_weak(uniform_model(2, 3), 1, 2.0) == bounds_weak(uniform_model(2, 3), 1, 2)


def test_family_enumeration_order():
    fam = list(column_set_family(2, 1, 1))
    assert fam == [(1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
    fam_asym = list(column_set_family(3, 1, 2))
    assert fam_asym[:2] == [(1, 2, 3), (4, 5, 6)]
    assert fam_asym[2:5] == [(1, 4), (1, 5), (1, 6)]


def test_fast_family_check_matches_classify(table1, table2, table3):
    for arr, t_i, t_o in [(table1, 1, 1), (table2, 1, 2), (table2, 2, 2), (table3, 1, 2)]:
        assert passes_unbiased_family(arr, t_i, t_o) == (classify(arr, t_i, t_o).verdict == AONT)


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_row_permutation_invariance(rnd):
    arr = builtin("table1")
    rows = list(arr.rows)
    rnd.shuffle(rows)
    shuffled = AontArray(arr.alphabet, arr.s, tuple(rows))
    for cols in column_set_family(arr.s, 1, 1):
        assert check_unbiased(arr, cols) == check_unbiased(shuffled, cols)
        assert check_covering(arr, cols) == check_covering(shuffled, cols)


@pytest.mark.parametrize("name,t", [("table1", 1), ("table2", 1)])
def test_unbiased_implies_covering(name, t):
    arr = builtin(name)
    for cols in column_set_family(arr.s, t, t if name == "table1" else 2):
        if check_unbiased(arr, cols).holds:
            assert check_covering(arr, cols).holds


def test_symmetric_aont_is_asymmetric_at_smaller_ti():
    # the full symmetric verdict at t implies the (t', t) verdict for t' <= t
    arr = builtin("table2")
    assert classify(arr, 1, 2).verdict == AONT
    # table1 at t=1: only t'=1 available, trivially equal
    t1 = builtin("table1")
    assert classify(t1, 1, 1).verdict == AONT


def test_blockwise_unbiased_implies_bijection(table1, table2):
    for arr in (table1, table2):
        assert check_unbiased(arr, arr.input_columns).holds
        assert check_unbiased(arr, arr.output_columns).holds
        inputs = [arr.project(row, arr.input_columns) for row in arr.rows]
        outputs = [arr.project(row, arr.output_columns) for row in arr.rows]
        assert len(set(inputs)) == arr.n_rows
        assert len(set(outputs)) == arr.n_rows


def test_csv_round_trip_is_byte_exact(table1, table3):
    for arr, text in [(table1, _TABLE1), (table3, _TABLE3)]:
        canonical = text.strip() + "\n"
        parsed = parse_array_csv(canonical)
        assert dump_array_csv(parsed, header=False) == canonical
        # header round trip too
        with_header = dump_array_csv(parsed, header=True)
        assert dump_array_csv(parse_array_csv(with_header), header=True) == with_header


def test_csv_header_inference_and_conflicts():
    text = "# v=3 s=2\n" + _TABLE1.strip() + "\n"
    arr = parse_array_csv(text)
    assert (arr.v, arr.s) == (3, 2)


def test_csv_truncated_file_rejected():
    lines = _TABLE1.strip().splitlines()[:-1]
    with pytest.raises(DimensionMismatchError):
        parse_array_csv("\n".join(lines))


# (v, s, typecode): v^(2s) on both sides of 2^8, 2^16 and 2^32, and on each
# of them, since a field of w bytes holds codes below 2^(8w)
_PACKED_SHAPES = [
    (2, 1, "B"),
    (3, 2, "B"),
    (2, 4, "B"),
    (17, 1, "H"),
    (3, 3, "H"),
    (2, 8, "H"),
    (7, 3, "I"),
    (2, 9, "I"),
    (256, 2, "I"),
    (257, 2, "Q"),
]


@lru_cache(maxsize=4)
def _random_array(v: int, s: int, seed: int) -> AontArray:
    """Random symbols, with the last row all v - 1 so the largest code occurs."""
    rng = random.Random(seed)
    symbols = iter(rng.choices(range(v), k=(v**s - 1) * 2 * s))
    rows = [*zip(*[symbols] * (2 * s)), (v - 1,) * (2 * s)]
    return AontArray(Alphabet(v), s, tuple(rows))


@given(shape=st.sampled_from(_PACKED_SHAPES), seed=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_projection_kernel_matches_per_row_reference(shape, seed, data):
    v, s, typecode = shape
    array = _random_array(v, s, seed)
    order = data.draw(st.permutations(range(1, 2 * s + 1)))
    cols = tuple(order[: data.draw(st.integers(0, 2 * s))])
    codes = projection_codes(array, cols)
    assert codes.typecode == typecode
    assert list(codes) == arrays_oracle.codes(array, cols)
    if v ** len(cols) > 1 << 16:
        return  # the reference totals are dense over all v^|cols| codes
    if len(cols) <= s:  # the only column sets counting is asked for
        assert _count_projection(array, cols) == arrays_oracle.count(array, cols)
    rng = random.Random(seed)
    weights = [rng.choice((0, 1, rng.getrandbits(70))) for _ in range(array.n_rows)]
    assert _accumulate(array, weights, cols) == arrays_oracle.accumulate(array, weights, cols)


@given(kind=st.sampled_from(["B", "H", "bytes", "list"]), typecode=st.sampled_from("BHIQ"), data=st.data())
@settings(max_examples=200, deadline=None)
def test_pack_matches_per_item_packing(kind, typecode, data):
    """Stored 'B' columns (v <= 256) and `bytes` are widened by strided copy,
    stored 'H' columns (v > 256) and lists by the `array` constructor; every
    one packs as the per-item conversion does, into fields of any width."""
    top = min(256 if kind in ("B", "bytes") else 1 << 16, 1 << 8 * int_array(typecode).itemsize)
    n_rows = data.draw(st.integers(0, 40))
    symbols = st.lists(st.integers(0, top - 1), min_size=n_rows, max_size=n_rows)
    build = {"B": partial(int_array, "B"), "H": partial(int_array, "H"), "bytes": bytes, "list": list}[kind]
    columns = [build(items) for items in data.draw(st.lists(symbols, max_size=3))]
    expected = tuple(int.from_bytes(int_array(typecode, list(column)), sys.byteorder) for column in columns)
    assert _pack(columns, typecode) == expected
    if kind in ("B", "bytes"):  # as a machine of the other byte order lays out its fields
        other, size = "big" if sys.byteorder == "little" else "little", int_array(typecode).itemsize
        with mock.patch.object(arrays_module.sys, "byteorder", other):
            packed = _pack(columns, typecode)
        fields = [b"".join(x.to_bytes(size, other) for x in column) for column in columns]
        assert packed == tuple(int.from_bytes(column, other) for column in fields)


def test_subset_entropy_past_s_columns_sums_the_codes_that_occur():
    """256^4 = 2^32 codes for 2^16 rows: a dense list would not fit in
    memory, so H is summed over the codes that occur, in code order. The
    inputs are enumerated, so the rows carry the prior; the outputs are random."""
    outputs = (row[2:] for row in _random_array(256, 2, 0).rows)
    array = AontArray(Alphabet(256), 2, tuple((r // 256, r % 256, *out) for r, out in enumerate(outputs)))
    model = random_independent_model(random.Random(1), 2, 256)
    masses = {}
    for code, row in zip(arrays_oracle.codes(array, (1, 2, 3, 4)), array.rows):
        masses[code] = masses.get(code, 0) + entropy_oracle.joint_probability(model, row[:2])
    expected = entropy_oracle.entropy_bits(masses[code] for code in sorted(masses))
    assert subset_entropy(array, model, (4, 1, 3, 2)) == expected


@pytest.mark.parametrize("cols", [(0,), (5,), (1, 5), (-1, 2)])
def test_projection_codes_reject_labels_outside_1_to_2s(table1, cols):
    """Label 0 once read column 2s from the end, and 2s + 1 raised IndexError."""
    with pytest.raises(InvalidParametersError, match=r"outside 1\.\.4"):
        projection_codes(table1, cols)


@pytest.mark.parametrize("label", [True, 1.5, "1"])
def test_projection_codes_refuse_a_label_that_is_not_an_integer(table1, label):
    """`True` once projected onto column 1, and 1.5 or "1" escaped as TypeError."""
    with pytest.raises(InvalidParametersError, match=r"column label .* is not an integer"):
        projection_codes(table1, [label])


def test_projection_codes_read_integral_floats_in_order_with_repeats(table1):
    codes = projection_codes(table1, [2.0, 1, 2.0])
    assert codes == projection_codes(table1, (2, 1, 2))
    assert list(codes) == arrays_oracle.codes(table1, (2, 1, 2))


@pytest.mark.parametrize("cols", [(0,), (5,), (1, 5), (-1, 2)])
def test_check_unbiased_rejects_labels_outside_1_to_2s(table1, cols):
    with pytest.raises(InvalidParametersError, match=r"outside 1\.\.4"):
        check_unbiased(table1, cols)


@pytest.mark.parametrize("cols", [(0,), (5,), (1, 5), (-1, 2)])
def test_check_covering_rejects_labels_outside_1_to_2s(table1, cols):
    with pytest.raises(InvalidParametersError, match=r"outside 1\.\.4"):
        check_covering(table1, cols)


def test_projection_codes_need_at_most_2s_columns_in_64_bits(table1):
    with pytest.raises(OversizedColumnSetError):
        projection_codes(table1, (1, 2, 3, 4, 1))
    assert field_typecode(2**32, 1) == "Q"
    with pytest.raises(InvalidParametersError):
        field_typecode(2**32 + 1, 1)


def test_csv_parse_peak_memory_is_a_small_multiple_of_the_text():
    # row tuples peaked at ~22x the text; a file with its header takes the
    # whole-text decode (by stride for v=7, two-digit for v=11 and 97), one
    # without it the per-token decode
    v11 = dump_array_csv(linear_aont(identity_matrix(4, 11)))
    for name, text, n_rows in [
        ("v=7, s=4", dump_array_csv(linear_aont(identity_matrix(4, 7))), 7**4),
        ("v=11, s=4", v11, 11**4),
        ("v=97, s=2", dump_array_csv(linear_aont(identity_matrix(2, 97))), 97**2),
        ("v=11, s=4 without header", v11.partition("\n")[2], 11**4),
    ]:
        tracemalloc.start()
        try:
            array = parse_array_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert array.n_rows == n_rows
        assert peak < 12 * len(text), name


def test_canonical_files_take_the_whole_text_decode(monkeypatch, tmp_path):
    rng = random.Random(7)
    # one-digit bodies from v <= 10 (the stride decode), two-digit ones above
    shapes = [(2, 1), (10, 2), (11, 3), (97, 2), (100, 1), (7, 2), (2, 3), (5, 4)]
    arrays = [AontArray(Alphabet(v), s, [[rng.randrange(v) for _ in range(2 * s)] for _ in range(v**s)]) for v, s in shapes]
    texts = [dump_array_csv(array) for array in arrays]

    def unused(*args):
        raise AssertionError("decoded token by token")

    monkeypatch.setattr(arrays_module, "_decode_tokens", unused)
    for array, text in zip(arrays, texts):
        assert parse_array_csv(text) == array
    # load_array_csv reads each CRLF as LF, as text mode would
    path = tmp_path / "crlf.csv"
    path.write_bytes(texts[2].replace("\n", "\r\n").encode())
    assert load_array_csv(str(path)) == arrays[2]
    monkeypatch.undo()

    big = AontArray(Alphabet(101), 1, [[100 - r, r] for r in range(101)])
    for text in [dump_array_csv(big), texts[2].partition("\n")[2], texts[2].replace("\n", "\r\n")]:
        assert arrays_module._parse_canonical(text.encode()) is None


def test_csv_with_a_byte_order_mark_loads(tmp_path, table1):
    """An editor's UTF-8 CSV may start with a byte-order mark."""
    path = tmp_path / "table1.csv"
    path.write_bytes(b"\xef\xbb\xbf" + dump_array_csv(table1).encode())
    assert load_array_csv(str(path)) == table1


_HUGE_HEADER_TEXTS = [
    "# v=100 s=5\n0,0,0,0,0,0,0,0,0,0\n",
    "# v=100 s=4\n0,0,0,0,0,0,0,0\n",
    "# v=100 s=10\n" + ("0," * 19 + "0\n") * 30,
]


@pytest.mark.parametrize("text", _HUGE_HEADER_TEXTS, ids=["s=5", "s=4", "s=10"])
def test_header_with_more_rows_than_the_text_holds_is_declined_at_once(text):
    """The decode compares v^s with the text's size before it builds any
    row-sized pattern, so such a header costs no memory or time."""
    assert arrays_module._parse_canonical(text.encode()) is None
    with pytest.raises(DimensionMismatchError, match=r"expected 100+ rows, got"):
        parse_array_csv(text)


@pytest.mark.parametrize(
    "build",
    [
        lambda: AontArray(Alphabet(3), 10000, [(0, 1)]),
        lambda: AontArray.from_columns(Alphabet(3), 10000, [[0]] * 20000),
        lambda: parse_array([(0, 1)], 3, 100000000),
    ],
    ids=["rows", "columns", "parse"],
)
def test_row_count_far_below_v_to_the_s_is_refused_without_the_power(build):
    """3^10000 has 4772 digits, too many to print; 3^(10^8) takes seconds."""
    start = time.perf_counter()
    with pytest.raises(DimensionMismatchError, match=r"expected v\^s rows for v=3, s=10+, got "):
        build()
    assert time.perf_counter() - start < 2


_TOKENS =["0", "1", "2", "3", "-0", "07", "00", " 1", "2 ", " -1 ", "5", "a", "b", " c", "#0", "#1", "#2", "#3", "", "x y"]


@st.composite
def _token_tables(draw):
    """CSV text, or raw rows of ints or of mixed ints, strings and unhashable
    tokens, near a valid v^s x 2s shape."""
    v, s = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    n_rows = v**s + draw(st.sampled_from([0, 0, 0, -1, 1]))
    kind = draw(st.sampled_from(["csv", "csv", "ints", "mixed"]))
    if kind == "csv":
        cells = st.sampled_from(draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=v + 1, unique=True)))
    elif kind == "ints":
        cells = st.integers(-1, v)
    else:
        cells = st.one_of(st.integers(0, v - 1), st.sampled_from(["0", "1", "a", "#1", [0]]))
    widths = st.sampled_from([2 * s] * 12 + [2 * s - 1, 2 * s + 1])
    rows = [draw(st.lists(cells, min_size=w, max_size=w)) for w in draw(st.lists(widths, min_size=n_rows, max_size=n_rows))]
    if kind != "csv":
        return kind, (rows, v, s)
    header = draw(st.sampled_from(["", f"# v={v} s={s}\n", f"# v={v + 1} s={s}\n"]))
    return kind, header + "\n".join(",".join(row) for row in rows) + "\n"


_CANONICAL_TOKEN_EDITS = ["010", "100", "00", "-1", " 1", "a", "", "٢"]


def _splice(draw, text, old, new):
    """`text` with one occurrence of `old`, drawn by position, replaced by `new`."""
    starts = [i for i in range(len(text)) if text.startswith(old, i)]
    i = draw(st.sampled_from(starts))
    return text[:i] + new + text[i + len(old) :]


@st.composite
def _canonical_texts(draw):
    """A text as `dump_array_csv` writes it with its header, with one- or
    two-digit symbols, left as it is or with one token, layout or header
    edit. The edits that keep a one-digit body at 2 * 2s * v^s bytes are a
    `10` beside an empty token, a `,` swapped with the next `\n`, and a
    digit replaced by a letter, a space or str(v)."""
    v = draw(st.sampled_from([2, 3, 5, 7, 10, 11, 13, 97, 100, 101]))
    s = draw(st.integers(1, 2)) if v < 20 else 1
    rng = draw(st.randoms(use_true_random=False))
    rows = [[str(rng.randrange(v)) for _ in range(2 * s)] for _ in range(v**s)]
    header = "# v={v} s={s}"
    edit = draw(st.sampled_from(["none", "token", "layout", "header", "10 beside empty", "swap", "one other byte"]))
    r, c = rng.randrange(v**s), rng.randrange(2 * s)
    if edit == "token":
        rows[r][c] = draw(st.sampled_from(_CANONICAL_TOKEN_EDITS + [str(v)]))
    if edit == "one other byte":
        rows[r][c] = draw(st.sampled_from(["a", " ", str(v)]))
    if edit == "10 beside empty":
        c = min(c, 2 * s - 2)
        rows[r][c : c + 2] = draw(st.sampled_from([["10", ""], ["", "10"]]))
    body = "".join(",".join(row) + "\n" for row in rows)
    if edit == "swap":
        i = draw(st.sampled_from([i for i, char in enumerate(body) if char == ","]))
        j = body.index("\n", i)
        body = body[:i] + "\n" + body[i + 1 : j] + "," + body[j + 1 :]
    if edit == "layout":
        layout = draw(st.sampled_from(["no final newline", ("\n", "\r\n"), ("\n", "\n\n"), (",", ",,"), ("\n", ",")]))
        body = body[:-1] if layout == "no final newline" else _splice(draw, body, *layout)
    if edit == "header":
        header = draw(st.sampled_from(["#v={v} s={s}", "# v={v} s={s} ", "# s={s} v={v}", "# v={w} s={s}"]))
    return "csv", header.format(v=v, s=s, w=draw(st.sampled_from([v - 1, v + 1]))) + "\n" + body


def _outcome(parse, *args):
    try:
        result = parse(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else (result.alphabet, result.s, result.rows)


@given(st.one_of(_token_tables(), _canonical_texts()))
@settings(max_examples=500, deadline=None)
def test_parser_matches_per_token_reference(table):
    kind, source = table
    if kind == "csv":
        assert _outcome(parse_array_csv, source) == _outcome(arrays_oracle.parse_array_csv, source)
    else:
        assert _outcome(parse_array, *source) == _outcome(arrays_oracle.parse_array, *source)


@lru_cache(maxsize=2)
def _cauchy_v11_lines(s: int) -> tuple[str, list[str]]:
    """The header line and the rows, each with its newline, of the v=11
    Cauchy array of width 2s as `dump_array_csv` writes it."""
    header, body = dump_array_csv(linear_aont(matrix_from_rows(11, _cauchy(s, 11)))).split("\n", 1)
    assert len(body) > arrays_module._CHUNK  # the two-digit decode reads it in two or more chunks
    return header + "\n", body.splitlines(keepends=True)


_CHUNK_EDITS = ["none", "05", "105", "empty", ";", "swap", "no newline"]
_CHUNK_PLACES = ["first chunk", "middle chunk", "last chunk", "after a boundary"]


def _edited_cauchy_v11(s: int, edit: str, place: str) -> str:
    """The v=11 Cauchy text with one edit on one row: a one-digit token given
    a leading zero, a token made three digits, 12s digits or empty, a comma
    made `;`, the row's last comma swapped with its newline, its newline
    dropped (on the last row, no final newline), or a row of empty tokens
    put before it. The row is the first, the one holding the body's middle
    byte (in a middle chunk for s=4), the last, the first of the second
    chunk, or the last of the first."""
    header, lines = _cauchy_v11_lines(s)
    starts = list(accumulate(map(len, lines), initial=0))
    # a chunk ends at the first newline _CHUNK bytes or more into it
    boundary = starts.index("".join(lines).index("\n", arrays_module._CHUNK) + 1)
    r = {
        "first chunk": 0,
        "middle chunk": bisect_right(starts, starts[-1] // 2) - 1,
        "last chunk": len(lines) - 1,
        "after a boundary": boundary,
        "across a boundary": boundary - 1,
    }[place]
    tokens = lines[r][:-1].split(",")
    if edit == "05":
        c = next(c for c, token in enumerate(tokens) if len(token) == 1)
        tokens[c] = "0" + tokens[c]
    if edit in ("105", "long token", "empty"):
        tokens[0] = {"105": "105", "long token": "1" * 12 * s, "empty": ""}[edit]
    row = ",".join(tokens) + "\n"
    if edit == "empty row":
        row = "," * (2 * s - 1) + "\n" + row
    if edit == ";":
        row = row.replace(",", ";", 1)
    if edit == "swap":
        row = ",".join(tokens[:-1]) + "\n" + tokens[-1] + ","
    if edit == "no newline":
        row = row[:-1]
    return header + "".join(lines[:r]) + row + "".join(lines[r + 1 :])


@pytest.mark.parametrize("place", _CHUNK_PLACES)
@pytest.mark.parametrize("edit", _CHUNK_EDITS)
@pytest.mark.parametrize("s", [3, 4])
def test_parser_matches_per_token_reference_across_chunks(s, edit, place):
    """Bodies of two (s=3) and fifteen (s=4) chunks, each edit placed in the
    first, a middle or the last chunk, or on the first row after a boundary."""
    text = _edited_cauchy_v11(s, edit, place)
    assert _outcome(parse_array_csv, text) == _outcome(arrays_oracle.parse_array_csv, text)


@pytest.mark.parametrize(
    "edit, place", [("empty row", place) for place in _CHUNK_PLACES] + [("long token", "across a boundary")]
)
def test_rows_that_change_a_chunks_row_count_or_length_are_declined(edit, place):
    """A row of empty tokens adds a row but no symbol; a token of 12s digits
    on the row that ends the first chunk makes the chunk longer than any
    chunk of a canonical body."""
    text = _edited_cauchy_v11(3, edit, place)
    assert _outcome(parse_array_csv, text) == _outcome(arrays_oracle.parse_array_csv, text)


@pytest.mark.parametrize("header", [True, False], ids=["canonical", "no header"])
@pytest.mark.parametrize("v", [7, 11])
def test_files_with_crlf_cr_or_bom_load_as_text_mode_reads_them(monkeypatch, tmp_path, v, header):
    """A canonical file with CRLF, lone-CR or BOM line ends and prefixes is
    still decoded whole; one without a header is parsed token by token."""
    text = dump_array_csv(linear_aont(matrix_from_rows(v, _cauchy(3, v))), header=header)
    copies = {
        "lf": text.encode(),
        "crlf": text.replace("\n", "\r\n").encode(),
        "cr": text.replace("\n", "\r").encode(),
        "bom": codecs.BOM_UTF8 + text.encode(),
        "bom crlf": codecs.BOM_UTF8 + text.replace("\n", "\r\n").encode(),
    }
    expected = {}
    for name, data in copies.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        with open(path, encoding="utf-8-sig") as fh:  # universal newlines
            read = fh.read()
        assert read == text
        expected[path] = parse_array_csv(read)
    if header:
        monkeypatch.setattr(arrays_module, "_decode_tokens", mock.Mock(side_effect=AssertionError("token by token")))
    for path, array in expected.items():
        assert load_array_csv(str(path)) == array, path.name


@pytest.mark.parametrize(
    "data, error",
    [
        (b"# v=2 s=1\n0,1\n1,\xff\n", "byte 0xff in position 16: invalid start byte"),
        # positions count from after the byte-order mark, and count each \r
        (codecs.BOM_UTF8 + b"0,1\r\n1,\xff\r\n", "byte 0xff in position 7: invalid start byte"),
        # text mode read the first two bytes of a byte-order mark alone as an empty text
        (codecs.BOM_UTF8[:2], "bytes in position 0-1: unexpected end of data"),
    ],
    ids=["lf", "bom crlf", "part of a bom"],
)
def test_file_that_is_not_utf8_is_refused(tmp_path, data, error):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    message = f"{path} is not UTF-8 text: 'utf-8' codec can't decode {error}"
    with pytest.raises(UnknownSymbolError, match=re.escape(message)):
        load_array_csv(str(path))


def test_two_digit_file_load_peaks_below_three_times_the_file(tmp_path):
    """The file is read as bytes and its body decoded in row-aligned chunks;
    read as text and decoded whole, the peak was over 6x the file."""
    path = tmp_path / "c.csv"
    save_array_csv(linear_aont(matrix_from_rows(11, _cauchy(4, 11))), str(path))
    tracemalloc.start()
    try:
        array = load_array_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert array.n_rows == 11**4
    assert peak < 3 * path.stat().st_size


def test_saved_array_loads_back(tmp_path, table1):
    path = tmp_path / "table1.csv"
    save_array_csv(table1, str(path))
    assert path.read_text(encoding="utf-8") == dump_array_csv(table1)
    assert load_array_csv(str(path)) == table1
