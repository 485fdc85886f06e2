import random
import time
import tracemalloc
from array import array as int_array
from functools import lru_cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aontlab import (
    AONT,
    NEITHER,
    WEAK_AONT_ONLY,
    AontArray,
    admissible_pairs,
    check_covering,
    check_unbiased,
    classify,
    dump_array_csv,
    load_array_csv,
    parse_array,
    parse_array_csv,
    save_array_csv,
)
from aontlab import arrays as arrays_module
from aontlab.arrays import (
    Alphabet,
    ClassificationVerdict,
    _count_projection,
    column_set_family,
    field_typecode,
    passes_unbiased_family,
    projection_codes,
)
from aontlab.coding import _linear_column, _pivot_product, encode_tuple, is_prime
from aontlab.constructions import _TABLE1, _TABLE3, builtin, identity_matrix, linear_aont, matrix_from_rows
from aontlab.entropy import _accumulate, subset_entropy
from aontlab.errors import (
    DimensionMismatchError,
    InvalidParametersError,
    OversizedColumnSetError,
    UnknownSymbolError,
)

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


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", [1]])
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
    ],
)
def test_from_columns_rejects_bad_columns(columns, error, message):
    with pytest.raises(error, match=message):
        AontArray.from_columns(Alphabet(3), 1, columns)


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


def _linear_array(m: list[list[int]], v: int) -> AontArray:
    """{(x, xM)} over Z_v for every x in lexicographic order, for any M."""
    s = len(m)
    identity = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    return AontArray.from_columns(Alphabet(v), s, [_linear_column(c, v) for c in identity + list(zip(*m))])


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
    # no array over a composite v, and none whose inputs are out of order, is linear: it is counted
    if not is_prime(v) or [row[:s] for row in array.rows] != list(product(range(v), repeat=s)):
        assert counting.called


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
    {(y, yAM)}, so only the input columns tell it apart; so does a single
    overwritten input symbol. Both are counted, and match the reference."""
    v, s = 5, 2
    base = _linear_array(_cauchy(s, v), v)
    # x -> xA for A = [[1, 2], [0, 1]]: (x0, x1) -> (x0, 2 x0 + x1)
    order = [encode_tuple((x0, (2 * x0 + x1) % v), v) for x0, x1 in product(range(v), repeat=s)]
    reordered = AontArray(base.alphabet, s, tuple(base.rows[r] for r in order))
    rows = [list(row) for row in base.rows]
    rows[7][1] = (rows[7][1] + 1) % v
    overwritten = AontArray(base.alphabet, s, tuple(map(tuple, rows)))
    for array in (reordered, overwritten):
        oracle = arrays_oracle.classify(array, 1, 1)
        with monkeypatch.context() as patch:
            _counting_raises(patch)
            with pytest.raises(_Counted):
                classify(array, 1, 1)
        assert classify(array, 1, 1) == oracle


def test_classify_parameter_checks(table1):
    with pytest.raises(InvalidParametersError):
        classify(table1, 0, 1)
    with pytest.raises(InvalidParametersError):
        classify(table1, 2, 1)
    # the family the verdict quantifies over, and the report's pairs, share the rule
    for s, t_i, t_o in ((3, 2, 1), (2, 3, 1)):
        with pytest.raises(InvalidParametersError, match="need 1 <= t_i <= t_o <= s"):
            admissible_pairs(s, t_i, t_o)


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
    with pytest.raises(DimensionMismatchError):
        parse_array_csv(text, v=2)


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


def test_projection_codes_need_at_most_2s_columns_in_64_bits(table1):
    with pytest.raises(OversizedColumnSetError):
        projection_codes(table1, (1, 2, 3, 4, 1))
    assert field_typecode(2**32, 1) == "Q"
    with pytest.raises(InvalidParametersError):
        field_typecode(2**32 + 1, 1)


def test_csv_parse_peak_memory_is_a_small_multiple_of_the_text():
    # row tuples peaked at ~22x the text; a file with its header takes the
    # whole-text decode, one without it the per-token decode
    v11 = dump_array_csv(linear_aont(identity_matrix(4, 11)))
    for name, text, n_rows in [
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
    shapes = [(2, 1), (10, 2), (11, 3), (97, 2), (100, 1)]
    arrays = [AontArray(Alphabet(v), s, [[rng.randrange(v) for _ in range(2 * s)] for _ in range(v**s)]) for v, s in shapes]
    texts = [dump_array_csv(array) for array in arrays]

    def unused(*args):
        raise AssertionError("decoded token by token")

    monkeypatch.setattr(arrays_module, "_decode_tokens", unused)
    for array, text in zip(arrays, texts):
        assert parse_array_csv(text) == array
        assert parse_array_csv(text, v=array.v, s=array.s) == array
    # universal newlines turn CRLF into LF as the file is read
    path = tmp_path / "crlf.csv"
    path.write_bytes(texts[2].replace("\n", "\r\n").encode())
    assert load_array_csv(str(path)) == arrays[2]
    monkeypatch.undo()

    big = AontArray(Alphabet(101), 1, [[100 - r, r] for r in range(101)])
    for text in [dump_array_csv(big), texts[2].partition("\n")[2], texts[2].replace("\n", "\r\n")]:
        assert arrays_module._parse_canonical(text, None, None) is None


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
    assert arrays_module._parse_canonical(text, None, None) is None
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


_CANONICAL_TOKEN_EDITS = ["010", "100", "00", "-1", " 1", "a", ""]


def _splice(draw, text, old, new):
    """`text` with one occurrence of `old`, drawn by position, replaced by `new`."""
    starts = [i for i in range(len(text)) if text.startswith(old, i)]
    i = draw(st.sampled_from(starts))
    return text[:i] + new + text[i + len(old) :]


@st.composite
def _canonical_texts(draw):
    """A text as `dump_array_csv` writes it with its header, with two-digit
    symbols, left as it is or with one token, layout or header edit."""
    v = draw(st.sampled_from([10, 11, 13, 97, 100, 101]))
    s = draw(st.integers(1, 2)) if v < 20 else 1
    rng = draw(st.randoms(use_true_random=False))
    rows = [[str(rng.randrange(v)) for _ in range(2 * s)] for _ in range(v**s)]
    header = "# v={v} s={s}"
    edit = draw(st.sampled_from(["none", "token", "layout", "header"]))
    if edit == "token":
        rows[rng.randrange(v**s)][rng.randrange(2 * s)] = draw(st.sampled_from(_CANONICAL_TOKEN_EDITS + [str(v)]))
    body = "".join(",".join(row) + "\n" for row in rows)
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


def test_saved_array_loads_back(tmp_path, table1):
    path = tmp_path / "table1.csv"
    save_array_csv(table1, str(path))
    assert path.read_text(encoding="utf-8") == dump_array_csv(table1)
    assert load_array_csv(str(path)) == table1
