import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aontlab import (
    AONT,
    NEITHER,
    builtin,
    classify,
    identity_matrix,
    linear_aont,
    matrix_from_rows,
    search_linear,
)
from aontlab.arrays import check_unbiased
from aontlab.coding import decode_index, encode_tuple
from aontlab.constructions import (
    DEFAULT_SEARCH_CAP,
    SearchResult,
    SquareMatrix,
    _RankChecks,
    check_modulus,
    gl_order,
    is_prime,
    iter_invertible_matrices,
    iter_linear_aont_matrices,
)
from aontlab.errors import (
    InvalidParametersError,
    NonPrimeModulusError,
    SearchSpaceError,
    SingularMatrixError,
    UnknownNameError,
)

import arrays_oracle
from linear_search_reference import reference_search
from matrix_search_oracle import expand, oracle_counts


def test_builtin_golden_rows(table1, table2, table3):
    assert table1.rows[1] == (0, 1, 2, 1)  # a,b,c,b
    assert table2.rows[9] == (1, 0, 0, 1, 0, 1)  # b,a,a,b,a,b
    assert table3.rows[4] == (1, 0, 0, 0, 1, 1)  # b,a,a,a,b,b


def test_builtin_unknown_name():
    with pytest.raises(UnknownNameError):
        builtin("table9")


def test_builtin_caption_classifications(table1, table2, table3):
    assert classify(table1, 1, 1).verdict == "aont"
    assert classify(table2, 1, 2).verdict == "aont"
    assert classify(table3, 1, 2).verdict == "weak-aont-only"


def test_matrix_determinants():
    assert matrix_from_rows(3, [[1, 1], [1, 2]]).det() == 1
    assert matrix_from_rows(3, [[1, 1], [2, 2]]).det() == 0
    assert identity_matrix(3, 5).det() == 1
    assert matrix_from_rows(5, [[2, 0, 0], [0, 3, 0], [0, 0, 1]]).det() == (2 * 3) % 5
    # pivots found below the diagonal: a swap is odd, a 3-cycle even
    assert matrix_from_rows(5, [[0, 1], [1, 0]]).det() == 4
    assert matrix_from_rows(5, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == 1


def _leibniz_det(entries, v):
    """sum over permutations p of sign(p) * prod_i entries[i][p(i)], mod v."""
    n = len(entries)
    total = 0
    for p in permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        total += sign * prod(entries[i][p[i]] for i in range(n))
    return total % v


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), v=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_det_matches_leibniz_expansion(n, v, data):
    entries = data.draw(st.lists(st.lists(st.integers(0, v - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    assert matrix_from_rows(v, entries).det() == _leibniz_det(entries, v)


def test_nonprime_modulus_rejected():
    with pytest.raises(NonPrimeModulusError):
        SquareMatrix(4, ((1, 0), (0, 1)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: matrix_from_rows(5, [[1.5, 1], [1, 0]]), "1.5 is not an integer"),
        (lambda: matrix_from_rows(5, [[True, 1], [1, 0]]), "True is not an integer"),
        (lambda: matrix_from_rows(5, [[None, 1], [1, 0]]), "matrix entries must be integers"),
        (lambda: matrix_from_rows(5, [["1", 1], [1, 0]]), "'1' is not an integer"),
        (lambda: matrix_from_rows(5, [[Fraction(5, 2), 1], [1, 0]]), r"Fraction\(5, 2\) is not an integer"),
        # the cap was compared as given: True ran as a cap of 1, and None or a string raised TypeError
        (lambda: search_linear(2, 3, 1, 1, cap=True), "cap True is not an integer"),
        (lambda: search_linear(2, 3, 1, 1, cap=1.5), "cap 1.5 is not an integer"),
        (lambda: search_linear(2, 3, 1, 1, cap="x"), "cap 'x' is not an integer"),
        (lambda: search_linear(2, 3, 1, 1, cap=None), "cap None is not an integer"),
    ],
    ids=["fraction", "bool", "none", "string", "rational", "cap-bool", "cap-fraction", "cap-string", "cap-none"],
)
def test_non_integer_matrix_input_rejected(build, message):
    with pytest.raises(InvalidParametersError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SquareMatrix(5, ((1, 2), (3,))), "matrix must be square and non-empty"),
        (lambda: SquareMatrix(5, ()), "matrix must be square and non-empty"),
        (lambda: SquareMatrix(5, ((5, 0), (0, 1))), "entry 5 outside 0..4"),
        (lambda: list(iter_invertible_matrices(0, 5)), "matrix order must be >= 1, got 0"),
        # each once escaped as TypeError from len()
        (lambda: SquareMatrix(5, (5, 6)), "matrix entries must be integers: .*'int' has no len"),
        (lambda: SquareMatrix(5, None), "matrix entries must be integers: .*'NoneType' has no len"),
    ],
    ids=["ragged", "empty", "entry-past-v", "order-0", "rows-not-sequences", "entries-none"],
)
def test_matrix_shape_and_entries_checked(build, message):
    with pytest.raises(InvalidParametersError, match=message):
        build()


def test_integral_matrix_entries_read_as_ints():
    m = matrix_from_rows(5, [[2.0, 1], [1, 0]])
    assert m.entries == ((2, 1), (1, 0)) and all(type(x) is int for row in m.entries for x in row)
    assert linear_aont(m) == linear_aont(matrix_from_rows(5, [[2, 1], [1, 0]]))
    assert SquareMatrix(5.0, ((1.0, 2), (3, 4))) == matrix_from_rows(5, [[1, 2], [3, 4]])


# every public function that takes a matrix order s and a modulus v
_ORDER_AND_MODULUS_CALLS = [
    pytest.param(lambda s, v: search_linear(s, v, 1, 1), id="search_linear"),
    pytest.param(lambda s, v: list(iter_invertible_matrices(s, v)), id="iter_invertible_matrices"),
    pytest.param(lambda s, v: list(iter_linear_aont_matrices(s, v, 1, 1)), id="iter_linear_aont_matrices"),
    pytest.param(lambda s, v: [identity_matrix(s, v)], id="identity_matrix"),
]


@pytest.mark.parametrize("call", _ORDER_AND_MODULUS_CALLS)
@pytest.mark.parametrize(
    "s, v, message",
    [
        (True, 5, "True is not an integer"),
        (2, True, "True is not an integer"),
        (2.5, 5, "2.5 is not an integer"),
        (2, 5.5, "5.5 is not an integer"),
        (None, 5, "matrix order and modulus must be integers"),
        ("1", 5, "'1' is not an integer"),
        (2, Fraction(5, 2), r"Fraction\(5, 2\) is not an integer"),
    ],
    ids=["bool-s", "bool-v", "fraction-s", "fraction-v", "none-s", "string-s", "rational-v"],
)
def test_non_integer_order_or_modulus_rejected(call, s, v, message):
    with pytest.raises(InvalidParametersError, match=message):
        call(s, v)


@pytest.mark.parametrize("call", _ORDER_AND_MODULUS_CALLS)
@pytest.mark.parametrize("s, v", [(2.0, 5), (2, 5.0)], ids=["float-s", "float-v"])
def test_integral_float_order_or_modulus_read_as_int(call, s, v):
    # check_modulus passes 5.0 as it passes 5 (is_prime reads a float), so only
    # the conversion keeps 5.0 out of the walk
    check_modulus(5)
    got, want = call(s, v), call(2, 5)
    if isinstance(want, SearchResult):
        assert (type(got.s), type(got.v)) == (int, int)
        got, want = got.found, want.found
    assert got == want and all(type(m.v) is int for m in got)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [n for n in range(-3, 10**5) if _trial_division_is_prime(n)]


@pytest.mark.parametrize(
    "n, prime",
    [
        (3215031751, False),  # a strong pseudoprime to bases 2, 3, 5 and 7
        (3825123056546413051, False),  # a strong pseudoprime to every prime base up to 23
        (1000000007 * 1000000009, False),
        (10**18 + 3, True),
        (2**61 - 1, True),
        (2**64 - 59, True),  # the largest prime below 2^64
    ],
)
def test_is_prime_on_large_numbers(n, prime):
    assert is_prime(n) is prime


def test_large_prime_modulus_builds_a_matrix():
    assert matrix_from_rows(10**18 + 3, [[1]]).det() == 1


def test_modulus_of_64_bits_or_more_rejected():
    v = 2**64 + 13  # prime, but above the range the primality test is exact on
    with pytest.raises(InvalidParametersError, match="does not fit in 64 bits"):
        SquareMatrix(v, ((1,),))
    with pytest.raises(InvalidParametersError, match="does not fit in 64 bits"):
        next(iter_invertible_matrices(1, v))
    with pytest.raises(InvalidParametersError, match="does not fit in 64 bits"):
        search_linear(1, v, 1, 1, cap=v)


def test_linear_aont_good_matrix():
    arr = linear_aont(matrix_from_rows(3, [[1, 1], [1, 2]]))
    assert classify(arr, 1, 1).verdict == AONT


def test_linear_aont_identity_is_neither():
    arr = linear_aont(identity_matrix(2, 3))
    assert classify(arr, 1, 1).verdict == NEITHER


def test_linear_aont_singular_rejected():
    with pytest.raises(SingularMatrixError):
        linear_aont(matrix_from_rows(3, [[1, 1], [2, 2]]))


def test_linear_aont_rows_lexicographic():
    arr = linear_aont(matrix_from_rows(2, [[1, 1], [0, 1]]))
    inputs = [row[:2] for row in arr.rows]
    assert inputs == sorted(inputs)


def test_linear_aont_blocks_always_unbiased():
    for rows in ([[1, 1], [1, 2]], [[1, 0], [0, 1]], [[2, 1], [1, 1]]):
        arr = linear_aont(matrix_from_rows(3, rows))
        assert check_unbiased(arr, arr.input_columns).holds
        assert check_unbiased(arr, arr.output_columns).holds


def test_trivial_one_dimensional_search():
    result = search_linear(1, 2, 1, 1)
    assert result.examined == 1
    assert [m.entries for m in result.found] == [((1,),)]


def test_search_counts_and_membership():
    result = search_linear(2, 3, 1, 1)
    assert result.examined == 48
    assert len(result.found) == 8
    entries = [m.entries for m in result.found]
    assert ((1, 1), (1, 2)) in entries
    # passing matrices are exactly the invertible ones without zero entries
    expected = [
        m.entries
        for m in iter_invertible_matrices(2, 3)
        if all(x for row in m.entries for x in row)
    ]
    assert entries == expected


def test_search_empty_over_binary_field():
    result = search_linear(2, 2, 1, 1)
    assert (result.examined, len(result.found)) == (6, 0)


def test_search_found_matrices_reverify():
    result = search_linear(2, 3, 1, 1)
    for m in result.found:
        assert classify(linear_aont(m), 1, 1).verdict == AONT


def test_search_deterministic():
    a = search_linear(2, 3, 1, 1)
    b = search_linear(2, 3, 1, 1)
    assert a.found == b.found and a.examined == b.examined


@pytest.mark.parametrize("s, v, t_i, t_o", [(3, 2, 1, 2), (2, 5, 1, 2), (2, 7, 1, 1), (3, 2, 1, 3)])
def test_search_matches_oracle(s, v, t_i, t_o):
    result = search_linear(s, v, t_i, t_o)
    assert result.examined == gl_order(s, v) == prod(v**s - v**i for i in range(s))
    assert (result.examined, len(result.found)) == oracle_counts(s, v, t_i, t_o)
    entries = [m.entries for m in result.found]
    assert entries == sorted(entries)


@st.composite
def invertible_matrices_and_t(draw):
    s = draw(st.integers(1, 4))
    v = draw(st.sampled_from([2, 3, 5, 7]))
    entries = draw(st.lists(st.integers(0, v - 1), min_size=s * s, max_size=s * s))
    m = SquareMatrix(v, tuple(tuple(entries[r * s : (r + 1) * s]) for r in range(s)))
    assume(m.is_invertible())
    t_i = draw(st.integers(1, s))
    return m, t_i, draw(st.integers(t_i, s))


@settings(max_examples=80, deadline=None)
@given(invertible_matrices_and_t())
def test_rank_predicate_matches_expansion(case):
    """The search's rank test agrees with expanding the array and counting
    row by row; `classify` itself decides a linear array by rank."""
    m, t_i, t_o = case
    s, v = m.order, m.v
    codes = tuple(encode_tuple(row, v) for row in m.entries)
    checks = _RankChecks(s, v, t_i, t_o, [decode_index(c, v, s) for c in range(v**s)])
    # each row must pass the checks it completes, given the rows above it
    by_rank = all(codes[d] not in checks.failing(codes[:d]) for d in range(s))
    assert by_rank == (arrays_oracle.classify(linear_aont(m), t_i, t_o).verdict == AONT)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.sampled_from([(1, 2), (1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (1, 257), (2, 257)]),
    data=st.data(),
)
def test_linear_aont_matches_row_expansion(shape, data):
    """Built column by column (byte shifts for v <= 256, modular sums per
    symbol above), the array has the rows of the per-row expansion, in the
    same order."""
    s, v = shape
    entries = data.draw(st.lists(st.lists(st.integers(0, v - 1), min_size=s, max_size=s), min_size=s, max_size=s))
    m = matrix_from_rows(v, entries)
    assume(m.is_invertible())
    assert linear_aont(m).rows == tuple(expand(m.entries, s, v))


def test_linear_aont_past_a_byte_builds_no_square_table():
    """Above v = 256 a column is built symbol by symbol, with no v x v table
    of shifts: 4,099 rows take well under a second and a few MB."""
    v = 4099
    tracemalloc.start()
    start = time.perf_counter()
    try:
        arr = linear_aont(matrix_from_rows(v, [[3]]))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.rows == tuple((x, 3 * x % v) for x in range(v))
    assert elapsed < 1 and peak < 5 * 2**20


@pytest.mark.parametrize(
    "s, v", [(s, v) for s in (1, 2, 3) for v in (2, 3, 5, 7) if v ** (s * s) <= 3**9]
)
def test_invertible_matrices_match_determinant_filter(s, v):
    flat_filter = []
    for flat in product(range(v), repeat=s * s):
        m = SquareMatrix(v, tuple(tuple(flat[r * s : (r + 1) * s]) for r in range(s)))
        if m.is_invertible():
            flat_filter.append(m)
    assert list(iter_invertible_matrices(s, v)) == flat_filter


def test_iter_linear_aont_matrices_is_search_found():
    assert tuple(iter_linear_aont_matrices(3, 2, 1, 2)) == search_linear(3, 2, 1, 2).found


def _configs_within_default_cap():
    """Every (s, v, t_i, t_o) with s >= 2 and v^(s*s) <= DEFAULT_SEARCH_CAP.
    For s = 1 the family has no set with both I and J non-empty, so no check
    runs; a few primes, up to the largest within the cap, stand for all."""
    shapes = [(1, v) for v in (2, 3, 5, 7, 11, 13, 97, 19681)]
    shapes += [(s, v) for s in (2, 3) for v in range(2, 20) if is_prime(v) and v ** (s * s) <= DEFAULT_SEARCH_CAP]
    return [(s, v, t_i, t_o) for s, v in shapes for t_i in range(1, s + 1) for t_o in range(t_i, s + 1)]


@pytest.mark.parametrize("s, v, t_i, t_o", _configs_within_default_cap())
def test_pruned_search_matches_unpruned_walk(s, v, t_i, t_o):
    """Pruning by prefix keeps exactly what walking every invertible matrix
    to its last row and then testing it keeps, in the same order, and still
    counts all of GL(s, v)."""
    result = search_linear(s, v, t_i, t_o)
    examined, found = reference_search(s, v, t_i, t_o)
    assert result.examined == examined == gl_order(s, v)
    assert [tuple(decode_index(code, v, s) for code in codes) for codes in result.row_codes] == found
    assert [m.entries for m in result.found] == found
    assert result.found == tuple(iter_linear_aont_matrices(s, v, t_i, t_o))


@pytest.mark.parametrize("s, v, t_i, t_o", _configs_within_default_cap())
def test_listed_matrices_pass_revalidation(s, v, t_i, t_o):
    """The walk builds the matrices it lists without `__post_init__`: each
    must still be one that validation accepts, with int entries in 0..v-1.
    Every shape reaches t_i = t_o = s, where iter_invertible_matrices is
    checked."""
    listings = [search_linear(s, v, t_i, t_o).found, iter_linear_aont_matrices(s, v, t_i, t_o)]
    if t_i == t_o == s:
        listings.append(iter_invertible_matrices(s, v))
    for listing in listings:
        for m in listing:
            assert m == SquareMatrix(m.v, m.entries) and m.v == v
            assert type(m.entries) is tuple and len(m.entries) == s
            for row in m.entries:
                assert type(row) is tuple and len(row) == s
                assert all(type(x) is int and 0 <= x < v for x in row)


@pytest.mark.parametrize("t_i, t_o", [(1, 1), (2, 2)])
def test_search_beyond_default_cap_pinned(t_i, t_o):
    """(3, 5) is 5^9 candidates, beyond the default cap: every invertible
    matrix is counted, and the rank checks keep 190,464 at (1, 1) and (2, 2)."""
    result = search_linear(3, 5, t_i, t_o, cap=5**9)
    assert (result.examined, len(result.found)) == (1_488_000, 190_464)


def test_search_holds_row_codes_and_builds_found_on_first_read():
    """A search keeps the found matrices as the walk's groups: the 190,464 of
    (3, 5) at (1, 1) are held in under 10 bytes each (72 when each was a
    tuple of its row codes, 161 on CPython 3.11 when each was a SquareMatrix),
    and neither `row_codes` nor a matrix is built before it is read; the
    row codes then take under 100 bytes each."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = search_linear(3, 5, 1, 1, cap=5**9)
        grouped = tracemalloc.get_traced_memory()[0] - before
        assert result.found_count == 190_464 and not {"row_codes", "found"} & set(vars(result))
        assert len(result.row_codes) == 190_464
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grouped < 10 * 190_464, grouped / 190_464
    assert held < 100 * 190_464, held / 190_464
    assert "found" not in vars(result)


def test_search_progress_counts_examined_matrices():
    """Pruned prefixes count their completions at once: progress still
    rises strictly, at most 64 times, and ends at (total, total)."""
    for s, v, t_i, t_o in [(2, 5, 1, 1), (2, 2, 1, 1), (3, 3, 1, 1), (3, 3, 2, 3)]:
        calls = []
        result = search_linear(s, v, t_i, t_o, progress=lambda done, total: calls.append((done, total)))
        total = gl_order(s, v)
        assert 1 < len(calls) <= 64
        assert [done for done, _ in calls] == sorted({done for done, _ in calls})
        assert {t for _, t in calls} == {total}
        assert calls[-1] == (result.examined, total) == (total, total)


# the examined counts `progress` gets, in order, recorded when the walk
# still worked out every prefix on its own (total: |GL(s, v)|)
SEARCH_PROGRESS = {
    (3, 3, 1, 2): [
        216, 360, 648, 720, 1080, 1242, 1422, 1584, 1836, 1944, 2124, 2376, 2466, 2700, 2826, 3006,
        3168, 3348, 3672, 3708, 3888, 4050, 4230, 4428, 4590, 4752, 4932, 5112, 5292, 5472, 5634, 5814,
        5994, 6174, 6336, 6516, 6696, 6876, 7056, 7218, 7560, 7578, 7758, 7920, 8100, 8316, 8460, 8640,
        8802, 8982, 9162, 9342, 9504, 9684, 9864, 10044, 10224, 10386, 10566, 10746, 10926, 11088, 11232,
    ],
    (2, 5, 1, 1): [160, 180, 200, 220, 240, 260, 280, 300, 320, 340, 360, 380, 400, 420, 440, 460, 480],
}


@pytest.mark.parametrize("s, v, t_i, t_o", sorted(SEARCH_PROGRESS))
def test_search_progress_calls_are_pinned(s, v, t_i, t_o):
    """Work shared by the prefixes of one scalar class still settles each
    prefix where it is walked: the calls are those of walking every prefix."""
    calls = []
    search_linear(s, v, t_i, t_o, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(done, gl_order(s, v)) for done in SEARCH_PROGRESS[(s, v, t_i, t_o)]]


def test_search_row_codes_at_classes_of_four_rows_are_pinned():
    """At v = 5 each scalar class holds 4 rows, and at s = 3 the class
    prefixes of 2 rows are shared by 16 prefixes each: the 190,464 found
    keep the codes, and the order, recorded when every prefix was worked
    out on its own."""
    result = search_linear(3, 5, 1, 1, cap=5**9)
    digest = hashlib.sha256(repr(result.row_codes).encode()).hexdigest()
    assert digest == "5cfff4fe658ff1feb0234f1f080b28fa10c78d373a01f69237eb48935a68dc5d"


def test_search_cap():
    with pytest.raises(SearchSpaceError):
        search_linear(4, 7, 1, 1)
    with pytest.raises(SearchSpaceError):
        search_linear(2, 3, 1, 1, cap=10)


def test_search_nonprime():
    with pytest.raises(NonPrimeModulusError):
        search_linear(2, 4, 1, 1)
    # a modulus below 2 skips the cap, so it must be refused before |GL(s, v)|
    # is multiplied out: ∏((-7)^1000 - (-7)^i) takes seconds
    started = time.monotonic()
    with pytest.raises(NonPrimeModulusError):
        search_linear(1000, -7, 1, 1)
    assert time.monotonic() - started < 2


def test_search_result_json():
    doc = search_linear(2, 2, 1, 1).to_json_dict()
    assert doc["examined"] == 6 and doc["found"] == 0 and doc["matrices"] == []
