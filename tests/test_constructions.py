import time
import tracemalloc
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
    SquareMatrix,
    _RankChecks,
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
    by_rank = _RankChecks(s, v, t_i, t_o, [decode_index(c, v, s) for c in range(v**s)]).passes(codes)
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
    assert [m.entries for m in result.found] == found
    assert list(iter_linear_aont_matrices(s, v, t_i, t_o)) == list(result.found)


@pytest.mark.parametrize("t_i, t_o", [(1, 1), (2, 2)])
def test_search_beyond_default_cap_pinned(t_i, t_o):
    """(3, 5) is 5^9 candidates, beyond the default cap: every invertible
    matrix is counted, and the rank checks keep 190,464 at (1, 1) and (2, 2)."""
    result = search_linear(3, 5, t_i, t_o, cap=5**9)
    assert (result.examined, len(result.found)) == (1_488_000, 190_464)


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
