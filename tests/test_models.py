import random
import re
from fractions import Fraction as F
from itertools import product
from math import log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aontlab import (
    Distribution,
    column_entropy,
    joint_probability,
    make_block_dependent_model,
    make_independent_model,
    uniform,
    uniform_model,
)
from aontlab.coding import _over_lcm, entropy_bits, weight_entropy_bits
from aontlab.constructions import (
    SquareMatrix,
    identity_matrix,
    iter_invertible_matrices,
    iter_linear_aont_matrices,
    matrix_from_rows,
    search_linear,
)
from aontlab.errors import (
    AontLabError,
    ArityMismatchError,
    BlockColumnError,
    BlockRangeError,
    InvalidParametersError,
    MassSumError,
    UnknownSymbolError,
)
from aontlab.models import (
    BLOCK_DEPENDENT,
    INDEPENDENT,
    InputModel,
    column,
    dump_model_json,
    load_model_json,
    model_from_json_dict,
    model_to_json_dict,
)

from conftest import example1_model, random_masses


def test_example1_model_shape():
    m = example1_model()
    assert m.s == 2 and m.v == 3 and m.kind == "independent"


def test_uniform_pairs_have_equal_mass():
    m = uniform_model(2, 3)
    for x in product(range(3), repeat=2):
        assert joint_probability(m, x) == F(1, 9)


def test_mass_sum_violation():
    with pytest.raises(MassSumError):
        make_independent_model([(F(1, 2), F(1, 3), F(1, 4))])


def test_float_masses_rejected():
    with pytest.raises(MassSumError):
        make_independent_model([(0.5, 0.5)])


def test_block_model_valid():
    joint = Distribution(2, 2, (F(1, 2), F(0), F(0), F(1, 2)))
    m = make_block_dependent_model(3, 2, (1, 2), joint)
    assert m.block == (1, 2)
    assert joint_probability(m, (0, 0, 1)) == F(1, 4)
    assert joint_probability(m, (0, 1, 1)) == F(0)


def test_block_single_column_degenerates_to_marginal():
    joint = Distribution(3, 1, (F(1, 4), F(1, 8), F(5, 8)))
    m = make_block_dependent_model(2, 3, (1,), joint)
    indep = make_independent_model([(F(1, 4), F(1, 8), F(5, 8)), uniform(3)])
    for x in product(range(3), repeat=2):
        assert joint_probability(m, x) == joint_probability(indep, x)


def test_block_out_of_range():
    joint = Distribution(2, 2, (F(1, 2), F(0), F(0), F(1, 2)))
    with pytest.raises(BlockRangeError):
        make_block_dependent_model(3, 2, (1, 4), joint)


def test_block_column_entropy_queries():
    joint = Distribution(2, 2, (F(1, 2), F(0), F(0), F(1, 2)))
    m = make_block_dependent_model(3, 2, (1, 2), joint)
    assert column_entropy(m, 3) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BlockColumnError):
        column_entropy(m, 1)


def test_example1_column_entropies():
    m = example1_model()
    assert column_entropy(m, 1) == pytest.approx(1.298795, abs=1e-6)
    assert column_entropy(m, 2) == pytest.approx(1.459148, abs=1e-6)


def test_example4_column_entropy():
    m = make_independent_model([(F(1, 3), F(2, 3))])
    assert column_entropy(m, 1) == pytest.approx(0.918296, abs=1e-6)


def test_uniform_column_entropy_is_log_v():
    for v in (2, 3, 5):
        m = make_independent_model([uniform(v)])
        assert column_entropy(m, 1) == pytest.approx(log2(v), abs=1e-12)


def test_entropy_permutation_invariant():
    masses = (F(1, 4), F(1, 8), F(5, 8))
    rng = random.Random(7)
    for _ in range(10):
        shuffled = list(masses)
        rng.shuffle(shuffled)
        assert entropy_bits(shuffled) == pytest.approx(entropy_bits(masses), abs=1e-12)


def test_entropy_bits_skips_a_mass_below_the_smallest_double():
    """Such a mass is 0.0 as a float and adds 0, since p log p -> 0."""
    tiny = F(1, 10**400)
    assert float(tiny) == 0.0
    assert entropy_bits([tiny, 1 - tiny]) == entropy_bits([1 - tiny, tiny]) == 0.0
    assert entropy_bits([F(1, 2), tiny, F(1, 2) - tiny]) == 1.0


def test_entropy_bits_reads_masses_from_any_iterable():
    masses = (F(1, 4), F(1, 8), F(5, 8))
    assert entropy_bits(p for p in masses) == entropy_bits(list(masses)) == entropy_bits(masses) > 0


@given(
    st.lists(
        st.one_of(
            st.builds(F, st.integers(0, 10**7), st.integers(1, 10**7)),
            st.builds(F, st.just(1), st.integers(1, 10**400)),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_entropy_bits_equals_the_weights_over_the_lcm_bit_for_bit(masses):
    """Each mass's own float is the float of its weight over the LCM of the
    denominators, so the LCM need not be built; also for masses past 1 and
    below the smallest double, which the formula takes as given."""
    assert entropy_bits(masses) == weight_entropy_bits(*_over_lcm(masses))


def test_distribution_equality_and_hash_ignore_its_cached_entropy():
    masses = (F(1, 4), F(1, 8), F(5, 8))
    read, unread = column(3, masses), column(3, masses)
    assert read.entropy_bits() == entropy_bits(masses)  # only `read` holds its entropy
    assert read == unread and hash(read) == hash(unread)
    assert read != column(3, masses[::-1])


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_joint_probability_totals_one(seed):
    rng = random.Random(seed)
    s, v = rng.choice([(2, 3), (3, 2), (2, 2)])
    if rng.random() < 0.5:
        m = make_independent_model([random_masses(rng, v) for _ in range(s)])
    else:
        size = rng.randint(0, min(2, s))
        block = tuple(sorted(rng.sample(range(1, s + 1), size)))
        joint = Distribution(v, size, random_masses(rng, v**size)) if size else None
        m = make_block_dependent_model(s, v, block, joint)
    total = sum(joint_probability(m, x) for x in product(range(v), repeat=s))
    assert total == F(1)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_independent_factorization(seed):
    rng = random.Random(seed)
    cols = [random_masses(rng, 3) for _ in range(2)]
    m = make_independent_model(cols)
    for x in product(range(3), repeat=2):
        assert joint_probability(m, x) == cols[0][x[0]] * cols[1][x[1]]


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        Distribution(3, 1, (F(1, 2), F(1, 2)))


def test_json_round_trip_independent():
    m = example1_model()
    doc = model_to_json_dict(m)
    back = model_from_json_dict(doc)
    assert back == m
    assert '"kind": "independent"' in dump_model_json(m)


def test_json_round_trip_block():
    joint = Distribution(2, 2, (F(1, 3), F(0), F(1, 6), F(1, 2)))
    m = make_block_dependent_model(3, 2, (1, 3), joint)
    assert model_from_json_dict(model_to_json_dict(m)) == m


_BLOCK = {"s": 2, "v": 3, "kind": "block-dependent"}
_INDEPENDENT = {"s": 2, "v": 3, "kind": "independent"}


@pytest.mark.parametrize(
    "doc",
    [
        {"s": 2, "v": 3, "kind": "independent", "columns": 5},
        {"s": 2, "v": 3, "kind": "independent", "columns": [5, 6]},
        {**_BLOCK, "block": 5},
        {**_BLOCK, "block": {"indices": [None], "joint": []}},
        {**_BLOCK, "block": {"indices": [1], "joint": [5]}},
        {**_BLOCK, "block": {"indices": [1], "joint": [[5, [1, 1]]]}},
        {**_BLOCK, "block": {"indices": [1], "joint": [[[7], [1, 1]]]}},
        {**_BLOCK, "block": {"indices": [1], "joint": [[["a"], [1, 1]]]}},
        # a negative symbol used to index the masses from the end
        {**_BLOCK, "block": {"indices": [1], "joint": [[[-1], [1, 1]]]}},
        # booleans and non-integral numbers used to be coerced by Fraction() and int()
        {**_INDEPENDENT, "columns": [[True, False, False], [1, 0, 0]]},
        {**_INDEPENDENT, "columns": [[[True, 2], [1, 2], 0], [1, 0, 0]]},
        {**_INDEPENDENT, "columns": [[[1.5, 2], [1, 2], 0], [1, 0, 0]]},
        {**_BLOCK, "block": {"indices": [1.5], "joint": [[[0], [1, 1]]]}},
        {**_BLOCK, "block": {"indices": [True], "joint": [[[0], [1, 1]]]}},
        # int(inf) raised OverflowError, which escaped as a traceback
        {**_INDEPENDENT, "s": float("inf")},
        {**_INDEPENDENT, "columns": [[[float("inf"), 1], 0, 0], [1, 0, 0]]},
        # int() read integers given as strings
        {**_INDEPENDENT, "s": "2", "columns": [[[1, 3]] * 3] * 2},
        {**_INDEPENDENT, "v": " 3 ", "columns": [[[1, 3]] * 3] * 2},
        {**_INDEPENDENT, "columns": [[["1", "3"], [1, 3], [1, 3]], [1, 0, 0]]},
        {**_BLOCK, "block": {"indices": ["1"], "joint": [[[0], [1, 1]]]}},
        # Fraction() read mass strings in other scripts' digits, with '_', '+', spaces, decimals and exponents
        {**_INDEPENDENT, "columns": [["١/٣"] * 3, [1, 0, 0]]},
        {**_INDEPENDENT, "columns": [["1_0/3_0", "1/3", "1/3"], [1, 0, 0]]},
        {**_INDEPENDENT, "columns": [[" 1/3 ", "1/3", "1/3"], [1, 0, 0]]},
        {**_INDEPENDENT, "columns": [["+1/3", "1/3", "1/3"], [1, 0, 0]]},
        {**_INDEPENDENT, "columns": [["0.5", "1/2", 0], [1, 0, 0]]},
        {**_INDEPENDENT, "columns": [["1e-1", "9/10", 0], [1, 0, 0]]},
    ],
)
def test_malformed_model_document_raises_package_error(doc):
    with pytest.raises(AontLabError):
        model_from_json_dict(doc)


@pytest.mark.parametrize(
    "content", [b"{not json", b"\xff\xfe{}", b"", b"[" * 100_000], ids=["not-json", "not-utf8", "empty", "deep"]
)
def test_model_file_that_is_not_utf8_json_raises_package_error(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(AontLabError, match="as UTF-8 JSON"):
        load_model_json(str(path))


def test_model_file_with_a_byte_order_mark_loads(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xef\xbb\xbf" + dump_model_json(example1_model()).encode())
    assert model_to_json_dict(load_model_json(str(path))) == model_to_json_dict(example1_model())


_PAIR_JOINT = Distribution(2, 2, (F(1, 2), F(0), F(0), F(1, 2)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Distribution(1, 1, (F(1),)), InvalidParametersError, "bad distribution shape v=1"),
        (lambda: Distribution(2, 1, (F(3, 2), F(-1, 2))), MassSumError, r"mass 3/2 outside \[0, 1\]"),
        (lambda: uniform(3).mass((0, 1)), ArityMismatchError, "has length 2, expected 1"),
        (lambda: uniform(3).mass((3,)), UnknownSymbolError, r"symbol 3 outside 0\.\.2"),
        (lambda: InputModel(2, 3, INDEPENDENT, columns=(uniform(3),)), ArityMismatchError, "exactly 2 columns"),
        (lambda: make_independent_model([uniform(3), uniform(2)]), ArityMismatchError, r"over 2\^1 does not match v=3"),
        (lambda: make_independent_model([]), ArityMismatchError, "at least one column"),
        (lambda: InputModel(2, 3, "mixed"), InvalidParametersError, "unknown model kind 'mixed'"),
        (
            lambda: InputModel(3, 2, BLOCK_DEPENDENT, block=(2, 1), block_joint=_PAIR_JOINT),
            BlockRangeError,
            r"block \(2, 1\) must be sorted, duplicate-free and within 1\.\.3",
        ),
        (
            lambda: InputModel(3, 2, BLOCK_DEPENDENT, block=(0, 1), block_joint=_PAIR_JOINT),
            BlockRangeError,
            r"block \(0, 1\) must be sorted, duplicate-free and within 1\.\.3",
        ),
        (
            lambda: make_block_dependent_model(3, 2, (1, 4), _PAIR_JOINT),
            BlockRangeError,
            r"block \(1, 4\) must be sorted, duplicate-free and within 1\.\.3",
        ),
        (lambda: make_block_dependent_model(3, 2, (1,), _PAIR_JOINT), ArityMismatchError, r"over 2\^1"),
        (lambda: make_block_dependent_model(3, 2, (1,), None), ArityMismatchError, "needs a joint distribution"),
        (lambda: joint_probability(uniform_model(2, 3), (0,)), ArityMismatchError, "length 1, expected 2"),
        (
            lambda: joint_probability(make_block_dependent_model(3, 2, (1, 2), _PAIR_JOINT), (0, 0, 2)),
            UnknownSymbolError,
            r"symbol 2 outside 0\.\.1",
        ),
        (lambda: column_entropy(uniform_model(2, 3), 3), InvalidParametersError, r"column 3 outside 1\.\.2"),
        (lambda: model_from_json_dict({**_INDEPENDENT, "s": 3, "columns": [[1, 0, 0]] * 2}),
         ArityMismatchError, "expected 3 columns, got 2"),
        (
            lambda: model_from_json_dict({**_BLOCK, "block": {"indices": [1], "joint": [[[0, 0], [1, 1]]]}}),
            ArityMismatchError,
            r"joint tuple \[0, 0\] has length 2, expected 1",
        ),
        (lambda: model_from_json_dict({**_INDEPENDENT, "kind": "mixed"}), InvalidParametersError,
         "unknown model kind 'mixed'"),
        # block indices were read by int()
        (lambda: make_block_dependent_model(2, 3, [1.5], uniform(3)), InvalidParametersError, "label 1.5 is not"),
        (lambda: make_block_dependent_model(2, 3, [True], uniform(3)), InvalidParametersError, "label True is not"),
        (lambda: make_block_dependent_model(2, 3, ["1"], uniform(3)), InvalidParametersError, "label '1' is not"),
        # each once escaped as TypeError from len()
        (lambda: uniform(3).mass(5), InvalidParametersError, "tuple 5 is not a sequence of symbols"),
        (
            lambda: joint_probability(uniform_model(2, 3), None),
            InvalidParametersError,
            "input tuple None is not a sequence of symbols",
        ),
    ],
)
def test_each_model_rule_raises_its_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_INDEPENDENT, "s": "2", "columns": [[[1, 3]] * 3] * 2}, "s '2' is not an integer"),
        ({**_INDEPENDENT, "v": True, "columns": [[[1, 3]] * 3] * 2}, "v True is not an integer"),
        ({**_BLOCK, "block": {"indices": [1.5], "joint": [[[0], [1, 1]]]}}, "column label 1.5 is not an integer"),
    ],
    ids=["s", "v", "block-index"],
)
def test_model_document_integers_are_named_as_the_model_names_them(doc, message):
    """A model document's s, v and block indices are read as `InputModel`
    and `make_block_dependent_model` read them, not as malformed JSON."""
    with pytest.raises(InvalidParametersError, match=f"^{re.escape(message)}$"):
        model_from_json_dict(doc)


def test_independent_joint_probability_of_a_zero_mass_reads_every_symbol():
    """A zero mass returned at once, leaving the symbols after it unread."""
    m = make_independent_model([(F(1), F(0)), (F(1, 2), F(1, 2))])
    assert joint_probability(m, (1, 0)) == 0
    assert joint_probability(m, (0, 1)) == F(1, 2)
    m = make_independent_model([(0, "1/2", "1/2"), ("1/3",) * 3])
    with pytest.raises(UnknownSymbolError, match=r"symbol 99 outside 0\.\.2"):
        joint_probability(m, (0, 99))
    for bad in ("a", 1.5):
        with pytest.raises(InvalidParametersError, match=f"symbol {re.escape(repr(bad))} is not an integer"):
            joint_probability(m, (0, bad))


def test_column_reads_any_rational_mass():
    assert column(3, ["1/3", (1, 3), F(1, 3)]) == uniform(3)
    assert model_from_json_dict(model_to_json_dict(uniform_model(2, 3))).columns == (column(3, ["1/3"] * 3),) * 2


def test_model_integers_read_integral_floats_as_ints():
    model = uniform_model(2.0, 3)
    assert model == uniform_model(2, 3) and type(model.s) is int
    for dist in (uniform(3.0), uniform(3, 1.0), column(3.0, ["1/3"] * 3), Distribution(3.0, 1.0, uniform(3).masses)):
        assert dist == uniform(3) and type(dist.v) is type(dist.length) is int
    assert uniform(3).mass((1.0,)) == F(1, 3)
    assert joint_probability(model, (1.0, 0)) == F(1, 9)
    assert joint_probability(make_block_dependent_model(2, 3, (1,), uniform(3)), (0, 2.0)) == F(1, 9)
    assert column_entropy(model, 1.0) == column_entropy(model, 1)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda n: uniform(n), "alphabet size"),
        (lambda n: uniform(3, n), "tuple length"),
        (lambda n: column(n, ["1/3"] * 3), "alphabet size"),
        (lambda n: uniform_model(n, 3), "s"),
        (lambda n: uniform(3).mass((n,)), "symbol"),
        (lambda n: joint_probability(uniform_model(2, 3), (n, 0)), "symbol"),
        (lambda n: joint_probability(make_block_dependent_model(2, 3, (1,), uniform(3)), (0, n)), "symbol"),
        (lambda n: column_entropy(uniform_model(2, 3), n), "column"),
    ],
    ids=["uniform-v", "uniform-length", "column", "uniform_model", "mass", "joint", "joint-block", "column_entropy"],
)
@pytest.mark.parametrize("bad", [True, "1", 1.5])
def test_model_integer_that_is_not_an_integer_is_refused(call, what, bad):
    """Each once escaped as TypeError, or read True as 1, or kept 1.5."""
    with pytest.raises(InvalidParametersError, match=f"^{what} {re.escape(repr(bad))} is not an integer"):
        call(bad)


def _searched(s, v):
    result = search_linear(s, v, 1, 1)
    return result.s, result.v, result.examined, result.found


def _joint_symbol(n):
    return model_from_json_dict({**_BLOCK, "block": {"indices": [1], "joint": [[[n], [1, 1]]]}})


# each integer a constructor or reader takes from outside: a call on one such
# integer n, and an integral value of n
_INTEGERS = [
    pytest.param(lambda n: SquareMatrix(n, ((1, 2), (3, 4))), 5, id="SquareMatrix-v"),
    pytest.param(lambda n: SquareMatrix(5, ((n, 2), (3, 4))), 1, id="SquareMatrix-entry"),
    pytest.param(lambda n: matrix_from_rows(n, [[1, 2], [3, 4]]), 5, id="matrix_from_rows-v"),
    pytest.param(lambda n: matrix_from_rows(5, [[1, 2], [3, n]]), 4, id="matrix_from_rows-entry"),
    pytest.param(lambda n: identity_matrix(n, 5), 2, id="identity_matrix-s"),
    pytest.param(lambda n: identity_matrix(2, n), 5, id="identity_matrix-v"),
    pytest.param(lambda n: list(iter_invertible_matrices(n, 3)), 2, id="iter_invertible_matrices-s"),
    pytest.param(lambda n: list(iter_invertible_matrices(2, n)), 3, id="iter_invertible_matrices-v"),
    pytest.param(lambda n: list(iter_linear_aont_matrices(n, 3, 1, 1)), 2, id="iter_linear_aont_matrices-s"),
    pytest.param(lambda n: list(iter_linear_aont_matrices(2, n, 1, 1)), 3, id="iter_linear_aont_matrices-v"),
    pytest.param(lambda n: _searched(n, 3), 2, id="search_linear-s"),
    pytest.param(lambda n: _searched(2, n), 3, id="search_linear-v"),
    pytest.param(lambda n: InputModel(n, 3, INDEPENDENT, columns=(uniform(3),) * 2), 2, id="InputModel-s"),
    pytest.param(lambda n: InputModel(2, n, INDEPENDENT, columns=(uniform(3),) * 2), 3, id="InputModel-v"),
    pytest.param(lambda n: make_block_dependent_model(n, 3, (), None), 2, id="make_block_dependent_model-s"),
    pytest.param(lambda n: make_block_dependent_model(2, n, (), None), 3, id="make_block_dependent_model-v"),
    pytest.param(lambda n: uniform(3).mass((n,)), 1, id="mass"),
    pytest.param(lambda n: joint_probability(uniform_model(2, 3), (0, n)), 2, id="joint_probability"),
    pytest.param(
        lambda n: joint_probability(make_block_dependent_model(2, 3, (1,), uniform(3)), (n, 0)),
        1,
        id="joint_probability-block",
    ),
    pytest.param(_joint_symbol, 0, id="model_from_json_dict-joint"),
]


@pytest.mark.parametrize("call, n", _INTEGERS)
def test_an_integral_float_is_read_and_stored_as_an_int(call, n):
    """The repr shows a stored float as `2.0`, so equal reprs mean ints were stored."""
    got, want = call(float(n)), call(n)
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("call, n", _INTEGERS)
@pytest.mark.parametrize("bad", [True, "2", 2.5])
def test_an_integer_that_is_not_an_integer_is_refused(call, n, bad):
    with pytest.raises(InvalidParametersError, match=f"{re.escape(repr(bad))} is not an integer"):
        call(bad)


def test_uniform_refuses_a_negative_length():
    """v**length was a float, so Fraction() escaped as TypeError."""
    with pytest.raises(InvalidParametersError, match="bad distribution shape v=3, length=-1"):
        uniform(3, -1)
