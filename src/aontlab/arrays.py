"""Candidate transform arrays and their unbiased/covering column properties.

An array holds v^s rows of width 2s over the alphabet {0..v-1}; columns are
labeled 1..2s, with 1..s the inputs and s+1..2s the outputs. A column set is
*unbiased* when every projected tuple appears exactly N/v^|I| times, and
*covering* when every projected tuple appears at least once. Classification
checks both properties over the column-set families that define the full and
the relaxed transform classes. An array over a prime v that is linear,
{(x, xM)}, or differs from one in fewer than half of its rows is decided by
rank plus a correction for those rows, with no counting unless a column set
of deficient rank needs it; every other array is decided by counting each
projection.
"""

from __future__ import annotations

import codecs
import re
import sys
from array import array as int_array
from dataclasses import dataclass
from collections import Counter
from functools import cached_property, lru_cache, partial
from itertools import chain, combinations, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .coding import _labels, _linear_columns, _pivot_product, _rank_split, _whole, decode_index, integer, is_prime
from .errors import (
    DimensionMismatchError,
    InvalidParametersError,
    OversizedColumnSetError,
    UnknownSymbolError,
)

UNBIASED = "unbiased"
COVERING = "covering"

AONT = "aont"
WEAK_AONT_ONLY = "weak-aont-only"
NEITHER = "neither"


@dataclass(frozen=True)
class Alphabet:
    """Canonical symbols 0..size-1, optionally displayed through glyphs."""

    size: int
    glyphs: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", _whole(self.size, "alphabet size"))
        if self.size < 2:
            raise InvalidParametersError(f"alphabet size must be >= 2, got {self.size}")
        if self.glyphs is not None:
            if len(self.glyphs) != self.size or len(set(self.glyphs)) != self.size:
                raise InvalidParametersError(
                    f"need {self.size} distinct glyphs, got {self.glyphs!r}"
                )

    def glyph(self, symbol: int) -> str:
        if self.glyphs is not None:
            return self.glyphs[symbol]
        return str(symbol)

    def symbol(self, token: str) -> int:
        """Decode one display token to a canonical symbol."""
        if self.glyphs is not None:
            try:
                return self.glyphs.index(token)
            except ValueError:
                raise UnknownSymbolError(f"token {token!r} not in alphabet") from None
        try:
            value = integer(token)
        except ValueError:
            raise UnknownSymbolError(f"token {token!r} is not a symbol") from None
        if not 0 <= value < self.size:
            raise UnknownSymbolError(f"symbol {value} outside 0..{self.size - 1}")
        return value


# unsigned typecodes by field width (1, 2, 4 and 8 bytes on common ABIs),
# each with the count of integers its items hold
_FIELD_TYPECODES = tuple((t, 1 << 8 * int_array(t).itemsize) for t in ("B", "H", "I", "Q"))


def _typecode_below(limit: int) -> str | None:
    """Smallest unsigned typecode whose items hold every integer below `limit`."""
    return next((t for t, size in _FIELD_TYPECODES if limit <= size), None)


def field_typecode(v: int, s: int) -> str:
    """Smallest unsigned `array` typecode whose items hold all v^(2s) codes
    of a projection onto up to 2s columns."""
    typecode = _typecode_below(v ** (2 * s))
    if typecode is None:
        raise InvalidParametersError(f"codes of {2 * s} columns over v={v} do not fit in 64 bits")
    return typecode


def symbol_typecode(v: int) -> str:
    """Typecode of a stored column over {0..v-1}: 'B' for v <= 256."""
    typecode = _typecode_below(v)
    if typecode is None:
        raise InvalidParametersError(f"symbols over v={v} do not fit in 64 bits")
    return typecode


def _below(column: bytes | int_array, v: int) -> bool:
    """Is every item of a non-empty column, `bytes` or an `array`, below v?"""
    # deleting the valid bytes is one C pass, with no int per item
    if isinstance(column, bytes) or column.itemsize == 1:
        return not bytes(column).translate(None, bytes(range(v)))
    return max(column) < v


def _row_count_differs(n_rows: int, v: int, s: int) -> bool:
    """n_rows != v^s for v >= 2. A header's v and s can make v^s far too
    long to compute or print; past 2^2048 it exceeds every row count, so
    that mismatch is raised naming v and s, without the power."""
    if s * (v.bit_length() - 1) > 2048:
        raise DimensionMismatchError(f"expected v^s rows for v={v}, s={s}, got {n_rows}")
    return n_rows != v**s


def _check_widths(rows: Sequence[Sequence[object]], width: int) -> None:
    if set(map(len, rows)) - {width}:
        r, row = next((r, row) for r, row in enumerate(rows) if len(row) != width)
        raise DimensionMismatchError(f"row {r + 1} has width {len(row)}, expected {width}")


@dataclass(frozen=True, eq=False, init=False)
class AontArray:
    """A v^s x 2s array over {0..v-1}; immutable once built.

    It stores one `array` of typecode `symbol_typecode(v)` per column, in row
    order: `AontArray(alphabet, s, rows)` builds it from rows and
    `AontArray.from_columns` from columns, and both validate every symbol;
    the CSV decoders, which have checked every symbol, store theirs by
    `_from_symbols`. `rows` is a view rebuilt from the columns on each access.
    """

    alphabet: Alphabet
    s: int
    columns: tuple[int_array, ...]

    def __init__(self, alphabet: Alphabet, s: int, rows: Sequence[Sequence[int]]) -> None:
        v, s = alphabet.size, _whole(s, "s")
        if s < 1:
            raise InvalidParametersError(f"s must be >= 1, got {s}")
        if _row_count_differs(len(rows), v, s):
            raise DimensionMismatchError(f"expected {v**s} rows for v={v}, s={s}, got {len(rows)}")
        width = 2 * s
        _check_widths(rows, width)
        try:
            flat = int_array(symbol_typecode(v), chain.from_iterable(rows))
        except (TypeError, OverflowError):  # a non-integer, or an integer no item holds
            flat = None
        if flat is None or not _below(flat, v):
            for r, row in enumerate(rows):
                for x in row:
                    if not isinstance(x, int):
                        raise UnknownSymbolError(f"row {r + 1} holds symbol {x!r}, not an integer")
                    if not 0 <= x < v:
                        raise UnknownSymbolError(f"row {r + 1} holds symbol {x} outside 0..{v - 1}")
        self._store(alphabet, s, [flat[i::width] for i in range(width)])

    @classmethod
    def from_columns(cls, alphabet: Alphabet, s: int, columns: Sequence[Sequence[int]]) -> AontArray:
        """The array whose i-th column, in row order, is `columns[i]`."""
        v, s = alphabet.size, _whole(s, "s")
        if s < 1:
            raise InvalidParametersError(f"s must be >= 1, got {s}")
        if len(columns) != 2 * s:
            raise DimensionMismatchError(f"expected {2 * s} columns for s={s}, got {len(columns)}")
        typecode = symbol_typecode(v)
        stored = []
        for i, column in enumerate(columns):
            try:
                column = int_array(typecode, column)
            except (TypeError, OverflowError):
                raise UnknownSymbolError(
                    f"column {i + 1} holds a symbol that is not an integer in 0..{v - 1}"
                ) from None
            if _row_count_differs(len(column), v, s):
                raise DimensionMismatchError(f"column {i + 1} has {len(column)} rows, expected {v**s}")
            if not _below(column, v):
                raise UnknownSymbolError(f"column {i + 1} holds symbol {max(column)} outside 0..{v - 1}")
            stored.append(column)
        array = cls.__new__(cls)
        array._store(alphabet, s, stored)
        return array

    @classmethod
    def _from_symbols(cls, alphabet: Alphabet, s: int, flat: bytes | int_array) -> AontArray:
        """The array whose row-major symbols are `flat`, its shape and every
        symbol already checked: `bytes` for v <= 256, otherwise an `array` of
        `symbol_typecode(v)`. Each column is one stride slice, copied whole
        into its `array`, with no int per item and no second check."""
        width, typecode = 2 * s, symbol_typecode(alphabet.size)
        array = cls.__new__(cls)
        array._store(alphabet, s, [int_array(typecode, flat[i::width]) for i in range(width)])
        return array

    def _store(self, alphabet: Alphabet, s: int, columns: list[int_array]) -> None:
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "columns", tuple(columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AontArray):
            return NotImplemented
        return (self.alphabet, self.s, self.columns) == (other.alphabet, other.s, other.columns)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.s, *map(bytes, self.columns)))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.columns))

    @cached_property
    def packed_columns(self) -> tuple[int, ...]:
        """Every column packed by `_pack` into `field_typecode(v, s)` fields,
        once per array, for `projection_codes`."""
        return _pack(self.columns, field_typecode(self.v, self.s))

    @property
    def v(self) -> int:
        return self.alphabet.size

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    @property
    def input_columns(self) -> tuple[int, ...]:
        return tuple(range(1, self.s + 1))

    @property
    def output_columns(self) -> tuple[int, ...]:
        return tuple(range(self.s + 1, 2 * self.s + 1))

    def project(self, row: Sequence[int], cols: Sequence[int]) -> tuple[int, ...]:
        """Projection of one row onto 1-based column labels."""
        return tuple(row[c - 1] for c in cols)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one unbiased/covering check on one column set."""

    kind: str  # UNBIASED or COVERING
    columns: tuple[int, ...]
    expected_multiplicity: int | None = None  # N / v^|I|; None for covering
    first_violation: tuple[int, ...] | None = None
    observed_count: int | None = None

    @property
    def holds(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class ClassificationVerdict:
    t_i: int
    t_o: int
    verdict: str  # AONT, WEAK_AONT_ONLY or NEITHER
    witness: tuple[int, ...] | None = None  # first failing column set, if any


def normalize_columns(cols: Iterable[int]) -> tuple[int, ...]:
    """Sort and de-duplicate a non-empty 1-based column set; `projection_codes`
    checks the labels against 1..2s."""
    out = _labels(cols)
    if not out:
        raise InvalidParametersError("column set must be non-empty")
    return out


def parse_array(
    raw_rows: Sequence[Sequence[object]],
    v: int,
    s: int,
    glyphs: Sequence[str] | None = None,
) -> AontArray:
    """Decode and validate raw rows (integer symbols or display tokens).

    String tokens are decoded through `glyphs` when supplied; otherwise
    numeric tokens are taken literally and non-numeric tokens are mapped to
    0..v-1 in row-major order of first appearance, which keeps the canonical
    tables stable across loads.
    """
    v, s = _whole(v, "v"), _whole(s, "s")
    if v < 2 or s < 1:
        raise InvalidParametersError(f"need v >= 2 and s >= 1, got v={v}, s={s}")
    rows = list(map(tuple, raw_rows))
    if _row_count_differs(len(rows), v, s):
        raise DimensionMismatchError(f"expected {v**s} rows, got {len(rows)}")
    _check_widths(rows, 2 * s)

    if all(map(isinstance, chain.from_iterable(rows), repeat(int))):
        alphabet = Alphabet(v, tuple(glyphs) if glyphs is not None else None)
        return AontArray(alphabet, s, rows)

    tokens = list(chain.from_iterable(rows))
    if not all(map(isinstance, tokens, repeat(str))):
        tokens = list(map(str, tokens))
    return _decode_tokens(tokens, v, s, glyphs)


def _decode_tokens(tokens: list[str], v: int, s: int, glyphs: Sequence[str] | None) -> AontArray:
    """The array whose row-major symbols are `tokens`, decoded as
    `parse_array` describes; the shape is already checked."""
    # each distinct token is decoded once, in row-major order of first
    # appearance, so the first bad token is the one a row-by-row scan meets
    table = dict.fromkeys(tokens)
    if glyphs is not None:
        alphabet = Alphabet(v, tuple(glyphs))
    elif all(token.lstrip("-").isdigit() for token in table):
        alphabet = Alphabet(v)
    else:
        if len(table) > v:
            raise UnknownSymbolError(f"found {len(table)} distinct tokens, alphabet holds only {v}")
        # pad with unused placeholder glyphs so the display map stays a bijection
        seen = list(table)
        k = len(seen)
        while len(seen) < v:
            if f"#{k}" not in table:
                seen.append(f"#{k}")
            k += 1
        alphabet = Alphabet(v, tuple(seen))
    for token in table:
        table[token] = alphabet.symbol(token)
    symbols = map(table.__getitem__, tokens)
    # bytes() takes an iterator of small ints about twice as fast as array() does
    flat = bytes(symbols) if v <= 256 else int_array(symbol_typecode(v), symbols)
    return AontArray._from_symbols(alphabet, s, flat)


def projection_codes(array: AontArray, cols: Sequence[int]) -> int_array:
    """Mixed-radix code of every row's projection onto `cols` (1-based labels
    in 1..2s, each read by `coding._whole`, in the order given, repeats kept,
    at most 2s of them), as an `array` in row order.

    The packed columns are combined by big-integer multiply-adds, one per
    column, with no loop over rows. This is exact because no field carries
    into the next: a field holds a code below v^|cols| <= v^(2s), and the
    fields are sized for v^(2s). With N = v^s rows in memory, v^(2s) = N^2
    < 2^64, so 8-byte fields always suffice.
    """
    if len(cols) > 2 * array.s:
        raise OversizedColumnSetError(f"{len(cols)} columns exceed the array width {2 * array.s}")
    cols = tuple(map(_whole, cols))
    if cols and not 1 <= min(cols) <= max(cols) <= 2 * array.s:
        raise InvalidParametersError(f"column labels {cols} outside 1..{2 * array.s}")
    return _codes(array.packed_columns, cols, array.v, field_typecode(array.v, array.s), array.n_rows)


def _pack(columns: Iterable[Sequence[int]], typecode: str) -> tuple[int, ...]:
    """Each column as one integer of fixed-width fields, one field per row:
    its `to_bytes(..., sys.byteorder)` is the column as an `array` of
    `typecode`, in row order.

    A column of 1-byte items (`bytes`, or an `array` over v <= 256) is
    widened by one strided copy into a zeroed buffer of fields, with no int
    per item: each byte is a field's low byte, at offset 0 of the field on a
    little-endian machine and at its last offset on a big-endian one. Any
    other column (a list, wider items) goes through the `array` constructor.
    """
    size = int_array(typecode).itemsize
    low = 0 if sys.byteorder == "little" else size - 1
    packed = []
    for column in columns:
        if isinstance(column, bytes) or isinstance(column, int_array) and column.typecode == "B":
            fields = bytearray(size * len(column))
            fields[low::size] = column
        else:
            fields = int_array(typecode, column)
        packed.append(int.from_bytes(fields, sys.byteorder))
    return tuple(packed)


def _codes(packed: Sequence[int], cols: Sequence[int], v: int, typecode: str, n_rows: int) -> int_array:
    """The codes of `n_rows` rows on `cols` (1-based), from their columns
    packed by `_pack` into `typecode` fields: the kernel of `projection_codes`."""
    code = 0
    for c in cols:
        code = code * v + packed[c - 1]
    codes = int_array(typecode)
    codes.frombytes(code.to_bytes(n_rows * codes.itemsize, sys.byteorder))
    return codes


def _count_projection(array: AontArray, cols: tuple[int, ...]) -> list[int]:
    """How often each of the v^|cols| codes of the projection onto `cols`
    occurs; every caller stays within s columns, so v^|cols| <= N."""
    counts = [0] * array.v ** len(cols)
    for code in projection_codes(array, cols):
        counts[code] += 1
    return counts


def _counted(array: AontArray, cols: Iterable[int]) -> tuple[tuple[int, ...], list[int]]:
    """The normalised column set, of at most s columns, and its counts."""
    cset = normalize_columns(cols)
    if len(cset) > array.s:
        raise OversizedColumnSetError(
            f"column set of size {len(cset)} exceeds s={array.s}"
        )
    return cset, _count_projection(array, cset)


def check_unbiased(array: AontArray, cols: Iterable[int]) -> PropertyReport:
    """Does every |I|-tuple appear exactly N/v^|I| times in the projection?"""
    cset, counts = _counted(array, cols)
    expected = array.n_rows // array.v ** len(cset)
    if counts.count(expected) == len(counts):
        return PropertyReport(UNBIASED, cset, expected_multiplicity=expected)
    code, count = next((code, count) for code, count in enumerate(counts) if count != expected)
    return PropertyReport(
        UNBIASED,
        cset,
        expected_multiplicity=expected,
        first_violation=decode_index(code, array.v, len(cset)),
        observed_count=count,
    )


def check_covering(array: AontArray, cols: Iterable[int]) -> PropertyReport:
    """Does every |I|-tuple appear at least once in the projection?"""
    cset, counts = _counted(array, cols)
    if 0 not in counts:
        return PropertyReport(COVERING, cset)
    return PropertyReport(
        COVERING,
        cset,
        first_violation=decode_index(counts.index(0), array.v, len(cset)),
        observed_count=0,
    )


def column_set_family(s: int, t_i: int, t_o: int) -> Iterator[tuple[int, ...]]:
    """Column sets the definitions quantify over, in deterministic order.

    Yields the input block, the output block, then every union of t_i input
    columns with s-t_o output columns in lexicographic (I, J) order. It is
    defined for 1 <= t_i <= t_o <= s only, and checks that at its first step.
    """
    t_i, t_o = check_t_range(s, t_i, t_o)
    yield tuple(range(1, s + 1))
    yield tuple(range(s + 1, 2 * s + 1))
    for i_cols in combinations(range(1, s + 1), t_i):
        for j_cols in combinations(range(s + 1, 2 * s + 1), s - t_o):
            yield i_cols + j_cols


def check_t_range(s: int, t_i: int, t_o: int) -> tuple[int, int]:
    """t_i and t_o given from outside, each read by `coding._whole`, if
    1 <= t_i <= t_o <= s; otherwise InvalidParametersError."""
    t_i, t_o = _whole(t_i, "t_i"), _whole(t_o, "t_o")
    if not 1 <= t_i <= t_o <= s:
        raise InvalidParametersError(
            f"need 1 <= t_i <= t_o <= s, got t_i={t_i}, t_o={t_o}, s={s}"
        )
    return t_i, t_o


# maps every non-zero byte to 1, so `find(1)` meets each one in turn
_NONZERO_BYTES = b"\0" + b"\1" * 255


def _linear_matrix(array: AontArray) -> tuple[list[tuple[int, ...]], list[int], list[Sequence[int]]] | None:
    """The rows of M, the row indices D where the array differs from
    {(x, xM)}, in order, and the 2s columns of {(x, xM)}, for x in
    lexicographic order over a prime v. None for a composite v, or as soon
    as 2|D| >= N.

    Row i of M is read from the outputs at row index v^(s-1-i), where x is
    the unit vector e_i; M may be singular. Each column is compared with
    that column of [I_s | M] expanded over every x, outputs first; a column
    that agrees is returned as the array's own. A column that differs is
    XORed with its expansion as an integer, and the rows where a byte of
    the XOR is non-zero are ORed into one mask of a byte per row, so D is
    found once, by `bytes.find`, with no object per row that agrees. Past
    half the rows, correcting each column set's counts row by row (see
    `_set_properties`) would cost more than counting them, so the
    comparison stops there.
    """
    v, s, n = array.v, array.s, array.n_rows
    if not is_prime(v):
        return None
    units = [v ** (s - 1 - i) for i in range(s)]
    m_columns = [tuple(map(column.__getitem__, units)) for column in array.columns[s:]]
    identity = [(0,) * i + (1,) + (0,) * (s - 1 - i) for i in range(s)]
    linear: list[Sequence[int]] = list(array.columns)
    size = linear[0].itemsize
    mask = 0
    order = chain(range(s, 2 * s), range(s))
    for c, expected in zip(order, _linear_columns(m_columns + identity, v)):
        column = array.columns[c]
        expected = int_array(column.typecode, expected)
        if column == expected:
            continue
        linear[c] = expected
        flags = int.from_bytes(column, "little") ^ int.from_bytes(expected, "little")
        flags = flags.to_bytes(n * size, "little")
        for k in range(size):  # a row differs where any byte of its item does
            mask |= int.from_bytes(flags[k::size], "little")
        if 2 * (n - mask.to_bytes(n, "little").count(0)) >= n:
            return None
    # a linear array, D empty, scans no N-byte mask
    flags = mask.to_bytes(n, "little").translate(_NONZERO_BYTES) if mask else b""
    rows = []
    r = flags.find(1)
    while r >= 0:
        rows.append(r)
        r = flags.find(1, r + 1)
    return list(zip(*m_columns)), rows, linear


def _counted_properties(array: AontArray, cols: tuple[int, ...]) -> tuple[bool, bool]:
    """(unbiased, covering) of a column set of at most s columns, by counting
    its projection; an unbiased set is covering, since N/v^|cols| >= 1."""
    counts = _count_projection(array, cols)
    unbiased = counts.count(array.n_rows // array.v ** len(cols)) == len(counts)
    return unbiased, unbiased or 0 not in counts


def _set_properties(array: AontArray) -> Callable[[tuple[int, ...]], tuple[bool, bool]]:
    """(unbiased, covering) of each column set of the family: by counting,
    unless `_linear_matrix` finds M, the rows D where the array differs from
    {(x, xM)} and the columns of {(x, xM)}; then by rank plus a row
    correction, exactly.

    The counts of the array on a set C of k columns are those of {(x, xM)},
    less the codes of its rows D, plus the codes of the array's rows D:
    each column is packed once, its linear symbols at D followed by the
    array's. If C has full rank (`_pivot_product`), every code has N/v^k
    linear rows, less those D removes plus those D adds: C is unbiased iff
    the removed and added codes are equal as multisets, and covering iff no
    code's net loss reaches N/v^k. Otherwise the linear image misses at
    least v^k - v^(k-1) codes, each needing a row of D to be covered: with
    fewer rows in D, C is neither; with as many, C is counted.
    """
    recognised = _linear_matrix(array)
    if recognised is None:
        return partial(_counted_properties, array)
    m, rows, linear = recognised
    v, s, n = array.v, array.s, array.n_rows
    d = len(rows)
    typecode = field_typecode(v, s)
    # each column at the rows D: first as {(x, xM)} has it, then as the array does
    at_d = [[column[r] for r in rows] for column in chain(linear, array.columns)]
    packed = _pack([at_d[c] + at_d[2 * s + c] for c in range(2 * s)], typecode)

    def properties(cols: tuple[int, ...]) -> tuple[bool, bool]:
        k = len(cols)
        m_rows, j_cols = _rank_split(s, cols)
        if j_cols and not _pivot_product([[m[r][j] for j in j_cols] for r in m_rows], v):
            if d < v ** (k - 1) * (v - 1):
                return False, False
            return _counted_properties(array, cols)
        if not d:
            return True, True
        codes = _codes(packed, cols, v, typecode, 2 * d)
        removed, added = codes[:d], codes[d:]
        if sorted(removed) == sorted(added):
            return True, True
        lost = Counter(removed)
        lost.subtract(added)
        return False, max(lost.values()) < n // v**k

    return properties


def classify(array: AontArray, t_i: int, t_o: int) -> ClassificationVerdict:
    """Full verdict: aont, weak-aont-only, or neither, with a failure witness.

    Each column set of the family gets its (unbiased, covering) pair once,
    in family order, from `_set_properties`, which states when it counts
    and when rank plus a row correction decides; either way the pair is
    exact, so the verdict and witness are counting's.

    The first set that is not covering makes the array neither; otherwise
    the first set that is not unbiased makes it weak-aont-only. t_i and t_o
    are read by `check_t_range`.
    """
    t_i, t_o = check_t_range(array.s, t_i, t_o)
    family = column_set_family(array.s, t_i, t_o)
    properties = _set_properties(array)
    unbiased_witness: tuple[int, ...] | None = None
    for cols in family:
        unbiased, covering = properties(cols)
        if unbiased_witness is None:
            if unbiased:
                continue
            unbiased_witness = cols
        if not covering:
            return ClassificationVerdict(t_i, t_o, NEITHER, witness=cols)
    if unbiased_witness is None:
        return ClassificationVerdict(t_i, t_o, AONT)
    return ClassificationVerdict(t_i, t_o, WEAK_AONT_ONLY, witness=unbiased_witness)


# arrays are immutable, so verdicts can be memoized for the verify-heavy paths
cached_classify = lru_cache(maxsize=512)(classify)


def passes_unbiased_family(array: AontArray, t_i: int, t_o: int) -> bool:
    """Is the array a full (t_i, t_o) transform? `classify`'s verdict, by
    rank for a linear array; kept as its own name for perfbench/tracing.py."""
    return classify(array, t_i, t_o).verdict == AONT


# --- CSV surface -----------------------------------------------------------
#
# One row per line, 2s comma-separated single-token symbols, with an optional
# first line "# v=<v> s=<s>". Parsing then serializing a canonical table
# reproduces it byte-for-byte apart from that header.

# at most three digits each, so int() never meets a number too long to convert
_CANONICAL_HEADER = re.compile(rb"# v=([0-9]{1,3}) s=([0-9]{1,3})\n")
_DIGITS = b"0123456789"
# each digit to 0x80 plus its value, and a comma or newline to 0
_FLAGGED_DIGITS = bytes.maketrans(_DIGITS + b",\n", bytes(range(0x80, 0x8A)) + bytes(2))
# a byte from 0x80 up to its value less 0x80; each byte below 0x80 is deleted
_UNFLAG, _UNFLAGGED = bytes(128) + bytes(range(128)), bytes(range(128))
# each digit to its value and every other byte to 0xFF
_DIGIT_OR_FF = b"\xff" * ord("0") + bytes(range(10)) + b"\xff" * (255 - ord("9"))
# the two-digit decode reads whole rows from about this many bytes on, so
# each chunk's big integers stay in cache
_CHUNK = 1 << 14


def _parse_canonical(data: bytes) -> AontArray | None:
    """The array of a text laid out as `dump_array_csv` writes it with its
    header, which gives (v, s), over v <= 100, decoded in passes over its
    bytes with no object per token; None for any other text, which is then
    parsed token by token, and so raises every error. A body of one-digit
    tokens is read by stride, any other by `_two_digit_symbols`."""
    header = _CANONICAL_HEADER.match(data)
    if header is None or not data.isascii():
        return None
    v, s = int(header[1]), int(header[2])
    # 2^s <= v^s rows <= len(data) bounds s before v^s is computed
    if not (2 <= v <= 100 and 1 <= s < len(data).bit_length()):
        return None
    start = header.end()
    width, n_rows, size = 2 * s, v**s, len(data) - start
    # a row of width one- or two-digit tokens, each with its separator, holds
    # 2 * width to 3 * width bytes; checked before any row-sized pattern is built
    if not 2 * width * n_rows <= size <= 3 * width * n_rows:
        return None
    separators = b"," * (width - 1) + b"\n"  # of one row
    if size == 2 * width * n_rows:
        # one byte per token: the separators sit at the odd offsets and the
        # digits at the even ones, where any other byte reads 0xFF, above v
        if data[start + 1 :: 2] != separators * n_rows:
            return None
        flat = data[start::2].translate(_DIGIT_OR_FF)
    else:
        flat = _two_digit_symbols(data, start, separators)
        if flat is None or len(flat) != width * n_rows:
            return None
    if not _below(flat, v):
        return None
    return AontArray._from_symbols(Alphabet(v), s, flat)


def _two_digit_symbols(data: bytes, start: int, separators: bytes) -> bytes | None:
    """One byte per token of the rows `data[start:]` of one- and two-digit
    tokens, each row laid out as `separators` with digits before each
    separator; None for a token of three or more digits, an empty token, or
    any other layout.

    The rows are read in chunks of whole rows, each ending at the first
    newline `_CHUNK` bytes or more past its start, so no token spans two
    chunks and no copy of the whole body is made. Each chunk's separators
    are checked by one `bytes.translate`. Its digits, flagged by 0x80 and
    read as one big-endian integer, give each token's symbol at its last
    digit: >> 8 moves each byte one place right and << 8 one place left, and
    no byte of the values exceeds 99, so nothing carries."""
    width = len(separators)
    # a valid row holds at most 3 * width bytes, so a valid chunk at most this
    limit = _CHUNK + 3 * width
    flags = int.from_bytes(b"\x80" * limit, "big")
    parts = []
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK) + 1 or len(data)
        chunk = data[start:end]
        start = end
        if len(chunk) > limit:
            return None
        layout = chunk.translate(None, _DIGITS)
        if layout != separators * (len(layout) // width):
            return None
        flagged = int.from_bytes(chunk.translate(_FLAGGED_DIGITS), "big")
        digits = flagged & flags >> 8 * (limit - len(chunk))  # 0x80 on each digit
        values = flagged ^ digits
        pairs = digits & digits << 8  # 0x80 on a digit followed by a digit
        if pairs & pairs << 8:  # a token of three or more digits
            return None
        symbols = values + 10 * (values >> 8)  # units + 10 tens on a token's last digit
        # a token's last digit is flagged, not followed by a digit; every other byte is dropped
        part = (symbols | digits ^ pairs).to_bytes(len(chunk), "big").translate(_UNFLAG, _UNFLAGGED)
        # one symbol per non-empty token, so a short count means an empty token
        if len(part) != len(layout):
            return None
        parts.append(part)
    return b"".join(parts)


def parse_array_csv(text: str) -> AontArray:
    """The array of a CSV text; (v, s) come from its header "# v=<v> s=<s>",
    or without one, s from the first row's width and v from the row count."""
    array = _parse_canonical(text.encode()) if text.isascii() else None
    return array if array is not None else _parse_tokens(text)


def _parse_tokens(text: str) -> AontArray:
    """`parse_array_csv` token by token, for every text; a line ends at
    `\\n`, `\\r\\n`, a lone `\\r` or any other break `str.splitlines` knows."""
    lines = list(filter(str.strip, text.splitlines()))
    v = s = None
    if lines and lines[0].lstrip().startswith("#"):
        header = lines.pop(0).lstrip("# ").strip()
        fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
        try:
            v, s = integer(fields["v"]), integer(fields["s"])
        except (KeyError, ValueError):
            raise DimensionMismatchError(f"malformed header: {header!r}") from None
    if not lines:
        raise DimensionMismatchError("no data rows")
    if s is None:  # no header
        width = lines[0].count(",") + 1
        if width % 2:
            raise DimensionMismatchError(f"odd row width {width}, cannot split into inputs/outputs")
        s = width // 2
        v = round(len(lines) ** (1.0 / s))
        if v < 2 or v**s != len(lines):
            raise DimensionMismatchError(
                f"{len(lines)} rows is not a perfect s={s} power of any alphabet size"
            )
    widths = set(map(str.count, lines, repeat(",")))
    if v < 2 or s < 1 or _row_count_differs(len(lines), v, s) or widths != {2 * s - 1}:
        # a shape error: parse_array names it, row by row
        return parse_array([tuple(map(str.strip, line.split(","))) for line in lines], v, s)
    body = ",".join(lines)
    del lines  # the body holds the same text in one string
    tokens = body.split(",")
    # split() drops no character only when there is no whitespace to strip
    if body.split(maxsplit=1) != [body]:
        tokens = list(map(str.strip, tokens))
    del body
    return _decode_tokens(tokens, v, s, None)


def load_array_csv(path: str) -> AontArray:
    """The array of a UTF-8 CSV file, its shape read as `parse_array_csv`
    reads it. The file is read as bytes, less a leading byte-order mark; the
    canonical decode sees each `\\r\\n` and lone `\\r` as `\\n`, as text mode
    would read it, and only a file it declines is decoded to text."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    array = _parse_canonical(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data)
    if array is not None:
        return array
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise UnknownSymbolError(f"{path} is not UTF-8 text: {exc}") from None
    return _parse_tokens(text)


def dump_array_csv(array: AontArray, header: bool = True) -> str:
    lines = []
    if header:
        lines.append(f"# v={array.v} s={array.s}")
    for row in array.rows:
        lines.append(",".join(array.alphabet.glyph(x) for x in row))
    return "\n".join(lines) + "\n"


def save_array_csv(array: AontArray, path: str, header: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_array_csv(array, header=header))
