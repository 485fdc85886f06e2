"""Candidate transform arrays and their unbiased/covering column properties.

An array holds v^s rows of width 2s over the alphabet {0..v-1}; columns are
labeled 1..2s, with 1..s the inputs and s+1..2s the outputs. A column set is
*unbiased* when every projected tuple appears exactly N/v^|I| times, and
*covering* when every projected tuple appears at least once. Classification
checks both properties over the column-set families that define the full and
the relaxed transform classes. A linear array {(x, xM)} over a prime v is
recognised from its 2s columns and decided by rank, with no counting; every
other array is decided by counting each projection.
"""

from __future__ import annotations

import re
import sys
from array import array as int_array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, repeat
from typing import Iterable, Iterator, Sequence

from .coding import _linear_column, _pivot_product, decode_index, is_prime
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
            value = int(token)
        except ValueError:
            raise UnknownSymbolError(f"token {token!r} is not a symbol") from None
        if not 0 <= value < self.size:
            raise UnknownSymbolError(f"symbol {value} outside 0..{self.size - 1}")
        return value


# unsigned typecodes by field width: 1, 2, 4 and 8 bytes on common ABIs
_FIELD_TYPECODES = ("B", "H", "I", "Q")


def _typecode_below(limit: int) -> str | None:
    """Smallest unsigned typecode whose items hold every integer below `limit`."""
    return next((t for t in _FIELD_TYPECODES if limit <= 1 << 8 * int_array(t).itemsize), None)


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


def _below(column: int_array, v: int) -> bool:
    """Is every item of a non-empty column below v?"""
    if column.itemsize == 1:  # deleting the valid bytes is one C pass, with no int per item
        return not column.tobytes().translate(None, bytes(range(v)))
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
    `AontArray.from_columns` from columns, and both validate every symbol.
    `rows` is a view rebuilt from the columns on each access.
    """

    alphabet: Alphabet
    s: int
    columns: tuple[int_array, ...]

    def __init__(self, alphabet: Alphabet, s: int, rows: Sequence[Sequence[int]]) -> None:
        v = alphabet.size
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
        v = alphabet.size
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
        """Every column as one integer of fixed-width fields, one field per
        row, packed once per array for `projection_codes`: its
        `to_bytes(..., sys.byteorder)` is the column as an `array` of
        `field_typecode(v, s)`, in row order."""
        typecode = field_typecode(self.v, self.s)
        return tuple(
            int.from_bytes(int_array(typecode, column).tobytes(), sys.byteorder) for column in self.columns
        )

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
    holds: bool
    expected_multiplicity: int | None = None  # N / v^|I|; None for covering
    first_violation: tuple[int, ...] | None = None
    observed_count: int | None = None

    def __post_init__(self) -> None:
        if self.holds and self.first_violation is not None:
            raise InvalidParametersError("a holding report cannot carry a violation")


@dataclass(frozen=True)
class ClassificationVerdict:
    t_i: int
    t_o: int
    verdict: str  # AONT, WEAK_AONT_ONLY or NEITHER
    witness: tuple[int, ...] | None = None  # first failing column set, if any


def normalize_columns(cols: Iterable[int], width: int) -> tuple[int, ...]:
    """Validate and sort a 1-based column set against a 1..width label range."""
    out = tuple(sorted(set(int(c) for c in cols)))
    if not out:
        raise InvalidParametersError("column set must be non-empty")
    if out[0] < 1 or out[-1] > width:
        raise InvalidParametersError(f"column labels {out} outside 1..{width}")
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
    flat = int_array("B", bytes(symbols)) if v <= 256 else int_array(symbol_typecode(v), symbols)
    width = 2 * s
    return AontArray.from_columns(alphabet, s, [flat[i::width] for i in range(width)])


def projection_codes(array: AontArray, cols: Sequence[int]) -> int_array:
    """Mixed-radix code of every row's projection onto `cols` (1-based labels
    in 1..2s, any order, at most 2s of them), as an `array` in row order.

    The packed columns are combined by big-integer multiply-adds, one per
    column, with no loop over rows. This is exact because no field carries
    into the next: a field holds a code below v^|cols| <= v^(2s), and the
    fields are sized for v^(2s). With N = v^s rows in memory, v^(2s) = N^2
    < 2^64, so 8-byte fields always suffice.
    """
    if len(cols) > 2 * array.s:
        raise OversizedColumnSetError(f"{len(cols)} columns exceed the array width {2 * array.s}")
    if cols and not 1 <= min(cols) <= max(cols) <= 2 * array.s:
        raise InvalidParametersError(f"column labels {tuple(cols)} outside 1..{2 * array.s}")
    columns = array.packed_columns
    v = array.v
    packed = 0
    for c in cols:
        packed = packed * v + columns[c - 1]
    codes = int_array(field_typecode(v, array.s))
    codes.frombytes(packed.to_bytes(array.n_rows * codes.itemsize, sys.byteorder))
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
    cset = normalize_columns(cols, 2 * array.s)
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
        return PropertyReport(UNBIASED, cset, holds=True, expected_multiplicity=expected)
    code, count = next((code, count) for code, count in enumerate(counts) if count != expected)
    return PropertyReport(
        UNBIASED,
        cset,
        holds=False,
        expected_multiplicity=expected,
        first_violation=decode_index(code, array.v, len(cset)),
        observed_count=count,
    )


def check_covering(array: AontArray, cols: Iterable[int]) -> PropertyReport:
    """Does every |I|-tuple appear at least once in the projection?"""
    cset, counts = _counted(array, cols)
    if 0 not in counts:
        return PropertyReport(COVERING, cset, holds=True)
    return PropertyReport(
        COVERING,
        cset,
        holds=False,
        first_violation=decode_index(counts.index(0), array.v, len(cset)),
        observed_count=0,
    )


def column_set_family(s: int, t_i: int, t_o: int) -> Iterator[tuple[int, ...]]:
    """Column sets the definitions quantify over, in deterministic order.

    Yields the input block, the output block, then every union of t_i input
    columns with s-t_o output columns in lexicographic (I, J) order. It is
    defined for 1 <= t_i <= t_o <= s only, and checks that at its first step.
    """
    check_t_range(s, t_i, t_o)
    yield tuple(range(1, s + 1))
    yield tuple(range(s + 1, 2 * s + 1))
    for i_cols in combinations(range(1, s + 1), t_i):
        for j_cols in combinations(range(s + 1, 2 * s + 1), s - t_o):
            yield i_cols + j_cols


def check_t_range(s: int, t_i: int, t_o: int) -> None:
    """Reject protection parameters outside 1 <= t_i <= t_o <= s."""
    if not 1 <= t_i <= t_o <= s:
        raise InvalidParametersError(
            f"need 1 <= t_i <= t_o <= s, got t_i={t_i}, t_o={t_o}, s={s}"
        )


def _linear_matrix(array: AontArray) -> list[tuple[int, ...]] | None:
    """The rows of M if the array is {(x, xM)} for x in lexicographic order
    over a prime v, else None.

    Row i of M is read from the outputs at row index v^(s-1-i), where x is
    the unit vector e_i. The array is then linear iff each of its columns
    equals that column of [I_s | M] expanded over every x; the outputs are
    compared first, and the first mismatch ends the test. M may be singular.
    """
    v, s = array.v, array.s
    if not is_prime(v):
        return None
    outputs = array.columns[s:]
    m = [tuple(column[v ** (s - 1 - i)] for column in outputs) for i in range(s)]
    identity = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    expected = zip(outputs + array.columns[:s], list(zip(*m)) + identity)
    for column, coefficients in expected:
        if column != int_array(column.typecode, _linear_column(coefficients, v)):
            return None
    return m


def classify(array: AontArray, t_i: int, t_o: int) -> ClassificationVerdict:
    """Full verdict: aont, weak-aont-only, or neither, with a failure witness.

    A linear array {(x, xM)} over a prime v (see `_linear_matrix`) is decided
    by rank: a set I u J of the family, I inputs and J outputs, is unbiased
    iff J is empty or the rows of M outside I, restricted to the columns J,
    have full column rank mod v. Its projections are linear maps, uniform on
    their image, so a set is unbiased iff it is covering: the verdict is
    aont, or neither at the first failing set, as counting would find.

    Any other array is counted, each column set of the family once. The
    first set that is not covering makes the array neither; otherwise the
    first set that is not unbiased makes it weak-aont-only. An unbiased set
    is covering, since N/v^|I| >= 1 for |I| <= s, so only sets from the
    first unbiased failure on are tested for covering. Parameters outside
    1 <= t_i <= t_o <= s raise InvalidParametersError from the family.
    """
    family = column_set_family(array.s, t_i, t_o)
    m = _linear_matrix(array)
    if m is not None:
        s = array.s
        for cols in family:
            j_cols = [c - s - 1 for c in cols if c > s]
            if j_cols and not _pivot_product(
                [[row[j] for j in j_cols] for r, row in enumerate(m, 1) if r not in cols], array.v
            ):
                return ClassificationVerdict(t_i, t_o, NEITHER, witness=cols)
        return ClassificationVerdict(t_i, t_o, AONT)
    unbiased_witness: tuple[int, ...] | None = None
    for cols in family:
        counts = _count_projection(array, cols)
        if unbiased_witness is None:
            if counts.count(array.n_rows // array.v ** len(cols)) == len(counts):
                continue
            unbiased_witness = cols
        if 0 in counts:
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
_CANONICAL_HEADER = re.compile(r"# v=([0-9]{1,3}) s=([0-9]{1,3})\n")
_DIGITS = b"0123456789"
_DIGIT_VALUES = bytes.maketrans(_DIGITS + b",\n", bytes(range(10)) + bytes(2))
_DIGIT_ONES = bytes.maketrans(_DIGITS + b",\n", b"\1" * 10 + bytes(2))


def _parse_canonical(text: str, v: int | None, s: int | None) -> AontArray | None:
    """The array of a text laid out as `dump_array_csv` writes it with its
    header, over v <= 100, decoded in whole-text passes with no object per
    token; None for any other text, which `parse_array_csv` then parses
    token by token, and so raises every error."""
    header = _CANONICAL_HEADER.match(text)
    if header is None or not text.isascii():
        return None
    header_v, header_s = int(header[1]), int(header[2])
    if v not in (None, header_v) or s not in (None, header_s):
        return None
    # 2^s <= v^s rows <= len(text) bounds s before v^s is computed
    if not (2 <= header_v <= 100 and 1 <= header_s < len(text).bit_length()):
        return None
    width, n_rows, size = 2 * header_s, header_v**header_s, len(text) - header.end()
    # a row of width one- or two-digit tokens, each with its separator, holds
    # 2 * width to 3 * width bytes; checked before any row-sized pattern is built
    if not 2 * width * n_rows <= size <= 3 * width * n_rows:
        return None
    body = text[header.end() :].encode()
    if body.translate(None, _DIGITS) != (b"," * (width - 1) + b"\n") * n_rows:
        return None
    # read as big-endian integers, >> 8 moves each byte one place right and
    # << 8 one place left; no byte below exceeds 99, so nothing carries. Each
    # del frees a text-sized integer before the next one is built.
    ones = int.from_bytes(body.translate(_DIGIT_ONES), "big")
    if ones & ones >> 8 & ones >> 16:  # a token of three or more digits
        return None
    values = int.from_bytes(body.translate(_DIGIT_VALUES), "big")
    del body
    last = 255 * (ones ^ (ones & ones << 8))  # 0xFF on a digit followed by a separator
    del ones
    symbols = values + 10 * (values >> 8)  # units + 10 tens on a token's last digit
    del values
    # every byte but a token's last digit is set to 0xFF, then dropped
    flat = int_array("B", (symbols | ((1 << 8 * size) - 1) ^ last).to_bytes(size, "big").translate(None, b"\xff"))
    # one symbol per non-empty token, so a short count means an empty token
    if len(flat) != width * n_rows or not _below(flat, header_v):
        return None
    return AontArray.from_columns(Alphabet(header_v), header_s, [flat[i::width] for i in range(width)])


def parse_array_csv(text: str, v: int | None = None, s: int | None = None) -> AontArray:
    array = _parse_canonical(text, v, s)
    if array is not None:
        return array
    lines = list(filter(str.strip, text.splitlines()))
    if lines and lines[0].lstrip().startswith("#"):
        header = lines.pop(0).lstrip("# ").strip()
        fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
        try:
            header_v = int(fields["v"])
            header_s = int(fields["s"])
        except (KeyError, ValueError):
            raise DimensionMismatchError(f"malformed header: {header!r}") from None
        if v is not None and v != header_v or s is not None and s != header_s:
            raise DimensionMismatchError(
                f"header (v={header_v}, s={header_s}) conflicts with (v={v}, s={s})"
            )
        v, s = header_v, header_s
    if not lines:
        raise DimensionMismatchError("no data rows")
    width = lines[0].count(",") + 1
    if s is None:
        if width % 2:
            raise DimensionMismatchError(f"odd row width {width}, cannot split into inputs/outputs")
        s = width // 2
    if v is None:
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


def load_array_csv(path: str, v: int | None = None, s: int | None = None) -> AontArray:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise UnknownSymbolError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_array_csv(text, v=v, s=s)


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
