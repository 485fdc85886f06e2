"""Reference projection counting, classification and CSV parsing, for
cross-checking.

These are the per-row and per-token paths that the package's packed-column
kernel and decode-once parser replaced. The projection helpers read only
`array.rows` and `array.v`; the parser decodes every token through
`Alphabet.symbol` and validates row by row, as the package used to. Its
glyph padding takes the next unused `#k` filler, which is the package's
rule (the old loop never ended when `#<len(seen)>` was already a token).
`classify` is the two-pass classifier the package's one-pass loop replaced.
Columns are 1-based labels, in the order given.
"""

from __future__ import annotations

from typing import Sequence

from aontlab.arrays import (
    AONT,
    NEITHER,
    WEAK_AONT_ONLY,
    Alphabet,
    ClassificationVerdict,
    check_covering,
    check_unbiased,
    column_set_family,
)
from aontlab.errors import DimensionMismatchError, InvalidParametersError, UnknownSymbolError


def codes(array, cols: Sequence[int]) -> list[int]:
    """Mixed-radix code of every row's projection onto `cols`."""
    out = []
    for row in array.rows:
        code = 0
        for c in cols:
            code = code * array.v + row[c - 1]
        out.append(code)
    return out


def count(array, cols: Sequence[int]) -> list[int]:
    counts = [0] * array.v ** len(cols)
    for code in codes(array, cols):
        counts[code] += 1
    return counts


def accumulate(array, weights: Sequence[int], cols: Sequence[int]) -> list[int]:
    masses = [0] * array.v ** len(cols)
    for code, w in zip(codes(array, cols), weights):
        masses[code] += w
    return masses


def parse_array(raw_rows, v: int, s: int):
    """(alphabet, s, rows) of the old `parse_array`, or its exception."""
    if v < 2 or s < 1:
        raise InvalidParametersError(f"need v >= 2 and s >= 1, got v={v}, s={s}")
    rows = [tuple(row) for row in raw_rows]
    if len(rows) != v**s:
        raise DimensionMismatchError(f"expected {v**s} rows, got {len(rows)}")
    width = 2 * s
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatchError(f"row {r + 1} has width {len(row)}, expected {width}")

    if all(isinstance(x, int) for row in rows for x in row):
        alphabet = Alphabet(v)
        decoded = rows
        for r, row in enumerate(decoded):
            for x in row:
                if not 0 <= x < v:
                    raise UnknownSymbolError(f"row {r + 1} holds symbol {x} outside 0..{v - 1}")
    else:
        tokens = [str(x) for row in rows for x in row]
        if all(t.lstrip("-").isdigit() for t in tokens):
            alphabet = Alphabet(v)
        else:
            seen: list[str] = []
            for t in tokens:
                if t not in seen:
                    seen.append(t)
            if len(seen) > v:
                raise UnknownSymbolError(f"found {len(seen)} distinct tokens, alphabet holds only {v}")
            k = len(seen)
            while len(seen) < v:
                if f"#{k}" not in seen:
                    seen.append(f"#{k}")
                k += 1
            alphabet = Alphabet(v, tuple(seen))
        decoded = [tuple(alphabet.symbol(str(x)) for x in row) for row in rows]
    return alphabet, s, tuple(decoded)


def parse_array_csv(text: str):
    """The old `parse_array_csv` without explicit v and s."""
    v = s = None
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and lines[0].lstrip().startswith("#"):
        header = lines.pop(0).lstrip("# ").strip()
        fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
        try:
            v, s = int(fields["v"]), int(fields["s"])
        except (KeyError, ValueError):
            raise DimensionMismatchError(f"malformed header: {header!r}") from None
    if not lines:
        raise DimensionMismatchError("no data rows")
    rows = [tuple(tok.strip() for tok in line.split(",")) for line in lines]
    width = len(rows[0])
    if s is None:
        if width % 2:
            raise DimensionMismatchError(f"odd row width {width}, cannot split into inputs/outputs")
        s = width // 2
    if v is None:
        v = round(len(rows) ** (1.0 / s))
        if v < 2 or v**s != len(rows):
            raise DimensionMismatchError(f"{len(rows)} rows is not a perfect s={s} power of any alphabet size")
    return parse_array(rows, v, s)


def classify(array, t_i: int, t_o: int) -> ClassificationVerdict:
    """The unbiased pass up to its first failure, then a full covering pass."""
    family = list(column_set_family(array.s, t_i, t_o))
    unbiased_witness = next((cols for cols in family if not check_unbiased(array, cols).holds), None)
    if unbiased_witness is None:
        return ClassificationVerdict(t_i, t_o, AONT)
    for cols in family:
        if not check_covering(array, cols).holds:
            return ClassificationVerdict(t_i, t_o, NEITHER, witness=cols)
    return ClassificationVerdict(t_i, t_o, WEAK_AONT_ONLY, witness=unbiased_witness)
