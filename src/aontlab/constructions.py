"""Built-in reference arrays, linear transforms, and exhaustive matrix search.

Linear constructions are restricted to prime alphabet sizes so field
arithmetic stays plain modular arithmetic. The search never expands a
candidate: for the linear array {(x, xM)}, the projection onto a column set C
is the linear map x -> x [I_s | M]_C, and it hits every tuple equally often
iff it is onto, i.e. iff the columns C of [I_s | M] are linearly independent
mod v. This is the linear-AONT submatrix criterion of D'Arco, Nasr Esfahani
and Stinson, "All or nothing at all" (EJC 2016). tests/test_constructions.py
checks it against expanding with `linear_aont` and counting with
`passes_unbiased_family`, and tests/matrix_search_oracle.py recounts the
search independently.
"""

from __future__ import annotations

import time
from array import array as int_array
from dataclasses import dataclass
from itertools import chain
from math import prod
from typing import Callable, Iterator, Sequence

from .arrays import Alphabet, AontArray, check_t_range, column_set_family, parse_array
from .arrays import passes_unbiased_family  # unused here; perfbench/tracing.py wraps this name
from .coding import decode_index, encode_tuple
from .errors import (
    InvalidParametersError,
    NonPrimeModulusError,
    SearchSpaceError,
    SingularMatrixError,
    UnknownNameError,
)

DEFAULT_SEARCH_CAP = 3**9  # max number of candidate matrices (v^(s*s))

_TABLE1 = """
a,a,a,a
a,b,c,b
a,c,b,c
b,a,b,b
b,b,a,c
b,c,c,a
c,a,c,c
c,b,b,a
c,c,a,b
"""

_TABLE2 = """
a,a,a,a,a,a
a,a,b,b,b,a
a,a,c,c,c,a
a,b,a,a,b,b
a,b,b,b,c,b
a,b,c,c,a,b
a,c,a,a,c,c
a,c,b,b,a,c
a,c,c,c,b,c
b,a,a,b,a,b
b,a,b,c,b,b
b,a,c,a,c,b
b,b,a,b,b,c
b,b,b,c,c,c
b,b,c,a,a,c
b,c,a,b,c,a
b,c,b,c,a,a
b,c,c,a,b,a
c,a,a,c,a,c
c,a,b,a,b,c
c,a,c,b,c,c
c,b,a,c,b,a
c,b,b,a,c,a
c,b,c,b,a,a
c,c,a,c,c,b
c,c,b,a,a,b
c,c,c,b,b,b
"""

_TABLE3 = """
a,a,a,a,a,a
a,a,b,b,b,a
a,b,a,b,a,b
a,b,b,b,a,a
b,a,a,a,b,b
b,a,b,a,b,a
b,b,a,a,a,b
b,b,b,b,b,b
"""

_BUILTINS: dict[str, tuple[str, int, int, tuple[str, ...]]] = {
    "table1": (_TABLE1, 3, 2, ("a", "b", "c")),
    "table2": (_TABLE2, 3, 3, ("a", "b", "c")),
    "table3": (_TABLE3, 2, 3, ("a", "b")),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> AontArray:
    """One of the canonical reference arrays, rows in their printed order."""
    try:
        text, v, s, glyphs = _BUILTINS[name]
    except KeyError:
        raise UnknownNameError(f"no built-in array named {name!r}; know {BUILTIN_NAMES}") from None
    rows = [tuple(line.split(",")) for line in text.split()]
    return parse_array(rows, v, s, glyphs=glyphs)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class SquareMatrix:
    """s x s matrix over Z_v, v prime; rows act on input row vectors."""

    v: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.v):
            raise NonPrimeModulusError(f"modulus {self.v} is not prime")
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise InvalidParametersError("matrix must be square and non-empty")
        for row in self.entries:
            for x in row:
                if not 0 <= x < self.v:
                    raise InvalidParametersError(f"entry {x} outside 0..{self.v - 1}")

    @property
    def order(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        """Determinant mod v by Gaussian elimination over the prime field."""
        v = self.v
        n = self.order
        m = [list(row) for row in self.entries]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] % v), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det % v
            det = det * m[col][col] % v
            inv = pow(m[col][col], -1, v)
            for r in range(col + 1, n):
                factor = m[r][col] * inv % v
                if factor:
                    for c in range(col, n):
                        m[r][c] = (m[r][c] - factor * m[col][c]) % v
        return det % v

    def is_invertible(self) -> bool:
        return self.det() != 0

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def matrix_from_rows(v: int, rows) -> SquareMatrix:
    return SquareMatrix(v, tuple(tuple(int(x) for x in row) for row in rows))


def identity_matrix(s: int, v: int) -> SquareMatrix:
    return SquareMatrix(v, tuple(tuple(1 if i == j else 0 for j in range(s)) for i in range(s)))


def linear_aont(matrix: SquareMatrix) -> AontArray:
    """Expand (x, x @ M mod v) over all x in lexicographic order: the columns
    of [I_s | M], one at a time."""
    if not matrix.is_invertible():
        raise SingularMatrixError(f"matrix {matrix.entries} has determinant 0 mod {matrix.v}")
    v = matrix.v
    s = matrix.order
    identity = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    columns = [_linear_column(coefficients, v) for coefficients in identity + list(zip(*matrix.entries))]
    return AontArray.from_columns(Alphabet(v), s, columns)


def _linear_column(coefficients: tuple[int, ...], v: int) -> Sequence[int]:
    """x -> sum_i x_i c_i mod v over every x in lexicographic order.

    It is built from the last digit up: putting digit x_i in front of the
    digits placed so far concatenates v copies of the column so far, the
    copy for x_i = x shifted by x c_i mod v through a table per shift.
    """
    if v <= 256:  # a shift is one bytes.translate over the whole column
        byte_shifts = [bytes((b + k) % v for b in range(256)) for k in range(v)]
        column = b"\0"
        for c in reversed(coefficients):
            column = b"".join(column.translate(byte_shifts[x * c % v]) for x in range(v))
        return int_array("B", column)
    shifts = [[(b + k) % v for b in range(v)] for k in range(v)]
    symbols = [0]
    for c in reversed(coefficients):
        symbols = list(chain.from_iterable(map(shifts[x * c % v].__getitem__, symbols) for x in range(v)))
    return symbols


def _gl_codes(s: int, v: int) -> Iterator[tuple[int, ...]]:
    """Every invertible s x s matrix over Z_v as a tuple of row codes, in
    lexicographic entry order.

    A row code is the row's big-endian base-v index, so code order is
    lexicographic order. Rows are chosen one at a time, each outside the span
    of the rows above it; a span is a set of codes grown through a table of
    vector sums. The span of all s rows is never needed, so s = 1 builds no
    table.
    """
    if not is_prime(v):
        raise NonPrimeModulusError(f"modulus {v} is not prime")
    if s < 1:
        raise InvalidParametersError(f"matrix order must be >= 1, got {s}")
    n = v**s
    if s > 1:
        vectors = [decode_index(code, v, s) for code in range(n)]
        add = [[encode_tuple([(x + y) % v for x, y in zip(a, b)], v) for b in vectors] for a in vectors]

    def extend(prefix: tuple[int, ...], span: set[int]) -> Iterator[tuple[int, ...]]:
        last = len(prefix) == s - 1
        for row in range(n):
            if row in span:
                continue
            rows = prefix + (row,)
            if last:
                yield rows
            else:
                multiples = [0]
                for _ in range(v - 1):
                    multiples.append(add[multiples[-1]][row])
                yield from extend(rows, {add[a][m] for m in multiples for a in span})

    return extend((), {0})


def _from_codes(v: int, s: int, codes: tuple[int, ...]) -> SquareMatrix:
    return SquareMatrix(v, tuple(decode_index(code, v, s) for code in codes))


def _full_column_rank(rows: tuple[tuple[int, ...], ...], v: int) -> bool:
    """Do these rows over Z_v (v prime) have rank equal to their width?"""
    width = len(rows[0])
    pending = [list(row) for row in rows]
    for k in range(width):
        p = next((i for i, row in enumerate(pending) if row[k]), None)
        if p is None:
            return False
        pivot = pending.pop(p)
        for row in pending:
            f = row[k]
            if f:
                # pivot[k] is a unit mod v, so this clears column k and keeps the span
                for c in range(k, width):
                    row[c] = (row[c] * pivot[k] - f * pivot[c]) % v
    return True


def _unbiased_by_rank(s: int, v: int, t_i: int, t_o: int) -> Callable[[tuple[int, ...]], bool]:
    """Predicate on the row codes of an invertible M: is {(x, xM)} a full
    (t_i, t_o) transform?

    A set I u J of `column_set_family` is unbiased iff the rows of M outside
    I, restricted to the columns J, have full column rank |J| mod v (the
    identity columns I clear the rows I). The input block always passes, the
    output block passes because M is invertible, and a set with J empty lies
    in the input block. Every checked submatrix has the same shape, so its
    verdict is memoized for the life of the predicate.
    """
    vectors = [decode_index(code, v, s) for code in range(v**s)]
    checks = []
    for cols in column_set_family(s, t_i, t_o):
        i_rows = {c - 1 for c in cols if c <= s}
        j_cols = [c - s - 1 for c in cols if c > s]
        if i_rows and j_cols:
            keep = tuple(r for r in range(s) if r not in i_rows)
            restrict = [tuple(vec[j] for j in j_cols) for vec in vectors]
            checks.append((keep, restrict))
    known: dict[tuple[tuple[int, ...], ...], bool] = {}

    def passes(codes: tuple[int, ...]) -> bool:
        for keep, restrict in checks:
            sub = tuple([restrict[codes[r]] for r in keep])
            ok = known.get(sub)
            if ok is None:
                ok = known[sub] = _full_column_rank(sub, v)
            if not ok:
                return False
        return True

    return passes


def iter_invertible_matrices(s: int, v: int) -> Iterator[SquareMatrix]:
    """All invertible s x s matrices over Z_v, in lexicographic entry order."""
    for codes in _gl_codes(s, v):
        yield _from_codes(v, s, codes)


def iter_linear_aont_matrices(s: int, v: int, t_i: int, t_o: int) -> Iterator[SquareMatrix]:
    """Invertible matrices whose linear array is a full (t_i, t_o)
    transform, in lexicographic order."""
    check_t_range(s, t_i, t_o)
    passes = _unbiased_by_rank(s, v, t_i, t_o)
    for codes in _gl_codes(s, v):
        if passes(codes):
            yield _from_codes(v, s, codes)


@dataclass(frozen=True)
class SearchResult:
    s: int
    v: int
    t_i: int
    t_o: int
    examined: int  # invertible matrices checked
    found: tuple[SquareMatrix, ...]
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "v": self.v,
            "t_i": self.t_i,
            "t_o": self.t_o,
            "examined": self.examined,
            "found": len(self.found),
            "matrices": [m.to_json() for m in self.found],
            "elapsed_seconds": self.elapsed_seconds,
        }


def gl_order(s: int, v: int) -> int:
    """|GL(s, v)| = prod(v^s - v^i for i < s): the number of invertible matrices."""
    return prod(v**s - v**i for i in range(s))


def search_linear(
    s: int,
    v: int,
    t_i: int,
    t_o: int,
    cap: int = DEFAULT_SEARCH_CAP,
    progress: Callable[[int, int], None] | None = None,
) -> SearchResult:
    """Enumerate every invertible matrix and keep those whose linear array
    is a full (t_i, t_o) transform, tested by rank without expanding it.

    Enumeration order is lexicographic in the flattened entries. `progress`
    gets (examined, |GL(s, v)|) about 64 times, the last at completion.
    """
    if not is_prime(v):
        raise NonPrimeModulusError(f"modulus {v} is not prime")
    check_t_range(s, t_i, t_o)
    space = v ** (s * s)
    if space > cap:
        raise SearchSpaceError(
            f"{space} candidate matrices exceed the cap of {cap}; raise the cap explicitly"
        )
    total = gl_order(s, v)
    step = -(-total // 64)
    start = time.monotonic()
    examined = 0
    found: list[SquareMatrix] = []
    passes = _unbiased_by_rank(s, v, t_i, t_o)
    for codes in _gl_codes(s, v):
        examined += 1
        if passes(codes):
            found.append(_from_codes(v, s, codes))
        if progress is not None and (examined % step == 0 or examined == total):
            progress(examined, total)
    elapsed = time.monotonic() - start
    return SearchResult(s, v, t_i, t_o, examined, tuple(found), elapsed)
