"""Built-in reference arrays, linear transforms, and exhaustive matrix search.

Linear constructions are restricted to prime alphabet sizes so field
arithmetic stays plain modular arithmetic. The search never expands a
candidate: for the linear array {(x, xM)}, the projection onto a column set C
is the linear map x -> x [I_s | M]_C, and it hits every tuple equally often
iff it is onto, i.e. iff the columns C of [I_s | M] are linearly independent
mod v. This is the linear-AONT submatrix criterion of D'Arco, Nasr Esfahani
and Stinson, "All or nothing at all" (EJC 2016). `arrays.classify` decides
a recognised linear array by the same criterion, so tests/test_constructions.py
checks it against expanding with `linear_aont` and counting row by row with
tests/arrays_oracle.py, tests/matrix_search_oracle.py recounts the search
independently, and tests/linear_search_reference.py walks all of GL(s, v)
unpruned, then tests, for the pruned walk to match.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable, Iterator, Sequence

from .arrays import Alphabet, AontArray, check_t_range, column_set_family, parse_array
from .arrays import passes_unbiased_family  # unused here; perfbench/tracing.py wraps this name
from .coding import _linear_column, _pivot_product, decode_index, encode_tuple, is_prime
from .errors import (
    InvalidParametersError,
    NonPrimeModulusError,
    SearchSpaceError,
    SingularMatrixError,
    UnknownNameError,
)

DEFAULT_SEARCH_CAP = 3**9  # max number of candidate matrices (v^(s*s))
# fixed bounds on `_walk`'s tables, whatever the cap: the v^s row vectors, and,
# for s > 1, the (v^s)^2 vector sums, here at most 2^22
_MAX_VECTORS = 1 << 16
_MAX_SUMMED_VECTORS = 1 << 11

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


@lru_cache(maxsize=64)  # a search checks its modulus again for every matrix it lists
def check_modulus(v: int) -> None:
    """Reject a modulus that is not a prime below 2^64."""
    if v >= 1 << 64:
        raise InvalidParametersError(f"modulus {v} does not fit in 64 bits")
    if not is_prime(v):
        raise NonPrimeModulusError(f"modulus {v} is not prime")


@dataclass(frozen=True)
class SquareMatrix:
    """s x s matrix over Z_v, v prime; rows act on input row vectors."""

    v: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_modulus(self.v)
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
        return _pivot_product(self.entries, self.v)

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


class _RankChecks:
    """The conditions for {(x, xM)} to be a full (t_i, t_o) transform, on the
    row codes of an invertible M, grouped by the row that completes each.

    A set I u J of `column_set_family` is unbiased iff the rows of M outside
    I, restricted to the columns J, have full column rank |J| mod v (the
    identity columns I clear the rows I). The input block always passes, the
    output block passes because M is invertible, and a set with J empty lies
    in the input block. At t_i = t_o = s every set with I non-empty has J
    empty, so there is no check at all. A check is decided once its last
    row, max(keep), is placed, and the rows above fix which codes of that row
    fail it. So the failing codes are memoized per (J, rows above restricted
    to J), for the life of the object, and each distinct restriction of the
    last row to J is rank-tested once per key.
    """

    def __init__(self, s: int, v: int, t_i: int, t_o: int, vectors: Sequence[tuple[int, ...]]) -> None:
        self.v = v
        # by_depth[d]: (J, the rows above d in keep, each row code restricted to J)
        self.by_depth: list[list[tuple]] = [[] for _ in range(s)]
        restricts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for cols in column_set_family(s, t_i, t_o):
            i_rows = {c - 1 for c in cols if c <= s}
            j_cols = tuple(c - s - 1 for c in cols if c > s)
            if i_rows and j_cols:
                keep = tuple(r for r in range(s) if r not in i_rows)
                if j_cols not in restricts:
                    restricts[j_cols] = [tuple(vec[j] for j in j_cols) for vec in vectors]
                self.by_depth[keep[-1]].append((j_cols, keep[:-1], restricts[j_cols]))
        self._failing: dict[tuple, frozenset[int]] = {}

    def failing(self, prefix: tuple[int, ...]) -> frozenset[int]:
        """Codes of row len(prefix) that fail a check they complete, given
        the rows `prefix` above them."""
        out = frozenset()
        for j_cols, above, restrict in self.by_depth[len(prefix)]:
            fixed = tuple([restrict[prefix[r]] for r in above])
            key = (j_cols, fixed)
            codes = self._failing.get(key)
            if codes is None:
                failed = {last for last in set(restrict) if not _pivot_product(fixed + (last,), self.v)}
                codes = self._failing[key] = frozenset(
                    code for code, last in enumerate(restrict) if last in failed
                )
            out |= codes
        return out

    def passes(self, codes: tuple[int, ...]) -> bool:
        """Does the invertible matrix with these row codes pass every check?"""
        return all(codes[d] not in self.failing(codes[:d]) for d in range(len(codes)))


def _walk(
    s: int,
    v: int,
    t: tuple[int, int],
    settle: Callable[[int], None] = lambda count: None,
) -> Iterator[SquareMatrix]:
    """Every invertible s x s matrix over Z_v whose linear array is a full
    (t_i, t_o) transform, t = (t_i, t_o), in lexicographic entry order.

    Rows are placed one at a time as base-v integer codes (big-endian, so
    code order is lexicographic order), each outside the span of the rows
    above it; a span is a set of codes grown through a table of vector sums.
    After row d is placed, the checks it completes run, and a row that fails
    one is not extended. `settle(k)` reports k more invertible matrices
    decided: the completions of a pruned row, ∏_{d<i<s}(v^s − v^i) each, are
    counted without being walked, so the counts sum to |GL(s, v)|. The span
    of all s rows, and of a pruned prefix, is never built. The modulus, s and
    t are checked when the walk is called, before a matrix is asked for.
    """
    check_modulus(v)
    if s < 1:
        raise InvalidParametersError(f"matrix order must be >= 1, got {s}")
    limit = _MAX_VECTORS if s == 1 else _MAX_SUMMED_VECTORS
    if _power_exceeds(v, s, limit):
        raise SearchSpaceError(f"{v}^{s} row vectors exceed the walk's fixed bound of {limit}")
    n = v**s
    vectors = [decode_index(code, v, s) for code in range(n)]
    checks = _RankChecks(s, v, *t, vectors)  # its column set family checks t
    if s > 1:
        add = [[encode_tuple([(x + y) % v for x, y in zip(a, b)], v) for b in vectors] for a in vectors]
    completions = [prod(n - v**i for i in range(d + 1, s)) for d in range(s)]

    def extend(prefix: tuple[int, ...], span: set[int]) -> Iterator[SquareMatrix]:
        d = len(prefix)
        failing = checks.failing(prefix)
        kept = [row for row in range(n) if row not in span and row not in failing]
        if d == s - 1:
            settle(n - len(span))
            above = tuple([vectors[code] for code in prefix])
            for row in kept:
                yield SquareMatrix(v, above + (vectors[row],))
            return
        pruned = n - len(span) - len(kept)
        if pruned:
            settle(pruned * completions[d])
        for row in kept:
            multiples = [0]
            for _ in range(v - 1):
                multiples.append(add[multiples[-1]][row])
            yield from extend(prefix + (row,), {add[a][m] for m in multiples for a in span})

    return extend((), {0})


def iter_invertible_matrices(s: int, v: int) -> Iterator[SquareMatrix]:
    """All invertible s x s matrices over Z_v, in lexicographic entry order:
    the walk at t_i = t_o = s, where `_RankChecks` holds no check."""
    yield from _walk(s, v, (s, s))


def iter_linear_aont_matrices(s: int, v: int, t_i: int, t_o: int) -> Iterator[SquareMatrix]:
    """Invertible matrices whose linear array is a full (t_i, t_o)
    transform, in lexicographic order."""
    yield from _walk(s, v, (t_i, t_o))


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


def _power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """base**exponent > cap for base >= 2, in at most log2(cap) + 1 products."""
    power = 1
    for _ in range(exponent):
        power *= base
        if power > cap:
            return True
    return False


def search_linear(
    s: int,
    v: int,
    t_i: int,
    t_o: int,
    cap: int = DEFAULT_SEARCH_CAP,
    progress: Callable[[int, int], None] | None = None,
) -> SearchResult:
    """Keep every invertible matrix whose linear array is a full (t_i, t_o)
    transform, tested by rank without expanding it.

    Results are in lexicographic order of the flattened entries. `examined`
    counts every invertible matrix, pruned or walked. `progress` gets
    (examined, |GL(s, v)|) at most 64 times, rising, the last at completion.
    """
    check_t_range(s, t_i, t_o)
    if v >= 2 and _power_exceeds(v, s * s, cap):
        raise SearchSpaceError(
            f"{v}^{s * s} candidate matrices exceed the cap of {cap}; raise the cap explicitly"
        )
    start = time.monotonic()
    examined = 0

    def settle(count: int) -> None:
        nonlocal examined
        before, examined = examined, examined + count
        if progress is not None and (examined // step > before // step or examined == total):
            progress(examined, total)

    walk = _walk(s, v, (t_i, t_o), settle)  # checks v first: the cap skips v < 2, whose |GL| can take seconds
    total = gl_order(s, v)
    step = -(-total // 64)
    found = tuple(walk)
    elapsed = time.monotonic() - start
    return SearchResult(s, v, t_i, t_o, examined, found, elapsed)
