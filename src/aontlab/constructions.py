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
from functools import cached_property
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .arrays import Alphabet, AontArray, _codes, _pack, check_t_range, column_set_family, parse_array, symbol_typecode
from .arrays import passes_unbiased_family  # unused here; perfbench/tracing.py wraps this name
from .coding import _linear_columns, _pivot_product, _rank_split, _whole, decode_index, is_prime
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
# what `coding._whole` names in its refusal of a matrix's integers
_ENTRIES = "matrix entries must be integers:"
_ORDER_AND_MODULUS = "matrix order and modulus must be integers:"

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
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed, such as a list
        raise UnknownNameError(f"no built-in array named {name!r}; know {BUILTIN_NAMES}") from None
    rows = [tuple(line.split(",")) for line in text.split()]
    return parse_array(rows, v, s, glyphs=glyphs)


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
        """Reads v and every entry by `coding._whole`, and stores them as ints;
        entries that are not a sequence of sequences raise
        InvalidParametersError."""
        v = _whole(self.v, "modulus")
        check_modulus(v)
        try:
            n = len(self.entries)
            square = n > 0 and all(len(row) == n for row in self.entries)
        except TypeError as exc:
            raise InvalidParametersError(f"{_ENTRIES} {exc}") from None
        if not square:
            raise InvalidParametersError("matrix must be square and non-empty")
        entries = tuple(tuple(_whole(x, _ENTRIES) for x in row) for row in self.entries)
        for row in entries:
            for x in row:
                if not 0 <= x < v:
                    raise InvalidParametersError(f"entry {x} outside 0..{v - 1}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "entries", entries)

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
    """The matrix with these rows, read by `SquareMatrix`; a row that is not
    a sequence raises InvalidParametersError."""
    try:
        entries = tuple(map(tuple, rows))
    except TypeError as exc:
        raise InvalidParametersError(f"{_ENTRIES} {exc}") from None
    return SquareMatrix(v, entries)


def identity_matrix(s: int, v: int) -> SquareMatrix:
    s, v = _whole(s, _ORDER_AND_MODULUS), _whole(v, _ORDER_AND_MODULUS)
    return SquareMatrix(v, tuple(tuple(1 if i == j else 0 for j in range(s)) for i in range(s)))


def linear_aont(matrix: SquareMatrix) -> AontArray:
    """Expand (x, x @ M mod v) over all x in lexicographic order: the columns
    of [I_s | M], one at a time."""
    if not matrix.is_invertible():
        raise SingularMatrixError(f"matrix {matrix.entries} has determinant 0 mod {matrix.v}")
    v = matrix.v
    s = matrix.order
    identity = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    columns = _linear_columns(identity + list(zip(*matrix.entries)), v)
    return AontArray.from_columns(Alphabet(v), s, list(columns))


class _RankChecks:
    """The conditions for {(x, xM)} to be a full (t_i, t_o) transform, on the
    row codes of an invertible M, grouped by the row that completes each.

    A set I u J of `column_set_family` is unbiased iff the rows of M outside
    I, restricted to the columns J, have full column rank |J| mod v
    (`_rank_split`). The input block always passes, the output block passes
    because M is invertible, and a set with J empty lies in the input block.
    At t_i = t_o = s every set with I non-empty has J empty, so there is no
    check at all. A check is decided once its last row, max(keep), is
    placed, and the rows above fix which codes of that row fail it. So the
    failing codes are memoized per (J, rows above restricted to J), for the
    life of the object, and each distinct restriction of the last row to J
    is rank-tested once per key.
    """

    def __init__(self, s: int, v: int, t_i: int, t_o: int, vectors: Sequence[tuple[int, ...]]) -> None:
        self.v = v
        # by_depth[d]: (J, the rows above d in keep, each row code restricted to J)
        self.by_depth: list[list[tuple]] = [[] for _ in range(s)]
        restricts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for cols in column_set_family(s, t_i, t_o):
            keep, j_cols = _rank_split(s, cols)
            if j_cols and len(keep) < s:
                if j_cols not in restricts:
                    restricts[j_cols] = [tuple(vec[j] for j in j_cols) for vec in vectors]
                self.by_depth[keep[-1]].append((j_cols, keep[:-1], restricts[j_cols]))
        self._failing: dict[tuple, frozenset[int]] = {}

    def failing(self, prefix: tuple[int, ...]) -> frozenset[int]:
        """Codes of row len(prefix) that fail a check they complete, given
        the rows `prefix` above them, or any multiples of them: scaling a row
        keeps every rank, so `_walk` asks once per class prefix."""
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


def _walk(
    s: int,
    v: int,
    t: tuple[int, int],
    settle: Callable[[int], None] = lambda count: None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every invertible s x s matrix over Z_v whose linear array is a full
    (t_i, t_o) transform, t = (t_i, t_o), as its s row codes (`decode_index`
    gives each row), in lexicographic entry order: for each prefix of s - 1
    rows that a row completes, the prefix and the tuple its class shares of
    the rows that complete it (below).

    Rows are placed one at a time as base-v integer codes (big-endian, so
    code order is lexicographic order), each outside the span of the rows
    above it; a span is a set of codes grown through a table of vector sums.
    After row d is placed, the checks it completes run, and a row that fails
    one is not extended. `settle(k)` reports k more invertible matrices
    decided: the completions of a pruned row, ∏_{d<i<s}(v^s − v^i) each, are
    counted without being walked, so the counts sum to |GL(s, v)|. The span
    of all s rows, and of a pruned prefix, is never built. The modulus, s and
    t are checked when the walk is called, before a matrix is asked for.

    Scaling a row keeps its span and every rank check, so what follows a
    prefix (its span, the codes the checks fail, the rows kept) depends only
    on its class prefix: the lead of each row, its multiple whose first
    non-zero entry is 1. All multiples of a row share that entry's position,
    so the lead is the least code among them. That work is done once per
    class prefix, while the rows themselves are still placed in code order:
    the listing and the calls to `settle` are those of walking every prefix.
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
    codes = list(range(n))  # one int per code, shared by every list of kept rows
    if s > 1:
        # digit k of a + b is the linear column e_k + e_(s+k) over the 2s digits
        # of (a, b), listed in the order of the codes a * n + b
        digits = _linear_columns([tuple(int(j in (k, s + k)) for j in range(2 * s)) for k in range(s)], v)
        typecode = symbol_typecode(n)
        sums = _codes(_pack(digits, typecode), range(1, s + 1), v, typecode, n * n)
        add = [sums[a * n : (a + 1) * n] for a in range(n)]
        # lead[row], and multiples[lead]: 0 and the v - 1 multiples of a lead;
        # codes rise, so the first code met of each class is its lead
        lead = [0] * n
        multiples: dict[int, list[int]] = {}
        for row in codes[1:]:
            if not lead[row]:
                multiples[row] = line = [0, row]
                for _ in range(v - 2):
                    line.append(add[line[-1]][row])
                for m in line[1:]:
                    lead[m] = row
    completions = [prod(n - v**i for i in range(d + 1, s)) for d in range(s)]
    free = n - v ** (s - 1)  # the codes outside the span of s - 1 rows
    # class prefix -> (its span, None for s - 1 rows, whose span no row extends; the rows kept after it)
    classes: dict[tuple[int, ...], tuple[set[int] | None, tuple[int, ...]]] = {}

    def kept_after(leads: tuple[int, ...], span: set[int]) -> tuple[int, ...]:
        failing = checks.failing(leads)
        return tuple([row for row in codes if row not in span and row not in failing])

    def extend(prefix: tuple[int, ...], leads: tuple[int, ...], span: set[int], kept: tuple[int, ...], deeper):
        """The listing below a prefix of d < s - 1 rows whose class prefix is
        `leads`, spanning `span`, after which the rows `kept` may follow; at
        d = s - 2 each kept row's group is listed here, with no generator
        per prefix of s - 1 rows. `deeper` is `extend` itself: a
        closure that named itself would keep its tables in a reference cycle
        after the walk, until the garbage collector ran."""
        d = len(prefix)
        pruned = n - len(span) - len(kept)
        if pruned:
            settle(pruned * completions[d])
        last = d == s - 2
        for row in kept:
            key = leads + (lead[row],)
            entry = classes.get(key)
            if entry is None:
                grown = {add[a][m] for m in multiples[lead[row]] for a in span}
                entry = classes[key] = (None if last else grown, kept_after(key, grown))
            grown, after = entry
            placed = prefix + (row,)
            if last:
                settle(free)
                if after:
                    yield placed, after
            else:
                yield from deeper(placed, key, grown, after, deeper)

    def walk() -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        kept = kept_after((), {0})
        if s == 1:
            settle(free)
            yield (), kept
        else:
            yield from extend((), (), {0}, kept, extend)

    return walk()


def _matrices(s: int, v: int, groups: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]) -> Iterator[SquareMatrix]:
    """The SquareMatrix of each matrix in the groups that `_walk` lists,
    without re-running `__post_init__`: the walk checked v once, and every
    row is `decode_index` of a code below v^s, so each entry is an int in
    0..v-1, and the matrix is s x s by construction."""
    vectors = [decode_index(code, v, s) for code in range(v**s)]
    for prefix, lasts in groups:
        head = [vectors[code] for code in prefix]
        for code in lasts:
            matrix = SquareMatrix.__new__(SquareMatrix)
            # as the frozen __init__ does: on CPython 3.11, writing __dict__ itself
            # would give each matrix a full dict, 2.5x its size
            object.__setattr__(matrix, "v", v)
            object.__setattr__(matrix, "entries", (*head, vectors[code]))
            yield matrix


def iter_invertible_matrices(s: int, v: int) -> Iterator[SquareMatrix]:
    """All invertible s x s matrices over Z_v, in lexicographic entry order:
    the walk at t_i = t_o = s, where `_RankChecks` holds no check."""
    s, v = _whole(s, _ORDER_AND_MODULUS), _whole(v, _ORDER_AND_MODULUS)
    yield from _matrices(s, v, _walk(s, v, (s, s)))


def iter_linear_aont_matrices(s: int, v: int, t_i: int, t_o: int) -> Iterator[SquareMatrix]:
    """Invertible matrices whose linear array is a full (t_i, t_o)
    transform, in lexicographic order."""
    s, v = _whole(s, _ORDER_AND_MODULUS), _whole(v, _ORDER_AND_MODULUS)
    yield from _matrices(s, v, _walk(s, v, (t_i, t_o)))


@dataclass(frozen=True)
class SearchResult:
    s: int
    v: int
    t_i: int
    t_o: int
    examined: int  # invertible matrices checked
    groups: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # the found matrices, in order, as `_walk` lists them
    elapsed_seconds: float

    @property
    def found_count(self) -> int:
        """The number of found matrices, none of them built."""
        return sum(len(lasts) for _, lasts in self.groups)

    @cached_property
    def row_codes(self) -> tuple[tuple[int, ...], ...]:
        """Each found matrix as its s row codes, in order, built on first read."""
        return tuple([prefix + (code,) for prefix, lasts in self.groups for code in lasts])

    @cached_property
    def found(self) -> tuple[SquareMatrix, ...]:
        """The found matrices, built on first read."""
        return tuple(_matrices(self.s, self.v, self.groups))

    def to_json_dict(self) -> dict:
        # each row code decoded once, into a list each matrix shares
        rows = [list(decode_index(code, self.v, self.s)) for code in range(self.v**self.s)]
        matrices = [[*map(rows.__getitem__, prefix), rows[code]] for prefix, lasts in self.groups for code in lasts]
        return self._document(matrices)

    def _document(self, matrices: list) -> dict:
        """The JSON document, with `matrices` in place of the found matrices."""
        return {
            "s": self.s,
            "v": self.v,
            "t_i": self.t_i,
            "t_o": self.t_o,
            "examined": self.examined,
            "found": self.found_count,
            "matrices": matrices,
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
    s, v = _whole(s, _ORDER_AND_MODULUS), _whole(v, _ORDER_AND_MODULUS)
    t_i, t_o = check_t_range(s, t_i, t_o)
    cap = _whole(cap, "cap")
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
    groups = tuple(walk)
    elapsed = time.monotonic() - start
    return SearchResult(s, v, t_i, t_o, examined, groups, elapsed)
