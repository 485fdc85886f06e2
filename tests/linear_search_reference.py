"""Unpruned reference for the linear search: walk all of GL(s, v), then test.

This is the search before pruning by prefix. `gl_codes` enumerates every
invertible matrix to its last row, and `unbiased_by_rank` then runs every
rank check of `column_set_family` on the finished matrix. The package's
pruned walk must keep exactly the matrices this keeps, in the same order.
"""

from __future__ import annotations

from typing import Callable, Iterator

from aontlab.arrays import column_set_family
from aontlab.coding import decode_index, encode_tuple
from aontlab.constructions import _pivot_product


def gl_codes(s: int, v: int) -> Iterator[tuple[int, ...]]:
    """Every invertible s x s matrix over Z_v (v prime) as a tuple of row
    codes, in lexicographic entry order; each row is chosen outside the span
    of the rows above it."""
    n = v**s
    vectors = [decode_index(code, v, s) for code in range(n)]
    if s > 1:  # the span of all s rows is never needed
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


def unbiased_by_rank(s: int, v: int, t_i: int, t_o: int) -> Callable[[tuple[int, ...]], bool]:
    """Predicate on the row codes of an invertible M: do the rows of M
    outside I, restricted to the columns J, have full column rank for every
    set I u J of the family with I and J non-empty?"""
    vectors = [decode_index(code, v, s) for code in range(v**s)]
    checks = []
    for cols in column_set_family(s, t_i, t_o):
        i_rows = {c - 1 for c in cols if c <= s}
        j_cols = [c - s - 1 for c in cols if c > s]
        if i_rows and j_cols:
            keep = tuple(r for r in range(s) if r not in i_rows)
            checks.append((keep, [tuple(vec[j] for j in j_cols) for vec in vectors]))

    def passes(codes: tuple[int, ...]) -> bool:
        return all(_pivot_product(tuple(restrict[codes[r]] for r in keep), v) for keep, restrict in checks)

    return passes


def reference_search(s: int, v: int, t_i: int, t_o: int) -> tuple[int, list[tuple[tuple[int, ...], ...]]]:
    """(matrices walked, entries of those that pass), unpruned."""
    passes = unbiased_by_rank(s, v, t_i, t_o)
    examined = 0
    found = []
    for codes in gl_codes(s, v):
        examined += 1
        if passes(codes):
            found.append(tuple(decode_index(code, v, s) for code in codes))
    return examined, found
