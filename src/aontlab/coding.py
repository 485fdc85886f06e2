"""Mixed-radix tuple coding, arithmetic over Z_v and the entropy helper
shared by all modules.

Tuples over {0..v-1} are stored in dense counters/accumulators indexed by
their big-endian base-v encoding, so index order equals lexicographic
tuple order. The linear array {(x, xM)} lists x in that order too, and its
columns and its rank tests are built here, below both `arrays`, which
recognises such an array, and `constructions`, which builds and searches
them.
"""

from __future__ import annotations

from array import array as int_array
from math import log2
from typing import Iterable, Sequence


def encode_tuple(symbols: Iterable[int], v: int) -> int:
    idx = 0
    for s in symbols:
        idx = idx * v + s
    return idx


def decode_index(idx: int, v: int, length: int) -> tuple[int, ...]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        idx, out[pos] = divmod(idx, v)
    return tuple(out)


def entropy_bits(masses: Iterable) -> float:
    """Shannon entropy in bits. Masses may be exact rationals; 0*log(0) = 0."""
    h = 0.0
    for p in masses:
        if p:
            pf = float(p)
            h -= pf * log2(pf)
    return h


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact for n < 3.1 * 10^23, and so for every modulus `constructions.check_modulus` admits.

    Below 37^2, trial division by the primes up to 37 decides. Above, a
    number with no such factor is prime iff it is a strong probable prime to
    each of those twelve bases, which holds for every n below that bound
    (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
    Math. Comp. 2017).
    """
    for p in _PRIME_BASES:
        if p * p > n:
            return n >= 2
        if n % p == 0:
            return False
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _PRIME_BASES:
        x = pow(a, odd, n)
        if x == 1:
            continue
        for _ in range(twos):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _linear_column(coefficients: tuple[int, ...], v: int) -> Sequence[int]:
    """x -> sum_i x_i c_i mod v over every x in lexicographic order.

    It is built from the last digit up: putting digit x_i in front of the
    digits placed so far concatenates v copies of the column so far, the
    copy for x_i = x shifted by x c_i mod v (no shift at all when c_i = 0).
    """
    if v <= 256:  # a shift is one bytes.translate over the whole column
        # the table for shift k maps b -> (b + k) mod v for b < v; no byte >= v occurs
        byte_shifts = [bytes(range(k, v)) + bytes(range(k)) + bytes(256 - v) for k in range(v)]
        column = b"\0"
        for c in reversed(coefficients):
            if c:
                column = b"".join([column.translate(byte_shifts[x * c % v]) for x in range(v)])
            else:
                column *= v
        return int_array("B", column)
    symbols = [0]
    for c in reversed(coefficients):
        symbols = [(y + x * c) % v for x in range(v) for y in symbols]
    return symbols


def _pivot_product(rows: Sequence[Sequence[int]], v: int) -> int:
    """Row-reduce these rows over Z_v (v prime) column by column: the signed
    product of the pivots mod v, or 0 as soon as a column has no pivot.

    For a square matrix this is the determinant. For any matrix it is
    non-zero iff the rows have full column rank.
    """
    pending = [list(row) for row in rows]
    width = len(pending[0])
    product = 1
    for k in range(width):
        p = next((i for i, row in enumerate(pending) if row[k]), None)
        if p is None:
            return 0
        # moving row p above the p rows before it is a cycle of sign (-1)^p
        pivot = pending.pop(p)
        product = (-product if p % 2 else product) * pivot[k] % v
        inv = pow(pivot[k], -1, v)
        for row in pending:
            f = row[k] * inv % v
            if f:
                for c in range(k, width):
                    row[c] = (row[c] - f * pivot[c]) % v
    return product
