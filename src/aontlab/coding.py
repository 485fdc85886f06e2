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

from fractions import Fraction
from math import lcm, log2
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import InvalidParametersError


def _integral(value) -> int:
    """An integer given from outside, as an int: an integer other than a bool
    (any type `operator.index` takes) or an integral float. Anything else,
    such as a string or a Fraction, raises TypeError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{value!r} is not an integer")
    return index(value)


def _whole(value, what: str = "column label") -> int:
    """One integer given from outside, such as a column label, read by
    `_integral`; one that is not an integer raises InvalidParametersError
    naming it as `what`."""
    try:
        return _integral(value)
    except TypeError:
        raise InvalidParametersError(f"{what} {value!r} is not an integer") from None


def _labels(values: Iterable) -> tuple[int, ...]:
    """Column labels given from outside, each read by `_whole`, sorted and
    de-duplicated."""
    return tuple(sorted(set(map(_whole, values))))


def integer(text: str) -> int:
    """The integer that `text` writes in ASCII decimal, -?[0-9]+; any other
    text raises ValueError. int() alone also reads other scripts' digits,
    '_', '+' and surrounding whitespace."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not an integer in ASCII decimal")
    return int(text)


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


def _over_lcm(masses: Sequence[Fraction]) -> tuple[list[int], int]:
    """Masses as integer numerators over the LCM of their denominators."""
    denominator = lcm(*(p.denominator for p in masses))
    return [p.numerator * (denominator // p.denominator) for p in masses], denominator


def weight_entropy_bits(weights: Iterable[int], denominator: int) -> float:
    """Shannon entropy in bits of the masses w / D, for integer weights w
    over one denominator D (or floats over D = 1), each term added left to
    right. w / D is the correctly rounded quotient, float(Fraction(w, D));
    0 log 0 = 0, also for a mass below the smallest double, since
    p log p -> 0."""
    h = 0.0
    for w in weights:
        p = w / denominator
        if p:
            h -= p * log2(p)
    return h


def entropy_bits(masses: Iterable[Fraction]) -> float:
    """Shannon entropy in bits of exact rational masses (Fractions or ints),
    through `weight_entropy_bits` over D = 1. float(p) divides p's own
    numerator by its own denominator, correctly rounded, so it is the float
    the masses scaled to the LCM of their denominators would give, without
    building that LCM."""
    return weight_entropy_bits(map(float, masses), 1)


def left_sum(terms: Iterable[float]) -> float:
    """The terms added left to right from 0.0, as the built-in sum() adds
    floats before Python 3.12; from 3.12 on, sum() compensates its
    additions and can differ in the last bit. Every float total is formed
    here, so each supported Python prints the same bytes."""
    total = 0.0
    for term in terms:
        total += term
    return total


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


def _linear_columns(coefficients: Iterable[tuple[int, ...]], v: int) -> Iterator[Sequence[int]]:
    """For each coefficient tuple c in turn, the column x -> sum_i x_i c_i
    mod v over every x in lexicographic order: `bytes` for v <= 256, else a
    list. Columns are built one at a time, as they are asked for.

    A column is built from the last digit up: putting digit x_i in front of
    the digits placed so far concatenates v copies of the column so far, the
    copy for x_i = x shifted by x c_i mod v (no shift at all when c_i = 0).
    """
    if v > 256:
        for column in coefficients:
            symbols = [0]
            for c in reversed(column):
                symbols = [(y + x * c) % v for x in range(v) for y in symbols]
            yield symbols
        return
    # adding 1 mod v to every byte is one bytes.translate (no byte >= v
    # occurs), so the v shifts of a column are v - 1 translates in a row; the
    # one table is built once per call, for every column
    plus_one = bytes(range(1, v)) + bytes(257 - v)
    for column in coefficients:
        symbols = b"\0"
        for c in reversed(column):
            if c:
                shifts = [symbols]
                for _ in range(v - 1):
                    shifts.append(shifts[-1].translate(plus_one))
                # (shifts * c)[x * c] is shifts[x * c % v], for x in 0..v-1
                symbols = b"".join((shifts * c)[::c])
            else:
                symbols *= v
        yield symbols


def _rank_split(s: int, cols: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a set C of columns of [I_s | M], labels 1..2s: the rows of M
    outside the input columns I of C, ascending, and the output columns J of
    C as columns of M, in C's order, both 0-based. The projection of
    {(x, xM)} onto C is onto iff those rows of M, restricted to J, have full
    column rank |J| mod v: the identity columns I clear the rows I.
    """
    return tuple(r for r in range(s) if r + 1 not in cols), tuple(c - s - 1 for c in cols if c > s)


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
