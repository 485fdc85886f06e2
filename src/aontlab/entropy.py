"""Exact-enumeration entropy engine.

Each row's prior probability is an exact integer weight over one common
denominator D, computed once per (array, model). Joint distributions over
column subsets are integer scatter-adds of those weights, keyed by the
mixed-radix tuple encoding; only the final log/sum runs in floating point.
Conditional entropy is H(X,Y) - H(Y), which is the brute-force oracle valid
for any array whose rows carry the prior, not just verified transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .arrays import AontArray, normalize_columns, projection_codes
from .arrays import cached_classify  # unused here; perfbench/tracing.py wraps this name
from .coding import _labels, _over_lcm, _whole, decode_index, encode_tuple, weight_entropy_bits
from .coding import entropy_bits  # unused here; perfbench/tracing.py wraps this name
from .errors import ArityMismatchError, InvalidParametersError, MassSumError
from .models import (
    INDEPENDENT,
    Distribution,
    InputModel,
    joint_probability,  # unused here; perfbench/tracing.py counts calls through this name
)


@dataclass(frozen=True)
class SubsetPair:
    """Protected input columns X and observed output columns Y (1-based)."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _labels(self.x))
        object.__setattr__(self, "y", _labels(self.y))
        if not self.x:
            raise InvalidParametersError("X must be non-empty")


def check_pair(s: int, pair: SubsetPair) -> None:
    """Raise unless X lies in the inputs 1..s and Y in the outputs s+1..2s."""
    if pair.x[0] < 1 or pair.x[-1] > s:
        raise InvalidParametersError(f"X columns {pair.x} outside inputs 1..{s}")
    if pair.y and (pair.y[0] <= s or pair.y[-1] > 2 * s):
        raise InvalidParametersError(f"Y columns {pair.y} outside outputs {s + 1}..{2 * s}")


def check_fit(array: AontArray, model: InputModel) -> None:
    """Raise ArityMismatchError unless the model is a prior on the array's s
    inputs over its v symbols."""
    if (model.s, model.v) != (array.s, array.v):
        raise ArityMismatchError(
            f"model shape (s={model.s}, v={model.v}) does not match array "
            f"(s={array.s}, v={array.v})"
        )


def prior_weights(array: AontArray, model: InputModel) -> tuple[list[int], int]:
    """Each row's prior Pr[inputs of the row] as an integer weight over one
    common denominator D, so that the row's probability is weight / D.

    Independent model: D is the product of the per-column LCMs of the mass
    denominators, and a weight is the product of per-column integer tables,
    looked up in their v^s-entry product table by the row's input code.
    Block model: D = lcm(block-joint denominators) * v^(s - |block|), and a
    weight is the scaled block-joint entry of the row's block symbols.
    Unless the rows carry the prior, each input tuple once, the weights do
    not sum to D and MassSumError is raised.
    """
    check_fit(array, model)
    if model.kind == INDEPENDENT:
        tables, lcms = zip(*(_over_lcm(dist.masses) for dist in model.columns))
        table = [1]
        for column in tables:
            table = [w * m for w in table for m in column]
        cols, denominator = array.input_columns, math.prod(lcms)
    else:
        table, lcm = _over_lcm(model.block_joint.masses)
        cols, denominator = model.block, lcm * model.v ** (model.s - len(model.block))
    weights = list(map(table.__getitem__, projection_codes(array, cols)))
    if (total := sum(weights)) != denominator:  # the input block repeats or misses a tuple
        raise MassSumError(f"masses sum to {Fraction(total, denominator)}, expected 1")
    return weights, denominator


# the most codes a dense projection may list when they outnumber the rows
_MAX_DENSE_CODES = 1 << 24


def _accumulate(array: AontArray, weights: Sequence[int], cols: Sequence[int]) -> list[int]:
    """Integer weights of the projection onto `cols` (1-based, any order), as
    a list over all v^|cols| codes; refused before it is allocated when that
    is more than max(N, 2^24) codes."""
    size = array.v ** len(cols)
    if size > max(array.n_rows, _MAX_DENSE_CODES):
        raise InvalidParametersError(
            f"a projection onto {len(cols)} columns has {array.v}^{len(cols)} codes, "
            f"more than max(N, 2^24) for N = {array.n_rows} rows"
        )
    masses = [0] * size
    for code, w in zip(projection_codes(array, cols), weights):
        masses[code] += w
    return masses


@dataclass(frozen=True)
class PairJoint:
    """Integer weights of the prior projected onto X u Y (X-major codes),
    with both marginals, over the common denominator."""

    denominator: int
    joint: list[int]
    x: list[int]
    y: list[int]

    def h_x(self) -> float:
        return weight_entropy_bits(self.x, self.denominator)

    def h_y(self) -> float:
        return weight_entropy_bits(self.y, self.denominator)

    def conditional(self, h_y: float) -> float:
        """H(X|Y) = H(X,Y) - H(Y)."""
        return weight_entropy_bits(self.joint, self.denominator) - h_y

    def stat_distance(self) -> float:
        """max over y with Pr[y] > 0 of SD(P[X | Y=y], P[X]): the float of
        `stat_distance_ratio`."""
        num, den = self.stat_distance_ratio()
        return num / den

    def stat_distance_ratio(self) -> tuple[int, int]:
        """The statistical distance as an exact ratio (numerator,
        denominator); the numerator is 0 iff X and Y are independent.

        With weights, SD_y = N_y / (2 w_y D) for the exact numerator
        N_y = sum_x |w_xy D - w_x w_y|. When X has no more codes than Y, the
        N_y are built along the X-major joint, one x-row at a time, each row
        one pass over all y; otherwise each N_y is one sum down its y-column.
        The largest N_y / w_y is kept as an exact ratio, compared by cross
        multiplication, so a y of zero mass (N_y = 0) never wins.
        """
        d, joint, xs, ys = self.denominator, self.joint, self.x, self.y
        y_size = len(ys)
        if len(xs) <= y_size:
            nums = [0] * y_size
            for start, w_x in zip(range(0, len(joint), y_size), xs):
                row = joint[start : start + y_size]
                nums = [n + abs(w * d - w_x * w_y) for n, w, w_y in zip(nums, row, ys)]
        else:
            nums = [
                sum(abs(w * d - w_x * w_y) for w, w_x in zip(joint[y_code::y_size], xs))
                for y_code, w_y in enumerate(ys)
            ]
        best_num, best_w = 0, 1
        for num, w_y in zip(nums, ys):
            if num * best_w > best_num * w_y:
                best_num, best_w = num, w_y
        return best_num, 2 * best_w * d


def pair_joint(array: AontArray, weights: Sequence[int], denominator: int, pair: SubsetPair) -> PairJoint:
    """One projection onto X u Y, from which every per-pair quantity follows."""
    check_pair(array.s, pair)
    cols = pair.x + pair.y
    joint = _accumulate(array, weights, cols)
    y_size = array.v ** len(pair.y)
    x_marginal = [sum(joint[i : i + y_size]) for i in range(0, len(joint), y_size)]
    y_marginal = [sum(joint[y_code::y_size]) for y_code in range(y_size)]
    return PairJoint(denominator, joint, x_marginal, y_marginal)


def marginal_distribution(array: AontArray, model: InputModel, cols: Iterable[int]) -> Distribution:
    """Exact pmf the model induces on any mix of input/output columns."""
    cset = normalize_columns(cols)
    weights, denominator = prior_weights(array, model)
    masses = _accumulate(array, weights, cset)
    return Distribution(array.v, len(cset), tuple(Fraction(w, denominator) for w in masses))


def subset_entropy(array: AontArray, model: InputModel, cols: Iterable[int]) -> float:
    """H of the marginal on `cols`, from the weights of the codes that occur,
    in code order; w / D is the correctly rounded Fraction(w, D), so this is
    the entropy of `marginal_distribution` bit for bit. Past s columns the
    codes can outnumber the rows, so no list over all codes is built."""
    cset = normalize_columns(cols)
    weights, denominator = prior_weights(array, model)
    masses: dict[int, int] = {}
    for code, w in zip(projection_codes(array, cset), weights):
        masses[code] = masses.get(code, 0) + w
    return weight_entropy_bits(map(masses.__getitem__, sorted(masses)), denominator)


def conditional_entropy(array: AontArray, model: InputModel, pair: SubsetPair) -> float:
    """Brute-force H(X|Y) = H(X,Y) - H(Y) from the exact joint."""
    joint = pair_joint(array, *prior_weights(array, model), pair)
    return joint.conditional(joint.h_y())


@dataclass(frozen=True)
class CompletionSet:
    """Complementary-input tuples consistent with a fixed (X, Y) observation."""

    pair: SubsetPair
    given_x: tuple[int, ...]
    given_y: tuple[int, ...]
    completions: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.completions)


def completion_set(
    array: AontArray,
    pair: SubsetPair,
    given_x: Sequence[int],
    given_y: Sequence[int],
) -> CompletionSet:
    """All tuples on the inputs outside X appearing in a row that matches
    X = given_x and Y = given_y, each symbol read by `coding._whole`. Empty
    output is legal for sparse arrays."""
    check_pair(array.s, pair)
    if len(given_x) != len(pair.x) or len(given_y) != len(pair.y):
        raise InvalidParametersError("observation tuples must match the subset sizes")
    complement = tuple(c for c in array.input_columns if c not in pair.x)
    observed = tuple(_whole(x, "observed symbol") for x in (*given_x, *given_y))
    found: set[int] = set()
    # a symbol outside the alphabet matches no row, but its code could
    if all(x in range(array.v) for x in observed):
        matches = map(encode_tuple(observed, array.v).__eq__, projection_codes(array, pair.x + pair.y))
        found.update(compress(projection_codes(array, complement), matches))
    completions = tuple(decode_index(code, array.v, len(complement)) for code in sorted(found))
    return CompletionSet(pair, observed[: len(pair.x)], observed[len(pair.x) :], completions)


def statistical_distance(array: AontArray, model: InputModel, pair: SubsetPair) -> float:
    """max over observed y of SD(P[X | Y=y], P[X]), computed exactly.

    Zero-mass y tuples have no conditional and are skipped.
    """
    return pair_joint(array, *prior_weights(array, model), pair).stat_distance()
