"""Prior probability models on the s inputs.

Two shapes are supported: s mutually independent per-column distributions,
or one dependent block of columns with every column outside the block
uniform and independent. All masses are exact rationals; entropy is the
only floating-point quantity (base-2 logarithms, 0*log 0 = 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import log2
from typing import Iterable, Iterator, Sequence

from .coding import _integral, _labels, _whole, decode_index, encode_tuple, entropy_bits, integer
from .errors import (
    ArityMismatchError,
    BlockColumnError,
    BlockRangeError,
    InvalidParametersError,
    MassSumError,
    UnknownSymbolError,
)

INDEPENDENT = "independent"
BLOCK_DEPENDENT = "block-dependent"

ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, ASCII strings 'n' or 'n/d' like '1/4', (num, den) integer
    pairs, or Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise MassSumError(f"refusing inexact float mass {value!r}; pass a rational")
    if isinstance(value, bool):
        raise MassSumError(f"mass {value!r} is not a rational")
    try:
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return Fraction(_integral(value[0]), _integral(value[1]))
        if isinstance(value, str):
            return Fraction(*map(integer, value.split("/", 1)))
        return Fraction(value)
    except ZeroDivisionError:
        raise MassSumError(f"mass {value!r} has a zero denominator") from None
    except (TypeError, ValueError):
        raise MassSumError(f"mass {value!r} is not a rational") from None


def _shape(v: int, length: int) -> tuple[int, int]:
    """v and length given from outside, each read by `coding._whole`, if
    v >= 2 and length >= 0."""
    v, length = _whole(v, "alphabet size"), _whole(length, "tuple length")
    if v < 2 or length < 0:
        raise InvalidParametersError(f"bad distribution shape v={v}, length={length}")
    return v, length


def _symbols(tup: Sequence, length: int, v: int, what: str = "tuple") -> tuple[int, ...]:
    """A tuple of symbols given from outside, as ints: it must be a sequence
    of `length` symbols, each read by `coding._whole` and each in 0..v-1."""
    try:
        size = len(tup)
    except TypeError:
        raise InvalidParametersError(f"{what} {tup!r} is not a sequence of symbols") from None
    if size != length:
        raise ArityMismatchError(f"{what} {tup!r} has length {size}, expected {length}")
    symbols = tuple(_whole(x, "symbol") for x in tup)
    for x in symbols:
        if not 0 <= x < v:
            raise UnknownSymbolError(f"symbol {x} outside 0..{v - 1}")
    return symbols


@dataclass(frozen=True)
class Distribution:
    """Exact pmf over length-`length` tuples from {0..v-1}, stored densely.

    Index order is the big-endian base-v encoding, i.e. lexicographic tuple
    order. length 0 is the trivial point distribution on the empty tuple.
    """

    v: int
    length: int
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        v, length = _shape(self.v, self.length)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "length", length)
        if len(self.masses) != self.v**self.length:
            raise ArityMismatchError(
                f"expected {self.v ** self.length} masses, got {len(self.masses)}"
            )
        total = Fraction(0)
        for p in self.masses:
            if p < 0 or p > 1:
                raise MassSumError(f"mass {p} outside [0, 1]")
            total += p
        if total != ONE:
            raise MassSumError(f"masses sum to {total}, expected 1")

    def mass(self, tup: Sequence[int]) -> Fraction:
        """The mass of one tuple, read by `_symbols`."""
        return self.masses[encode_tuple(_symbols(tup, self.length, self.v), self.v)]

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for idx, p in enumerate(self.masses):
            yield decode_index(idx, self.v, self.length), p

    @cached_property
    def _entropy(self) -> float:
        # computed on first use; equality and hashing read only the fields
        return entropy_bits(self.masses)

    def entropy_bits(self) -> float:
        return self._entropy

    def is_uniform(self) -> bool:
        target = Fraction(1, self.v**self.length)
        return all(p == target for p in self.masses)


def uniform(v: int, length: int = 1) -> Distribution:
    v, length = _shape(v, length)
    return Distribution(v, length, tuple([Fraction(1, v**length)] * v**length))


def column(v: int, masses: Iterable) -> Distribution:
    """Single-column distribution from any rational-like mass sequence."""
    return Distribution(v, 1, tuple(as_fraction(p) for p in masses))


def _check_block(block: tuple[int, ...], s: int) -> None:
    if block != tuple(sorted(set(block))) or block and (block[0] < 1 or block[-1] > s):
        raise BlockRangeError(f"block {block} must be sorted, duplicate-free and within 1..{s}")


def _coerce_distribution(d) -> Distribution:
    if isinstance(d, Distribution):
        return d
    masses = tuple(as_fraction(p) for p in d)
    return Distribution(len(masses), 1, masses)


@dataclass(frozen=True)
class InputModel:
    """Prior on the s input columns; construct via the make_* helpers."""

    s: int
    v: int
    kind: str
    columns: tuple[Distribution, ...] | None = None
    block: tuple[int, ...] = ()
    block_joint: Distribution | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _whole(self.s, "s"))
        object.__setattr__(self, "v", _whole(self.v, "v"))
        if self.kind == INDEPENDENT:
            if self.columns is None or len(self.columns) != self.s:
                raise ArityMismatchError(f"independent model needs exactly {self.s} columns")
            for d in self.columns:
                if d.length != 1 or d.v != self.v:
                    raise ArityMismatchError(
                        f"column distribution over {d.v}^{d.length} does not match v={self.v}"
                    )
        elif self.kind == BLOCK_DEPENDENT:
            _check_block(self.block, self.s)
            joint = self.block_joint
            if joint is None or joint.length != len(self.block) or joint.v != self.v:
                raise ArityMismatchError(
                    f"block joint must be a distribution over {self.v}^{len(self.block)}"
                )
        else:
            raise InvalidParametersError(f"unknown model kind {self.kind!r}")


def make_independent_model(dists: Sequence) -> InputModel:
    """Model of s mutually independent columns; each entry is a Distribution
    over single symbols or a plain sequence of rational masses."""
    cols = tuple(_coerce_distribution(d) for d in dists)
    if not cols:
        raise ArityMismatchError("need at least one column distribution")
    v = cols[0].v
    return InputModel(s=len(cols), v=v, kind=INDEPENDENT, columns=cols)


def make_block_dependent_model(
    s: int,
    v: int,
    block: Iterable[int],
    joint: Distribution | None,
) -> InputModel:
    """One dependent block with the remaining columns uniform-independent.

    An empty block with a trivial joint degenerates to the all-uniform model.
    """
    s, block_t = _whole(s, "s"), _labels(block)
    _check_block(block_t, s)
    if joint is None:
        if block_t:
            raise ArityMismatchError("non-empty block needs a joint distribution")
        joint = Distribution(v, 0, (ONE,))
    return InputModel(s=s, v=v, kind=BLOCK_DEPENDENT, block=block_t, block_joint=joint)


def uniform_model(s: int, v: int) -> InputModel:
    return make_independent_model([uniform(v)] * _whole(s, "s"))


def joint_probability(model: InputModel, x: Sequence[int]) -> Fraction:
    """Exact Pr[X_1..X_s = x], x read by `_symbols`."""
    x = _symbols(x, model.s, model.v, "input tuple")
    if model.kind == INDEPENDENT:
        p = ONE
        for d, sym in zip(model.columns, x):
            p *= d.masses[sym]
        return p
    inside = tuple(x[c - 1] for c in model.block)
    return model.block_joint.mass(inside) / model.v ** (model.s - len(model.block))


def column_entropy(model: InputModel, i: int) -> float:
    """H(X_i) in bits, i read by `coding._whole`; dependent-block columns
    must be queried jointly."""
    i = _whole(i, "column")
    if not 1 <= i <= model.s:
        raise InvalidParametersError(f"column {i} outside 1..{model.s}")
    if model.kind == INDEPENDENT:
        return model.columns[i - 1].entropy_bits()
    if i in model.block:
        raise BlockColumnError(f"column {i} lies in the dependent block {model.block}")
    return log2(model.v)


# --- JSON surface -----------------------------------------------------------
#
# {"s": .., "v": .., "kind": "independent", "columns": [[[num, den], ..] per
# column]} or {"kind": "block-dependent", "block": {"indices": [..],
# "joint": [[tuple, [num, den]], ..]}}. Denominators are positive integers.


def _frac_pair(p: Fraction) -> list[int]:
    return [p.numerator, p.denominator]


def model_to_json_dict(model: InputModel) -> dict:
    doc: dict = {"s": model.s, "v": model.v, "kind": model.kind}
    if model.kind == INDEPENDENT:
        doc["columns"] = [[_frac_pair(p) for p in d.masses] for d in model.columns]
    else:
        doc["block"] = {
            "indices": list(model.block),
            "joint": [[list(tup), _frac_pair(p)] for tup, p in model.block_joint.items() if p],
        }
    return doc


def dump_model_json(model: InputModel) -> str:
    return json.dumps(model_to_json_dict(model), indent=2) + "\n"


def model_from_json_dict(doc: dict) -> InputModel:
    """Decode a model document; a malformed one raises an AontLabError."""
    try:
        s = _whole(doc["s"], "s")
        v = _whole(doc["v"], "v")
        kind = doc["kind"]
        if kind == INDEPENDENT:
            cols = [column(v, masses) for masses in doc["columns"]]
            if len(cols) != s:
                raise ArityMismatchError(f"expected {s} columns, got {len(cols)}")
            return make_independent_model(cols)
        if kind == BLOCK_DEPENDENT:
            block = tuple(map(_whole, doc["block"]["indices"]))
            _check_block(block, s)
            size = len(block)
            if size > 24 or v**size > 1 << 24:  # past 24 columns, any v >= 2 is over
                raise InvalidParametersError(f"a block joint over {v}^{size} tuples exceeds 2^24 entries")
            masses = [Fraction(0)] * v**size
            for tup, pair in doc["block"]["joint"]:
                masses[encode_tuple(_symbols(tup, size, v, "joint tuple"), v)] = as_fraction(pair)
            return make_block_dependent_model(s, v, block, Distribution(v, size, tuple(masses)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParametersError(f"malformed model document: {exc}") from None
    raise InvalidParametersError(f"unknown model kind {kind!r}")


def load_model_json(path: str) -> InputModel:
    """Read a model document; a file that is not UTF-8 JSON raises an
    AontLabError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; deep nesting
        # exhausts the decoder's recursion
        except (ValueError, RecursionError) as exc:
            raise InvalidParametersError(f"cannot decode {path} as UTF-8 JSON: {exc}") from None
    return model_from_json_dict(doc)


def save_model_json(model: InputModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_model_json(model))
