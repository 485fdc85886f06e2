"""Bound and exact-value evaluation for conditional entropies.

Every interval is computed from the input model alone (plus, for the
H(Y)-conditioned variants, a supplied output entropy) in double precision
over exact per-column entropies. The comparator places brute-force oracle
values against the applicable interval and records attainment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log2
from numbers import Real
from typing import Callable, Sequence

from .arrays import AONT, WEAK_AONT_ONLY, AontArray, cached_classify, check_t_range
from .coding import left_sum
from .entropy import SubsetPair, check_fit, check_pair, pair_joint, prior_weights, subset_entropy
from .entropy import conditional_entropy  # unused here; perfbench/tracing.py wraps this name
from .errors import (
    AontLabError,
    BlockTooLargeError,
    ClassificationMismatchError,
    FormulaPreconditionError,
    InvalidParametersError,
    OutputEntropyRangeError,
    TooManyNonuniformError,
)
from .models import BLOCK_DEPENDENT, INDEPENDENT, InputModel, column_entropy

SYMMETRIC = "symmetric"
NONUNIFORM_EXACT = "nonuniform-exact"
BLOCK_EXACT = "block-exact"
ASYMMETRIC = "asymmetric"
ASYMMETRIC_GIVEN_HY = "asymmetric-hy"
WEAK = "weak"
WEAK_GIVEN_HY = "weak-hy"

_EXACT_EPS = 1e-12
_SLACK = 1e-9
DEFAULT_TOLERANCE = 1e-6


def _real(value, what: str) -> float:
    """A real number given from outside, as a float (±inf past the largest
    double); a bool, or a value that is not a real number, such as a string
    or None, raises InvalidParametersError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidParametersError(f"{what} {value!r} is not a real number")
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def check_tolerance(tolerance: float) -> float:
    """The tolerance read by `_real`, if finite and >= 0: nan meets no comparison, inf every one."""
    tolerance = _real(tolerance, "tolerance")
    if not (isfinite(tolerance) and tolerance >= 0):
        raise InvalidParametersError(f"tolerance must be a number >= 0 and finite, got {tolerance}")
    return tolerance


@dataclass(frozen=True)
class EntropyInterval:
    lower: float
    upper: float
    source: str

    @property
    def exact(self) -> bool:
        return abs(self.upper - self.lower) <= _EXACT_EPS

    def __post_init__(self) -> None:
        if not (-_SLACK <= self.lower <= self.upper + _SLACK):
            raise InvalidParametersError(
                f"degenerate interval [{self.lower}, {self.upper}] from {self.source}"
            )

    def contains(self, value: float, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        tolerance = check_tolerance(tolerance)
        return self.lower - tolerance <= value <= self.upper + tolerance


def _point(value: float, source: str) -> EntropyInterval:
    return EntropyInterval(value, value, source)


# Preconditions on the prior, at t = t_i, for the rows of TAG_RULES: the error
# the tag's interval raises when the prior does not fit, or None.
def _independent(model: InputModel, t: int) -> AontLabError | None:
    if model.kind != INDEPENDENT:
        return InvalidParametersError("bounds from column entropies need an independent model")
    return None


def _block_within_t(model: InputModel, t: int) -> AontLabError | None:
    if model.kind != BLOCK_DEPENDENT:
        return InvalidParametersError("needs a block-dependent model")
    if len(model.block) > t:
        return BlockTooLargeError(f"block of size {len(model.block)} exceeds t={t}")
    return None


def _output_entropy(model: InputModel, t_o: int, h_y: float) -> float:
    """A supplied H(Y) of s - t_o output columns, read by `_real`, if it
    lies in [0, (s - t_o) log2 v]."""
    h_y = _real(h_y, "H(Y)")
    top = (model.s - t_o) * log2(model.v)
    if not -_SLACK <= h_y <= top + _SLACK:
        raise OutputEntropyRangeError(f"H(Y)={h_y} outside [0, {top}]")
    return h_y


def _prior_terms(model: InputModel, t_i: int) -> tuple[list[float], float, float, float]:
    """The terms of the bounds: (H(X_i) for each column i, their sum, the sum
    of the t_i smallest, log2 v), for t_i read by `check_t_range`, after
    checking that the prior is independent."""
    if (error := _independent(model, t_i)) is not None:
        raise error
    hs = [column_entropy(model, i) for i in range(1, model.s + 1)]
    return hs, left_sum(hs), left_sum(sorted(hs)[:t_i]), log2(model.v)


def bounds_symmetric(model: InputModel, t: int) -> EntropyInterval:
    """Interval for H(X|Y) on a full symmetric transform, |X| = t, |Y] = s - t."""
    t, _ = check_t_range(model.s, t, t)
    _, total, min_sum, log_v = _prior_terms(model, t)
    return EntropyInterval(max(0.0, total - (model.s - t) * log_v), min_sum, SYMMETRIC)


def exact_nonuniform_le_t(model: InputModel, t: int) -> float:
    """Exact H(X|Y) when at most t columns are non-uniform: the non-uniform
    entropies plus (t - r) * log2(v)."""
    t, _ = check_t_range(model.s, t, t)
    hs, _, _, log_v = _prior_terms(model, t)
    nonuniform = [h for d, h in zip(model.columns, hs) if not d.is_uniform()]
    if len(nonuniform) > t:
        raise TooManyNonuniformError(f"{len(nonuniform)} non-uniform columns exceed t={t}")
    return left_sum(nonuniform) + (t - len(nonuniform)) * log_v


def exact_block_dependent(model: InputModel, t: int) -> float:
    """Exact H(X|Y) for a dependent block of size <= t with uniform rest:
    H(block joint) + (t - |block|) * log2(v)."""
    t, _ = check_t_range(model.s, t, t)
    if (error := _block_within_t(model, t)) is not None:
        raise error
    return model.block_joint.entropy_bits() + (t - len(model.block)) * log2(model.v)


def _h_x(model: InputModel, hs: Sequence[float], t_i: int, x_cols: Sequence[int]) -> float:
    """sum of H(X_c) over the set X of t_i input columns, labels 1..s."""
    pair = SubsetPair(x_cols, ())
    if len(pair.x) != t_i:
        raise InvalidParametersError(f"X subset {x_cols} must have size t_i={t_i}")
    check_pair(model.s, pair)
    return left_sum(hs[c - 1] for c in pair.x)


def bounds_asymmetric(
    model: InputModel,
    t_i: int,
    t_o: int,
    x_cols: Sequence[int] | None = None,
) -> EntropyInterval:
    """Interval for H(X|Y) on a full asymmetric transform, |X| = t_i,
    |Y| = s - t_o.

    The upper bound's H(X) term is pair-specific, so it enters only when
    `x_cols` is supplied; otherwise the X-independent envelope is returned.
    """
    t_i, t_o = check_t_range(model.s, t_i, t_o)
    hs, total, min_sum, log_v = _prior_terms(model, t_i)
    lower = max(0.0, total - (model.s - t_i) * log_v)
    terms = [min_sum + (t_o - t_i) * log_v, min_sum + model.s * log_v - total]
    if x_cols is not None:
        terms.append(_h_x(model, hs, t_i, x_cols))
    return EntropyInterval(lower, min(terms), ASYMMETRIC)


def bounds_asymmetric_given_hy(model: InputModel, t_i: int, t_o: int, h_y: float) -> EntropyInterval:
    """H(Y)-conditioned sandwich for full asymmetric transforms; collapses to
    the closed-form identity when t_i = t_o."""
    t_i, t_o = check_t_range(model.s, t_i, t_o)
    h_y = _output_entropy(model, t_o, h_y)
    _, total, _, log_v = _prior_terms(model, t_i)
    lower = max(0.0, total - (t_o - t_i) * log_v - h_y)
    upper = min(total - h_y, (model.s + t_i - t_o) * log_v - h_y)
    return EntropyInterval(lower, upper, ASYMMETRIC_GIVEN_HY)


def _weak_log_term(v: int, s: int, t_i: int, t_o: int) -> float:
    return log2(v ** (s - t_i) - v ** (s - t_o) + 1)


def bounds_weak(
    model: InputModel,
    t_i: int,
    t_o: int,
    x_cols: Sequence[int] | None = None,
) -> EntropyInterval:
    """Interval for H(X|Y) under the covering relaxation; the completion-set
    size range v^(s-t_i) - v^(s-t_o) + 1 drives both ends."""
    t_i, t_o = check_t_range(model.s, t_i, t_o)
    hs, total, min_sum, log_v = _prior_terms(model, t_i)
    log_term = _weak_log_term(model.v, model.s, t_i, t_o)
    lower = max(0.0, total - (model.s - t_o) * log_v - log_term)
    terms = [min_sum + log_term]
    if x_cols is not None:
        terms.append(_h_x(model, hs, t_i, x_cols))
    return EntropyInterval(lower, min(terms), WEAK)


def bounds_weak_given_hy(model: InputModel, t_i: int, t_o: int, h_y: float) -> EntropyInterval:
    """H(Y)-conditioned sandwich under the covering relaxation."""
    t_i, t_o = check_t_range(model.s, t_i, t_o)
    h_y = _output_entropy(model, t_o, h_y)
    _, total, _, _ = _prior_terms(model, t_i)
    lower = max(0.0, total - _weak_log_term(model.v, model.s, t_i, t_o) - h_y)
    return EntropyInterval(lower, total - h_y, WEAK_GIVEN_HY)


@dataclass(frozen=True)
class BoundComparison:
    """Where an observed H(X|Y) sits against the pair's interval."""

    pair: SubsetPair
    observed: float
    interval: EntropyInterval
    tolerance: float

    @property
    def within(self) -> bool:
        return self.interval.contains(self.observed, self.tolerance)

    @property
    def attains_lower(self) -> bool:
        return abs(self.observed - self.interval.lower) <= self.tolerance

    @property
    def attains_upper(self) -> bool:
        return abs(self.observed - self.interval.upper) <= self.tolerance


@dataclass(frozen=True)
class TagRule:
    """What a bound tag assumes of the array, the pair and the prior, and the
    interval it then prescribes."""

    verdicts: tuple[str, ...]  # verdicts of classify(t_i, t_o) the tag accepts
    equal_t: bool  # needs t_i = t_o; otherwise t_i <= t_o
    # precondition on the prior at t = t_i: the error to raise, or None
    prior: Callable[[InputModel, int], AontLabError | None]
    # (model, t_i, t_o, X columns, H(Y)) -> the tag's interval for one pair
    interval: Callable[[InputModel, int, int, tuple[int, ...], float], EntropyInterval]


_FULL = (AONT,)
_COVERING = (AONT, WEAK_AONT_ONLY)

TAG_RULES = {
    SYMMETRIC: TagRule(_FULL, True, _independent, lambda m, ti, to, x, hy: bounds_symmetric(m, ti)),
    NONUNIFORM_EXACT: TagRule(
        _FULL, True, _independent, lambda m, ti, to, x, hy: _point(exact_nonuniform_le_t(m, ti), NONUNIFORM_EXACT)
    ),
    BLOCK_EXACT: TagRule(
        _FULL, True, _block_within_t, lambda m, ti, to, x, hy: _point(exact_block_dependent(m, ti), BLOCK_EXACT)
    ),
    ASYMMETRIC: TagRule(_FULL, False, _independent, lambda m, ti, to, x, hy: bounds_asymmetric(m, ti, to, x)),
    ASYMMETRIC_GIVEN_HY: TagRule(
        _FULL, False, _independent, lambda m, ti, to, x, hy: bounds_asymmetric_given_hy(m, ti, to, hy)
    ),
    WEAK: TagRule(_COVERING, False, _independent, lambda m, ti, to, x, hy: bounds_weak(m, ti, to, x)),
    WEAK_GIVEN_HY: TagRule(
        _COVERING, False, _independent, lambda m, ti, to, x, hy: bounds_weak_given_hy(m, ti, to, hy)
    ),
}
ALL_TAGS = tuple(TAG_RULES)
# the tags `auto` tries, tightest interval first
_AUTO_ORDER = (BLOCK_EXACT, SYMMETRIC, ASYMMETRIC, WEAK)


def _mismatch(
    which: str, verdict: str | None, model: InputModel, t_i: int, t_o: int
) -> AontLabError | None:
    """Why tag `which` does not apply to this verdict, prior and (t_i, t_o);
    None when its rule holds."""
    rule = TAG_RULES[which]
    if t_o < t_i:
        return ClassificationMismatchError(f"|X|={t_i} exceeds s - |Y|={t_o}")
    if rule.equal_t and t_o != t_i:
        return ClassificationMismatchError(
            f"{which} needs |Y| = s - |X|; got |X|={t_i}, |Y|={model.s - t_o}"
        )
    if verdict not in rule.verdicts:
        return ClassificationMismatchError(
            f"{which} needs verdict {' or '.join(rule.verdicts)} at ({t_i},{t_o}); array is {verdict}"
        )
    return rule.prior(model, t_i)


def auto_tag(verdict: str, model: InputModel, t_i: int, t_o: int) -> str | None:
    """The first tag of block-exact, symmetric, asymmetric, weak whose rule
    holds for this verdict and prior, or None when none does."""
    return next((tag for tag in _AUTO_ORDER if _mismatch(tag, verdict, model, t_i, t_o) is None), None)


def check_tag(which: str) -> str:
    """The tag, if `TAG_RULES` knows it."""
    if which not in ALL_TAGS:  # a tuple: a tag that cannot be hashed, such as a list, is not in it
        raise InvalidParametersError(f"unknown bound tag {which!r}; know {ALL_TAGS}")
    return which


def checked_rule(which: str, verdict: str | None, model: InputModel, t_i: int, t_o: int) -> TagRule:
    """The rule of tag `which`; raises why it does not hold for this verdict
    (the array's class at (t_i, t_o)), prior and (t_i, t_o)."""
    error = _mismatch(check_tag(which), verdict, model, t_i, t_o)
    if error is not None:
        raise error
    return TAG_RULES[which]


def interval_for(array: AontArray, model: InputModel, pair: SubsetPair, which: str) -> EntropyInterval:
    """Build the interval a tag prescribes for this pair, after checking the
    tag's rule against the array's verified class and the prior."""
    return compare(array, model, pair, which).interval


def compare(
    array: AontArray, model: InputModel, pair: SubsetPair, which: str, tolerance: float = DEFAULT_TOLERANCE
) -> BoundComparison:
    """Place the oracle H(X|Y) against the tagged interval, after checking the
    tag's rule against the array's verified class at this pair's (t_i, t_o)
    and the prior; H(X|Y) and H(Y) come from one projection onto X u Y."""
    tolerance = check_tolerance(tolerance)
    t_i, t_o = len(pair.x), array.s - len(pair.y)
    verdict = cached_classify(array, t_i, t_o).verdict if t_i <= t_o else None
    rule = checked_rule(which, verdict, model, t_i, t_o)
    joint = pair_joint(array, *prior_weights(array, model), pair)
    h_y = joint.h_y()
    return BoundComparison(pair, joint.conditional(h_y), rule.interval(model, t_i, t_o, pair.x, h_y), tolerance)


def conditional_entropy_formula(array: AontArray, model: InputModel, pair: SubsetPair) -> float:
    """Closed-form H(X|Y) = sum_i H(X_i) - H(Y), valid exactly where the
    symmetric tag's rule holds at t_i = |X|, t_o = s - |Y|: an independent
    prior on an array verified as a full (t, t) transform with |Y| = s - t.
    Anywhere else FormulaPreconditionError carries the rule's reason."""
    check_pair(array.s, pair)
    check_fit(array, model)
    t_i, t_o = len(pair.x), array.s - len(pair.y)
    verdict = cached_classify(array, t_i, t_o).verdict if t_i == t_o else None
    if (error := _mismatch(SYMMETRIC, verdict, model, t_i, t_o)) is not None:
        raise FormulaPreconditionError(f"closed form: {error}")
    h_y = subset_entropy(array, model, pair.y) if pair.y else 0.0
    return _prior_terms(model, t_i)[1] - h_y
