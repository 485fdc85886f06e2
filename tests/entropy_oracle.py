"""Reference entropy engine in exact rationals, for cross-checking.

This is the per-row `Fraction` path the package's integer-weight engine
replaced: every row's prior Pr[inputs] is rebuilt as a `Fraction` from the
model's masses, and projections add those `Fraction`s up. No imports from
the package under test: it reads only `array.rows`, `array.v`, `array.s`
and the model's exact masses. Columns are 1-based labels, as in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import log2
from typing import Sequence


def entropy_bits(masses) -> float:
    h = 0.0
    for p in masses:
        if p:
            pf = float(p)
            h -= pf * log2(pf)
    return h


def joint_probability(model, x: Sequence[int]) -> Fraction:
    """Exact Pr[X_1..X_s = x] under an independent or block-dependent model."""
    if model.kind == "independent":
        p = Fraction(1)
        for dist, sym in zip(model.columns, x):
            p *= dist.masses[sym]
        return p
    code = 0
    for c in model.block:
        code = code * model.v + x[c - 1]
    return model.block_joint.masses[code] / model.v ** (model.s - len(model.block))


def accumulate(array, model, cols: Sequence[int]) -> list[Fraction]:
    """Dense exact pmf over the projection onto `cols`, in the given order."""
    v = array.v
    masses = [Fraction(0)] * v ** len(cols)
    for row in array.rows:
        p = joint_probability(model, row[: array.s])
        if p:
            code = 0
            for c in cols:
                code = code * v + row[c - 1]
            masses[code] += p
    return masses


def subset_entropy(array, model, cols: Sequence[int]) -> float:
    return entropy_bits(accumulate(array, model, sorted(set(cols))))


def _joint_and_marginals(array, model, x, y):
    joint = accumulate(array, model, tuple(x) + tuple(y))
    y_size = array.v ** len(y)
    x_marginal = [Fraction(0)] * (len(joint) // y_size)
    y_marginal = [Fraction(0)] * y_size
    for code, p in enumerate(joint):
        x_marginal[code // y_size] += p
        y_marginal[code % y_size] += p
    return joint, x_marginal, y_marginal


def conditional_entropy(array, model, x: Sequence[int], y: Sequence[int]) -> float:
    """H(X|Y) = H(X,Y) - H(Y); x and y sorted."""
    joint, _, y_marginal = _joint_and_marginals(array, model, x, y)
    return entropy_bits(joint) - entropy_bits(y_marginal)


def statistical_distance(array, model, x: Sequence[int], y: Sequence[int]) -> float:
    """max over y with Pr[y] > 0 of SD(P[X | Y=y], P[X]), exact until the end."""
    return float(_worst_distance(array, model, x, y))


def independent(array, model, x: Sequence[int], y: Sequence[int]) -> bool:
    """Are X and Y independent: is every P[X | Y=y] equal to P[X], exactly?"""
    return _worst_distance(array, model, x, y) == 0


def _worst_distance(array, model, x: Sequence[int], y: Sequence[int]) -> Fraction:
    joint, x_marginal, y_marginal = _joint_and_marginals(array, model, x, y)
    y_size = len(y_marginal)
    worst = Fraction(0)
    for y_code, p_y in enumerate(y_marginal):
        if not p_y:
            continue
        total = sum(
            abs(joint[x_code * y_size + y_code] / p_y - p_x) for x_code, p_x in enumerate(x_marginal)
        )
        worst = max(worst, total / 2)
    return worst
