"""Seeded benchmark inputs: arrays, priors, and the files the CLI reads.

Arrays are built only through aontlab's public constructors
(`matrix_from_rows`, `linear_aont`, `parse_array`). Each carries the verdict
its construction implies for every (t_i, t_o) it is used at, and
`check_claims` re-classifies it there, so an expected answer is checked, not
assumed:

- Cauchy matrices M[i][j] = c_i d_j / (x_i - y_j) over a prime field with
  v >= 2s: every square submatrix is nonsingular, so [I | M] is a linear AONT
  for every (t_i, t_o) (D'Arco, Nasr Esfahani and Stinson, "All or nothing at
  all", EJC 2016).
- Seeded random matrices kept when every (s-t)-minor is nonzero, which is the
  linear criterion for a full symmetric transform at t.
- Row-output swaps: two rows whose inputs differ in every column and whose
  outputs differ in every column trade outputs. Every column set mixing
  inputs and outputs then loses unbiasedness, while sets of size < s still
  see each tuple at least v - 1 times. The array is weak-only at
  t_i < t_o < s, neither at t_i = t_o < s, and still an AONT at t_o = s,
  where no set mixes inputs and outputs.
- Symbol corruption: one output symbol changes, so the output block misses a
  tuple and the array is neither at every (t_i, t_o).

Model files are written in the documented JSON format directly, so the
inputs do not depend on the program's own serializers.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations

from aontlab import (
    AONT,
    NEITHER,
    WEAK_AONT_ONLY,
    AontArray,
    builtin,
    classify,
    linear_aont,
    matrix_from_rows,
    parse_array,
)

# Verdicts of the three built-in tables at every supported (t_i, t_o); the
# benchmark's tests re-derive them with an independent tuple counter.
BUILTIN_VERDICTS = {
    "table1": {(1, 1): AONT, (1, 2): AONT, (2, 2): AONT},
    "table2": {(1, 1): AONT, (1, 2): AONT, (1, 3): AONT, (2, 2): NEITHER, (2, 3): AONT, (3, 3): AONT},
    "table3": {
        (1, 1): NEITHER, (1, 2): WEAK_AONT_ONLY, (1, 3): AONT,
        (2, 2): NEITHER, (2, 3): AONT, (3, 3): AONT,
    },
}


def t_pairs(s: int) -> list[tuple[int, int]]:
    """Every supported (t_i, t_o): 1 <= t_i <= t_o <= s."""
    return [(ti, to) for ti in range(1, s + 1) for to in range(ti, s + 1)]


@dataclass(frozen=True)
class Spec:
    """A generated array and the verdict its construction implies at each
    (t_i, t_o) where the construction makes a claim."""

    name: str
    array: AontArray
    claims: dict[tuple[int, int], str]


def cauchy(rng: random.Random, name: str, s: int, v: int) -> Spec:
    points = rng.sample(range(v), 2 * s)
    xs, ys = points[:s], points[s:]
    c = [rng.randrange(1, v) for _ in range(s)]
    d = [rng.randrange(1, v) for _ in range(s)]
    rows = [[c[i] * d[j] * pow(xs[i] - ys[j], -1, v) % v for j in range(s)] for i in range(s)]
    return Spec(name, linear_aont(matrix_from_rows(v, rows)), dict.fromkeys(t_pairs(s), AONT))


def _det_mod(rows: list[list[int]], v: int) -> int:
    """Determinant mod a prime v, by elimination; an independent plain-integer check."""
    m = [list(r) for r in rows]
    n = len(m)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % v), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % v
        inv = pow(m[col][col], -1, v)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % v
            for c in range(col, n):
                m[r][c] = (m[r][c] - factor * m[col][c]) % v
    return det % v


ROW_DRAWS = 200


def random_linear(rng: random.Random, name: str, s: int, v: int, t: int) -> Spec:
    """Seeded invertible matrix whose expansion is a full transform at (t, t).

    Rows are drawn one at a time and redrawn until every (s-t)-minor they
    complete is nonzero, which keeps the number of draws, and so the set-up
    time, about the same for every seed. A row that fails ROW_DRAWS times
    restarts the matrix, since earlier rows can leave it no completion.
    """
    size = s - t
    while True:
        rows: list[list[int]] = []
        for _ in range(s * ROW_DRAWS):
            row = [rng.randrange(v) for _ in range(s)]
            k = len(rows)
            grid = rows + [row]
            if all(
                _det_mod([[grid[r][c] for c in csel] for r in (*rsel, k)], v)
                for rsel in combinations(range(k), size - 1)
                for csel in combinations(range(s), size)
            ):
                rows.append(row)
                if len(rows) == s:
                    break
        if len(rows) == s and _det_mod(rows, v):
            return Spec(name, linear_aont(matrix_from_rows(v, rows)), {(t, t): AONT})


def swap_outputs(rng: random.Random, name: str, base: Spec) -> Spec:
    """Trade the outputs of two rows that differ in every input and output column."""
    array = base.array
    s = array.s
    rows = [list(r) for r in array.rows]
    while True:
        a, b = rng.sample(range(len(rows)), 2)
        ra, rb = rows[a], rows[b]
        if all(x != y for x, y in zip(ra, rb)):
            break
    ra[s:], rb[s:] = rb[s:], ra[s:]
    claims = {
        (ti, to): AONT if to == s else WEAK_AONT_ONLY if ti < to else NEITHER
        for ti, to in t_pairs(s)
    }
    return Spec(name, parse_array(rows, array.v, s), claims)


def corrupt_symbol(rng: random.Random, name: str, base: Spec) -> Spec:
    """Change one output symbol, so the output block misses a tuple."""
    array = base.array
    s, v = array.s, array.v
    rows = [list(r) for r in array.rows]
    r = rng.randrange(len(rows))
    c = rng.randrange(s, 2 * s)
    rows[r][c] = (rows[r][c] + rng.randrange(1, v)) % v
    return Spec(name, parse_array(rows, v, s), dict.fromkeys(t_pairs(s), NEITHER))


def builtin_spec(name: str) -> Spec:
    return Spec(name, builtin(name), BUILTIN_VERDICTS[name])


def check_claims(spec: Spec, t_values) -> None:
    """Re-classify the array at each (t_i, t_o) and compare with its claim."""
    for t_i, t_o in t_values:
        got = classify(spec.array, t_i, t_o).verdict
        want = spec.claims[(t_i, t_o)]
        if got != want:
            raise RuntimeError(f"{spec.name} at ({t_i}, {t_o}): classified {got}, construction claims {want}")


# --- priors ----------------------------------------------------------------


def composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """`parts` positive integers summing to `total`, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3215031751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def distinct_primes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        p = rng.randrange(lo, hi)
        if p not in out and _is_prime(p):
            out.append(p)
    return out


def independent_doc(rng: random.Random, s: int, v: int, denominators: list[int]) -> dict:
    """Independent prior; column i has masses k / denominators[i], all positive."""
    return {
        "s": s,
        "v": v,
        "kind": "independent",
        "columns": [[[k, den] for k in composition(rng, den, v)] for den in denominators],
    }


def block_doc(rng: random.Random, s: int, v: int, block: tuple[int, ...], denominator: int) -> dict:
    """Block-dependent prior: a seeded joint on `block`, every other column uniform."""
    size = len(block)
    masses = composition(rng, denominator, v**size)
    joint = []
    for code, k in enumerate(masses):
        tup = []
        for _ in range(size):
            code, sym = divmod(code, v)
            tup.append(sym)
        joint.append([tup[::-1], [k, denominator]])
    return {"s": s, "v": v, "kind": "block-dependent", "block": {"indices": list(block), "joint": joint}}


# --- files -----------------------------------------------------------------


def write_array(directory: str, spec: Spec) -> str:
    """CSV in the documented format: a '# v= s=' header, one row per line."""
    path = os.path.join(directory, f"{spec.name}.csv")
    array = spec.array
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# v={array.v} s={array.s}\n")
        fh.write("".join(",".join(map(str, row)) + "\n" for row in array.rows))
    return path


def write_model(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path
