"""The four workloads: seeded job lists of aontlab CLI commands, each job
carrying the check that decides whether its answer is right.

A job is one `aontlab` command line. Its check receives the exit code and the
captured stdout and returns None when the answer is right, or a message
saying what is wrong. Building a workload is the benchmark's set-up: it
generates the arrays and priors, writes their files, and re-classifies every
array wherever a job relies on its verdict.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import inputs
from aontlab import AONT, NEITHER, WEAK_AONT_ONLY

EXIT_CODE = {AONT: 0, WEAK_AONT_ONLY: 1, NEITHER: 2}
IDENTITY_TOL = 1e-9  # formula vs oracle, block-exact value vs oracle
TABLE_TOL = 1.5e-6  # two values printed at 6 decimals


Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]
    check: Check


def gl_order(s: int, v: int) -> int:
    """|GL(s, v)| = prod_{i<s} (v^s - v^i): every invertible matrix is examined."""
    out = 1
    for i in range(s):
        out *= v**s - v**i
    return out


# Matrices found by search at (s, v, t_i, t_o), pinned from the independent
# brute-force oracle tests/matrix_search_oracle.py.
SEARCH_FOUND = {
    (2, 2, 1, 1): 0,
    (2, 3, 1, 1): 8,
    (2, 3, 1, 2): 48,
    (2, 3, 2, 2): 48,
    (2, 5, 1, 1): 192,
    (2, 5, 1, 2): 480,
    (2, 5, 2, 2): 480,
    (2, 7, 1, 1): 1080,
    (3, 2, 1, 1): 0,
    (3, 2, 1, 2): 18,
    (3, 2, 1, 3): 168,
    (3, 2, 2, 2): 0,
    (3, 2, 2, 3): 168,
    (3, 3, 1, 1): 192,
    (3, 3, 1, 2): 4704,
}


def expected_tag(verdict: str, model_kind: str, t_i: int, t_o: int) -> str | None:
    """The bound family `--bounds auto` must pick for this verdict and prior."""
    if verdict == AONT:
        if model_kind == "block-dependent":
            return "block-exact" if t_i == t_o else None
        return "symmetric" if t_i == t_o else "asymmetric"
    if verdict == WEAK_AONT_ONLY and model_kind == "independent":
        return "weak"
    return None


# --- checks ----------------------------------------------------------------


def verify_check(label: str, t_i: int, t_o: int, verdict: str, fmt: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != EXIT_CODE[verdict]:
            return f"exit {code}, expected {EXIT_CODE[verdict]} ({verdict})"
        if fmt == "json":
            doc = json.loads(out)
            got = (doc["verdict"], doc["t_i"], doc["t_o"])
            if got != (verdict, t_i, t_o):
                return f"reported {got}, expected {(verdict, t_i, t_o)}"
        elif not out.startswith(f"{label}: {verdict} (t_i={t_i}, t_o={t_o})"):
            return f"unexpected output {out[:80]!r}"
        return None

    return check


def _row_problems(row: dict, tag: str | None, want_formula: bool) -> str | None:
    """Identities every report row must satisfy."""
    oracle, formula, h_x = row["oracle"], row["formula"], row["h_x"]
    where = f"row {row['x']}:{row['y']}"
    if row["source"] != tag:
        return f"{where}: bound source {row['source']!r}, expected {tag!r}"
    if tag is not None and row["within"] is not True:
        return f"{where}: H(X|Y)={oracle} outside its {tag} interval"
    if want_formula != (formula is not None):
        return f"{where}: formula {'missing' if want_formula else 'unexpected'}"
    if formula is not None and abs(formula - oracle) > IDENTITY_TOL:
        return f"{where}: formula {formula} != oracle {oracle}"
    if tag == "block-exact" and not (row["lower"] == row["upper"] and abs(oracle - row["lower"]) <= IDENTITY_TOL):
        return f"{where}: block-exact value {row['lower']} != oracle {oracle}"
    if not -IDENTITY_TOL <= oracle <= h_x + IDENTITY_TOL:
        return f"{where}: H(X|Y)={oracle} outside [0, H(X)={h_x}]"
    return None


def _opt_float(text: str) -> float | None:
    return float(text) if text else None


def _csv_rows(out: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(out)):
        rows.append(
            {
                "x": rec["x"],
                "y": rec["y"],
                "oracle": float(rec["oracle"]),
                "formula": _opt_float(rec["formula"]),
                "h_x": float(rec["h_x"]),
                "source": rec["source"] or None,
                "lower": _opt_float(rec["lower"]),
                "upper": _opt_float(rec["upper"]),
                "within": bool(int(rec["within"])) if rec["within"] else None,
            }
        )
    return rows


def _table_problems(out: str, verdict: str, tag: str | None, want_formula: bool, n_rows: int) -> str | None:
    lines = out.splitlines()
    if f"verdict: {verdict}" not in lines[1] or f"bounds: {tag or 'none applicable'} " not in lines[2]:
        return f"table header {lines[1:3]!r} does not match verdict {verdict}, bounds {tag}"
    body = lines[6 : lines.index("", 6)]  # between the dashed rule and the summary
    if len(body) != n_rows:
        return f"{len(body)} table rows, expected {n_rows}"
    for line in body:
        _x, _y, oracle, formula, _sd, _lower, _upper, within = line.split()
        if within != ("yes" if tag else "-"):
            return f"table row {line!r}: within column {within!r}"
        if want_formula != (formula != "-"):
            return f"table row {line!r}: formula column {formula!r}"
        if want_formula and abs(float(formula) - float(oracle)) > TABLE_TOL:
            return f"table row {line!r}: formula != oracle"
    return None


def report_check(verdict: str, model_kind: str, t_i: int, t_o: int, fmt: str, n_rows: int) -> Check:
    tag = expected_tag(verdict, model_kind, t_i, t_o)
    want_formula = model_kind == "independent" and t_i == t_o and verdict == AONT

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if fmt == "table":
            return _table_problems(out, verdict, tag, want_formula, n_rows)
        if fmt == "json":
            doc = json.loads(out)
            if (doc["verdict"], doc["bounds"]) != (verdict, tag):
                return f"verdict/bounds {(doc['verdict'], doc['bounds'])}, expected {(verdict, tag)}"
            rows = doc["rows"]
        else:
            rows = _csv_rows(out)
        if len(rows) != n_rows:
            return f"{len(rows)} report rows, expected {n_rows}"
        for row in rows:
            problem = _row_problems(row, tag, want_formula)
            if problem:
                return problem
        return None

    return check


def demo_check(number: int, fmt: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"demo {number} exit {code}"
        if fmt == "json":
            doc = json.loads(out)
            if not doc["passed"] or not all(c["ok"] for c in doc["checks"]):
                return f"demo {number}: golden values not reproduced"
        elif f"demo {number}: PASS" not in out:
            return f"demo {number}: no PASS line"
        return None

    return check


def search_check(s: int, v: int, t_i: int, t_o: int, fmt: str) -> Check:
    examined, found = gl_order(s, v), SEARCH_FOUND[(s, v, t_i, t_o)]

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if fmt == "json":
            doc = json.loads(out)
            got = (doc["examined"], doc["found"], len(doc["matrices"]))
            want = (examined, found, found)
        else:
            lines = out.splitlines()
            got = (lines[0], len(lines) - 1)
            want = (f"{examined} examined, {found} found", found)
        return None if got == want else f"search {(s, v, t_i, t_o)}: got {got}, expected {want}"

    return check


# --- workloads ---------------------------------------------------------------


def _n_pairs(s: int, t_i: int, t_o: int) -> int:
    return len(list(combinations(range(s), t_i))) * len(list(combinations(range(s), s - t_o)))


def _analyze(spec: inputs.Spec, array_path: str, model: tuple[str, str], t_i: int, t_o: int, fmt: str,
             pair: str | None = None) -> Job:
    model_path, kind = model
    argv = ["analyze", "--array", array_path, "--model", model_path,
            "--ti", str(t_i), "--to", str(t_o), "--format", fmt]
    if pair is not None:
        argv += ["--pair", pair]
    n_rows = 1 if pair is not None else _n_pairs(spec.array.s, t_i, t_o)
    verdict = spec.claims[(t_i, t_o)]
    return Job(f"analyze {spec.name} {kind} ({t_i},{t_o}) {fmt}" + (f" {pair}" if pair else ""),
               tuple(argv), report_check(verdict, kind, t_i, t_o, fmt, n_rows))


def _verify(spec: inputs.Spec, source: list[str], t_i: int, t_o: int, fmt: str) -> Job:
    label = source[1]
    verdict = spec.claims[(t_i, t_o)]
    argv = ["verify", *source, "--ti", str(t_i), "--to", str(t_o), "--format", fmt]
    return Job(f"verify {spec.name} ({t_i},{t_o}) {fmt}", tuple(argv), verify_check(label, t_i, t_o, verdict, fmt))


def _checked(specs_and_t: list[tuple[inputs.Spec, tuple[int, int]]]) -> None:
    by_spec: dict[str, tuple[inputs.Spec, set]] = {}
    for spec, t in specs_and_t:
        by_spec.setdefault(spec.name, (spec, set()))[1].add(t)
    for spec, ts in by_spec.values():
        inputs.check_claims(spec, sorted(ts))


def _demos() -> list[Job]:
    return [Job(f"demo {n} {fmt}", ("demo", str(n), "--format", fmt), demo_check(n, fmt))
            for n, fmt in ((1, "text"), (2, "json"), (3, "text"), (4, "json"))]


def analyze_report(rng: random.Random, workdir: str) -> list[Job]:
    """Full reports on s=3 Cauchy arrays, a t=1 linear s=4 array and a
    weak-only swap, under small-denominator and block-dependent priors."""
    c37 = inputs.cauchy(rng, "cauchy-3-7", 3, 7)
    c311 = inputs.cauchy(rng, "cauchy-3-11", 3, 11)
    lin47 = inputs.random_linear(rng, "linear-4-7-t1", 4, 7, 1)
    swap37 = inputs.swap_outputs(rng, "swapped-3-7", c37)
    path = {spec.name: inputs.write_array(workdir, spec) for spec in (c37, c311, lin47, swap37)}

    def model(name: str, doc: dict) -> tuple[str, str]:
        return inputs.write_model(workdir, name, doc), doc["kind"]

    ind37 = model("ind-3-7", inputs.independent_doc(rng, 3, 7, [24, 60, 90]))
    ind311 = model("ind-3-11", inputs.independent_doc(rng, 3, 11, [24, 60, 90]))
    ind47 = model("ind-4-7", inputs.independent_doc(rng, 4, 7, [24, 60, 90, 120]))
    blk1 = model("block1-3-7", inputs.block_doc(rng, 3, 7, (rng.randint(1, 3),), 60))
    blk2 = model("block2-3-7", inputs.block_doc(rng, 3, 7, tuple(sorted(rng.sample((1, 2, 3), 2))), 420))

    # Job costs spread widely. The mix puts the median and the tail
    # percentile (5 jobs from the top) inside bands of jobs of similar cost,
    # so neither sits on a jump between two costs.
    plan = [
        (c37, ind37, 1, 3, "json"), (c37, blk1, 1, 2, "json"),
        (c37, blk2, 2, 2, "json"), (c37, blk1, 1, 1, "json"), (c37, blk1, 2, 2, "csv"),
        (swap37, ind37, 1, 1, "table"), (swap37, ind37, 1, 2, "json"), (swap37, ind37, 1, 2, "csv"),
        (c37, ind37, 1, 2, "json"), (swap37, ind37, 2, 2, "json"),
        (c37, ind37, 1, 1, "table"), (c37, ind37, 1, 1, "json"), (c37, ind37, 2, 2, "csv"),
        (c37, ind37, 2, 2, "table"),
        (c311, ind311, 1, 1, "json"), (c311, ind311, 2, 2, "table"),
        (lin47, ind47, 1, 1, "json"),
    ]
    _checked([(spec, (ti, to)) for spec, _m, ti, to, _f in plan])
    jobs = [_analyze(spec, path[spec.name], m, ti, to, fmt) for spec, m, ti, to, fmt in plan]
    return jobs + _demos()


def analyze_pair(rng: random.Random, workdir: str) -> list[Job]:
    """Single-pair reports on s=4, v=7 linear arrays under priors whose masses
    have pairwise-coprime 6-7 digit prime denominators."""
    arrays_t = [(inputs.random_linear(rng, "linear-4-7-t1", 4, 7, 1), 1),
                (inputs.random_linear(rng, "linear-4-7-t2", 4, 7, 2), 2)]
    primes = inputs.distinct_primes(rng, 10, 100_003, 9_999_991)
    docs = {
        "ind-big-a": inputs.independent_doc(rng, 4, 7, primes[0:4]),
        "ind-big-b": inputs.independent_doc(rng, 4, 7, primes[4:8]),
        "block-big": inputs.block_doc(rng, 4, 7, (rng.randint(1, 4),), primes[8]),
    }
    models = {name: (inputs.write_model(workdir, name, doc), doc["kind"]) for name, doc in docs.items()}
    _checked([(spec, (t, t)) for spec, t in arrays_t])
    jobs = []
    for spec, t in arrays_t:
        path = inputs.write_array(workdir, spec)
        for m in models.values():
            for fmt in ("json", "csv", "table"):
                x = sorted(rng.sample(range(1, 5), t))
                y = sorted(rng.sample(range(5, 9), 4 - t))
                pair = ",".join(map(str, x)) + ":" + ",".join(map(str, y))
                jobs.append(_analyze(spec, path, m, t, t, fmt, pair))
    return jobs


def verify(rng: random.Random, workdir: str) -> list[Job]:
    """Linear, row-swapped and symbol-corrupted arrays up to s=4 over v=11,
    plus the built-in tables, at every supported (t_i, t_o)."""
    c411 = inputs.cauchy(rng, "cauchy-4-11", 4, 11)
    c37 = inputs.cauchy(rng, "cauchy-3-7", 3, 7)
    specs = [
        c411,
        inputs.swap_outputs(rng, "swapped-4-11", c411),
        inputs.corrupt_symbol(rng, "corrupt-4-11", c411),
        c37,
        inputs.swap_outputs(rng, "swapped-3-7", c37),
        inputs.corrupt_symbol(rng, "corrupt-3-7", c37),
    ]
    plan: list[tuple[inputs.Spec, list[str], int, int]] = []
    for spec in specs:
        source = ["--array", inputs.write_array(workdir, spec)]
        ts = inputs.t_pairs(spec.array.s)
        if spec.name == "swapped-4-11":
            ts = [(1, 2), (1, 3), (2, 3), (2, 2)]
        elif spec.name == "corrupt-4-11":
            ts = [(1, 1), (2, 4)]
        plan += [(spec, source, ti, to) for ti, to in ts]
    for name in inputs.BUILTIN_VERDICTS:
        spec = inputs.builtin_spec(name)
        plan += [(spec, ["--builtin", name], ti, to) for ti, to in inputs.t_pairs(spec.array.s)]
    _checked([(spec, (ti, to)) for spec, _src, ti, to in plan])
    return [_verify(spec, src, ti, to, "json" if i % 3 == 0 else "text")
            for i, (spec, src, ti, to) in enumerate(plan)]


def search(rng: random.Random, workdir: str) -> list[Job]:
    """Exhaustive linear search, in a seeded order; inputs are the configs.

    Each config keeps one output format whatever the seed, so memory use does
    not depend on the order.
    """
    jobs = []
    for i, (s, v, ti, to) in enumerate(sorted(SEARCH_FOUND)):
        fmt = "json" if i % 2 else "text"
        argv = ("search", "--s", str(s), "--v", str(v), "--ti", str(ti), "--to", str(to), "--format", fmt)
        jobs.append(Job(f"search ({s},{v},{ti},{to}) {fmt}", argv, search_check(s, v, ti, to, fmt)))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "analyze-report": analyze_report,
    "analyze-pair": analyze_pair,
    "verify": verify,
    "search": search,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Generate the workload's inputs under `workdir` and return its job list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
