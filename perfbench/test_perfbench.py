"""Tests of the benchmark itself: inputs, pinned answers, tracing and the gate.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import aontlab
import aontlab.cli
import inputs
import run
import tracing
import workloads
from aontlab import AONT, NEITHER, WEAK_AONT_ONLY

ROOT = Path(__file__).resolve().parent.parent


def counted_verdict(rows, s: int, v: int, t_i: int, t_o: int) -> str:
    """Classification by plain tuple counting, sharing no code with aontlab."""
    family = [tuple(range(s)), tuple(range(s, 2 * s))]
    family += [i + j for i in combinations(range(s), t_i) for j in combinations(range(s, 2 * s), s - t_o)]
    counts = [Counter(tuple(row[c] for c in cols) for row in rows) for cols in family]
    if all(len(c) == v ** len(cols) and len(set(c.values())) == 1 for c, cols in zip(counts, family)):
        return AONT
    if all(len(c) == v ** len(cols) for c, cols in zip(counts, family)):
        return WEAK_AONT_ONLY
    return NEITHER


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_arrays_have_claimed_verdicts(seed, tmp_path):
    rng = random.Random(seed)
    c37 = inputs.cauchy(rng, "c", 3, 7)
    specs = [
        c37,
        inputs.random_linear(rng, "l1", 3, 5, 1),
        inputs.random_linear(rng, "l2", 4, 5, 2),
        inputs.swap_outputs(rng, "w", c37),
        inputs.corrupt_symbol(rng, "n", c37),
    ]
    for spec in specs:
        a = spec.array
        for (t_i, t_o), claim in spec.claims.items():
            assert counted_verdict(a.rows, a.s, a.v, t_i, t_o) == claim, (spec.name, t_i, t_o)
        inputs.check_claims(spec, spec.claims)
    # building a workload re-classifies every array where a job relies on it
    for name in run.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        assert workloads.build(name, seed, str(workdir))


def test_builtin_verdicts_match_counting():
    for name, table in inputs.BUILTIN_VERDICTS.items():
        a = aontlab.builtin(name)
        assert set(table) == set(inputs.t_pairs(a.s))
        for (t_i, t_o), verdict in table.items():
            assert counted_verdict(a.rows, a.s, a.v, t_i, t_o) == verdict, (name, t_i, t_o)


def _oracle():
    spec = importlib.util.spec_from_file_location("matrix_search_oracle", ROOT / "tests" / "matrix_search_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pinned_search_counts_match_oracle():
    oracle = _oracle()
    small = [cfg for cfg in workloads.SEARCH_FOUND if cfg[1] ** (cfg[0] ** 2) <= 5**4]
    assert len(small) >= 10
    for cfg in small:
        s, v, _t_i, _t_o = cfg
        assert oracle.oracle_counts(*cfg) == (workloads.gl_order(s, v), workloads.SEARCH_FOUND[cfg]), cfg


def _traced_pass(jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_pass(jobs, run.CALIBRATION["analyze-report"], tracer)
    finally:
        tracer.restore()
    return result, tracer.layer_metrics(result["wall_s"])


def _model_file(tmp_path) -> str:
    path = tmp_path / "m.json"
    path.write_text(json.dumps(inputs.independent_doc(random.Random(0), 2, 3, [12, 20])))
    return str(path)


def _job(*argv: str) -> workloads.Job:
    return workloads.Job(" ".join(argv), argv, lambda code, out: None)


def test_entropy_rows_scanned_is_rows_times_projections(tmp_path):
    model = _model_file(tmp_path)
    jobs = [
        _job("analyze", "--builtin", "table1", "--model", model, "--ti", "1", "--to", "1", "--format", "json"),
        _job("analyze", "--builtin", "table1", "--model", model, "--ti", "2", "--to", "2", "--format", "csv"),
        _job("demo", "1"),
    ]
    result, layer = _traced_pass(jobs)
    assert not result["failures"]
    rows = aontlab.builtin("table1").n_rows
    assert layer["entropy.projections"] > 0
    assert layer["entropy.rows_scanned"] == rows * layer["entropy.projections"]
    assert layer["models.joint_probability.calls"] == layer["entropy.rows_scanned"]
    # a (1, 1) report makes 5 projections per row
    _, analyze_only = _traced_pass(jobs[:1])
    assert analyze_only["entropy.projections_per_pair"] == 5
    assert analyze_only["report.pairs"] == 4


def test_counts_repeat_and_self_times_account_for_wall(tmp_path):
    model = _model_file(tmp_path)
    jobs = [
        _job("analyze", "--builtin", "table1", "--model", model, "--ti", "1", "--to", "1"),
        _job("verify", "--builtin", "table3", "--ti", "1", "--to", "2"),
        _job("search", "--s", "2", "--v", "3", "--ti", "1", "--to", "1"),
    ]
    first, a = _traced_pass(jobs)
    _, b = _traced_pass(jobs)
    counts = [name for name, unit, _ in tracing.LAYER_METRICS if unit in (tracing.COUNT, tracing.RATIO)]
    counts.remove("jobs.failed_frac")
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    self_total = sum(v for k, v in a.items() if k.endswith(".self_s"))
    assert self_total + a["trace.unexplained_s"] == pytest.approx(first["wall_s"])
    assert 0 <= a["trace.unexplained_s"] < 0.1 * first["wall_s"]


def _snapshot() -> dict:
    owners = [m for name, m in sys.modules.items() if name == "aontlab" or name.startswith("aontlab.")]
    owners.append(aontlab.SquareMatrix)
    return {id(o): dict(vars(o)) for o in owners}


def test_traced_pass_restores_every_module_attribute(tmp_path):
    before = _snapshot()
    _traced_pass([_job("demo", "2"), _job("verify", "--builtin", "table2", "--ti", "1", "--to", "1")])
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys()
        changed = [name for name, value in attrs.items() if after[key][name] is not value]
        assert not changed, changed


def test_wrong_expected_answer_counts_as_failed(tmp_path):
    spec = inputs.builtin_spec("table1")
    wrong = inputs.Spec("table1", spec.array, {(1, 1): NEITHER})
    right_job = workloads._verify(spec, ["--builtin", "table1"], 1, 1, "json")
    wrong_job = workloads._verify(wrong, ["--builtin", "table1"], 1, 1, "text")
    search_job = workloads.Job("search", ("search", "--s", "2", "--v", "3", "--ti", "1", "--to", "1"),
                               workloads.search_check(2, 5, 1, 1, "text"))
    result = run.run_pass([right_job, wrong_job, search_job], run.CALIBRATION["verify"])
    assert len(result["failures"]) == 2
    assert result["failures"][0].startswith(wrong_job.label)


def test_report_check_rejects_a_broken_identity():
    check = workloads.report_check(AONT, "independent", 1, 1, "json", 1)
    row = {"x": [1], "y": [4], "oracle": 1.0, "formula": 1.0, "h_x": 1.5, "source": "symmetric",
           "lower": 0.5, "upper": 1.5, "within": True}
    doc = {"verdict": AONT, "bounds": "symmetric", "rows": [row]}
    assert check(0, json.dumps(doc)) is None
    for key, value in [("formula", 1.0 + 1e-6), ("within", False), ("oracle", 1.6)]:
        bad = dict(doc, rows=[dict(row, **{key: value})])
        assert check(0, json.dumps(bad)) is not None, key


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
