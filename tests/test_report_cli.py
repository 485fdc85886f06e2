import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aontlab import (
    Distribution,
    SubsetPair,
    __version__,
    builtin,
    dump_array_csv,
    identity_matrix,
    linear_aont,
    make_block_dependent_model,
    make_independent_model,
    matrix_from_rows,
    parse_array,
    parse_array_csv,
    save_array_csv,
    save_model_json,
    search_linear,
    uniform_model,
)
from aontlab import cli as cli_module
from aontlab import models
from aontlab import report as report_module
from aontlab.arrays import cached_classify, classify
from aontlab.bounds import ALL_TAGS
from aontlab.coding import entropy_bits
from aontlab.cli import main as cli
from aontlab.constructions import DEFAULT_SEARCH_CAP
from aontlab.demos import run_demo
from aontlab.errors import ArityMismatchError, InvalidParametersError, UnknownNameError
from aontlab.report import (
    ReportRow,
    build_report,
    parse_report_csv,
    report_to_csv,
    report_to_json_dict,
    report_to_table,
)

from conftest import (
    CliRunner,
    cross_version_model,
    example1_model,
    example3_model,
    example4_model,
    masses_over,
    random_independent_model,
    random_masses,
)
import entropy_oracle

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "analysis_report.schema.json").read_text()
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def ex1_model_file(tmp_path):
    path = tmp_path / "ex1.json"
    save_model_json(example1_model(), str(path))
    return str(path)


def test_build_report_example1(table1):
    report = build_report(table1, example1_model(), 1, 1, array_label="table1")
    assert report.verdict.verdict == "aont"
    assert report.bounds_tag == "symmetric"
    assert len(report.rows) == 4
    values = {(r.x, r.y): r.oracle for r in report.rows}
    assert values[(1,), (3,)] == pytest.approx(1.196889, abs=1e-6)
    assert values[(2,), (4,)] == pytest.approx(1.198335, abs=1e-6)
    assert all(r.within for r in report.rows)
    assert not report.perfect_security
    assert report.exceeds_min_entropy_cap is False
    with pytest.raises(KeyError, match=r"no row for pair \(\(1,\), \(2,\)\)"):
        report.row_for((1,), (2,))


def test_build_report_classifies_once(table1, monkeypatch):
    calls = []
    monkeypatch.setattr(report_module, "classify", lambda *args: calls.append(args) or classify(*args))
    cached_classify.cache_clear()
    report = build_report(table1, example1_model(), 1, 1)
    assert report.bounds_tag == "symmetric" and all(r.formula is not None for r in report.rows)
    assert len(calls) == 1
    assert cached_classify.cache_info().currsize == 0


def test_build_report_sums_each_column_entropy_once(monkeypatch):
    """Formula, bounds and cap all read H(X_i): each column's entropy is
    summed once per prior, not once per pair."""
    masses = []
    monkeypatch.setattr(models, "entropy_bits", lambda m: masses.append(m) or entropy_bits(m))
    model = random_independent_model(random.Random(47), 4, 7)
    report = build_report(linear_aont(matrix_from_rows(7, LINEAR_4_7_T1)), model, 1, 1)
    assert len(report.rows) == 16 and all(r.formula is not None and r.within for r in report.rows)
    assert masses == [dist.masses for dist in model.columns]


def test_build_report_example3_flags_cap(table2):
    report = build_report(table2, example3_model(), 1, 2, array_label="table2")
    assert report.bounds_tag == "asymmetric"
    assert report.exceeds_min_entropy_cap is True
    assert report.row_for((1,), (5,)).oracle == pytest.approx(1.459148, abs=1e-6)


def test_build_report_example4(table3):
    report = build_report(table3, example4_model(), 1, 2, array_label="table3")
    assert report.verdict.verdict == "weak-aont-only"
    assert report.bounds_tag == "weak"
    assert all(r.within for r in report.rows)
    assert report.row_for((1,), (6,)).oracle == pytest.approx(0.657504, abs=1e-6)


def test_report_rows_sorted(table2):
    report = build_report(table2, example3_model(), 1, 2)
    keys = [(r.x, r.y) for r in report.rows]
    assert keys == sorted(keys)


def test_report_perfect_security_flag(table1):
    report = build_report(table1, uniform_model(2, 3), 1, 1)
    assert report.perfect_security


def _cauchy_array(s: int, v: int):
    """The linear array of the Cauchy matrix 1 / (x - y) mod v, a full
    transform at every (t_i, t_o)."""
    return linear_aont(matrix_from_rows(v, [[pow(x - y, -1, v) for y in range(s, 2 * s)] for x in range(s)]))


def _near_uniform(v: int) -> tuple[Fraction, ...]:
    e = Fraction(1, 10**4)
    return (Fraction(1, v) + e, Fraction(1, v) - e) + (Fraction(1, v),) * (v - 2)


def test_perfect_security_is_refused_within_tolerance_of_h_x():
    """Two columns 1/5 +- 1e-4 leave every H(X|Y) within the default
    tolerance of H(X), yet X and Y are dependent: SD is about 1e-4."""
    report = build_report(_cauchy_array(2, 5), make_independent_model([_near_uniform(5)] * 2), 1, 1)
    assert all(abs(r.oracle - r.h_x) <= report.tolerance and r.stat_distance > 1e-4 for r in report.rows)
    assert not report.perfect_security


def test_perfect_security_is_found_at_zero_tolerance():
    """Under the uniform prior H(X|Y) and H(X) differ in the last bits, and
    X and Y are still independent."""
    report = build_report(_cauchy_array(2, 5), uniform_model(2, 5), 1, 1, tolerance=0.0)
    assert any(r.oracle != r.h_x for r in report.rows)
    assert report.perfect_security and all(r.stat_distance == 0 for r in report.rows)


@given(
    seed=st.integers(0, 10**9),
    kind=st.sampled_from(["cauchy", "identity", "swapped"]),
    priors=st.lists(st.sampled_from(["uniform", "near-uniform", "random"]), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_perfect_security_is_exact_independence(seed, kind, priors):
    """perfect_security holds iff X and Y are independent on every pair,
    decided in exact rationals by the reference; priors mix uniform,
    near-uniform and random columns."""
    rng = random.Random(seed)
    s, v = rng.choice(((2, 5), (2, 7), (3, 7)))
    array = linear_aont(identity_matrix(s, v)) if kind == "identity" else _cauchy_array(s, v)
    if kind == "swapped":
        rows = [list(row) for row in array.rows]
        a, b = rng.sample(range(len(rows)), 2)
        rows[a][s:], rows[b][s:] = rows[b][s:], rows[a][s:]
        array = parse_array(rows, v, s)

    def column(prior: str) -> tuple[Fraction, ...]:
        if prior == "uniform":
            return (Fraction(1, v),) * v
        return _near_uniform(v) if prior == "near-uniform" else random_masses(rng, v)

    model = make_independent_model([column(prior) for prior in priors[:s]])
    t_o = rng.randint(1, s)
    t_i = rng.randint(1, t_o)
    report = build_report(array, model, t_i, t_o, bounds_tag=None)
    independent = [entropy_oracle.independent(array, model, r.x, r.y) for r in report.rows]
    assert [r.stat_distance == 0 for r in report.rows] == independent
    assert report.perfect_security == all(independent)


def test_build_report_gives_a_repeated_pair_one_row(table1):
    pair = SubsetPair((1,), (3,))
    report = build_report(table1, uniform_model(2, 3), 1, 1, pairs=[pair, SubsetPair((1, 1), (3,)), pair])
    assert [(r.x, r.y) for r in report.rows] == [((1,), (3,))]


def test_cli_analyze_gives_a_repeated_pair_one_row(runner, ex1_model_file):
    result = runner.invoke(
        cli,
        ["analyze", "--builtin", "table1", "--model", ex1_model_file, "--ti", "1", "--to", "1",
         "--format", "csv", "--pair", "1:3", "--pair", "1:3", "--pair", "1,1:3", "--pair", "2:4"],
    )
    assert result.exit_code == 0
    assert [(row["x"], row["y"]) for row in parse_report_csv(result.stdout)] == [((1,), (3,)), ((2,), (4,))]


def test_csv_round_trip(table1, table2, table3):
    block_joint = Distribution(3, 1, (Fraction(1, 4), Fraction(1, 8), Fraction(5, 8)))
    reports = [
        build_report(table1, example1_model(), 1, 1),
        build_report(table2, example3_model(), 1, 2),
        build_report(table1, make_block_dependent_model(2, 3, (1,), block_joint), 1, 1),
        build_report(table3, example4_model(), 1, 2),
        build_report(linear_aont(identity_matrix(2, 3)), uniform_model(2, 3), 1, 1),
        build_report(table1, example1_model(), 1, 2),  # t_o = s: every Y is empty
    ]
    for report in reports:
        parsed = parse_report_csv(report_to_csv(report))
        # every field of every row, floats bit for bit
        assert parsed == [dataclasses.asdict(row) for row in report.rows]


def test_json_schema_row_properties_follow_report_row():
    row_schema = SCHEMA["properties"]["rows"]["items"]["properties"]
    assert list(row_schema) == [f.name for f in dataclasses.fields(ReportRow)]


def test_table_rendering_six_decimals(table1):
    report = build_report(table1, example1_model(), 1, 1)
    text = report_to_table(report)
    assert "1.196889" in text and "verdict: aont" in text


def test_json_schema_validation(table1, table2, table3):
    for arr, model, t_i, t_o in (
        (table1, example1_model(), 1, 1),
        (table2, example3_model(), 1, 2),
        (table3, example4_model(), 1, 2),
    ):
        doc = report_to_json_dict(build_report(arr, model, t_i, t_o))
        jsonschema.validate(doc, SCHEMA)


def test_json_schema_validates_neither_report():
    arr = linear_aont(identity_matrix(2, 3))
    doc = report_to_json_dict(build_report(arr, uniform_model(2, 3), 1, 1))
    jsonschema.validate(doc, SCHEMA)
    assert doc["bounds"] is None


def test_demo_reports_pass():
    for n in (1, 2, 3, 4):
        report, checks, passed = run_demo(n)
        assert passed, [c for c in checks if not c.ok]


def test_cli_verify_exit_codes(runner, tmp_path):
    assert runner.invoke(cli, ["verify", "--builtin", "table1", "--ti", "1", "--to", "1"]).exit_code == 0
    assert runner.invoke(cli, ["verify", "--builtin", "table2", "--ti", "1", "--to", "2"]).exit_code == 0
    res3 = runner.invoke(cli, ["verify", "--builtin", "table3", "--ti", "1", "--to", "2"])
    assert res3.exit_code == 1
    assert "(1, 4)" in res3.output

    ident = tmp_path / "identity.csv"
    ident.write_text(dump_array_csv(linear_aont(identity_matrix(2, 3))))
    assert runner.invoke(cli, ["verify", "--array", str(ident), "--ti", "1", "--to", "1"]).exit_code == 2


def test_cli_verify_truncated_file(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,a,a,a\na,b,c,b\n")
    result = runner.invoke(cli, ["verify", "--array", str(bad), "--ti", "1", "--to", "1"])
    assert result.exit_code > 2


@pytest.mark.parametrize("s,n_rows", [(5, 1), (10, 30)])
def test_cli_verify_header_larger_than_file_exits_3(runner, tmp_path, s, n_rows):
    path = tmp_path / "huge.csv"
    path.write_text(f"# v=100 s={s}\n" + (",".join("0" * 2 * s) + "\n") * n_rows)
    start = time.perf_counter()
    result = runner.invoke(cli, ["verify", "--array", str(path), "--ti", "1", "--to", "1"])
    assert time.perf_counter() - start < 2
    assert result.exit_code == 3
    assert "rows, got" in result.stderr


@pytest.mark.parametrize(
    "header",
    ["# v=3 s=10000", "# v=3 s=100000000", "# v=3 s=" + "1" * 5000, "# v=" + "1" * 5000 + " s=1"],
    ids=["s=10^4", "s=10^8", "s of 5000 digits", "v of 5000 digits"],
)
def test_cli_verify_huge_header_exits_3_at_once(runner, tmp_path, header):
    """v^s is neither computed nor printed when it is far past the row count."""
    path = tmp_path / "huge.csv"
    path.write_text(header + "\n0,1\n")
    start = time.perf_counter()
    result = runner.invoke(cli, ["verify", "--array", str(path), "--ti", "1", "--to", "1"])
    assert time.perf_counter() - start < 2
    assert result.exit_code == 3
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_cli_verify_usage_error_code(runner):
    result = runner.invoke(cli, ["verify", "--ti", "1", "--to", "1"])
    assert result.exit_code == 4


def test_cli_verify_json(runner):
    result = runner.invoke(cli, ["verify", "--builtin", "table3", "--ti", "1", "--to", "2", "--format", "json"])
    doc = json.loads(result.output)
    assert doc["verdict"] == "weak-aont-only" and doc["witness"] == [1, 4]


def test_cli_analyze_table(runner, ex1_model_file):
    result = runner.invoke(
        cli,
        ["analyze", "--builtin", "table1", "--model", ex1_model_file, "--ti", "1", "--to", "1"],
    )
    assert result.exit_code == 0
    assert "1.196889" in result.output


def test_cli_analyze_json_schema(runner, ex1_model_file):
    result = runner.invoke(
        cli,
        [
            "analyze", "--builtin", "table1", "--model", ex1_model_file,
            "--ti", "1", "--to", "1", "--format", "json",
        ],
    )
    jsonschema.validate(json.loads(result.output), SCHEMA)


def test_cli_analyze_json_schema_at_tolerance_zero(runner, ex1_model_file):
    """`--tolerance 0` is accepted, so the schema must admit the 0.0 it prints."""
    result = runner.invoke(
        cli,
        [
            "analyze", "--builtin", "table1", "--model", ex1_model_file,
            "--ti", "1", "--to", "1", "--tolerance", "0", "--format", "json",
        ],
    )
    doc = json.loads(result.output)
    assert doc["tolerance"] == 0.0
    jsonschema.validate(doc, SCHEMA)


def test_cli_analyze_json_is_the_same_bytes_on_every_python(runner, tmp_path):
    # Python 3.12's compensated sum() printed 2.9777472201008135 here
    path = tmp_path / "m.json"
    save_model_json(cross_version_model(), str(path))
    result = runner.invoke(
        cli, ["analyze", "--builtin", "table3", "--model", str(path), "--ti", "3", "--to", "3", "--format", "json"]
    )
    assert result.exit_code == 0
    for key in ("formula", "lower", "upper"):
        assert f'"{key}": 2.977747220100814,' in result.output


def test_cli_analyze_csv_round_trip(runner, ex1_model_file, table1):
    result = runner.invoke(
        cli,
        [
            "analyze", "--builtin", "table1", "--model", ex1_model_file,
            "--ti", "1", "--to", "1", "--format", "csv",
        ],
    )
    parsed = parse_report_csv(result.output)
    direct = build_report(table1, example1_model(), 1, 1)
    for rec, row in zip(parsed, direct.rows):
        assert rec["oracle"] == row.oracle


def test_cli_analyze_pair_filter(runner, ex1_model_file):
    result = runner.invoke(
        cli,
        [
            "analyze", "--builtin", "table1", "--model", ex1_model_file,
            "--ti", "1", "--to", "1", "--format", "csv", "--pair", "1:3",
        ],
    )
    rows = parse_report_csv(result.output)
    assert len(rows) == 1 and rows[0]["x"] == (1,) and rows[0]["y"] == (3,)


def test_cli_analyze_bad_model_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff\xfe{}", b"[" * 100_000, None):
        bad.unlink(missing_ok=True)
        if content is not None:
            bad.write_bytes(content)
        result = runner.invoke(
            cli, ["analyze", "--builtin", "table1", "--model", str(bad), "--ti", "1", "--to", "1"]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert ("No such file" if content is None else "as UTF-8 JSON") in result.stderr
        assert "Traceback" not in result.stderr


def test_cli_analyze_mass_not_in_ascii_digits_exits_3(runner, tmp_path):
    """Fraction() read '١/٣' as 1/3, so this model loaded and the report exited 0."""
    path = tmp_path / "arabic.json"
    path.write_text(json.dumps({"s": 2, "v": 3, "kind": "independent", "columns": [["١/٣"] * 3] * 2}))
    result = runner.invoke(cli, ["analyze", "--builtin", "table1", "--model", str(path), "--ti", "1", "--to", "1"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "mass '١/٣' is not a rational" in result.stderr


def test_cli_demo(runner):
    result = runner.invoke(cli, ["demo", "1"])
    assert result.exit_code == 0
    assert "demo 1: PASS" in result.output


def test_cli_demo_json_schema(runner):
    result = runner.invoke(cli, ["demo", "4", "--format", "json"])
    doc = json.loads(result.output)
    jsonschema.validate(doc, SCHEMA)
    assert doc["passed"] is True


def test_cli_search_text(runner):
    result = runner.invoke(cli, ["search", "--s", "2", "--v", "3", "--ti", "1", "--to", "1"])
    assert result.exit_code == 0
    assert result.stdout.startswith("48 examined, 8 found\n")
    assert result.stderr.splitlines()[-1] == "examined 48/48 invertible matrices"


def test_cli_search_json(runner):
    result = runner.invoke(cli, ["search", "--s", "2", "--v", "2", "--ti", "1", "--to", "1", "--format", "json"])
    doc = json.loads(result.output.splitlines()[-1])
    assert doc["examined"] == 6 and doc["found"] == 0


def test_cli_search_cap_exceeded(runner):
    result = runner.invoke(cli, ["search", "--s", "4", "--v", "7", "--ti", "1", "--to", "1"])
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "s, v",
    [
        (100000, 3),  # v^(s*s) has about 4.8e9 digits
        (1, 1000000000000000003),  # a prime too large to test by trial division
    ],
)
def test_cli_search_huge_space_exits_at_once(runner, s, v):
    """The space is compared with the cap by bounded products, before the
    modulus is tested for primality."""
    started = time.monotonic()
    result = runner.invoke(cli, ["search", "--s", str(s), "--v", str(v), "--ti", "1", "--to", "1"])
    assert time.monotonic() - started < 2
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "exceed the cap of 19683" in result.stderr


def test_cli_search_with_tables_past_their_bound_exits_3_at_once(runner):
    """A prime modulus and a raised cap pass every other check; the walk's
    table of v^s row vectors is refused before it is built."""
    v = 1000000000000000003
    started = time.monotonic()
    args = ["search", "--s", "1", "--v", str(v), "--ti", "1", "--to", "1", "--cap", str(10**19)]
    result = runner.invoke(cli, args)
    assert time.monotonic() - started < 2
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "row vectors exceed the walk's fixed bound of 65536" in result.stderr


@pytest.mark.parametrize(
    "v, error",
    [
        (1000000007 * 1000000009, "modulus 1000000016000000063 is not prime"),
        (2**64 + 13, f"modulus {2**64 + 13} does not fit in 64 bits"),
    ],
)
def test_cli_search_large_modulus_rejected_at_once(runner, v, error):
    """With the cap raised to v, the modulus itself is rejected at once."""
    started = time.monotonic()
    result = runner.invoke(cli, ["search", "--s", "1", "--v", str(v), "--ti", "1", "--to", "1", "--cap", str(v)])
    assert time.monotonic() - started < 2
    assert result.exit_code == 3
    assert result.stdout == ""
    assert error in result.stderr


# sha256 of `aontlab search --format text` stdout, recorded before the search
# pruned by prefix; the benchmark's search workload runs these configurations
SEARCH_STDOUT_SHA256 = {
    (2, 2, 1, 1): "c9116105ab42340f514c35f0fbe1fa481dd870b88c8d97b80c1846e4ea01bbb2",
    (2, 3, 1, 1): "44f0cf7491a4424e4462aa79ec56b452b3b0e7ed4a7d5dbf0effea53789498fe",
    (2, 3, 1, 2): "b016a6ed9bd6c434c4a70ef78d702a9bf0c0100805a0d315b5a57d0353273004",
    (2, 3, 2, 2): "b016a6ed9bd6c434c4a70ef78d702a9bf0c0100805a0d315b5a57d0353273004",
    (2, 5, 1, 1): "51ff9cce06f91f51da05db0ee73994c9cd35de005c6ef8a97fe4007aeb31d66c",
    (2, 5, 1, 2): "7f1fb117f02197b4abb06f9f2bbb991d6af7d4202a200948b040f3e591fa8f1f",
    (2, 5, 2, 2): "7f1fb117f02197b4abb06f9f2bbb991d6af7d4202a200948b040f3e591fa8f1f",
    (2, 7, 1, 1): "90e6422bdec8beedcfa71be9cae6bcf77417f9b24dab0e2a9a54b1d3f0d4a832",
    (3, 2, 1, 1): "36fe394d46b5fe464bdd4ab7d6151ce3a8a695c365d861928b43636ffccab0d4",
    (3, 2, 1, 2): "18036a11f220a20483ea637b46a6e2c050475cdf510e798be6f288358277c3ef",
    (3, 2, 1, 3): "ee9a0774a59741efd34c608123da3c65988708f23506912e24626406c7668da0",
    (3, 2, 2, 2): "36fe394d46b5fe464bdd4ab7d6151ce3a8a695c365d861928b43636ffccab0d4",
    (3, 2, 2, 3): "ee9a0774a59741efd34c608123da3c65988708f23506912e24626406c7668da0",
    (3, 3, 1, 1): "7d2d77638ea8f27c69e214e3f55a403cff7daf93e90c5519b29162f7002cf30b",
    (3, 3, 1, 2): "e62920c4acde5d661b72b1f364cf383067fd86f9e954168c76aeeacc2481e1f9",
}


@pytest.mark.parametrize("s, v, t_i, t_o", sorted(SEARCH_STDOUT_SHA256))
def test_cli_search_text_stdout_is_golden(runner, s, v, t_i, t_o):
    result = runner.invoke(cli, ["search", "--s", str(s), "--v", str(v), "--ti", str(t_i), "--to", str(t_o)])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == SEARCH_STDOUT_SHA256[(s, v, t_i, t_o)]


# sha256 of `aontlab search --format json` stdout up to its trailing
# `, "elapsed_seconds": …}`, recorded before the walk listed matrices without
# re-validating them
SEARCH_JSON_STDOUT_SHA256 = {
    (2, 2, 1, 1): "731841d46c6ec9b88b9ac28f60d2508c39b155eac0a08bc4366d711824bfd2ea",
    (2, 3, 1, 1): "59a65509a3e597a44d9332a9f93b43e14fe6a6ec62190ff9b5ea0840a4886e8a",
    (2, 3, 1, 2): "597442580c62c1d8fc1cbda535894bffbbb10dd4ddfe4853022a214d1a234217",
    (2, 3, 2, 2): "ef23d889b1cb6fefb1cb15120409d1c6a08a3d6706de65cf322b046802492306",
    (2, 5, 1, 1): "f398c67a4046183e52e09f6ef40aad36da40583f69fed1d83f8d258c4ab31969",
    (2, 5, 1, 2): "53d4ba8c37977930dca8bdadb87dbb4ce08eb9871ed7c714a60ce5c55f477a1e",
    (2, 5, 2, 2): "1d2e417b5abbce183fa92a3f45d76ac078784318cc88f753cacdee9eda72bb36",
    (2, 7, 1, 1): "cff4bcff0de32ff97c4914fa50715c1c3c7c4daebcca59330e88d6877c30363c",
    (3, 2, 1, 1): "915a38fc97ee1edb44bce58e258a5d342896d4e6161e5cc12f250be80f665294",
    (3, 2, 1, 2): "8c409b1f48845f1438ba01877facd587502b642955971a2f2d9fe8eebfdef08b",
    (3, 2, 1, 3): "7c2b1753b7b57614ee35ac1aa2ba86fa615f3f8916d9c991f4481b026f100baf",
    (3, 2, 2, 2): "b95ee3eaf5f222f748fb6ee9d81a6ca151472b8e804e817de364c105ec8e1765",
    (3, 2, 2, 3): "a9daccff2d7fa3de199589b8ad3f58a797c273ab3c5e760ab08bc0f5ab9c1420",
    (3, 3, 1, 1): "7fc3d1d6077ffafaf6a9ad34cd962b7b1040237f824d0c0256175afd55eab79c",
    (3, 3, 1, 2): "5ecd699a3e12ef211db0dea7c02d167d613ca3a3d22a8fb0e064b36b130b3fca",
}


@pytest.mark.parametrize("s, v, t_i, t_o", sorted(SEARCH_JSON_STDOUT_SHA256))
def test_cli_search_json_stdout_is_golden(runner, s, v, t_i, t_o):
    argv = ["search", "--s", str(s), "--v", str(v), "--ti", str(t_i), "--to", str(t_o), "--format", "json"]
    result = runner.invoke(cli, argv)
    assert result.exit_code == 0
    head, sep, tail = result.stdout.rpartition(', "elapsed_seconds": ')
    assert sep and re.fullmatch(r"[0-9.e+-]+\}\n", tail)
    assert hashlib.sha256(head.encode()).hexdigest() == SEARCH_JSON_STDOUT_SHA256[(s, v, t_i, t_o)]


@pytest.mark.parametrize(
    "s, v, t_i, t_o, cap",
    [
        (2, 11, 1, 1, DEFAULT_SEARCH_CAP),  # two-digit entries
        (1, 19681, 1, 1, DEFAULT_SEARCH_CAP),  # s = 1 at a prime near the cap
        (4, 2, 1, 1, 2**16),  # 0 found
        (4, 2, 1, 2, 2**16),  # 4 x 4 matrices
    ],
)
def test_cli_search_text_rows_are_json_of_each_matrix(runner, s, v, t_i, t_o, cap):
    """Outside the golden configurations, text rows render each distinct row
    once and must still print exactly `json.dumps(m.to_json())`."""
    argv = ["search", "--s", str(s), "--v", str(v), "--ti", str(t_i), "--to", str(t_o), "--cap", str(cap)]
    result = runner.invoke(cli, argv)
    assert result.exit_code == 0
    expected = search_linear(s, v, t_i, t_o, cap=cap)
    lines = result.stdout.split("\n")
    assert lines[0] == f"{expected.examined} examined, {len(expected.found)} found"
    assert lines[1:] == [json.dumps(m.to_json()) for m in expected.found] + [""]


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "shape, per_write",
    [((2, 3, 1, 2), n) for n in (1, 7, 8, 47, 48, 49)] + [((2, 2, 1, 1), 1), ((2, 2, 1, 1), 8)],
)
def test_cli_search_writes_its_output_in_chunks(monkeypatch, shape, per_write, fmt):
    """`search` writes `per_write` found matrices at a time, on either side of
    a chunk boundary, and with 0 found: the text lines are still
    json.dumps(m.to_json()) for each found matrix, and the JSON form is still
    json.dumps(result.to_json_dict()), up to the elapsed time."""
    monkeypatch.setattr(cli_module, "_MATRICES_PER_WRITE", per_write)
    argv = ["search", *(f"--{name}={n}" for name, n in zip(("s", "v", "ti", "to"), shape)), f"--format={fmt}"]
    out = _CountedWrites()
    with redirect_stdout(out), redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exit_:
        cli(argv)
    assert exit_.value.code == 0
    result = search_linear(*shape)
    found = len(result.row_codes)
    if fmt == "json":
        document = json.dumps(dataclasses.replace(result, elapsed_seconds=0.5).to_json_dict())
        assert re.sub(r'"elapsed_seconds": [0-9.e+-]+}', '"elapsed_seconds": 0.5}', out.getvalue()) == document + "\n"
    else:
        lines = [f"{result.examined} examined, {found} found"] + [json.dumps(m.to_json()) for m in result.found]
        assert out.getvalue() == "".join(line + "\n" for line in lines)
    assert out.writes == max(1, -(-found // per_write))


def _write_report_inputs(directory: Path) -> None:
    """Model and array files for ANALYZE_CASES, under relative names so the
    labels the reports print do not depend on the directory."""
    block_joint = Distribution(3, 1, (Fraction(1, 4), Fraction(1, 8), Fraction(5, 8)))
    save_model_json(example1_model(), str(directory / "ex1.json"))
    save_model_json(example3_model(), str(directory / "ex3.json"))
    save_model_json(example4_model(), str(directory / "ex4.json"))
    save_model_json(make_block_dependent_model(2, 3, (1,), block_joint), str(directory / "block.json"))
    save_model_json(uniform_model(2, 3), str(directory / "uniform.json"))
    (directory / "identity.csv").write_text(dump_array_csv(linear_aont(identity_matrix(2, 3))))
    # benchmark sizes: an s=4, v=7 array that is a transform at t=1 (7 X codes
    # by 343 Y codes per pair), and a Cauchy s=3, v=11 one (121 X codes by 11)
    save_array_csv(linear_aont(matrix_from_rows(7, LINEAR_4_7_T1)), str(directory / "linear47.csv"))
    cauchy = [[pow(x - y, -1, 11) for y in range(3, 6)] for x in range(3)]
    save_array_csv(linear_aont(matrix_from_rows(11, cauchy)), str(directory / "cauchy311.csv"))
    save_model_json(random_independent_model(random.Random(47), 4, 7), str(directory / "ind47.json"))
    save_model_json(random_independent_model(random.Random(311), 3, 11), str(directory / "ind311.json"))
    rng = random.Random(7)
    big = make_independent_model([masses_over(rng, 7, p) for p in BIG_PRIMES])
    save_model_json(big, str(directory / "big47.json"))


# rows of M over Z_7: every 3x3 minor is non-zero, so [I | M] is a transform at t=1
LINEAR_4_7_T1 = [[6, 2, 1, 1], [2, 2, 5, 6], [5, 6, 6, 2], [0, 6, 4, 2]]
# pairwise-coprime denominators whose product, the common denominator, exceeds 2^80
BIG_PRIMES = (100003, 1000003, 5000011, 9999991)

# `analyze` cases that between them emit every kind of report cell, then
# three at benchmark sizes: SD summed per x-row (linear-4-7), per y-column
# (cauchy-3-11), and under a common denominator past 2^80 (big-primes-pair)
ANALYZE_CASES = {
    "symmetric": ["--builtin", "table1", "--model", "ex1.json", "--ti", "1", "--to", "1"],
    "asymmetric": ["--builtin", "table2", "--model", "ex3.json", "--ti", "1", "--to", "2"],
    "block-exact": ["--builtin", "table1", "--model", "block.json", "--ti", "1", "--to", "1"],
    "weak": ["--builtin", "table3", "--model", "ex4.json", "--ti", "1", "--to", "2"],
    "neither": ["--array", "identity.csv", "--model", "uniform.json", "--ti", "1", "--to", "1"],
    "linear-4-7": ["--array", "linear47.csv", "--model", "ind47.json", "--ti", "1", "--to", "1"],
    "cauchy-3-11": ["--array", "cauchy311.csv", "--model", "ind311.json", "--ti", "2", "--to", "2"],
    "big-primes-pair": ["--array", "linear47.csv", "--model", "big47.json", "--ti", "1", "--to", "1",
                        "--pair", "2:5,7,8"],
}

# sha256 of `aontlab analyze` stdout per (case, format), and of `aontlab demo N
# --format json` stdout, recorded before the report rows were derived from
# ReportRow's fields; those of the benchmark-size cases were recorded before
# the statistical distance was summed along the longer axis of the joint
ANALYZE_STDOUT_SHA256 = {
    ("asymmetric", "csv"): "cced6f81557921f8c6c0f3f9659d2caacda63c72a774f071ee0a6c265413bf1d",
    ("asymmetric", "json"): "194118da827d1698bc0e39561119bb44c3cfd0a646d7bca6d410ca6952fe685e",
    ("asymmetric", "table"): "6558b55332e305015c01b614f540b7ae3a5c3c85805228ea8b35433bb6dcc096",
    ("big-primes-pair", "csv"): "5c5cb0dbc5b916465e556eb79f07739bea910f2aeab1f402bd11cc4101262990",
    ("big-primes-pair", "json"): "bccc6cdd872899bda9229f00ff45e3ac3859ad8209bd7ce4f7bcc4ad10c1d87f",
    ("big-primes-pair", "table"): "ea94c2c46be3b711081c6dab20856fd1467487a460fb61ca05a21fdeb4bd59c6",
    ("block-exact", "csv"): "96ca75d8c205d283ffac5a662494b46d1916f4b0b7c8a638cc6c7a79fee79583",
    ("block-exact", "json"): "71ebde7f075ae5f60ae16199a87d9b722f558fff65a85955dd48c23c0e1f5d13",
    ("block-exact", "table"): "a73ffccb595397fb8129817fd63ac03f1152b34880ecf57bda952891a5d8de09",
    ("cauchy-3-11", "csv"): "ebecb39572540aef20a64ddb86de726c73433e5e30fa35c9dbd7c193ce139511",
    ("cauchy-3-11", "json"): "9cb5e3d93e2db294c3e51d0513c83be8d0742735473f4034938cf3bab1ab1f96",
    ("cauchy-3-11", "table"): "be0477fef2b4defe65f1b1b5c9b235cc569cab9efbd2e1abcd8a39f8e9cddfa4",
    ("linear-4-7", "csv"): "8ee3d15411c05aabb4bac7d99834e287fa946dae577f225a4af27f94fd07a252",
    ("linear-4-7", "json"): "96a2ba5ff95913775fe757a6842c3ca93d830bc5ca53cde749890cdb39fc995a",
    ("linear-4-7", "table"): "ec276c3179e8ab82eab066a936111ab5d0460fdbd05a8fc6485c0b11890ca273",
    ("neither", "csv"): "42ab5f01f962e27ffe5d14eabac67f371593da7e9fe407057aed9f73095a7eda",
    ("neither", "json"): "7ce29779fc8daac484d38b469daa0306a0910f444415a86f598e8ba6c2f84946",
    ("neither", "table"): "6f3848a83d4b4177c03d5ab7250808197265703a7eb9c0a98e472ebc3192383c",
    ("symmetric", "csv"): "ce00c40f6cc63b7d0d72cb2a1b09efd9793472ca0e0ccdcf0c93c1c9ad737514",
    ("symmetric", "json"): "0a9e9ed0a4f9e1e3f26dc97922b938ee596bb7d309e7a06049a0888a4b120cb8",
    ("symmetric", "table"): "044f76fbabb110f63e49ff300f406807b16948067b353dc57850124798ebd363",
    ("weak", "csv"): "73c84e19c8829507a09f58378b61829e7087155f17eab99a06962e2165cc9d2b",
    ("weak", "json"): "f8fe132486c7538e806966ee398f910deb55793ae66520932d71c7d4daae9fd1",
    ("weak", "table"): "a1930bd71038ef9e0955ce57692d64b4bdc775b47787d81caec69305d245181b",
}
DEMO_JSON_STDOUT_SHA256 = {
    1: "a60a6cc6aee3d1f2d8fc38e41eec2734e9ba9ba177b5b01d6d70a76a5da0f75a",
    2: "396a8aceeed09eda6eb8d2d242f9d61f7faf452bdaf8129812e2a51c14a6b374",
    3: "4494b589f1a0803324c7b034bdd6ed4043564806b3fe182bf8b5927e69b3dafa",
    4: "eadde98f0e01c22f92c225a517b008c98902d06b699e17b94927f1583aaaa36e",
}


@pytest.mark.parametrize("case, fmt", sorted(ANALYZE_STDOUT_SHA256))
def test_cli_analyze_stdout_is_golden(runner, tmp_path, monkeypatch, case, fmt):
    _write_report_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(cli, ["analyze", *ANALYZE_CASES[case], "--format", fmt])
    assert result.exit_code == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == ANALYZE_STDOUT_SHA256[(case, fmt)]


@pytest.mark.parametrize("number", sorted(DEMO_JSON_STDOUT_SHA256))
def test_cli_demo_json_stdout_is_golden(runner, number):
    result = runner.invoke(cli, ["demo", str(number), "--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DEMO_JSON_STDOUT_SHA256[number]


def test_cli_main_releases_redirected_stdout(ex1_model_file):
    import gc
    import io
    import weakref
    from contextlib import redirect_stdout

    from aontlab.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit):
        main(["analyze", "--builtin", "table1", "--model", ex1_model_file, "--ti", "1", "--to", "1"])
    assert "1.196889" in buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("mass", [[1, 0], "1/0"])
def test_cli_analyze_zero_denominator_mass(tmp_path, mass):
    import io
    from contextlib import redirect_stderr

    from aontlab.cli import main

    path = tmp_path / "zero.json"
    doc = {"s": 2, "v": 3, "kind": "independent", "columns": [[[1, 3], [1, 3], mass], [[1, 3]] * 3]}
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["analyze", "--builtin", "table1", "--model", str(path), "--ti", "1", "--to", "1"])
    assert exc.value.code == 3
    assert "zero denominator" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_cli_rejects_negative_tolerance(runner, ex1_model_file):
    for tolerance in ["-1", "nan", "inf"]:
        analyze = runner.invoke(
            cli,
            ["analyze", "--builtin", "table1", "--model", ex1_model_file, "--ti", "1", "--to", "1",
             "--tolerance", tolerance],
        )
        assert analyze.exit_code == 4 and "--tolerance" in analyze.stderr
        demo = runner.invoke(cli, ["demo", "1", "--tolerance", tolerance])
        assert demo.exit_code == 4 and "--tolerance" in demo.stderr


@pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")])
def test_build_report_rejects_nan_or_negative_tolerance(table1, tolerance):
    """Either would mark every row outside its interval instead of failing:
    every comparison with nan is false."""
    with pytest.raises(InvalidParametersError, match="tolerance must be a number >= 0"):
        build_report(table1, example1_model(), 1, 1, tolerance=tolerance)


def test_cli_reports_memory_error_as_bad_data(runner, monkeypatch):
    """Running out of memory exits 3 with `error:`, not 1 with a traceback,
    which would read as weak-aont-only."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("aontlab.cli.search_linear", exhausted)
    result = runner.invoke(cli, ["search", "--s", "2", "--v", "3", "--ti", "1", "--to", "1"])
    assert result.exit_code == 3
    assert result.stderr.startswith("error:") and "Traceback" not in result.stderr


@pytest.mark.parametrize("spec", ["1,2:3", "1:", "1:3,4", ":3"])
def test_cli_analyze_rejects_pair_of_wrong_size(runner, ex1_model_file, spec):
    result = runner.invoke(
        cli,
        ["analyze", "--builtin", "table1", "--model", ex1_model_file, "--ti", "1", "--to", "1",
         "--pair", spec],
    )
    assert result.exit_code == 4
    assert "|X| = t_i = 1 and |Y| = s - t_o = 1" in result.stderr


def test_cli_analyze_rejects_empty_x_whatever_t_i(runner, ex1_model_file):
    args = ["analyze", "--builtin", "table1", "--model", ex1_model_file, "--ti", "0", "--to", "1"]
    result = runner.invoke(cli, args + ["--pair", ":3"])
    assert result.exit_code == 4
    assert "--pair ':3' has |X|=0" in result.stderr


def _write_model(tmp_path, doc) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_analyze_auto_bounds_skip_block_larger_than_t(runner, tmp_path):
    joint = [[[0, 0], [1, 2]], [[1, 1], [1, 2]]]
    model = _write_model(
        tmp_path, {"s": 2, "v": 3, "kind": "block-dependent", "block": {"indices": [1, 2], "joint": joint}}
    )
    args = ["analyze", "--builtin", "table1", "--model", model, "--ti", "1", "--to", "1"]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0
    assert "bounds: none applicable" in result.output
    explicit = runner.invoke(cli, args + ["--bounds", "block-exact"])
    assert explicit.exit_code == 3
    assert "block of size 2 exceeds t=1" in explicit.stderr


@pytest.mark.parametrize(
    "s, v, indices, error",
    [
        (2, 3, [1] * 40, "must be sorted, duplicate-free and within 1..2"),
        (2, 3, [2, 1], "must be sorted, duplicate-free and within 1..2"),
        (21, 3, list(range(1, 22)), "block joint over 3^21 tuples exceeds 2^24 entries"),
    ],
)
def test_cli_analyze_block_checked_before_its_joint_is_allocated(runner, tmp_path, s, v, indices, error):
    model = _write_model(
        tmp_path, {"s": s, "v": v, "kind": "block-dependent", "block": {"indices": indices, "joint": []}}
    )
    started = time.monotonic()
    result = runner.invoke(cli, ["analyze", "--builtin", "table1", "--model", model, "--ti", "1", "--to", "1"])
    assert time.monotonic() - started < 2
    assert result.exit_code == 3
    assert error in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "masses",
    [
        [None, [1, 2], [1, 2]],
        [[None, 2], [1, 2], [0, 1]],
        ["x", [1, 2], [1, 2]],
        [True, False, False],
        [[True, 2], [1, 2], [0, 1]],
        [[1.5, 2], [1, 2], [0, 1]],
    ],
)
def test_cli_analyze_non_rational_mass(runner, tmp_path, masses):
    model = _write_model(tmp_path, {"s": 2, "v": 3, "kind": "independent", "columns": [masses, [[1, 3]] * 3]})
    result = runner.invoke(cli, ["analyze", "--builtin", "table1", "--model", model, "--ti", "1", "--to", "1"])
    assert result.exit_code == 3
    assert "is not a rational" in result.stderr


def test_cli_analyze_model_with_an_integer_given_as_a_string(runner, tmp_path):
    """int() once read "s": "2" as 2."""
    model = _write_model(tmp_path, {"s": "2", "v": 3, "kind": "independent", "columns": [[[1, 3]] * 3] * 2})
    result = runner.invoke(cli, ["analyze", "--builtin", "table1", "--model", model, "--ti", "1", "--to", "1"])
    assert result.exit_code == 3
    assert "'2' is not an integer" in result.stderr


def test_cli_rejects_non_utf8_array(runner, tmp_path, ex1_model_file):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe,0")
    verify = runner.invoke(cli, ["verify", "--array", str(path), "--ti", "1", "--to", "1"])
    analyze = runner.invoke(
        cli, ["analyze", "--array", str(path), "--model", ex1_model_file, "--ti", "1", "--to", "1"]
    )
    for result in (verify, analyze):
        assert result.exit_code == 3
        assert "not UTF-8" in result.stderr


@pytest.mark.parametrize(
    "text,glyphs",
    [("# v=2 s=1\n#1,#1\n#1,#1\n", ("#1", "#2")), ("# v=3 s=1\na,#2\n#2,a\na,a\n", ("a", "#2", "#3"))],
)
def test_cli_verify_pads_glyphs_past_fillers_already_used(runner, tmp_path, text, glyphs):
    """Padding takes the next unused `#k`; it used to retry a used one forever."""
    path = tmp_path / "glyphs.csv"
    path.write_text(text)
    assert parse_array_csv(text).alphabet.glyphs == glyphs
    result = runner.invoke(cli, ["verify", "--array", str(path), "--ti", "1", "--to", "1"])
    assert result.exit_code == 2, result.output


def test_cli_analyze_help_lists_every_bound_tag(runner):
    result = runner.invoke(cli, ["analyze", "--help"])
    assert result.exit_code == 0
    # help text may wrap anywhere, inside a tag at its hyphen too
    help_text = "".join(result.output.split())
    assert "".join(f"auto' ({', '.join(ALL_TAGS)})".split()) in help_text


@pytest.mark.parametrize(
    "args, error",
    [
        ([], "COMMAND"),
        (["nope"], "'nope'"),
        (["verify", "--bogus", "--builtin", "table1", "--ti", "1", "--to", "1"], "--bogus"),
        (["demo", "1", "--tol", "1"], "--tol"),
        (["verify", "--builtin", "table1", "--to", "1"], "--ti"),
        (["verify", "--builtin", "table1", "--ti", "x", "--to", "1"], "'x'"),
        (["verify", "--builtin", "nope", "--ti", "1", "--to", "1"], "'nope'"),
        (["verify", "--builtin", "table1", "--ti", "1", "--to", "1", "--format", "xml"], "'xml'"),
        (["verify", "--builtin", "table1", "--ti", "1", "--to", "1", "extra"], "extra"),
        (["verify", "--builtin", "table1", "--array", "a.csv", "--ti", "1", "--to", "1"], "exactly one of"),
        (["verify", "--ti", "1", "--to", "1"], "exactly one of"),
        (["demo", "1", "--tolerance", "nan"], "--tolerance"),
        (["demo", "1", "--tolerance", "-1"], "--tolerance"),
        (["demo", "1", "--tolerance", "inf"], "--tolerance"),
        (["demo", "1", "--tolerance", "abc"], "--tolerance"),
        (["analyze", "--builtin", "table1", "--model", "MODEL", "--ti", "1", "--to", "1", "--pair", "1;3"],
         "bad --pair spec '1;3'"),
        (["analyze", "--builtin", "table1", "--model", "MODEL", "--ti", "1", "--to", "1", "--pair", "1,2:3"],
         "--pair '1,2:3' has |X|=2"),
        (["demo", "5"], "demo must be one of"),
        (["analyze", "--builtin", "table1", "--model", "MODEL", "--ti", "1", "--to", "1", "--bounds", "nope"],
         "unknown bound tag 'nope'; know ('symmetric', "),
        (["analyze", "--builtin", "table1", "--model", "MODEL", "--ti", "1", "--to", "1", "--pair", "1:1"],
         "outside outputs 3..4"),
        (["analyze", "--builtin", "table1", "--model", "MODEL", "--ti", "1", "--to", "1", "--pair", "5:3"],
         "outside inputs 1..2"),
        (["analyze", "--builtin", "table1", "--model", "MODEL", "--ti", "1", "--to", "1", "--pair", "0:3"],
         "outside inputs 1..2"),
        # integers are ASCII decimal digits, not whatever int() reads
        (["verify", "--builtin", "table1", "--ti", "١", "--to", "1"], "'١'"),
        (["search", "--s", "0_2", "--v", "٣", "--ti", "1", "--to", "1"], "'0_2'"),
        (["demo", "٢"], "'٢'"),
        (["analyze", "--builtin", "table1", "--model", "MODEL", "--ti", "1", "--to", "1", "--pair", "١:٣"],
         "bad --pair spec '١:٣'"),
    ],
)
def test_cli_usage_errors_exit_4(runner, ex1_model_file, args, error):
    """Exit 4, never argparse's 2, which is the "neither" verdict; nothing on stdout."""
    result = runner.invoke(cli, [ex1_model_file if arg == "MODEL" else arg for arg in args])
    assert result.exit_code == 4
    assert error in result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [[], ["verify"], ["analyze"], ["demo"], ["search"]])
def test_cli_help_exits_0(runner, command):
    result = runner.invoke(cli, [*command, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(" ".join(["usage: aontlab", *command]))


def test_cli_version(runner):
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert result.stdout == f"aontlab, version {__version__}\n"


def test_cli_module_runs_from_a_checkout_without_click():
    """No installed metadata is needed, click is not loaded, and the parser is
    built on first use, not at import."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    imported = subprocess.run(
        [sys.executable, "-c", "import sys, aontlab.cli as cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'), cli._parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert imported.stdout == "[] 0\n"
    version = subprocess.run([sys.executable, "-m", "aontlab.cli", "--version"], env=env, capture_output=True, text=True)
    assert (version.returncode, version.stdout, version.stderr) == (0, f"aontlab, version {__version__}\n", "")


class _ClosedPipe(io.StringIO):
    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class _Recorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text: str) -> int:
        self.calls.append(("write", text))
        return len(text)

    def flush(self) -> None:
        self.calls.append(("flush",))


def test_cli_writes_each_message_with_its_newline_then_flushes():
    """A newline written apart can meet a reader that has gone, as under `| head -1`."""
    out = _Recorder()
    with redirect_stdout(out), pytest.raises(SystemExit):
        cli(["verify", "--builtin", "table1", "--ti", "1", "--to", "1"])
    assert out.calls == [("write", "table1: aont (t_i=1, t_o=1)\n"), ("flush",)]


def test_cli_stdout_closed_by_its_reader_exits_1_quietly():
    err = io.StringIO()
    with redirect_stdout(_ClosedPipe()), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli(["verify", "--builtin", "table1", "--ti", "1", "--to", "1"])
    assert exc.value.code == 1
    assert err.getvalue() == ""


@pytest.mark.parametrize(
    "closed, args",
    [
        ("stdout", ["verify", "--builtin", "table1", "--ti", "1", "--to", "1"]),
        ("stderr", ["search", "--s", "2", "--v", "3", "--ti", "1", "--to", "1"]),  # progress goes to stderr
    ],
)
def test_cli_process_with_a_closed_pipe_exits_1_quietly(closed, args):
    """With buffered streams, as from a shell, the interpreter flushes them again on exit; that
    flush must not fail either (it printed 'Exception ignored' and exited 120)."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        done = subprocess.run([sys.executable, "-m", "aontlab.cli", *args], env=env, **streams)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert (done.stdout or b"") + (done.stderr or b"") == b""


def test_cli_interrupt_prints_aborted_and_exits_1(runner, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("aontlab.cli.search_linear", interrupted)
    try:
        result = runner.invoke(cli, ["search", "--s", "2", "--v", "3", "--ti", "1", "--to", "1"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    assert result.exit_code == 1
    assert result.stderr == "\nAborted!\n"
    assert result.stdout == ""


def test_cli_analyze_prior_mass_below_the_smallest_double(runner, tmp_path):
    """A mass of 10^-400 is 0.0 as a float; it used to end in a math domain error."""
    big = 10**400
    model = _write_model(
        tmp_path, {"s": 2, "v": 3, "kind": "independent", "columns": [[[1, big], [big - 1, big], [0, 1]], [[1, 3]] * 3]}
    )
    result = runner.invoke(cli, ["analyze", "--builtin", "table1", "--model", model, "--ti", "1", "--to", "1"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert "verdict: aont" in result.stdout


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 2) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_symbol = st.integers(-1, 3) | _json
_mass = st.tuples(st.integers(-1, 3), st.integers(-1, 4)) | _json
# model-shaped documents with small fields reach the loader's inner checks
_model_doc = st.fixed_dictionaries(
    {
        "s": st.integers(-1, 4),
        "v": st.integers(-1, 4),
        "kind": st.sampled_from(["independent", "block-dependent"]),
    },
    optional={
        "columns": st.lists(st.lists(_mass, max_size=4), max_size=4) | _json,
        "block": _json
        | st.fixed_dictionaries(
            {
                "indices": st.lists(_symbol, max_size=3) | _json,
                "joint": st.lists(st.tuples(st.lists(_symbol, max_size=3), _mass), max_size=6) | _json,
            }
        ),
    },
)
_csv_text = st.lists(
    st.lists(st.sampled_from(["0", "1", "2", "a", "b", "-1", "x", " ", "#", "#0", "#1", "#2"]), min_size=1, max_size=6),
    max_size=12,
).map(lambda rows: "\n".join(",".join(row) for row in rows))
_array_bytes = st.one_of(
    st.binary(max_size=200),
    st.tuples(st.sampled_from(["", "# v=3 s=2\n", "# v=x\n", "# v=2 s=3\n", "# s=1 v=1\n"]), _csv_text).map(
        lambda p: (p[0] + p[1]).encode()
    ),
    st.sampled_from(["table1", "table2", "table3"]).map(lambda name: dump_array_csv(builtin(name)).encode()),
)


@settings(max_examples=150, deadline=None)
@given(
    array=_array_bytes,
    model=st.one_of(_json, _model_doc, _model_doc),
    command=st.sampled_from(
        [("verify", "text"), ("verify", "json"), ("analyze", "table"), ("analyze", "json"), ("analyze", "csv")]
    ),
    t_i=st.integers(0, 4),
    t_o=st.integers(0, 4),
    bounds=st.sampled_from(["auto", *ALL_TAGS]),
)
def test_cli_exit_code_contract_on_arbitrary_files(tmp_path_factory, array, model, command, t_i, t_o, bounds):
    """0/1/2 are verdicts, 3 bad data, 4 bad usage; nothing escapes as a traceback."""
    workdir = tmp_path_factory.getbasetemp()
    array_path, model_path = workdir / "fuzz.csv", workdir / "fuzz.json"
    array_path.write_bytes(array)
    model_path.write_text(json.dumps(model))
    name, fmt = command
    args = [name, "--array", str(array_path), "--ti", str(t_i), "--to", str(t_o), "--format", fmt]
    if name == "analyze":
        args += ["--model", str(model_path), "--bounds", bounds]
    result = CliRunner().invoke(cli, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in {0, 1, 2, 3, 4}
    if not result.stdout:
        assert result.exit_code in {3, 4}
    assert "Traceback" not in result.stderr


def test_build_report_checks_the_model_shape_before_classifying(table1, monkeypatch):
    calls = []
    monkeypatch.setattr(report_module, "classify", lambda *args: calls.append(args) or classify(*args))
    with pytest.raises(ArityMismatchError, match=r"model shape \(s=3, v=2\) does not match array \(s=2, v=3\)"):
        build_report(table1, example4_model(), 1, 1)
    assert calls == []


def test_cli_analyze_rejects_pair_spec_that_is_not_numbers(runner, ex1_model_file):
    result = runner.invoke(
        cli,
        ["analyze", "--builtin", "table1", "--model", ex1_model_file, "--ti", "1", "--to", "1",
         "--pair", "x:3"],
    )
    assert result.exit_code == 4
    assert "bad --pair spec 'x:3'" in result.stderr


def test_cli_demo_rejects_unknown_number(runner):
    result = runner.invoke(cli, ["demo", "7"])
    assert result.exit_code == 4
    assert "demo must be one of (1, 2, 3, 4)" in result.stderr
    with pytest.raises(UnknownNameError, match=r"demo 7 does not exist; know \(1, 2, 3, 4\)"):
        run_demo(7)
