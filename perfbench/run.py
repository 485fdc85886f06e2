#!/usr/bin/env python3
"""aontlab benchmark: one closed-loop client running aontlab CLI commands in-process.

    python3 perfbench/run.py --workload analyze-report --seed 1 --seconds 30 --trace 0

Each job is one `aontlab` command line, run through the public click entry
point `aontlab.cli.main` in this process, so interpreter start-up is not
timed. The memoized classifier is cleared before every job, as a fresh
`aontlab` process would start with it empty. A pass runs the workload's
seeded job list once, checking every answer; passes repeat until the next
one would overrun --seconds. Whole-list times are medians over passes, and
job percentiles pool the latencies of every pass.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, with the tracing overhead.
The last line of stdout is the result; the line before it is the run record.
Work files go to .perfbench_work/ and outputs to .perfbench_out/ under the
checkout root.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 2
TAIL_BEYOND = 10  # in a run of MIN_PASSES passes, this many latencies lie above job_tail_s
BENCH_MODULES = ("inputs", "workloads", "tracing")
WORKLOADS = ("analyze-report", "analyze-pair", "verify", "search")

# (metric, unit, better) for every end-to-end metric an untraced run reports
E2E_METRICS = (
    ("wall_ref_s", "ref_s", "lower"),
    ("job_p50_ref_s", "ref_s", "lower"),
    ("job_tail_ref_s", "ref_s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
# the same times in plain seconds; too noisy on a shared box to be gated,
# they go to the run record
RAW_METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"))


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked: the package is missing or its inputs are wrong."""


def import_fresh():
    """Import aontlab and the benchmark modules from scratch; return `workloads`."""
    for name in list(sys.modules):
        if name == "aontlab" or name.startswith("aontlab.") or name in BENCH_MODULES:
            del sys.modules[name]
    try:
        importlib.import_module("aontlab.cli")
        importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
    except ImportError as exc:
        raise SetupError(f"cannot import aontlab from {SRC}: {exc}") from None
    origin = Path(sys.modules["aontlab"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"aontlab was imported from {origin}, not from {SRC}")
    return workloads


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs, SETUP_REPEATS times.

    Returns the median set-up time and the modules and jobs of the last repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        workloads = import_fresh()
        workdir.mkdir(parents=True)
        jobs = workloads.build(workload, seed, str(workdir))
        times.append(perf_counter() - start)
    return statistics.median(times), workloads, jobs


_ROWS = [tuple((i * 7 + j * 3 + i * j) % 11 for j in range(8)) for i in range(600)]
_LINES = [",".join(map(str, row)) for row in _ROWS[:100]]


def _rational_slice() -> None:
    acc = Fraction(0)
    for i in range(1, 260):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, 13)


def _integer_slice() -> None:
    counts = [0] * 11**3
    for cols in ((0, 4, 6), (1, 5, 7)):
        for row in _ROWS:
            code = 0
            for i in cols:
                code = code * 11 + row[i]
            counts[code] += 1
    for line in _LINES:
        tuple(int(tok) for tok in line.split(","))
    matrix = [row[:4] for row in _ROWS[:4]]
    for x in _ROWS[:200]:
        tuple(sum(a * b for a, b in zip(x[:4], col)) % 11 for col in zip(*matrix))


# A fixed slice of pure-Python work per workload, like the operations that
# dominate it, and the slice's median time on a 2-vCPU Xeon box under Python
# 3.11. Timed after every job, once per CALIBRATE_EVERY_S of the job's time,
# it samples the speed the shared CPU gave this process over the pass; the
# *_ref metrics factor that speed out.
CALIBRATION = {
    "analyze-report": (_rational_slice, 0.0018),
    "analyze-pair": (_rational_slice, 0.0018),
    "verify": (_integer_slice, 0.0019),
    "search": (_integer_slice, 0.0019),
}


CALIBRATE_EVERY_S = 0.2


def calibrate(work) -> float:
    start = perf_counter()
    work()
    return perf_counter() - start


def run_job(job, cli, tracer) -> tuple[float, float, str | None]:
    """Run one command; return its wall and CPU time and a failure message or None."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    wall, cpu = perf_counter(), process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                cli.main(list(job.argv))
            else:
                tracer.call("cli", cli.main, list(job.argv))
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a job that raises is a failed job, not a crashed benchmark
        problem = traceback.format_exc(limit=3)
    cpu, wall = process_time() - cpu, perf_counter() - wall
    if code is not None:
        try:
            problem = job.check(code, out.getvalue())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable output ({exc!r}): {out.getvalue()[:200]!r}"
    return wall, cpu, problem


def run_pass(jobs, calibration, tracer=None) -> dict:
    cli = sys.modules["aontlab.cli"]
    cached_classify = sys.modules["aontlab.arrays"].cached_classify
    walls, cpus, slices, failures = [], [], [], []
    for job in jobs:
        cached_classify.cache_clear()
        wall, cpu, problem = run_job(job, cli, tracer)
        slices += [calibrate(calibration[0]) for _ in range(1 + int(wall / CALIBRATE_EVERY_S))]
        walls.append(wall)
        cpus.append(cpu)
        if problem is not None:
            failures.append(f"{job.label}: {problem}")
    scale = calibration[1] / statistics.median(slices)
    return {
        "traced": tracer is not None,
        "walls": walls,
        "walls_ref": [w * scale for w in walls],
        "wall_s": sum(walls),
        "wall_ref_s": sum(walls) * scale,
        "cpu_s": sum(cpus),
        "failures": failures,
    }


def run_passes(jobs, calibration, seconds: float, tracer) -> tuple[list[dict], list[dict], list[dict]]:
    """Repeat passes until the next would overrun `seconds`, running at least
    MIN_PASSES; with a tracer, odd passes are traced. Returns the passes, and
    the metrics and spans of each traced pass."""
    passes, layers, spans = [], [], []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(jobs, calibration, tracer)
            finally:
                tracer.restore()
            layers.append(tracer.layer_metrics(result["wall_s"]))
            spans.append(tracer.spans())
        else:
            result = run_pass(jobs, calibration)
        passes.append(result)
        if len(passes) < MIN_PASSES:
            continue
        next_traced = tracer is not None and len(passes) % 2 == 1
        same_kind = [p["wall_s"] for p in passes if p["traced"] == next_traced]
        if perf_counter() - start + max(same_kind) > seconds:
            return passes, layers, spans


def job_percentiles(passes: list[dict], key: str, n_jobs: int) -> tuple[float, float]:
    """Median job latency and the latency with TAIL_BEYOND of a MIN_PASSES
    run's latencies above it, over the latencies of every pass.

    More passes keep the same percentile, so the value falls on the same
    jobs of the list whatever the number of passes.
    """
    latencies = sorted(w for p in passes for w in p[key])
    n = len(latencies)
    return statistics.median(latencies), latencies[n - TAIL_BEYOND * n // (MIN_PASSES * n_jobs) - 1]


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def machine_record(seed: int, threads_before: str | None) -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                ref = ref_file.read_text().strip()
            elif packed.is_file():
                ref = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + name)), None)
            else:
                ref = None
        commit = ref
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "click": metadata.version("click"),
        "loadavg_before": os.getloadavg(),
        "aont_lab_threads_unset": "AONT_LAB_THREADS" not in os.environ,
        "aont_lab_threads_was": threads_before,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the search must run sequentially, and the benchmark starts no threads
    threads_before = os.environ.pop("AONT_LAB_THREADS", None)
    record = machine_record(args.seed, threads_before)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, _workloads, jobs = set_up(args.workload, args.seed, workdir)
        tracer = sys.modules["tracing"].Tracer() if args.trace else None
        passes, layers, spans = run_passes(jobs, CALIBRATION[args.workload], args.seconds, tracer)
    except RuntimeError as exc:  # SetupError, or a generated input without its claimed verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    attempted = len(jobs) * len(passes)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        tracing = sys.modules["tracing"]
        metrics_values = {name: statistics.median(layer[name] for layer in layers)
                          for name in layers[0]}
        metrics_values["trace.untraced_wall_s"] = median_of(untraced, "wall_s")
        metrics_values["trace.overhead_s"] = metrics_values["trace.wall_s"] - metrics_values["trace.untraced_wall_s"]
        metrics_values["jobs.failed_frac"] = len(failures) / attempted
        units = tracing.LAYER_METRICS
    else:
        metrics_values = {name: median_of(passes, name) for name in ("wall_s", "wall_ref_s", "cpu_s")}
        for key, suffix in (("walls", "_s"), ("walls_ref", "_ref_s")):
            p50, tail = job_percentiles(passes, key, len(jobs))
            metrics_values["job_p50" + suffix] = p50
            metrics_values["job_tail" + suffix] = tail
        metrics_values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics_values["setup_s"] = setup_s
        units = E2E_METRICS
    metrics = {name: {"value": metrics_values[name], "unit": unit} for name, unit, _better in units}

    record.update(
        workload=args.workload,
        trace=args.trace,
        seconds=args.seconds,
        loadavg_after=os.getloadavg(),
        jobs_per_pass=len(jobs),
        passes=len(passes),
        traced_passes=len(layers),
        tail_percentile=100 * (1 - TAIL_BEYOND / (MIN_PASSES * len(jobs))),
        tail_samples=len(untraced) * len(jobs),
        raw={name: {"value": metrics_values[name], "unit": unit} for name, unit in RAW_METRICS}
        if not args.trace else None,
        pass_wall_s=[p["wall_s"] for p in passes],
        failures=failures[:20],
    )
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-trace{args.trace}"
    stem.with_suffix(".record.json").write_text(json.dumps({"record": record, "metrics": metrics}, indent=1))
    if spans:
        sys.modules["tracing"].write_spans(str(stem.with_suffix(".spans.json.gz")), spans)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
