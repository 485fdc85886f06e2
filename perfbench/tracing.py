"""Per-layer tracing installed from outside the program.

`Tracer.install` rebinds module attributes of aontlab at run time, including
the names other modules imported (`report.conditional_entropy`,
`bounds.cached_classify`, `constructions.passes_unbiased_family`, ...), and
`Tracer.restore` puts every original back. No file under src/ changes.

A span records name, start, end and parent in memory; functions that run per
row or per column set get counters only. A layer's self time is the time of
its spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# span name -> the "module.attr" (or "module.Class.attr") bindings it wraps
SPANS = {
    "arrays.parse": ("cli.load_array_csv", "arrays.parse_array_csv", "arrays.parse_array", "constructions.parse_array"),
    "arrays.classify": ("cli.classify", "report.classify"),
    "arrays.unbiased_family": ("constructions.passes_unbiased_family",),
    "models.load": ("cli.load_model_json",),
    "entropy.conditional": ("report.conditional_entropy", "bounds.conditional_entropy", "demos.conditional_entropy"),
    "entropy.formula": ("report.conditional_entropy_formula",),
    "entropy.sd": ("report.statistical_distance",),
    "entropy.subset": ("report.subset_entropy", "bounds.subset_entropy", "demos.subset_entropy",
                       "entropy.subset_entropy"),
    "entropy.marginal": ("demos.marginal_distribution",),
    "coding.entropy_bits": ("coding.entropy_bits", "entropy.entropy_bits", "models.entropy_bits"),
    "bounds.compare": ("bounds.compare",),
    "bounds.interval": ("bounds.interval_for",),
    "report.build": ("cli.build_report", "demos.build_report"),
    "report.render": ("cli.report_to_json_dict", "cli.report_to_csv", "cli.report_to_table", "cli.format_demo"),
    "constructions.search": ("cli.search_linear",),
    "constructions.linear_aont": ("constructions.linear_aont",),
    "constructions.is_invertible": ("constructions.SquareMatrix.is_invertible",),
    "demos.run": ("cli.run_demo",),
}
# memoized classify: a span under arrays.classify plus a hit or miss count
CACHED_CLASSIFY = ("entropy.cached_classify", "bounds.cached_classify")
# counter name -> bindings; these run per column set or per row, so no span
COUNTED = {
    "arrays.count_projection": ("arrays._count_projection",),
    "arrays.check_unbiased": ("arrays.check_unbiased",),
    "arrays.check_covering": ("arrays.check_covering",),
    "models.joint_probability": ("entropy.joint_probability",),
    "entropy.accumulate": ("entropy._accumulate",),
}
ROOT = "cli"  # the benchmark's own span around each `aontlab` command

S, COUNT, RATIO = "s", "count", "ratio"

# (metric, unit, better) for every per-layer metric a traced run reports
LAYER_METRICS = (
    ("cli.self_s", S, "lower"),
    ("arrays.parse.calls", COUNT, "lower"),
    ("arrays.parse.rows", COUNT, "lower"),
    ("arrays.parse.self_s", S, "lower"),
    ("arrays.classify.calls", COUNT, "lower"),
    ("arrays.classify.self_s", S, "lower"),
    ("arrays.classify_cache.hit_ratio", RATIO, "higher"),
    ("arrays.count_projection.calls", COUNT, "lower"),
    ("arrays.rows_scanned", COUNT, "lower"),
    ("arrays.covering.share", RATIO, "lower"),
    ("arrays.unbiased_family.calls", COUNT, "lower"),
    ("arrays.unbiased_family.self_s", S, "lower"),
    ("arrays.unbiased_family.pass_ratio", RATIO, "higher"),
    ("models.load.self_s", S, "lower"),
    ("models.joint_probability.calls", COUNT, "lower"),
    ("entropy.projections", COUNT, "lower"),
    ("entropy.rows_scanned", COUNT, "lower"),
    ("entropy.projections_per_pair", RATIO, "lower"),
    ("entropy.conditional.self_s", S, "lower"),
    ("entropy.sd.self_s", S, "lower"),
    ("entropy.subset.self_s", S, "lower"),
    ("entropy.formula.self_s", S, "lower"),
    ("entropy.marginal.self_s", S, "lower"),
    ("coding.entropy_bits.calls", COUNT, "lower"),
    ("coding.entropy_bits.self_s", S, "lower"),
    ("bounds.compare.calls", COUNT, "lower"),
    ("bounds.compare.self_s", S, "lower"),
    ("bounds.interval.self_s", S, "lower"),
    ("report.build.self_s", S, "lower"),
    ("report.render.self_s", S, "lower"),
    ("report.pairs", COUNT, "higher"),
    ("constructions.search.candidates", COUNT, "lower"),
    ("constructions.search.examined", COUNT, "lower"),
    ("constructions.search.found", COUNT, "higher"),
    ("constructions.search.examined_ratio", RATIO, "lower"),
    ("constructions.search.candidates_per_s", "1/s", "higher"),
    ("constructions.search.self_s", S, "lower"),
    ("constructions.is_invertible.calls", COUNT, "lower"),
    ("constructions.is_invertible.self_s", S, "lower"),
    ("constructions.linear_aont.calls", COUNT, "lower"),
    ("constructions.linear_aont.self_s", S, "lower"),
    ("demos.run.self_s", S, "lower"),
    ("trace.wall_s", S, "lower"),
    ("trace.untraced_wall_s", S, "lower"),
    ("trace.overhead_s", S, "lower"),
    ("trace.unexplained_s", S, "lower"),
    ("jobs.failed_frac", RATIO, "lower"),
)


def _resolve(binding: str) -> tuple[object, str]:
    """'report.classify' -> (aontlab.report, 'classify'); one more dot names a class."""
    module, *owner_path, attr = binding.split(".")
    owner = importlib.import_module(f"aontlab.{module}")
    for name in owner_path:
        owner = getattr(owner, name)
    return owner, attr


def _on_return(counters: Counter, name: str, result, args) -> None:
    """Counters read off a traced call's arguments and result."""
    if name == "arrays.parse_array":
        counters["arrays.parse.rows"] += result.n_rows
    elif name == "report.build":
        counters["report.pairs"] += len(result.rows)
    elif name == "constructions.search":
        s, v = args[0], args[1]
        counters["constructions.search.candidates"] += v ** (s * s)
        counters["constructions.search.examined"] += result.examined
        counters["constructions.search.found"] += len(result.found)
    elif name == "arrays.unbiased_family":
        counters["arrays.unbiased_family.passed"] += bool(result)
    elif name == "arrays.count_projection":
        counters["arrays.rows_scanned"] += args[0].n_rows
    elif name == "entropy.accumulate":
        counters["entropy.rows_scanned"] += args[0].n_rows


class Tracer:
    """Spans and counters of one traced pass; install, run, restore."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name: str, hook_name: str, fn):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            _on_return(self.counters, hook_name, result, args)
            return result

        return traced

    def _cached_wrapper(self, fn):
        def traced(*args, **kwargs):
            hits = fn.cache_info().hits
            result = self.call("arrays.classify", fn, *args, **kwargs)
            hit = fn.cache_info().hits > hits
            self.counters["arrays.classify_cache.hits" if hit else "arrays.classify_cache.misses"] += 1
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            _on_return(self.counters, name, None, args)
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def _bind(self, binding: str, make) -> None:
        owner, attr = _resolve(binding)
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, bindings in SPANS.items():
                for binding in bindings:
                    hook = "arrays.parse_array" if binding.endswith(".parse_array") else name
                    self._bind(binding, lambda fn, n=name, h=hook: self._span_wrapper(n, h, fn))
            for binding in CACHED_CLASSIFY:
                self._bind(binding, self._cached_wrapper)
            for name, bindings in COUNTED.items():
                for binding in bindings:
                    self._bind(binding, lambda fn, n=name: self._count_wrapper(n, fn))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every original, last bound first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded pass; `wall_s` is its traced job time."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[i]
            self_s[name] += self.ends[i] - self.starts[i] - child[i]
            parent = self.parents[i]
            if parent < 0 or self.names[parent] != name:
                calls[name] += 1
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        hits, misses = c["arrays.classify_cache.hits"], c["arrays.classify_cache.misses"]
        search_time = sum(self.ends[i] - self.starts[i] for i in range(n) if self.names[i] == "constructions.search")
        out = {f"{name}.self_s": self_s[name] for name in (ROOT, *SPANS)}
        out.update(
            {
                "arrays.parse.calls": calls["arrays.parse"],
                "arrays.parse.rows": c["arrays.parse.rows"],
                "arrays.classify.calls": calls["arrays.classify"] - hits,
                "arrays.classify_cache.hit_ratio": ratio(hits, hits + misses),
                "arrays.count_projection.calls": c["arrays.count_projection.calls"],
                "arrays.rows_scanned": c["arrays.rows_scanned"],
                "arrays.covering.share": ratio(
                    c["arrays.check_covering.calls"],
                    c["arrays.check_covering.calls"] + c["arrays.check_unbiased.calls"],
                ),
                "arrays.unbiased_family.calls": calls["arrays.unbiased_family"],
                "arrays.unbiased_family.pass_ratio": ratio(
                    c["arrays.unbiased_family.passed"], calls["arrays.unbiased_family"]
                ),
                "models.joint_probability.calls": c["models.joint_probability.calls"],
                "entropy.projections": c["entropy.accumulate.calls"],
                "entropy.rows_scanned": c["entropy.rows_scanned"],
                "entropy.projections_per_pair": ratio(c["entropy.accumulate.calls"], c["report.pairs"]),
                "coding.entropy_bits.calls": calls["coding.entropy_bits"],
                "bounds.compare.calls": calls["bounds.compare"],
                "report.pairs": c["report.pairs"],
                "constructions.search.candidates": c["constructions.search.candidates"],
                "constructions.search.examined": c["constructions.search.examined"],
                "constructions.search.found": c["constructions.search.found"],
                "constructions.search.examined_ratio": ratio(
                    c["constructions.search.examined"], c["constructions.search.candidates"]
                ),
                "constructions.search.candidates_per_s": ratio(c["constructions.search.candidates"], search_time),
                "constructions.is_invertible.calls": calls["constructions.is_invertible"],
                "constructions.linear_aont.calls": calls["constructions.linear_aont"],
                "trace.wall_s": wall_s,
                "trace.unexplained_s": wall_s - sum(self_s.values()),
            }
        )
        return out

    def spans(self) -> dict:
        """The pass's spans as columns; `name` indexes into `names`."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "name": [index[name] for name in self.names],
            "start": list(self.starts),
            "end": list(self.ends),
            "parent": list(self.parents),
        }


def write_spans(path: str, passes: list[dict]) -> None:
    """Spans of every traced pass, as gzip-compressed JSON."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"passes": passes}, fh)
