"""The benchmark's tracer (perfbench/tracing.py) rebinds aontlab module
attributes by name, so renaming or deleting one of them breaks
`perfbench/run.py --trace 1`. This keeps every traced name resolving."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracing = _load_tracing()
    bindings = [
        *(b for group in tracing.SPANS.values() for b in group),
        *tracing.CACHED_CLASSIFY,
        *(b for group in tracing.COUNTED.values() for b in group),
    ]
    missing = []
    for binding in bindings:
        owner, attr = tracing._resolve(binding)
        if not callable(vars(owner).get(attr)):
            missing.append(binding)
    assert missing == []
