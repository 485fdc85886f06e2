"""The benchmark's tracer (perfbench/tracing.py) rebinds aontlab module
attributes by name, so renaming or deleting one of them breaks
`perfbench/run.py --trace 1`. This keeps every traced name resolving, and
keeps the imports kept only for the tracer to the names it binds."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "aontlab"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> list[str]:
    return [
        *(b for group in tracing.SPANS.values() for b in group),
        *tracing.CACHED_CLASSIFY,
        *(b for group in tracing.COUNTED.values() for b in group),
    ]


def _unused_imports(source: str) -> set[str]:
    """Names a module imports (not from __future__) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_traced_binding_resolves():
    tracing = _load_tracing()
    bindings = _bindings(tracing)
    missing = []
    for binding in bindings:
        owner, attr = tracing._resolve(binding)
        if not callable(vars(owner).get(attr)):
            missing.append(binding)
    assert missing == []


def test_unused_imports_are_traced_bindings():
    bindings = set(_bindings(_load_tracing()))
    stray = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in sorted(_unused_imports(path.read_text(encoding="utf-8")))
        if f"{path.stem}.{name}" not in bindings
    ]
    assert stray == []
