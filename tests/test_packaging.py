"""The installed package keeps zero third-party runtime dependencies, and
every function the benchmark's tracer wraps by name still exists."""

import ast
import importlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lietp"


def test_runtime_imports_only_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s:%d %s" % (path.name, node.lineno, name)
                        for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_traced_name_resolves():
    # a missing name kills `perfbench/run.py --trace 1` with AttributeError
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for short, names in tracing.TRACED.items():
        mod = importlib.import_module("lietp." + short)
        missing += ["%s.%s" % (short, name) for name in names
                    if not callable(getattr(mod, name, None))]
    assert tracing.TRACED and missing == []
