"""The installed package keeps zero third-party runtime dependencies, every
function the benchmark's tracer wraps by name still exists, and a process
loads only the modules its command runs."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

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


def _python(*args):
    """A fresh interpreter run at the root with these arguments."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run((sys.executable,) + args, cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res


def _fresh(code):
    """The last stdout line of code run in a fresh interpreter."""
    return _python("-c", code).stdout.splitlines()[-1]


LOADED = ("import sys; print(' '.join(sorted(m for m in sys.modules "
          "if m == 'lietp' or m.startswith('lietp.'))))")
CLI = {"lietp", "lietp.cli", "lietp.errors"}
COMBINATORICS = CLI | {"lietp.algebra", "lietp.poset"}


def test_cli_import_loads_no_library_module():
    assert set(_fresh("import lietp.cli; " + LOADED).split()) == CLI
    assert _fresh("import lietp; " + LOADED) == "lietp"


@pytest.mark.parametrize("argv, loaded", [
    (["analyze", "data/vee.poset"], COMBINATORICS),
    (["halfder", "data/vee.poset"], COMBINATORICS),
    (["halfder", "data/vee.poset", "--oracle"],
     COMBINATORICS | {"lietp.halfder"}),
    (["decompose", "data/twochains5.poset", "data/twochains5_op.json"],
     COMBINATORICS | {"lietp.halfder"}),
    (["tp", "verify", "data/vee.poset", "data/twochains5_op.json"],
     COMBINATORICS | {"lietp.halfder", "lietp.tpstruct"}),
], ids=["analyze", "halfder", "halfder-oracle", "decompose", "tp"])
def test_each_command_loads_only_its_modules(argv, loaded):
    code = "from lietp.cli import main; main(%r); %s" % (argv, LOADED)
    assert set(_fresh(code).split()) == loaded


def test_importtime_logs_the_modules_a_command_loads():
    # CI's import-set step greps this log for the modules analyze loads
    res = _python("-X", "importtime", "-m", "lietp.cli", "analyze",
                  "data/vee.poset")
    logged = {line.rsplit("|", 1)[-1].strip()
              for line in res.stderr.splitlines()
              if line.startswith("import time:")}
    assert ({m for m in logged if m.split(".")[0] == "lietp"}
            == COMBINATORICS - {"lietp.cli"})


def test_exported_names_resolve_lazily():
    code = """
import sys, lietp
for name in lietp.__all__:
    value = getattr(lietp, name)
    assert value is getattr(sys.modules["lietp." + lietp._HOME[name]], name)
assert set(lietp.__all__) <= set(dir(lietp))
try:
    lietp.no_such_name
except AttributeError:
    print("ok")
"""
    assert _fresh(code) == "ok"
