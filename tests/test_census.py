"""A call census of the run path: the package ships only what `gcg run` enters.

A child interpreter installs a profiler before it imports gcg and drives
``gcg.cli.main`` through every way a run ends: each bundled instance at a
small size, stadler-ex1 at n = 2 (the failed search, exit 2), a
``--track-errors`` run that reads a settings file, ``gcg list`` and a bad
flag (exit 1).  Every function and method that the modules in MODULES
define, nested ones included, must be entered, except those in KEPT.

Code the tests need and no run calls lives in ``tests/helpers.py``: the
pairing, the feasible samplers and the paper's rate recursions.
``gcg._sparse_reference`` is not counted: it is the sparse reference the
tests hold the sine-basis solves to, and the benchmark's tracer reaches it
by name through the ``gcg.pde.__getattr__`` forwarder.  No run needs that
forwarder either, but the census cannot tell: each ``from gcg.pde import``
enters it when the import system probes the module for ``__path__``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gcg

PACKAGE = Path(gcg.__file__).resolve().parent
MODULES = ("cli", "core", "pde", "tracking", "elliptic", "parabolic", "diagnostics")

# Entered by no run, and kept on purpose.
KEPT = {
    # the generic solver path, for a problem that gives no line_objective or
    # step; test_tracking holds the carried state to the plain blend
    "core.ControlField.blend",
    "core._segment_objective.<locals>.phi",
    # CI reads the heat-2d dump back with it, to compare the bytes with
    # CPython's own "%.17g"
    "pde.read_field",
}

RUNS = [
    ["run", "--problem", "parabolic-ex", "--n", "4", "--nt", "20"],
    ["run", "--problem", "parabolic-ex-1d", "--n", "8", "--nt", "20"],
    ["run", "--problem", "stadler-ex1", "--n", "8"],
    ["run", "--problem", "stadler-ex1", "--n", "2"],
    ["run", "--problem", "stadler-ex3", "--n", "8"],
    ["run", "--problem", "stadler-ex1", "--config", "{settings}", "--track-errors"],
    ["list"],
    ["run", "--no-such-flag"],
]
EXIT_CODES = [0, 0, 0, 2, 0, 0, 0, 1]

CHILD = """
import json, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from gcg.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
calls = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
print(json.dumps({"codes": codes, "entered": sorted(calls)}))
"""


def definitions(path: Path) -> dict:
    """(first line, name) -> qualified name of every def in one source file.

    The first line is the first decorator's, as in the code object.
    """
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[first, child.name] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_shipped_function_is_entered_by_some_run(tmp_path):
    settings = tmp_path / "settings.txt"
    settings.write_text("n = 8\nmax_iter = 20\n")
    runs = []
    for i, argv in enumerate(RUNS):
        argv = [arg.format(settings=settings) for arg in argv]
        if argv[0] == "run":
            argv += ["--out-dir", str(tmp_path / f"out{i}")]
        runs.append(argv)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    census = json.loads(proc.stdout.splitlines()[-1])
    assert census["codes"] == EXIT_CODES, proc.stderr

    entered = {tuple(call) for call in census["entered"]}
    missed = set()
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        for (line, name), qualname in definitions(path).items():
            if (str(path), line, name) not in entered:
                missed.add(f"{module}.{qualname}")
    assert missed == KEPT


def test_no_module_of_the_package_imports_the_test_helpers():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("helpers", "tests"), (path.name, name)
