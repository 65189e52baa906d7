"""Every function and method in src/cxlab is entered by some command,
every name a module of src/cxlab or of the tests imports is used there, and
the value layer names no report mode, nor does a verifier take one.

A short fixed list of CLI commands runs in a fresh interpreter (the parser
is cached per process) under sys.setprofile, in a temporary working
directory.  A definition that none of them enters is either dead or only
the tests use it, and then it belongs in tests/helpers.py.  __str__,
__repr__ and the methods of exception classes are exempt.
"""

import ast
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import cxlab

SRC = Path(cxlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

_SUITES = ("l1linf", "i2pos", "phi", "inter", "linf", "new23", "gest")
COMMANDS = [
    *(["verify", suite, "--trials", "3", "--depth", "5", "--mode", mode]
      for suite in _SUITES for mode in ("exact", "float")),
    ["cex", "p-less-2", "--k", "3", "--p", "1.5"],
    *(["cex", which, "--N", "5", "--p", p]
      for which in ("increasing", "direct") for p in ("2", "1.5")),
    *(["cex", "new23", "--N", "5", "--p", p] for p in ("4", "3.5")),
    ["cex", "search-new23", "--depth", "4", "--budget", "20"],
    # verify_new23 at a non-integral p, which enters trees._pow
    ["cex", "search-new23", "--p", "1.5", "--depth", "4", "--budget", "20"],
    ["capacity", "--n", "16", "--oracle"],
    ["capacity", "--n", "16", "--no-symmetry"],
    ["report", "d2", "--csv", "d2.csv"],
    ["run", "run.json"],
]
RUN_CONFIG = {"experiment": "verify-inter", "grid": {"trials": [2, 3]}, "out": "reports"}

# Runs the commands given as JSON in argv[2] and prints, as JSON, their exit
# codes and the (file, first line) of every code object entered under argv[1].
_TRACE = r"""
import contextlib, io, json, os, sys
root = os.path.join(sys.argv[1], "")
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(root):
            entered.add((os.path.basename(code.co_filename), code.co_firstlineno))

sys.setprofile(profile)
from cxlab import cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every def in src/cxlab, the
    exempt ones left out.  A decorated def's code starts at its first
    decorator."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("cxlab" if path.stem == "__init__" else f"cxlab.{path.stem}")

        def walk(node, prefix, in_exception):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if not in_exception and child.name not in ("__str__", "__repr__"):
                        out[path.name, first] = f"{path.stem}.{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.<locals>.", in_exception)
                elif isinstance(child, ast.ClassDef):
                    cls = getattr(module, child.name, None) if not prefix else None
                    exc = in_exception or (isinstance(cls, type) and issubclass(cls, BaseException))
                    walk(child, f"{prefix}{child.name}.", exc)
                else:
                    walk(child, prefix, in_exception)

        walk(ast.parse(path.read_text()), "", False)
    return out


def test_every_definition_is_entered_by_a_command(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(RUN_CONFIG))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TRACE, str(SRC), json.dumps(COMMANDS)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(COMMANDS)
    entered = {tuple(key) for key in result["entered"]}
    definitions = _definitions()
    assert len(definitions) > 100  # the walk found the package
    missed = sorted(name for key, name in definitions.items() if key not in entered)
    assert missed == [], f"defined in src/cxlab but entered by no command: {missed}"


# Imported names a module keeps without using them: the package's
# re-exports, and counterexamples.hardy_up_table, which the bench's tracer
# self-test wraps in that module.
_UNUSED_IMPORT_EXEMPT = {("counterexamples", "hardy_up_table")}


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module's imports bind that no other node of it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_are_found():
    tree = ast.parse("import os, sys\nfrom x import a, b as c\nprint(sys.argv, c)\n")
    assert _unused_imports(tree) == ["a", "os"]


def test_every_imported_name_is_used():
    unused = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        if path == SRC / "__init__.py":
            continue
        unused += [f"{path.parent.name}/{path.stem}.{name}"
                   for name in _unused_imports(ast.parse(path.read_text()))
                   if (path.stem, name) not in _UNUSED_IMPORT_EXEMPT]
    assert unused == [], f"imported but never used: {unused}"


# The modules that hold and sweep tree functions and measures.  How a report
# renders a value is decided in lemmas alone, so these name no mode.
_MODE_FREE = ("trees", "hardy", "randgen", "structure", "capacity")
_MODE_NAMES = {"mode", "EXACT", "FLOAT"}


def _mode_names(source: str) -> list[str]:
    """The identifiers of source, comments and strings left out, that name
    a report mode."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sorted({t.string for t in tokens if t.type == tokenize.NAME and t.string in _MODE_NAMES})


def test_mode_names_are_found():
    source = 'def f(g, mode=EXACT):\n    """in float mode"""  # mode\n    return g.mode\n'
    assert _mode_names(source) == ["EXACT", "mode"]


@pytest.mark.parametrize("stem", _MODE_FREE)
def test_value_layer_names_no_mode(stem):
    assert _mode_names((SRC / f"{stem}.py").read_text()) == []


def test_verifiers_take_no_mode():
    # the verifiers, build_phi and the trials leave their values exact, and
    # the cex generators and helpers render at their own output, so none
    # takes the report mode
    from cxlab import counterexamples, experiments, lemmas
    fns = [v for k, v in vars(lemmas).items() if k.startswith("verify_")]
    fns += [lemmas.build_phi, lemmas._phi_heap]
    fns += [v for k, v in vars(experiments).items() if k.startswith("_trial_")]
    assert len(fns) == 6 + 2 + 7
    fns += [v for v in vars(counterexamples).values()
            if inspect.isfunction(v) and v.__module__ == counterexamples.__name__]
    assert [f.__name__ for f in fns if "mode" in inspect.signature(f).parameters] == []
