"""Golden outputs: the exit code, stdout and written files of the README CLI
examples and of one `run` config per experiment family, byte for byte.  The
JSON among them must be strict: no NaN or Infinity.

    PYTHONPATH=src python tests/test_golden.py          (rewrites tests/golden/)
    PYTHONPATH=src python tests/test_golden.py NAME...  (rewrites those only)

Rewrite the files only for an intended output change, and name the change
in CHANGES.md.  A run cell's runtime_ms is stripped, since it is a timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from cxlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# the README examples (phi cut to 50 trials, the search to a budget of 1000),
# the other verify suites, phi at 12 and 13 levels, the larger instances the
# benchmark runs, p-less-2 at its largest k, increasing and direct at a
# non-integral p (at p = 60.5 the exact lhs exceeds N although 1 + 2^-p
# rounds to 1), and two searches: one whose best ratio is a rounding tie at
# p = 2 and one at the depth cap
COMMANDS = {
    "verify-phi": "verify phi --trials 50 --depth 8 --seed 7",
    "verify-phi-float": "verify phi --trials 50 --depth 8 --seed 7 --mode float",
    "verify-phi-12": "verify phi --depth 12 --trials 20 --seed 7",
    "verify-phi-12-float": "verify phi --depth 12 --trials 20 --seed 7 --mode float",
    "verify-phi-13": "verify phi --depth 13 --trials 10 --seed 7",
    "verify-phi-13-float": "verify phi --depth 13 --trials 10 --seed 7 --mode float",
    "verify-new23": "verify new23 --trials 200 --mode exact",
    "verify-inter": "verify inter --mode exact",
    "verify-inter-float": "verify inter --mode float",
    "verify-new23-float": "verify new23 --trials 200 --mode float",
    "verify-l1linf": "verify l1linf --mode exact",
    "verify-l1linf-float": "verify l1linf --mode float",
    "verify-i2pos": "verify i2pos --mode exact",
    "verify-i2pos-float": "verify i2pos --mode float",
    "verify-linf": "verify linf --mode exact",
    "verify-linf-float": "verify linf --mode float",
    "verify-gest": "verify gest --mode exact",
    "verify-gest-float": "verify gest --mode float",
    "cex-increasing": "cex increasing --N 20 --p 2",
    "cex-direct": "cex direct --N 40 --p 2",
    "cex-p-less-2": "cex p-less-2 --k 5 --p 1.5",
    "cex-p-less-2-k8": "cex p-less-2 --k 8 --p 1.1",
    "cex-new23": "cex new23 --N 100 --p 4",
    "cex-new23-1000-p5": "cex new23 --N 1000 --p 5",
    "cex-new23-998-p3.5": "cex new23 --N 998 --p 3.5",
    "cex-new23-1000-p3.5": "cex new23 --N 1000 --p 3.5",
    "cex-increasing-1000-p4": "cex increasing --N 1000 --p 4",
    "cex-increasing-1000-p60.5": "cex increasing --N 1000 --p 60.5",
    "cex-direct-40-p2.5": "cex direct --N 40 --p 2.5",
    "cex-search-new23": "cex search-new23 --p 4 --depth 10 --budget 1000 --seed 7",
    "cex-search-new23-p2-tie": "cex search-new23 --p 2 --depth 10 --budget 2000 --seed 3",
    "cex-search-new23-depth-14": "cex search-new23 --p 1.25 --depth 14 --budget 300 --seed 11",
    "capacity-16-oracle": "capacity --n 16 --oracle",
    "capacity-256-oracle": "capacity --n 256 --oracle",
    "capacity-16-no-symmetry": "capacity --n 16 --no-symmetry",
    "capacity-65536": "capacity --n 65536",
    "report-d2": "report d2 --csv d2.csv",
    "report-d2-16-256-65536": "report d2 --n 16 --n 256 --n 65536",
}

# one `cxlab run config.json` per experiment family
RUNS = {
    "run-verify-inter": {"experiment": "verify-inter",
                         "grid": {"trials": [5], "depth": [4, 6]}, "seed": 3},
    "run-cex-p-less-2": {"experiment": "cex-p-less-2", "grid": {"k": [3], "p": [1.5]},
                         "seed": 1},
    "run-cex-increasing": {"experiment": "cex-increasing",
                           "grid": {"N": [3, 20], "p": [2.0, 3]}, "seed": 7},
    "run-cex-direct": {"experiment": "cex-direct", "grid": {"N": [6, 40], "p": [2]}},
    "run-cex-new23": {"experiment": "cex-new23", "grid": {"N": [10], "p": [2.5, 4]}},
    "run-search-new23": {"experiment": "search-new23",
                         "grid": {"p": [1.5, 4], "depth": [6], "budget": [50]}, "seed": 1},
    "run-capacity": {"experiment": "capacity", "grid": {"n": [4, 16]}},
}

_RUNTIME = re.compile(r',\n  "runtime_ms": [^\n]*')


def render(name: str, workdir: Path) -> str:
    """Run one golden command in an empty workdir; return its exit code,
    stdout and the files it wrote as one text."""
    if name in RUNS:
        argv = ["run", "config.json"]
        (workdir / "config.json").write_text(json.dumps({**RUNS[name], "out": "reports"}))
    else:
        argv = COMMANDS[name].split()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    parts = [f"$ cxlab {' '.join(argv)}\nexit {code}\n", buf.getvalue()]
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "config.json":
            parts.append(f"==> {path.relative_to(workdir).as_posix()} <==\n")
            parts.append(_RUNTIME.sub("", path.read_text()))
    return "".join(parts)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def json_texts(name: str, text: str) -> list[str]:
    """The JSON in one rendered golden: the stdout of a command, and every
    .json file a run writes."""
    body, *files = re.split(r"^==> ", text.split("\n", 2)[2], flags=re.M)
    texts = [] if name in RUNS else [body]
    for part in files:
        path, content = part.split(" <==\n", 1)
        if path.endswith(".json"):
            texts.append(content)
    return texts


@pytest.mark.parametrize("name", sorted({**COMMANDS, **RUNS}))
def test_golden(name, tmp_path):
    text = render(name, tmp_path)
    assert text == (GOLDEN / f"{name}.txt").read_text()
    # strict JSON: no NaN or Infinity gets through
    parts = json_texts(name, text)
    assert parts
    for part in parts:
        json.loads(part, parse_constant=_reject_constant)


def test_every_golden_file_is_checked():
    """A golden file outside the two tables would never be compared."""
    assert not set(COMMANDS) & set(RUNS)
    assert {path.stem for path in GOLDEN.glob("*.txt")} == set(COMMANDS) | set(RUNS)


@pytest.mark.parametrize("hashseed", ["1", "2"])
@pytest.mark.parametrize("name", ["verify-linf", "verify-new23", "verify-l1linf", "verify-i2pos",
                                  "verify-gest", "verify-phi-13"])
def test_golden_independent_of_hash_seed(name, hashseed, tmp_path):
    """The witnesses of these suites do not follow set or dict order over
    node hashes: a fresh interpreter under another hash seed prints the
    same golden."""
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = COMMANDS[name].split()
    out = subprocess.run([sys.executable, "-m", "cxlab.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stderr == ""
    text = f"$ cxlab {' '.join(argv)}\nexit {out.returncode}\n{out.stdout}"
    assert text == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    names = sys.argv[1:] or list({**COMMANDS, **RUNS})
    unknown = [n for n in names if n not in COMMANDS and n not in RUNS]
    if unknown:
        print(f"unknown golden name(s): {', '.join(unknown)}", file=sys.stderr)
        sys.exit(2)
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(render(name, Path(tmp)))
    sys.exit(0)
