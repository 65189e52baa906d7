"""The benchmark's capacity checks run on the CLI's output.

bench/checks.py recomputes what the benchmark's capacity commands print by
routes of its own; it is loaded here by path and only read.  An output
change that its checks would reject then fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cxlab.capacity import _NO_SYMMETRY_MAX_FAMILY, ADMISSIBLE_N
from cxlab.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "bench_checks", Path(__file__).resolve().parent.parent / "bench" / "checks.py")
checks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checks)


def _run(capsys, *argv) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def _family_size(n: int) -> int:
    s = n.bit_length() - 1
    return n // s * (s + 1)


# --no-symmetry wherever the family bound allows it
@pytest.mark.parametrize("n, symmetric", [(n, True) for n in ADMISSIBLE_N] + [
    (n, False) for n in ADMISSIBLE_N if _family_size(n) <= _NO_SYMMETRY_MAX_FAMILY])
def test_check_capacity(capsys, n, symmetric):
    flags = () if symmetric else ("--no-symmetry",)
    out = _run(capsys, "capacity", "--n", str(n), *flags)
    assert checks.check_capacity(out, n, symmetric) is None


@pytest.mark.parametrize("n", [16, 256])
def test_check_oracle(capsys, n):
    out = _run(capsys, "capacity", "--n", str(n), "--oracle")
    assert checks.check_oracle(out, n) is None


def test_check_report_d2(capsys):
    out = _run(capsys, "report", "d2")
    assert checks.check_report_d2(out, [16, 256]) is None
