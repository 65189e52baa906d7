"""The benchmark's checks run on the program.

bench/checks.py recomputes what the benchmark's capacity and cex p-less-2
commands print by routes of its own, and bench/selftest.py checks the
tracer and that every check rejects a perturbed output; both are loaded
here by path and only read.  An output change that the checks would
reject, or a binding the tracer needs that a change removed, then fails
here first.
"""

import functools
import importlib.util
import inspect
import json
import os
import sys
from pathlib import Path

import pytest

import cxlab
from cxlab.capacity import _NO_SYMMETRY_MAX_FAMILY, ADMISSIBLE_N
from cxlab.cli import main
from cxlab.experiments import VERIFY_NAMES

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("bench_checks", ROOT / "bench" / "checks.py")


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


# every (k, p) that bench/workloads.py's constructions round draws, and
# k = 8, the largest size, at each p it draws
@pytest.mark.parametrize("k, p", [
    (3, 1.1), (3, 1.2), (4, 1.1), (4, 1.2),
    *((k, p) for k in (5, 6) for p in (1.2, 1.3, 1.4)),
    *((k, p) for k in (7, 8) for p in (1.1, 1.2, 1.3, 1.4, 1.5))])
def test_check_cex_p_less_2(capsys, k, p):
    out = _run(capsys, "cex", "p-less-2", "--k", str(k), "--p", str(p))
    assert checks.check_cex_p_less_2(out, k, p) is None


def test_check_report_d2(capsys):
    out = _run(capsys, "report", "d2")
    assert checks.check_report_d2(out, [16, 256]) is None


def test_bench_selftest_in_process(monkeypatch):
    """selftest.py's in-process checks: the tracer wraps and restores the
    bindings it names and counts the same work each round, and each
    correctness check rejects a perturbed output at toy sizes."""
    monkeypatch.chdir(ROOT)  # selftest finds the sources from the working directory
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends src and bench
    cpus = os.sched_getaffinity(0)  # the bench's rounds move the process between CPUs
    try:
        selftest = _load("bench_selftest", ROOT / "bench" / "selftest.py")
        selftest.test_tracer()
        selftest.test_checks_reject_perturbed_outputs()
    finally:
        os.sched_setaffinity(0, cpus)
    assert selftest.FAILURES == []


# Names the bench still reads that no longer exist in cxlab; the next change
# to bench/ clears them, and then this tuple goes.
_STALE_LAYERS = ("capacity.capacity_qp", "capacity.capacity_qp_instance",
                 "counterexamples.build_cex_p_less_2_functions")


def _resolve(key: str):
    try:
        return functools.reduce(getattr, key.split("."), cxlab)
    except AttributeError:
        return None


def test_counted_layers_resolve(monkeypatch):
    """Every layer whose calls, self time or result the bench reads names a
    function, class or module of cxlab, so a change that renames or removes
    one fails here rather than leaving its metric at 0.  The stale names are
    listed and must stay absent."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), *sys.path])  # worker imports its siblings
    worker = _load("bench_worker", ROOT / "bench" / "worker.py")
    assert worker._CALLS
    for key in worker._CALLS:
        assert callable(_resolve(key)), key
    hooks = worker.Tracer(worker.MODULES, cxlab)._result_hooks()
    read = set(worker._SELF_MS) | set(hooks)
    assert "randgen" in read and "structure.special_form_g" in read
    assert set(_STALE_LAYERS) <= read
    for key in sorted(read):
        if key in _STALE_LAYERS:
            assert _resolve(key) is None, f"{key} exists again: drop it from _STALE_LAYERS"
        else:
            # "randgen" is the module, whose functions' self times add up
            found = _resolve(key)
            assert callable(found) or inspect.ismodule(found), key


def test_bench_screen_calls_the_suites(monkeypatch, capsys):
    """bench/screen.py runs each verify suite through the positional call
    run_verify_suite(name, 1, DEPTH, seed, mode) in both modes; on the
    first five trial seeds no suite reports a violation."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), *sys.path])  # screen imports workloads
    screen = _load("bench_screen", ROOT / "bench" / "screen.py")
    monkeypatch.setattr(screen, "POOL", 5)
    assert screen.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{name} []" for name in VERIFY_NAMES]
