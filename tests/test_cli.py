import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cxlab import capacity, cli, randgen
from cxlab import counterexamples as cex
from cxlab.cli import main
from cxlab.trees import SparseFn
from cxlab.experiments import EXPERIMENTS, run_cell

from helpers import perturb_closed_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "l1linf", "--trials", "20", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert payload["trials"] == 20

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        assert main(["verify", "inter", "--trials", trials]) == 2
        assert "trials must be at least 1" in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2

    def test_phi_beyond_twenty_levels_is_resource_exit(self, capsys, monkeypatch):
        # refused before the trial's first draw, not after a 2^21-node trial
        def drew(*args, **kwargs):
            raise AssertionError("the phi trial drew before checking its bound")
        monkeypatch.setattr(randgen, "random_superadditive", drew)
        assert main(["verify", "phi", "--depth", "21", "--trials", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2^21" in captured.err


class TestCex:
    def test_increasing_n20(self, capsys):
        code, out = run_cli(capsys, "cex", "increasing", "--N", "20", "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["rhs"] == 20
        assert payload["mode"] == "exact"

    def test_p_less_2_resource_exit(self, capsys):
        code = main(["cex", "p-less-2", "--k", "9", "--p", "1.5"])
        assert code == 3

    def test_new23_non_integral_p_beyond_float_range_exits_3(self, capsys):
        code = main(["cex", "new23", "--N", "1025", "--p", "2.5"])
        assert code == 3
        assert "N = 1024" in capsys.readouterr().err

    def test_new23_audit(self, capsys):
        code, out = run_cli(capsys, "cex", "new23", "--N", "10", "--p", "4")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"halving", "ones"}
        assert payload["halving"]["first_failed_step"] == "g_telescope"

    def test_search_small(self, capsys):
        code, out = run_cli(capsys, "cex", "search-new23", "--p", "2",
                            "--depth", "6", "--budget", "50", "--seed", "1")
        assert code == 0

    @pytest.fixture
    def no_draws(self, monkeypatch):
        """Without its bound checks the search would never return at these
        arguments; this makes it fail at once instead."""
        def drew(*args):
            raise AssertionError("the search drew before rejecting its arguments")
        monkeypatch.setattr(cex, "_random_increasing_paths", drew)

    def test_search_negative_depth_is_usage_error(self, capsys, no_draws):
        assert main(["cex", "search-new23", "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "depth must be non-negative" in captured.err

    def test_search_budget_resource_exit(self, capsys, no_draws):
        assert main(["cex", "search-new23", "--budget", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "search budget capped at 1000000" in captured.err

    def test_mode_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["cex", "direct", "--N", "30", "--mode", "float"])
        assert exc.value.code == 2

    def test_bad_p_is_usage_error(self, capsys):
        code = main(["cex", "p-less-2", "--k", "4", "--p", "3"])
        assert code == 2

    @pytest.mark.parametrize("which", ["increasing", "direct"])
    def test_negative_p_is_usage_error(self, capsys, which):
        assert main(["cex", which, "--N", "5", "--p", "-1"]) == 2
        assert "p must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["inf", "1e400", "nan"])
    def test_non_finite_p_is_usage_error(self, capsys, p):
        assert main(["cex", "direct", "--N", "5", "--p", p]) == 2
        assert "p must be finite" in capsys.readouterr().err

    def test_flag_the_experiment_lacks_is_usage_error(self, capsys):
        assert main(["cex", "direct", "--N", "5", "--k", "7", "--budget", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has no parameter budget, k" in captured.err

    def test_new23_takes_no_seed(self, capsys):
        assert main(["cex", "new23", "--N", "10", "--p", "4", "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cex-new23 has no parameter seed" in captured.err

    def test_out_is_not_a_parameter(self, capsys, tmp_path):
        path = tmp_path / "direct.json"
        code, out = run_cli(capsys, "cex", "direct", "--N", "5", "--out", str(path))
        assert code == 0
        assert path.read_text() == out


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error (exit 2 with
    an error line), not a traceback."""

    def test_cex_out_in_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        assert main(["cex", "direct", "--N", "5", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "No such file or directory" in captured.err

    def test_report_csv_in_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        assert main(["report", "d2", "--n", "16", "--csv", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # the CSV is written before the table is printed
        assert err.startswith("error: ") and "No such file or directory" in err
        assert not path.parent.exists()

    def test_run_out_names_a_file(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"experiment": "verify-inter", "grid": {"trials": [2]},
                                   "out": str(taken)}))
        assert main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "File exists" in captured.err
        assert taken.read_text() == "keep\n"


def test_json_default_takes_only_report_scalars():
    assert cli._dumps({"v": Fraction(1, 3)}) == '{\n  "v": "1/3"\n}\n'
    for value in (object(), SparseFn({"01": 1}, 1), {1, 2}):
        with pytest.raises(TypeError, match=type(value).__name__):
            cli._dumps({"v": value})


@pytest.mark.parametrize("name", [n for n in EXPERIMENTS if not n.startswith("verify-")])
def test_registry_defaults_are_valid(name):
    assert run_cell(name, {}).expected_ok


class TestCapacity:
    def test_n16_with_oracle(self, capsys):
        code, out = run_cli(capsys, "capacity", "--n", "16", "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["oracle"]["bruteforce"] == "139/4998"
        assert payload["oracle"]["rel_error"] == 0.0

    def test_n65536(self, capsys):
        code, out = run_cli(capsys, "capacity", "--n", "65536")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["lemma_g"]["symmetric_j"]
        assert len(payload["rho"]) == 17
        assert float(Fraction(payload["cap_exact"])) == payload["cap"]
        assert "iterations" not in payload and "iterations" not in payload["d2"]

    def test_oracle_bound_checked_before_build(self, capsys, monkeypatch):
        def no_build(n):
            raise AssertionError("build_instance called")

        monkeypatch.setattr(capacity, "build_instance", no_build)
        assert main(["capacity", "--n", "65536", "--oracle"]) == 3
        assert "limited to families of 12" in capsys.readouterr().err

    def test_invalid_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--n", "5"])
        assert exc.value.code == 2

    def test_report_d2(self, capsys, tmp_path):
        csv_path = tmp_path / "d2.csv"
        code, out = run_cli(capsys, "report", "d2", "--n", "16",
                            "--csv", str(csv_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["table"][0]["n"] == 16
        assert csv_path.exists()

    def test_report_d2_twice_in_one_process(self, capsys):
        # the parser is built once per process; --n must not pile up across calls
        for _ in range(2):
            code, out = run_cli(capsys, "report", "d2", "--n", "16")
            assert code == 0
            row, = json.loads(out)["table"]
            assert row["n"] == 16

    @pytest.mark.parametrize("argv", [["capacity", "--n", "16", "--tol", "1e-8"],
                                      ["capacity", "--n", "16", "--max-iters", "5"],
                                      ["report", "d2", "--max-iters", "5"],
                                      ["report", "d2", "--tol", "0"]])
    def test_solver_knobs_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_no_symmetry_repeats_the_symmetric_rho(self, capsys, n):
        _, sym = run_cli(capsys, "capacity", "--n", str(n))
        code, full = run_cli(capsys, "capacity", "--n", str(n), "--no-symmetry")
        sym, full = json.loads(sym), json.loads(full)
        assert code == 0
        assert full["rho"] == sym["rho"] * (len(full["rho"]) // len(sym["rho"]))
        assert len(full["rho"]) == n // (n.bit_length() - 1) * len(sym["rho"])
        assert {k: full[k] for k in ("cap", "cap_exact", "d2", "lemma_g")} == \
            {k: sym[k] for k in ("cap", "cap_exact", "d2", "lemma_g")}

    @pytest.mark.parametrize("argv", [["capacity", "--n", "256"],
                                      ["capacity", "--n", "16", "--no-symmetry"],
                                      ["capacity", "--n", "16", "--oracle"]])
    def test_failed_certificate(self, capsys, monkeypatch, argv):
        perturb_closed_form(monkeypatch, lambda D, y: (D, [y[0] * 2] + y[1:]))
        code, out = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 1
        assert payload["converged"] is False and payload["failed_check"] == "S rho = b"
        assert payload["kkt_max_violation"] > 0
        assert "d2" not in payload

    def test_report_d2_failed_certificate(self, capsys, monkeypatch):
        perturb_closed_form(monkeypatch, lambda D, y: (D, [-v for v in y]))
        code, out = run_cli(capsys, "report", "d2", "--n", "256")
        assert code == 1
        row, = json.loads(out)["table"]
        assert row == {"n": 256, "converged": False, "failed_check": "rho > 0",
                       "kkt_max_violation": row["kkt_max_violation"]}
        assert row["kkt_max_violation"] > 0


class TestRun:
    def test_grid_run(self, capsys, tmp_path):
        config = {
            "experiment": "cex-increasing",
            "grid": {"N": [3, 20], "p": [2]},
            "seed": 7,
            "out": str(tmp_path / "reports"),
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(capsys, "run", str(cfg))
        assert code == 0
        out_dir = tmp_path / "reports"
        cells = sorted(p.name for p in out_dir.glob("*.json"))
        assert len(cells) == 2
        csv_text = (out_dir / "cex-increasing.csv").read_text()
        assert csv_text.count("\n") == 3  # header + two cells
        payload = json.loads((out_dir / cells[1]).read_text())
        assert payload["experiment"] == "cex-increasing"
        assert "runtime_ms" in payload

    def test_deterministic_json(self, capsys, tmp_path):
        config = {
            "experiment": "cex-direct",
            "grid": {"N": [6], "p": [2]},
            "seed": 1,
            "out": str(tmp_path / "r1"),
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg)]) == 0
        first = next((tmp_path / "r1").glob("*.json")).read_bytes()
        config["out"] = str(tmp_path / "r2")
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg)]) == 0
        second = next((tmp_path / "r2").glob("*.json")).read_bytes()
        assert first.replace(b"r1", b"r2") == second or _strip_runtime(first) == _strip_runtime(second)
        capsys.readouterr()

    def test_zero_trials_cell_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"experiment": "verify-inter",
                                   "grid": {"trials": [0]},
                                   "out": str(tmp_path / "reports")}))
        assert main(["run", str(cfg)]) == 2
        assert "trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"experiment": "cex-direct", "grid": {"N": 5}},
        {"experiment": "cex-direct", "grid": {"N": []}},
        {"experiment": "cex-direct", "grid": {"n": [5]}},
        {"experiment": "capacity", "grid": {"n": [4], "bogus": [1]}},
        {"experiment": "cex-direct", "grid": {"N": [5, "five"]}},
        {"experiment": "cex-direct", "grid": {"N": [5, 5.7]}},
        {"experiment": "nope", "grid": {"N": [5]}},
    ])
    def test_bad_grid_rejected_before_any_cell(self, capsys, tmp_path, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**config, "out": str(tmp_path / "reports")}))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("config", [
        5,
        "experiment grid",
        {"experiment": "capacity", "grid": {"n": [4]}, "out": 5},
        {"experiment": ["capacity"], "grid": {"n": [4]}},
        {"experiment": {"name": "capacity"}, "grid": {"n": [4]}},
        # a bool parameter takes only a JSON bool, and no other one takes a bool
        {"experiment": "capacity", "grid": {"n": [16], "no_symmetry": ["false"]}},
        {"experiment": "capacity", "grid": {"n": [16], "oracle": [1]}},
        {"experiment": "verify-phi", "grid": {"trials": [True]}},
        # mode is checked in every cell, in the grid as at the top level
        {"experiment": "verify-l1linf", "grid": {"mode": ["exact", "bogus"], "trials": [3]}},
        {"experiment": "verify-l1linf", "grid": {"trials": [3]}, "mode": "bogus"},
    ])
    def test_malformed_config_rejected_before_any_cell(self, capsys, tmp_path,
                                                       monkeypatch, config):
        monkeypatch.chdir(tmp_path)  # a default out dir would land here
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("config, unknown", [
        ({"experiment": "cex-new23", "grid": {"N": [10]}, "seed": 3}, "seed"),
        ({"experiment": "capacity", "grid": {"n": [4]}, "seed": 3, "mode": "float"},
         "mode, seed"),
        ({"experiment": "cex-increasing", "grid": {"N": [3]}, "mode": "exact"}, "mode"),
        ({"experiment": "capacity", "grid": {"n": [16]}, "tol": 1e-8}, "tol"),
    ])
    def test_shared_key_the_experiment_lacks_is_usage_error(self, capsys, tmp_path,
                                                            config, unknown):
        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({**config, "out": str(tmp_path / "reports")}))
        assert main(["run", str(cfg)]) == 2
        assert f"has no parameter {unknown} " in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_null_shared_key_is_left_out(self, capsys, tmp_path):
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"experiment": "cex-new23", "grid": {"N": [10]},
                                   "mode": None, "seed": None, "tol": None,
                                   "out": str(tmp_path / "reports")}))
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("experiment, grid, config, argv", [
        ("verify-inter", {"trials": [5], "depth": [4]}, {"seed": 3},
         "verify inter --trials 5 --depth 4 --seed 3"),
        ("cex-increasing", {"N": [20], "p": [2.0]}, {}, "cex increasing --N 20 --p 2"),
        ("cex-direct", {"p": [3]}, {}, "cex direct --p 3"),
        ("search-new23", {"p": [1.5], "depth": [6], "budget": [50]}, {"seed": 1},
         "cex search-new23 --p 1.5 --depth 6 --budget 50 --seed 1"),
        ("capacity", {"n": [16], "oracle": [True]}, {"tol": None},
         "capacity --n 16 --oracle"),
    ])
    def test_cell_result_is_command_output(self, capsys, tmp_path, experiment, grid,
                                           config, argv):
        code, out = run_cli(capsys, *argv.split())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": experiment, "grid": grid, **config,
                                   "out": str(tmp_path / "r")}))
        assert main(["run", str(cfg)]) == code
        cell, = (tmp_path / "r").glob("*.json")
        assert json.loads(cell.read_text())["result"] == json.loads(out)
        capsys.readouterr()

    def test_missing_grid_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "cex-direct"}))
        assert main(["run", str(cfg)]) == 2
        cfg.write_text("not json")
        assert main(["run", str(cfg)]) == 2
        capsys.readouterr()


def _strip_runtime(raw: bytes) -> dict:
    payload = json.loads(raw)
    payload.pop("runtime_ms", None)
    return payload


def test_commands_import_no_numpy():
    """The package runs on the standard library alone: a fresh interpreter
    runs the capacity commands without loading numpy."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import contextlib, io, sys\n"
        "import cxlab, cxlab.cli\n"
        "for argv in (['capacity', '--n', '256', '--no-symmetry'],\n"
        "             ['capacity', '--n', '65536'], ['report', 'd2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cxlab.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
