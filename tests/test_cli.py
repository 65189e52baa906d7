import json

import pytest

from cxlab.cli import main


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

    def test_mode_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["cex", "direct", "--N", "30", "--mode", "float"])
        assert exc.value.code == 2

    def test_bad_p_is_usage_error(self, capsys):
        code = main(["cex", "p-less-2", "--k", "4", "--p", "3"])
        assert code == 2


class TestCapacity:
    def test_n16_with_oracle(self, capsys):
        code, out = run_cli(capsys, "capacity", "--n", "16", "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["oracle"]["rel_error"] <= 1e-6

    def test_n65536(self, capsys):
        code, out = run_cli(capsys, "capacity", "--n", "65536")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["lemma_g"]["symmetric_j"]
        assert len(payload["rho"]) == 17

    def test_oracle_bound_checked_before_build(self, capsys, monkeypatch):
        from cxlab import capacity

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


class TestRun:
    def test_grid_run(self, capsys, tmp_path):
        config = {
            "experiment": "cex-increasing",
            "grid": {"N": [3, 20], "p": [2]},
            "mode": "exact",
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
            "mode": "exact",
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
