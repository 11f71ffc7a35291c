import json

import pytest

from dpvqss.cli import (
    ConfigError,
    main,
    oracle_check_case,
    parse_config_text,
)

HONEST_CFG = """
# honest baseline
protocol.n = 5
protocol.k = 3
protocol.m = 16
trials = 30
seed = 42
"""

ROGUE_CFG = """
protocol.n = 5
protocol.k = 3
protocol.m = 16
adversary.rogues.agents = 1
adversary.rogues.actions = lie_phase2_report
trials = 5
seed = 9
"""

SWEEP_CFG = """
protocol.n = 3
protocol.k = 2
protocol.m = 8
adversary.eve.kind = intercept_resend
adversary.eve.phases = 1
adversary.eve.channel = 0
trials = 200
seed = 7
sweep.protocol.decoys = 1,2,4,8,16
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_full_round_trip(self):
        rc = parse_config_text(HONEST_CFG)
        assert rc.protocol.n == 5
        assert rc.trials == 30
        assert rc.seed == 42
        assert rc.plan.eve.kind == "none"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="protocol.qubits"):
            parse_config_text(HONEST_CFG + "\nprotocol.qubits = 9\n")

    def test_threshold_constraint_checked_at_parse(self):
        bad = HONEST_CFG.replace("protocol.k = 3", "protocol.k = 2")
        with pytest.raises(ConfigError, match="k"):
            parse_config_text(bad)

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="protocol.n"):
            parse_config_text(HONEST_CFG.replace("protocol.n = 5",
                                                 "protocol.n = five"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="protocol.m"):
            parse_config_text("protocol.n = 3\nprotocol.k = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(HONEST_CFG + "\nseed = 1\n")


class TestRun:
    def test_honest_run_exit_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        code = main(["run", cfg, "--trials", "10"])
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert code == 0
        assert len(lines) == 10
        for ln in lines:
            rec = json.loads(ln)
            assert rec["verdict"] == "proceed"
            assert rec["seed"] == 42

    def test_rogue_config_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "rogue.cfg", ROGUE_CFG)
        code = main(["run", cfg])
        capsys.readouterr()
        assert code == 2

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", HONEST_CFG + "\nbogus.key = 1\n")
        code = main(["run", cfg])
        err = capsys.readouterr().err
        assert code == 1
        assert "bogus.key" in err

    def test_byte_identical_outputs(self, tmp_path):
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["run", cfg, "--trials", "5", "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--trials", "5", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        main(["run", cfg, "--trials", "3", "--seed", "1", "--out", str(out_a)])
        main(["run", cfg, "--trials", "3", "--seed", "2", "--out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()

    @pytest.mark.parametrize("text, flag", [
        ("trials = -3", []), ("trials = 0", []), ("", ["--trials", "0"]),
        ("", ["--trials", "-2"]),
    ], ids=["key_negative", "key_zero", "flag_zero", "flag_negative"])
    def test_nonpositive_trials_rejected(self, tmp_path, capsys, text, flag):
        cfg = write(tmp_path, "t.cfg", HONEST_CFG.replace("trials = 30", text))
        code = main(["run", cfg, *flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "trials" in captured.err

    def test_fixed_secret_from_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", HONEST_CFG + "\nsecret = beef\n")
        main(["run", cfg, "--trials", "2"])
        out = capsys.readouterr().out
        for ln in out.splitlines():
            assert json.loads(ln)["secret"] == "beef"


class TestOracleCheck:
    def test_small_cases_pass(self, capsys):
        code = main(["oracle-check", "--n", "2", "--m", "1",
                     "--shots", "4000", "--secrets", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_capacity_refusal(self, capsys):
        code = main(["oracle-check", "--n", "4", "--m", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bound" in err

    def test_case_function_reports_violations_and_p(self):
        results = oracle_check_case(2, 1, 2000, 1, seed=5)
        assert results[0]["violations"] == 0
        assert results[0]["p_value"] > 0.001


class TestSweep:
    def test_detection_monotone_in_decoys(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
        code = main(["sweep", cfg])
        out = capsys.readouterr().out
        assert code == 0
        rows = [json.loads(ln) for ln in out.splitlines() if ln]
        assert [r["cell.protocol.decoys"] for r in rows] == [1, 2, 4, 8, 16]
        rates = [r["decoy_abort_rate"] for r in rows]
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]

    def test_deterministic_output_files(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG.replace("trials = 200",
                                                             "trials = 20"))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["sweep", cfg, "--out", str(out_a)]) == 0
        assert main(["sweep", cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_invalid_cells_skipped(self, tmp_path, capsys, caplog):
        text = """
protocol.n = 4
protocol.k = 3
protocol.m = 8
trials = 2
seed = 1
sweep.protocol.k = 1,2,3
"""
        cfg = write(tmp_path, "sweep.cfg", text)
        code = main(["sweep", cfg])
        out = capsys.readouterr().out
        rows = [json.loads(ln) for ln in out.splitlines() if ln]
        assert code == 0
        # k = 1 and k = 2 violate the majority threshold and are skipped.
        assert [r["cell.protocol.k"] for r in rows] == [3]

    def test_unsplittable_secret_cells_skipped(self, tmp_path, capsys):
        text = """
protocol.n = 3
protocol.k = 2
protocol.m = 8
protocol.w = 4
trials = 2
seed = 1
sweep.protocol.m = 4,6,8
"""
        cfg = write(tmp_path, "sweep.cfg", text)
        code = main(["sweep", cfg])
        rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines() if ln]
        assert code == 0
        # m = 4 gives one nibble (no whole bytes); w = 4 does not divide 6.
        assert [r["cell.protocol.m"] for r in rows] == [8]

    def test_trial_errors_are_not_skipped_cells(self, tmp_path, capsys,
                                                monkeypatch):
        def broken_decode(claimed, cfg):
            raise ValueError("decoder defect")

        monkeypatch.setattr("dpvqss.protocol.robust_decode", broken_decode)
        text = """
protocol.n = 3
protocol.k = 2
protocol.m = 8
trials = 2
seed = 1
sweep.protocol.decoys = 0,1
"""
        cfg = write(tmp_path, "sweep.cfg", text)
        with pytest.raises(ValueError, match="decoder defect"):
            main(["sweep", cfg])
        assert capsys.readouterr().out == ""

    def test_eta_columns_are_exact(self, tmp_path, capsys):
        text = """
protocol.n = 3
protocol.k = 2
protocol.m = 8
trials = 2
seed = 1
sweep.protocol.m = 8,16
"""
        cfg = write(tmp_path, "sweep.cfg", text)
        main(["sweep", cfg])
        rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines() if ln]
        assert rows[0]["eta1"] == "24/97"
        assert rows[0]["eta2"] == "8/33"
        assert rows[0]["eta3"] == "8/9"
        assert rows[1]["eta1"] == "48/193"

    @pytest.mark.parametrize("line", [
        "sweep.seed = 1,2", "sweep.trials = 2,7", "sweep.out = a,b",
        "sweep.audit = 0,1", "audit = true",
    ])
    def test_per_run_keys_rejected(self, line):
        text = "protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
        text += "sweep.protocol.decoys = 0,1\n" + line + "\n"
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)

    @pytest.mark.parametrize("text, flag", [
        ("trials = -3", []), ("trials = 5", ["--trials", "0"]),
    ], ids=["key_negative", "flag_zero"])
    def test_nonpositive_trials_rejected(self, tmp_path, capsys, text, flag):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG.replace("trials = 200", text))
        code = main(["sweep", cfg, *flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "trials" in captured.err

    def test_csv_format(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG.replace("trials = 200",
                                                             "trials = 5"))
        main(["sweep", cfg, "--format", "csv"])
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("cell.protocol.decoys,")


class TestMetricsAndReport:
    def test_metrics_table(self, capsys):
        code = main(["metrics", "--n", "3", "--m", "4", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert "12/49" in out
        assert "4/17" in out

    def test_report_aggregation(self, tmp_path, capsys):
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        jsonl = tmp_path / "runs.jsonl"
        main(["run", cfg, "--trials", "8", "--out", str(jsonl)])
        code = main(["report", str(jsonl)])
        out = capsys.readouterr().out
        stats = json.loads(out)
        assert code == 0
        assert stats["trials"] == 8
        assert stats["abort"]["rate"] == 0.0
        assert stats["recovery"]["rate"] == 1.0

    def test_report_csv_columns_match_sweep_rows(self, tmp_path, capsys):
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        jsonl = tmp_path / "runs.jsonl"
        main(["run", cfg, "--trials", "3", "--out", str(jsonl)])
        code = main(["report", str(jsonl), "--format", "csv"])
        header = capsys.readouterr().out.splitlines()[0]
        assert code == 0
        assert header == ("trials,abort_rate,decoy_abort_rate,detection_rate,"
                          "recovery_rate,ambiguity_rate")

    def test_report_missing_file(self, capsys):
        code = main(["report", "/nonexistent/file.jsonl"])
        assert code == 1


class TestUsageErrors:
    def test_unknown_subcommand_is_error_not_abort(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()
