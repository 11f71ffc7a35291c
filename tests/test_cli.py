import csv
import hashlib
import io
import json

import pytest

from dpvqss import cli, entangle
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


def sweep_with_skips(capsys, cfg):
    """Run `dpvqss sweep cfg`; returns its kept rows, its skipped rows and
    its stderr warning lines."""
    code = main(["sweep", cfg])
    captured = capsys.readouterr()
    assert code == 0
    rows = [json.loads(ln) for ln in captured.out.splitlines() if ln]
    warnings = [ln for ln in captured.err.splitlines()
                if ln.startswith("warning: skipping cell")]
    return ([r for r in rows if "skipped" not in r],
            [r for r in rows if "skipped" in r], warnings)


def assert_skipped(skipped, warnings, column, reasons):
    """One skipped row, holding only its cell column and the error, and one
    warning line per dropped cell value, each naming its reason."""
    assert [r[column] for r in skipped] == list(reasons)
    assert len(warnings) == len(reasons)
    for row, warning, (value, reason) in zip(skipped, warnings,
                                             reasons.items()):
        assert set(row) == {column, "skipped"}
        assert reason in row["skipped"]
        assert reason in warning and repr(value) in warning


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

    @pytest.mark.parametrize("command, line", [
        ("run", "adversary.rogues.fixed = 012"),
        ("sweep", "adversary.rogues.fixed = 012\nsweep.protocol.decoys = 0,1"),
    ], ids=["run", "sweep"])
    def test_bad_fixed_literal_fails_at_parse(self, tmp_path, capsys, command,
                                              line):
        # A fixed lie is kept as its bit string, so the literal is checked
        # as the config is read, before any cell or trial runs.
        text = ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 8\n"
                "adversary.rogues.agents = 0\n"
                "adversary.rogues.actions = lie_phase3_report\n"
                f"adversary.rogues.mode = fixed\n{line}\n")
        assert main([command, write(tmp_path, "c.cfg", text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("key 'adversary.rogues.fixed': not a bit-vector literal: '012'"
                in captured.err)
        assert "Traceback" not in captured.err

    def test_integer_lists_and_channel_take_base_prefixes(self):
        # As protocol.* keys do: 0x1 is 1.
        text = ("protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
                "adversary.rogues.agents = 0x1\n"
                "adversary.rogues.actions = lie_phase2_report\n"
                "adversary.eve.kind = intercept_resend\n"
                "adversary.eve.phases = 0x1,0x2\nadversary.eve.channel = 0x1\n")
        plan = parse_config_text(text).plan
        assert plan.rogues.agents == (1,)
        assert plan.eve.phases == (1, 2)
        assert plan.eve.channel == 1

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="protocol.m"):
            parse_config_text("protocol.n = 3\nprotocol.k = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(HONEST_CFG + "\nseed = 1\n")

    def test_duplicate_sweep_key_rejected(self):
        # The second line used to win silently: one decoys = 4 cell.  A plain
        # key and a sweep of it left the plain line dead.
        for lines in ("sweep.protocol.decoys = 0,1\nsweep.protocol.decoys = 4\n",
                      "protocol.decoys = 4\nsweep.protocol.decoys = 0,1\n"):
            with pytest.raises(ConfigError,
                               match="duplicate key 'sweep.protocol.decoys'"):
                parse_config_text(HONEST_CFG + lines)

    @pytest.mark.parametrize("m, w, secret, match", [
        # m = 16, w = 8 needs a 2-byte secret.
        (16, 8, "beefee", "secret has 3 bytes"),
        (16, 8, "be", "secret has 1 bytes"),
        # One nibble fills no whole byte.
        (4, 4, "be", "multiple of 8"),
    ])
    def test_fixed_secret_shape_checked_at_parse(self, m, w, secret, match):
        text = (f"protocol.n = 5\nprotocol.k = 3\nprotocol.m = {m}\n"
                f"protocol.w = {w}\nsecret = {secret}\n")
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)


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

    @pytest.mark.parametrize("extra, key", [
        ("adversary.rogues.agents = 0\n"
         "adversary.rogues.actions = lie_phase2_report\n"
         "adversary.rogues.mode = fixed\nadversary.rogues.fixed = 10110011\n",
         "adversary.rogues.fixed"),
        ("adversary.eve.kind = intercept_resend\nadversary.eve.channel = 9\n",
         "adversary.eve.channel"),
        # `none` and an empty channel used to read as all channels.
        ("adversary.eve.kind = intercept_resend\nadversary.eve.channel = none\n",
         "adversary.eve.channel"),
        ("adversary.eve.kind = intercept_resend\nadversary.eve.channel =\n",
         "adversary.eve.channel"),
        ("adversary.eve.kind = intercept_resend\nadversary.eve.phases =\n",
         "adversary.eve.phases"),
        ("adversary.eve.kind = entangle_measure\nadversary.eve.basis = random\n",
         "adversary.eve.basis"),
    ], ids=["fixed_lie_width", "unsent_eve_channel", "eve_channel_none",
            "eve_channel_empty", "eve_in_no_phase", "random_basis_entangle"])
    def test_unrunnable_plan_rejected_at_parse(self, tmp_path, capsys, extra,
                                               key):
        text = "protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n" + extra
        cfg = write(tmp_path, "plan.cfg", text)
        code = main(["run", cfg])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert key in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("extra, key", [
        ("adversary.rogues.agents = 1,1\n"
         "adversary.rogues.actions = lie_phase3_report\n",
         "adversary.rogues.agents"),
        ("adversary.rogues.agents = 1\nadversary.rogues.actions = "
         "lie_phase3_report,lie_phase3_report\n",
         "adversary.rogues.actions"),
        ("adversary.eve.kind = intercept_resend\nadversary.eve.phases = 1,1\n",
         "adversary.eve.phases"),
    ], ids=["rogue_agents", "rogue_actions", "eve_phases"])
    def test_duplicate_list_entry_rejected(self, extra, key):
        # A repeated entry ran as the single entry does, but rendered twice
        # and changed the config hash.
        text = "protocol.n = 5\nprotocol.k = 3\nprotocol.m = 8\n" + extra
        with pytest.raises(ConfigError, match=f"{key} lists an entry twice"):
            parse_config_text(text)

    @pytest.mark.parametrize("text, flag", [
        ("seed = -1", []), ("", ["--seed", "-1"]),
    ], ids=["key", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, text, flag):
        cfg = write(tmp_path, "s.cfg", HONEST_CFG.replace("seed = 42", text))
        code = main(["run", cfg, *flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "seed" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value, audited", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("False", False), ("no", False),
    ])
    def test_audit_values(self, value, audited):
        text = "protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
        assert parse_config_text(text + f"audit = {value}\n").values["audit"] is audited

    @pytest.mark.parametrize("value", ["on", "ture", "enable", ""])
    def test_unknown_audit_value_rejected(self, tmp_path, capsys, value):
        # Read as false, these ran unaudited with "leakage": null.
        text = "protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
        cfg = write(tmp_path, "a.cfg", text + f"audit = {value}\n")
        code = main(["run", cfg])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "audit" in captured.err
        assert "Traceback" not in captured.err

    def test_trial_errors_propagate(self, tmp_path, capsys, monkeypatch):
        def broken_decode(views, cfg, m):
            raise ValueError("decoder defect")

        monkeypatch.setattr("dpvqss.protocol.decode_views", broken_decode)
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        with pytest.raises(ValueError, match="decoder defect"):
            main(["run", cfg, "--trials", "2"])
        assert capsys.readouterr().out == ""

    def test_run_streams_each_trial(self, tmp_path, monkeypatch):
        # Each trial's line is written as the trial finishes, so a defect
        # in trial 2 leaves the lines of trials 0 and 1 in --out.
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        whole = tmp_path / "whole.jsonl"
        assert main(["run", cfg, "--trials", "4", "--out", str(whole)]) == 0
        run_protocol = cli.run_protocol

        def broken_third(*args, trial, **kwargs):
            if trial == 2:
                raise ValueError("trial defect")
            return run_protocol(*args, trial=trial, **kwargs)

        monkeypatch.setattr(cli, "run_protocol", broken_third)
        out = tmp_path / "x.jsonl"
        with pytest.raises(ValueError, match="trial defect"):
            main(["run", cfg, "--trials", "4", "--out", str(out)])
        lines = whole.read_text().splitlines(keepends=True)
        assert out.read_text() == "".join(lines[:2])

    def test_unwritable_out_fails_before_any_trial(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("dpvqss.cli.run_protocol", no_trials)
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        out = str(tmp_path / "missing" / "x.jsonl")
        code = main(["run", cfg, "--out", out])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and out in captured.err

    def test_fixed_secret_from_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", HONEST_CFG + "\nsecret = beef\n")
        main(["run", cfg, "--trials", "2"])
        out = capsys.readouterr().out
        for ln in out.splitlines():
            assert json.loads(ln)["secret"] == "beef"


class TestOracleCheck:
    def test_small_cases_pass(self, capsys):
        code = main(["oracle-check", "--n", "2", "--m", "1",
                     "--secrets", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("max_deviation=") == 2
        assert "PASS" in out

    def test_negative_seed_rejected(self, capsys):
        code = main(["oracle-check", "--n", "2", "--m", "1", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "seed" in captured.err
        assert "Traceback" not in captured.err

    def test_capacity_refusal(self, capsys):
        code = main(["oracle-check", "--n", "4", "--m", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bound" in err

    def test_case_function_reports_max_deviation(self):
        results = oracle_check_case(2, 1, 1, seed=5)
        assert len(results) == 1
        assert results[0]["max_deviation"] <= 1e-12

    def test_a_wrong_law_fails_the_check(self, monkeypatch, capsys):
        def without_xor_fixup(r, p, reads, draws):
            # The read law with no taps, minus its fix-up of the last
            # register: every register uniform and independent.
            registers = [next(draws) for _ in range(r)]
            next(draws)
            return registers

        monkeypatch.setattr(entangle, "_read_law", without_xor_fixup)
        results = oracle_check_case(2, 1, 2, seed=5)
        assert all(res["max_deviation"] > 1e-12 for res in results)
        code = main(["oracle-check", "--n", "2", "--m", "1", "--secrets", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[-1].endswith("FAIL")


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

    def test_invalid_cells_skipped(self, tmp_path, capsys):
        text = """
protocol.n = 4
protocol.m = 8
trials = 2
seed = 1
sweep.protocol.k = 1,2,3
"""
        cfg = write(tmp_path, "sweep.cfg", text)
        kept, skipped, warnings = sweep_with_skips(capsys, cfg)
        # k = 1 and k = 2 violate the majority threshold and are skipped.
        assert [r["cell.protocol.k"] for r in kept] == [3]
        assert_skipped(skipped, warnings, "cell.protocol.k",
                       {1: "need 2 <= k <= n", 2: "need k > n/2"})

    def test_unsplittable_secret_cells_skipped(self, tmp_path, capsys):
        text = """
protocol.n = 3
protocol.k = 2
protocol.w = 4
trials = 2
seed = 1
sweep.protocol.m = 4,6,8
"""
        cfg = write(tmp_path, "sweep.cfg", text)
        kept, skipped, warnings = sweep_with_skips(capsys, cfg)
        # m = 4 gives one nibble and m = 6 a nibble and a half: no whole bytes.
        assert [r["cell.protocol.m"] for r in kept] == [8]
        assert_skipped(skipped, warnings, "cell.protocol.m",
                       {4: "multiple of 8, got m=4", 6: "multiple of 8, got m=6"})

    @pytest.mark.parametrize("extra, swept, kept, reasons", [
        ("adversary.rogues.agents = 0\n"
         "adversary.rogues.actions = lie_phase3_oracle\n"
         "adversary.rogues.mode = fixed\nadversary.rogues.fixed = 10110011\n"
         "sweep.protocol.m = 8,16\n", "cell.protocol.m", [8],
         {16: "adversary.rogues.fixed has 8 bits"}),
        ("protocol.m = 8\nadversary.eve.kind = intercept_resend\n"
         "adversary.eve.phases = 1\nsweep.adversary.eve.channel = 0,9\n",
         "cell.adversary.eve.channel", [0],
         {9: "adversary.eve.channel 9 is not sent"}),
        ("protocol.m = 8\nadversary.eve.phases =\n"
         "sweep.adversary.eve.kind = none,intercept_resend\n",
         "cell.adversary.eve.kind", ["none"],
         {"intercept_resend": "adversary.eve.phases is empty"}),
        ("protocol.m = 8\nadversary.eve.basis = random\n"
         "sweep.adversary.eve.kind = "
         "none,intercept_resend,measure_resend,entangle_measure,pns\n",
         "cell.adversary.eve.kind", ["none", "intercept_resend"],
         {kind: f"adversary.eve.basis = random needs adversary.eve.kind = "
                f"intercept_resend, got {kind}"
          for kind in ("measure_resend", "entangle_measure", "pns")}),
    ], ids=["fixed_lie_width", "unsent_eve_channel", "eve_in_no_phase",
            "random_basis_non_intercept"])
    def test_unrunnable_plan_cells_skipped(self, tmp_path, capsys, extra,
                                           swept, kept, reasons):
        text = "protocol.n = 3\nprotocol.k = 2\ntrials = 2\nseed = 1\n" + extra
        cfg = write(tmp_path, "sweep.cfg", text)
        kept_rows, skipped, warnings = sweep_with_skips(capsys, cfg)
        assert [r[swept] for r in kept_rows] == kept
        assert_skipped(skipped, warnings, swept, reasons)

    def test_skipped_cells_keep_the_csv_columns(self, tmp_path, capsys):
        text = ("protocol.n = 4\nprotocol.m = 8\n"
                "trials = 2\nseed = 1\nsweep.protocol.k = 2,3\n")
        cfg = write(tmp_path, "sweep.cfg", text)
        assert main(["sweep", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("cell.protocol.k,skipped,trials,abort_rate,"
                            "decoy_abort_rate,detection_rate,recovery_rate,"
                            "ambiguity_rate,eta1,eta2,eta3")
        assert lines[1] == '2,"need k > n/2, got k=2, n=4",,,,,,,,,'
        assert lines[2].startswith("3,,2,")

    def test_unwritable_out_fails_before_any_cell(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("dpvqss.cli.run_protocol", no_trials)
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
        out = str(tmp_path / "missing" / "x.json")
        code = main(["sweep", cfg, "--out", out])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and out in captured.err

    def test_trial_errors_are_not_skipped_cells(self, tmp_path, capsys,
                                                monkeypatch):
        def broken_decode(views, cfg, m):
            raise ValueError("decoder defect")

        monkeypatch.setattr("dpvqss.protocol.decode_views", broken_decode)
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

    @pytest.mark.parametrize("text, flag", [
        ("seed = -1", []), ("seed = 7", ["--seed", "-1"]),
    ], ids=["key", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, text, flag):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG.replace("seed = 7", text))
        code = main(["sweep", cfg, *flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "seed" in captured.err
        assert "Traceback" not in captured.err

    def test_csv_format(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG.replace("trials = 200",
                                                             "trials = 5"))
        main(["sweep", cfg, "--format", "csv"])
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("cell.protocol.decoys,")


    @pytest.mark.parametrize("line, column, values", [
        ("sweep.secret = aa,bb", "cell.secret", ["aa", "bb"]),
        ("adversary.rogues.agents = 0\n"
         "adversary.rogues.actions = lie_phase3_report\n"
         "adversary.rogues.mode = fixed\n"
         "sweep.adversary.rogues.fixed = 00000001,10000000",
         "cell.adversary.rogues.fixed", ["00000001", "10000000"]),
    ], ids=["secret", "fixed_lie"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_swept_values_render_as_the_report_does(self, tmp_path, capsys,
                                                    line, column, values, fmt):
        # A secret reads as hex, a fixed lie as its MSB-first bits; both
        # used to die in JSON and read b'\xaa' in CSV.
        text = ("protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
                f"trials = 2\n{line}\n")
        cfg = write(tmp_path, "sweep.cfg", text)
        assert main(["sweep", cfg, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            rows = [json.loads(ln) for ln in out.splitlines()]
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
        assert [row[column] for row in rows] == values

    @pytest.mark.parametrize("fmt, values", [
        ("json", [[1], [3]]), ("csv", ["[1]", "[3]"]),
    ])
    def test_swept_tuples_render_as_lists(self, tmp_path, capsys, fmt,
                                          values):
        # CSV read "(1,)", Python's repr of the parsed tuple.
        text = ("protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
                "trials = 2\nadversary.eve.kind = measure_resend\n"
                "sweep.adversary.eve.phases = 1,3\n")
        cfg = write(tmp_path, "sweep.cfg", text)
        assert main(["sweep", cfg, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            rows = [json.loads(ln) for ln in out.splitlines()]
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["cell.adversary.eve.phases"] for row in rows] == values

    def test_skip_warning_shows_rendered_values(self, tmp_path, capsys):
        # The warning read {'secret': b'\xaa\xbb'} while the row read aabb.
        text = ("protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
                "trials = 2\nsweep.secret = aa,aabb\n")
        cfg = write(tmp_path, "sweep.cfg", text)
        kept, skipped, warnings = sweep_with_skips(capsys, cfg)
        assert [r["cell.secret"] for r in kept] == ["aa"]
        assert [r["cell.secret"] for r in skipped] == ["aabb"]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: skipping cell {'secret': 'aabb'}: ")

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

    # An Eve cell that aborts nearly every trial, and colluding fixed liars
    # whose cell proceeds with some ambiguous decodes.
    @pytest.mark.parametrize("lines", [
        ("protocol.n = 5", "protocol.k = 3", "protocol.m = 16",
         "adversary.eve.kind = intercept_resend"),
        ("protocol.n = 5", "protocol.k = 3", "protocol.m = 8",
         "adversary.rogues.agents = 3,4",
         "adversary.rogues.actions = lie_phase3_oracle",
         "adversary.rogues.mode = fixed", "adversary.rogues.fixed = 10110011"),
    ], ids=["eve_aborts", "liars_proceed"])
    def test_sweep_cell_stats_equal_run_and_report(self, tmp_path, capsys,
                                                   lines):
        # A sweep tallies each RunReport without rendering it; `report`
        # parses the lines `run` wrote.  One cell and `run` with the same
        # config, seed and trials read the same stats.
        base = "\n".join(lines) + "\ntrials = 40\nseed = 3\n"
        run_cfg = write(tmp_path, "run.cfg", base + "protocol.decoys = 16\n")
        sweep_cfg = write(tmp_path, "sweep.cfg",
                          base + "sweep.protocol.decoys = 16\n")
        jsonl = tmp_path / "runs.jsonl"
        assert main(["run", run_cfg, "--out", str(jsonl)]) in (0, 2)
        assert main(["report", str(jsonl)]) == 0
        reported = json.loads(capsys.readouterr().out)
        rc = parse_config_text(open(run_cfg).read())
        tallied = cli.empirical_stats([cli._tallied(rep) for rep in
                                       cli._run_trials(rc.protocol, rc.plan,
                                                       40, 3, None)])
        assert tallied == reported
        assert main(["sweep", sweep_cfg]) == 0
        (row,) = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        rates = cli._rates(reported)
        assert {k: row[k] for k in rates} == rates
        assert 0 < rates["detection_rate"]

    def test_report_missing_file(self, capsys):
        code = main(["report", "/nonexistent/file.jsonl"])
        assert code == 1

    @pytest.mark.parametrize("bad", [
        "[1,2]", '"text"', "{not json", '{"schema": "dpvqss.sweep"}',
        '{"trials": 2}',
    ], ids=["list", "string", "not_json", "wrong_schema", "no_schema"])
    def test_report_rejects_lines_that_are_not_run_reports(self, tmp_path,
                                                           capsys, bad):
        cfg = write(tmp_path, "honest.cfg", HONEST_CFG)
        jsonl = tmp_path / "runs.jsonl"
        main(["run", cfg, "--trials", "2", "--out", str(jsonl)])
        with jsonl.open("a") as fh:
            fh.write("\n" + bad + "\n")
        code = main(["report", str(jsonl)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{jsonl}:4: not a dpvqss.run.v1 report" in captured.err

    def test_report_rejects_sweep_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG.replace("trials = 200",
                                                             "trials = 2"))
        rows = tmp_path / "sweep.json"
        assert main(["sweep", cfg, "--out", str(rows)]) == 0
        code = main(["report", str(rows)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"{rows}:1: not a dpvqss.run.v1 report" in captured.err


class TestUsageErrors:
    def test_unknown_subcommand_is_error_not_abort(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag, reason", [
        ("run", ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ("run", ["--trials", "0"], "trials must be at least 1, got 0"),
        ("sweep", ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ("sweep", ["--trials", "-2"], "trials must be at least 1, got -2"),
        ("oracle-check", ["--seed", "-1"], "seed must be nonnegative, got -1"),
        ("oracle-check", ["--n", "0"], "n must be at least 1, got 0"),
        ("oracle-check", ["--n", "-1"], "n must be at least 1, got -1"),
        ("oracle-check", ["--m", "0"], "m must be at least 1, got 0"),
        ("oracle-check", ["--secrets", "0"],
         "secrets must be at least 1, got 0"),
        ("metrics", ["--n", "1"], "n must be at least 2, got 1"),
        ("metrics", ["--m", "0"], "m must be at least 1, got 0"),
        ("metrics", ["--n", "x"],
         "invalid literal for int() with base 0: 'x'"),
        ("metrics", ["--n", ","], "n needs at least one value, got ','"),
    ], ids=["run_seed", "run_trials", "sweep_seed", "sweep_trials",
            "oracle_check_seed", "oracle_check_n", "oracle_check_negative_n",
            "oracle_check_m", "oracle_check_secrets", "metrics_n_one",
            "metrics_m_zero", "metrics_n_not_int", "metrics_n_empty"])
    def test_bad_flag_prints_its_reason(self, tmp_path, capsys, command, flag,
                                        reason):
        if command == "oracle-check":
            # A later flag overrides the default --n or --m.
            argv = ["oracle-check", "--n", "2", "--m", "1", *flag]
        elif command == "metrics":
            argv = ["metrics", *flag]
        else:
            cfg = SWEEP_CFG if command == "sweep" else HONEST_CFG
            argv = [command, write(tmp_path, "c.cfg", cfg), *flag]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag[0]}: {reason}" in captured.err
        assert "_parse_" not in captured.err
        assert "Traceback" not in captured.err


# The four benchmark workloads' config texts, inlined so that a change to
# the benchmark does not move these pins, and runs that no workload makes.
PINNED_CONFIGS = {
    "honest": ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
               "protocol.w = 8\nprotocol.decoys = 16\n"),
    "liar": ("protocol.n = 9\nprotocol.k = 5\nprotocol.m = 16\n"
             "adversary.rogues.agents = 8\n"
             "adversary.rogues.actions = lie_phase3_oracle,lie_phase3_report\n"
             "adversary.rogues.mode = random\n"),
    "eve_tap": ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 8\n"
                "protocol.decoys = 0\n"
                "adversary.eve.kind = entangle_measure\n"
                "adversary.eve.phases = 1\nadversary.eve.channel = all\n"),
    "eve_decoy": ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
                  "protocol.decoys = 16\n"
                  "adversary.eve.kind = intercept_resend\n"
                  "adversary.eve.basis = random\nadversary.eve.phases = 1,2,3\n"),
    # A liar at agent 0 spoils every view's first k claims.
    "liar_first": ("protocol.n = 15\nprotocol.k = 8\nprotocol.m = 16\n"
                   "adversary.rogues.agents = 0\n"
                   "adversary.rogues.actions = "
                   "lie_phase3_oracle,lie_phase3_report\n"
                   "adversary.rogues.mode = random\n"),
    # A fixed lie from agent 0: every trial proceeds.
    "fixed_first": ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 8\n"
                    "adversary.rogues.agents = 0\n"
                    "adversary.rogues.actions = "
                    "lie_phase3_oracle,lie_phase3_report\n"
                    "adversary.rogues.mode = fixed\n"
                    "adversary.rogues.fixed = 10110011\n"),
    # An audited run with random-basis taps on every phase.
    "audited": ("protocol.n = 3\nprotocol.k = 2\nprotocol.m = 8\n"
                "protocol.decoys = 0\n"
                "adversary.eve.kind = intercept_resend\n"
                "adversary.eve.basis = random\n"
                "adversary.eve.phases = 1,2,3\naudit = true\n"),
    # Past every benchmark workload's n = 9: an honest run at n = 63, and
    # liars at both ends of n = 31.
    "scale_honest": "protocol.n = 63\nprotocol.k = 32\nprotocol.m = 16\n",
    "scale_liars": ("protocol.n = 31\nprotocol.k = 16\nprotocol.m = 16\n"
                    "adversary.rogues.agents = 0,30\n"
                    "adversary.rogues.actions = "
                    "lie_phase3_oracle,lie_phase3_report\n"
                    "adversary.rogues.mode = random\n"),
    # A tap on phase 3 only: two untapped rounds skip building their
    # registers before a tapped one draws.
    "eve_phase3": ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
                   "protocol.decoys = 0\n"
                   "adversary.eve.kind = intercept_resend\n"
                   "adversary.eve.phases = 3\n"),
    # A third-party source with phase-1 and phase-2 liars, whose registers
    # untapped rounds build.
    "third_party_liars": ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
                          "protocol.source = third_party\n"
                          "adversary.rogues.agents = 1,3\n"
                          "adversary.rogues.actions = "
                          "lie_phase1_comms,lie_phase2_report\n"
                          "adversary.rogues.mode = random\n"),
    # One decoy per channel and a tap on phase 3 only: a decoy abort names
    # its pair, a list, in the abort detail and in the detection event.
    "eve_phase3_decoy": ("protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
                         "protocol.decoys = 1\n"
                         "adversary.eve.kind = intercept_resend\n"
                         "adversary.eve.phases = 3\n"),
}


class TestPinnedReports:
    """Same config and seed, same bytes: the first 16 hex digits of the
    sha256 of `dpvqss run --seed 7 --trials 20` output at version 0.9.0.
    A change that alters the random stream or the report on purpose bumps
    the version and updates these pins."""

    @pytest.mark.parametrize("name, digest", [
        ("honest", "065a33cab5c8998c"),
        ("liar", "ec6cf2d05538ac38"),
        ("eve_tap", "2847e7e1d03d8357"),
        ("eve_decoy", "9378562dc4e9e950"),
        ("liar_first", "f3b3269d0559ebfc"),
        ("fixed_first", "29587d79ce9ddeca"),
        ("audited", "fe11d02d72f0b286"),
        ("scale_honest", "4712fdd48f51e206"),
        ("scale_liars", "dd571dded4ec5ee2"),
        ("eve_phase3", "8c2b740ccb652548"),
        ("third_party_liars", "d72b95a0547ce353"),
        ("eve_phase3_decoy", "916a5010c2ea7dbf"),
    ], ids=["honest", "liar", "eve_tap", "eve_decoy", "liar_first",
            "fixed_first", "audited", "scale_honest", "scale_liars",
            "eve_phase3", "third_party_liars", "eve_phase3_decoy"])
    def test_report_digest(self, tmp_path, name, digest):
        cfg = write(tmp_path, f"{name}.cfg", PINNED_CONFIGS[name])
        out = tmp_path / "runs.jsonl"
        code = main(["run", cfg, "--seed", "7", "--trials", "20",
                     "--out", str(out)])
        assert code in (0, 2)
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest
