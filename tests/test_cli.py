"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.kb import KnowledgeBase


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fragment in ("rule-based", "ituned", "ottertune", "dbms", "E1", "E13"):
            assert fragment in out


class TestTune:
    def test_tune_session(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "olap",
            "--tuner", "rule-based", "--runs", "2", "--show-config",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_unknown_workload(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "nope", "--tuner", "default",
        ])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_cheap_tuner_on_spark(self, capsys):
        rc = main([
            "tune", "--system", "spark", "--workload", "sort",
            "--tuner", "cost-model", "--runs", "4",
        ])
        assert rc == 0
        assert "best" in capsys.readouterr().out


class TestSeedFlag:
    @pytest.mark.parametrize("command", [
        ["tune", "--system", "dbms", "--workload", "htap", "--tuner", "rrs",
         "--runs", "4"],
        ["fleet", "--epochs", "1"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_refuses_what_is_not_a_non_negative_integer(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--seed", seed])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: argument --seed: expected a non-negative integer, "
                f"got {seed!r}") in captured.err


class TestServeFlags:
    def _refused(self, capsys, monkeypatch, tmp_path, argv):
        """Stderr of ``serve`` with ``argv``, which must exit 2 before
        the server starts or a KB file is created."""
        def started(*args, **kwargs):
            raise AssertionError(f"serve started with {argv}")

        monkeypatch.setattr("repro.kb.service.serve_forever", started)
        kb_path = tmp_path / "serve.kb"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--kb", str(kb_path), *argv])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not kb_path.exists()
        return captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--max-inflight", "-3"),
        ("--max-inflight", "0"),
    ])
    def test_refuses_what_is_not_a_positive_integer(
        self, capsys, monkeypatch, tmp_path, flag, value
    ):
        err = self._refused(capsys, monkeypatch, tmp_path, [flag, value])
        assert (f"error: argument {flag}: expected a positive integer, "
                f"got {value!r}") in err

    @pytest.mark.parametrize("value", ["70000", "-1", "x"])
    def test_refuses_a_port_outside_0_to_65535(
        self, capsys, monkeypatch, tmp_path, value
    ):
        err = self._refused(capsys, monkeypatch, tmp_path, ["--port", value])
        assert (f"error: argument --port: expected a port in 0-65535, "
                f"got {value!r}") in err

    @pytest.mark.parametrize("flag", ["--workers", "--queue-limit"])
    def test_retired_pool_flags_are_unrecognized(
        self, capsys, monkeypatch, tmp_path, flag
    ):
        err = self._refused(capsys, monkeypatch, tmp_path, [flag, "8"])
        assert f"unrecognized arguments: {flag} 8" in err


class TestTuneKnowledgeBase:
    def test_save_then_warm_start(self, capsys, tmp_path):
        kb_path = str(tmp_path / "tuning.kb")
        rc = main([
            "tune", "--system", "dbms", "--workload", "olap",
            "--tuner", "ituned", "--runs", "8", "--seed", "1",
            "--save", kb_path,
        ])
        assert rc == 0
        assert "saved" in capsys.readouterr().out

        rc = main([
            "tune", "--system", "dbms", "--workload", "htap",
            "--tuner", "ituned", "--runs", "8", "--seed", "1",
            "--warm-start", kb_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warm start" in out
        assert "prior observations" in out

    def test_warm_start_with_empty_kb_still_tunes(self, capsys, tmp_path):
        kb_path = str(tmp_path / "empty.kb")
        KnowledgeBase(kb_path).close()
        rc = main([
            "tune", "--system", "dbms", "--workload", "olap",
            "--tuner", "rule-based", "--runs", "2",
            "--warm-start", kb_path,
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "best" in captured.out
        assert (
            "note: rule-based does not support warm starts; "
            "the prior will be ignored" in captured.err
        )


    def test_warm_start_from_a_missing_path_exits_2_and_creates_nothing(
        self, capsys, tmp_path
    ):
        kb_path = tmp_path / "typo.kb"
        rc = main([
            "tune", "--system", "dbms", "--workload", "htap",
            "--tuner", "ituned", "--runs", "2",
            "--warm-start", str(kb_path),
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no knowledge base at {str(kb_path)!r}\n"
        assert captured.out == ""
        assert not kb_path.exists()


class TestFleetCheckpoint:
    def test_resume_under_other_chaos_exits_2(self, capsys, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        args = ["fleet", "--tenants", "2", "--checkpoint", ckpt]
        assert main(args + ["--epochs", "1"]) == 0
        capsys.readouterr()
        assert main(args + ["--epochs", "2", "--chaos", "0.2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint has chaos_intensity=0.0")


class TestExperiment:
    def test_quick_experiment(self, capsys):
        assert main(["experiment", "E3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[E3]" in out and "worst/best" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_case_insensitive_id(self, capsys):
        assert main(["experiment", "e3", "--quick"]) == 0


class TestSweep:
    def test_sweep_prints_grid(self, capsys):
        rc = main([
            "sweep", "--system", "hadoop", "--workload", "terasort",
            "--knob", "mapreduce_job_reduces", "--levels", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("s") > 3  # runtimes printed

    def test_unknown_knob(self, capsys):
        rc = main([
            "sweep", "--system", "dbms", "--workload", "olap", "--knob", "bogus",
        ])
        assert rc == 2
        assert "unknown knob" in capsys.readouterr().err


class TestTuneMultiFidelity:
    def test_fidelity_flags_enable_screening(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "htap",
            "--tuner", "cem", "--runs", "16", "--seed", "3",
            "--fidelity-rungs", "2", "--fidelity-min", "0.25",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "multi-fidelity: ladder 0.25/1" in out
        assert "screening runs" in out
        assert "charged" in out

    def test_fidelity_defaults_off(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "htap",
            "--tuner", "cem", "--runs", "8", "--seed", "3",
        ])
        assert rc == 0
        assert "multi-fidelity" not in capsys.readouterr().out

    def test_fidelity_rejected_for_non_search_tuner(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "htap",
            "--tuner", "rule-based", "--runs", "4",
            "--fidelity-rungs", "2",
        ])
        assert rc == 2
        assert "multi-fidelity" in capsys.readouterr().err
