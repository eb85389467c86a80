"""Tests for the CLI and the trace CSV loader."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.dataframe import BooleanColumn, ColumnTable, write_csv
from repro.traces import PhillyConfig, generate_philly, philly_preprocessor
from repro.traces.loader import load_trace, save_trace


class TestLoader:
    def test_roundtrip_preserves_analysis(self, tmp_path):
        table = generate_philly(PhillyConfig(n_jobs=400, use_scheduler=False))
        path = tmp_path / "philly.csv"
        save_trace(table, path)
        loaded = load_trace(path, trace="philly")
        assert len(loaded) == len(table)
        # flags restored to booleans
        assert isinstance(loaded["failed"], BooleanColumn)
        assert loaded["failed"].to_list() == table["failed"].to_list()
        # the preprocessor accepts the loaded table
        result = philly_preprocessor().run(loaded)
        assert len(result.database) == len(table)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(ColumnTable.from_dict({"user": ["u0"], "runtime": [5.0]}), path)
        with pytest.raises(ValueError, match="missing"):
            load_trace(path, trace="philly")

    def test_load_without_schema_check(self, tmp_path):
        path = tmp_path / "any.csv"
        write_csv(ColumnTable.from_dict({"x": [1, 2]}), path)
        loaded = load_trace(path)
        assert len(loaded) == 2


class TestCli:
    def test_traces_lists_all(self, capsys):
        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        for name in ("pai", "supercloud", "philly"):
            assert name in out

    def test_generate_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main(
            ["generate", "--trace", "philly", "--n-jobs", "300",
             "--output", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        assert "300" in capsys.readouterr().out

    def test_analyze_generated(self, capsys):
        code = main(
            ["analyze", "--trace", "supercloud", "--keyword", "Failed",
             "--n-jobs", "2500", "--max-cause", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Antecedent" in out and "Failed" in out
        assert "rules kept" in out

    def test_analyze_from_csv(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        assert main(
            ["generate", "--trace", "philly", "--n-jobs", "2500",
             "--output", str(out_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["analyze", "--trace", "philly", "--keyword", "SM Util = 0%",
             "--input", str(out_path), "--max-cause", "2"]
        )
        assert code == 0
        assert "SM Util = 0%" in capsys.readouterr().out

    def test_analyze_custom_thresholds(self, capsys):
        code = main(
            ["analyze", "--trace", "supercloud", "--keyword", "Failed",
             "--n-jobs", "2000", "--min-support", "0.1", "--min-lift", "1.2"]
        )
        assert code == 0

    def test_casestudy(self, capsys):
        code = main(["casestudy", "--trace", "supercloud", "--n-jobs", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Case study" in out
        assert "underutilization" in out or "GPU underutilization" in out

    def test_unknown_trace_exits_2(self, capsys):
        # the module docstring promises exit status 2 on argument errors
        assert main(["analyze", "--trace", "helios", "--keyword", "Failed"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_backend_exits_2(self, capsys):
        code = main(
            ["analyze", "--trace", "pai", "--keyword", "Failed",
             "--backend", "quantum"]
        )
        assert code == 2
        assert "--backend" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "casestudy" in capsys.readouterr().out

    def test_removed_engine_flags_exit_2(self, capsys):
        # mining is serial only: the retired backend flags fail loudly
        code = main(
            ["mine-rulebook", "--trace", "pai", "--n-jobs", "1500",
             "--backend", "process", "--workers", "2",
             "--output", "unused.rulebook.jsonl"]
        )
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_algorithm_flag_exits_2(self, capsys):
        # FP-Growth is the only production miner: choosing another fails
        for argv in (
            ["analyze", "--trace", "supercloud", "--keyword", "Failed"],
            ["mine-rulebook", "--trace", "pai", "--output", "unused.rulebook.jsonl"],
        ):
            assert main([*argv, "--n-jobs", "1500", "--algorithm", "apriori"]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err, argv[0]

    def test_missing_input_file_is_error_exit(self, capsys):
        code = main(
            ["analyze", "--trace", "philly", "--keyword", "Failed",
             "--input", "/nonexistent/trace.csv"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCliEngineFlags:
    def test_stats_footer_rendered(self, capsys):
        code = main(
            ["analyze", "--trace", "supercloud", "--keyword", "Failed",
             "--n-jobs", "2000", "--max-cause", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine stats" in out
        for stage in ("preprocess", "mine", "generate-rules", "prune"):
            assert stage in out

    def test_no_cache_flag(self, capsys):
        # mining keeps nothing between calls: there is no cache to switch
        # off, so the retired flag fails loudly on every mining subcommand
        for argv in (
            ["analyze", "--trace", "supercloud", "--keyword", "Failed"],
            ["mine-rulebook", "--trace", "pai", "--output", "unused.rulebook.jsonl"],
            ["casestudy", "--trace", "philly"],
        ):
            assert main([*argv, "--n-jobs", "1500", "--no-cache"]) == 2, argv[0]
            assert "unrecognized arguments" in capsys.readouterr().err, argv[0]


class TestCliExtensions:
    def test_stats_subcommand(self, capsys):
        code = main(["stats", "--trace", "supercloud", "--n-jobs", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "characterisation" in out and "gini" in out

    def test_insights_subcommand(self, capsys):
        code = main(
            ["insights", "--trace", "philly", "--keyword", "Failed",
             "--n-jobs", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "→" in out  # at least one recommendation rendered

    def test_insights_unknown_keyword(self, capsys):
        code = main(
            ["insights", "--trace", "philly", "--keyword", "No Such Item",
             "--n-jobs", "1500"]
        )
        assert code == 0
        assert "no insights" in capsys.readouterr().out


class TestServeCli:
    """The mine-rulebook → match offline path of the serving subsystem."""

    def test_mine_rulebook_then_match(self, tmp_path, capsys):
        book_path = tmp_path / "supercloud.rulebook.jsonl"
        code = main(
            ["mine-rulebook", "--trace", "supercloud", "--n-jobs", "2500",
             "--keyword", "Failed", "--output", str(book_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote RuleBook" in out
        assert "engine stats" in out
        assert book_path.exists()

        from repro.serve import RuleBook

        book = RuleBook.load(book_path)
        assert len(book) > 0
        assert book.trace == "supercloud"
        assert book.keywords == {"Failed": "Failed"}

        code = main(
            ["match", "--rulebook", str(book_path), "--trace", "supercloud",
             "--n-jobs", "2000", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "matched 2000 jobs" in out
        assert "coverage" in out

    def test_mine_rulebook_default_keywords(self, tmp_path, capsys):
        book_path = tmp_path / "pai.rulebook.jsonl"
        code = main(
            ["mine-rulebook", "--trace", "pai", "--n-jobs", "2500",
             "--output", str(book_path)]
        )
        assert code == 0
        from repro.serve import RuleBook

        # with no --keyword, every case-study keyword of the trace is mined
        from repro.traces import get_trace

        book = RuleBook.load(book_path)
        assert book.keywords == get_trace("pai").keywords

    @pytest.mark.parametrize(
        "flags",
        [["--shards", "2", "--shard-mode", "reuseport"],
         ["--shards", "2", "--lb-policy", "least_loaded"],
         ["--no-shm"]],
        ids=["shard-mode", "lb-policy", "no-shm"],
    )
    def test_removed_serve_flags_exit_2(self, flags, capsys):
        # one serving topology: the retired switches fail loudly instead
        # of being ignored (the book is never opened)
        code = main(["serve", "--rulebook", "unused.jsonl", *flags])
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kwargs",
        [{"mode": "reuseport"}, {"lb_policy": "least_loaded"}],
        ids=["mode", "lb_policy"],
    )
    def test_removed_cluster_options_are_type_errors(self, kwargs):
        from repro.serve.shard import ShardCluster

        with pytest.raises(TypeError):
            ShardCluster("unused.jsonl", 2, **kwargs)

    def test_match_missing_rulebook_exits_2(self, capsys):
        code = main(
            ["match", "--rulebook", "/nonexistent/book.jsonl",
             "--trace", "pai", "--n-jobs", "100"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_match_rejects_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "header", "schema_version": 99, "items": []}\n')
        code = main(
            ["match", "--rulebook", str(bad), "--trace", "pai",
             "--n-jobs", "100"]
        )
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [[], ["--follow", "events.ndjson", "--follow-out", "books"], ["--shards", "2"]],
        ids=["one-process", "follow", "router"],
    )
    def test_busy_port_is_one_error_line_and_exit_3(self, flags, tmp_path):
        # a bind refused by the system is a defined error like a bad book:
        # one stderr line, no traceback, and its own exit status
        book_path = tmp_path / "philly.rulebook.jsonl"
        assert main(
            ["mine-rulebook", "--trace", "philly", "--n-jobs", "1500",
             "--output", str(book_path)]
        ) == 0
        (tmp_path / "events.ndjson").touch()
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--rulebook", str(book_path),
                 "--port", str(busy.getsockname()[1]), *flags],
                capture_output=True, cwd=tmp_path, env=env, timeout=60,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "address already in use" in err
        assert "Traceback" not in err
