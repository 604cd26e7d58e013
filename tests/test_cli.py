"""Unit tests for the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_toy_command(self):
        args = build_parser().parse_args(["toy"])
        assert args.command == "toy"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 2_000
        assert args.mode == "star"

    def test_sweep_requires_parameter_and_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_figure_full_flag(self):
        args = build_parser().parse_args(["figure", "fig05a", "--full"])
        assert args.full is True
        assert args.name == "fig05a"

    def test_observability_flags_on_subcommands(self):
        args = build_parser().parse_args(
            ["run", "--journal", "out.jsonl", "--trace", "--log-level", "debug"]
        )
        assert args.journal == "out.jsonl"
        assert args.trace is True
        assert args.log_level == "debug"

    def test_observability_flags_default_off(self):
        args = build_parser().parse_args(["toy"])
        assert args.journal is None and args.trace is False and args.log_level is None

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_summarize_parses(self):
        args = build_parser().parse_args(["trace", "summarize", "out.jsonl"])
        assert args.trace_command == "summarize"
        assert args.journal_file == "out.jsonl"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.cache_size == 1024
        assert args.session_ttl == 1800.0

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache-size", "0", "--session-ttl", "60", "--contracts"]
        )
        assert args.port == 0
        assert args.cache_size == 0
        assert args.session_ttl == 60.0
        assert args.contracts is True

    def test_serve_slo_flags_accumulate(self):
        args = build_parser().parse_args(
            ["serve", "--slo", "latency_p95_ms=250", "--slo", "max_error_rate=0.01"]
        )
        assert args.slo == ["latency_p95_ms=250", "max_error_rate=0.01"]

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_run_defaults(self):
        args = build_parser().parse_args(["scenario", "run", "smoke"])
        assert args.scenario_command == "run"
        assert args.scenario == "smoke"
        assert args.paradigm == "inprocess"
        assert args.artifact_dir is None

    def test_scenario_compare_flags(self):
        args = build_parser().parse_args(
            ["scenario", "compare", "smoke", "--paradigms", "inprocess,http", "--artifact-dir", "out"]
        )
        assert args.scenario_command == "compare"
        assert args.paradigms == "inprocess,http"
        assert args.artifact_dir == "out"


class TestCommands:
    def test_toy(self, capsys):
        assert main(["toy"]) == 0
        out = capsys.readouterr().out
        assert "2.55" in out
        assert "DyGroups-Star" in out and "DyGroups-Clique" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05a" in out
        assert "dygroups" in out
        assert "lognormal" in out
        assert "journal events" in out and "round_start" in out
        assert "trace summarize" in out

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--n",
                "30",
                "--k",
                "3",
                "--alpha",
                "2",
                "--runs",
                "1",
                "--algorithms",
                "dygroups,random",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dygroups" in out and "random" in out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep",
                "--n",
                "30",
                "--k",
                "3",
                "--runs",
                "1",
                "--algorithms",
                "dygroups,random",
                "--parameter",
                "alpha",
                "--values",
                "1,2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep over alpha" in out

    def test_theorems(self, capsys):
        assert main(["theorems", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5

    def test_amt_experiment_1(self, capsys):
        assert main(["amt", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "dygroups" in out and "kmeans" in out
        assert "ranking" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_simulate_from_file(self, capsys, tmp_path):
        skills_file = tmp_path / "skills.csv"
        skills_file.write_text("0.1,0.2,0.3,0.4,0.5,0.6\n")
        out_file = tmp_path / "run.json"
        code = main(
            [
                "simulate",
                "--skills-file",
                str(skills_file),
                "--k",
                "2",
                "--alpha",
                "3",
                "--save",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total gain" in out
        assert out_file.exists()

        from repro.io import load_json, simulation_result_from_dict

        restored = simulation_result_from_dict(load_json(out_file))
        assert restored.alpha == 3
        assert restored.n == 6

    def test_grid_command(self, capsys):
        code = main(
            [
                "grid",
                "--n",
                "30",
                "--k",
                "3",
                "--runs",
                "1",
                "--algorithms",
                "dygroups,random",
                "--vary",
                "alpha=1,2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dygroups/random" in out

    def test_grid_bad_vary_syntax(self, capsys):
        code = main(["grid", "--vary", "alpha:1,2"])
        assert code == 2
        assert "bad --vary" in capsys.readouterr().err

    def test_run_with_journal_and_trace(self, capsys, tmp_path):
        journal_file = tmp_path / "out.jsonl"
        code = main(
            [
                "run",
                "--n",
                "30",
                "--k",
                "3",
                "--alpha",
                "2",
                "--runs",
                "1",
                "--algorithms",
                "dygroups,random",
                "--journal",
                str(journal_file),
                "--trace",
            ]
        )
        assert code == 0
        assert journal_file.exists()

        from repro.obs import runtime
        from repro.obs.journal import read_journal

        assert runtime.state() is None  # main() shut observability down
        records = read_journal(journal_file)
        events = {r["event"] for r in records}
        assert {"journal_open", "spec_start", "round_start", "span", "journal_close"} <= events

        capsys.readouterr()
        assert main(["trace", "summarize", str(journal_file)]) == 0
        out = capsys.readouterr().out
        assert "core.simulate" in out
        assert "% wall" in out

    def test_journal_records_pool_stop_before_close(self, capsys, tmp_path):
        from repro.obs.journal import read_journal

        journal_file = tmp_path / "pool.jsonl"
        argv = "run --n 20 --k 2 --alpha 2 --runs 4 --algorithms dygroups --workers 2"
        assert main([*argv.split(), "--journal", str(journal_file)]) == 0
        events = [record["event"] for record in read_journal(journal_file)]
        assert events.index("parallel_end") < events.index("pool_stop")
        assert events.index("pool_stop") < events.index("journal_close")

    def test_run_with_trace_only_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--n",
                "30",
                "--k",
                "3",
                "--alpha",
                "2",
                "--runs",
                "1",
                "--algorithms",
                "dygroups",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "experiments.run_spec" in out

    def test_trace_summarize_missing_file(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "absent.jsonl")]) == 2
        assert "journal not found" in capsys.readouterr().err

    def test_trace_summarize_rejects_empty_journal(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 2
        assert "cannot summarize" in capsys.readouterr().err

    def test_exit_codes_are_consistent(self, capsys, tmp_path):
        """Predictable failures exit 1/2 with a message — never a traceback."""
        # Missing input file → usage error (2), message on stderr.
        assert main(["simulate", "--skills-file", str(tmp_path / "no.csv"), "--k", "2"]) == 2
        assert "dygroups simulate" in capsys.readouterr().err
        # Invalid domain arguments → usage error (2).
        skills_file = tmp_path / "skills.csv"
        skills_file.write_text("0.1,0.2,0.3,0.4,0.5,0.6\n")
        assert main(["simulate", "--skills-file", str(skills_file), "--k", "4"]) == 2
        assert "dygroups simulate" in capsys.readouterr().err
        # Invalid service configuration → usage error (2).
        assert main(["serve", "--cache-size", "-3"]) == 2
        assert "cache_size" in capsys.readouterr().err
        assert main(["serve", "--session-ttl", "-1"]) == 2
        assert "session_ttl" in capsys.readouterr().err

    def test_serve_bind_failure_exits_1(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
        finally:
            blocker.close()
        assert "cannot bind" in capsys.readouterr().out

    def test_serve_sigterm_shuts_down_cleanly(self):
        # Regression: a shell backgrounding `dygroups serve &` starts it
        # with SIGINT ignored, so without explicit handlers the server
        # could only be SIGKILLed.  SIGTERM must drain and exit 0.
        import os
        import pathlib
        import signal
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            proc.send_signal(signal.SIGTERM)
            output = proc.communicate(timeout=30)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "shutting down" in output

    def test_run_with_save(self, capsys, tmp_path):
        out_file = tmp_path / "outcome.json"
        code = main(
            [
                "run",
                "--n",
                "30",
                "--k",
                "3",
                "--alpha",
                "2",
                "--runs",
                "1",
                "--algorithms",
                "dygroups,random",
                "--save",
                str(out_file),
            ]
        )
        assert code == 0
        from repro.io import load_json

        payload = load_json(out_file)
        assert payload["spec"]["n"] == 30
        assert "dygroups" in payload["outcomes"]


class TestScenarioCommand:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro.obs import runtime

        runtime.metrics_registry().reset()
        yield
        runtime.metrics_registry().reset()

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output
        assert "fig05b-rate" in output
        assert "streaming-smoke" in output

    def test_scenario_run_from_spec_file(self, capsys, tmp_path):
        from repro.scenarios.spec import ArrivalSpec, PopulationSpec, ScenarioSpec, SLOSpec

        spec = ScenarioSpec(
            name="cli-tiny",
            arrival=ArrivalSpec(kind="closed-loop", concurrency=2),
            population=PopulationSpec(n=6, k=3, cohorts=2, skill_seed=4),
            rounds=2,
            seed=1,
            slo=SLOSpec(latency_p95_ms=30_000.0, max_error_rate=0.0),
        )
        spec_file = tmp_path / "tiny.json"
        spec_file.write_text(spec.to_json())
        code = main(
            ["scenario", "run", str(spec_file), "--artifact-dir", str(tmp_path)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "scenario cli-tiny" in output
        assert "verdict: pass" in output
        artifact = tmp_path / "BENCH_scenario_cli-tiny.json"
        assert artifact.is_file()

    def test_scenario_run_slo_failure_exits_1(self, capsys, tmp_path):
        from repro.scenarios.spec import PopulationSpec, ScenarioSpec, SLOSpec

        spec = ScenarioSpec(
            name="doomed",
            population=PopulationSpec(n=6, k=3, cohorts=1, skill_seed=4),
            rounds=1,
            slo=SLOSpec(min_throughput_rps=1e9),
        )
        spec_file = tmp_path / "doomed.json"
        spec_file.write_text(spec.to_json())
        assert main(["scenario", "run", str(spec_file)]) == 1
        assert "SLO FAIL" in capsys.readouterr().out

    def test_scenario_unknown_name_exits_2(self, capsys):
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_compare_unknown_paradigm_exits_2(self, capsys):
        assert main(["scenario", "compare", "smoke", "--paradigms", "grpc"]) == 2
        assert "unknown paradigm" in capsys.readouterr().err
