"""CLI smoke tests (argument parsing + handler wiring)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "rfc"])
        assert args.command == "generate"
        assert args.radix == 12
        assert args.levels == 3

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "fig5", "--full"])
        assert args.name == "fig5"
        assert args.full
        assert args.workers == 1
        assert args.cache_dir is None
        assert not args.no_cache

    @pytest.mark.parametrize("command", [["simulate", "rfc"], ["workload"]])
    def test_engine_flag_is_rejected(self, command, capsys):
        """``--rng-mode`` is the one engine selector; ``--engine`` is
        gone from both simulating subcommands."""
        for engine in ("fast", "reference"):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args(command + ["--engine", engine])
            assert exc_info.value.code == 2
            assert "unrecognized arguments: --engine" in (
                capsys.readouterr().err
            )

    def test_experiment_exec_flags(self):
        args = build_parser().parse_args(
            ["experiment", "fig8", "--workers", "4",
             "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache


class TestCommands:
    def test_generate_rfc(self, capsys):
        assert main(["generate", "rfc", "--radix", "8", "--leaves", "16",
                     "--check-updown", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "RFC(R=8" in out
        assert "up/down routable" in out

    def test_generate_cft(self, capsys):
        assert main(["generate", "cft", "--radix", "4", "--levels", "3"]) == 0
        assert "T=16" in capsys.readouterr().out

    def test_generate_oft(self, capsys):
        assert main(["generate", "oft", "--radix", "6", "--levels", "2"]) == 0
        assert "OFT" in capsys.readouterr().out

    def test_generate_rrn(self, capsys):
        assert main(["generate", "rrn", "--switches", "16",
                     "--radix", "6"]) == 0
        assert "RRN" in capsys.readouterr().out

    def test_generate_kary(self, capsys):
        assert main(["generate", "kary", "--radix", "4",
                     "--levels", "2"]) == 0
        assert "2-ary" in capsys.readouterr().out

    def test_analyze(self, capsys):
        assert main(["analyze", "--radix", "8", "--leaves", "16",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "threshold radix" in out
        assert "leaf diameter" in out

    def test_simulate(self, capsys):
        assert main([
            "simulate", "cft", "--radix", "4", "--levels", "2",
            "--load", "0.3", "--cycles", "300", "--warmup", "100",
        ]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_workload_summary_names_rng_mode(self, capsys):
        assert main([
            "workload", "--pattern", "rpc", "--topology", "cft",
            "--radix", "4", "--levels", "2", "--duration", "100",
            "--cycles", "300",
        ]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "rng_mode=exact" in header
        assert "engine=" not in header

    def test_experiment(self, capsys):
        assert main(["experiment", "sec5"]) == 0
        assert "Section 5" in capsys.readouterr().out

    @pytest.mark.slow
    def test_experiment_with_workers_and_cache(self, capsys, tmp_path):
        """fig12 quick through the executor: parallel cold run, then a
        warm run replayed entirely from the --cache-dir."""
        argv = ["experiment", "fig12", "--workers", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "exec: 16 points (0 cached, 16 simulated)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "exec: 16 points (16 cached, 0 simulated)" in warm

        def rows(out):
            return [line for line in out.splitlines()
                    if not line.startswith("note: exec:")]

        assert rows(cold) == rows(warm)

    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        assert "equal-resources-11k" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_parser_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["simulate", "cft", "--trace", "/tmp/t.jsonl",
             "--metrics-out", "/tmp/m.json"]
        )
        assert args.trace == "/tmp/t.jsonl"
        assert args.metrics_out == "/tmp/m.json"
        args = build_parser().parse_args(
            ["experiment", "fig8", "--metrics-out", "/tmp/m.json"]
        )
        assert args.metrics_out == "/tmp/m.json"

    def test_simulate_writes_trace_and_metrics(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main([
            "simulate", "cft", "--radix", "4", "--levels", "2",
            "--load", "0.3", "--cycles", "300", "--warmup", "100",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "metrics:" in out
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert records[0]["ev"] == "run_start"
        assert records[-1]["ev"] == "run_end"
        export = json.loads(metrics.read_text())
        assert export["counters"]["eject.packets"] == \
            records[-1]["delivered"]

    def test_simulate_obs_flags_do_not_change_results(self, capsys,
                                                      tmp_path):
        argv = ["simulate", "cft", "--radix", "4", "--levels", "2",
                "--load", "0.3", "--cycles", "300", "--warmup", "100"]
        assert main(argv) == 0
        bare = capsys.readouterr().out.splitlines()[:2]
        assert main(argv + ["--trace", str(tmp_path / "t.jsonl"),
                            "--metrics-out",
                            str(tmp_path / "m.json")]) == 0
        inst = capsys.readouterr().out.splitlines()[:2]
        assert bare == inst

    @pytest.mark.slow
    def test_experiment_metrics_out(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "exp_metrics.json"
        assert main(["experiment", "fig8",
                     "--metrics-out", str(metrics)]) == 0
        assert "sweep export(s)" in capsys.readouterr().out
        exports = json.loads(metrics.read_text())
        assert exports  # at least one sweep recorded
        for label, export in exports.items():
            assert export["counters"]["eject.packets"] > 0


class TestInputErrors:
    """Bad inputs exit 2 with one ``repro-rfc <command>: error:`` line
    naming the input, never a traceback."""

    @pytest.mark.parametrize("argv, needle", [
        (["simulate", "rfc", "--load", "1.5", "--cycles", "10"],
         "load must be in (0, 1], got 1.5"),
        (["simulate", "rfc", "--radix", "7", "--cycles", "10"],
         "radix must be even and >= 4, got 7"),
        (["report", "/nonexistent/topology.json"],
         "No such file or directory"),
    ])
    def test_handler_errors_exit_two(self, argv, needle, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-rfc {argv[0]}: error: ")
        assert needle in err
        assert "Traceback" not in err

    def test_malformed_topology_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith("repro-rfc report: error: ")

    @pytest.mark.parametrize("argv, needle", [
        (["experiment", "nosuch"], "invalid choice: 'nosuch'"),
        (["diversity", "rfc", "--pairs", "0"], "--pairs: must be >= 1, got 0"),
        (["diversity", "rfc", "--pairs", "-1"], "must be >= 1, got -1"),
        (["report", "t.json", "--fault-trials", "-1"],
         "--fault-trials: must be >= 0, got -1"),
        (["report", "t.json", "--fault-trials", "x"], "invalid int value: 'x'"),
    ])
    def test_parse_time_rejections(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        assert needle in capsys.readouterr().err

    def test_zero_fault_trials_is_valid(self):
        args = build_parser().parse_args(
            ["report", "t.json", "--fault-trials", "0"]
        )
        assert args.fault_trials == 0
        assert build_parser().parse_args(["experiment", "all"]).name == "all"
