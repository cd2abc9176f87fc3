"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, resolve_exec_args


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explain_args(self):
        args = build_parser().parse_args(
            ["explain", "5.1", "--scorer", "L2", "--top", "5"])
        assert args.scenario == "5.1"
        assert args.scorer == "L2"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "9.9"])

    @pytest.mark.parametrize("verb", [("explain", "5.1"), ("replay",),
                                      ("serve", "5.1")])
    @pytest.mark.parametrize("backend", ["spark", "thread", "batch"])
    def test_invalid_backend_rejected_at_parse_time(self, verb, backend):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*verb, "--backend", backend])
        args = build_parser().parse_args([*verb, "--backend", "process"])
        assert args.backend == "process"
        assert build_parser().parse_args([*verb]).backend is None

    @pytest.mark.parametrize("verb", [("explain", "5.1"), ("replay",)])
    def test_transfer_flag_is_gone(self, verb):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*verb, "--backend", "process",
                                       "--transfer", "shm"])

    def test_nonpositive_workers_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "5.1", "--workers", "0"])

    def test_backend_and_lags_parse(self):
        args = build_parser().parse_args(
            ["explain", "5.1", "--backend", "process", "--lags", "0", "1",
             "2"])
        assert args.backend == "process"
        assert args.lags == [0, 1, 2]

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.matrix == "smoke"
        assert args.scorers == ["CorrMax", "L2", "L2-P50"]
        assert args.ks == [1, 3, 5, 10]
        assert args.json is None

    def test_replay_rejects_unknown_matrix(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--matrix", "giant"])

    def test_replay_rejects_nonpositive_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--ks", "0"])


class TestResolveExecArgs:
    def test_defaults(self):
        n_workers, warnings = resolve_exec_args(None, None)
        assert n_workers == 4
        assert warnings == []

    def test_workers_warn_without_backend(self):
        n_workers, warnings = resolve_exec_args(None, 8)
        assert n_workers == 8
        assert len(warnings) == 1
        assert "--workers" in warnings[0] and "in-process" in warnings[0]

    def test_workers_used_by_the_pool(self):
        n_workers, warnings = resolve_exec_args("process", 8)
        assert n_workers == 8
        assert warnings == []

    def test_process_backend_defaults_workers_silently(self):
        n_workers, warnings = resolve_exec_args("process", None)
        assert n_workers == 4
        assert warnings == []

    def test_invalid_worker_count(self):
        for backend in (None, "process"):
            with pytest.raises(ValueError):
                resolve_exec_args(backend, 0)


class TestCommands:
    def test_scorers_lists_registry(self, capsys):
        assert main(["scorers"]) == 0
        out = capsys.readouterr().out
        assert "l2-p50" in out

    def test_scenarios_lists_builtins(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "5.1" in out and "5.4" in out

    def test_explain_runs_ranking(self, capsys):
        assert main(["explain", "fig14", "--scorer", "CorrMax",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "cpu_temperature" in out

    def test_explain_with_condition_none(self, capsys):
        assert main(["explain", "fig14", "--scorer", "CorrMax",
                     "--condition", "none"]) == 0

    def test_explain_process_shm_backend(self, capsys):
        assert main(["explain", "fig14", "--scorer", "CorrMax",
                     "--backend", "process", "--workers", "2",
                     "--top", "5"]) == 0
        captured = capsys.readouterr()
        assert "rank" in captured.out
        assert "warning" not in captured.err

    def test_explain_warns_on_ignored_workers(self, capsys):
        assert main(["explain", "fig14", "--scorer", "CorrMax",
                     "--workers", "8", "--top", "5"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err and "--workers" in captured.err

    def test_explain_with_lags(self, capsys):
        assert main(["explain", "fig14", "--scorer", "L2",
                     "--lags", "0", "1", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "L2-lag1" in out

    def test_sql_query(self, capsys):
        assert main(["sql", "fig14",
                     "SELECT metric_name, COUNT(*) c FROM tsdb "
                     "GROUP BY metric_name ORDER BY metric_name "
                     "LIMIT 3"]) == 0
        out = capsys.readouterr().out
        assert "background_0" in out

    def test_sql_error_reported(self, capsys):
        assert main(["sql", "fig14", "SELEKT broken"]) == 1
        err = capsys.readouterr().err
        assert "SQL error" in err

    def test_replay_smoke_prints_scorecard(self, capsys):
        assert main(["replay", "--matrix", "smoke",
                     "--scorers", "CorrMax", "--ks", "3"]) == 0
        out = capsys.readouterr().out
        assert "Incident matrix: smoke (5 scenarios x 1 scorers)" in out
        assert "slow_burn/base#0" in out
        assert "Mean recall@3" in out

    def test_replay_json_to_stdout(self, capsys):
        import json

        assert main(["replay", "--matrix", "smoke",
                     "--scorers", "L2", "--ks", "1", "3",
                     "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matrix"] == "smoke"
        assert len(doc["cells"]) == 5

    def test_replay_json_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "scorecard.json"
        assert main(["replay", "--matrix", "smoke", "--scorers", "CorrMax",
                     "--ks", "3", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"scorecard written to {path}" in out
        doc = json.loads(path.read_text())
        assert doc["scorers"] == ["CorrMax"]

    def test_table6_small(self, capsys):
        assert main(["table6", "--scale", "0.15", "--samples", "120",
                     "--scorers", "CorrMax", "L2"]) == 0
        out = capsys.readouterr().out
        assert "Harmonic mean" in out
        assert "incident-11" in out
