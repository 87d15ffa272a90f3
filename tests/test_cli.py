"""Tests for the ``ktiler`` command-line interface."""

import pytest

from repro.cli import PROFILE_PRESETS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("fig2", "fig3", "fig4", "fig5", "suitability",
                        "ablation", "demo", "trace", "explain"):
            args = parser.parse_args(
                [command] + (["threshold"] if command == "ablation" else [])
            )
            assert args.command == command

    def test_ablation_knob_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nope"])

    def test_l2_override_flag(self):
        args = build_parser().parse_args(["fig5", "--l2-kb", "256"])
        assert args.l2_kb == 256

    def test_observability_flags_on_experiments(self):
        args = build_parser().parse_args(
            ["fig2", "--trace", "t.json", "--metrics", "m.prom"]
        )
        assert args.trace == "t.json"
        assert args.metrics == "m.prom"

    def test_trace_app_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--app", "nope"])

    def test_explain_preset_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--preset", "nope"])

    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8750
        assert args.timeout_s == 300.0 and args.max_body_kb == 1024
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--planner-backend", "fast",
             "--cache-dir", "/tmp/c", "--timeout-s", "5"]
        )
        assert args.port == 0 and args.planner_backend == "fast"
        assert args.cache_dir == "/tmp/c" and args.timeout_s == 5.0

    def test_client_registered_and_action_validated(self):
        args = build_parser().parse_args(
            ["client", "plan", "--preset", "fig5", "--measure",
             "--gpu-mhz", "549"]
        )
        assert args.command == "client" and args.action == "plan"
        assert args.preset == "fig5" and args.measure
        assert args.gpu_mhz == 549.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "teleport"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "plan", "--preset", "nope"])

    def test_client_gpu_base_validated(self):
        args = build_parser().parse_args(
            ["client", "plan", "--gpu-base", "embedded"]
        )
        assert args.gpu_base == "embedded"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "plan", "--gpu-base", "tpu"])


class TestCountFlags:
    """Count and size flags must be >= 1, checked by argparse before any
    work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--l2-kb", "0"],
            ["explain", "--l2-kb", "-64"],
            ["profile", "--repeats", "0"],
            ["profile", "--kernels", "0"],
            ["profile", "--size", "0"],
            ["profile", "--size", "-8"],
            ["serve", "--planner-threads", "0"],
            ["serve", "--tracez-capacity", "0"],
            ["serve", "--max-body-kb", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_nonpositive_count_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {argv[1]}: must be >= 1" in err

    def test_non_integer_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--repeats", "four"])
        assert exc.value.code == 2
        assert "invalid int value: 'four'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in (
                (["profile", "--sweep-sizes", "8,x"], "invalid int value: 'x'"),
                (["profile", "--sweep-sizes", "0,8"], "must be >= 1, got 0"),
                (["profile", "--sweep-sizes", "8,8"], "want at least two"),
                (["profile", "--sweep-sizes", "8"], "want at least two"),
                (["profile", "--sweep-sizes", "8,16385"], "must be <= 16384"),
                (["profile", "--kernels", "16385"], "must be <= 16384"),
                (["profile", "--warmup", "-1"], "must be >= 0, got -1"),
                (["profile", "--drift-tol", "-1"], "must be >= 0, got -1"),
                (["profile", "--drift-tol", "nan"], "must be >= 0, got nan"),
                (["profile", "--drift-tol", "loose"], "invalid float value"),
            )
        ],
    )
    def test_bad_profile_value_exits_2_with_usage(self, argv, message, capsys):
        """Probe sizes, the sweep ladder, the warmup count and the drift
        tolerance are checked by argparse too: no traceback, no silent
        fallback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {argv[1]}: {message}" in err

    @pytest.mark.parametrize("command", ["explain", "fig2", "profile"])
    def test_l2_size_the_geometry_cannot_hold_exits_2(
        self, command, capsys, monkeypatch
    ):
        """1 KiB is not a multiple of line size x associativity: the
        spec is resolved before any app is built, and the error is a
        usage error, not a traceback."""
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "_preset_app", lambda args: pytest.fail("app was built")
        )
        with pytest.raises(SystemExit) as exc:
            main([command, "--l2-kb", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --l2-kb: l2_bytes must be divisible" in err


#: (subcommand, flag) pairs the subcommand's handler never read; each
#: is a usage error now.
_FLAGS_A_SUBCOMMAND_IGNORES = [
    ("fig2", "--planner-backend"),
    ("fig3", "--planner-backend"), ("fig3", "--cache-dir"),
    ("fig3", "--no-cache"),
    ("suitability", "--planner-backend"), ("suitability", "--cache-dir"),
    ("suitability", "--no-cache"),
    ("ablation", "--l2-kb"), ("ablation", "--trace"), ("ablation", "--metrics"),
    ("profile", "--cache-dir"), ("profile", "--no-cache"),
    ("serve", "--l2-kb"), ("serve", "--trace"), ("serve", "--metrics"),
    ("client", "--cache-dir"), ("client", "--no-cache"),
    ("client", "--trace"), ("client", "--metrics"),
]

_FLAG_VALUES = {
    "--planner-backend": ["fast"], "--cache-dir": ["c"], "--no-cache": [],
    "--l2-kb": ["256"], "--trace": ["t.json"], "--metrics": ["m.prom"],
}

_POSITIONALS = {"ablation": ["threshold"], "client": ["plan"]}


class TestOptionGroups:
    """A subcommand takes only the shared option groups its handler
    reads, so a flag it would ignore exits 2 before any work starts."""

    @pytest.mark.parametrize(
        "command, flag", _FLAGS_A_SUBCOMMAND_IGNORES,
        ids=lambda value: value,
    )
    def test_ignored_flag_exits_2_with_usage(self, command, flag, capsys):
        argv = [command] + _POSITIONALS.get(command, []) + [flag]
        with pytest.raises(SystemExit) as exc:
            main(argv + _FLAG_VALUES[flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"unrecognized arguments: {flag}" in err

    def test_flag_instances(self):
        """Flag instances across subcommands: 153 before the groups,
        129 after, 116 without ``loadgen``; a new flag raises this count
        on purpose."""
        import argparse

        from repro.cli import SUBCOMMANDS

        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        flags = [
            flag
            for command in SUBCOMMANDS
            for action in sub.choices[command.name]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        ]
        assert len(flags) == 116


class TestAblationCommand:
    @pytest.mark.parametrize("knob", ["threshold", "cache", "gap"])
    def test_sweep_is_called_with_arguments_it_accepts(
        self, knob, monkeypatch, capsys
    ):
        import inspect

        import repro.cli as cli
        from repro.experiments.ablations import AblationResult

        real = getattr(cli, f"{knob}_sweep")

        def fake(**kwargs):
            inspect.signature(real).bind(**kwargs)
            return AblationResult(name=knob, rows=[])

        monkeypatch.setattr(cli, f"{knob}_sweep", fake)
        assert main(["ablation", knob]) == 0
        assert f"Ablation: {knob}" in capsys.readouterr().out


class TestPresetRegistry:
    """explain, diff and profile build their apps from the daemon's
    preset registry, so a CLI run and a default wire request plan the
    same graph."""

    @pytest.mark.parametrize("preset", PROFILE_PRESETS)
    def test_cli_graph_matches_the_wire_default(self, preset):
        from repro.cli import _preset_app
        from repro.serve.wire import parse_plan_request
        from repro.store.fingerprint import graph_fingerprint

        args = build_parser().parse_args(["profile", "--preset", preset])
        wire = parse_plan_request({"app": {"preset": preset}})
        assert graph_fingerprint(_preset_app(args).graph) == (
            graph_fingerprint(wire.graph)
        )


class TestClientRequestBody:
    """The client builds sparse bodies: server defaults stay server-side
    so its fingerprints match any other client's."""

    def _args(self, extra):
        return build_parser().parse_args(["client", "plan"] + extra)

    def test_minimal_body(self):
        from repro.cli import _client_request_body

        body = _client_request_body(self._args([]))
        assert body == {"app": {"preset": "demo"}}

    def test_full_body(self):
        from repro.cli import _client_request_body

        body = _client_request_body(self._args([
            "--preset", "fig5", "--size", "128", "--levels", "2",
            "--iters", "10", "--gpu-base", "paper", "--l2-kb", "512",
            "--gpu-mhz", "549", "--mem-mhz", "2505",
            "--planner-backend", "fast",
            "--measure", "--timeout-s", "30",
        ]))
        assert body == {
            "app": {"preset": "fig5", "size": 128, "levels": 2, "iters": 10},
            "gpu": {"base": "paper", "l2_kb": 512},
            "freq": {"gpu_mhz": 549.0, "mem_mhz": 2505.0},
            "planner_backend": "fast",
            "measure": True,
            "timeout_s": 30.0,
        }


class TestServeExecution:
    def test_client_against_live_daemon(self, capsys, tmp_path, monkeypatch):
        from repro.serve.server import start_server
        from repro.serve.service import PlanService

        monkeypatch.chdir(tmp_path)
        with start_server(PlanService()) as handle:
            code = main([
                "client", "plan", "--url", handle.url, "--preset", "demo",
                "--json", "plan.json",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "plan demo:" in out and "plan_digest" in out
            assert (tmp_path / "plan.json").exists()
            assert main(["client", "health", "--url", handle.url]) == 0
            assert main(["client", "metrics", "--url", handle.url]) == 0
            metrics_out = capsys.readouterr().out
            assert "serve_requests" in metrics_out

    def test_client_unreachable_daemon_fails_cleanly(self, capsys):
        code = main([
            "client", "health", "--url", "http://127.0.0.1:1",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExecution:
    def test_fig4_runs(self, capsys):
        assert main(["fig4", "--frame-size", "128", "--levels", "2",
                     "--iters", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "census matches closed form: True" in out

    def test_demo_runs_and_verifies(self, capsys):
        assert main(["demo", "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "functionally equivalent: True" in out

    def test_fig5_small(self, capsys):
        code = main([
            "fig5", "--frame-size", "128", "--levels", "2", "--iters", "4",
            "--l2-kb", "128",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "average" in out

    def test_trace_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        code = main([
            "trace", "--app", "pipeline", "--size", "128",
            "--trace", "out.json", "--metrics", "out.prom",
        ])
        assert code == 0
        trace = json.loads((tmp_path / "out.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        prom = (tmp_path / "out.prom").read_text()
        assert len([l for l in prom.splitlines()
                    if l.startswith("# TYPE")]) >= 10
        err = capsys.readouterr().err
        assert "trace events" in err and "metric families" in err

    def test_trace_default_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--app", "diamond", "--size", "64"]) == 0
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.prom").exists()

    def test_explain_demo_writes_audit(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.obs.audit import validate_audit

        monkeypatch.chdir(tmp_path)
        code = main([
            "explain", "--preset", "demo",
            "--json", "audit.json", "--html", "audit.html",
            "--metrics", "audit-metrics.json",
        ])
        assert code == 0

        payload = validate_audit(json.loads((tmp_path / "audit.json").read_text()))
        assert payload["preset"] == "demo"
        assert payload["edges"], "demo audit produced no edge rows"
        for row in payload["kernels"]:
            assert row["cold"] + row["capacity"] + row["conflict"] == row["misses"]

        html = (tmp_path / "audit.html").read_text()
        assert payload["edges"][0]["buffer"] in html

        captured = capsys.readouterr()
        assert "predicted" in captured.out and "actual" in captured.out
        assert "run summary:" in captured.err
