"""Tests for the repro command-line interface."""

from __future__ import annotations

import argparse
import io
import json

import pytest

from repro.cli import _parse_strategy, build_parser, main
from repro.runner.spec import DefenseSpec


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_compare_requires_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare"])

    def test_counts_must_be_positive(self):
        for argv in (
            ["figure", "fig1b", "--jobs", "0"],
            ["figure", "fig1b", "--runs", "0"],
            ["figure", "fig1b", "--ticks", "-5"],
            ["compare", "--strategy", "none", "--runs", "0"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestParseStrategy:
    def test_all_kinds(self):
        assert _parse_strategy("none") == DefenseSpec(kind="none")
        assert _parse_strategy("hosts:0.3:0.01") == DefenseSpec(
            kind="hosts", coverage=0.3, rate=0.01
        )
        assert _parse_strategy("edge:0.02") == DefenseSpec(
            kind="edge", rate=0.02
        )
        assert _parse_strategy("backbone:0.05") == DefenseSpec(
            kind="backbone", rate=0.05
        )
        assert _parse_strategy("hub:10:4") == DefenseSpec(
            kind="hub", rate=10.0, node_budget=4.0
        )

    def test_bad_inputs(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_strategy("teleport:1")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_strategy("hosts:0.3")  # missing rate
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_strategy("edge:not-a-number")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_strategy("hosts:1.5:0.01")  # coverage above 1


class TestCommands:
    def test_list(self):
        output = run_cli("list")
        assert "fig4" in output
        assert "fig1a" in output

    def test_analytic_figure(self):
        output = run_cli("figure", "fig1a")
        assert "hub_rl" in output
        assert "slowdown" in output

    def test_sim_figure_small(self):
        output = run_cli(
            "figure", "fig1b", "--runs", "2", "--ticks", "40"
        )
        assert "leaf_rl_30pct" in output

    def test_compare(self):
        output = run_cli(
            "compare",
            "--nodes", "200",
            "--runs", "2",
            "--ticks", "120",
            "--strategy", "none",
            "--strategy", "backbone:0.05",
        )
        assert "backbone_rl" in output
        assert "1.00x" in output

    def test_trace(self):
        output = run_cli("trace", "--duration", "60", "--seed", "3")
        assert "records" in output
        assert "normal" in output
        assert "99.9% limits" in output


class TestRunnerKnobs:
    def test_figure_with_jobs(self):
        output = run_cli(
            "figure", "fig1b", "--runs", "2", "--ticks", "30",
            "--jobs", "2", "--no-cache",
        )
        assert "hub_rl" in output

    def test_compare_cache_hit_on_second_invocation(self, tmp_path):
        argv = (
            "compare",
            "--nodes", "120",
            "--runs", "2",
            "--ticks", "60",
            "--strategy", "none",
            "--strategy", "backbone:0.05",
            "--cache-dir", str(tmp_path),
        )
        first = run_cli(*argv)
        assert "executed 4 runs (0 from cache)" in first

        second = run_cli(*argv)
        assert "executed 4 runs (4 from cache)" in second

        # Cached replay reproduces the simulated curves bit-for-bit.
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_no_cache_never_persists(self, tmp_path):
        run_cli(
            "compare",
            "--nodes", "120",
            "--runs", "2",
            "--ticks", "60",
            "--strategy", "none",
            "--no-cache",
            "--cache-dir", str(tmp_path),
        )
        assert list(tmp_path.glob("*.json")) == []

    def test_parallel_figure_matches_serial(self):
        argv = (
            "figure", "fig1b", "--runs", "2", "--ticks", "30", "--no-cache"
        )
        serial = run_cli(*argv, "--jobs", "1")
        parallel = run_cli(*argv, "--jobs", "2")
        assert serial == parallel

    def test_engine_choice_validated(self):
        args = build_parser().parse_args(
            ["figure", "fig1b", "--engine", "fast"]
        )
        assert args.engine == "fast"
        assert (
            build_parser().parse_args(["figure", "fig1b"]).engine is None
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig1b", "--engine", "warp"])

    def test_engine_flag_selects_fast_engine(self, monkeypatch):
        import repro.runner.executors as executors

        engines = []
        execute_run = executors.execute_run

        def spy(spec, options=None):
            engines.append(spec.engine)
            return execute_run(spec, options)

        monkeypatch.setattr(executors, "execute_run", spy)
        argv = (
            "figure", "fig1b", "--runs", "2", "--ticks", "30", "--no-cache"
        )
        reference = run_cli(*argv)
        assert set(engines) == {"reference"}
        engines.clear()
        fast = run_cli(*argv, "--engine", "fast")
        assert set(engines) == {"fast"}
        # fig 1b is small enough that the fast engine takes the exact
        # path too: the printed curves must be identical.
        assert fast == reference


class TestObservabilityFlags:
    def test_trace_writes_valid_jsonl(self, tmp_path):
        from repro.observability.trace import TICK_RECORD_KEYS

        path = tmp_path / "run.jsonl"
        output = run_cli(
            "figure", "fig1b", "--runs", "2", "--ticks", "20",
            "--no-cache", "--trace", str(path),
        )
        assert f"records -> {path}" in output

        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        meta, ticks = records[0], records[1:]
        assert meta["type"] == "meta"
        assert meta["schema_version"] == 1
        assert ticks, "trace carries no tick records"
        for record in ticks:
            assert record["type"] == "tick"
            # Hub tagging plus the full schema on every record.
            assert "label" in record and "seed" in record
            assert set(TICK_RECORD_KEYS) <= set(record)

    def test_profile_prints_phase_table(self):
        output = run_cli(
            "figure", "fig1b", "--runs", "2", "--ticks", "20",
            "--no-cache", "--profile",
        )
        assert "phase" in output
        for phase in ("scan", "transmit", "deliver", "immunize", "observe"):
            assert phase in output
        assert "counter" in output
        assert "ticks" in output

    def test_trace_implies_resimulation_despite_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        path = tmp_path / "run.jsonl"
        argv = (
            "figure", "fig1b", "--runs", "2", "--ticks", "20",
            "--cache-dir", str(cache_dir),
        )
        run_cli(*argv)  # warm the cache
        output = run_cli(*argv, "--trace", str(path))
        # Instrumented runs bypass the cache, so the trace is complete
        # (a cached replay would have produced a meta-only file).
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert sum(1 for r in records if r.get("type") == "tick") > 0
        assert "records ->" in output

    def test_trace_on_analytic_figure_writes_meta_only_artifact(
        self, tmp_path
    ):
        path = tmp_path / "analytic.jsonl"
        run_cli("figure", "fig1a", "--trace", str(path))
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == 1
        assert records[0]["type"] == "meta"

    def test_flags_reset_between_invocations(self, tmp_path):
        run_cli(
            "figure", "fig1b", "--runs", "2", "--ticks", "20",
            "--no-cache", "--trace", str(tmp_path / "first.jsonl"),
        )
        from repro.observability.hub import observability_hub

        assert not observability_hub().active
        plain = run_cli(
            "figure", "fig1b", "--runs", "2", "--ticks", "20", "--no-cache"
        )
        assert "trace:" not in plain
        assert "phase" not in plain.split("time to")[0].split("===")[0]


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        from repro.cli import package_version

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_package_version_matches_source_tree(self):
        import repro
        from repro.cli import package_version

        # Installed-distribution metadata when available, the source
        # tree's __version__ otherwise — either way a non-empty string.
        version = package_version()
        assert version
        assert version == getattr(repro, "__version__", version)


class TestCacheCommand:
    def warm(self, tmp_path) -> tuple[str, ...]:
        argv = (
            "compare",
            "--nodes", "120",
            "--runs", "2",
            "--ticks", "60",
            "--strategy", "none",
            "--strategy", "backbone:0.05",
            "--cache-dir", str(tmp_path),
        )
        run_cli(*argv)
        return argv

    def test_stats_reports_entries_and_bytes(self, tmp_path):
        self.warm(tmp_path)
        output = run_cli("cache", "--stats", "--cache-dir", str(tmp_path))
        assert str(tmp_path) in output
        assert "entries:   4" in output
        size = int(output.split("bytes:")[1].strip())
        assert size > 0

    def test_bare_cache_defaults_to_stats(self, tmp_path):
        output = run_cli("cache", "--cache-dir", str(tmp_path))
        assert "entries:   0" in output
        assert "bytes:     0" in output

    def test_clear_empties_the_cache(self, tmp_path):
        self.warm(tmp_path)
        output = run_cli("cache", "--clear", "--cache-dir", str(tmp_path))
        assert "removed 4 cached runs" in output
        assert list(tmp_path.glob("*.json")) == []
        output = run_cli("cache", "--stats", "--cache-dir", str(tmp_path))
        assert "entries:   0" in output

    def test_stats_and_clear_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "--stats", "--clear"])


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.jobs == 1
        assert args.max_queue == 64
        assert args.concurrency == 2
        assert args.deadline is None
        assert args.drain_timeout == 30.0
        assert args.no_cache is False
        assert args.engine is None

    def test_counts_must_be_positive(self):
        for argv in (
            ["serve", "--jobs", "0"],
            ["serve", "--max-queue", "0"],
            ["serve", "--concurrency", "-1"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_engine_choice_validated(self):
        args = build_parser().parse_args(["serve", "--engine", "fast"])
        assert args.engine == "fast"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "warp"])


class TestMoreCommands:
    def test_every_analytic_figure_renders(self):
        for figure_id in ("fig1a", "fig2", "fig7a", "fig7b", "fig10"):
            output = run_cli("figure", figure_id)
            assert figure_id in output
            assert "t=" in output

    def test_compare_with_local_preference(self):
        output = run_cli(
            "compare",
            "--nodes", "200",
            "--runs", "2",
            "--ticks", "150",
            "--local-preference", "0.8",
            "--strategy", "none",
            "--strategy", "hosts:0.3:0.01",
        )
        assert "host_rl_30pct" in output
