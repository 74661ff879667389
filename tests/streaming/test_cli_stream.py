"""The ``repro stream`` command: arguments, output contract, profiling."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.service.streams import StreamRegistry
from repro.streaming import SyntheticFlowStream, record_to_json
from repro.traces.synth import TraceConfig

pytestmark = pytest.mark.streaming


def run_stream(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(["stream", *argv], out=out)
    return code, out.getvalue()


def parse_summary(text: str) -> dict:
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        payload = json.loads(line)
        if payload.get("summary"):
            return payload
    raise AssertionError(f"no summary line in output:\n{text}")


class TestParser:
    def test_input_and_synthetic_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "--synthetic", "--input", "flows.jsonl"]
            )

    def test_detector_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "--synthetic", "--detector", "warp-drive"]
            )

    def test_serve_exposes_stream_limits(self):
        args = build_parser().parse_args(
            ["serve", "--max-streams", "4", "--stream-ttl", "120"]
        )
        assert args.max_streams == 4
        assert args.stream_ttl == 120.0


class TestSyntheticRuns:
    def test_summary_contract(self):
        code, text = run_stream(
            "--synthetic", "--flows", "2000", "--seed", "4",
            "--detector", "failure-ratio", "--quiet",
        )
        assert code == 0
        summary = parse_summary(text)
        assert summary["flows"] == 2000
        assert summary["flows_per_sec"] > 0
        assert list(summary["quarantined"]) == ["failure_ratio"]
        # Exact estimators: no bytes-per-host budget to report.
        assert summary["estimator_bytes_per_host"] is None

    def test_compact_run_reports_byte_budget(self):
        code, text = run_stream(
            "--synthetic", "--flows", "2000",
            "--detector", "failure-ratio", "--detector", "contact-rate",
            "--compact", "1128", "--quiet",
        )
        assert code == 0
        summary = parse_summary(text)
        assert summary["estimator_bytes_per_host"] == 16.0

    def test_quiet_suppresses_event_lines(self):
        code, chatty = run_stream(
            "--synthetic", "--flows", "20000", "--detector", "contact-rate",
            "--threshold", "50",
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in chatty.splitlines()
            if line.startswith("{") and '"summary"' not in line
        ]
        assert events, "expected verdict/action lines without --quiet"
        assert {e["event"] for e in events} <= {"verdict", "action"}
        code, quiet = run_stream(
            "--synthetic", "--flows", "20000", "--detector", "contact-rate",
            "--threshold", "50", "--quiet",
        )
        assert code == 0
        assert len(quiet.strip().splitlines()) == 1  # summary only

    def test_profile_reports_stream_phases(self):
        code, text = run_stream(
            "--synthetic", "--flows", "1000", "--quiet", "--profile",
        )
        assert code == 0
        assert "stream.source" in text
        assert "stream.detect" in text


class TestJsonlRuns:
    def test_file_input_counts_bad_lines(self, tmp_path):
        config = TraceConfig(
            duration=120.0, seed=6, num_normal=20, num_servers=2,
            num_p2p=2, num_blaster=2, num_welchia=1,
        )
        lines = [
            record_to_json(r)
            for r in SyntheticFlowStream(config, max_flows=200)
        ]
        lines.insert(7, '{"torn mid-write')
        path = tmp_path / "flows.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, text = run_stream(
            "--input", str(path), "--detector", "failure-ratio", "--quiet",
        )
        assert code == 0
        summary = parse_summary(text)
        assert summary["flows"] == 200
        assert summary["bad_lines"] == 1
        assert summary["reordered"] == 0

    def test_flows_cap_applies_to_jsonl_input(self, tmp_path):
        config = TraceConfig(
            duration=120.0, seed=6, num_normal=20, num_servers=2,
            num_p2p=2, num_blaster=2, num_welchia=1,
        )
        lines = [
            record_to_json(r)
            for r in SyntheticFlowStream(config, max_flows=300)
        ]
        path = tmp_path / "flows.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, text = run_stream(
            "--input", str(path), "--flows", "100", "--quiet",
        )
        assert code == 0
        assert parse_summary(text)["flows"] == 100


class TestSameEngineAsStreamSessions:
    def test_cli_and_session_emit_equal_events(self, tmp_path):
        """``repro stream`` and a ``/v1/stream`` session opened with the
        same settings build the same engine: equal events, in order."""
        config = TraceConfig(
            duration=120.0, seed=6, num_normal=20, num_servers=2,
            num_p2p=2, num_blaster=2, num_welchia=1,
            service_reply_probability=0.9,
            scan_unreachable_probability=0.3,
        )
        lines = [
            record_to_json(r)
            for r in SyntheticFlowStream(config, max_flows=4000)
        ]
        path = tmp_path / "flows.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, text = run_stream(
            "--input", str(path),
            "--detector", "contact-rate", "--detector", "failure-ratio",
            "--detector", "williamson", "--detector", "dns-throttle",
            "--threshold", "20", "--min-failures", "4",
            "--detect-delay", "5", "--compact", "256",
        )
        assert code == 0
        cli_events = [
            json.loads(line)
            for line in text.splitlines()
            if '"summary"' not in line
        ]

        registry = StreamRegistry()
        session = registry.open({
            "detectors": [
                {"kind": "contact-rate",
                 "params": {"window": 5.0, "threshold": 20.0}},
                {"kind": "failure-ratio",
                 "params": {"timeout": 3.0, "min_failures": 4,
                            "ratio_threshold": 0.5}},
                {"kind": "williamson", "params": {"detect_delay": 5.0}},
                {"kind": "dns-throttle", "params": {"detect_delay": 5.0}},
            ],
            "compact_capacity": 256,
        })
        events = registry.chunk(session.id, "\n".join(lines))["events"]
        events += registry.close(session.id)["events"]

        assert {e["detector"] for e in cli_events} == {
            "contact_rate", "failure_ratio",
            "throttle_williamson_ip_throttle", "throttle_dns_based_throttle",
        }
        assert cli_events == json.loads(json.dumps(events))
