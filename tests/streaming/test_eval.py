"""Evaluation harness and throughput run for the streaming subsystem."""

from __future__ import annotations

import pytest

from repro.streaming import (
    DetectionEngine,
    evaluate_detectors,
    make_detector,
    throughput_run,
)
from repro.traces.synth import TraceConfig

pytestmark = pytest.mark.streaming

SMALL = TraceConfig(
    duration=90.0, seed=0, num_normal=30, num_servers=2, num_p2p=3,
    num_blaster=2, num_welchia=2,
    service_reply_probability=0.9, scan_unreachable_probability=0.3,
)


class TestEvaluateDetectors:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.traces.synth import generate_trace

        return evaluate_detectors(
            generate_trace(SMALL),
            {
                "failure": lambda internal: make_detector(
                    "failure-ratio", internal=internal, min_failures=16,
                ),
                "williamson": lambda internal: make_detector(
                    "williamson", internal=internal, detect_delay=30.0,
                ),
            },
        )

    def test_census_accounting(self, report):
        assert report["num_worm_hosts"] == 4
        assert report["num_benign_hosts"] == 35
        assert set(report["detectors"]) == {"failure", "williamson"}

    def test_latency_fields_are_consistent(self, report):
        for label, detector_report in report["detectors"].items():
            latency = detector_report["detection_latency_s"]
            per_host = latency["per_host"]
            assert len(per_host) == detector_report["caught"]
            assert per_host == sorted(per_host)
            if per_host:
                assert latency["max"] == per_host[-1]
                assert latency["median"] is not None
            else:
                assert latency["median"] is None
            assert 0.0 <= detector_report["catch_rate"] <= 1.0
            assert 0.0 <= detector_report["false_positive_rate"] <= 1.0

    def test_failure_detector_catches_scanners_here(self, report):
        assert report["detectors"]["failure"]["caught"] > 0

    def test_false_positive_hosts_are_benign(self, report):
        for detector_report in report["detectors"].values():
            assert set(detector_report["false_positives"]) == {
                "normal", "server", "p2p",
            }


class TestThroughputRun:
    def test_reports_flows_and_rate(self):
        engine = DetectionEngine(
            [make_detector("failure-ratio", internal=lambda ip: True)]
        )
        report = throughput_run(SMALL, engine, max_flows=3000)
        assert report["flows"] == 3000
        assert report["flows_per_sec"] > 0
        assert report["estimator_bytes_per_host"] is None
        assert "failure_ratio" in report["quarantined"]
