"""Tests for the service wire protocol: validation and determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runner import (
    EnsembleSpec,
    RunSpec,
    TopologySpec,
    run_ensemble,
)
from repro.service.protocol import (
    ProtocolError,
    canonical_json,
    decode_ensemble_result,
    decode_ensemble_spec,
    encode_ensemble_result,
    parse_run_request,
    result_payload,
)


def tiny_ensemble(num_runs: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=15,
        ),
        num_runs=num_runs,
        base_seed=7,
        label="wire",
    )


class TestSpecRoundTrip:
    def test_ensemble_spec_round_trips_through_json(self):
        spec = tiny_ensemble()
        rebuilt = EnsembleSpec.from_dict(
            json.loads(canonical_json(spec.to_dict()))
        )
        assert rebuilt == spec

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_ensemble_spec([1, 2, 3])

    def test_decode_rejects_bad_spec_fields(self):
        data = tiny_ensemble().to_dict()
        data["template"]["scan_rate"] = -1.0
        with pytest.raises(ProtocolError, match="invalid ensemble spec"):
            decode_ensemble_spec(data)

    @pytest.mark.parametrize(
        "defense",
        [
            {"kind": "edge", "rate": 0.0},
            {"kind": "hosts", "rate": 0.01, "coverage": 1.5},
            {"kind": "hub", "rate": 1.0, "node_budget": 0.0},
        ],
        ids=["zero-rate", "coverage-above-one", "zero-node-budget"],
    )
    def test_decode_rejects_out_of_range_defense(self, defense):
        """A bad defense is refused at admission, not inside a job."""
        data = tiny_ensemble().to_dict()
        data["template"]["defense"] = defense
        with pytest.raises(ProtocolError, match="invalid ensemble spec"):
            decode_ensemble_spec(data)

    @pytest.mark.parametrize("field", ["defense", "quarantine"])
    def test_decode_rejects_seedless_host_deployment(self, field):
        """Seedless host filters would be drawn from OS entropy, so the
        payload would not be a function of the spec: refused."""
        data = tiny_ensemble().to_dict()
        hosts = {"kind": "hosts", "rate": 0.01, "coverage": 0.3}
        if field == "defense":
            data["template"]["defense"] = hosts
        else:
            data["template"]["quarantine"] = {"response": hosts}
        with pytest.raises(ProtocolError, match="needs a seed"):
            decode_ensemble_spec(data)
        hosts["seed"] = 7
        decode_ensemble_spec(data)

    def test_decode_rejects_unknown_keys(self):
        data = tiny_ensemble().to_dict()
        data["surprise"] = 1
        with pytest.raises(ProtocolError, match="invalid ensemble spec"):
            decode_ensemble_spec(data)


class TestRunRequest:
    def test_parses_spec_and_deadline(self):
        body = json.dumps(
            {"spec": tiny_ensemble().to_dict(), "deadline_s": 2.5}
        ).encode()
        spec, deadline = parse_run_request(body)
        assert spec == tiny_ensemble()
        assert deadline == 2.5

    def test_deadline_optional(self):
        body = json.dumps({"spec": tiny_ensemble().to_dict()}).encode()
        _, deadline = parse_run_request(body)
        assert deadline is None

    def test_rejects_garbage_body(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            parse_run_request(b"\x00\xff")

    def test_rejects_missing_spec(self):
        with pytest.raises(ProtocolError, match="spec"):
            parse_run_request(b"{}")

    def test_rejects_unknown_fields(self):
        body = json.dumps(
            {"spec": tiny_ensemble().to_dict(), "priority": 9}
        ).encode()
        with pytest.raises(ProtocolError, match="unknown request fields"):
            parse_run_request(body)

    @pytest.mark.parametrize("bad", [0, -1, "soon", True])
    def test_rejects_bad_deadlines(self, bad):
        body = json.dumps(
            {"spec": tiny_ensemble().to_dict(), "deadline_s": bad}
        ).encode()
        with pytest.raises(ProtocolError, match="deadline_s"):
            parse_run_request(body)


class TestResultPayload:
    def test_payload_bytes_deterministic_across_executions(self):
        spec = tiny_ensemble()
        first = run_ensemble(spec, use_cache=False)
        second = run_ensemble(spec, use_cache=False)
        # Wall times differ between the two executions, but the payload
        # projects them out: the bytes must be identical.
        assert first.runs[0].metrics.wall_time != 0.0
        assert result_payload(first) == result_payload(second)

    def test_payload_excludes_volatile_metrics(self):
        data = encode_ensemble_result(
            run_ensemble(tiny_ensemble(), use_cache=False)
        )
        for run in data["runs"]:
            assert "wall_time" not in run["metrics"]
            assert "phase_seconds" not in run["metrics"]
            # The deterministic metrics survive.
            assert "packets_injected" in run["metrics"]
            assert "queue_histogram" in run["metrics"]

    def test_decode_rebuilds_full_ensemble_result(self):
        local = run_ensemble(tiny_ensemble(), use_cache=False)
        decoded = decode_ensemble_result(result_payload(local))
        assert decoded.spec == local.spec
        assert len(decoded.runs) == len(local.runs)
        np.testing.assert_array_equal(
            decoded.mean.infected, local.mean.infected
        )
        assert decoded.metrics.total_packets_injected == (
            local.metrics.total_packets_injected
        )

    def test_decode_rejects_wrong_schema(self):
        data = encode_ensemble_result(
            run_ensemble(tiny_ensemble(), use_cache=False)
        )
        data["schema"] = 99
        with pytest.raises(ProtocolError, match="schema"):
            decode_ensemble_result(data)

    def test_decode_rejects_malformed_payload(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_ensemble_result({"schema": 1, "spec": {}, "runs": []})
