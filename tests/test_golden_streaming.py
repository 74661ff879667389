"""Golden detection-latency fixture for the streaming detectors.

Pins the full :func:`repro.streaming.eval.evaluate_detectors` report —
catch rates, per-host detection latencies, and false positives — for
connection-failure containment side by side with the Williamson and DNS
throttle baselines on one labeled synthetic trace with realistic
failure signals.  The replay and every detector are deterministic given
the trace seed, so any behavioral change to the failure semantics, the
throttle adapters, or the evaluation harness shows up as a hash
mismatch with a per-detector deviation report.

Wall-clock fields (``elapsed_s``) are stripped before hashing.

To bless an intentional change::

    PYTHONPATH=src python -m pytest tests/test_golden_streaming.py \
        --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.streaming import evaluate_detectors, make_detector
from repro.traces.synth import TraceConfig, generate_trace

pytestmark = pytest.mark.streaming

GOLDEN_PATH = Path(__file__).parent / "golden" / "streaming_detect.json"

#: Trace and detector parameters are part of the fixture, so drift
#: there is caught alongside behavioral drift.
PARAMS = {
    "trace": {
        "duration": 120.0,
        "seed": 0,
        "num_normal": 40,
        "num_servers": 3,
        "num_p2p": 4,
        "num_blaster": 3,
        "num_welchia": 2,
        "service_reply_probability": 0.9,
        "scan_unreachable_probability": 0.3,
    },
    "detectors": {
        "failure_containment": {
            "kind": "failure-ratio", "timeout": 3.0,
            "min_failures": 16, "ratio_threshold": 0.5,
        },
        "williamson_throttle": {
            "kind": "williamson", "detect_delay": 30.0,
        },
        "dns_throttle": {
            "kind": "dns-throttle", "detect_delay": 30.0,
        },
    },
}


def factories():
    out = {}
    for label, spec in PARAMS["detectors"].items():
        spec = dict(spec)
        kind = spec.pop("kind")
        out[label] = (
            lambda internal, kind=kind, spec=spec: make_detector(
                kind, internal=internal, **spec
            )
        )
    return out


def evaluate() -> dict:
    result = evaluate_detectors(
        generate_trace(TraceConfig(**PARAMS["trace"])), factories()
    )
    # Round-trip through JSON and drop wall-clock timing: the payload
    # must be exactly what the fixture file stores.
    result = json.loads(json.dumps(result))
    for report in result["detectors"].values():
        report.pop("elapsed_s", None)
    return result


def digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def describe_drift(expected: dict, actual: dict) -> str:
    lines = []
    for label in sorted(set(expected) | set(actual)):
        if label not in expected:
            lines.append(f"  {label}: new detector (not in fixture)")
            continue
        if label not in actual:
            lines.append(f"  {label}: detector missing from this run")
            continue
        want, got = expected[label], actual[label]
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                lines.append(
                    f"  {label}.{key}: {want.get(key)!r} -> {got.get(key)!r}"
                )
    return "\n".join(lines) if lines else "  (no per-detector delta found)"


def test_golden_detection_report(request):
    fresh = {
        "params": PARAMS,
        "result": evaluate(),
    }
    fresh["sha256"] = digest(fresh["result"])

    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(fresh, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        return

    assert GOLDEN_PATH.exists(), (
        f"golden fixture {GOLDEN_PATH} missing; generate it with "
        f"'pytest {__file__} --update-golden'"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden["params"] == fresh["params"], (
        "fixture was generated with different trace/detector parameters; "
        "regenerate with --update-golden"
    )
    if fresh["sha256"] != golden["sha256"]:
        pytest.fail(
            "streaming detection report drifted from the golden fixture.\n"
            f"  fixture sha256: {golden['sha256']}\n"
            f"  current sha256: {fresh['sha256']}\n"
            "per-detector deviations:\n"
            f"{describe_drift(golden['result']['detectors'], fresh['result']['detectors'])}\n"
            "If this change is intentional, regenerate with "
            "'pytest tests/test_golden_streaming.py --update-golden' and "
            "commit the fixture with the change."
        )


def test_fixture_hash_self_consistent():
    assert GOLDEN_PATH.exists(), f"missing fixture {GOLDEN_PATH}"
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden["sha256"] == digest(golden["result"]), (
        "fixture hash does not match its stored result "
        "(hand-edited fixture?)"
    )


def test_failure_containment_beats_williamson_on_latency():
    """The comparison the fixture exists to document, stated directly."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    reports = golden["result"]["detectors"]
    failure = reports["failure_containment"]
    williamson = reports["williamson_throttle"]
    dns = reports["dns_throttle"]
    # All three run false-positive-free on this trace...
    for report in (failure, williamson, dns):
        assert report["false_positive_rate"] == 0.0
    # ...and failure containment reacts faster than the Williamson
    # throttle on the worms both catch, while the DNS throttle is the
    # fastest of the three (the paper's Section 7 ordering).
    assert (
        failure["detection_latency_s"]["median"]
        < williamson["detection_latency_s"]["median"]
    )
    assert (
        dns["detection_latency_s"]["median"]
        < failure["detection_latency_s"]["median"]
    )
