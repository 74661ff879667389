"""Golden bytes for the compact (shared-register) stream detectors.

``tests/golden/streaming_detect.json`` pins the exact estimators; this
fixture pins the sketches.  A fixed synthetic flow stream is fed in
500-line chunks through a :class:`~repro.service.streams.StreamRegistry`
session, and the fixture stores the sha256 of every chunk's response
and of the closing summary (both without the random session ``id``),
plus the sha256 of every sketch buffer (``CountMinSketch._table``,
``VirtualHyperLogLog._registers``) taken just before ``close``.

Three setups cover the sketch regimes: the service's default
``compact_capacity`` sizing, a 64-wide count-min (heavy collisions,
so conservative update decides the counts) and a 64-wide ``uint8``
count-min (counters saturate).  Any drift in hashing, update rule or
saturation shows up as a digest mismatch naming the first drifting
chunk.

To bless an intentional change::

    PYTHONPATH=src python -m pytest tests/test_golden_streaming_compact.py \
        --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.service.streams import StreamRegistry
from repro.streaming.estimators import CountMinSketch
from repro.streaming.stream import SyntheticFlowStream, record_to_json
from repro.traces.synth import TraceConfig

pytestmark = pytest.mark.streaming

GOLDEN_PATH = Path(__file__).parent / "golden" / "streaming_compact.json"

PARAMS = {
    "trace": {"duration": 1e7, "seed": 1},
    "flows": 30_000,
    "chunk": 500,
    "compact_capacity": 2048,
    "setups": {
        "capacity": None,
        "narrow": {"width_capacity": 64, "dtype": "uint16"},
        "saturating": {"width_capacity": 64, "dtype": "uint8"},
    },
}


def open_request(setup: dict | None) -> dict:
    """The ``/v1/stream`` open body for one setup."""
    failure: str | dict = "failure-ratio"
    if setup is not None:
        dtype = getattr(np, setup["dtype"])
        failure = {
            "kind": "failure-ratio",
            "params": {
                name: CountMinSketch(setup["width_capacity"], dtype=dtype)
                for name in ("failures", "attempts")
            },
        }
    return {
        "detectors": [failure, "contact-rate"],
        "compact_capacity": PARAMS["compact_capacity"],
    }


def chunks() -> list[str]:
    stream = SyntheticFlowStream(
        TraceConfig(**PARAMS["trace"]), max_flows=PARAMS["flows"]
    )
    lines = [record_to_json(record) for record in stream]
    size = PARAMS["chunk"]
    return ["\n".join(lines[at : at + size]) for at in range(0, len(lines), size)]


def sha256(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def sketch_buffers(session) -> dict[str, str]:
    """sha256 of every sketch buffer the session's detectors hold."""
    out = {}
    for detector in session.engine.detectors:
        for name in ("failures", "attempts", "estimator"):
            sketch = getattr(detector, name, None)
            for attr in ("_table", "_registers"):
                buffer = getattr(sketch, attr, None)
                if buffer is not None:
                    out[f"{detector.name}.{name}{attr}"] = sha256(
                        buffer.tobytes()
                    )
    return out


def run_setup(setup: dict | None, texts: list[str]) -> dict:
    registry = StreamRegistry()
    session = registry.open(open_request(setup))
    chunk_digests = []
    for text in texts:
        response = registry.chunk(session.id, text)
        response.pop("id")
        chunk_digests.append(sha256(response))
    buffers = sketch_buffers(session)
    summary = registry.close(session.id)
    summary.pop("id")
    return {
        "chunks": chunk_digests,
        "summary": sha256(summary),
        "buffers": buffers,
        "events": summary["total_events"],
    }


def evaluate() -> dict:
    texts = chunks()
    return {
        label: run_setup(setup, texts)
        for label, setup in PARAMS["setups"].items()
    }


def test_compact_stream_bytes_match_the_fixture(request):
    fresh = {"params": PARAMS, "result": evaluate()}
    fresh["sha256"] = sha256(fresh["result"])

    if request.config.getoption("--update-golden"):
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
    assert golden["params"] == json.loads(json.dumps(PARAMS)), (
        "fixture was generated with different stream parameters; "
        "regenerate with --update-golden"
    )
    drift = []
    for label, want in golden["result"].items():
        got = fresh["result"][label]
        first = next(
            (
                i
                for i, (a, b) in enumerate(zip(want["chunks"], got["chunks"]))
                if a != b
            ),
            None,
        )
        if first is not None:
            drift.append(f"  {label}: chunk {first} is the first to drift")
        if want["summary"] != got["summary"]:
            drift.append(f"  {label}: summary drifted")
        for name in sorted(set(want["buffers"]) | set(got["buffers"])):
            if want["buffers"].get(name) != got["buffers"].get(name):
                drift.append(f"  {label}: {name} bytes drifted")
    assert not drift and fresh["sha256"] == golden["sha256"], (
        "compact stream detection drifted from the golden fixture:\n"
        + "\n".join(drift or ["  (digest differs, no per-part delta found)"])
    )


def test_fixture_exercises_every_setup():
    """Each setup quarantines something and holds all three buffers."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden["sha256"] == sha256(golden["result"]), (
        "fixture hash does not match its stored result "
        "(hand-edited fixture?)"
    )
    for label, result in golden["result"].items():
        assert result["events"] > 0, label
        assert len(result["chunks"]) == PARAMS["flows"] // PARAMS["chunk"]
        assert len(result["buffers"]) == 3, label
