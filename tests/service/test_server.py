"""Server behavior tests: admission control, coalescing, deadlines.

Scheduling semantics are tested deterministically by injecting a
gate-controlled runner into :class:`SimulationService` — jobs block
until the test opens the gate, so "queue full" and "still in flight"
are states the test *holds*, not races it hopes to win.  The graceful
SIGTERM drain is tested end-to-end on a real subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.runner import EnsembleSpec, RunSpec, TopologySpec
from repro.service import (
    QueueFull,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service.protocol import canonical_json


def spec_with(label: str, base_seed: int = 7) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=10,
        ),
        num_runs=2,
        base_seed=base_seed,
        label=label,
    )


class GateRunner:
    """A runner the test can hold closed; honors cancellation."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def __call__(self, spec, cancel) -> bytes:
        with self._lock:
            self.calls.append(spec.label)
        while not self.gate.wait(timeout=0.01):
            if cancel.is_set():
                raise RuntimeError("cancelled by deadline")
        return canonical_json({"ran": spec.label, "seed": spec.base_seed})


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


@pytest.fixture()
def gated_service():
    """A started service whose jobs block until the gate opens."""
    runner = GateRunner()
    config = ServiceConfig(
        port=0, jobs=1, max_queue=2, concurrency=1, cache_enabled=False
    )
    with ServiceThread(config, runner=runner) as thread:
        client = ServiceClient(port=thread.port)
        try:
            yield thread, client, runner
        finally:
            runner.gate.set()  # never leave workers blocked
            client.close()


class TestAdmissionControl:
    def test_queue_full_returns_429_with_retry_after(self, gated_service):
        thread, client, runner = gated_service
        plug = client.submit(spec_with("plug"))
        # The worker picks the plug up and blocks on the gate; only
        # then do queued submissions consume the (size 2) queue.
        wait_until(lambda: client.metrics()["queue"]["running"] == 1)
        client.submit(spec_with("q1"))
        client.submit(spec_with("q2"))
        with pytest.raises(QueueFull) as excinfo:
            client.submit(spec_with("overflow"))
        assert excinfo.value.retry_after_s >= 1

        runner.gate.set()
        client.wait(plug["id"], timeout=10)
        metrics = client.metrics()
        assert metrics["jobs"]["rejected"] == 1
        assert metrics["jobs"]["accepted"] == 3

    def test_rejected_request_is_never_executed(self, gated_service):
        thread, client, runner = gated_service
        client.submit(spec_with("plug"))
        wait_until(lambda: client.metrics()["queue"]["running"] == 1)
        client.submit(spec_with("q1"))
        client.submit(spec_with("q2"))
        with pytest.raises(QueueFull):
            client.submit(spec_with("overflow"))
        runner.gate.set()
        wait_until(lambda: client.metrics()["jobs"]["completed"] == 3)
        assert "overflow" not in runner.calls


class TestCoalescing:
    def test_duplicate_requests_share_one_job(self, gated_service):
        thread, client, runner = gated_service
        client.submit(spec_with("plug"))
        wait_until(lambda: client.metrics()["queue"]["running"] == 1)

        first = client.submit(spec_with("dup", base_seed=99))
        second = client.submit(spec_with("dup", base_seed=99))
        third = client.submit(spec_with("dup", base_seed=99))
        assert first["coalesced"] is False
        assert second["coalesced"] is True and third["coalesced"] is True
        assert second["id"] == first["id"] == third["id"]

        runner.gate.set()
        payload = client.wait(first["id"], timeout=10)
        assert json.loads(payload)["ran"] == "dup"
        metrics = client.metrics()
        assert metrics["jobs"]["coalesced"] == 2
        # Exactly one computation for the three requests.
        assert runner.calls.count("dup") == 1

    def test_different_specs_do_not_coalesce(self, gated_service):
        thread, client, runner = gated_service
        client.submit(spec_with("plug"))
        wait_until(lambda: client.metrics()["queue"]["running"] == 1)
        a = client.submit(spec_with("dup", base_seed=1))
        b = client.submit(spec_with("dup", base_seed=2))  # same label!
        assert a["id"] != b["id"]
        assert b["coalesced"] is False

    def test_finished_jobs_do_not_coalesce(self, gated_service):
        thread, client, runner = gated_service
        runner.gate.set()
        first = client.submit(spec_with("again"))
        client.wait(first["id"], timeout=10)
        second = client.submit(spec_with("again"))
        assert second["coalesced"] is False
        assert second["id"] != first["id"]
        client.wait(second["id"], timeout=10)
        assert runner.calls.count("again") == 2


class TestDeadlines:
    def test_queued_job_expires_past_deadline(self, gated_service):
        thread, client, runner = gated_service
        client.submit(spec_with("plug"))
        wait_until(lambda: client.metrics()["queue"]["running"] == 1)
        doomed = client.submit(spec_with("doomed"), deadline_s=0.1)
        time.sleep(0.2)
        state = client.poll(doomed["id"])
        assert state["status"] == "expired"
        runner.gate.set()
        wait_until(lambda: client.metrics()["jobs"]["completed"] >= 1)
        assert "doomed" not in runner.calls

    def test_running_job_cancelled_at_deadline(self, gated_service):
        thread, client, runner = gated_service
        # Gate stays closed: the job starts, blocks, and must be
        # cooperatively cancelled when its deadline passes.
        doomed = client.submit(spec_with("doomed"), deadline_s=0.2)
        wait_until(
            lambda: client.poll(doomed["id"])["status"] == "expired"
        )
        assert client.metrics()["jobs"]["expired"] == 1
        assert "doomed" in runner.calls  # it did start


class TestHttpSurface:
    def test_healthz(self, gated_service):
        _thread, client, _runner = gated_service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_unknown_job_is_404(self, gated_service):
        _thread, client, _runner = gated_service
        status, _headers, payload = client._request(
            "GET", "/v1/result/nope"
        )
        assert status == 404
        assert "unknown job" in json.loads(payload)["error"]

    def test_bad_spec_is_400(self, gated_service):
        _thread, client, _runner = gated_service
        status, _headers, payload = client._request(
            "POST", "/v1/run", b'{"spec": {"num_runs": -3}}'
        )
        assert status == 400
        assert "invalid" in json.loads(payload)["error"]

    def test_null_base_seed_is_400(self, gated_service):
        _thread, client, _runner = gated_service
        spec = spec_with("seedless").to_dict()
        spec["base_seed"] = None
        status, _headers, payload = client._request(
            "POST", "/v1/run", json.dumps({"spec": spec}).encode()
        )
        assert status == 400
        assert "needs a base_seed" in json.loads(payload)["error"]

    def test_unrunnable_engine_worm_pair_is_400(self, gated_service):
        """A spec no engine can run is refused before it is queued."""
        _thread, client, _runner = gated_service
        spec = spec_with("topological").to_dict()
        spec["template"].update(
            engine="fast-batched", worm={"kind": "topological"}
        )
        status, _headers, payload = client._request(
            "POST", "/v1/run", json.dumps({"spec": spec}).encode()
        )
        assert status == 400
        assert "fast-batched" in json.loads(payload)["error"]

    def test_wrong_method_is_405(self, gated_service):
        _thread, client, _runner = gated_service
        status, _headers, _payload = client._request("GET", "/v1/run")
        assert status == 405

    def test_unknown_path_is_404(self, gated_service):
        _thread, client, _runner = gated_service
        status, _headers, _payload = client._request("GET", "/v2/run")
        assert status == 404

    def test_metrics_shape(self, gated_service):
        _thread, client, runner = gated_service
        runner.gate.set()
        job = client.submit(spec_with("measured"))
        client.wait(job["id"], timeout=10)
        metrics = client.metrics()
        assert metrics["queue"]["max"] == 2
        assert metrics["workers"]["mode"] == "serial"
        assert metrics["cache"] is None  # cache disabled in fixture
        run_latency = metrics["latency"]["/v1/run"]
        assert run_latency["count"] >= 1
        assert run_latency["histogram_ms"]
        assert "observability" in metrics

    def test_failed_job_reports_500(self, gated_service):
        thread, client, _runner = gated_service

        def explode(spec, cancel):
            raise ValueError("boom")

        thread.service.scheduler._runner = explode
        job = client.submit(spec_with("exploding"))
        wait_until(
            lambda: client.poll(job["id"])["status"] == "failed"
        )
        status, _headers, payload = client._request(
            "GET", f"/v1/result/{job['id']}"
        )
        assert status == 500
        assert "boom" in json.loads(payload)["error"]


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", "1", "--max-queue", "8",
                "--cache-dir", str(tmp_path),
            ],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on" in banner
            port = int(banner.split("http://")[1].split()[0].split(":")[1])
            client = ServiceClient(port=port, timeout=10)
            job = client.submit(spec_with("drain-me"))
            client.close()  # drop keep-alive so drain isn't held open
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "draining" in out
            assert "stopped (clean)" in out
            assert job["id"]
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
