"""Service-stack degradation under injected faults.

Each scenario drives a real :class:`ServiceThread` (real HTTP framing,
real scheduler, real worker tier) with a chaos plan installed before the
service starts, and asserts the *exact* externally visible degradation:
the 504 after a deadline trip, the 429 with Retry-After on a forced
reject, reconciling admission counters under a burst, a client
surviving corrupted response frames via its reconnect-retry, and a pool
death surfacing as ``workers.restarts`` in ``/metrics`` while the
payload stays byte-identical.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from repro.chaos import Fault, FaultPlan, chaos_active
from repro.runner import EnsembleSpec, RunSpec, TopologySpec, run_ensemble
from repro.runner.executors import Executor
from repro.service import (
    QueueFull,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service.protocol import canonical_json, result_payload

pytestmark = [pytest.mark.service, pytest.mark.chaos]

TERMINAL = {"done", "failed", "expired"}


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


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def poll_until_terminal(
    client: ServiceClient, job_id: str, timeout: float = 10.0
) -> dict:
    state = {}
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = client.poll(job_id)
        if state["status"] in TERMINAL:
            return state
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never terminal: {state}")


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
        return canonical_json({"ran": spec.label})


@contextmanager
def service_under(plan: FaultPlan, config: ServiceConfig, *, runner=None):
    """A started service with ``plan`` installed before it boots."""
    with chaos_active(plan) as controller:
        with ServiceThread(config, runner=runner) as thread:
            client = ServiceClient(port=thread.port)
            try:
                yield thread, client, controller
            finally:
                client.close()


class TestDeadlineTrip:
    def test_worker_delay_expires_the_job(self):
        plan = FaultPlan.single(
            "service.worker.run", Fault("delay", delay_s=0.3), at=0
        )
        config = ServiceConfig(
            port=0, jobs=1, max_queue=4, concurrency=1, cache_enabled=False
        )
        with service_under(plan, config) as (thread, client, controller):
            job = client.submit(spec_with("trip"), deadline_s=0.05)
            state = poll_until_terminal(client, job["id"])
            assert state["status"] == "expired"
            assert "deadline exceeded" in state["error"]
            metrics = client.metrics()
            assert metrics["jobs"]["expired"] == 1
            assert metrics["jobs"]["completed"] == 0
            assert controller.fired_log() == [
                ("service.worker.run", 0, "delay")
            ]


class TestForcedReject:
    def test_reject_is_a_full_429_then_recovery(self):
        plan = FaultPlan.single(
            "service.scheduler.admit", Fault("reject"), at=0
        )
        config = ServiceConfig(
            port=0, jobs=1, max_queue=4, concurrency=1, cache_enabled=False
        )
        with service_under(plan, config) as (thread, client, controller):
            with pytest.raises(QueueFull) as excinfo:
                client.submit(spec_with("rejected"))
            assert excinfo.value.retry_after_s >= 1
            # The queue was empty — only the injected fault rejected us;
            # the retry the 429 asks for succeeds immediately.
            payload = client.run_bytes(spec_with("rejected"))
            assert payload  # a real ensemble payload, not an error doc
            metrics = client.metrics()
            assert metrics["jobs"]["rejected"] == 1
            assert metrics["jobs"]["accepted"] == 1
            assert metrics["jobs"]["completed"] == 1
            assert controller.fired_log() == [
                ("service.scheduler.admit", 0, "reject")
            ]


class TestBurstReconciliation:
    def test_admission_counters_account_for_every_submit(self):
        # Admission invocations (coalesced submits never reach the
        # fault point): plug=0, a=1, b=2 (rejected), c=3.
        plan = FaultPlan.single(
            "service.scheduler.admit", Fault("reject"), at=2
        )
        config = ServiceConfig(
            port=0, jobs=1, max_queue=2, concurrency=1, cache_enabled=False
        )
        runner = GateRunner()
        with service_under(plan, config, runner=runner) as (
            thread,
            client,
            controller,
        ):
            try:
                client.submit(spec_with("plug"))
                wait_until(
                    lambda: client.metrics()["queue"]["running"] == 1
                )
                job_a = client.submit(spec_with("a"))
                with pytest.raises(QueueFull):
                    client.submit(spec_with("b"))
                for _ in range(3):  # duplicates coalesce onto job a
                    assert (
                        client.submit(spec_with("a"))["id"] == job_a["id"]
                    )
                client.submit(spec_with("c"))
            finally:
                runner.gate.set()
            wait_until(
                lambda: client.metrics()["jobs"]["completed"] == 3
            )
            metrics = client.metrics()["jobs"]
            assert metrics["accepted"] == 3
            assert metrics["rejected"] == 1
            assert metrics["coalesced"] == 3
            # Every one of the 7 submits is accounted for.
            assert (
                metrics["accepted"]
                + metrics["rejected"]
                + metrics["coalesced"]
                == 7
            )
            assert "b" not in runner.calls
            assert controller.fired_log() == [
                ("service.scheduler.admit", 2, "reject")
            ]


class TestFrameCorruption:
    def test_client_survives_truncated_and_garbled_responses(self):
        # Response-frame invocations: 0 clean, 1 truncated (client
        # retries -> 2 clean), 3 garbled (retries -> 4 clean), 5+ clean.
        plan = FaultPlan(
            events={
                "service.http.response": {
                    1: Fault("truncate", trim=64),
                    3: Fault("garble"),
                }
            }
        )
        config = ServiceConfig(
            port=0, jobs=1, max_queue=4, concurrency=1, cache_enabled=False
        )
        with service_under(plan, config) as (thread, client, controller):
            for _ in range(3):
                assert client.healthz()["status"] == "ok"
            assert controller.fired_log() == [
                ("service.http.response", 1, "truncate"),
                ("service.http.response", 3, "garble"),
            ]
            # Past the corrupted window the service is fully usable.
            payload = client.run_bytes(spec_with("after-corruption"))
            assert payload


class TestPoolDeath:
    def test_restart_is_visible_in_metrics_and_payload_unchanged(self):
        spec = spec_with("pool-death")
        expected = result_payload(
            run_ensemble(spec, executor=Executor(1), use_cache=False)
        )
        plan = FaultPlan.single(
            "runner.executor.pool", Fault("break_pool"), at=0
        )
        config = ServiceConfig(
            port=0, jobs=2, max_queue=4, concurrency=1, cache_enabled=False
        )
        with service_under(plan, config) as (thread, client, controller):
            payload = client.run_bytes(spec, timeout=120)
            metrics = client.metrics()
            assert metrics["workers"]["mode"] == "pool"
            assert metrics["workers"]["restarts"] == 1
            assert controller.fired_log() == [
                ("runner.executor.pool", 0, "break_pool")
            ]
        assert payload == expected
