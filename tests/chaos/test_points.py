"""The fault-point API: no-op defaults, install semantics, exact replay.

The injection points live on hot-ish paths (per run, per request), so
the harness's first promise is that an *uninstalled* controller is
indistinguishable from no instrumentation at all; its second is that an
installed plan fires its faults on exactly the scheduled invocations,
every time, from any thread.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.chaos import (
    Fault,
    FaultPlan,
    chaos_active,
    corrupt,
    current,
    fault_point,
    install,
    uninstall,
)
from repro.runner import EnsembleSpec, RunSpec, TopologySpec, run_ensemble
from repro.runner.executors import Executor
from repro.service.protocol import result_payload

pytestmark = pytest.mark.chaos


def tiny_ensemble(label: str = "points") -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=8,
        ),
        num_runs=2,
        base_seed=13,
        label=label,
    )


class TestChaosOff:
    def test_fault_point_returns_none(self):
        assert current() is None
        assert fault_point("runner.cache.load") is None
        assert fault_point("no.such.site") is None

    def test_corrupt_is_identity(self):
        frame = b"HTTP/1.1 200 OK\r\n\r\nbody"
        assert corrupt("service.http.response", frame) == frame

    def test_empty_plan_is_equivalent_to_no_plan(self):
        spec = tiny_ensemble()
        plain = result_payload(
            run_ensemble(spec, executor=Executor(1), use_cache=False)
        )
        with chaos_active(FaultPlan()) as controller:
            empty = result_payload(
                run_ensemble(
                    spec, executor=Executor(1), use_cache=False
                )
            )
            assert controller.fired == []
            # The instrumented layers did traverse their fault points.
            assert controller.invocations("runner.executor.run") == 2
        assert empty == plain

    def test_disabled_fault_point_is_cheap(self):
        # The no-op path is one global read and a None check; 200k calls
        # in well under a second is the smoke bound (measured ~0.05s).
        start = time.perf_counter()
        for _ in range(200_000):
            fault_point("runner.executor.run")
        assert time.perf_counter() - start < 1.0


class TestInstallSemantics:
    def test_double_install_rejected(self):
        install(FaultPlan())
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                install(FaultPlan())
        finally:
            uninstall()

    def test_uninstall_is_idempotent(self):
        uninstall()
        uninstall()
        assert current() is None

    def test_chaos_active_uninstalls_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with chaos_active(FaultPlan()):
                assert current() is not None
                raise RuntimeError("boom")
        assert current() is None


class TestTrigger:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("io_error", OSError),
            ("break_pool", BrokenExecutor),
            ("timeout", FutureTimeoutError),
            ("error", RuntimeError),
        ],
    )
    def test_raising_kinds_and_messages(self, kind, expected):
        plan = FaultPlan(events={"site.x": {0: Fault(kind)}}, seed=77)
        with chaos_active(plan) as controller:
            with pytest.raises(expected) as excinfo:
                fault_point("site.x")
            message = str(excinfo.value)
            assert "chaos[site.x@0]" in message
            assert f"injected {kind}" in message
            assert "plan seed 77" in message
            assert controller.fired_log() == [("site.x", 0, kind)]

    def test_delay_uses_the_injected_sleep(self):
        plan = FaultPlan.single("site.x", Fault("delay", delay_s=0.05))
        slept: list[float] = []
        with chaos_active(plan) as controller:
            controller.sleep = slept.append
            fault = fault_point("site.x")
            assert fault is not None and fault.kind == "delay"
        assert slept == [0.05]

    def test_site_interpreted_kinds_are_returned_not_raised(self):
        plan = FaultPlan.single("site.x", Fault("reject"))
        with chaos_active(plan):
            fault = fault_point("site.x")
            assert fault is not None and fault.kind == "reject"

    def test_faults_fire_only_on_their_invocation(self):
        plan = FaultPlan.single("site.x", Fault("io_error"), at=2)
        with chaos_active(plan) as controller:
            assert fault_point("site.x") is None
            assert fault_point("site.x") is None
            with pytest.raises(OSError):
                fault_point("site.x")
            assert fault_point("site.x") is None
            assert controller.invocations("site.x") == 4
            # Other sites' counters are untouched.
            assert controller.invocations("site.y") == 0


class TestExactReproducibility:
    @staticmethod
    def _drive(controller) -> None:
        """A fixed synthetic workload over every default site."""
        for _ in range(12):
            for site in (
                "runner.executor.run",
                "runner.executor.pool",
                "runner.executor.await",
                "runner.cache.load",
                "runner.cache.store",
                "service.worker.run",
                "service.scheduler.admit",
            ):
                try:
                    fault_point(site)
                except Exception:
                    pass
            corrupt("service.http.response", b"x" * 64)

    def test_same_seed_reproduces_the_exact_fault_sequence(self):
        logs = []
        for _ in range(2):
            with chaos_active(FaultPlan.from_seed(3)) as controller:
                controller.sleep = lambda _s: None
                self._drive(controller)
                logs.append(controller.fired_log())
        assert logs[0] == logs[1]
        assert logs[0], "seed 3 schedules faults this workload reaches"

    def test_concurrent_fault_points_lose_no_counts(self):
        with chaos_active(FaultPlan()) as controller:
            def hammer():
                for _ in range(500):
                    fault_point("site.x")

            threads = [
                threading.Thread(target=hammer) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert controller.invocations("site.x") == 8 * 500


class TestCorrupt:
    def test_truncate_drops_the_scheduled_tail(self):
        plan = FaultPlan.single(
            "service.http.response", Fault("truncate", trim=16)
        )
        frame = bytes(range(100))
        with chaos_active(plan):
            assert corrupt("service.http.response", frame) == frame[:-16]

    def test_truncate_always_drops_at_least_one_byte(self):
        plan = FaultPlan.single(
            "service.http.response", Fault("truncate", trim=0)
        )
        with chaos_active(plan):
            out = corrupt("service.http.response", b"abc")
        assert out == b"ab"

    def test_garble_flips_the_first_byte(self):
        plan = FaultPlan.single("service.http.response", Fault("garble"))
        frame = b"HTTP/1.1 200 OK\r\n\r\n"
        with chaos_active(plan):
            out = corrupt("service.http.response", frame)
        assert out[0] == frame[0] ^ 0xFF
        assert out[1:] == frame[1:]

    def test_unscheduled_invocations_pass_through(self):
        plan = FaultPlan.single(
            "service.http.response", Fault("garble"), at=1
        )
        with chaos_active(plan):
            assert corrupt("service.http.response", b"ok") == b"ok"
            assert corrupt("service.http.response", b"ok") != b"ok"
            assert corrupt("service.http.response", b"ok") == b"ok"
