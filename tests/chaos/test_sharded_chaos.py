"""Sharded-service degradation under injected faults.

The three PR-10 sites, each with the append-only-evolution proof and a
degradation contract:

* appending ``service.shard.kill`` / ``service.jobstore.truncate`` /
  ``service.quota.clock`` to ``DEFAULT_SITES`` left every pre-existing
  site's derived schedule byte-identical across a 20-seed matrix;
* a torn journal append costs exactly the damaged line — replay skips
  it, counts it, and the surviving prefix stays a consistent index
  (a job whose terminal line tore degrades to *resubmittable*, never
  to a half-state);
* a backwards quota-clock skew never mints tokens, never pushes a
  bucket negative, and is not refunded when the clock recovers;
* a ``service.shard.kill`` fault SIGKILLs one supervised shard and the
  very same health tick restarts it — a crash is a blip.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    DEFAULT_SITES,
    Fault,
    FaultPlan,
    chaos_active,
    site_models,
)
from repro.runner import EnsembleSpec, RunSpec, TopologySpec
from repro.service import JobStore, QuotaConfig, QuotaTable

from ..service.test_stream_endpoint import flow_lines
from .conftest import seed_matrix

pytestmark = [pytest.mark.chaos, pytest.mark.service]

SHARDED_SITES = (
    "service.shard.kill",
    "service.jobstore.truncate",
    "service.quota.clock",
)


def spec_dict(label: str = "chaos") -> dict:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=10,
        ),
        num_runs=2,
        base_seed=7,
        label=label,
    ).to_dict()


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestPlanCompatibility:
    def test_sharded_sites_are_registered_at_the_end(self):
        names = [model.site for model in DEFAULT_SITES]
        # Appended at the end — order is the compatibility contract.
        assert names[-3:] == list(SHARDED_SITES)

    def test_appending_sites_kept_old_schedules_byte_identical(self):
        legacy_sites = DEFAULT_SITES[: -len(SHARDED_SITES)]
        assert not any(
            model.site in SHARDED_SITES for model in legacy_sites
        )
        for seed in seed_matrix(20):
            full = FaultPlan.from_seed(seed)
            legacy = FaultPlan.from_seed(seed, sites=legacy_sites)
            trimmed = {
                site: events
                for site, events in full.events.items()
                if site not in SHARDED_SITES
            }
            assert trimmed == legacy.events, (
                f"plan seed {seed}: pre-sharding site schedule changed"
            )


class TestJournalTruncation:
    def test_torn_terminal_line_degrades_to_resubmittable(self, tmp_path):
        # The done line tears mid-append (append #1); replay must skip
        # exactly that line, keep the submit, and hand the job back as
        # recovery work — the result file itself is already durable.
        plan = FaultPlan.single(
            "service.jobstore.truncate", Fault("truncate", trim=16), at=1
        )
        with chaos_active(plan) as controller:
            store = JobStore(tmp_path, shard="s0")
            store.record_submit("s0-torn", spec_dict())
            digest = store.record_done("s0-torn", b'{"schema":1}')
            store.close()
        assert controller.fired_log() == [
            ("service.jobstore.truncate", 1, "truncate")
        ]
        replayed = JobStore(tmp_path, shard="s0")
        index = replayed.replay()
        assert replayed.bad_lines == 1
        assert index["s0-torn"].status == "submitted"
        assert [job.id for job in replayed.incomplete()] == ["s0-torn"]
        # The payload write preceded the torn journal line, so the
        # recovery rerun's content-addressed result is already on disk.
        assert replayed.result_path(digest).read_bytes() == b'{"schema":1}'

    def test_wholly_truncated_submit_loses_only_that_line(self, tmp_path):
        # A trim wider than the line removes it entirely: no fragment,
        # no bad line — and the later done line still stands alone as a
        # servable terminal record.
        plan = FaultPlan.single(
            "service.jobstore.truncate", Fault("truncate", trim=4096), at=0
        )
        with chaos_active(plan):
            store = JobStore(tmp_path, shard="s0")
            store.record_submit("s0-gone", spec_dict())
            store.record_done("s0-gone", b'{"schema":1}')
            store.close()
        replayed = JobStore(tmp_path, shard="s0")
        job = replayed.replay()["s0-gone"]
        assert replayed.bad_lines == 0
        assert job.status == "done"
        assert replayed.payload_bytes(job) == b'{"schema":1}'

    def test_torn_journal_keeps_accepting_later_appends(self, tmp_path):
        # The tail-sealing newline on the *next* append means one torn
        # line never poisons its successors.
        plan = FaultPlan.single(
            "service.jobstore.truncate", Fault("truncate", trim=8), at=0
        )
        with chaos_active(plan):
            store = JobStore(tmp_path, shard="s0")
            store.record_submit("s0-victim", spec_dict())
            store.record_submit("s0-after", spec_dict())
            store.close()
        replayed = JobStore(tmp_path, shard="s0")
        index = replayed.replay()
        assert replayed.bad_lines == 1
        assert "s0-victim" not in index  # its line tore
        assert index["s0-after"].status == "submitted"

    def test_seeded_truncate_schedules_replay_identically(
        self, tmp_path, tag_plan_seed
    ):
        sites = site_models(["service.jobstore.truncate"])

        def run(plan, root):
            with chaos_active(plan) as controller:
                store = JobStore(root, shard="s0")
                for i in range(12):
                    store.record_submit(f"s0-{i:04x}", spec_dict(f"j{i}"))
                    store.record_done(f"s0-{i:04x}", b'{"n":%d}' % i)
                store.close()
            replayed = JobStore(root, shard="s0")
            index = replayed.replay()
            return (
                controller.fired_log(),
                replayed.bad_lines,
                sorted(
                    (job.id, job.status, job.digest)
                    for job in index.values()
                ),
            )

        fired_any = False
        for seed in seed_matrix(6):
            tag_plan_seed(seed)
            first = run(
                FaultPlan.from_seed(seed, sites=sites),
                tmp_path / f"a-{seed}",
            )
            second = run(
                FaultPlan.from_seed(seed, sites=sites),
                tmp_path / f"b-{seed}",
            )
            assert first == second, f"plan seed {seed} did not replay"
            fired_log, bad_lines, _ = first
            # Every fired truncation damaged at most one line; a trim
            # wider than the line leaves no fragment to count.
            assert bad_lines <= len(fired_log)
            fired_any = fired_any or bool(fired_log)
        assert fired_any, "seed matrix never fired a single fault"


class TestQuotaClockSkew:
    def test_backwards_skew_never_mints_or_goes_negative(self):
        # The 4th check observes a clock 100s in the past; the bucket
        # must deny (nothing accrued), stay non-negative, and not
        # refund the excursion once real time resumes.
        plan = FaultPlan.single(
            "service.quota.clock", Fault("delay", delay_s=100.0), at=3
        )
        clock = FakeClock()
        with chaos_active(plan) as controller:
            controller.sleep = lambda _s: None  # observe, don't wait
            quotas = QuotaTable(
                QuotaConfig(rate=1.0, burst=2.0), clock=clock
            )
            decisions = []
            for _ in range(3):  # burst spends, then an honest denial
                decisions.append(quotas.check("t"))
            clock.now += 10.0  # real time passes, but the fault skews
            decisions.append(quotas.check("t"))  # observed now-ish 910
            clock.now += 1.0  # skew gone: one real second since anchor
            decisions.append(quotas.check("t"))
            assert controller.fired_log() == [
                ("service.quota.clock", 3, "delay")
            ]
        assert [d.allowed for d in decisions] == [
            True, True, False, False, True,
        ]
        assert all(d.tokens >= 0.0 for d in decisions)

    def test_seeded_skew_schedules_replay_and_never_overadmit(
        self, tag_plan_seed
    ):
        sites = site_models(["service.quota.clock"])

        def run(plan):
            clock = FakeClock()
            with chaos_active(plan) as controller:
                controller.sleep = lambda _s: None
                quotas = QuotaTable(
                    QuotaConfig(rate=2.0, burst=3.0), clock=clock
                )
                decisions = []
                for step in range(24):
                    clock.now += 0.25
                    decisions.append(quotas.check("t"))
                return (
                    controller.fired_log(),
                    [(d.allowed, round(d.tokens, 6)) for d in decisions],
                )

        fired_any = False
        for seed in seed_matrix(8):
            tag_plan_seed(seed)
            plan = FaultPlan.from_seed(seed, sites=sites)
            first = run(plan)
            second = run(FaultPlan.from_seed(seed, sites=sites))
            assert first == second, f"plan seed {seed} did not replay"
            fired_log, decisions = first
            admitted = sum(allowed for allowed, _ in decisions)
            # 24 steps * 0.25s at rate 2 plus the initial burst of 3 —
            # skew may only make admission stricter, never looser.
            assert admitted <= 2.0 * 6.0 + 3.0 + 1e-9
            assert all(tokens >= 0.0 for _, tokens in decisions)
            fired_any = fired_any or bool(fired_log)
        assert fired_any, "seed matrix never fired a single fault"


@pytest.mark.slow
class TestShardKill:
    def test_kill_fault_is_a_same_tick_blip(self, tmp_path):
        from repro.service import ServiceConfig, ShardSupervisor

        plan = FaultPlan.single("service.shard.kill", Fault("error"), at=0)
        config = ServiceConfig(
            port=0,
            jobs=1,
            max_queue=8,
            concurrency=1,
            cache_enabled=True,
            cache_dir=str(tmp_path / "cache"),
            job_store_dir=str(tmp_path / "jobs"),
        )
        supervisor = ShardSupervisor(config, 2)
        with chaos_active(plan) as controller:
            supervisor.start()
            try:
                before = {
                    entry["shard"]: entry["pid"]
                    for entry in supervisor.describe()
                }
                assert all(pid is not None for pid in before.values())
                # Tick 1: the fault SIGKILLs one shard; the same tick
                # restarts it.
                assert supervisor.check() == 1
                after = {
                    entry["shard"]: entry["pid"]
                    for entry in supervisor.describe()
                }
                assert all(pid is not None for pid in after.values())
                changed = [
                    tag for tag in before if before[tag] != after[tag]
                ]
                assert len(changed) == 1
                assert supervisor.restarts == 1
                # Tick 2: no fault scheduled, nothing to restart.
                assert supervisor.check() == 0
            finally:
                supervisor.stop(grace_s=15.0)
        assert controller.fired_log() == [
            ("service.shard.kill", 0, "error")
        ]

    def test_a_stream_dies_with_its_shard(self, tmp_path):
        """A chunk for a session whose shard died is a 404, not a reset.

        Stream sessions live in one shard's memory.  Once the owning
        shard is killed, the router sends later chunks to the next
        healthy shard, and after the restart to the fresh owner; both
        answer ``404 unknown stream id`` rather than silently opening
        a new session, so the client knows to reopen and replay.
        """
        import http.client
        import os
        import signal
        import time

        from repro.service import ServiceConfig, ShardSupervisor
        from repro.service.http11 import ServerThread
        from repro.service.router import Router

        def post(port: int, path: str, body: str) -> tuple[int, dict]:
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=30.0
            )
            try:
                connection.request("POST", path, body=body.encode("utf-8"))
                response = connection.getresponse()
                return response.status, json.loads(response.read() or b"{}")
            finally:
                connection.close()

        config = ServiceConfig(
            port=0,
            jobs=1,
            max_queue=8,
            concurrency=1,
            cache_enabled=False,
            job_store_dir=str(tmp_path / "jobs"),
        )
        supervisor = ShardSupervisor(config, 2)
        supervisor.start()
        try:
            # The health loop stays out of the way: this test restarts
            # the shard itself, after checking the dead-owner window.
            with ServerThread(
                lambda: Router(supervisor, port=0, health_interval_s=3600.0)
            ) as front:
                status, opened = post(front.port, "/v1/stream", "{}")
                assert status == 201
                stream = f"/v1/stream/{opened['id']}"
                lines = "\n".join(flow_lines(50))
                status, chunk = post(front.port, stream, lines)
                assert (status, chunk["flows"]) == (200, 50)

                owner = supervisor.describe()[0]
                os.kill(owner["pid"], signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while supervisor.describe()[0]["alive"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                status, body = post(front.port, stream, lines)
                assert status == 404
                assert body["error"] == f"unknown stream id: {opened['id']}"

                assert supervisor.check() == 1
                status, body = post(front.port, stream, lines)
                assert status == 404
                assert body["error"] == f"unknown stream id: {opened['id']}"
                status, _ = post(front.port, stream + "/close", "")
                assert status == 404
                # The restarted owner takes new sessions.
                status, reopened = post(front.port, "/v1/stream", "{}")
                assert status == 201
                assert reopened["id"] != opened["id"]
        finally:
            supervisor.stop(grace_s=15.0)
