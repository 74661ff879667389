"""Front-door routing against in-process shards (no subprocesses).

:class:`StaticShards` stands in for the supervisor, so these tests
exercise the router's actual routing, fallback, quota, and aggregation
logic against real :class:`ServiceThread` shards — the subprocess
spawning path is covered separately by the recovery/soak suite and the
sharded CI smoke.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.runner import EnsembleSpec, RunSpec, TopologySpec, run_ensemble
from repro.service import (
    QueueFull,
    QuotaConfig,
    QuotaTable,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    StaticShards,
)
from repro.service.http11 import ServerThread
from repro.service.protocol import result_payload
from repro.service.router import Router, shard_index_for_job, shard_tag

pytestmark = pytest.mark.service


def spec_with(label: str) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=10,
        ),
        num_runs=2,
        base_seed=7,
        label=label,
    )


def router_thread(shards, *, quotas=None) -> ServerThread:
    """A Router on the shared loop-thread runner."""
    return ServerThread(
        lambda: Router(
            shards, port=0, quotas=quotas, health_interval_s=0.2
        )
    )


@pytest.fixture()
def two_shards(tmp_path):
    """Two ServiceThread shards sharing one durable store root."""
    store = str(tmp_path / "jobs")
    shards = []
    threads = []
    for index in range(2):
        config = ServiceConfig(
            port=0,
            jobs=1,
            max_queue=32,
            concurrency=2,
            cache_enabled=True,
            cache_dir=str(tmp_path / "cache"),
            shard_tag=shard_tag(index),
            job_store_dir=store,
        )
        thread = ServiceThread(config).start()
        threads.append(thread)
        shards.append(("127.0.0.1", thread.port))
    try:
        yield StaticShards(shards), threads
    finally:
        for thread in threads:
            thread.stop()


class TestIdRouting:
    def test_shard_index_round_trip(self):
        assert shard_index_for_job("s0-abcd") == 0
        assert shard_index_for_job("s17-ff00") == 17

    def test_malformed_ids_route_nowhere(self):
        for job_id in ("", "abcd", "s-x", "sX-1", "x0-1", "s1"):
            assert shard_index_for_job(job_id) is None


class TestRouting:
    def test_run_round_robins_across_shards(self, two_shards):
        shards, _ = two_shards
        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=60) as client:
                ids = [
                    client.submit(spec_with(f"rr-{i}"))["id"]
                    for i in range(4)
                ]
        prefixes = {job_id.split("-", 1)[0] for job_id in ids}
        assert prefixes == {"s0", "s1"}

    def test_result_polls_route_to_owner(self, two_shards):
        shards, threads = two_shards
        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=60) as client:
                job = client.submit(spec_with("owner"))
                payload = client.wait(job["id"], timeout=60)
        # Differential: the routed payload matches what the owning
        # shard serves directly.
        owner = int(job["id"].split("-", 1)[0][1:])
        with ServiceClient(port=threads[owner].port, timeout=60) as direct:
            assert direct.wait(job["id"], timeout=60) == payload

    def test_dead_owner_falls_back_to_store_via_sibling(self, two_shards):
        shards, threads = two_shards
        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=60) as client:
                job = client.submit(spec_with("fallback"))
                payload = client.wait(job["id"], timeout=60)
                # Take the owning shard down; the poll must still be
                # answered byte-identically from the shared store by
                # the surviving sibling.
                owner = int(job["id"].split("-", 1)[0][1:])
                shards.set_address(owner, None)
                assert client.wait(job["id"], timeout=60) == payload

    def test_no_healthy_shard_is_503_with_retry_after(self, two_shards):
        shards, _ = two_shards
        with router_thread(shards) as front:
            shards.set_address(0, None)
            shards.set_address(1, None)
            with ServiceClient(port=front.port, timeout=60) as client:
                with pytest.raises(Exception) as excinfo:
                    client.submit(spec_with("nobody-home"))
        assert "503" in str(excinfo.value) or "no healthy shard" in str(
            excinfo.value
        )

    def test_unknown_id_is_404_not_error_storm(self, two_shards):
        shards, _ = two_shards
        from repro.service import ServiceError

        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=60) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.poll("s0-feedfacedeadbeef")
        assert excinfo.value.status == 404


class TestFrontDoorQuotas:
    def test_quota_429_with_deficit_retry_after(self, two_shards):
        shards, _ = two_shards
        quotas = QuotaTable(QuotaConfig(rate=0.5, burst=2.0))
        with router_thread(shards, quotas=quotas) as front:
            with ServiceClient(
                port=front.port, timeout=60, tenant="hammer"
            ) as client:
                client.submit(spec_with("q-0"))
                client.submit(spec_with("q-1"))
                with pytest.raises(QueueFull) as excinfo:
                    client.submit(spec_with("q-2"))
        # Empty bucket at rate 0.5: next token is <= 2 s away, and the
        # header ceilings the deficit.
        assert 1 <= excinfo.value.retry_after_s <= 2
        stats = quotas.stats()
        assert stats["tenants"]["hammer"]["admitted"] == 2
        assert stats["tenants"]["hammer"]["throttled"] == 1

    def test_tenants_isolated_at_the_front_door(self, two_shards):
        shards, _ = two_shards
        quotas = QuotaTable(QuotaConfig(rate=0.5, burst=1.0))
        with router_thread(shards, quotas=quotas) as front:
            with ServiceClient(
                port=front.port, timeout=60, tenant="greedy"
            ) as greedy:
                greedy.submit(spec_with("iso-0"))
                with pytest.raises(QueueFull):
                    greedy.submit(spec_with("iso-1"))
            with ServiceClient(
                port=front.port, timeout=60, tenant="polite"
            ) as polite:
                polite.submit(spec_with("iso-2"))  # unaffected


class TestIntrospection:
    def test_healthz_reports_shard_liveness(self, two_shards):
        shards, _ = two_shards
        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=60) as client:
                health = client.healthz()
                assert health["router"] is True
                assert health["alive"] == 2
                shards.set_address(1, None)
                health = client.healthz()
                assert health["alive"] == 1
                assert health["status"] == "ok"
                by_tag = {s["shard"]: s for s in health["shards"]}
                assert by_tag["s1"]["alive"] is False

    def test_metrics_aggregates_shard_counters(self, two_shards):
        shards, _ = two_shards
        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=60) as client:
                for i in range(3):
                    job = client.submit(spec_with(f"agg-{i}"))
                    client.wait(job["id"], timeout=60)
                metrics = client.metrics()
        assert metrics["jobs"]["completed"] >= 3
        assert metrics["router"]["counters"]["forwarded"] >= 6
        assert "/v1/run" in metrics["latency"]
        # Router-side latency table tracks the front-door endpoints.
        assert "/v1/run" in metrics["router"]["latency"]


class TestByteParity:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_routed_bytes_match_in_process(self, two_shards, engine):
        shards, _ = two_shards
        spec = EnsembleSpec(
            template=RunSpec(
                topology=TopologySpec(kind="powerlaw", num_nodes=80),
                max_ticks=25,
                engine=engine,
            ),
            num_runs=3,
            base_seed=41,
            label=f"routed-parity-{engine}",
        )
        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=120) as client:
                served = client.run_bytes(spec, timeout=120)
        assert served == result_payload(run_ensemble(spec, use_cache=False))


class TestMethods:
    @pytest.mark.parametrize("path", ["/healthz", "/metrics"])
    def test_post_to_introspection_is_405(self, two_shards, path):
        shards, _ = two_shards
        with router_thread(shards) as front:
            with ServiceClient(port=front.port, timeout=60) as client:
                status, _headers, _payload = client._request(
                    "POST", path, b"{}"
                )
        assert status == 405


def exchange_raw(port: int, request: bytes) -> bytes:
    """Send one raw request and read until the server hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnectionClose:
    """Both fronts answer ``Connection: close`` in kind, then hang up."""

    @pytest.mark.parametrize("front_kind", ["service", "router"])
    @pytest.mark.parametrize(
        "method, expected",
        [("GET", b"HTTP/1.1 200 "), ("POST", b"HTTP/1.1 405 ")],
    )
    def test_close_is_echoed(self, two_shards, front_kind, method, expected):
        shards, threads = two_shards
        request = (
            f"{method} /healthz HTTP/1.1\r\nHost: test\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        if front_kind == "service":
            response = exchange_raw(threads[0].port, request)
        else:
            with router_thread(shards) as front:
                response = exchange_raw(front.port, request)
        head = response.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0].startswith(expected)
        assert b"Connection: close" in head
        assert b"Connection: keep-alive" not in head


class FakeUpstream:
    """A loopback 'shard' that answers every request with one canned frame."""

    def __init__(self, frame: bytes) -> None:
        self.frame = frame
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            with conn:
                received = b""
                while b"\r\n\r\n" not in received:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    received += chunk
                conn.sendall(self.frame)

    def __enter__(self) -> "FakeUpstream":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        # Shut the listener down first: that wakes the accept() the
        # serving thread is blocked in, so the join returns at once
        # (a bare close() leaves it waiting out the join timeout).
        self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._thread.join(timeout=10)


GOOD_HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"


class TestUpstreamFrames:
    @pytest.mark.parametrize(
        "frame",
        [
            # What the ``garble`` chaos fault makes: first byte flipped.
            bytes([GOOD_HEAD[0] ^ 0xFF])
            + GOOD_HEAD[1:]
            + b"Content-Length: 2\r\n\r\n{}",
            GOOD_HEAD + b"Content-Length: two\r\n\r\n{}",
        ],
        ids=["garbled-status-line", "bad-content-length"],
    )
    def test_broken_frame_is_a_forward_error(self, two_shards, frame):
        shards, _ = two_shards
        with FakeUpstream(frame) as fake:
            # The fake owns s0's ids; the real s1 is the fallback.
            front_shards = StaticShards([fake.address, shards.address(1)])
            with router_thread(front_shards) as front:
                with ServiceClient(port=front.port, timeout=60) as client:
                    status, _headers, _payload = client._request(
                        "GET", "/v1/result/s0-feedfacedeadbeef"
                    )
                counters = dict(front.server.counters)
        # The sibling's honest answer, not the broken frame's 200.
        assert status == 404
        assert counters["forward_errors"] == 1
        assert counters["retried"] == 1
        assert counters["forwarded"] == 1
