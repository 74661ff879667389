"""The benchmark's three workloads: inputs, op loop, output checks.

Every workload does a fixed amount of work per run: its op count (or,
for the open loop, its request schedule) is a function of ``seconds``
only, and every seed it hands the program is derived from the workload
seed (``figure_fresh`` takes only its op order from it).  Set-up is repeated ``setups`` times per run from the same cold
state; each repetition generates the inputs and runs one warm-up op on a
seed outside the measured set.  Nothing here starts a process.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import resource
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import repro.runner.api as api
import repro.simulator.network as network_module
from repro.runner.build import execute_run
from repro.runner.spec import (
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
)
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.protocol import (
    canonical_json,
    encode_run_result,
    result_payload,
)
from repro.service.streams import StreamRegistry, build_stream_engine
from repro.simulator.immunization import ImmunizationPolicy
from repro.streaming.stream import (
    SyntheticFlowStream,
    record_from_json,
    record_to_json,
)
from repro.traces.synth import TraceConfig

from tracing import Tracer

#: Closed loops stop starting ops after this many multiples of ``seconds``.
HARD_STOP = 3.0
#: The detectors a stream session runs.
STREAM_OPEN = {
    "detectors": ["failure-ratio", "contact-rate"],
    "compact_capacity": 2048,
}
#: Chunks (and flows per chunk) a closed-loop run ingests in-process,
#: spread evenly between its ops.
PROBE_CHUNKS = 60
PROBE_FLOWS = 500

#: Layers whose spans happen inside a simulation op (not stream ingest).
OP_LAYERS = (
    "topology.build", "routing.build", "network.build", "defense.deploy",
    "fastpath.init", "fastpath.run", "vector.init", "vector.run",
    "vector.harvest", "runner.execute", "runner.replica_batch",
    "runner.group", "runner.ensemble", "cache.load", "cache.store",
    "protocol.serialize",
)
STREAM_LAYERS = ("streams.chunk", "stream.parse", "detectors.feed")
DEPLOYMENTS = ("none", "hosts", "edge", "backbone", "quarantine")
#: The consecutive parts a ``/v1/run`` op's wall time splits into.
SERVICE_PARTS = (
    "client.send_lag",  # due -> sent: how late the generator ran
    "service.admit",  # sent -> job created: HTTP, parse, admission
    "scheduler.queue_wait",  # created -> started
    "scheduler.dispatch",  # started -> worker thread calls run_ensemble
    "service.worker_run",  # run_ensemble + result_payload, split by spans
    "scheduler.completion_wait",  # payload built -> event loop marks done
    "client.fetch",  # done -> payload received: poll slack and GET
)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trimmed_mean(values: list[float], share: float = 0.1) -> float:
    """Mean without the lowest and the highest ``share`` of the values."""
    values = sorted(values)
    cut = int(len(values) * share)
    return statistics.mean(values[cut : len(values) - cut])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def flow_chunks(seed: int, count: int, size: int) -> list[str]:
    """``count`` time-ordered synthetic JSONL chunks of ``size`` flows."""
    stream = SyntheticFlowStream(
        TraceConfig(duration=1e7, seed=seed), max_flows=count * size
    )
    lines = [record_to_json(record) for record in stream]
    return ["\n".join(lines[at : at + size]) for at in range(0, len(lines), size)]


def stream_oracle(chunks: list[str]) -> dict[str, list[int]]:
    """Final quarantine sets of a fresh engine fed the chunks directly."""
    engine = build_stream_engine(dict(STREAM_OPEN))
    for text in chunks:
        for line in text.splitlines():
            engine.feed(record_from_json(line))
    engine.finish()
    return {
        name: sorted(hosts)
        for name, hosts in sorted(engine.quarantined().items())
    }


def check_stream(summary: dict, chunks: list[str]) -> list[str]:
    """Output checks on a closed stream session's summary."""
    problems = []
    if summary["bad_lines"] != 0:
        problems.append(f"stream reported {summary['bad_lines']} bad lines")
    if summary["flows"] != sum(len(c.splitlines()) for c in chunks):
        problems.append("stream flow count differs from the input")
    if summary["quarantined"] != stream_oracle(chunks):
        problems.append("stream quarantine sets differ from the oracle")
    return problems


def stream_counts(summary: dict) -> dict[str, float]:
    return {
        "stream.flows": summary["flows"],
        "stream.quarantined": sum(
            len(hosts) for hosts in summary["quarantined"].values()
        ),
        "stream.bad_lines": summary["bad_lines"],
    }


@dataclasses.dataclass
class Outcome:
    """What one measured run produced."""

    op_ms: list[float]
    chunk_ms: list[float]
    runs: int
    busy_s: float  # seconds the program spent on the completed runs
    attempted: int
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    overloaded: bool = False


class Workload:
    """Set-up, measured op set and output checks of one workload."""

    name = ""
    #: Set-up repetitions per run; ``setup_s`` is their trimmed mean.
    setups = 5

    def __init__(self, *, seed: int, seconds: int, scratch: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.chunks: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, tracer: Tracer | None) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def execute(self, trace: bool) -> tuple[list[float], Outcome, float]:
        """Set up ``setups`` times, then measure; returns set-up times too."""
        setups = []
        for _ in range(self.setups):
            self.close()
            # Every repetition starts from a cold topology cache, so each
            # one does the same work however many came before it.
            network_module._powerlaw_blueprint.cache_clear()
            start = time.perf_counter()
            self.setup()
            setups.append(time.perf_counter() - start)
        outcome = self.measure(Tracer() if trace else None)
        return setups, outcome, peak_rss_mb()


class ClosedLoop(Workload):
    """One caller runs ops back to back, ingesting probe chunks between.

    Every workload has to report every end-to-end metric, chunk latency
    included, so the closed loops ingest a small probe stream in-process.
    The chunks are spread over the whole run, rather than ingested in
    one burst, so chunk latency sees the same stretch of machine time as
    the ops do.
    """

    #: Nominal op cost in seconds on the reference machine; the op count
    #: is ``seconds / OP_S``, so a run's work is fixed by ``seconds``.
    OP_S = 1.0

    @property
    def n_ops(self) -> int:
        return max(4, round(self.seconds / self.OP_S))

    def run(self, index: int, tracer: Tracer | None):
        """Run op ``index`` (the timed part); returns its results."""
        raise NotImplementedError

    def check(self, index: int, results) -> tuple[int, list[str]]:
        """Untimed checks of op ``index``: (runs completed, failures)."""
        raise NotImplementedError

    def finish_checks(self) -> list[str]:
        return []

    def counts(self) -> dict[str, float]:
        return {}

    def setup(self) -> None:
        self.chunks = flow_chunks(self.seed, PROBE_CHUNKS, PROBE_FLOWS)
        self.reset()
        # The same warm-up op every repetition, so each does equal work.
        self.run(-1, None)

    def reset(self) -> None:
        pass

    def measure(self, tracer: Tracer | None) -> Outcome:
        self.reset()
        n_ops = self.n_ops
        traced_from = n_ops // 2 if tracer is not None else n_ops
        # Op i is followed by chunks probe_at[i] .. probe_at[i + 1] - 1.
        probe_at = [i * PROBE_CHUNKS // n_ops for i in range(n_ops + 1)]
        registry = StreamRegistry()
        session = registry.open(dict(STREAM_OPEN))
        op_ms: list[float] = []
        chunk_ms: list[float] = []
        failures = 0
        problems: list[str] = []
        runs = 0
        window_start = time.perf_counter()
        try:
            for index in range(n_ops):
                if time.perf_counter() - window_start > HARD_STOP * self.seconds:
                    problems.append(f"hard stop after {index} of {n_ops} ops")
                    failures += n_ops - index
                    break
                if index == traced_from:
                    tracer.install()
                start = time.perf_counter()
                try:
                    results = self.run(index, tracer)
                    op_ms.append((time.perf_counter() - start) * 1e3)
                    done, failed = self.check(index, results)
                    runs += done
                except Exception as exc:  # counted as a failed op
                    failed = [f"op {index}: {type(exc).__name__}: {exc}"]
                if failed:
                    failures += 1
                    problems.extend(failed)
                for text in self.chunks[probe_at[index] : probe_at[index + 1]]:
                    start = time.perf_counter()
                    registry.chunk(session.id, text)
                    chunk_ms.append((time.perf_counter() - start) * 1e3)
            summary = registry.close(session.id)
        finally:
            if tracer is not None:
                tracer.restore()
        attempted = n_ops
        run_problems = self.finish_checks() + check_stream(summary, self.chunks)
        if run_problems:
            # A failed whole-run check invalidates every op of the run.
            failures = attempted
            problems.extend(run_problems)
        outcome = Outcome(
            op_ms=op_ms,
            chunk_ms=chunk_ms,
            runs=runs,
            # Throughput over the ops alone: probe chunks are not runs.
            busy_s=sum(op_ms) / 1e3,
            attempted=attempted,
            failed=failures,
            problems=problems,
        )
        if tracer is not None:
            outcome.layers = self.layer_metrics(
                tracer, op_ms[traced_from:], op_ms[:traced_from],
                PROBE_CHUNKS - probe_at[traced_from],
            )
            outcome.layers.update(stream_counts(summary))
        outcome.layers.update(self.counts())
        return outcome

    def layer_metrics(
        self,
        tracer: Tracer,
        traced_ms: list[float],
        untraced_ms: list[float],
        n_chunks: int,
    ) -> dict[str, float]:
        n = len(traced_ms)
        spans = tracer.snapshot()
        layers = {
            f"{layer}_ms": spans.get(layer, 0.0) * 1e3 / n
            for layer in OP_LAYERS
        }
        for layer in STREAM_LAYERS:
            layers[f"{layer}_ms"] = spans.get(layer, 0.0) * 1e3 / n_chunks
        # run_ensemble's self time is the runner's own overhead; its
        # inclusive time is the whole ensemble call.
        layers["runner.overhead_ms"] = layers["runner.ensemble_ms"]
        layers["runner.ensemble_ms"] = (
            tracer.total_s.get("runner.ensemble", 0.0) * 1e3 / n
        )
        attributed = sum(spans.get(layer, 0.0) for layer in OP_LAYERS)
        wall = sum(traced_ms) / 1e3
        layers["trace.attributed_frac"] = attributed / wall
        layers["trace.residual_ms"] = (wall - attributed) * 1e3 / n
        layers["trace.op_p50_ms"] = statistics.median(traced_ms)
        layers["trace.untraced_op_p50_ms"] = statistics.median(untraced_ms)
        layers["trace.overhead_frac"] = (
            layers["trace.op_p50_ms"] / layers["trace.untraced_op_p50_ms"] - 1
        )
        layers["trace.ops"] = n
        return layers


def fig4_template() -> RunSpec:
    """The paper's fig-4 scenario on the fast engine (no defense yet)."""
    return RunSpec(
        topology=TopologySpec(num_nodes=1000),
        scan_rate=0.8,
        initial_infections=5,
        lan_delivery=True,
        max_ticks=400,
        engine="fast",
    )


def fig4_column(base_seed: int) -> list[tuple[str, EnsembleSpec]]:
    """One fig-4 seed column: every deployment, one run on ``base_seed``."""
    template = fig4_template()
    backbone = DefenseSpec(kind="backbone", rate=0.02)
    variants = {
        "none": template,
        "hosts": dataclasses.replace(
            template,
            defense=DefenseSpec(kind="hosts", rate=0.01, coverage=0.05, seed=42),
        ),
        "edge": dataclasses.replace(
            template, defense=DefenseSpec(kind="edge", rate=0.02)
        ),
        "backbone": dataclasses.replace(template, defense=backbone),
        "quarantine": dataclasses.replace(
            template, quarantine=QuarantineSpec(response=backbone)
        ),
    }
    return [
        (label, EnsembleSpec(template=spec, num_runs=1, base_seed=base_seed,
                             label=label))
        for label, spec in variants.items()
    ]


class FigureFresh(ClosedLoop):
    """One fig-4 seed column per op, each on a never-used topology seed.

    An op's cost depends strongly on its topology, so a run's median
    moved with the topologies its seed drew.  Every run therefore visits
    the same ``n_ops`` topology seeds; the workload seed sets their order
    (and the probe stream).  Each is still built once per process.
    """

    name = "figure_fresh"
    OP_S = 1.3
    WARM_UP_SEED = 99_999

    def op_seed(self, index: int) -> int:
        return self.WARM_UP_SEED if index < 0 else 100_000 + self.order[index]

    def reset(self) -> None:
        self.order = random.Random(f"figure_fresh:{self.seed}").sample(
            range(self.n_ops), self.n_ops
        )
        self.ttf50: dict[str, list[float]] = {k: [] for k in DEPLOYMENTS}
        self.totals = {"ticks": 0, "injected": 0, "dropped": 0}

    def run(self, index: int, tracer: Tracer | None):
        results = []
        for label, spec in fig4_column(self.op_seed(index)):
            before = tracer.snapshot().get("fastpath.run", 0.0) if tracer else 0
            results.append((label, api.run_ensemble(spec, use_cache=False)))
            if tracer is not None:
                tracer.self_s[f"fastpath.run.{label}"] += (
                    tracer.snapshot().get("fastpath.run", 0.0) - before
                )
        return results

    def check(self, index: int, results) -> tuple[int, list[str]]:
        problems = []
        for label, result in results:
            run = result.runs[0]
            ever = run.trajectory.ever_infected
            if np.any(np.diff(ever) < 0) or ever.max() > run.trajectory.population:
                problems.append(f"op {index} {label}: ever-infected curve invalid")
            metrics = run.metrics
            if (metrics.packets_delivered + metrics.packets_dropped
                    > metrics.packets_injected):
                problems.append(f"op {index} {label}: packets not conserved")
            self.totals["ticks"] += metrics.ticks_executed
            self.totals["injected"] += metrics.packets_injected
            self.totals["dropped"] += metrics.packets_dropped
            ttf = result.time_to_fraction(0.5)
            self.ttf50[label].append(
                ttf if np.isfinite(ttf) else float(result.spec.max_ticks)
            )
        return len(results), problems

    def finish_checks(self) -> list[str]:
        # EXPERIMENTS.md F4: backbone filtering slows the worm ~4.75x.
        none = statistics.mean(self.ttf50["none"])
        backbone = statistics.mean(self.ttf50["backbone"])
        if backbone < 3.0 * none:
            return [f"backbone slowdown {backbone / none:.2f}x is below 3x"]
        return []

    def counts(self) -> dict[str, float]:
        return {
            "fastpath.ticks": self.totals["ticks"],
            "network.packets_injected": self.totals["injected"],
            "network.packets_dropped": self.totals["dropped"],
        }

    def layer_metrics(self, tracer, traced_ms, *rest):
        layers = super().layer_metrics(tracer, traced_ms, *rest)
        for label in DEPLOYMENTS:
            layers[f"fastpath.run_ms.{label}"] = (
                tracer.self_s.get(f"fastpath.run.{label}", 0.0)
                * 1e3 / len(traced_ms)
            )
        return layers


class ReplicaSweep(ClosedLoop):
    """One 128-replica near-critical die-out ensemble per op."""

    name = "replica_sweep"
    OP_S = 0.75
    REPLICAS = 128
    TOPOLOGY_SEED = 2004

    def op_seed(self, index: int) -> int:
        return 10_000_000 + self.seed * 100_000 + 10_000 + index * 1000

    def ensemble(self, index: int) -> EnsembleSpec:
        return EnsembleSpec(
            template=RunSpec(
                topology=TopologySpec(num_nodes=1000, seed=self.TOPOLOGY_SEED),
                scan_rate=0.8,
                initial_infections=1,
                lan_delivery=True,
                immunization=ImmunizationPolicy(mu=0.07, start_tick=1),
                max_ticks=150,
                engine="fast-batched",
            ),
            num_runs=self.REPLICAS,
            base_seed=self.op_seed(index),
            label="replica_sweep",
        )

    def reset(self) -> None:
        self.sampled: list[tuple[RunSpec, bytes]] = []
        self.replica_ticks = 0
        self.dieouts = 0
        self.replicas = 0

    def run(self, index: int, tracer: Tracer | None):
        return api.run_ensemble(self.ensemble(index), use_cache=False)

    def check(self, index: int, result) -> tuple[int, list[str]]:
        pick = random.Random(f"{self.seed}:{index}").randrange(self.REPLICAS)
        run = result.runs[pick]
        self.sampled.append(
            (run.spec, canonical_json(encode_run_result(run)))
        )
        for run in result.runs:
            self.replica_ticks += run.metrics.ticks_executed
            trajectory = run.trajectory
            if trajectory.ever_infected[-1] < 0.1 * trajectory.population:
                self.dieouts += 1
        self.replicas += len(result.runs)
        return len(result.runs), []

    def finish_checks(self) -> list[str]:
        problems = []
        rng = random.Random(f"replica_sweep-check:{self.seed}")
        for spec, grouped in rng.sample(self.sampled, min(4, len(self.sampled))):
            solo = canonical_json(encode_run_result(execute_run(spec)))
            if solo != grouped:
                problems.append(
                    f"replica seed {spec.seed}: grouped result differs from solo"
                )
        return problems

    def counts(self) -> dict[str, float]:
        return {
            "vector.replica_ticks": self.replica_ticks,
            "vector.dieout_fraction": self.dieouts / max(self.replicas, 1),
        }


@dataclasses.dataclass
class Request:
    """One scheduled ``/v1/run`` request of the open loop."""

    due: float
    spec: EnsembleSpec
    original: int | None  # index of the request whose spec this repeats
    sent: float = 0.0
    submitted: float = 0.0
    received: float = 0.0
    job: str = ""
    polls: int = 0
    payload: bytes = b""
    error: str = ""


class ServiceMix(Workload):
    """Open-loop ``/v1/run`` traffic plus one ``/v1/stream`` session."""

    name = "service_mix"
    # A set-up takes ~0.6 s, within one of the host's fast or slow
    # stretches, so it needs more repetitions than the closed loops'.
    setups = 9
    RATE = 4.0  # /v1/run requests per second
    # Stream chunks per second.  16 runs per 15 chunks: each chunk lands
    # at another phase of the run schedule, 15 phases evenly spread every
    # 4 s, so no run is always hit by a chunk and none always missed.
    CHUNK_RATE = 3.75
    CHUNK_FLOWS = 500
    CHUNK_PHASE_S = 0.06  # chunk schedule offset from the run schedule
    POLL_S = 0.010  # result poll interval
    REPEAT_EVERY = 4  # about one request in this many repeats a spec
    REPEAT_GAP = 8  # repeats reuse a spec at least this many slots old
    DRAIN_S = 30.0
    TOPOLOGY_SEED = 17

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._thread: ServiceThread | None = None
        self._tmp: tempfile.TemporaryDirectory | None = None
        self.stream_id = ""

    def spec(self, base_seed: int) -> EnsembleSpec:
        return EnsembleSpec(
            template=RunSpec(
                topology=TopologySpec(num_nodes=300, seed=self.TOPOLOGY_SEED),
                max_ticks=100,
                engine="fast",
            ),
            num_runs=2,
            base_seed=base_seed,
            label="service_mix",
        )

    def schedule(self) -> list[Request]:
        rng = random.Random(f"service_mix:{self.seed}")
        base = 1_000_000 + self.seed * 10_000
        requests: list[Request] = []
        for index in range(round(self.RATE * self.seconds)):
            due = index / self.RATE
            originals = [
                i for i in range(index - self.REPEAT_GAP + 1)
                if requests[i].original is None
            ]
            if originals and rng.randrange(self.REPEAT_EVERY) == 0:
                original = rng.choice(originals)
                requests.append(
                    Request(due, requests[original].spec, original)
                )
            else:
                requests.append(Request(due, self.spec(base + index * 10), None))
        return requests

    def setup(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=self.scratch)
        config = ServiceConfig(
            port=0, jobs=1, cache_dir=str(Path(self._tmp.name) / "cache")
        )
        self._thread = ServiceThread(config).start()
        self.chunks = flow_chunks(
            self.seed, round(self.CHUNK_RATE * self.seconds), self.CHUNK_FLOWS
        )
        self.requests = self.schedule()
        warm_up = self.spec(1_000_000 + self.seed * 10_000 + 9_000)
        with ServiceClient(port=self._thread.port, timeout=60) as client:
            client.run_bytes(warm_up, timeout=60)
        status, body = self._post(
            http.client.HTTPConnection("127.0.0.1", self._thread.port, timeout=60),
            "/v1/stream", json.dumps(STREAM_OPEN).encode(), close=True,
        )
        if status != 201:
            raise RuntimeError(f"stream open failed: {status} {body!r}")
        self.stream_id = json.loads(body)["id"]

    @staticmethod
    def _post(connection, path: str, body: bytes, *, close: bool = False):
        try:
            connection.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            if close:
                connection.close()

    def close(self) -> None:
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def _send_chunks(self, start: float, out: list) -> None:
        """The stream client: fixed-rate chunks on their own connection."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self._thread.port, timeout=60
        )
        path = f"/v1/stream/{self.stream_id}"
        try:
            for index, text in enumerate(self.chunks):
                due = start + self.CHUNK_PHASE_S + index / self.CHUNK_RATE
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                status, _ = self._post(connection, path, text.encode())
                out.append((due, time.monotonic(), status))
        except (OSError, http.client.HTTPException) as exc:
            out.append((0.0, 0.0, f"{type(exc).__name__}: {exc}"))
        finally:
            connection.close()

    def measure(self, tracer: Tracer | None) -> Outcome:
        service = self._thread.service
        cache = service.cache
        probes_before = (cache.hits, cache.misses)
        requests = self.requests
        client = ServiceClient(port=self._thread.port, timeout=60)
        start = time.monotonic() + 0.05
        for request in requests:
            request.due += start
        traced_at = (
            start + self.seconds / 2 if tracer is not None else float("inf")
        )
        chunk_log: list = []
        chunk_thread = threading.Thread(
            target=self._send_chunks, args=(start, chunk_log),
            name="perfbench-stream",
        )
        chunk_thread.start()
        worker_runs: dict[int, tuple[float, float]] = {}
        outstanding: list[Request] = []
        backlog: list[tuple[float, int]] = []  # (due, outstanding at due)
        sent = 0
        drain_deadline = None
        try:
            while sent < len(requests) or outstanding:
                now = time.monotonic()
                if now >= traced_at:
                    tracer.install()
                    self._trace_worker(tracer, worker_runs)
                    traced_at = float("inf")
                while sent < len(requests) and requests[sent].due <= now:
                    request = requests[sent]
                    backlog.append((request.due, len(outstanding)))
                    request.sent = time.monotonic()
                    try:
                        request.job = client.submit(request.spec)["id"]
                        request.submitted = time.monotonic()
                        outstanding.append(request)
                    except Exception as exc:  # counted as a failed op
                        request.error = f"{type(exc).__name__}: {exc}"
                    sent += 1
                for request in list(outstanding):
                    request.polls += 1
                    try:
                        state = client.poll(request.job)
                    except Exception as exc:  # counted as a failed op
                        request.error = f"{type(exc).__name__}: {exc}"
                        outstanding.remove(request)
                        continue
                    if state["status"] == "done":
                        request.received = time.monotonic()
                        request.payload = state["payload"]
                        outstanding.remove(request)
                    elif state["status"] in ("failed", "expired"):
                        request.error = f"job {state['status']}"
                        outstanding.remove(request)
                if sent == len(requests):
                    if drain_deadline is None:
                        drain_deadline = time.monotonic() + self.DRAIN_S
                    elif time.monotonic() > drain_deadline:
                        for request in outstanding:
                            request.error = "timed out"
                        break
                wake = time.monotonic() + self.POLL_S
                if sent < len(requests):
                    wake = min(wake, requests[sent].due)
                delay = wake - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            chunk_thread.join(timeout=self.DRAIN_S + self.seconds)
            status, body = self._post(
                http.client.HTTPConnection(
                    "127.0.0.1", self._thread.port, timeout=60
                ),
                f"/v1/stream/{self.stream_id}/close", b"", close=True,
            )
        finally:
            if tracer is not None:
                tracer.restore()
            client.close()
        summary = json.loads(body) if status == 200 else None
        jobs = {
            request.job: service.scheduler.get(request.job)
            for request in requests if request.job
        }
        hits = cache.hits - probes_before[0]
        misses = cache.misses - probes_before[1]
        return self.outcome(
            requests, chunk_log, summary, backlog, jobs, worker_runs,
            tracer, start + self.seconds / 2,
            hits / max(hits + misses, 1),
        )

    @staticmethod
    def _trace_worker(tracer: Tracer, runs: dict) -> None:
        """Note each job's worker run and the spans its thread made in it.

        ``runs`` maps the id of a job's spec to (run start, run end,
        per-layer self seconds inside the run).  The worker passes the
        job's own spec object to ``run_ensemble``, and the result carries
        it on to ``result_payload``; both run on the job's worker thread.
        """
        import repro.service.workers as workers

        def first(layer, run_ensemble):
            def timed(spec, **kwargs):
                runs[id(spec)] = (
                    time.monotonic(), 0.0, tracer.thread_snapshot()
                )
                return run_ensemble(spec, **kwargs)

            return timed

        def last(layer, serialize):
            def timed(result):
                try:
                    return serialize(result)
                finally:
                    key = id(result.spec)
                    start, _, before = runs[key]
                    after = tracer.thread_snapshot()
                    runs[key] = (start, time.monotonic(), {
                        name: seconds - before.get(name, 0.0)
                        for name, seconds in after.items()
                    })

            return timed

        tracer.patch(workers, "run_ensemble", "", first)
        tracer.patch(workers, "result_payload", "", last)

    def outcome(
        self, requests, chunk_log, summary, backlog, jobs, worker_runs,
        tracer, traced_from, hit_ratio,
    ) -> Outcome:
        problems = [r.error for r in requests if r.error]
        failed = {i for i, r in enumerate(requests) if r.error}
        for index, request in enumerate(requests):
            if request.original is not None and not request.error:
                original = requests[request.original]
                if request.payload != original.payload:
                    failed.add(index)
                    problems.append(f"request {index}: repeat payload differs")
        originals = [i for i, r in enumerate(requests) if r.original is None]
        rng = random.Random(f"service_mix-check:{self.seed}")
        for index in rng.sample(originals, min(4, len(originals))):
            request = requests[index]
            expected = result_payload(
                api.run_ensemble(request.spec, use_cache=False)
            )
            if request.payload != expected:
                failed.add(index)
                problems.append(f"request {index}: payload differs in-process")
        chunk_ms = [
            (done - due) * 1e3 for due, done, status in chunk_log
            if status == 200
        ]
        stream_problems = [
            f"chunk failed: {status}" for _, _, status in chunk_log
            if status != 200
        ]
        if len(chunk_log) != len(self.chunks):
            stream_problems.append("stream client stopped early")
        if summary is None:
            stream_problems.append("stream close failed")
        else:
            stream_problems += check_stream(summary, self.chunks)
        if stream_problems:
            # The stream shares the run: its failure invalidates every op.
            failed = set(range(len(requests)))
            problems.extend(stream_problems)
        ok = [r for i, r in enumerate(requests) if i not in failed]
        # The offered rate fixes runs per second of the window, so
        # throughput is runs per second of job execution (started to
        # finished): the service's capacity for this mix, hits and misses
        # alike.
        ok_jobs = {r.job: jobs[r.job] for r in ok}
        outcome = Outcome(
            op_ms=[(r.received - r.due) * 1e3 for r in ok],
            chunk_ms=chunk_ms,
            runs=sum(job.spec.num_runs for job in ok_jobs.values()),
            busy_s=sum(
                job.finished - job.started for job in ok_jobs.values()
            ),
            attempted=len(requests),
            failed=len(failed),
            problems=problems,
            overloaded=self.overloaded(backlog),
        )
        if tracer is not None and summary is not None:
            traced = [r for r in ok if r.due >= traced_from]
            outcome.layers = self.layer_metrics(
                tracer, traced, [r for r in ok if r.due < traced_from], jobs,
                worker_runs,
                sum(1 for due, _, _ in chunk_log if due >= traced_from),
                hit_ratio,
            )
            outcome.layers.update(stream_counts(summary))
        return outcome

    @staticmethod
    def overloaded(backlog: list[tuple[float, int]]) -> bool:
        """Whether outstanding requests grew from the first to last third."""
        third = len(backlog) // 3
        if third == 0:
            return False
        first = statistics.mean(n for _, n in backlog[:third])
        last = statistics.mean(n for _, n in backlog[-third:])
        return last > first + 1.0

    def layer_metrics(
        self, tracer, traced, untraced, jobs, worker_runs, n_chunks, hit_ratio,
    ) -> dict[str, float]:
        n = len(traced)
        parts = {name: [] for name in SERVICE_PARTS}
        submit = []
        # Spans of the traced jobs' worker runs only: runs that straddle
        # the install, and failed requests, are left out.
        worker_spans: dict[str, float] = {}
        residual = 0.0
        for request in traced:
            job = jobs[request.job]
            run_start, run_end, spans = worker_runs.get(
                id(job.spec), (job.started, job.finished, {})
            )
            # A monotone partition of the op: due, sent, admitted, started,
            # worker run start and end, finished, payload received.
            points = [request.due, request.sent, job.created, job.started,
                      run_start, run_end, job.finished]
            for at in range(1, len(points)):
                points[at] = max(points[at], points[at - 1])
            points = [min(p, request.received) for p in points]
            points.append(request.received)
            for name, begin, end in zip(SERVICE_PARTS, points, points[1:]):
                parts[name].append(end - begin)
            submit.append(request.submitted - request.sent)
            # The worker run is split by its spans; what they miss is
            # residual.
            for layer, seconds in spans.items():
                worker_spans[layer] = worker_spans.get(layer, 0.0) + seconds
            residual += parts["service.worker_run"][-1] - sum(spans.values())
        layers = {f"{k}_ms": sum(v) * 1e3 / n for k, v in parts.items()}
        for layer in OP_LAYERS:
            layers[f"{layer}_ms"] = worker_spans.get(layer, 0.0) * 1e3 / n
        spans = tracer.snapshot()
        for layer in STREAM_LAYERS:
            layers[f"{layer}_ms"] = spans.get(layer, 0.0) * 1e3 / max(n_chunks, 1)
        # run_ensemble's self time is the runner's own overhead; its
        # inclusive time is the whole ensemble call.
        layers["runner.overhead_ms"] = layers["runner.ensemble_ms"]
        layers["runner.ensemble_ms"] = sum(
            worker_spans.get(layer, 0.0) for layer in OP_LAYERS
            if layer != "protocol.serialize"
        ) * 1e3 / n
        layers["client.submit_ms"] = sum(submit) * 1e3 / n
        layers["scheduler.execute_ms"] = sum(
            sum(parts[name]) for name in SERVICE_PARTS[3:6]
        ) * 1e3 / n
        wall = sum((r.received - r.due) for r in traced)
        layers["trace.attributed_frac"] = 1.0 - residual / wall
        layers["trace.residual_ms"] = residual * 1e3 / n
        layers["client.send_lag_p90_ms"] = percentile(
            [(r.sent - r.due) * 1e3 for r in traced + untraced], 90
        )
        layers["client.polls_per_op"] = statistics.mean(r.polls for r in traced)
        layers["cache.hit_ratio"] = hit_ratio
        traced_ms = [(r.received - r.due) * 1e3 for r in traced]
        untraced_ms = [(r.received - r.due) * 1e3 for r in untraced]
        layers["trace.op_p50_ms"] = statistics.median(traced_ms)
        layers["trace.untraced_op_p50_ms"] = statistics.median(untraced_ms)
        layers["trace.overhead_frac"] = (
            layers["trace.op_p50_ms"] / layers["trace.untraced_op_p50_ms"] - 1
        )
        layers["trace.ops"] = n
        return layers


WORKLOADS = {w.name: w for w in (FigureFresh, ReplicaSweep, ServiceMix)}
