"""Benchmark workloads: the scenario axis of the matrix.

Every scenario is a named factory that turns a dict of axis values into
a :class:`Workload` — an object with an untimed ``setup()``, a timed
``run()`` returning context metrics, and a ``teardown()``.  The
registry records which axis names each scenario consumes, so matrix
expansion can project a full axis combination onto the subset that
actually matters (a ``mode`` axis for service load does not multiply
the engine scenarios).

The scenarios mirror the perf suites the repository accumulated over
PRs 3-6, now as matrix cells instead of bespoke scripts:

* ``fig1b_star`` / ``fig4_powerlaw`` / ``powerlaw_10k`` — the engine
  wall-clock scenarios from ``BENCH_pr3.json``;
* ``threshold_sweep`` — a near-critical die-out sweep (single-seed
  outbreaks under immunization just above the epidemic threshold, the
  Draief/Ganesh/Massoulié regime): deliberately high run-to-run
  variance, the stress case for the CV-aware gate;
* ``fig4_dieout_replicas`` — the grouped-vs-solo replica arms from
  ``BENCH_pr6.json``;
* ``service_load`` — the unique/duplicates/hot-cache service loads
  from ``BENCH_pr4.json``.

All simulation workloads execute through :mod:`repro.runner` with the
result cache disabled — a benchmark that replays cached results
measures nothing.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..runner import (
    EnsembleSpec,
    RunnerConfig,
    RunSpec,
    TopologySpec,
    run_ensemble,
    use_config,
)
from ..runner.build import execute_run
from ..runner.executors import ReplicaBatchExecutor, SerialExecutor
from ..runner.spec import DefenseSpec, ENGINE_KINDS
from ..simulator import ImmunizationPolicy

__all__ = [
    "Workload",
    "ScenarioDef",
    "scenario_def",
    "scenario_names",
    "register_scenario",
]


class Workload:
    """One benchmark case's executable: setup / timed run / teardown."""

    def setup(self) -> None:
        """Untimed preparation (builds, cache warming, servers)."""

    def run(self) -> dict[str, Any] | None:
        """The timed body; returns context metrics for the ledger."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release whatever ``setup`` acquired."""


@dataclass(frozen=True)
class ScenarioDef:
    """Registry entry: how to build one scenario's workloads.

    ``axes`` names every config key the scenario consumes (matrix axes
    and tunable parameters alike); ``defaults`` supplies values for the
    ones a case leaves unpinned.  Keys outside ``axes`` are dropped by
    :meth:`project` — that is what lets unrelated matrix axes coexist.
    """

    name: str
    factory: Callable[[dict[str, Any]], Workload]
    axes: tuple[str, ...]
    defaults: dict[str, Any] = field(default_factory=dict)
    description: str = ""
    unit: str = "seconds"
    direction: str = "lower"

    def project(
        self, combo: Mapping[str, Any], *, strict: bool = False
    ) -> dict[str, Any]:
        """The subset of ``combo`` this scenario consumes, with defaults.

        ``strict=True`` (explicit case configs) rejects keys the
        scenario does not understand instead of silently dropping them.
        """
        if strict:
            unknown = sorted(set(combo) - set(self.axes))
            if unknown:
                raise ValueError(
                    f"scenario {self.name!r} does not consume "
                    f"{', '.join(map(repr, unknown))} "
                    f"(knows {', '.join(map(repr, self.axes))})"
                )
        projected = dict(self.defaults)
        for key in self.axes:
            if key in combo:
                projected[key] = combo[key]
        return projected

    def build_workload(self, axes: Mapping[str, Any]) -> Workload:
        return self.factory(dict(axes))


_REGISTRY: dict[str, ScenarioDef] = {}


def register_scenario(definition: ScenarioDef) -> ScenarioDef:
    """Add a scenario to the registry (name collisions are a bug)."""
    if definition.name in _REGISTRY:
        raise ValueError(f"scenario {definition.name!r} already registered")
    _REGISTRY[definition.name] = definition
    return definition


def scenario_def(name: str) -> ScenarioDef:
    """Look up one scenario definition."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown benchmark scenario {name!r} (known: {known})"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def _check_engine(engine: str) -> str:
    if engine not in ENGINE_KINDS:
        raise ValueError(
            f"engine must be one of {ENGINE_KINDS}, got {engine!r}"
        )
    return engine


#: fig-4 deployment strategies as defense specs (matches
#: repro.core.scenarios.fig4 / the retired BENCH_pr3 harness).
_FIG4_DEFENSES: dict[str, DefenseSpec] = {
    "none": DefenseSpec(kind="none"),
    "hosts": DefenseSpec(kind="hosts", rate=0.01, coverage=0.05, seed=7),
    "edge": DefenseSpec(kind="edge", rate=0.02),
    "backbone": DefenseSpec(kind="backbone", rate=0.02),
}


class EnsembleWorkload(Workload):
    """Times ``run_ensemble`` of one spec with the cache disabled."""

    def __init__(self, ensemble: EnsembleSpec, *, jobs: int = 1) -> None:
        self.ensemble = ensemble
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def setup(self) -> None:
        # Warm process-level topology/routing state so the first
        # measured repeat does not pay a cold import/build the later
        # ones skip (the warmup repeats then measure steady state).
        execute_run(self.ensemble.expand()[0])

    def metrics(self, result) -> dict[str, Any]:
        finals = [
            float(run.trajectory.ever_infected[-1]) for run in result.runs
        ]
        return {
            "runs": len(result.runs),
            "total_ticks": result.metrics.total_ticks,
            "mean_final_size": round(statistics.fmean(finals), 1),
        }

    def run(self) -> dict[str, Any]:
        config = RunnerConfig(
            jobs=self.jobs, cache_enabled=False, engine=None
        )
        with use_config(config):
            result = run_ensemble(self.ensemble, use_cache=False)
        return self.metrics(result)


def _fig1b_star(axes: dict[str, Any]) -> Workload:
    template = RunSpec(
        topology=TopologySpec(kind="star", num_nodes=int(axes["nodes"])),
        scan_rate=0.8,
        initial_infections=2,
        max_ticks=int(axes["ticks"]),
        engine=_check_engine(axes["engine"]),
    )
    ensemble = EnsembleSpec(
        template=template,
        num_runs=int(axes["seeds"]),
        base_seed=42,
        label="bench-fig1b",
    )
    return EnsembleWorkload(ensemble, jobs=axes["jobs"])


register_scenario(ScenarioDef(
    name="fig1b_star",
    factory=_fig1b_star,
    axes=("engine", "jobs", "nodes", "ticks", "seeds"),
    defaults={"engine": "fast", "jobs": 1, "nodes": 200, "ticks": 60,
              "seeds": 3},
    description="star topology at figure-1b scale (mirror-mode regime)",
))


def _fig4_powerlaw(axes: dict[str, Any]) -> Workload:
    strategy = axes["strategy"]
    if strategy not in _FIG4_DEFENSES:
        raise ValueError(
            f"strategy must be one of {sorted(_FIG4_DEFENSES)}, "
            f"got {strategy!r}"
        )
    template = RunSpec(
        topology=TopologySpec(
            kind="powerlaw", num_nodes=int(axes["nodes"]), seed=42
        ),
        defense=_FIG4_DEFENSES[strategy],
        scan_rate=0.8,
        initial_infections=2,
        max_ticks=int(axes["ticks"]),
        engine=_check_engine(axes["engine"]),
    )
    ensemble = EnsembleSpec(
        template=template,
        num_runs=int(axes["seeds"]),
        base_seed=42,
        label=f"bench-fig4-{strategy}",
    )
    return EnsembleWorkload(ensemble, jobs=axes["jobs"])


register_scenario(ScenarioDef(
    name="fig4_powerlaw",
    factory=_fig4_powerlaw,
    axes=("engine", "jobs", "strategy", "nodes", "ticks", "seeds"),
    defaults={"engine": "fast", "jobs": 1, "strategy": "none",
              "nodes": 1000, "ticks": 400, "seeds": 3},
    description="power-law topology at figure-4 scale per deployment "
    "strategy (batch-mode regime)",
))


def _powerlaw_10k(axes: dict[str, Any]) -> Workload:
    template = RunSpec(
        topology=TopologySpec(
            kind="powerlaw", num_nodes=int(axes["nodes"]), seed=42
        ),
        scan_rate=0.8,
        initial_infections=10,
        max_ticks=int(axes["ticks"]),
        engine=_check_engine(axes["engine"]),
    )
    ensemble = EnsembleSpec(
        template=template, num_runs=1, base_seed=42, label="bench-10k"
    )
    return EnsembleWorkload(ensemble, jobs=axes["jobs"])


register_scenario(ScenarioDef(
    name="powerlaw_10k",
    factory=_powerlaw_10k,
    axes=("engine", "jobs", "nodes", "ticks"),
    defaults={"engine": "fast", "jobs": 1, "nodes": 10_000, "ticks": 400},
    description="scale-headroom demo: one large power-law outbreak",
))


class DieoutWorkload(EnsembleWorkload):
    """Near-critical single-seed outbreaks; reports the die-out rate."""

    def metrics(self, result) -> dict[str, Any]:
        finals = [
            float(run.trajectory.ever_infected[-1]) for run in result.runs
        ]
        # Extinctions stall at a handful of hosts; take-offs clear 50
        # by a wide margin at these sizes (same absolute threshold as
        # the golden die-out test).
        dieout = statistics.fmean(final < 50.0 for final in finals)
        return {
            "runs": len(result.runs),
            "dieout_fraction": round(dieout, 3),
            "mean_final_size": round(statistics.fmean(finals), 1),
        }


def _threshold_sweep(axes: dict[str, Any]) -> Workload:
    template = RunSpec(
        topology=TopologySpec(
            kind="powerlaw", num_nodes=int(axes["nodes"]), seed=42
        ),
        scan_rate=0.8,
        initial_infections=1,
        immunization=ImmunizationPolicy.at_tick(1, float(axes["mu"])),
        max_ticks=int(axes["ticks"]),
        engine=_check_engine(axes["engine"]),
    )
    ensemble = EnsembleSpec(
        template=template,
        num_runs=int(axes["replicas"]),
        base_seed=42,
        label="bench-threshold",
    )
    return DieoutWorkload(ensemble, jobs=axes["jobs"])


register_scenario(ScenarioDef(
    name="threshold_sweep",
    factory=_threshold_sweep,
    axes=("engine", "jobs", "nodes", "ticks", "replicas", "mu"),
    defaults={"engine": "fast", "jobs": 1, "nodes": 1000, "ticks": 150,
              "replicas": 20, "mu": 0.08},
    description="near-critical die-out sweep (epidemic-threshold "
    "regime): short extinction-prone runs, high run-to-run variance",
))


class ReplicaArmWorkload(Workload):
    """Grouped vs solo execution of one replica ensemble (BENCH_pr6).

    The ``vector`` arm (BENCH_pr8) runs the grouped path with the whole
    ensemble as one chunk, so it measures the cross-replica loop at full
    batch width rather than the executor's chunking policy.
    """

    ARMS = ("grouped", "solo", "vector")

    def __init__(self, ensemble: EnsembleSpec, arm: str) -> None:
        if arm not in self.ARMS:
            raise ValueError(f"arm must be one of {self.ARMS}, got {arm!r}")
        self.ensemble = ensemble
        self.arm = arm
        self.specs: tuple[RunSpec, ...] = ()

    def setup(self) -> None:
        self.specs = self.ensemble.expand()
        execute_run(self.specs[0])  # warm the topology/routing build

    def run(self) -> dict[str, Any]:
        config = RunnerConfig(jobs=1, cache_enabled=False, engine=None)
        with use_config(config):
            if self.arm == "grouped":
                executor = ReplicaBatchExecutor(
                    SerialExecutor(), chunk_size=128
                )
                results = executor.run_specs(list(self.specs))
            elif self.arm == "vector":
                executor = ReplicaBatchExecutor(
                    SerialExecutor(), chunk_size=max(len(self.specs), 1)
                )
                results = executor.run_specs(list(self.specs))
            else:
                results = [execute_run(spec) for spec in self.specs]
        finals = [float(r.trajectory.ever_infected[-1]) for r in results]
        dieout = statistics.fmean(final < 50.0 for final in finals)
        return {
            "replicas": len(results),
            "dieout_fraction": round(dieout, 3),
            "mean_final_size": round(statistics.fmean(finals), 1),
        }


def _fig4_dieout_replicas(axes: dict[str, Any]) -> Workload:
    # mu <= 0 switches patching off entirely: the saturating regime,
    # where every replica takes off and infects the full population.
    mu = float(axes["mu"])
    template = RunSpec(
        topology=TopologySpec(
            kind="powerlaw", num_nodes=int(axes["nodes"]), seed=42
        ),
        scan_rate=0.8,
        initial_infections=1,
        immunization=(
            ImmunizationPolicy.at_tick(1, mu) if mu > 0 else None
        ),
        max_ticks=int(axes["ticks"]),
        engine="fast-batched",
    )
    ensemble = EnsembleSpec(
        template=template,
        num_runs=int(axes["replicas"]),
        base_seed=42,
        label="bench-dieout-replicas",
    )
    return ReplicaArmWorkload(ensemble, axes["arm"])


register_scenario(ScenarioDef(
    name="fig4_dieout_replicas",
    factory=_fig4_dieout_replicas,
    axes=("arm", "nodes", "ticks", "replicas", "mu"),
    defaults={"arm": "grouped", "nodes": 1000, "ticks": 150,
              "replicas": 128, "mu": 0.07},
    description="replica-batched vs solo execution of a die-out "
    "ensemble on the fast-batched engine; the vector arm runs the "
    "cross-replica loop at full batch width",
))


class ServiceLoadWorkload(Workload):
    """Drives a live service with concurrent blocking clients.

    ``shards=1`` (the default) drives an in-process ``ServiceThread``;
    ``shards>1`` spawns a real ``repro serve --shards N`` subprocess —
    router, supervised worker shards, shared durable job store — and
    drives it through the front door, so the sharded ledger pays every
    real cost (proxy hop, process scheduling, journal appends).
    """

    def __init__(
        self,
        mode: str,
        *,
        requests: int,
        clients: int,
        concurrency: int,
        shards: int = 1,
    ) -> None:
        if mode not in ("unique", "duplicates", "hot_cache"):
            raise ValueError(
                "mode must be 'unique', 'duplicates', or 'hot_cache', "
                f"got {mode!r}"
            )
        self.mode = mode
        self.requests = int(requests)
        self.clients = int(clients)
        self.concurrency = int(concurrency)
        self.shards = int(shards)
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._thread = None
        self._tmpdir = None
        self._process = None
        self._port: int | None = None

    def _spec(self, index: int) -> EnsembleSpec:
        return EnsembleSpec(
            template=RunSpec(
                topology=TopologySpec(kind="powerlaw", num_nodes=200),
                max_ticks=60,
                engine="fast",
            ),
            num_runs=2,
            base_seed=1000 + index,
            label=f"bench-load-{index}",
        )

    def _specs(self) -> list[EnsembleSpec]:
        if self.mode == "duplicates":
            # Several clients ask for each spec: exercises coalescing.
            distinct = max(self.requests // 4, 1)
            return [
                self._spec(index % distinct) for index in range(self.requests)
            ]
        return [self._spec(index) for index in range(self.requests)]

    def setup(self) -> None:
        # Imported lazily so engine-only matrices never pay for the
        # service layer.
        import tempfile

        from ..service import ServiceConfig, ServiceThread

        if self.shards > 1:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-bench-"
            )
            self._start_sharded()
        else:
            kwargs: dict[str, Any] = {}
            if self.mode == "hot_cache":
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-bench-"
                )
                kwargs = {"cache_dir": self._tmpdir.name}
            else:
                kwargs = {"cache_enabled": False}
            config = ServiceConfig(
                port=0,
                jobs=1,
                max_queue=max(64, self.requests),
                concurrency=self.concurrency,
                **kwargs,
            )
            self._thread = ServiceThread(config).__enter__()
            self._port = self._thread.port
        if self.mode == "hot_cache":
            self._drive()  # warm the shared result cache

    def _start_sharded(self) -> None:
        import os
        import subprocess
        import sys
        import time

        import repro

        assert self._tmpdir is not None
        argv = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0",
            "--shards", str(self.shards),
            "--jobs", "1",
            "--max-queue", str(max(64, self.requests)),
            "--concurrency", str(self.concurrency),
            "--store-dir", os.path.join(self._tmpdir.name, "jobs"),
        ]
        if self.mode == "hot_cache":
            argv += ["--cache-dir", os.path.join(self._tmpdir.name, "cache")]
        else:
            argv.append("--no-cache")
        env = dict(os.environ)
        package_parent = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = os.pathsep.join(
            [package_parent] + ([existing] if existing else [])
        )
        process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        deadline = time.monotonic() + 120
        assert process.stdout is not None
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                if process.poll() is not None:
                    raise RuntimeError(
                        f"sharded server died before binding "
                        f"(rc={process.returncode})"
                    )
                continue
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                self._process = process
                self._port = int(address.rsplit(":", 1)[1])
                return
        process.kill()
        raise RuntimeError("sharded server never printed its banner")

    def _drive(self) -> dict[str, Any]:
        from concurrent.futures import ThreadPoolExecutor

        from ..service import ServiceClient

        port = self._port
        assert port is not None, "setup() must run first"

        def one_request(spec: EnsembleSpec) -> None:
            with ServiceClient(port=port, timeout=120) as client:
                payload = client.run_bytes(spec, timeout=120)
            assert payload  # every request must round-trip

        specs = self._specs()
        with ThreadPoolExecutor(max_workers=self.clients) as pool:
            list(pool.map(one_request, specs))
        with ServiceClient(port=port) as client:
            metrics = client.metrics()
        return {
            "requests": len(specs),
            "clients": self.clients,
            "shards": self.shards,
            "coalesced": metrics["jobs"]["coalesced"],
            "completed": metrics["jobs"]["completed"],
            # The router's aggregated document has no single cache
            # table (each shard owns one); absent is fine.
            "cache": metrics.get("cache"),
        }

    def run(self) -> dict[str, Any]:
        return self._drive()

    def teardown(self) -> None:
        if self._thread is not None:
            self._thread.__exit__(None, None, None)
            self._thread = None
        if self._process is not None:
            import signal as signal_module
            import subprocess

            if self._process.poll() is None:
                self._process.send_signal(signal_module.SIGTERM)
                try:
                    self._process.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    self._process.kill()
                    self._process.communicate()
            self._process = None
        self._port = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


def _service_load(axes: dict[str, Any]) -> Workload:
    return ServiceLoadWorkload(
        axes["mode"],
        requests=axes["requests"],
        clients=axes["clients"],
        concurrency=axes["concurrency"],
        shards=axes["shards"],
    )


register_scenario(ScenarioDef(
    name="service_load",
    factory=_service_load,
    axes=("mode", "requests", "clients", "concurrency", "shards"),
    defaults={"mode": "unique", "requests": 24, "clients": 8,
              "concurrency": 4, "shards": 1},
    description="simulation-service load: unique requests, coalesced "
    "duplicates, or a warmed result cache; shards>1 drives a real "
    "sharded front door (router + worker processes + durable store)",
))


class StreamDetectWorkload(Workload):
    """Times one online streaming-detection pass (flows/sec regime).

    Every repeat rebuilds the detection engine — detectors are stateful
    and the synthetic stream restarts at t=0, so reuse would violate
    the time-order contract and measure a half-warm engine.
    """

    def __init__(
        self, *, flows: int, duration: float, seed: int,
        detectors: str, compact: int,
    ) -> None:
        self.flows = int(flows)
        self.duration = float(duration)
        self.seed = int(seed)
        self.detectors = tuple(
            kind.strip() for kind in str(detectors).split(",") if kind.strip()
        )
        if not self.detectors:
            raise ValueError("detectors must name at least one kind")
        self.compact = int(compact)

    def _engine(self):
        # Imported lazily so engine-only matrices never pay for the
        # streaming subsystem.
        from ..streaming import DetectionEngine, make_detector
        from ..streaming.estimators import CountMinSketch, VirtualHyperLogLog
        from ..streaming.stream import private_internal

        detectors = []
        for kind in self.detectors:
            kwargs: dict[str, Any] = {}
            if self.compact > 0:
                if kind == "contact-rate":
                    kwargs["estimator"] = VirtualHyperLogLog(self.compact)
                elif kind == "failure-ratio":
                    kwargs["failures"] = CountMinSketch(self.compact)
                    kwargs["attempts"] = CountMinSketch(self.compact)
            detectors.append(
                make_detector(kind, internal=private_internal, **kwargs)
            )
        return DetectionEngine(detectors)

    def run(self) -> dict[str, Any]:
        from ..streaming.eval import throughput_run
        from ..traces.synth import TraceConfig

        config = TraceConfig(duration=self.duration, seed=self.seed)
        report = throughput_run(
            config, self._engine(), max_flows=self.flows
        )
        return {
            "flows": report["flows"],
            "events": report["events"],
            "flows_per_sec": report["flows_per_sec"],
            "estimator_bytes_per_host": report["estimator_bytes_per_host"],
        }


def _stream_detect(axes: dict[str, Any]) -> Workload:
    return StreamDetectWorkload(
        flows=axes["flows"],
        duration=axes["duration"],
        seed=axes["seed"],
        detectors=axes["detectors"],
        compact=axes["compact"],
    )


register_scenario(ScenarioDef(
    name="stream_detect",
    factory=_stream_detect,
    axes=("flows", "duration", "seed", "detectors", "compact"),
    defaults={"flows": 200_000, "duration": 3600.0, "seed": 0,
              "detectors": "failure-ratio,contact-rate", "compact": 2048},
    description="online streaming detection: a synthetic flow stream "
    "through the detection engine at O(hosts) memory; compact > 0 uses "
    "shared-register estimators sized for that many hosts",
))
