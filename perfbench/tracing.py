"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: a traced run swaps the public entry
point of each layer (a module-level name or a class attribute) for a thin
wrapper that times the call, and restores the original afterwards.  Spans
nest per thread, so every layer's *self* time is its wall time minus the
wrapped calls it made; self times of all layers on one thread add up to
the wall time of the outermost span.

``ENTRY_POINTS`` names the wrapped entry point behind every layer.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: (module, attribute, layer): the public entry point behind each layer.
#: A dotted attribute is a method of a class in the module.  Names the
#: runner imported into its own namespace are wrapped where it looks them
#: up, so the wrapper sees every call it makes.  ``vector.harvest`` times
#: the harvest callback the runner passes to ``VectorReplicaSimulation.run``;
#: the ``vector.run`` wrapper installs it.
ENTRY_POINTS = (
    ("repro.simulator.network", "barabasi_albert", "topology.build"),
    ("repro.simulator.network", "classify_roles", "topology.build"),
    ("repro.simulator.network", "partition_subnets", "topology.build"),
    ("repro.simulator.routing", "RoutingTables.__init__", "routing.build"),
    ("repro.simulator.network", "Network.__init__", "network.build"),
    ("repro.runner.build", "apply_defense", "defense.deploy"),
    ("repro.runner.build", "FastWormSimulation", "fastpath.init"),
    ("repro.simulator.fastpath", "FastWormSimulation.run", "fastpath.run"),
    ("repro.runner.build", "VectorReplicaSimulation", "vector.init"),
    ("repro.simulator.fastpath", "VectorReplicaSimulation.run", "vector.run"),
    ("repro.runner.executors", "execute_run", "runner.execute"),
    ("repro.runner.executors", "execute_replica_batch", "runner.replica_batch"),
    ("repro.runner.executors", "ReplicaBatchExecutor.run_specs", "runner.group"),
    ("repro.runner.api", "run_ensemble", "runner.ensemble"),
    ("repro.service.workers", "run_ensemble", "runner.ensemble"),
    ("repro.runner.cache", "ResultCache.load", "cache.load"),
    ("repro.runner.cache", "ResultCache.store", "cache.store"),
    ("repro.service.workers", "result_payload", "protocol.serialize"),
    ("repro.service.streams", "StreamRegistry.chunk", "streams.chunk"),
    ("repro.service.streams", "record_from_json", "stream.parse"),
    ("repro.streaming.detectors", "DetectionEngine.feed", "detectors.feed"),
)


class Tracer:
    """Per-thread span stacks folded into per-layer totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_self(self) -> dict[str, float]:
        spans = getattr(self._local, "self_s", None)
        if spans is None:
            spans = self._local.self_s = defaultdict(float)
        return spans

    def thread_snapshot(self) -> dict[str, float]:
        """Copy of the calling thread's per-layer self seconds so far."""
        return dict(self._thread_self())

    def wrap(self, layer: str, fn):
        """``fn`` with every call recorded as a ``layer`` span."""
        stack_of = self._stack
        thread_self = self._thread_self
        lock = self._lock
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                thread_self()[layer] += elapsed - children
                with lock:
                    total_s[layer] += elapsed
                    self_s[layer] += elapsed - children

        return traced

    def patch(self, owner, attr: str, layer: str, wrapper=None) -> None:
        """Replace ``owner.attr`` with a traced version until :meth:`restore`."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, (wrapper or self.wrap)(layer, original))

    def restore(self) -> None:
        """Put every patched entry point back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Copy of the per-layer self seconds so far."""
        with self._lock:
            return dict(self.self_s)

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, attr, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *classes, name = attr.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            wrapper = self._wrap_vector_run if layer == "vector.run" else None
            self.patch(owner, name, layer, wrapper)

    def _wrap_vector_run(self, layer: str, run):
        """``VectorReplicaSimulation.run`` with its harvest callback traced."""
        wrap = self.wrap

        def vector_run(sim, max_ticks, harvest):
            return run(sim, max_ticks, wrap("vector.harvest", harvest))

        return wrap(layer, vector_run)
