"""Command-line interface: regenerate paper experiments from the shell.

Examples::

    python -m repro list
    python -m repro figure fig4 --runs 5 --ticks 300 --jobs 4
    python -m repro compare --nodes 500 --strategy none \\
        --strategy backbone:0.02 --strategy hosts:0.3:0.01 --level 0.5
    python -m repro trace --duration 300 --seed 1
    python -m repro stream --synthetic --flows 100000 \\
        --detector failure-ratio --compact 4096

``figure`` runs one canned scenario from :mod:`repro.core.scenarios` and
prints its series/report; ``compare`` runs an ad-hoc deployment
comparison; ``trace`` runs the Section 7 pipeline on a fresh synthetic
trace.  Exit code is 0 on success, 2 on bad arguments.

Simulation commands execute through :mod:`repro.runner`: ``--jobs N``
fans the seeded runs of each ensemble across worker processes (results
are bit-identical to serial), completed runs are cached under the result
cache (``--cache-dir``, default ``~/.cache/repro/runs``) so a repeated
invocation replays instead of re-simulating, and ``--no-cache`` opts out.

Observability: ``--trace out.jsonl`` streams one structured record per
simulated tick (epidemic state + packet/queue counters, tagged with
ensemble label and seed) to a JSONL file, and ``--profile`` prints a
per-phase wall-time table plus event counters after the figures.
Either flag re-simulates instead of replaying the cache, since cached
entries carry no telemetry.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .core import scenarios
from .core.policy import DeploymentStrategy
from .observability import observability_hub
from .core.quarantine import QuarantineStudy
from .core.slowdown import compare_times
from .models.base import Trajectory
from .runner import ENGINE_KINDS
from .runner import configure as configure_runner
from .runner import current_config, use_config
from .runner.cache import ResultCache, default_cache_dir
from .traces.analysis import recommend_rate_limits
from .traces.classify import census, classify_hosts
from .traces.records import HostClass
from .traces.synth import TraceConfig, generate_trace

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed distribution's version, or the source tree's.

    ``importlib.metadata`` answers when the package is installed; a
    source checkout run via ``PYTHONPATH=src`` has no distribution
    metadata, so fall back to the library's own ``__version__``.
    """
    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        from . import __version__

        return __version__

#: figure id -> (scenario callable, kwargs accepted, baseline label, level)
_SIM_FIGURES = {
    "fig1b": (scenarios.fig1b_star_simulation, "no_rl", 0.6),
    "fig4": (scenarios.fig4_powerlaw_simulation, "no_rl", 0.5),
    "fig6": (scenarios.fig6_localpref_deployments, "no_rl", 0.5),
    "fig8a": (scenarios.fig8a_immunization_simulation, None, 0.5),
    "fig8b": (scenarios.fig8b_immunization_rl_simulation, None, 0.5),
}
_ANALYTIC_FIGURES = {
    "fig1a": (scenarios.fig1a_star_analytical, "no_rl", 0.6),
    "fig2": (scenarios.fig2_host_analytical, "no_rl", 0.5),
    "fig7a": (scenarios.fig7a_immunization_analytical, None, 0.5),
    "fig7b": (scenarios.fig7b_immunization_rl_analytical, None, 0.5),
    "fig10": (scenarios.fig10_trace_rate_models, "no_rl", 0.5),
}


def _print_curves(
    curves: dict[str, Trajectory],
    baseline: str | None,
    level: float,
    *,
    out=sys.stdout,
) -> None:
    t_max = max(float(c.times[-1]) for c in curves.values())
    samples = np.linspace(0.0, t_max, 9)
    header = "  ".join(f"t={t:7.1f}" for t in samples)
    print(f"{'case':<24} {header}", file=out)
    for label, curve in curves.items():
        values = np.interp(samples, curve.times, curve.fraction_infected)
        row = "  ".join(f"{v:9.3f}" for v in values)
        print(f"{label:<24} {row}", file=out)
    if baseline is not None and baseline in curves:
        print(file=out)
        print(
            compare_times(curves, baseline=baseline, level=level).format_table(),
            file=out,
        )


def _parse_strategy(text: str) -> DeploymentStrategy:
    """Parse ``none`` / ``hosts:Q:RATE`` / ``edge:RATE`` / ``backbone:RATE``
    / ``hub:LINK:BUDGET``."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "none":
            return DeploymentStrategy.none()
        if kind == "hosts":
            return DeploymentStrategy.hosts(float(parts[1]), float(parts[2]))
        if kind == "edge":
            return DeploymentStrategy.edge(float(parts[1]))
        if kind == "backbone":
            return DeploymentStrategy.backbone(float(parts[1]))
        if kind == "hub":
            return DeploymentStrategy.hub(float(parts[1]), float(parts[2]))
    except (IndexError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad strategy {text!r}: {exc}"
        ) from exc
    raise argparse.ArgumentTypeError(
        f"unknown strategy kind {kind!r} "
        "(expected none / hosts:Q:RATE / edge:RATE / backbone:RATE / "
        "hub:LINK:BUDGET)"
    )


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_runner_arguments(command: argparse.ArgumentParser) -> None:
    """Execution knobs shared by the simulation commands."""
    command.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes per ensemble (default 1 = serial)",
    )
    command.add_argument(
        "--no-cache", action="store_true",
        help="always re-simulate instead of reusing cached run results",
    )
    command.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default ~/.cache/repro/runs)",
    )
    command.add_argument(
        "--engine", choices=ENGINE_KINDS, default=None,
        help="simulation engine, one of "
        f"{', '.join(repr(kind) for kind in ENGINE_KINDS)}: "
        "'reference' is the object-per-host oracle, 'fast' the "
        "struct-of-arrays engine (~5x on 1000-node power laws), "
        "'fast-batched' forces aggregated batch sampling and lets the "
        "runner vectorize same-scenario replicas together; "
        "default keeps each spec's own engine",
    )
    command.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write one JSONL record per simulated tick to PATH "
        "(implies re-simulation; cached results carry no telemetry)",
    )
    command.add_argument(
        "--profile", action="store_true",
        help="collect per-phase wall times and print a profile table",
    )


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Dynamic Quarantine of Internet Worms' "
        "(DSN 2004) experiments.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list reproducible figures")

    figure = commands.add_parser("figure", help="regenerate one figure")
    figure.add_argument(
        "figure_id", choices=sorted(_SIM_FIGURES | _ANALYTIC_FIGURES)
    )
    figure.add_argument("--runs", type=_positive_int, default=10,
                        help="simulation runs to average (sim figures)")
    figure.add_argument("--ticks", type=_positive_int, default=None,
                        help="tick horizon (sim figures)")
    figure.add_argument("--nodes", type=int, default=1000,
                        help="topology size (sim figures)")
    figure.add_argument(
        "--replicas", type=_positive_int, default=None, metavar="N",
        help="shorthand for a replica sweep: run N seeded replicas per "
        "case on the fast-batched engine (overrides --runs; --engine "
        "still wins if given explicitly)",
    )
    _add_runner_arguments(figure)

    compare = commands.add_parser(
        "compare", help="ad-hoc deployment comparison"
    )
    compare.add_argument("--nodes", type=int, default=1000)
    compare.add_argument("--beta", type=float, default=0.8)
    compare.add_argument("--runs", type=_positive_int, default=5)
    compare.add_argument("--ticks", type=_positive_int, default=400)
    compare.add_argument("--level", type=float, default=0.5)
    compare.add_argument("--seed", type=int, default=42)
    compare.add_argument("--local-preference", type=float, default=None)
    compare.add_argument(
        "--strategy",
        dest="strategies",
        action="append",
        type=_parse_strategy,
        required=True,
        help="repeatable: none | hosts:Q:RATE | edge:RATE | backbone:RATE "
        "| hub:LINK:BUDGET",
    )
    _add_runner_arguments(compare)

    trace = commands.add_parser(
        "trace", help="run the Section 7 trace pipeline"
    )
    trace.add_argument("--duration", type=float, default=300.0)
    trace.add_argument("--seed", type=int, default=0)

    stream = commands.add_parser(
        "stream",
        help="online worm detection over a flow stream",
        description="Feed a time-ordered flow stream (JSONL on stdin or "
        "a file, or online synthetic generation) through streaming "
        "detectors; verdict/quarantine events are printed as JSONL as "
        "they fire, followed by one summary object.",
    )
    stream_source = stream.add_mutually_exclusive_group()
    stream_source.add_argument(
        "--input", metavar="PATH", default=None,
        help="JSONL flow file, '-' for stdin (the default source)",
    )
    stream_source.add_argument(
        "--synthetic", action="store_true",
        help="generate flows online (O(hosts) memory) instead of "
        "reading JSONL",
    )
    stream.add_argument(
        "--duration", type=float, default=300.0,
        help="synthetic stream horizon in seconds (default 300)",
    )
    stream.add_argument(
        "--seed", type=int, default=0, help="synthetic stream seed"
    )
    stream.add_argument(
        "--flows", type=_positive_int, default=None, metavar="N",
        help="stop after N flows (either source)",
    )
    stream.add_argument(
        "--detector", dest="detectors", action="append",
        choices=["contact-rate", "failure-ratio", "williamson",
                 "dns-throttle"],
        default=None,
        help="repeatable; default: failure-ratio",
    )
    stream.add_argument(
        "--compact", type=_positive_int, default=None, metavar="HOSTS",
        help="size shared-register estimators for HOSTS hosts "
        "(contact-rate -> virtual HLL, failure-ratio -> count-min); "
        "default keeps exact per-host state",
    )
    stream.add_argument(
        "--window", type=float, default=5.0,
        help="contact-rate window seconds (default 5)",
    )
    stream.add_argument(
        "--threshold", type=float, default=100.0,
        help="contact-rate distinct-destination threshold (default 100)",
    )
    stream.add_argument(
        "--timeout", type=float, default=3.0,
        help="failure-ratio SYN timeout seconds (default 3)",
    )
    stream.add_argument(
        "--min-failures", type=_positive_int, default=16,
        help="failure-ratio failure floor (default 16)",
    )
    stream.add_argument(
        "--ratio-threshold", type=float, default=0.5,
        help="failure-ratio failure/attempt ratio (default 0.5)",
    )
    stream.add_argument(
        "--detect-delay", type=float, default=30.0,
        help="throttle detectors: queue delay that flags a host "
        "(default 30s)",
    )
    stream.add_argument(
        "--quiet", action="store_true",
        help="suppress per-event lines; print only the final summary",
    )
    stream.add_argument(
        "--profile", action="store_true",
        help="collect source/detect wall times and print a profile table",
    )

    cache = commands.add_parser(
        "cache", help="inspect or clear the shared result cache"
    )
    cache.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default ~/.cache/repro/runs)",
    )
    cache_actions = cache.add_mutually_exclusive_group()
    cache_actions.add_argument(
        "--stats", action="store_true",
        help="print entry count and on-disk bytes (the default)",
    )
    cache_actions.add_argument(
        "--clear", action="store_true",
        help="delete every cached run result",
    )

    serve = commands.add_parser(
        "serve", help="run the async quarantine-simulation server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = OS-assigned, printed on startup)",
    )
    serve.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="persistent worker processes (default 1 = in-process)",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=64,
        help="admission-queue capacity; beyond it requests get 429",
    )
    serve.add_argument(
        "--concurrency", type=_positive_int, default=2,
        help="ensembles executing at once (each fans across the pool)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline (requests may override)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long SIGTERM waits for in-flight work",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="serve without the shared result cache",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default ~/.cache/repro/runs)",
    )
    serve.add_argument(
        "--engine", choices=ENGINE_KINDS, default=None,
        help="engine override applied to every served request, one of "
        f"{', '.join(repr(kind) for kind in ENGINE_KINDS)}",
    )
    serve.add_argument(
        "--max-streams", type=_positive_int, default=8,
        help="live /v1/stream sessions admitted at once (429 beyond)",
    )
    serve.add_argument(
        "--stream-ttl", type=float, default=300.0, metavar="SECONDS",
        help="idle /v1/stream sessions are evicted after this long",
    )
    serve.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="run N supervised worker shard processes behind a "
        "front-door router (1 = single process, no router)",
    )
    serve.add_argument(
        "--shard-tag", default="s0", metavar="TAG",
        help=argparse.SUPPRESS,  # internal: set by the shard supervisor
    )
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="durable job-store root (default <cache-dir>/jobs; "
        "with --no-cache durability is off unless this is given)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=None, metavar="RPS",
        help="per-tenant admission: requests/second each tenant "
        "accrues (default: quotas disabled)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=None, metavar="N",
        help="per-tenant bucket ceiling (default 2x --quota-rate)",
    )
    serve.add_argument(
        "--quota-tenant", action="append", default=[],
        metavar="NAME=RATE[:BURST]",
        help="override one tenant's rate (and burst); repeatable",
    )

    chaos = commands.add_parser(
        "chaos",
        help="inspect or replay a deterministic fault-injection plan",
        description="Derive the fault plan a chaos-test failure named "
        "(`repro chaos --plan-seed N`) and optionally replay it against "
        "a small canned ensemble (`--replay`).",
    )
    chaos.add_argument(
        "--plan-seed", type=int, required=True, metavar="N",
        help="the integer seed a failing chaos test printed",
    )
    chaos.add_argument(
        "--replay", action="store_true",
        help="run the canned ensemble under the plan and report the "
        "faults fired, warnings raised, and result fidelity",
    )
    chaos.add_argument(
        "--site", dest="sites", action="append", default=None,
        metavar="NAME",
        help="repeatable: restrict the derived plan to these injection "
        "sites (default: every site)",
    )

    return parser


def _cmd_list(out=sys.stdout) -> int:
    print("analytical figures:", ", ".join(sorted(_ANALYTIC_FIGURES)), file=out)
    print("simulated figures: ", ", ".join(sorted(_SIM_FIGURES)), file=out)
    return 0


def _apply_runner_arguments(args: argparse.Namespace) -> None:
    """Map ``--jobs`` / ``--no-cache`` / ``--cache-dir`` / ``--engine``
    onto the runner and ``--trace`` / ``--profile`` onto the
    observability hub."""
    configure_runner(
        jobs=args.jobs,
        cache_enabled=not args.no_cache,
        cache_dir=args.cache_dir,
        engine=args.engine,
    )
    observability_hub().configure(
        profile=args.profile, trace_path=args.trace
    )


def _report_observability(out=sys.stdout) -> None:
    """Print the profile table / trace summary an invocation collected."""
    hub = observability_hub()
    if not hub.active:
        return
    if hub.profiling:
        print(file=out)
        print(hub.profile_table(), file=out)
    hub.flush()
    summary = hub.trace_summary()
    if summary is not None:
        print(file=out)
        print(summary, file=out)


def _cmd_figure(args: argparse.Namespace, out=sys.stdout) -> int:
    figure_id = args.figure_id
    if args.replicas is not None:
        # A replica sweep is just "many runs on the fast-batched
        # engine"; an explicit --engine keeps the last word.
        args.runs = args.replicas
        if args.engine is None:
            args.engine = "fast-batched"
    _apply_runner_arguments(args)
    if figure_id in _ANALYTIC_FIGURES:
        # Analytic figures run no simulation; --trace still yields its
        # (meta-only) artifact and --profile an empty table.
        builder, baseline, level = _ANALYTIC_FIGURES[figure_id]
        curves = builder()
    else:
        builder, baseline, level = _SIM_FIGURES[figure_id]
        kwargs: dict[str, int] = {"num_runs": args.runs}
        if args.ticks is not None:
            kwargs["max_ticks"] = args.ticks
        if figure_id != "fig1b":
            kwargs["num_nodes"] = args.nodes
        curves = builder(**kwargs)
    print(f"=== {figure_id} ===", file=out)
    _print_curves(curves, baseline, level, out=out)
    _report_observability(out=out)
    return 0


def _cmd_compare(args: argparse.Namespace, out=sys.stdout) -> int:
    _apply_runner_arguments(args)
    study = QuarantineStudy(
        args.nodes,
        scan_rate=args.beta,
        local_preference=args.local_preference,
        seed=args.seed,
    )
    results = study.run_deployments(
        args.strategies, max_ticks=args.ticks, num_runs=args.runs
    )
    curves = {label: result.mean for label, result in results.items()}
    baseline = args.strategies[0].label
    _print_curves(curves, baseline, args.level, out=out)
    metrics = [result.metrics for result in results.values()]
    total_runs = sum(m.runs for m in metrics)
    cached = sum(m.cache_hits for m in metrics)
    wall = sum(m.total_wall_time for m in metrics)
    print(file=out)
    print(
        f"executed {total_runs} runs ({cached} from cache) "
        f"in {wall:.2f}s simulation wall time",
        file=out,
    )
    _report_observability(out=out)
    return 0


def _cmd_trace(args: argparse.Namespace, out=sys.stdout) -> int:
    trace = generate_trace(
        TraceConfig(duration=args.duration, seed=args.seed)
    )
    print(f"{len(trace):,} records over {trace.duration:.0f} s", file=out)
    counts = census(classify_hosts(trace))
    for host_class in HostClass:
        print(f"  {host_class.value:<16} {counts.get(host_class, 0):>5}",
              file=out)
    for group in (HostClass.NORMAL, HostClass.P2P):
        table = recommend_rate_limits(
            trace, trace.hosts_of_class(group), group=group.value
        )
        print(
            f"{group.value}: 99.9% limits per 5 s = "
            f"{table.all_contacts} / {table.no_prior_contact} / "
            f"{table.no_dns} (all / no-prior / no-DNS)",
            file=out,
        )
    return 0


def _cmd_stream(args: argparse.Namespace, out=sys.stdout) -> int:
    # Imported lazily: the streaming subsystem is only needed here.
    import json
    import time as _time
    from contextlib import ExitStack

    from .chaos.controller import corrupt
    from .chaos.controller import current as chaos_current
    from .observability.stats import merge_counts, merge_seconds
    from .streaming import (
        DetectionEngine,
        JsonlFlowStream,
        SyntheticFlowStream,
        make_detector,
    )
    from .streaming.estimators import CountMinSketch, VirtualHyperLogLog
    from .traces.records import TraceError

    hub = observability_hub()
    hub.configure(profile=args.profile)

    def build_detectors(internal):
        kinds = list(dict.fromkeys(args.detectors or ["failure-ratio"]))
        detectors = []
        for kind in kinds:
            kwargs: dict = {}
            if kind == "contact-rate":
                kwargs.update(window=args.window, threshold=args.threshold)
                if args.compact is not None:
                    kwargs["estimator"] = VirtualHyperLogLog(args.compact)
            elif kind == "failure-ratio":
                kwargs.update(
                    timeout=args.timeout,
                    min_failures=args.min_failures,
                    ratio_threshold=args.ratio_threshold,
                )
                if args.compact is not None:
                    kwargs["failures"] = CountMinSketch(args.compact)
                    kwargs["attempts"] = CountMinSketch(args.compact)
            else:
                kwargs["detect_delay"] = args.detect_delay
            detectors.append(make_detector(kind, internal=internal, **kwargs))
        return detectors

    def emit(events) -> None:
        if args.quiet:
            return
        for event in events:
            print(
                json.dumps(
                    event.to_dict(), separators=(",", ":"), sort_keys=True
                ),
                file=out,
            )

    with ExitStack() as stack:
        if args.synthetic:
            config = TraceConfig(duration=args.duration, seed=args.seed)
            stream = SyntheticFlowStream(config, max_flows=args.flows)
            capacity = config.num_hosts
        else:
            path = args.input or "-"
            if path == "-":
                lines = sys.stdin
            else:
                lines = stack.enter_context(
                    open(path, "r", encoding="utf-8")
                )
            hook = None
            if chaos_current() is not None:
                # Chaos seam: corrupt ingest lines byte-wise so the
                # stream's skip-and-count degradation is exercised.
                def hook(line: str) -> str:
                    return corrupt(
                        "streaming.ingest.line", line.encode("utf-8")
                    ).decode("utf-8", "replace")
            stream = JsonlFlowStream(lines, corrupt=hook)
            capacity = args.compact
        try:
            engine = DetectionEngine(build_detectors(stream.is_internal))
        except TraceError as exc:
            print(f"error: {exc}", file=out)
            return 2
        source_s = detect_s = 0.0
        started = _time.perf_counter()
        if hub.profiling:
            iterator = iter(stream)
            while True:
                t0 = _time.perf_counter()
                record = next(iterator, None)
                source_s += _time.perf_counter() - t0
                if record is None:
                    break
                t0 = _time.perf_counter()
                events = engine.feed(record)
                detect_s += _time.perf_counter() - t0
                emit(events)
                if args.flows is not None and engine.flows >= args.flows:
                    break
        else:
            for record in stream:
                emit(engine.feed(record))
                if args.flows is not None and engine.flows >= args.flows:
                    break
        emit(engine.finish())
        elapsed = _time.perf_counter() - started

    summary = {
        "summary": True,
        "flows": engine.flows,
        "events": len(engine.events),
        "quarantined": {
            name: sorted(hosts)
            for name, hosts in sorted(engine.quarantined().items())
        },
        "elapsed_s": round(elapsed, 6),
        "flows_per_sec": round(engine.flows / elapsed, 3)
        if elapsed > 0
        else 0.0,
        "estimator_bytes_per_host": (
            round(engine.estimator_bytes_per_host(capacity), 3)
            if capacity is not None
            and engine.estimator_bytes_per_host(capacity) is not None
            else None
        ),
    }
    if isinstance(stream, JsonlFlowStream):
        summary["bad_lines"] = stream.bad_lines
        summary["reordered"] = stream.reordered
    print(json.dumps(summary, separators=(",", ":"), sort_keys=True), file=out)

    if hub.profiling:
        hub.phase_seconds = merge_seconds(
            [hub.phase_seconds,
             {"stream.source": source_s, "stream.detect": detect_s}]
        )
        hub.phase_calls = merge_counts(
            [hub.phase_calls,
             {"stream.source": engine.flows + 1,
              "stream.detect": engine.flows}]
        )
        hub.counters = merge_counts(
            [hub.counters,
             {"stream.flows": engine.flows,
              "stream.events": len(engine.events)}]
        )
        _report_observability(out=out)
    return 0


def _cmd_cache(args: argparse.Namespace, out=sys.stdout) -> int:
    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = ResultCache(directory)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached runs from {directory}", file=out)
        return 0
    stats = cache.stats()
    print(f"cache dir: {directory}", file=out)
    print(f"entries:   {stats['entries']}", file=out)
    print(f"bytes:     {stats['bytes']}", file=out)
    return 0


def _parse_quota_tenants(
    entries: list[str],
) -> tuple[tuple[str, float, float], ...]:
    """Parse repeated ``NAME=RATE[:BURST]`` tenant overrides."""
    parsed = []
    for entry in entries:
        name, sep, rest = entry.partition("=")
        if not sep or not name:
            raise SystemExit(
                f"error: bad --quota-tenant {entry!r} "
                "(expected NAME=RATE[:BURST])"
            )
        rate_s, _, burst_s = rest.partition(":")
        try:
            rate = float(rate_s)
            burst = float(burst_s) if burst_s else max(1.0, 2.0 * rate)
        except ValueError:
            raise SystemExit(
                f"error: bad --quota-tenant {entry!r} "
                "(expected NAME=RATE[:BURST])"
            ) from None
        parsed.append((name, rate, burst))
    return tuple(parsed)


def _cmd_serve(args: argparse.Namespace, out=sys.stdout) -> int:
    # Imported lazily: the service layer is only needed by this command.
    from .service import ServiceConfig, run_server, run_sharded_server

    configure_runner(
        cache_enabled=not args.no_cache,
        cache_dir=args.cache_dir,
        engine=args.engine,
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_queue=args.max_queue,
        concurrency=args.concurrency,
        deadline_s=args.deadline,
        drain_timeout_s=args.drain_timeout,
        cache_enabled=not args.no_cache,
        cache_dir=args.cache_dir,
        max_streams=args.max_streams,
        stream_ttl_s=args.stream_ttl,
        shard_tag=args.shard_tag,
        job_store_dir=args.store_dir,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        quota_tenants=_parse_quota_tenants(args.quota_tenant),
    )
    if args.shards > 1:
        return run_sharded_server(
            config, args.shards, engine=args.engine, out=out
        )
    return run_server(config, out=out)


def _cmd_chaos(args: argparse.Namespace, out=sys.stdout) -> int:
    # Imported lazily: the chaos harness is only needed by this command.
    from .chaos import DEFAULT_SITES, FaultPlan, replay_plan, site_models

    try:
        sites = site_models(args.sites) if args.sites else DEFAULT_SITES
        plan = FaultPlan.from_seed(args.plan_seed, sites=sites)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if not args.replay:
        print(plan.describe(), file=out)
        return 0
    report = replay_plan(plan, out=out)
    return 0 if report.outcome != "aborted" else 1


def main(argv: Sequence[str] | None = None, out=sys.stdout) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Runner reconfiguration is scoped to this invocation so in-process
    # callers (tests, notebooks) keep their own configuration afterwards;
    # likewise the observability hub is torn down (trace file closed)
    # however the command exits.
    try:
        with use_config(current_config()):
            if args.command == "list":
                return _cmd_list(out=out)
            if args.command == "figure":
                return _cmd_figure(args, out=out)
            if args.command == "compare":
                return _cmd_compare(args, out=out)
            if args.command == "trace":
                return _cmd_trace(args, out=out)
            if args.command == "stream":
                return _cmd_stream(args, out=out)
            if args.command == "cache":
                return _cmd_cache(args, out=out)
            if args.command == "serve":
                return _cmd_serve(args, out=out)
            if args.command == "chaos":
                return _cmd_chaos(args, out=out)
    finally:
        observability_hub().reset()
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
