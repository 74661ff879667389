"""The exact engine's served bytes, pinned by digest.

``engine="reference"`` names the exact, draw-for-draw path: a run is a
pure function of its spec, and every byte of ``result_payload`` is
pinned here for a grid of small ensembles that together exercise each
part of that path:

* the star hub's node forwarding budget;
* power-law topologies with LAN delivery under every static
  deployment (none, hosts, edge, backbone);
* delayed patching started by infected fraction and by tick, including
  the susceptible-only ablation (``patch_infected=False``);
* dynamic quarantines that actually deploy mid-run: half the scans go
  dark, and the telescope is wide enough for the detector to fire;
* the random, local-preferential, topological and sequential worms;
* figure 5's ``observe="seed_subnets"`` view;
* one ensemble run with profiling and tracing on, whose counters are in
  the payload and whose per-tick trace records are pinned separately.

The fixture was generated by the object-per-host engine that executed
``engine="reference"`` before the mirror took over the label (that
engine survives as the test oracle in ``tests/oracle.py``), so a pass
means the label still denotes the same bytes.

To bless an intentional behavior change:

    PYTHONPATH=src python -m pytest tests/test_golden_reference_payloads.py --update-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.observability import InstrumentationOptions
from repro.runner import RunnerConfig, use_config
from repro.runner.api import run_ensemble
from repro.runner.spec import (
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
)
from repro.service.protocol import canonical_json, result_payload
from repro.simulator.immunization import ImmunizationPolicy

GOLDEN_PATH = Path(__file__).parent / "golden" / "reference_payloads.json"

_BACKBONE = DefenseSpec(kind="backbone", rate=0.02)
_EDGE = DefenseSpec(kind="edge", rate=0.02)

#: 300-node power-law scenario (255 infectable hosts) with LAN delivery;
#: each run samples its topology from its own seed.
_POWERLAW = RunSpec(
    topology=TopologySpec(num_nodes=300),
    scan_rate=0.8,
    initial_infections=3,
    lan_delivery=True,
    max_ticks=80,
)

#: Half the scans miss a host, so they go dark and feed the telescope.
_DARK_WORM = WormSpec(hit_probability=0.5)

TEMPLATES = {
    "star-hub": RunSpec(
        topology=TopologySpec(kind="star", num_nodes=120),
        defense=DefenseSpec(kind="hub", rate=10.0, node_budget=4.0),
        scan_rate=0.8,
        initial_infections=2,
        max_ticks=60,
    ),
    "powerlaw-none": _POWERLAW,
    "powerlaw-hosts": dataclasses.replace(
        _POWERLAW,
        defense=DefenseSpec(kind="hosts", rate=0.01, coverage=0.3, seed=7),
    ),
    "powerlaw-edge": dataclasses.replace(_POWERLAW, defense=_EDGE),
    "powerlaw-backbone": dataclasses.replace(_POWERLAW, defense=_BACKBONE),
    "immunize-at-fraction": dataclasses.replace(
        _POWERLAW, immunization=ImmunizationPolicy.at_fraction(0.2, 0.1)
    ),
    "immunize-at-tick-susceptible-only": dataclasses.replace(
        _POWERLAW,
        defense=_BACKBONE,
        immunization=ImmunizationPolicy(
            mu=0.05, start_tick=10, patch_infected=False
        ),
    ),
    "quarantine-backbone": dataclasses.replace(
        _POWERLAW,
        worm=_DARK_WORM,
        quarantine=QuarantineSpec(
            response=_BACKBONE, telescope_coverage=1 / 16, reaction_delay=2
        ),
    ),
    "quarantine-hosts": dataclasses.replace(
        _POWERLAW,
        worm=_DARK_WORM,
        scan_rate=1.5,
        quarantine=QuarantineSpec(
            response=DefenseSpec(
                kind="hosts", rate=0.05, coverage=0.5, seed=3
            ),
            telescope_coverage=1 / 8,
        ),
    ),
    "local-preferential-edge": dataclasses.replace(
        _POWERLAW, worm=WormSpec(kind="local_preferential"), defense=_EDGE
    ),
    "topological": dataclasses.replace(
        _POWERLAW, worm=WormSpec(kind="topological"), lan_delivery=False
    ),
    "sequential": dataclasses.replace(
        _POWERLAW,
        worm=WormSpec(kind="sequential", hit_probability=0.8),
        defense=_BACKBONE,
    ),
    "seed-subnets": dataclasses.replace(
        _POWERLAW,
        worm=WormSpec(kind="local_preferential"),
        defense=_EDGE,
        observe="seed_subnets",
    ),
}

#: The one case run with instrumentation; its payload carries the phase
#: call counts and scan counters, and its trace is digested separately.
INSTRUMENTED = "powerlaw-edge-instrumented"
INSTRUMENTED_TEMPLATE = TEMPLATES["powerlaw-edge"]
OPTIONS = InstrumentationOptions(profile=True, trace=True)


def ensembles() -> dict[str, EnsembleSpec]:
    """Every pinned ensemble, keyed by its fixture entry."""
    templates = {**TEMPLATES, INSTRUMENTED: INSTRUMENTED_TEMPLATE}
    return {
        name: EnsembleSpec(
            template=template, num_runs=2, base_seed=11, label=name
        )
        for name, template in templates.items()
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str]:
    """sha256 of each ensemble's served bytes, run serially, uncached."""
    fresh: dict[str, str] = {}
    with use_config(RunnerConfig(jobs=1, cache_enabled=False)):
        for name, spec in ensembles().items():
            options = OPTIONS if name == INSTRUMENTED else None
            result = run_ensemble(spec, use_cache=False, options=options)
            fresh[name] = _sha256(result_payload(result))
            if options is not None:
                traces = [list(run.trace) for run in result.runs]
                fresh[f"{name}.trace"] = _sha256(canonical_json(traces))
    return fresh


def test_reference_payload_bytes_are_pinned(request):
    fresh = digests()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(fresh), (
        "the pinned grid changed; regenerate with --update-golden"
    )
    drifted = sorted(name for name in golden if golden[name] != fresh[name])
    assert not drifted, (
        f"exact-engine payload bytes drifted for {drifted}; if intended, "
        "regenerate with --update-golden"
    )


def test_pinned_quarantines_deploy():
    """The quarantine cases differ from twins that never deploy.

    A quarantine that never deploys reruns the undefended scenario (the
    fig-4 quarantine at 1000 nodes is such a case), which would pin
    nothing about the mid-run deployment path.  The twin keeps the
    telescope, so both consume the same draws until the filters engage.
    """
    with use_config(RunnerConfig(jobs=1, cache_enabled=False)):
        for name in ("quarantine-backbone", "quarantine-hosts"):
            template = TEMPLATES[name]
            twin = dataclasses.replace(
                template,
                quarantine=dataclasses.replace(
                    template.quarantine, reaction_delay=10 * template.max_ticks
                ),
            )
            for seed in (11, 12):
                curves = [
                    run_ensemble(
                        EnsembleSpec(
                            template=spec, num_runs=1, base_seed=seed
                        ),
                        use_cache=False,
                    ).runs[0].trajectory.ever_infected.tolist()
                    for spec in (template, twin)
                ]
                assert curves[0] != curves[1], (name, seed)

