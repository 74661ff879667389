"""Ablation — occupancy-weighted vs uniform link budgets.

The paper sizes each rate-limited link as ``base_rate x weight`` with the
weight proportional to routing-table occupancy, "so that the most
utilized links will have a higher throughput [and] most normal traffic
will be routed through".  This ablation checks both halves of that claim
by injecting legitimate background traffic alongside the worm:

* worm containment is similar either way (the worm's aggregate demand
  dwarfs any static budget), but
* legitimate traffic suffers far more drops/queueing under *uniform*
  budgets, because trunk links get starved.

Telling the two kinds of packet apart needs the typed-packet object
model, which the engines do not carry; the load runs on the test
oracle's (``tests/oracle.py``).
"""

from __future__ import annotations

import random

from conftest import print_rows

from repro.simulator.defense import deploy_backbone_rate_limit
from repro.simulator.network import Network
from tests.oracle import ObjectNetwork, Packet, PacketKind


def run_mixed_load(weighted: bool, *, ticks: int = 60, seed: int = 5):
    """Drive worm-scale load plus legitimate pairs; return delivery stats."""
    network = ObjectNetwork(Network.from_powerlaw(1000, seed=seed))
    network.install_plan(
        deploy_backbone_rate_limit(network, 0.05, weighted=weighted)
    )
    rng = random.Random(seed)
    hosts = network.infectable
    legit_sent = legit_arrived = 0
    legit_latency = 0
    for tick in range(ticks):
        # Worm-like bulk load: 200 scans per tick across random pairs.
        for _ in range(200):
            src, dst = rng.sample(hosts, 2)
            network.inject(Packet(src=src, dst=dst,
                                  kind=PacketKind.INFECTION,
                                  created_tick=tick))
        # Legitimate trickle: 5 flows per tick.
        for _ in range(5):
            src, dst = rng.sample(hosts, 2)
            network.inject(Packet(src=src, dst=dst,
                                  kind=PacketKind.LEGITIMATE,
                                  created_tick=tick))
            legit_sent += 1
        for packet in network.transmit_tick():
            if packet.kind is PacketKind.LEGITIMATE:
                legit_arrived += 1
                legit_latency += tick - packet.created_tick
    delivered_fraction = legit_arrived / max(legit_sent, 1)
    mean_latency = legit_latency / max(legit_arrived, 1)
    return delivered_fraction, mean_latency, network.stats.packets_dropped


def test_ablation_link_weights(benchmark):
    (weighted_frac, weighted_lat, weighted_drops) = benchmark.pedantic(
        lambda: run_mixed_load(True), rounds=1, iterations=1
    )
    uniform_frac, uniform_lat, uniform_drops = run_mixed_load(False)

    print_rows(
        "Ablation: occupancy-weighted vs uniform link budgets",
        [
            ("weighted: legit delivered fraction", round(weighted_frac, 3)),
            ("weighted: legit mean latency (ticks)", round(weighted_lat, 2)),
            ("uniform:  legit delivered fraction", round(uniform_frac, 3)),
            ("uniform:  legit mean latency (ticks)", round(uniform_lat, 2)),
        ],
    )

    # Weighted budgets deliver meaningfully more legitimate traffic.
    # (Latency is not compared: under uniform budgets only short-path
    # packets survive at all, which biases their mean latency down.)
    assert weighted_frac > 1.2 * uniform_frac
