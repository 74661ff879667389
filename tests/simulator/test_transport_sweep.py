"""The mirror transport's sweeps against the typed-packet sweep.

:meth:`ObjectNetwork.transmit_tick` (``tests/oracle.py``) moves typed
packets hop by hop over the oracle's link objects and serves here as
the specification.  :class:`MirrorTransport` moves the
same packets as bare destinations: on arrays while no link is rate
limited, no node has a forwarding budget and no queue can overflow,
then on its deques after a limit, a budget or a drop risk.  A mid-run
deploy is one :class:`DefensePlan` for both: the link objects install
it and the transport applies it to its arrays.  Fed the same
injections tick by tick, the two must deliver the same packets,
keep the same number in flight, and end with the same per-link
counters and the same waiting destinations in the same order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.defense import DefensePlan
from repro.simulator.fastpath.transport import MirrorTransport
from repro.simulator.network import Network
from repro.simulator.routing import RoutingTables
from repro.topology.classify import classify_roles
from repro.topology.graphs import Topology
from repro.topology.powerlaw import barabasi_albert
from repro.topology.star import star_graph

from ..oracle import ObjectNetwork, Packet, PacketKind, total_queued


@st.composite
def sweep_cases(draw):
    """A topology, a queue bound, per-tick injections and a deploy.

    Node ids are permuted: a generated graph numbers its hubs first, so
    without the permutation few paths would climb to a higher-numbered
    link and back, and the waiting order would rarely depend on more
    than a packet's last link.
    """
    if draw(st.booleans()):
        graph = star_graph(draw(st.integers(3, 25))).graph
    else:
        graph = barabasi_albert(
            draw(st.integers(6, 60)),
            draw(st.integers(1, 3)),
            seed=draw(st.integers(0, 1000)),
        )
    n = graph.num_nodes
    label = draw(st.permutations(range(n)))
    topology = Topology(n, [(label[u], label[v]) for u, v in graph.edges])
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda p: p[0] != p[1])
    ticks = draw(st.integers(1, 25))
    injections = draw(
        st.lists(
            st.lists(pair, max_size=20), min_size=ticks, max_size=ticks
        )
    )
    deploy = None
    if draw(st.booleans()):
        u, v = draw(st.sampled_from(sorted(topology.edges)))
        if draw(st.booleans()):
            u, v = v, u
        deploy = (
            draw(st.integers(0, ticks - 1)),
            (u, v, draw(st.floats(0.2, 3.0))),
            draw(st.one_of(
                st.none(),
                st.tuples(st.integers(0, n - 1), st.floats(0.5, 4.0)),
            )),
        )
    return {
        "topology": topology,
        "max_queue": draw(st.integers(1, 60)),
        "injections": injections,
        "deploy": deploy,
    }


def _network(topology, routing, max_queue: int) -> Network:
    return Network(
        topology,
        classify_roles(topology),
        None,
        infectable=tuple(topology.nodes()),
        max_queue=max_queue,
        routing=routing,
    )


@given(case=sweep_cases())
@settings(max_examples=200, deadline=None)
def test_mirror_transport_matches_the_packet_sweep(case):
    routing = RoutingTables(case["topology"])
    network = _network(case["topology"], routing, case["max_queue"])
    spec = ObjectNetwork(network)
    transport = MirrorTransport(network)
    deploy = case["deploy"]
    for tick, pairs in enumerate(case["injections"]):
        for src, dst in pairs:
            spec.inject(Packet(src, dst, PacketKind.INFECTION, tick))
            transport.inject(src, dst)
        expected = sorted(packet.dst for packet in spec.transmit_tick())
        assert sorted(transport.transmit_tick()) == expected, tick
        assert transport.queued_total == total_queued(spec), tick
        if deploy is not None and deploy[0] == tick:
            # One plan for both sides: the link objects take it, and
            # the transport applies it to its arrays.
            _, (u, v, rate), budget = deploy
            plan = DefensePlan(
                name="deploy",
                links=((routing.link_rows[v][u], rate, rate + 1.0),),
                budgets=(
                    ((budget[0], budget[1], budget[1] + 1.0),)
                    if budget is not None
                    else ()
                ),
            )
            spec.install_plan(plan)
            transport.apply_limit_plan(plan)
    assert (
        transport.injected, transport.delivered, transport.dropped_total
    ) == (
        spec.stats.packets_injected,
        spec.stats.packets_delivered,
        spec.stats.packets_dropped,
    )
    links = dict(zip(spec.links, zip(*transport.link_arrays())))
    for key, link in spec.links.items():
        stats = link.stats
        assert links[key] == (
            stats.forwarded,
            stats.dropped,
            stats.enqueued,
            stats.peak_queue,
            stats.requeued,
            link.queue_length,
        ), key
    # Waiting order: the array sweep's packets as the deques take them.
    transport._to_deques()
    slot = {key: i for i, key in enumerate(transport.keys)}
    for key, link in spec.links.items():
        waiting = list(transport.queues.get(slot[key], ()))
        assert waiting == [p.dst for p in link._queue], key
