"""Power-law (scale-free) topology generation — the BRITE substitute.

The paper's Internet-scale experiments run on "an 1,000 node power-law graph
generated by BRITE" whose degree distribution resembles an AS-level topology
(the Oregon route views).  BRITE's router/AS model is Barabási–Albert
preferential attachment, which we implement here from scratch with a seeded
``random.Random`` so every experiment is reproducible.

Two generators are provided:

* :func:`barabasi_albert` — incremental preferential attachment, the default
  used by all benchmarks.  Produces a connected graph whose degree
  distribution has a power-law tail with exponent close to 3.
* :func:`powerlaw_configuration` — a configuration-model style generator
  with a tunable exponent, used by the ablation benchmarks to check that the
  paper's conclusions do not hinge on the exact BA exponent.
"""

from __future__ import annotations

import math
import random

from .graphs import Topology, TopologyError

__all__ = [
    "barabasi_albert",
    "powerlaw_configuration",
]


def barabasi_albert(
    num_nodes: int,
    edges_per_node: int = 2,
    *,
    seed: int | None = None,
) -> Topology:
    """Generate a connected scale-free graph by preferential attachment.

    Starts from a small clique of ``edges_per_node + 1`` nodes; every new
    node attaches to ``edges_per_node`` distinct existing nodes chosen with
    probability proportional to their current degree.

    Parameters
    ----------
    num_nodes:
        Total node count (the paper uses 1,000).
    edges_per_node:
        Edges added per arriving node; 2 gives an average degree near 4,
        similar to AS-level topologies.
    seed:
        Seed for the private RNG.  The same seed always yields the same
        graph.
    """
    if edges_per_node < 1:
        raise TopologyError(
            f"edges_per_node must be >= 1, got {edges_per_node}"
        )
    core = edges_per_node + 1
    if num_nodes < core:
        raise TopologyError(
            f"need at least {core} nodes for edges_per_node={edges_per_node}, "
            f"got {num_nodes}"
        )
    rng = random.Random(seed)

    edges: list[tuple[int, int]] = []
    # ``targets`` holds one entry per edge endpoint, so sampling uniformly
    # from it is sampling proportional to degree — the classic trick that
    # keeps preferential attachment O(E).
    attachment_pool: list[int] = []

    for u in range(core):
        for v in range(u + 1, core):
            edges.append((u, v))
            attachment_pool.append(u)
            attachment_pool.append(v)

    for new_node in range(core, num_nodes):
        chosen: set[int] = set()
        while len(chosen) < edges_per_node:
            chosen.add(rng.choice(attachment_pool))
        for target in sorted(chosen):
            edges.append((target, new_node))
            attachment_pool.append(target)
            attachment_pool.append(new_node)

    return Topology(num_nodes, edges)


def powerlaw_configuration(
    num_nodes: int,
    exponent: float = 2.5,
    *,
    min_degree: int = 1,
    max_degree: int | None = None,
    seed: int | None = None,
) -> Topology:
    """Generate a connected graph with a tunable power-law degree sequence.

    Samples node degrees from ``P(k) ∝ k^-exponent`` over
    ``[min_degree, max_degree]``, wires stubs at random (rejecting self
    loops and multi-edges), then patches connectivity by linking each
    stranded component to the giant component through its highest-degree
    node.  The result is simple and connected, with a degree tail close to
    the requested exponent — sufficient for the ablation study.
    """
    if num_nodes < 2:
        raise TopologyError(f"need at least 2 nodes, got {num_nodes}")
    if exponent <= 1.0:
        raise TopologyError(f"exponent must exceed 1, got {exponent}")
    if max_degree is None:
        max_degree = max(min_degree + 1, int(math.sqrt(num_nodes)) * 2)
    rng = random.Random(seed)

    weights = [k ** (-exponent) for k in range(min_degree, max_degree + 1)]
    total = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def sample_degree() -> int:
        r = rng.random()
        for offset, bound in enumerate(cumulative):
            if r <= bound:
                return min_degree + offset
        return max_degree

    degrees = [sample_degree() for _ in range(num_nodes)]
    if sum(degrees) % 2:
        degrees[rng.randrange(num_nodes)] += 1

    stubs: list[int] = []
    for node, degree in enumerate(degrees):
        stubs.extend([node] * degree)
    rng.shuffle(stubs)

    edge_set: set[tuple[int, int]] = set()
    # Random stub matching with rejection of loops/duplicates; leftover
    # stubs are simply dropped, which perturbs the tail negligibly.
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in edge_set:
            continue
        edge_set.add(edge)

    topology = Topology(num_nodes, sorted(edge_set))
    components = topology.connected_components()
    if len(components) > 1:
        # Attach every minor component to the giant one through its
        # highest-degree member so connectivity never depends on luck.
        components.sort(key=len, reverse=True)
        giant = components[0]
        anchor = max(giant, key=topology.degree)
        for component in components[1:]:
            best = max(component, key=topology.degree)
            edge = (anchor, best) if anchor < best else (best, anchor)
            edge_set.add(edge)
        topology = Topology(num_nodes, sorted(edge_set))
    return topology
