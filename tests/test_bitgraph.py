"""The oracle's bit graph reads `IncompatGraph.adjacency()`; its node order,
weights, conflict bits, scan order and clique cover stay those of the build
that scanned the conflict pairs by hand (`oracles.bitgraph_reference`)."""

from oracles import bitgraph_reference, planted_twin_graph, random_graph
from stcsolve import (
    DEFAULT_ORACLE_CAP,
    Graph,
    IncompatGraph,
    build_incompat,
    contract_twins,
)
from stcsolve.incompat import canon_pair
from stcsolve.solvers import _BitGraph


def cycle(k: int) -> Graph:
    labels = [f"c{i:02d}" for i in range(k)]
    return Graph(labels, [(labels[i], labels[(i + 1) % k]) for i in range(k)])


def check(h) -> None:
    bg = _BitGraph(h)
    assert (bg.nodes, bg.weight, bg.adj, bg.lex, bg.cover) == bitgraph_reference(h), h
    assert bg.n == len(h.nodes)


def test_empty_conflict_graph():
    check(IncompatGraph((), {}, frozenset()))
    check(build_incompat(Graph(["a", "b"])))


def test_odd_conflict_cycles():
    for k in range(3, DEFAULT_ORACLE_CAP + 1, 2):
        check(build_incompat(cycle(k)))
        ring = [(f"r{i:02d}", "s") for i in range(k)]
        conflicts = frozenset(
            canon_pair(ring[i], ring[(i + 1) % k]) for i in range(k)
        )
        check(IncompatGraph(tuple(ring), {e: 1 + i % 3 for i, e in enumerate(ring)}, conflicts))


def test_seeded_random_graphs_up_to_the_cap():
    covers = 0
    for seed in range(400):
        n = 5 + seed % 9
        m = min(1 + seed % DEFAULT_ORACLE_CAP, n * (n - 1) // 2)
        h = build_incompat(random_graph(n, m, seed))
        check(h)
        covers += any(len(members) > 1 for _cm, members in _BitGraph(h).cover)
    assert covers > 100  # the sweep reaches covers with real cliques


def test_weighted_contractions():
    weighted = 0
    for seed in range(120):
        g, _ = planted_twin_graph(seed, max_total=12)
        cg, _tp, _intra = contract_twins(g)
        h = build_incompat(cg)
        check(h)
        weighted += any(w > 1 for w in h.node_weight.values())
    assert weighted > 30
