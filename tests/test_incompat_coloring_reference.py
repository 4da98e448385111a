"""The conflict graph pairs each vertex's neighbours in set order, and the
2-coloring BFS walks its queue list in place: both must give exactly what
the sorted build and the `deque` BFS in oracles.py gave."""

import random

from oracles import (
    build_incompat_reference,
    color_or_odd_cycle_reference,
    planted_twin_graph,
    random_graph,
    random_sparse_bipartite,
)
from stcsolve import Graph, build_incompat, contract_twins, find_odd_cycle, two_coloring


def odd_cycle(k: int, seed: int, tail: int = 0) -> Graph:
    """A k-cycle with a path of `tail` vertices hung on it, labels shuffled
    so that neither the BFS roots nor the neighbour order follow the cycle."""
    labels = [f"u{i:02d}" for i in range(k + tail)]
    random.Random(seed).shuffle(labels)
    edges = [(labels[i], labels[(i + 1) % k]) for i in range(k)]
    edges += [(labels[i - 1], labels[i]) for i in range(k, k + tail)]
    return Graph(labels, edges)


def inputs():
    for seed in range(150):
        n = 2 + seed % 14
        yield random_graph(n, seed % (n * (n - 1) // 2 + 1), seed)
    for k in range(3, 26, 2):
        for seed in range(3):
            yield odd_cycle(k, seed, tail=seed * 2)
    for seed in range(40):
        yield random_sparse_bipartite(20 + 7 * seed, 1.5 + seed % 4, seed, connected=seed % 2 == 1)
    for seed in range(80):
        g, _ = planted_twin_graph(seed, max_total=12)
        yield contract_twins(g)[0]  # weighted representatives
    yield Graph([])


def test_build_incompat_matches_the_sorted_build():
    for g in inputs():
        h, want = build_incompat(g), build_incompat_reference(g)
        assert (h.nodes, h.node_weight, h.conflicts) == (
            want.nodes, want.node_weight, want.conflicts), g


def test_coloring_and_odd_cycle_match_the_deque_bfs():
    found = {"colorings": 0, "cycles": 0}
    for g in inputs():
        want = color_or_odd_cycle_reference(g)
        if isinstance(want, dict):
            assert two_coloring(g) == want, g
            assert find_odd_cycle(g) is None, g
            found["colorings"] += 1
        else:
            assert two_coloring(g) is None, g
            assert find_odd_cycle(g) == want, g
            found["cycles"] += 1
    assert min(found.values()) > 50  # both answers are exercised
