"""Trivially perfect components beside components that are not: solve_auto
solves one the oracle would refuse on its own forest, and the P4/C4 search
skips the components that have a forest."""

import random
import time

from oracles import p4_or_c4_reference, random_graph, threshold_graph
from stcsolve import (
    Graph,
    find_p4_or_c4,
    gen_random_trivially_perfect,
    solve_auto,
    validate_stc,
)


def hub_with_three_k5s_and_p4() -> Graph:
    """A hub joined to three disjoint K5s (45 edges: trivially perfect, but
    neither proper interval nor bipartite), plus a disjoint P4."""
    k5s = [[f"k{j}{i}" for i in range(5)] for j in range(3)]
    edges = [(a, b) for k in k5s for i, a in enumerate(k) for b in k[i + 1:]]
    edges += [("h", v) for k in k5s for v in k]
    edges += [("p1", "p2"), ("p2", "p3"), ("p3", "p4")]
    return Graph({v for e in edges for v in e}, edges)


def test_auto_solves_a_trivially_perfect_component_over_the_oracle_cap():
    g = hub_with_three_k5s_and_p4()
    res = solve_auto(g)
    assert res.solver == "mixed"
    assert res.stats["component_solvers"] == {"h": "trivially-perfect", "p1": "pig-dp"}
    assert res.value == 35 + 2
    assert validate_stc(g, res.labeling) is None


def _relabelled(g: Graph, names: dict) -> Graph:
    return Graph([names[v] for v in g.vertices], [(names[u], names[v]) for u, v in g.edges])


def test_p4_c4_search_matches_reference_on_unions_with_interleaved_labels():
    """Unions of trivially perfect and random components whose labels are
    drawn from one shuffled pool, so every component's labels interleave."""
    for seed in range(300):
        rng = random.Random(seed)
        parts = []
        for j in range(2 + seed % 3):
            n = 3 + rng.randrange(7)
            if rng.random() < 0.5:
                parts.append(gen_random_trivially_perfect(n, seed=seed * 10 + j))
            else:
                m = rng.randrange(n * (n - 1) // 2 + 1)
                parts.append(random_graph(n, m, seed * 10 + j))
        pool = [f"v{i:03d}" for i in range(sum(p.n for p in parts))]
        rng.shuffle(pool)
        vertices, edges = [], []
        for p in parts:
            names = {v: pool.pop() for v in p.vertices}
            q = _relabelled(p, names)
            vertices += q.vertices
            edges += q.edges
        g = Graph(vertices, edges)
        assert find_p4_or_c4(g) == p4_or_c4_reference(g), seed


def test_p4_c4_search_skips_a_large_threshold_component():
    """A 1000-vertex threshold graph (m = 240850) with a P4 labelled after
    it: every edge of the threshold graph used to be scanned first."""
    t, _parent = threshold_graph(1000, 1)
    p4 = [("z1", "z2"), ("z2", "z3"), ("z3", "z4")]
    g = Graph(list(t.vertices) + ["z1", "z2", "z3", "z4"], list(t.edges) + p4)
    start = time.perf_counter()
    found = find_p4_or_c4(g)
    assert time.perf_counter() - start < 2.0
    assert found == ("P4", ("z1", "z2", "z3", "z4"))


def test_p4_c4_search_tests_each_edge_at_its_smaller_degree():
    """The same threshold graph with z1 joined to h0064, plus z1-z2: the
    witness lies in the threshold graph's large component, so the skip
    cannot help, and each edge bc must cost only the smaller degree."""
    t, _parent = threshold_graph(1000, 1)
    g = Graph(list(t.vertices) + ["z1", "z2"],
              list(t.edges) + [("z1", "h0064"), ("z1", "z2")])
    start = time.perf_counter()
    found = find_p4_or_c4(g)
    assert time.perf_counter() - start < 1.0
    assert found == ("P4", ("z1", "h0064", "h0582", "h0000"))
