"""The certificates the oracle, the bipartite route and `solve_auto` hand
back: their shapes, and that each one certifies the returned strong set."""

from oracles import random_bipartite, random_graph
from stcsolve import (
    Graph,
    build_incompat,
    solve_auto,
    solve_bipartite,
    solve_oracle,
)


def relabel(g: Graph, prefix: str) -> Graph:
    return Graph([prefix + v for v in g.vertices],
                 [(prefix + u, prefix + v) for u, v in g.edges])


def union(*parts: Graph) -> Graph:
    return Graph([v for p in parts for v in p.vertices],
                 [e for p in parts for e in p.edges])


def test_oracle_bipartite_and_dispatch_certificates_seeded():
    dispatched = set()
    for seed in range(60):
        g = random_graph(6 + seed % 5, 4 + seed % 11, seed)
        res = solve_oracle(g)
        strong = sorted(res.labeling.strong)
        assert res.certificate["independent_set"] == strong
        assert not any(a in strong and b in strong for a, b in build_incompat(g).conflicts)

        b = random_bipartite(3 + seed % 8, seed)
        res = solve_bipartite(b)
        coloring = res.certificate["coloring"]
        assert list(coloring) == list(b.vertices)
        assert set(coloring.values()) <= {0, 1}
        assert all(coloring[u] != coloring[v] for u, v in b.edges)
        assert res.certificate["matching"] == sorted(res.labeling.strong)

        mixed = union(relabel(g, "g"), relabel(b, "b"))
        res = solve_auto(mixed)
        if "dispatch" not in res.certificate:  # the whole graph has a forest
            continue
        dispatch = res.certificate["dispatch"]
        assert dispatch == res.stats["component_solvers"]
        assert list(dispatch) == [c.vertices[0] for c in mixed.connected_components()]
        dispatched |= set(dispatch.values())
    assert {"oracle", "bipartite-matching", "pig-dp"} <= dispatched
