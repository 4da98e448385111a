"""SplitInstance checks its sides by counting each vertex's neighbours in its
own side; it must accept and refuse exactly what the pair scan of
`oracles.split_sides_reference` does, with the same message, and stay
linear on reduction instances with many triplets."""

import random
import time
from itertools import combinations

from oracles import random_graph, split_sides_reference
from stcsolve import (
    Graph,
    SetPackingInstance,
    SplitInstance,
    gen_disjointnn_from_3sp,
    gen_maxstc_from_disjointnn,
)


def outcome(g, clique, indep) -> str | None:
    try:
        SplitInstance(g, clique, indep)
    except ValueError as exc:
        return str(exc)
    return None


def near_split(rng: random.Random) -> tuple[Graph, frozenset, frozenset]:
    """A split graph with a few vertex pairs toggled, its labels shuffled,
    and its sides as built, so every kind of failure shows up."""
    k, s = rng.randint(0, 6), rng.randint(0, 6)
    labels = [f"v{i:02d}" for i in range(k + s)]
    rng.shuffle(labels)
    clique, indep = labels[:k], labels[k:]
    edges = set(combinations(sorted(clique), 2))
    edges |= {tuple(sorted((u, c))) for u in indep for c in clique if rng.random() < 0.5}
    for _ in range(rng.randint(0, 2)):
        if len(labels) >= 2:
            edges ^= {tuple(sorted(rng.sample(labels, 2)))}
    return Graph(labels, edges), frozenset(clique), frozenset(indep)


def test_messages_match_the_pair_scan():
    rng = random.Random(19)
    seen = set()
    for seed in range(6000):
        g, clique, indep = near_split(rng)
        if seed % 3 == 0:  # random sides of a random graph
            g = random_graph(rng.randint(0, 8), rng.randint(0, 12), seed)
            clique = frozenset(v for v in g.vertices if rng.random() < 0.4)
            indep = frozenset(g.vertices) - clique
        if seed % 50 == 0:  # sides that overlap or leave a vertex out
            indep = indep ^ {g.vertices[0]} if g.vertices else indep | {"x"}
        want = split_sides_reference(g, clique, indep)
        assert outcome(g, clique, indep) == want, (seed, sorted(g.edges), clique, indep)
        seen.add(want.split(" (")[0] if want else None)
    assert seen == {None, "sides do not partition the vertex set",
                    "clique side misses edge", "independent side contains edge"}


def test_reduction_with_ten_thousand_triplets_builds_in_linear_time():
    k = 10 ** 4
    start = time.perf_counter()
    si = gen_disjointnn_from_3sp(SetPackingInstance(3, (frozenset({1, 2, 3}),) * k))
    inst, threshold = gen_maxstc_from_disjointnn(si)
    elapsed = time.perf_counter() - start
    assert len(si.independent_side) == k and si.graph.m == 3
    assert len(inst.independent_side) == k + 3 and inst.graph.m == (
        3 + 9 + 3 + 3 * k + 6 + 9  # old, y-c, y-y, y-w, y-x, x-c
    )
    assert threshold(k) == 3 * 5 + 1 + (k + 1) // 2
    assert elapsed < 1.0, elapsed
