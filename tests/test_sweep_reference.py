"""The LexBFS sweep builds its adjacency in priority order and drops empty
groups lazily, and twin classes come out in the order they are built: both
must give exactly what the sorted, size-counting versions in oracles.py gave."""

import random
from itertools import combinations

from oracles import (
    candidate_order_reference,
    lexbfs_partition_reference,
    lexbfs_reference,
    planted_twin_graph,
    random_graph,
    random_proper_interval_union,
    random_sparse_bipartite,
    threshold_graph,
    twin_classes_reference,
)
from stcsolve import Graph, candidate_order, gen_random_proper_interval, twin_classes
from stcsolve.ordering import _lexbfs


def shuffled(g: Graph, seed: int) -> Graph:
    """g with its labels permuted at random, so label order no longer
    follows the structure."""
    labels = list(g.vertices)
    random.Random(seed).shuffle(labels)
    name = dict(zip(g.vertices, labels))
    return Graph(labels, [(name[u], name[v]) for u, v in g.edges])


def dense_random(n: int, density: float, seed: int) -> Graph:
    return random_graph(n, int(density * n * (n - 1) / 2), seed)


def union_of_parts(seed: int) -> Graph:
    """Disjoint union of isolated vertices, cliques, stars and threshold
    graphs in random order, many of them isolated vertices, with shuffled
    labels."""
    rng = random.Random(seed)
    vertices, edges = [], []
    for j in range(rng.randint(5, 40)):
        kind = rng.choice(("isolated", "isolated", "clique", "star", "threshold"))
        k = rng.randint(1, 12)
        part = [f"p{j:02d}_{i:02d}" for i in range(k)]
        if kind == "clique":
            edges += combinations(part, 2)
        elif kind == "star":
            edges += [(part[0], x) for x in part[1:]]
        elif kind == "threshold":
            t, _ = threshold_graph(k, seed * 100 + j)
            name = dict(zip(t.vertices, part))
            edges += [(name[u], name[v]) for u, v in t.edges]
        else:
            part = part[:1]
        vertices += part
    return shuffled(Graph(vertices, edges), seed)


def small_inputs():
    for seed in range(60):
        n = 1 + seed % 60
        yield random_graph(n, (seed * 7) % (n * (n - 1) // 2 + 1), seed)
        yield shuffled(gen_random_proper_interval(n, seed=seed, density=0.6), seed)
        yield dense_random(min(n, 40), 0.85, seed)
    for seed in range(20):
        g = union_of_parts(seed)
        if g.n <= 60:
            yield g
    yield Graph([])


def large_inputs():
    for seed in range(3):
        yield random_sparse_bipartite(2000, 3.0, seed)
        yield shuffled(random_graph(1500, 6000, seed), seed)
        yield shuffled(gen_random_proper_interval(2000, seed=seed, density=0.9), seed)
        yield random_proper_interval_union(2000, seed)
        yield dense_random(200, 0.7, seed)
        yield union_of_parts(100 + seed)


def check_sweeps(g: Graph, seed: int) -> None:
    s1 = _lexbfs(g)
    assert s1 == lexbfs_partition_reference(g), g
    assert _lexbfs(g, s1) == lexbfs_partition_reference(g, s1), g
    prev = list(g.vertices)
    random.Random(seed).shuffle(prev)
    assert _lexbfs(g, prev) == lexbfs_partition_reference(g, prev), g
    r1 = lexbfs_partition_reference(g)
    r2 = lexbfs_partition_reference(g, r1)
    assert candidate_order(g) == tuple(lexbfs_partition_reference(g, r2)), g


def test_sweeps_match_the_partition_reference_on_small_graphs():
    for seed, g in enumerate(small_inputs()):
        check_sweeps(g, seed)


def test_sweeps_match_the_partition_reference_up_to_two_thousand_vertices():
    for seed, g in enumerate(large_inputs()):
        check_sweeps(g, seed)


def test_sweeps_match_group_rescanning_up_to_sixty_vertices():
    for seed, g in enumerate(small_inputs()):
        if not g.n:  # the rescanning reference needs a vertex
            continue
        assert g.n <= 60
        vs = list(g.vertices)
        s1 = _lexbfs(g)
        assert s1 == lexbfs_reference(g, vs), g
        prev = list(vs)
        random.Random(seed).shuffle(prev)
        assert _lexbfs(g, prev) == lexbfs_reference(g, vs, prev=prev), g
        assert candidate_order(g) == candidate_order_reference(g), g


def blow_up(seed: int) -> Graph:
    """A random base graph with each vertex blown up into a clique of true
    twins, labels shuffled so a class's members are scattered in label
    order."""
    rng = random.Random(seed)
    base = random_graph(rng.randint(1, 12), rng.randint(0, 30), seed)
    classes = {b: [f"x{b}_{i}" for i in range(rng.randint(1, 5))] for b in base.vertices}
    edges = [e for c in classes.values() for e in combinations(c, 2)]
    edges += [(x, y) for u, v in base.edges for x in classes[u] for y in classes[v]]
    g = Graph([x for c in classes.values() for x in c], edges)
    return shuffled(g, seed)


def test_twin_classes_match_the_sorting_reference():
    graphs = [Graph([])]
    graphs += [planted_twin_graph(seed, max_total=4 + seed % 20)[0] for seed in range(200)]
    graphs += [blow_up(seed) for seed in range(200)]
    graphs += [random_proper_interval_union(300, seed) for seed in range(10)]
    for g in graphs:
        tp = twin_classes(g)
        ref = twin_classes_reference(g)
        assert tp.classes == ref.classes, g
        assert tp.representatives == ref.representatives, g


def test_rescanning_reference_sweeps_the_empty_graph():
    g = Graph([])
    assert lexbfs_reference(g, []) == lexbfs_reference(g, [], prev=[]) == []
    assert _lexbfs(g) == _lexbfs(g, []) == []
