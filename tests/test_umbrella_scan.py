"""The one-scan umbrella check against the gap-set verifier and reach scan
it replaced: the same witness (or None) and the same reaches."""

import random
from itertools import combinations, permutations

from oracles import (
    random_graph,
    random_proper_interval_union,
    reaches_reference,
    verify_umbrella_reference,
)
from stcsolve import Graph, candidate_order, gen_random_proper_interval, recognize, verify_umbrella


def _recognize_reference(g: Graph):
    order = candidate_order(g)
    if verify_umbrella_reference(g, order) is not None:
        return None
    return (order, *reaches_reference(g, order))


def _check_recognize(g: Graph) -> None:
    o = recognize(g)
    got = None if o is None else (o.order, o.left_reach, o.right_reach)
    assert got == _recognize_reference(g), g


def test_witness_matches_gap_scan_on_every_order_of_small_graphs():
    """Every labelled graph with up to 5 vertices, under every vertex order."""
    labels = ["a", "b", "c", "d", "e"]
    for n in range(1, 6):
        vs = labels[:n]
        pairs = list(combinations(vs, 2))
        orders = list(permutations(vs))
        for bits in range(1 << len(pairs)):
            g = Graph(vs, [p for i, p in enumerate(pairs) if (bits >> i) & 1])
            for order in orders:
                assert verify_umbrella(g, order) == verify_umbrella_reference(g, order), (
                    g, order)
            _check_recognize(g)


def _seeded_graphs():
    for seed in range(40):
        n = 6 + seed % 25
        yield random_graph(n, (seed * 7) % (n * (n - 1) // 2 + 1), seed)
        yield gen_random_proper_interval(5 + seed * 2, seed, (seed % 10) / 10)
        yield random_proper_interval_union(20 + seed * 5, seed)


def test_witness_and_reaches_match_on_seeded_graphs():
    """Random graphs, PIGs and PIG unions under the candidate order, the
    label order and shuffled orders."""
    for k, g in enumerate(_seeded_graphs()):
        rng = random.Random(k)
        orders = [candidate_order(g), g.vertices]
        for _ in range(3):
            shuffled = list(g.vertices)
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
        for order in orders:
            assert verify_umbrella(g, order) == verify_umbrella_reference(g, order), (
                g, order)
        _check_recognize(g)
