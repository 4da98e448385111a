"""recognize sweeps once and sorts the BFS layers from the sweep's last
vertex; it takes that candidate only when the graph is a connected twin-free
proper interval graph, and otherwise runs the two remaining sweeps. Either
way it must return the three-sweep reference ordering when that verifies,
and None exactly when it does not."""

import random
from itertools import combinations

import pytest

import stcsolve.ordering as ordering
from oracles import (
    candidate_order_reference,
    random_graph,
    random_proper_interval_union,
    reaches_reference,
)
from stcsolve import Graph, contract_twins, gen_random_proper_interval, verify_umbrella


@pytest.fixture
def sweeps(monkeypatch):
    """Call recognize and return its result with the number of LexBFS
    sweeps it ran."""
    calls = []
    real = ordering._lexbfs

    def counting(g, prev=None):
        calls.append(g.n)
        return real(g, prev)

    monkeypatch.setattr(ordering, "_lexbfs", counting)

    def run(g):
        calls.clear()
        return ordering.recognize(g), len(calls)

    return run


def shuffled(g: Graph, seed: int) -> Graph:
    labels = list(g.vertices)
    random.Random(seed).shuffle(labels)
    name = dict(zip(g.vertices, labels))
    return Graph(labels, [(name[u], name[v]) for u, v in g.edges])


def check_against_reference(g: Graph, got) -> bool:
    """got equals the verified reference ordering with its reaches, or is
    None when the reference fails verification; returns whether g is proper
    interval."""
    ref = candidate_order_reference(g)
    if verify_umbrella(g, ref) is not None:
        assert got is None, g
        return False
    assert got is not None, g
    assert got.order == ref, g
    assert (got.left_reach, got.right_reach) == reaches_reference(g, ref), g
    return True


def is_twin_free(g: Graph) -> bool:
    return len({g.neighbors(v) | {v} for v in g.vertices}) == g.n


def pig_components(seed: int) -> list[Graph]:
    """Connected components of a seeded proper interval graph, labels
    shuffled so label order does not follow the intervals."""
    g = gen_random_proper_interval(2 + seed % 25, seed=seed, density=0.3 + seed % 7 / 10)
    return [shuffled(c, seed) for c in g.connected_components()]


def test_twin_free_connected_pigs_take_one_sweep(sweeps):
    seen = 0
    for seed in range(400):
        for comp in pig_components(seed):
            cg, _tp, _intra = contract_twins(comp)
            got, n_sweeps = sweeps(cg)
            assert check_against_reference(cg, got)
            assert n_sweeps == 1, (seed, cg)
            seen += cg.n > 2
    assert seen >= 200


def test_twinned_pigs_fall_back_to_three_sweeps(sweeps):
    twinned = 0
    for seed in range(400):
        for comp in pig_components(seed):
            if is_twin_free(comp):
                continue
            got, n_sweeps = sweeps(comp)
            assert check_against_reference(comp, got)
            assert n_sweeps == 3, (seed, comp)
            twinned += 1
    assert twinned >= 200


def test_triangle_layer_candidate_verifies_but_is_refused(sweeps):
    """All three vertices are twins: some order of the two layer-1 vertices
    verifies and differs from the sweeps' u00 u01 u02, so only the distinct
    reach pairs keep it out."""
    labels = ["u00", "u01", "u02"]
    g = Graph(labels, combinations(labels, 2))
    got, n_sweeps = sweeps(g)
    assert got.order == ("u00", "u01", "u02")
    assert n_sweeps == 3
    candidate = ordering._layer_candidate(g, "u02")  # the first sweep ends at u02
    assert candidate in {("u01", "u00", "u02"), ("u00", "u01", "u02")}
    assert verify_umbrella(g, candidate) is None


def test_disconnected_unions_fall_back_to_three_sweeps(sweeps):
    for seed in range(60):
        g = shuffled(random_proper_interval_union(10 + seed % 50, seed), seed)
        if len(g.connected_components()) < 2:
            continue
        got, n_sweeps = sweeps(g)
        assert check_against_reference(g, got)
        assert n_sweeps == 3, seed


def cycle(k: int) -> Graph:
    labels = [f"c{i:02d}" for i in range(k)]
    return Graph(labels, [(labels[i], labels[(i + 1) % k]) for i in range(k)])


def claw_with_extras(seed: int) -> Graph:
    """A claw on h, x, y, z, plus random vertices and edges around it."""
    rng = random.Random(seed)
    labels = ["h", "x", "y", "z"] + [f"e{i}" for i in range(rng.randint(0, 6))]
    edges = {("h", "x"), ("h", "y"), ("h", "z")}
    for u, v in combinations(labels[4:] + ["h"], 2):
        if rng.random() < 0.4:
            edges.add((u, v))
    return shuffled(Graph(labels, edges), seed)


def test_non_pigs_are_refused_exactly_when_the_reference_fails(sweeps):
    refused = 0
    graphs = [cycle(k) for k in range(4, 12)]
    graphs += [claw_with_extras(seed) for seed in range(60)]
    graphs += [random_graph(3 + seed % 9, seed % 25, seed) for seed in range(300)]
    for g in graphs:
        got, n_sweeps = sweeps(g)
        refused += not check_against_reference(g, got)
        assert n_sweeps in (1, 3), g
        assert (n_sweeps == 1) == (got is not None and is_twin_free(g)
                                   and len(g.connected_components()) == 1), g
    assert refused >= 150


def test_sweep_counts_are_pinned(sweeps):
    p5 = Graph([f"p{i}" for i in range(5)], [(f"p{i}", f"p{i + 1}") for i in range(4)])
    assert sweeps(p5)[1] == 1
    assert sweeps(Graph(["a"]))[1] == 1
    triangle = Graph(["u00", "u01", "u02"], combinations(["u00", "u01", "u02"], 2))
    assert sweeps(triangle)[1] == 3
    two_paths = Graph("abcdef", [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")])
    assert sweeps(two_paths)[1] == 3
    got, n_sweeps = sweeps(cycle(5))
    assert got is None and n_sweeps == 3
