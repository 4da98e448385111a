"""The solve output writer against the general JSON encoder, byte for byte."""

import random

import pytest

from oracles import random_bipartite, random_graph, result_document_reference
from stcsolve import (
    Graph,
    cli,
    gen_random_proper_interval,
    gen_random_trivially_perfect,
    solve_auto,
    solve_bipartite,
    solve_oracle,
    solve_pig_dp,
    solve_trivially_perfect,
)

# pieces of labels that JSON must escape or that ensure_ascii turns into
# \\u escapes (one outside the BMP, so a surrogate pair)
AWKWARD = ['"', "\\", "\x00", "\x01", "\x1f", "\n", "\t", "\x7f", "é", "中", "\U0001f600",
           " ", "a", "b", "/"]


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g with every vertex renamed to a distinct random awkward label."""
    names: set[str] = set()
    while len(names) < g.n:
        names.add("".join(rng.choice(AWKWARD) for _ in range(rng.randint(1, 4))))
    new = dict(zip(g.vertices, rng.sample(sorted(names), g.n)))
    return Graph(new.values(), [(new[u], new[v]) for u, v in g.edges])


def cycle(n: int, prefix: str) -> Graph:
    vs = [f"{prefix}{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def union(*parts: Graph) -> Graph:
    return Graph([v for p in parts for v in p.vertices], [e for p in parts for e in p.edges])


def path(n: int, prefix: str) -> Graph:
    vs = [f"{prefix}{i}" for i in range(n)]
    return Graph(vs, list(zip(vs, vs[1:])))


def seeded_results(seed: int):
    rng = random.Random(seed)
    mixed = union(cycle(5, "c"), path(rng.randint(2, 6), "p"), cycle(6, "h"),
                  Graph(["z"]))
    cases = [
        (gen_random_proper_interval(rng.randint(1, 14), seed=seed), solve_pig_dp),
        (gen_random_trivially_perfect(rng.randint(1, 14), seed=seed), solve_trivially_perfect),
        (random_bipartite(rng.randint(1, 9), seed), solve_bipartite),
        (random_graph(rng.randint(1, 7), rng.randint(0, 8), seed), solve_oracle),
        (mixed, solve_auto),
    ]
    for g, solve in cases:
        yield solve(g)
        yield solve(relabel(g, rng))


def test_writer_matches_reference_on_every_solver():
    solvers = set()
    nested = 0
    for seed in range(60):
        for result in seeded_results(seed):
            assert cli._result_document(result) == result_document_reference(result)
            solvers.add(result.solver)
            nested += isinstance(result.stats.get("component_solvers"), dict)
    assert solvers == {"pig-dp", "trivially-perfect", "bipartite-matching", "oracle", "mixed"}
    assert nested > 0


@pytest.mark.parametrize("name, g, strong, weak", [
    ("empty graph", Graph([]), False, False),
    ("edgeless graph", Graph(["b", "a", "é"]), False, False),
    ("matching", Graph("abcdef", [("a", "b"), ("c", "d"), ("f", "e")]), True, False),
    ("star", Graph("habc", [("h", x) for x in "abc"]), True, True),
])
def test_writer_matches_reference_on_empty_lists_and_zero_value(name, g, strong, weak):
    for solve in (solve_auto, solve_bipartite, solve_oracle):
        result = solve(g)
        assert bool(result.labeling.strong) == strong and bool(result.labeling.weak) == weak
        assert (result.value == 0) == (not strong)
        assert cli._result_document(result) == result_document_reference(result), name


def test_results_are_a_function_of_the_input():
    """Solving the same graphs twice gives equal results, stats and
    certificates included, on every route; no stats value is a float, so
    none is a timing."""
    solvers = set()
    for seed in range(20):
        first = list(seeded_results(seed))
        assert first == list(seeded_results(seed)), seed
        for result in first:
            solvers.add(result.solver)
            assert not any(isinstance(v, float) for v in result.stats.values()), result.stats
    assert solvers == {"pig-dp", "trivially-perfect", "bipartite-matching", "oracle", "mixed"}
