"""solve_auto gives each component one route: a path or a component with an
odd cycle goes to the proper interval solver, every other component to the
matching. The result must equal that of trying the proper interval solver on
every component first (oracles.solve_auto_reference)."""

import random

import pytest

import stcsolve.solvers as solvers
from oracles import solve_auto_reference
from stcsolve import (
    DEFAULT_ORACLE_CAP,
    Graph,
    UnsupportedInstanceError,
    gen_random_proper_interval,
    solve_auto,
)


def _path(k, rng):
    return [(i, i + 1) for i in range(k - 1)], k


def _cycle(k, rng):
    return [(i, (i + 1) % k) for i in range(k)], k


def _tree_with_a_claw(k, rng):
    edges = [(0, 1), (0, 2), (0, 3)]  # a degree-3 vertex
    edges += [(rng.randrange(i), i) for i in range(4, k)]
    return edges, max(k, 4)


def _grid(k, rng):
    rows, cols = 2 + k % 3, 2 + rng.randrange(3)
    at = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    edges = [(at[r, c], at[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(at[r, c], at[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    return edges, rows * cols


def _odd_cycle_with_chords(k, rng):
    n = 2 * k + 1
    edges, _ = _cycle(n, rng)
    for _ in range(rng.randrange(3)):
        i, j = sorted(rng.sample(range(n), 2))
        if j - i not in (1, n - 1):
            edges.append((i, j))
    return edges, n


def _proper_interval(k, rng):
    g = gen_random_proper_interval(k + 1, seed=rng.randrange(10**6), density=rng.random())
    index = {v: i for i, v in enumerate(g.vertices)}
    return [(index[u], index[v]) for u, v in g.edges], g.n


def _small_odd(k, rng):
    """Connected, with a triangle, small enough for the oracle at the
    default cap."""
    n = 4 + k % 4
    edges = [(0, 1), (1, 2), (0, 2)] + [(rng.randrange(i), i) for i in range(3, n)]
    extra = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    return edges + rng.sample(extra, rng.randrange(min(len(extra), 6) + 1)), n


def _hub_over_three_k5s():
    """Trivially perfect with 45 edges: over the oracle cap, neither proper
    interval nor bipartite."""
    edges = [(0, 1 + 5 * j + i) for j in range(3) for i in range(5)]
    edges += [(1 + 5 * j + a, 1 + 5 * j + b) for j in range(3)
              for a in range(5) for b in range(a + 1, 5)]
    return edges, 16


SHAPES = (_path, _cycle, _tree_with_a_claw, _grid, _odd_cycle_with_chords,
          _proper_interval, _small_odd)


def seeded_union(seed: int) -> Graph:
    """Components of every shape with labels drawn from one shuffled pool,
    always with a P4 so that the whole graph has no forest."""
    rng = random.Random(seed)
    parts = [_path(4 + rng.randrange(5), rng)]
    parts += [([], 1) for _ in range(rng.randrange(3))]  # isolated vertices
    parts += [rng.choice(SHAPES)(3 + rng.randrange(6), rng) for _ in range(2 + rng.randrange(5))]
    if seed % 5 == 0:
        parts.append(_hub_over_three_k5s())
    pool = [f"v{i:03d}" for i in range(sum(n for _, n in parts))]
    rng.shuffle(pool)
    vertices, edges = [], []
    for part_edges, n in parts:
        names = [pool.pop() for _ in range(n)]
        vertices += names
        edges += [(names[a], names[b]) for a, b in part_edges]
    return Graph(vertices, edges)


def _outcome(g: Graph, solve, cap: int):
    try:
        res = solve(g, cap)
    except UnsupportedInstanceError as exc:
        return type(exc), str(exc)
    stats = {k: v for k, v in res.stats.items() if k != "time_ms"}
    return res.value, res.labeling.strong, res.solver, stats, res.certificate


@pytest.mark.parametrize("cap", [0, 5, DEFAULT_ORACLE_CAP])
def test_one_route_per_component_matches_trying_solvers_in_turn(cap):
    refused = 0
    for seed in range(80):
        g = seeded_union(seed)
        expected = _outcome(g, solve_auto_reference, cap)
        assert _outcome(g, solve_auto, cap) == expected, seed
        refused += expected[0] is UnsupportedInstanceError
    if cap == 0:
        assert refused  # the refusal path is compared too


def test_only_odd_cycle_components_and_paths_reach_recognition(monkeypatch):
    """C6, C5 and a claw with a tail: only the C5 can be proper interval."""
    calls = []
    real = solvers.recognize

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(solvers, "recognize", counting)
    c6 = [(f"a{i}", f"a{(i + 1) % 6}") for i in range(6)]
    c5 = [(f"b{i}", f"b{(i + 1) % 5}") for i in range(5)]
    claw = [("h", "x"), ("h", "y"), ("h", "z"), ("z", "t")]
    g = Graph({v for e in c6 + c5 + claw for v in e}, c6 + c5 + claw)
    res = solve_auto(g)
    assert calls == [5]
    assert res.stats["component_solvers"] == {
        "a0": "bipartite-matching", "b0": "oracle", "h": "bipartite-matching"}


def test_each_non_path_component_is_two_colored_once(monkeypatch):
    """C6, C5, a claw with a tail and a P4: the matching reads the coloring
    that picked its route, and the path is not colored at all."""
    sizes = []
    real = solvers.two_coloring

    def counting(g):
        sizes.append(g.n)
        return real(g)

    monkeypatch.setattr(solvers, "two_coloring", counting)
    c6 = [(f"a{i}", f"a{(i + 1) % 6}") for i in range(6)]
    c5 = [(f"b{i}", f"b{(i + 1) % 5}") for i in range(5)]
    claw = [("h", "x"), ("h", "y"), ("h", "z"), ("z", "t")]
    p4 = [("p0", "p1"), ("p1", "p2"), ("p2", "p3")]
    edges = c6 + c5 + claw + p4
    res = solve_auto(Graph({v for e in edges for v in e}, edges))
    assert sizes == [6, 5, 5]
    assert res.stats["component_solvers"] == {
        "a0": "bipartite-matching", "b0": "oracle", "h": "bipartite-matching",
        "p0": "pig-dp"}


def test_isolated_vertices_skip_the_proper_interval_solver(monkeypatch):
    """C5, an isolated vertex and a P4: the isolated vertex is recorded as a
    pig-dp component without a recognize call of its own."""
    calls = []
    real = solvers.recognize

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(solvers, "recognize", counting)
    c5 = [(f"b{i}", f"b{(i + 1) % 5}") for i in range(5)]
    p4 = [("p0", "p1"), ("p1", "p2"), ("p2", "p3")]
    g = Graph({v for e in c5 + p4 for v in e} | {"i"}, c5 + p4)
    res = solve_auto(g)
    assert calls == [5, 4]
    assert res.stats["component_solvers"] == {"b0": "oracle", "i": "pig-dp", "p0": "pig-dp"}
    assert res.solver == "mixed"
    assert res.value == solve_auto_reference(g, DEFAULT_ORACLE_CAP).value
