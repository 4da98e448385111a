"""The trivially perfect route solves on the input's own forest: it must pick
the strong set, value and stats of the contract, solve and lift route it
replaced, build one forest per solve and no twin contraction, and leave the
P4/C4 witness search to the places that print it."""

import random
import time

from oracles import (
    forest_graph,
    random_forest_parents,
    threshold_graph,
    tp_contracted_reference,
)
from stcsolve import (
    Graph,
    cli,
    contract_twins,
    gen_random_trivially_perfect,
    solve_auto,
    solve_trivially_perfect,
    trivially_perfect_forest,
)


def _blow_up(g: Graph, seed: int) -> Graph:
    """g with each vertex replaced by a clique of 1 to 3 true twins."""
    rng = random.Random(seed)
    copies = {v: [f"{v}_{i}" for i in range(rng.randint(1, 3))] for v in g.vertices}
    edges = [(a, b) for c in copies.values() for i, a in enumerate(c) for b in c[i + 1:]]
    edges += [(a, b) for u, v in g.edges for a in copies[u] for b in copies[v]]
    return Graph([x for c in copies.values() for x in c], edges)


def _tp_families():
    for seed in range(600):
        yield gen_random_trivially_perfect(1 + seed % 14, seed=seed)
        n = 1 + seed % 15
        labels = [f"f{i:02d}" for i in range(n)]
        random.Random(seed).shuffle(labels)
        yield forest_graph(labels, random_forest_parents(n, seed, roots=1 + seed % 3))
        yield threshold_graph(1 + seed % 14, seed)[0]
        yield _blow_up(gen_random_trivially_perfect(1 + seed % 8, seed=seed), seed)
        yield _blow_up(threshold_graph(1 + seed % 8, seed)[0], seed)
    yield Graph([], [])
    for k in range(1, 8):
        labels = [f"v{i}" for i in range(k)]
        yield Graph(labels, [])
        yield Graph(["c"] + labels, [("c", v) for v in labels])
        yield Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


def test_forest_route_matches_contracted_route_reference():
    count = 0
    for i, g in enumerate(_tp_families()):
        res = solve_trivially_perfect(g)
        strong, weak, value, stats = tp_contracted_reference(g)
        assert res.labeling.strong == strong, i
        assert res.labeling.weak == weak, i
        assert res.value == value, i
        assert {k: v for k, v in res.stats.items() if k != "time_ms"} == stats, i
        count += 1
    assert count >= 3000


def test_forest_certificate_proves_the_class():
    for i, g in enumerate(_tp_families()):
        parent = solve_trivially_perfect(g).certificate["forest"]
        assert sorted(parent) == list(g.vertices), i
        seen = set()
        pairs = set()
        for v, p in parent.items():
            assert p is None or p in seen, i  # parents before children
            seen.add(v)
            while p is not None:
                pairs.add(tuple(sorted((p, v))))
                p = parent[p]
        assert pairs == g.edges, i


def _counting(monkeypatch, name):
    import stcsolve.solvers as solvers

    calls = []
    original = getattr(solvers, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solvers, name, counted)
    return calls


def test_trivially_perfect_solve_builds_one_forest_and_lifts_nothing(monkeypatch):
    forests = _counting(monkeypatch, "trivially_perfect_forest")
    lifts = _counting(monkeypatch, "lift_labeling")
    g = _blow_up(gen_random_trivially_perfect(8, seed=3), 3)
    assert g.n > 8  # has true twins
    solve_trivially_perfect(g)
    assert len(forests) == 1
    assert lifts == []


def test_auto_does_not_search_for_a_p4_or_c4_witness(monkeypatch):
    searches = _counting(monkeypatch, "find_p4_or_c4")
    p4 = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    c4 = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert solve_auto(p4).solver == "pig-dp"
    assert solve_auto(c4).solver == "bipartite-matching"
    assert searches == []


def test_forced_tp_solver_on_p4_prints_the_witness(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("a b\nb c\nc d\n")
    code = cli.main(["solve", "--solver", "tp", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: not trivially perfect: induced P4 on ('a', 'b', 'c', 'd')\n"


def test_auto_on_large_clique_plus_p4_skips_the_witness_search():
    clique = [f"k{i:03d}" for i in range(700)]
    path = ["p0", "p1", "p2", "p3"]  # labels after the clique's
    g = Graph(
        clique + path,
        [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
        + [("p0", "p1"), ("p1", "p2"), ("p2", "p3")],
    )
    assert trivially_perfect_forest(g) is None
    start = time.perf_counter()
    res = solve_auto(g)
    # a P4/C4 witness search on this graph takes several seconds
    assert time.perf_counter() - start < 3.0
    assert res.solver == "pig-dp"
    assert res.value == 700 * 699 // 2 + 2


def test_forest_route_never_contracts_twins(monkeypatch):
    contractions = _counting(monkeypatch, "contract_twins")
    g = _blow_up(gen_random_trivially_perfect(8, seed=3), 3)
    assert g.n > 8  # has true twins
    assert solve_trivially_perfect(g).solver == "trivially-perfect"
    assert solve_auto(g).solver == "trivially-perfect"
    assert contractions == []
    # r's only child c is its twin, as is each of x, y and z's only child:
    # 16 edges, a claw at c and a triangle, so solve_pig_dp contracts and
    # refuses it and, over the cap, the oracle would refuse it too
    labels = ["r", "c", "x", "y", "z", "x2", "y2", "z2"]
    tp = forest_graph(labels, [None, 0, 1, 1, 1, 2, 3, 4])
    c4 = [("q1", "q2"), ("q2", "q3"), ("q3", "q4"), ("q4", "q1")]  # to the matching
    both = Graph(labels + ["q1", "q2", "q3", "q4"], list(tp.edges) + c4)
    res = solve_auto(both, oracle_cap=5)
    assert res.stats["component_solvers"] == {"c": "trivially-perfect",
                                              "q1": "bipartite-matching"}
    # the one contraction is solve_pig_dp's; the forest route adds none
    assert [args[0].vertices for args in contractions] == [tuple(sorted(labels))]


def chain_forest(seed: int) -> Graph:
    """A seeded forest of about 1 to 300 vertices, grown by hanging chains of
    1 to 6 only children under a new root (one time in five) or under any
    vertex so far, leaves included, with shuffled labels. Later chains may
    hang under a chain's members, so twin classes are cut at random."""
    rng = random.Random(seed)
    size = rng.randint(1, 300)
    parent: list = []
    while len(parent) < size:
        at = rng.randrange(len(parent)) if parent and rng.random() >= 0.2 else None
        for _ in range(rng.randint(1, 6)):
            parent.append(at)
            at = len(parent) - 1
    labels = [f"t{i:03d}" for i in range(len(parent))]
    rng.shuffle(labels)
    return forest_graph(labels, parent)


def _twin_edge_cases():
    for seed in range(300):
        yield chain_forest(seed)
    for k in range(1, 6):
        yield Graph([f"i{j}" for j in range(k)], [])  # isolated vertices; k = 1 is K1
    for k in range(2, 51):  # one twin class; k = 2 is K2 and the one-leaf star
        labels = [f"k{j:02d}" for j in range(k)]
        yield Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])
    for k in range(1, 8):
        yield Graph(["c"] + [f"l{j}" for j in range(k)], [("c", f"l{j}") for j in range(k)])


def test_forest_stats_equal_the_twin_contraction_on_only_child_chains():
    """The stats read off the forest: an only child is its parent's true
    twin, so the contracted n counts the chains of only children, the
    contracted m the pairs of chains one above the other, and the value
    inside twin classes the pairs inside each chain."""
    count = 0
    for i, g in enumerate(_twin_edge_cases()):
        cg, _tp, intra = contract_twins(g)
        stats = solve_trivially_perfect(g).stats
        assert stats == {"conflict_nodes": cg.m, "contracted_n": cg.n,
                         "intra_twin_value": intra}, i
        count += 1
    assert count == 300 + 5 + 49 + 7
