import random
from itertools import combinations

import pytest

from oracles import (
    enumerate_optimum,
    forest_graph,
    matching_reference,
    p4_or_c4_reference,
    pig_dp_reference,
    planted_twin_graph,
    random_bipartite,
    random_forest_parents,
    random_graph,
    random_sparse_bipartite,
    threshold_graph,
    tp_strong_reference,
)
from stcsolve import (
    Graph,
    OracleCapError,
    UnsupportedInstanceError,
    WrongClassError,
    brute_mwis,
    build_incompat,
    canon_edge,
    contract_twins,
    find_odd_cycle,
    find_p4_or_c4,
    gen_random_proper_interval,
    gen_random_trivially_perfect,
    maximum_matching,
    recognize,
    reverse,
    solve_auto,
    solve_bipartite,
    solve_oracle,
    solve_pig_dp,
    solve_trivially_perfect,
    trivially_perfect_forest,
    two_coloring,
    validate_stc,
    verify_umbrella,
)


def graph(spec: str, isolated: str = "") -> Graph:
    edges = [tuple(p) for p in spec.split()]
    labels = sorted({c for p in spec.split() for c in p} | set(isolated))
    return Graph(labels, edges)


P4 = graph("ab bc cd")
CLAW = graph("ab ac ad")
K3 = graph("ab bc ac")
BOWTIE = graph("ab ac bc cd ce de")
C4 = graph("ab bc cd da")
C6 = graph("ab bc cd de ef fa")
K4 = graph("ab ac ad bc bd cd")

FROZEN = [(P4, 2), (CLAW, 1), (K3, 3), (BOWTIE, 4), (C4, 2), (C6, 3), (K4, 6)]


def test_oracle_matches_frozen_values():
    for g, want in FROZEN:
        assert solve_oracle(g).value == want


def test_oracle_matches_enumeration_on_small_graphs():
    labels = ["a", "b", "c", "d", "e"]
    pairs = list(combinations(labels, 2))
    for bits in range(0, 1 << len(pairs), 7):
        g = Graph(labels, [p for i, p in enumerate(pairs) if (bits >> i) & 1])
        res = solve_oracle(g)
        assert res.value == enumerate_optimum(g), f"bits={bits}"
        assert validate_stc(g, res.labeling) is None


def test_oracle_result_is_reproducible():
    a = solve_oracle(BOWTIE)
    b = solve_oracle(BOWTIE)
    assert a.labeling.strong == b.labeling.strong


def test_oracle_cap():
    big = random_graph(12, 40, seed=5)
    with pytest.raises(OracleCapError):
        solve_oracle(big, cap=39)
    assert solve_oracle(big, cap=39, force=True).value >= 1


def test_brute_mwis_prefers_lexicographic_witness():
    """Two optima exist on a path of three edges; the smaller node set wins."""
    g = graph("ab bc cd")
    h = build_incompat(g)
    value, chosen = brute_mwis(h)
    assert value == 2
    assert chosen == frozenset({("a", "b"), ("c", "d")})


def test_pig_dp_frozen_values():
    for g, want in [(P4, 2), (K3, 3), (BOWTIE, 4), (K4, 6)]:
        res = solve_pig_dp(g)
        assert res.value == want
        assert validate_stc(g, res.labeling) is None


def test_pig_dp_rejects_other_graphs():
    for g in (CLAW, C4, C6):
        with pytest.raises(WrongClassError):
            solve_pig_dp(g)


def test_pig_dp_bowtie_certificate():
    res = solve_pig_dp(BOWTIE)
    assert res.stats["intra_twin_value"] == 2
    assert res.certificate["intra_twin_value"] == 2
    assert len(res.certificate["ordering"]) == 3
    assert len(res.certificate["contracted_strong"]) == 1


def test_pig_dp_agrees_with_oracle_seeded():
    from stcsolve import gen_random_proper_interval

    for seed in range(40):
        g = gen_random_proper_interval(8, seed=seed, density=0.45)
        if g.m > 25:
            continue
        assert solve_pig_dp(g).value == solve_oracle(g).value, f"seed={seed}"


def test_pig_dp_reversal_invariance():
    """The optimum cannot depend on which end of the ordering comes first."""
    from stcsolve import gen_random_proper_interval

    for seed in range(10):
        g = gen_random_proper_interval(7, seed=seed, density=0.5)
        o = recognize(g)
        assert o is not None
        assert verify_umbrella(g, reverse(o).order) is None
        assert solve_pig_dp(g).value == solve_oracle(g).value


def test_edge_deletion_monotonicity():
    """Removing an edge never increases the optimum."""
    from stcsolve import gen_random_proper_interval

    for seed in range(8):
        g = gen_random_proper_interval(7, seed=seed, density=0.55)
        base = solve_oracle(g).value
        for e in sorted(g.edges):
            smaller = Graph(list(g.vertices), [x for x in sorted(g.edges) if x != e])
            assert solve_oracle(smaller).value <= base


def test_find_p4_or_c4():
    kind, quad = find_p4_or_c4(P4)
    assert kind == "P4"
    a, b, c, d = quad
    assert P4.has_edge(a, b) and P4.has_edge(b, c) and P4.has_edge(c, d)
    assert not P4.has_edge(a, c) and not P4.has_edge(b, d) and not P4.has_edge(a, d)

    kind, quad = find_p4_or_c4(C4)
    assert kind == "C4"
    a, b, c, d = quad
    assert C4.has_edge(a, d)

    assert find_p4_or_c4(K4) is None
    assert find_p4_or_c4(CLAW) is None


def test_trivially_perfect_frozen_values():
    for g, want in [(CLAW, 1), (K3, 3), (BOWTIE, 4), (K4, 6)]:
        res = solve_trivially_perfect(g)
        assert res.value == want
        assert validate_stc(g, res.labeling) is None


def test_trivially_perfect_rejects_p4_and_c4():
    for g in (P4, C4, C6):
        with pytest.raises(WrongClassError):
            solve_trivially_perfect(g)


def test_trivially_perfect_agrees_with_oracle_seeded():
    from stcsolve import gen_random_trivially_perfect

    for seed in range(40):
        g = gen_random_trivially_perfect(9, seed=seed)
        res = solve_trivially_perfect(g)
        assert res.value == solve_oracle(g, force=True).value, f"seed={seed}"


def test_two_coloring_and_odd_cycle():
    colors = two_coloring(C6)
    assert colors is not None
    assert all(colors[u] != colors[v] for u, v in C6.edges)
    assert two_coloring(K3) is None

    cycle = find_odd_cycle(BOWTIE)
    assert cycle is not None
    assert len(cycle) % 2 == 1
    for i, v in enumerate(cycle):
        assert BOWTIE.has_edge(v, cycle[(i + 1) % len(cycle)])
    assert find_odd_cycle(C6) is None


def test_maximum_matching_path():
    colors = two_coloring(P4)
    matching = maximum_matching(P4, colors)
    assert len(matching) == 2


def test_maximum_matching_matches_recursive_reference():
    """The explicit-stack search picks the same matching as the recursive
    augmenting-path search it replaced."""
    for seed in range(60):
        g = random_sparse_bipartite(20 + 3 * seed, 1 + seed % 4, seed, seed % 3 == 0)
        colors = two_coloring(g)
        assert maximum_matching(g, colors) == matching_reference(g, colors), seed


def test_bipartite_frozen_values():
    for g, want in [(P4, 2), (CLAW, 1), (C4, 2), (C6, 3)]:
        res = solve_bipartite(g)
        assert res.value == want
        assert validate_stc(g, res.labeling) is None


def test_bipartite_rejects_odd_cycles():
    with pytest.raises(WrongClassError):
        solve_bipartite(K3)


def test_bipartite_agrees_with_oracle_seeded():
    for seed in range(40):
        g = random_bipartite(9, seed=seed)
        assert solve_bipartite(g).value == solve_oracle(g, force=True).value


def test_twin_contraction_pipeline_on_planted_graphs():
    for seed in range(30):
        g, _classes = planted_twin_graph(seed)
        direct = solve_oracle(g, force=True).value
        if recognize(g) is not None:
            assert solve_pig_dp(g).value == direct, f"seed={seed}"
        if find_p4_or_c4(g) is None:
            assert solve_trivially_perfect(g).value == direct, f"seed={seed}"


def test_solve_auto_dispatch():
    assert solve_auto(P4).solver == "pig-dp"
    assert solve_auto(CLAW).solver == "trivially-perfect"
    assert solve_auto(C6).solver == "bipartite-matching"
    # the bowtie fits both umbrella and union/join form; the whole-graph
    # check runs first
    assert solve_auto(BOWTIE).solver == "trivially-perfect"


def test_solve_auto_mixed_components():
    """A triangle next to a hexagon needs two different solvers."""
    g = Graph(
        ["a", "b", "c", "p", "q", "r", "s", "t", "u"],
        [("a", "b"), ("b", "c"), ("a", "c"),
         ("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "u"), ("u", "p")],
    )
    res = solve_auto(g)
    assert res.value == 6
    assert res.solver == "mixed"
    assert res.stats["components"] == 2


def test_solve_auto_triangle_plus_path():
    g = Graph(
        ["a", "b", "c", "w", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("a", "c"),
         ("w", "x"), ("x", "y"), ("y", "z")],
    )
    res = solve_auto(g)
    assert res.value == 5
    assert res.solver == "pig-dp"


def outside_all_classes() -> Graph:
    """Claw at h rules out proper interval, the triangle rules out
    bipartite, and the induced path z-h-y-t1 rules out trivially perfect."""
    return Graph(
        ["h", "x", "y", "z", "t1", "t2"],
        [("h", "x"), ("h", "y"), ("h", "z"), ("x", "t1"), ("x", "t2"), ("t1", "t2"),
         ("y", "t1")],
    )


def test_solve_auto_falls_back_to_oracle():
    g = outside_all_classes()
    res = solve_auto(g)
    assert res.value == solve_oracle(g).value
    assert res.solver == "oracle"


def test_solve_auto_unsupported_when_capped():
    with pytest.raises(UnsupportedInstanceError):
        solve_auto(outside_all_classes(), oracle_cap=5)


def test_auto_agrees_with_oracle_on_random_graphs():
    for seed in range(40):
        n = 5 + seed % 4
        m = min(seed % 14 + 2, n * (n - 1) // 2)
        g = random_graph(n, m, seed=seed * 7 + 1)
        auto = solve_auto(g)
        assert auto.value == solve_oracle(g, force=True).value, f"seed={seed}"


def _tp_sweep():
    """Seeded trivially perfect graphs: random cographs from the class
    definition, threshold graphs, stars, and rooted forests with shuffled
    labels, whose one-child vertices are true twins of their child."""
    for seed in range(300):
        yield gen_random_trivially_perfect(4 + seed % 11, seed=seed)
        yield threshold_graph(3 + seed % 12, seed)[0]
        n = 3 + seed % 12
        labels = [f"f{i:02d}" for i in range(n)]
        random.Random(seed).shuffle(labels)
        yield forest_graph(labels, random_forest_parents(n, seed, roots=1 + seed % 3))
    for k in range(1, 12):
        yield Graph(["c"] + [f"l{i}" for i in range(k)], [("c", f"l{i}") for i in range(k)])


def test_trivially_perfect_strong_sets_match_cograph_mwis_reference():
    """The forest chains pick exactly the strong set of the conflict-graph
    route they replaced, not only its value."""
    for i, g in enumerate(_tp_sweep()):
        assert solve_trivially_perfect(g).labeling.strong == tp_strong_reference(g), i


def _forest_check_agrees(g: Graph) -> None:
    parent = trivially_perfect_forest(g)
    assert find_p4_or_c4(g) == p4_or_c4_reference(g)
    assert (parent is None) == (find_p4_or_c4(g) is not None)
    if parent is not None:
        order = list(parent)
        assert sorted(order) == list(g.vertices)
        assert all(p is None or order.index(p) < order.index(v) for v, p in parent.items())
        assert forest_graph(order, [None if p is None else order.index(p)
                                    for p in parent.values()]).edges == g.edges


def test_forest_check_agrees_with_p4_c4_scan_on_all_five_vertex_graphs():
    labels = ["a", "b", "c", "d", "e"]
    pairs = list(combinations(labels, 2))
    for bits in range(1 << len(pairs)):
        _forest_check_agrees(Graph(labels, [p for i, p in enumerate(pairs) if (bits >> i) & 1]))


def test_forest_check_agrees_with_p4_c4_scan_seeded():
    """Random graphs up to 9 vertices, and trivially perfect ones with one
    edge toggled so that both answers occur often."""
    for seed in range(1500):
        rng = random.Random(seed)
        n = 1 + seed % 9
        _forest_check_agrees(random_graph(n, rng.randint(0, n * (n - 1) // 2), seed))
        g = gen_random_trivially_perfect(max(n, 2), seed=seed)
        u, v = rng.sample(list(g.vertices), 2)
        toggled = g.edges ^ {tuple(sorted((u, v)))}
        _forest_check_agrees(Graph(g.vertices, toggled))


def test_pig_dp_strong_sets_match_prefix_clique_reference():
    """The clique-block DP picks exactly the strong set of the three-index
    DP it replaced, not only its value, on weighted (twin-contracted)
    orderings of up to 200 positions."""
    for seed in range(1500):
        g = gen_random_proper_interval(4 + seed * 37 % 200, seed=seed, density=0.2 + 0.05 * (seed % 15))
        res = solve_pig_dp(g)
        cg, _tp, intra = contract_twins(g)
        order = res.certificate["ordering"]
        pos = {v: i for i, v in enumerate(order)}
        right = [max([i] + [pos[u] for u in cg.neighbors(v)]) for i, v in enumerate(order)]
        value, pairs = pig_dp_reference(order, [cg.weights[v] for v in order], right)
        assert res.value == value + intra, seed
        assert res.certificate["contracted_strong"] == sorted(
            canon_edge(order[s], order[t]) for s, t in pairs
        ), seed


def test_pig_dp_lifted_strong_set_matches_reference_blocks_plus_twin_edges():
    """The full strong set of solve_pig_dp, not only its contracted part:
    the three-index DP's blocks on the twin-contracted graph, lifted here
    by hand (an edge is strong inside one twin class, or when the classes'
    smallest members form a block pair), on planted-twin and dense proper
    interval graphs, where most classes have several members."""
    graphs = [g for g, _ in map(planted_twin_graph, range(400)) if recognize(g) is not None]
    graphs += [
        gen_random_proper_interval(4 + seed * 7 % 60, seed=seed, density=0.7 + 0.02 * (seed % 15))
        for seed in range(200)
    ]
    with_twins = 0
    for i, g in enumerate(graphs):
        cg, tp, intra = contract_twins(g)
        o = recognize(cg)
        _value, pairs = pig_dp_reference(o.order, [cg.weights[v] for v in o.order], o.right_reach)
        block_pairs = {frozenset((o.order[s], o.order[t])) for s, t in pairs}
        head = {v: min(c) for c in tp.classes for v in c}
        lifted = {
            (u, v) for u, v in g.edges
            if head[u] == head[v] or frozenset((head[u], head[v])) in block_pairs
        }
        assert solve_pig_dp(g).labeling.strong == lifted, i
        with_twins += intra > 0
    assert with_twins > len(graphs) // 2


def test_solve_auto_validates_each_component_once(monkeypatch):
    """A triangle, a 4-cycle and a 5-cycle go to three different solvers;
    each validates its own component and the union is not checked again."""
    import stcsolve.solvers as solvers

    calls = []

    def counting(g, lab):
        calls.append(g.n)
        return validate_stc(g, lab)

    monkeypatch.setattr(solvers, "validate_stc", counting)
    g = Graph(
        ["a", "b", "c"] + [f"d{i}" for i in range(4)] + [f"e{i}" for i in range(5)],
        [("a", "b"), ("b", "c"), ("a", "c")]
        + [(f"d{i}", f"d{(i + 1) % 4}") for i in range(4)]
        + [(f"e{i}", f"e{(i + 1) % 5}") for i in range(5)],
    )
    res = solve_auto(g)
    assert res.stats["component_solvers"] == {
        "a": "pig-dp", "d0": "bipartite-matching", "e0": "oracle",
    }
    assert res.value == 3 + 2 + 2
    assert sorted(calls) == [3, 4, 5]
