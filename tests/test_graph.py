import pytest

from oracles import component_vertex_sets, random_graph
from stcsolve import Graph, canon_edge, contract_twins, twin_classes


def test_canon_edge_orders_endpoints():
    assert canon_edge("b", "a") == ("a", "b")
    assert canon_edge("a", "b") == ("a", "b")


def test_basic_accessors():
    g = Graph(["b", "a", "c"], [("a", "b"), ("b", "c")])
    assert g.vertices == ("a", "b", "c")
    assert g.n == 3 and g.m == 2
    assert g.neighbors("b") == frozenset({"a", "c"})
    assert g.degree("a") == 1
    assert g.has_edge("c", "b")
    assert not g.has_edge("a", "c")


def test_rejects_malformed_input():
    with pytest.raises(ValueError):
        Graph(["a", "a"], [])
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "b")])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "b")], weights={("a", "b"): 0})
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "b")], weights={("a", "b"): True})


def test_neighbors_of_unknown_vertex():
    g = Graph(["a"], [])
    with pytest.raises(ValueError):
        g.neighbors("z")


def test_weights_default_to_one():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")], weights={"c": 4})
    assert g.edge_weight("a", "b") == 1
    assert g.edge_weight("c", "b") == 4
    assert not g.is_unit_weight()
    assert Graph(["a", "b"], [("a", "b")]).is_unit_weight()


def test_induced_subgraph_keeps_weights():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")], weights={"a": 2})
    sub = g.induced_subgraph(["a", "b"])
    assert sub.vertices == ("a", "b")
    assert sub.edges == frozenset({("a", "b")})
    assert sub.edge_weight("a", "b") == 2


def test_connected_components_order():
    g = Graph(["d", "c", "b", "a"], [("c", "d")])
    comps = g.connected_components()
    assert [c.vertices for c in comps] == [("a",), ("b",), ("c", "d")]


def test_connected_components_match_induced_subgraphs():
    for seed in range(40):
        n = 5 + seed
        g = random_graph(n, (seed * n) // 8, seed)
        want = [g.induced_subgraph(vs) for vs in component_vertex_sets(g)]
        assert g.connected_components() == want, f"seed={seed}"


def test_equality_ignores_construction_order():
    g1 = Graph(["a", "b"], [("a", "b")])
    g2 = Graph(["b", "a"], [("b", "a")])
    assert g1 == g2


def test_twin_classes_bowtie():
    """In the bowtie the two pendant pairs of each triangle are true twins."""
    g = Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")],
    )
    tp = twin_classes(g)
    classes = set(tp.classes)
    assert frozenset({"a", "b"}) in classes
    assert frozenset({"d", "e"}) in classes
    assert frozenset({"c"}) in classes


def test_twin_classes_require_adjacency():
    # same open neighborhood but not adjacent: not true twins
    g = Graph(["a", "b", "c"], [("a", "c"), ("b", "c")])
    tp = twin_classes(g)
    assert all(len(c) == 1 for c in tp.classes)


def test_contract_twins_bowtie():
    g = Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")],
    )
    cg, tp, intra = contract_twins(g)
    assert cg.n == 3 and cg.m == 2
    assert intra == 2
    assert sorted(cg.weights.values()) == [1, 2, 2]


def test_contract_twins_complete_graph():
    g = Graph(["a", "b", "c", "d"], [
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"),
    ])
    cg, tp, intra = contract_twins(g)
    assert cg.n == 1 and cg.m == 0
    assert intra == 6


def test_contract_twins_is_twin_free():
    from oracles import planted_twin_graph

    for seed in range(25):
        g, planted = planted_twin_graph(seed)
        cg, tp, intra = contract_twins(g)
        again = twin_classes(cg)
        assert all(len(c) == 1 for c in again.classes), f"seed {seed}"
        # every planted class survives inside some discovered class
        found = {v: cls for cls in tp.classes for v in cls}
        for cls in planted:
            tops = {found[v] for v in cls}
            assert len(tops) == 1, f"seed {seed} split a planted class"


def test_contract_twins_of_twin_free_graph_is_the_graph():
    cycle = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    graphs = [cycle] + [random_graph(8, seed % 20, seed) for seed in range(60)]
    for g in graphs:
        if len(twin_classes(g).classes) < g.n:
            continue
        cg, tp, intra = contract_twins(g)
        assert cg == g and intra == 0
        assert cg is g  # returned as is, not rebuilt edge by edge
        assert tp.representatives == g.vertices


def test_contract_twins_rejects_weights():
    g = Graph(["a", "b"], [("a", "b")], weights={"a": 2})
    with pytest.raises(ValueError):
        contract_twins(g)
