import random
from itertools import combinations

import pytest

from oracles import first_open_wedge_reference, random_graph, strong_set_valid
from stcsolve import (
    Graph,
    StrongWeakLabeling,
    build_incompat,
    canon_pair,
    contract_twins,
    expand_labeling,
    labeling_from_independent_set,
    validate_stc,
)


def test_canon_pair_is_order_free():
    assert canon_pair(("c", "d"), ("a", "b")) == (("a", "b"), ("c", "d"))


def test_path_conflicts():
    """On a path every pair of incident edges conflicts: there are no
    triangles to excuse them."""
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    h = build_incompat(g)
    assert set(h.nodes) == {("a", "b"), ("b", "c"), ("c", "d")}
    assert h.conflicts == frozenset(
        {
            (("a", "b"), ("b", "c")),
            (("b", "c"), ("c", "d")),
        }
    )


def test_triangle_has_no_conflicts():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    h = build_incompat(g)
    assert len(h.nodes) == 3
    assert not h.conflicts


def test_conflict_needs_shared_endpoint():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    h = build_incompat(g)
    assert not h.conflicts


def test_node_weights_multiply_endpoint_weights():
    cg, tp, intra = contract_twins(Graph(
        ["a1", "a2", "b", "c"],
        [("a1", "a2"), ("a1", "b"), ("a2", "b"), ("b", "c")],
    ))
    h = build_incompat(cg)
    weights = sorted(h.node_weight.values())
    assert weights == [1, 2]


def test_is_independent():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    h = build_incompat(g)
    assert h.is_independent([("a", "b")])
    assert not h.is_independent([("a", "b"), ("b", "c")])


def test_labeling_from_strong_computes_value():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")], weights={"a": 3})
    lab = StrongWeakLabeling.from_strong(g, [("a", "b")])
    assert lab.value == 3
    assert lab.weak == frozenset({("b", "c")})


def test_from_strong_rejects_unknown_edges():
    g = Graph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(ValueError):
        StrongWeakLabeling.from_strong(g, [("a", "c")])


def test_validate_stc_finds_open_wedge():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    lab = StrongWeakLabeling.from_strong(g, [("a", "b"), ("b", "c")])
    assert validate_stc(g, lab) == ("a", "b", "c")


def test_validate_stc_accepts_triangle():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    lab = StrongWeakLabeling.from_strong(g, g.edges)
    assert validate_stc(g, lab) is None


def test_validate_stc_requires_partition():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError):
        validate_stc(g, StrongWeakLabeling(frozenset({("a", "b")}), frozenset(), 1))
    overlap = StrongWeakLabeling(
        frozenset({("a", "b")}), frozenset({("a", "b"), ("b", "c")}), 1
    )
    with pytest.raises(ValueError):
        validate_stc(g, overlap)


def test_validity_matches_independence_exhaustively():
    """validate_stc agrees with conflict-graph independence and with the
    definition-level check on every labeling of every 4-vertex graph."""
    labels = ["a", "b", "c", "d"]
    pairs = list(combinations(labels, 2))
    for bits in range(1 << len(pairs)):
        g = Graph(labels, [p for i, p in enumerate(pairs) if (bits >> i) & 1])
        h = build_incompat(g)
        edges = sorted(g.edges)
        for sub in range(1 << len(edges)):
            strong = frozenset(e for i, e in enumerate(edges) if (sub >> i) & 1)
            lab = StrongWeakLabeling.from_strong(g, strong)
            by_validator = validate_stc(g, lab) is None
            assert by_validator == h.is_independent(strong)
            assert by_validator == strong_set_valid(g, strong)


def test_labeling_from_independent_set_roundtrip():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    h = build_incompat(g)
    lab = labeling_from_independent_set(g, h, frozenset({("a", "b"), ("c", "d")}))
    assert lab.value == 2
    assert validate_stc(g, lab) is None
    with pytest.raises(ValueError):
        labeling_from_independent_set(g, h, frozenset({("a", "b"), ("b", "c")}))


def test_expand_labeling_bowtie():
    g = Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")],
    )
    cg, tp, intra = contract_twins(g)
    assert intra == 2
    # both contracted edges strong would leave an open wedge; one is fine
    lab_c = StrongWeakLabeling.from_strong(cg, [sorted(cg.edges)[0]])
    lab = expand_labeling(g, tp, lab_c, intra)
    assert validate_stc(g, lab) is None
    assert lab.value == lab_c.value + intra


def test_expand_labeling_rejects_wrong_intra():
    g = Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    cg, tp, intra = contract_twins(g)
    lab_c = StrongWeakLabeling.from_strong(cg, frozenset())
    with pytest.raises(ValueError):
        expand_labeling(g, tp, lab_c, intra + 1)


def test_validate_stc_witness_matches_pair_scan():
    """Checking each distinct closed strong neighbourhood once by set
    inclusion reports the same first wedge as a scan of every strong pair."""
    for seed in range(400):
        rng = random.Random(seed)
        n = 4 + seed % 9
        g = random_graph(n, rng.randint(n, n * (n - 1) // 2), seed)
        edges = sorted(g.edges)
        strong = [e for e in edges if rng.random() < 0.2 + 0.1 * (seed % 7)]
        lab = StrongWeakLabeling.from_strong(g, strong)
        assert validate_stc(g, lab) == first_open_wedge_reference(g, strong), seed
