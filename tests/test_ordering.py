import pytest

from oracles import (
    candidate_order_reference,
    lexbfs_reference,
    random_graph,
    random_sparse_bipartite,
    umbrella_exists,
)
from stcsolve import (
    Graph,
    candidate_order,
    gen_random_proper_interval,
    gen_random_trivially_perfect,
    recognize,
    reverse,
    verify_umbrella,
)
from stcsolve.ordering import _lexbfs


def path(n):
    labels = [f"v{i}" for i in range(n)]
    return Graph(labels, list(zip(labels, labels[1:])))


def test_verify_umbrella_accepts_path_order():
    g = path(4)
    assert verify_umbrella(g, ("v0", "v1", "v2", "v3")) is None


def test_verify_umbrella_witness_for_bad_order():
    """Ordering a path a-c-b puts the edge endpoints around a non-neighbor."""
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert verify_umbrella(g, ("a", "c", "b")) == ("a", "c", "b")


def test_verify_umbrella_rejects_non_permutation():
    g = path(3)
    with pytest.raises(ValueError):
        verify_umbrella(g, ("v0", "v1"))
    with pytest.raises(ValueError):
        verify_umbrella(g, ("v0", "v1", "v1"))


def test_recognize_path_and_reaches():
    o = recognize(path(4))
    assert o is not None
    pos = {v: i for i, v in enumerate(o.order)}
    assert abs(pos["v0"] - pos["v1"]) == 1
    # reaches cover exactly the closed neighborhood on a path
    for i in range(4):
        assert o.right_reach[i] - o.left_reach[i] <= 2


def test_recognize_rejects_claw():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    assert recognize(g) is None


def test_recognize_rejects_cycle():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert recognize(g) is None


def test_recognize_complete_graph():
    g = Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    o = recognize(g)
    assert o is not None
    assert o.left_reach == (0, 0, 0)
    assert o.right_reach == (2, 2, 2)


def test_recognize_handles_components():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    o = recognize(g)
    assert o is not None
    assert verify_umbrella(g, o.order) is None


def test_candidate_order_is_a_permutation():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    assert sorted(candidate_order(g)) == ["a", "b", "c", "d"]


def test_reverse_is_also_valid():
    g = path(5)
    o = recognize(g)
    r = reverse(o)
    assert r.order == tuple(reversed(o.order))
    assert verify_umbrella(g, r.order) is None
    rr = reverse(r)
    assert rr == o


def test_position_lookup():
    o = recognize(path(3))
    for i, v in enumerate(o.order):
        assert o.position(v) == i


def test_recognize_matches_search_on_all_small_graphs():
    """Recognition agrees with a permutation search on every graph with up
    to 5 vertices."""
    from itertools import combinations

    labels = ["a", "b", "c", "d", "e"]
    for n in range(1, 6):
        vs = labels[:n]
        pairs = list(combinations(vs, 2))
        for bits in range(1 << len(pairs)):
            g = Graph(vs, [p for i, p in enumerate(pairs) if (bits >> i) & 1])
            got = recognize(g)
            want = umbrella_exists(g)
            assert (got is not None) == want, f"n={n} bits={bits}"
            if got is not None:
                assert verify_umbrella(g, got.order) is None


def test_recognize_matches_search_on_seeded_graphs():
    for n in (6, 7):
        cap = n * (n - 1) // 2
        for seed in range(60):
            m = seed % (cap + 1)
            g = random_graph(n, m, seed * 31 + n)
            got = recognize(g)
            assert (got is not None) == umbrella_exists(g), f"n={n} seed={seed}"


def _sweep_inputs():
    """Seeded PIGs, sparse bipartite graphs, TP graphs, odd cycles and
    random graphs, connected or not, with shuffled labels where the
    generator allows."""
    for seed in range(25):
        yield gen_random_proper_interval(5 + seed * 3, seed, (seed % 10) / 10)
        yield random_sparse_bipartite(10 + seed * 4, 1.5 + seed % 3, seed, seed % 2 == 0)
        yield gen_random_trivially_perfect(5 + seed * 2, seed)
        k = 3 + 2 * seed
        labels = [f"c{(i * 2) % k:02d}" for i in range(k)]
        yield Graph(labels, [(labels[i], labels[(i + 1) % k]) for i in range(k)])
        yield random_graph(8 + seed, 2 * seed, seed)


def test_lexbfs_matches_group_rescanning_reference():
    """Partition refinement reproduces the group-rescanning sweep it
    replaced, for the plain sweep and for the plus-rule sweep."""
    for g in _sweep_inputs():
        vs = list(g.vertices)
        s1 = _lexbfs(g)
        assert s1 == lexbfs_reference(g, vs), g
        assert _lexbfs(g, s1) == lexbfs_reference(g, vs, prev=s1), g


def test_candidate_order_matches_per_component_reference():
    """Sweeping the whole graph gives the per-component sweeps laid out in
    smallest-label order."""
    for g in _sweep_inputs():
        assert candidate_order(g) == candidate_order_reference(g), g
