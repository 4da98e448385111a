"""The split partition and the split obstruction search, cross-checked
against the 4-set and 5-set scan in `oracles.split_obstruction_reference`."""

from itertools import combinations

import pytest
from oracles import (
    edge_toggles,
    random_graph_isolated_first,
    random_pseudo_split,
    split_obstruction_reference,
)
from stcsolve import Graph, find_split_obstruction, split_partition


def _obstruction_matches(g: Graph) -> bool:
    """True when g is not split; then the search must return the
    reference's witness."""
    if split_partition(g) is not None:
        return False
    assert find_split_obstruction(g) == split_obstruction_reference(g), sorted(g.edges)
    return True


def test_split_obstruction_matches_reference_on_every_graph_up_to_six_vertices():
    checked = 0
    for n in range(7):
        labels = [f"v{i}" for i in range(n)]
        pairs = list(combinations(labels, 2))
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            checked += _obstruction_matches(Graph(labels, edges))
    assert checked == 23512  # the labelled non-split graphs on up to 6 vertices


def test_split_obstruction_matches_reference_with_isolated_vertices_first():
    checked = sum(
        _obstruction_matches(random_graph_isolated_first(7 + seed % 5, seed))
        for seed in range(600)
    )
    assert checked > 400


def test_split_obstruction_matches_reference_on_pseudo_split_graphs_and_toggles():
    kinds = set()
    for seed in range(40):
        g = random_pseudo_split(seed)
        assert _obstruction_matches(g)
        assert find_split_obstruction(g)[0] == "C5"
        for h in edge_toggles(g):
            if _obstruction_matches(h):
                kinds.add(find_split_obstruction(h)[0])
    assert kinds == {"2K2", "C4", "C5"}


def test_split_partition_sides():
    star = Graph("hxyz", [("h", "x"), ("h", "y"), ("h", "z")])
    assert split_partition(star) == (["h", "x"], ["y", "z"])
    c4 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert split_partition(c4) is None
    assert find_split_obstruction(c4) == ("C4", ("a", "b", "c", "d"))
    with pytest.raises(RuntimeError, match="no split obstruction"):
        find_split_obstruction(star)


def test_split_partition_names_a_clique_and_an_independent_set():
    split = 0
    for n in range(7):
        labels = [f"v{i}" for i in range(n)]
        pairs = list(combinations(labels, 2))
        for bits in range(1 << len(pairs)):
            g = Graph(labels, [p for i, p in enumerate(pairs) if bits >> i & 1])
            sides = split_partition(g)
            if sides is None:
                continue
            split += 1
            clique, independent = sides
            # the sides partition the vertices, the clique side first in this order
            assert clique + independent == sorted(labels, key=lambda v: (-g.degree(v), v))
            assert all(g.has_edge(u, v) for u, v in combinations(clique, 2))
            assert not any(g.has_edge(u, v) for u, v in combinations(independent, 2))
    assert split == 10356  # 33868 labelled graphs on up to 6 vertices, 23512 not split
