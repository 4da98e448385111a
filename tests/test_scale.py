"""Scale regressions: inputs that once crashed on the recursion limit or
stalled in quadratic dispatch must finish, with exact values."""

import random

from oracles import (
    forest_graph,
    long_path_value,
    matching_size,
    pig_reference_value,
    random_forest_parents,
    random_proper_interval_union,
    random_sparse_bipartite,
    threshold_graph,
)
from stcsolve import Graph, solve_auto, solve_bipartite, solve_pig_dp, validate_stc


def test_auto_on_ten_thousand_vertex_sparse_bipartite():
    g = random_sparse_bipartite(10_000, 4, seed=1, connected=True)
    res = solve_auto(g)
    assert res.solver == "bipartite-matching"
    assert res.value == matching_size(g)
    assert validate_stc(g, res.labeling) is None


def test_auto_on_six_hundred_ten_cycles():
    labels = [[f"c{j:03d}_{i}" for i in range(10)] for j in range(600)]
    edges = [(c[i], c[(i + 1) % 10]) for c in labels for i in range(10)]
    g = Graph([v for c in labels for v in c], edges)
    res = solve_auto(g)
    assert res.stats["components"] == 600
    assert res.solver == "bipartite-matching"
    assert res.value == 600 * 5


def test_bipartite_on_three_thousand_vertex_path_in_path_order():
    labels = [f"p{i:04d}" for i in range(3000)]
    g = Graph(labels, list(zip(labels, labels[1:])))
    res = solve_bipartite(g)
    assert res.value == 1500


def test_auto_on_thousand_vertex_threshold_graph():
    g, parent = threshold_graph(1000, seed=1)
    res = solve_auto(g)
    assert res.solver == "trivially-perfect"
    assert res.value == long_path_value(parent)
    assert validate_stc(g, res.labeling) is None


def test_auto_on_ten_thousand_vertex_trivially_perfect_forest():
    n = 10_000
    parent = random_forest_parents(n, seed=1, roots=3)
    labels = [f"f{i:05d}" for i in range(n)]
    random.Random(1).shuffle(labels)
    g = forest_graph(labels, parent)
    res = solve_auto(g)
    assert res.solver == "trivially-perfect"
    assert res.value == long_path_value(parent)
    assert validate_stc(g, res.labeling) is None


def test_auto_on_ten_thousand_vertex_path():
    labels = [f"p{i:05d}" for i in range(10_000)]
    g = Graph(labels, list(zip(labels, labels[1:])))
    res = solve_auto(g)
    assert res.solver == "pig-dp"
    assert res.value == 5000


def test_pig_dp_on_ten_thousand_vertex_union_of_proper_interval_graphs():
    g = random_proper_interval_union(10_000, seed=1)
    res = solve_pig_dp(g)
    assert res.value == pig_reference_value(g)
    assert validate_stc(g, res.labeling) is None
