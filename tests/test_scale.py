"""Scale regressions: inputs that once crashed on the recursion limit or
stalled in quadratic dispatch must finish, with exact values."""

import random
import time

import pytest
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
from stcsolve import (
    DEFAULT_ORACLE_CAP,
    Graph,
    OracleCapError,
    cli,
    format_edge_list,
    solve_auto,
    solve_bipartite,
    solve_oracle,
    solve_pig_dp,
    validate_stc,
)


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


def _recognize_split_line(tmp_path, capsys, g: Graph) -> str:
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    assert cli.main(["recognize", str(path)]) == 0
    return capsys.readouterr().out.splitlines()[3]


def test_recognize_on_c5_joined_with_k60(tmp_path, capsys):
    cycle = ["z0", "z2", "z4", "z1", "z3"]
    clique = [f"a{i:02d}" for i in range(60)]
    edges = [(cycle[i], cycle[(i + 1) % 5]) for i in range(5)]
    edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
    edges += [(u, z) for u in clique for z in cycle]
    line = _recognize_split_line(tmp_path, capsys, Graph(clique + cycle, edges))
    assert line == "split: no (induced C5: z0 z2 z4 z1 z3)"


def test_recognize_on_ten_thousand_vertex_sparse_graph_with_isolated_vertices_first(
    tmp_path, capsys
):
    rng = random.Random(1)
    labels = [f"v{i:04d}" for i in range(9800)]
    edges = set()
    while len(edges) < 15_000:
        u, v = sorted(rng.sample(labels, 2))
        edges.add((u, v))
    g = Graph([f"i{i:03d}" for i in range(200)] + labels, edges)
    line = _recognize_split_line(tmp_path, capsys, g)
    kind, verts = line.removeprefix("split: no (induced ").rstrip(")").split(": ")
    a, b, c, d = verts.split()
    # the first vertex of the first witness is the first one with an edge
    assert a == min(v for v in labels if g.neighbors(v))
    if kind == "2K2":
        assert g.has_edge(a, b) and g.has_edge(c, d)
        assert not any(g.has_edge(x, y) for x in (a, b) for y in (c, d))
    else:
        assert kind == "C4"
        assert all(g.has_edge(x, y) for x, y in ((a, b), (b, c), (c, d), (d, a)))
        assert not g.has_edge(a, c) and not g.has_edge(b, d)


def test_recognize_on_star_with_ten_thousand_leaves(tmp_path, capsys):
    leaves = [f"l{i:05d}" for i in range(10_000)]
    g = Graph(["h"] + leaves, [("h", v) for v in leaves])
    start = time.perf_counter()
    line = _recognize_split_line(tmp_path, capsys, g)
    # the degree sort and the CLI output take well under a second
    assert time.perf_counter() - start < 5.0
    assert line == f"split: yes (clique: h l00000 | independent: {' '.join(leaves[1:])})"


def test_oracle_refuses_a_thousand_leaf_star_before_building_its_conflict_graph():
    leaves = [f"l{i:04d}" for i in range(1000)]
    g = Graph(["h"] + leaves, [("h", v) for v in leaves])
    message = f"^conflict graph has 1000 nodes, cap is {DEFAULT_ORACLE_CAP}$"
    start = time.perf_counter()
    with pytest.raises(OracleCapError, match=message):
        solve_oracle(g)
    # the star's conflict graph has 499500 conflicts; building it takes about a second
    assert time.perf_counter() - start < 0.25
