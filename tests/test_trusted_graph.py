"""Graphs built without the public constructor's checks: the edge-list parser,
connected components and twin contraction, against checked references."""

import random

import pytest

from oracles import (
    component_vertex_sets,
    graph_invariant_violations,
    parse_edge_list_reference,
    planted_twin_graph,
    random_graph,
    random_proper_interval_union,
)
from stcsolve import (
    Graph,
    ParseError,
    canon_edge,
    contract_twins,
    gen_random_trivially_perfect,
    parse_edge_list,
    solve_pig_dp,
)
from stcsolve.incompat import lift_labeling

SPACES = [" ", "  ", "\t", " \t "]


def noisy_edge_list(g: Graph, rng: random.Random) -> str:
    """An edge list of g with comments, blank lines, mixed line endings,
    edges in random orientation and order, and repeated vertex lines both
    before and after the edges that use them."""
    lines = [f"{u}{rng.choice(SPACES)}{v}" if rng.random() < 0.5 else f"{v} {u}"
             for u, v in g.edges]
    lines += [f"vertex{rng.choice(SPACES)}{v}" for v in g.vertices
              for _ in range(rng.choice((0, 0, 1, 2)))]
    lines += [f"vertex {v}" for v in g.vertices if g.degree(v) == 0]
    lines += ["", "   ", "# a comment", "#", "\t# indented comment"] * rng.randint(0, 2)
    rng.shuffle(lines)
    lines = [line + rng.choice(("", "", "  # trailing", "#x y z")) for line in lines]
    ends = [rng.choice(("\n", "\r\n")) for _ in lines]
    return "".join(a + b for a, b in zip(lines, ends))


def malformed_lines(g: Graph, rng: random.Random) -> list[str]:
    lines = ["a b c", "vertex", "vertex a b", "x x", "one"]
    if g.edges:
        u, v = rng.choice(sorted(g.edges))
        lines += [f"{v} {u}", f"{u}\t{v} # again"]
    return lines


def seeded_graphs():
    for seed in range(150):
        rng = random.Random(seed)
        kind = seed % 4
        if kind == 0:
            yield random_graph(rng.randint(0, 12), rng.randint(0, 20), seed)
        elif kind == 1:
            yield planted_twin_graph(seed)[0]
        elif kind == 2:
            yield gen_random_trivially_perfect(rng.randint(1, 15), seed=seed)
        else:
            yield random_proper_interval_union(rng.randint(3, 60), seed)


def assert_same_graph(a: Graph, b: Graph) -> None:
    assert a == b
    assert a._adj == b._adj
    assert not graph_invariant_violations(a)


def test_parse_matches_reference_on_noisy_text():
    for seed, g in enumerate(seeded_graphs()):
        rng = random.Random(seed)
        text = noisy_edge_list(g, rng)
        parsed = parse_edge_list(text)
        assert_same_graph(parsed, parse_edge_list_reference(text))
        assert parsed == g


def test_parse_raises_the_reference_error_on_every_malformed_line():
    checked = 0
    for seed, g in enumerate(seeded_graphs()):
        rng = random.Random(seed)
        lines = noisy_edge_list(g, rng).splitlines(keepends=True)
        for bad in malformed_lines(g, rng):
            at = rng.randint(0, len(lines))
            text = "".join(lines[:at]) + bad + rng.choice(("\n", "\r\n")) + "".join(lines[at:])
            with pytest.raises(ParseError) as ref:
                parse_edge_list_reference(text)
            with pytest.raises(ParseError) as got:
                parse_edge_list(text)
            assert str(got.value) == str(ref.value)
            checked += 1
    assert checked > 900


def test_components_are_the_checked_induced_subgraphs():
    for g in seeded_graphs():
        comps = g.connected_components()
        assert [list(c.vertices) for c in comps] == component_vertex_sets(g)
        for c in comps:
            assert_same_graph(c, g.induced_subgraph(c.vertices))


def test_components_keep_weights():
    g = Graph("abcde", [("a", "b"), ("c", "d")], weights={"a": 3, "d": 2})
    comps = g.connected_components()
    assert [c.weights for c in comps] == [{"a": 3, "b": 1}, {"c": 1, "d": 2}, {"e": 1}]
    for c in comps:
        assert not graph_invariant_violations(c)


def test_contraction_matches_a_checked_build():
    for g in seeded_graphs():
        cg, tp, intra = contract_twins(g)
        rep = tp.rep_of()
        checked = Graph(
            tp.representatives,
            {canon_edge(rep[u], rep[v]) for u, v in g.edges if rep[u] != rep[v]},
            {r: len(c) for r, c in zip(tp.representatives, tp.classes)},
        )
        assert_same_graph(cg, checked)
        assert (cg is g) == (len(tp.classes) == g.n)


def test_rep_map_is_built_once_per_partition():
    g, _classes = planted_twin_graph(3)
    _cg, tp, _intra = contract_twins(g)
    assert tp.rep_of() is tp.rep_of()


def test_twin_free_solve_equals_the_lift():
    """With no twins the solver skips the lift; the labeling must be the
    one the lift would give."""
    seen = 0
    for seed in range(40):
        g = random_proper_interval_union(random.Random(seed).randint(3, 40), seed)
        for comp in g.connected_components():
            cg, tp, _intra = contract_twins(comp)
            if cg is not comp:
                continue
            result = solve_pig_dp(comp)
            strong_c = {tuple(e) for e in result.certificate["contracted_strong"]}
            assert result.labeling == lift_labeling(comp, tp.rep_of(), strong_c)
            seen += 1
    assert seen > 20


def test_every_pig_solve_lifts_once(monkeypatch):
    import stcsolve.solvers as solvers

    calls = []

    def counted(*args):
        calls.append(args)
        return lift_labeling(*args)

    monkeypatch.setattr(solvers, "lift_labeling", counted)
    path = Graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
    assert contract_twins(path)[0] is path  # twin-free
    assert solve_pig_dp(path).value == 2
    assert len(calls) == 1
    g, _ = planted_twin_graph(0)
    assert contract_twins(g)[0].n < g.n  # has twins
    solve_pig_dp(g)
    assert len(calls) == 2


def test_public_constructor_still_checks_everything():
    bad = [
        (["a", "a"], [], None, "duplicate vertex labels"),
        (["a"], [("a", "a")], None, "self-loop"),
        (["a"], [("a", "b")], None, "undeclared vertex"),
        (["a", "b"], [("a", "b"), ("b", "a")], None, "duplicate edge"),
        (["a", "b"], [], {"c": 1}, "unknown vertex"),
        (["a", "b"], [], {"a": 0}, "positive integer"),
        (["a", "b"], [], {"a": True}, "positive integer"),
    ]
    for vertices, edges, weights, message in bad:
        with pytest.raises(ValueError, match=message):
            Graph(vertices, edges, weights)
