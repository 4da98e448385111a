"""Input checks that refuse malformed documents, parameters and graphs."""

import json
import random

import pytest
from oracles import labeling_pairs_reference, random_graph

from stcsolve import (
    Graph,
    ParseError,
    cli,
    solve_auto,
    solve_bipartite,
    solve_pig_dp,
    solve_trivially_perfect,
)


@pytest.mark.parametrize("doc, message", [
    ('[["a", "b"]]', "needs 'strong' and 'weak' lists"),
    ('{"weak": []}', "needs 'strong' and 'weak' lists"),
    ('{"strong": [], "weak": {"a": "b"}}', "'weak' must be a list"),
    ('{"strong": [["a", "b", "c"]], "weak": []}', "is not a label pair"),
    ('{"strong": [["a", 1]], "weak": []}', "is not a label pair"),
    ('{"strong": ["ab"], "weak": []}', "is not a label pair"),
])
def test_verify_rejects_malformed_labeling_document(tmp_path, capsys, doc, message):
    gpath = tmp_path / "g.txt"
    gpath.write_text("a b\nb c\n")
    lpath = tmp_path / "lab.json"
    lpath.write_text(doc)
    code = cli.main(["verify", str(gpath), str(lpath)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_generate_rejects_non_integer_triplet_entry(capsys):
    code = cli.main(["generate", "stc-reduction", "--universe", "4", "--triplet", "1,2,x"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: triplet '1,2,x' has a non-integer entry\n"


@pytest.mark.parametrize("solve", [
    solve_pig_dp, solve_trivially_perfect, solve_bipartite, solve_auto,
])
def test_unit_weight_solvers_refuse_weighted_graphs(solve):
    g = Graph(["a", "b"], [("a", "b")], weights={"a": 2})
    with pytest.raises(ValueError, match="unit-weight"):
        solve(g)


# makers of entries that are not a pair of labels, from two labels of the graph
BAD_ENTRIES = (
    lambda u, v: u,
    lambda u, v: 7,
    lambda u, v: None,
    lambda u, v: {u: v},
    lambda u, v: [u],
    lambda u, v: [u, v, u],
    lambda u, v: [u, 1],
    lambda u, v: [True, v],
    lambda u, v: [u, None],
    lambda u, v: [[u], v],
    lambda u, v: [u, [v]],
    lambda u, v: [],
)
LABELS = ("v{}", "é{}", "ж{}", "標{}", "\U0001f600{}", "a\u0301{}")


def labeling_text(seed: int) -> tuple[Graph, str]:
    """A graph with mixed-script labels and a labeling document of its
    edges: a random split into strong and weak, pairs reversed or repeated
    at random, and sometimes bad entries at random places."""
    rng = random.Random(seed)
    base = random_graph(rng.randint(2, 12), rng.randint(0, 24), seed)
    name = {v: rng.choice(LABELS).format(i) for i, v in enumerate(base.vertices)}
    g = Graph(name.values(), [(name[u], name[v]) for u, v in base.edges])
    doc = {"strong": [], "weak": []}
    for u, v in sorted(g.edges):
        side = doc[rng.choice(("strong", "weak"))]
        for _ in range(rng.choice((1, 1, 1, 2))):
            side.append([v, u] if rng.random() < 0.5 else [u, v])
    if rng.random() < 0.6:
        for _ in range(rng.randint(1, 3)):
            u, v = rng.choice(sorted(g.vertices)), rng.choice(sorted(g.vertices))
            side = doc[rng.choice(("strong", "weak"))]
            side.insert(rng.randint(0, len(side)), rng.choice(BAD_ENTRIES)(u, v))
    return g, json.dumps(doc, ensure_ascii=rng.random() < 0.5)


def test_labeling_reader_matches_the_reference_pairs_and_errors():
    """The labeling reader gives the reference's strong and weak pair sets,
    or its error text for the first bad entry, strong side first."""
    refused = 0
    for seed in range(400):
        g, text = labeling_text(seed)
        doc = json.loads(text)
        try:
            want = (labeling_pairs_reference(doc, "strong"),
                    labeling_pairs_reference(doc, "weak"))
        except ParseError as exc:
            want = str(exc)
            refused += 1
        try:
            lab = cli._parse_labeling(g, text)
            got = (lab.strong, lab.weak)
            assert lab.value == len(lab.strong & g.edges), seed
        except ParseError as exc:
            got = str(exc)
        assert got == want, seed
    assert 100 < refused < 300
