"""Input checks that refuse malformed documents, parameters and graphs."""

import pytest

from stcsolve import (
    Graph,
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
