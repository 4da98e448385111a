import io
import json

import pytest

from stcsolve import (
    Graph,
    SetPackingInstance,
    build_incompat,
    cli,
    find_p4_or_c4,
    gen_disjointnn_from_3sp,
    parse_edge_list,
    recognize,
)

P4 = "a b\nb c\nc d\n"
P3 = "a b\nb c\n"
C4 = "a b\nb c\nc d\nd a\n"
K3 = "a b\nb c\nc a\n"
CLAW = "h a\nh b\nh c\n"
TWO_K2 = "a b\nc d\n"
NO_CLASS = "h x\nh y\nh z\nx t1\nx t2\nt1 t2\ny t1\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_then_verify_roundtrip(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P4)
    code, out, _ = run(capsys, "solve", gpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2
    assert doc["solver"] == "pig-dp"
    assert "time_ms" not in doc["stats"]
    lpath = write(tmp_path, "lab.json", out)
    code, out, _ = run(capsys, "verify", gpath, lpath)
    assert code == 0
    assert out == "VALID value=2\n"


def test_solve_output_is_reproducible(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", C4)
    _, first, _ = run(capsys, "solve", gpath)
    _, second, _ = run(capsys, "solve", gpath, "--seedless")
    assert first == second


def test_verify_flags_open_wedge(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P3)
    lab = {"strong": [["a", "b"], ["b", "c"]], "weak": []}
    lpath = write(tmp_path, "lab.json", json.dumps(lab))
    code, out, _ = run(capsys, "verify", gpath, lpath)
    assert code == 1
    assert out == "INVALID a b c\n"


def test_verify_rejects_value_mismatch(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P4)
    _, out, _ = run(capsys, "solve", gpath)
    doc = json.loads(out)
    doc["value"] = 99
    lpath = write(tmp_path, "lab.json", json.dumps(doc))
    code, _, err = run(capsys, "verify", gpath, lpath)
    assert code == 2
    assert "claims value 99" in err


def test_verify_rejects_partial_labeling(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P3)
    lpath = write(tmp_path, "lab.json", json.dumps({"strong": [["a", "b"]], "weak": []}))
    code, _, err = run(capsys, "verify", gpath, lpath)
    assert code == 2
    assert err.startswith("error:")


def test_forced_solver_on_wrong_class(tmp_path, capsys):
    for text, solver in ((CLAW, "pig"), (C4, "tp"), (K3, "bip")):
        gpath = write(tmp_path, "g.txt", text)
        code, _, err = run(capsys, "solve", gpath, "--solver", solver)
        assert code == 3, solver
        assert err.startswith("error:")


def test_oracle_cap_exits_unsupported(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P4)
    code, _, _ = run(capsys, "solve", gpath, "--solver", "oracle", "--oracle-cap", "1")
    assert code == 4
    gpath = write(tmp_path, "g.txt", NO_CLASS)
    code, _, err = run(capsys, "solve", gpath, "--oracle-cap", "5")
    assert code == 4
    assert err.startswith("error:")


def test_malformed_input_exits_two(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", "a b c\n")
    code, _, err = run(capsys, "solve", gpath)
    assert code == 2
    assert "line 1" in err
    code, _, _ = run(capsys, "solve", str(tmp_path / "missing.txt"))
    assert code == 2


def test_usage_errors_exit_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["solve"]) == 2
    capsys.readouterr()


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(P3))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_generate_pig_parses_and_is_in_class(capsys):
    code, out, _ = run(capsys, "generate", "pig", "--n", "8", "--seed", "3")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 8
    assert recognize(g) is not None


def test_generate_tp_parses_and_is_in_class(capsys):
    code, out, _ = run(capsys, "generate", "tp", "--n", "8", "--seed", "5")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 8
    assert find_p4_or_c4(g) is None


def test_generate_requires_size_flags(capsys):
    code, _, err = run(capsys, "generate", "pig")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "generate", "3sp-reduction")
    assert code == 2 and "--universe" in err


def test_generate_3sp_reduction_matches_library(capsys):
    code, out, _ = run(
        capsys, "generate", "3sp-reduction", "--universe", "4", "--triplet", "1,2,3"
    )
    assert code == 0
    expect = gen_disjointnn_from_3sp(SetPackingInstance(4, (frozenset({1, 2, 3}),)))
    assert parse_edge_list(out) == expect.graph


def test_generate_stc_reduction_with_thresholds(tmp_path, capsys):
    side = tmp_path / "thresholds.txt"
    code, out, _ = run(
        capsys,
        "generate",
        "stc-reduction",
        "--universe",
        "3",
        "--triplet",
        "1,2,3",
        "--sidecar",
        str(side),
    )
    assert code == 0
    assert "# threshold 0 16\n" in out
    assert "# threshold 1 17\n" in out
    g = parse_edge_list(out)
    assert g.n == 10 and g.m == 33
    assert side.read_text() == "0 16\n1 17\n"


def test_generate_rejects_bad_triplet(capsys):
    code, _, err = run(
        capsys, "generate", "3sp-reduction", "--universe", "4", "--triplet", "1,2"
    )
    assert code == 2
    assert "three comma-separated" in err


def test_recognize_path(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P4)
    code, out, _ = run(capsys, "recognize", gpath)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("proper-interval: yes (order:")
    assert lines[1].startswith("trivially-perfect: no (induced P4:")
    assert lines[2].startswith("bipartite: yes (sides:")
    assert lines[3].startswith("split: yes (clique:")


def test_recognize_cycle(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", C4)
    code, out, _ = run(capsys, "recognize", gpath)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("proper-interval: no (umbrella violated:")
    assert lines[1].startswith("trivially-perfect: no (induced C4:")
    assert lines[2].startswith("bipartite: yes")
    assert lines[3].startswith("split: no (induced C4:")


def test_recognize_triangle(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", K3)
    code, out, _ = run(capsys, "recognize", gpath)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("proper-interval: yes")
    assert lines[1] == "trivially-perfect: yes"
    assert lines[2].startswith("bipartite: no (odd cycle:")
    assert lines[3].startswith("split: yes")


def test_recognize_two_disjoint_edges(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", TWO_K2)
    code, out, _ = run(capsys, "recognize", gpath)
    assert code == 0
    assert "split: no (induced 2K2:" in out


def test_incompat_output(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P3)
    code, out, _ = run(capsys, "incompat", gpath)
    assert code == 0
    assert out == "a-b b-c\n"
    gpath = write(tmp_path, "g.txt", P4)
    code, out, _ = run(capsys, "incompat", gpath)
    h = build_incompat(parse_edge_list(P4))
    g = parse_edge_list(out)
    assert g.n == len(h.nodes)
    assert g.m == len(h.conflicts)


def write_bytes(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


NOT_UTF8 = b"a b\n\xff c\n"


def assert_input_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "recognize", "incompat"])
def test_non_utf8_input_exits_two(tmp_path, capsys, command):
    gpath = write_bytes(tmp_path, "g.txt", NOT_UTF8)
    assert_input_error(*run(capsys, command, gpath))


def test_verify_rejects_non_utf8_graph_and_labeling(tmp_path, capsys):
    bad = write_bytes(tmp_path, "bad.txt", NOT_UTF8)
    gpath = write(tmp_path, "g.txt", P3)
    lpath = write(tmp_path, "lab.json", json.dumps({"strong": [], "weak": []}))
    for argv in ((bad, lpath), (gpath, bad)):
        assert_input_error(*run(capsys, "verify", *argv))


def test_generate_rejects_negative_size(capsys):
    for kind in ("pig", "tp"):
        code, out, err = run(capsys, "generate", kind, "--n", "-3")
        assert code == 2 and out == ""
        assert err == "error: --n must be non-negative\n"
        code, out, _ = run(capsys, "generate", kind, "--n", "0")
        assert code == 0 and out == ""


def test_recognize_checks_the_split_witness(tmp_path, capsys, monkeypatch):
    gpath = write(tmp_path, "g.txt", C4)
    monkeypatch.setattr(cli, "find_split_obstruction", lambda g: ("2K2", ("a", "b", "c", "d")))
    with pytest.raises(RuntimeError, match="split obstruction"):
        cli.main(["recognize", gpath])
    for forged in (("C4", ("a", "c", "b", "d")), ("C5", ("a", "b", "c", "d"))):
        monkeypatch.setattr(cli, "find_split_obstruction", lambda g, w=forged: w)
        with pytest.raises(RuntimeError, match="split obstruction"):
            cli.main(["recognize", gpath])
    monkeypatch.undo()
    capsys.readouterr()
    code, out, _ = run(capsys, "recognize", gpath)
    assert code == 0 and out.splitlines()[3] == "split: no (induced C4: a b c d)"


def test_incompat_rejects_colliding_node_names(tmp_path, capsys):
    """Edges a-b c and a b-c would both be named a-b-c in the output."""
    gpath = write(tmp_path, "g.txt", "a-b c\na b-c\n")
    code, out, err = run(capsys, "incompat", gpath)
    assert code == 4 and out == ""
    assert err == "error: conflict-graph node name 'a-b-c' names two edges\n"


def test_verify_rejects_deeply_nested_labeling(tmp_path, capsys):
    gpath = write(tmp_path, "g.txt", P3)
    lpath = write(tmp_path, "lab.json", "[" * 10**5 + "]" * 10**5)
    code, out, err = run(capsys, "verify", gpath, lpath)
    assert code == 2 and out == ""
    assert err.startswith("error: labeling is not valid JSON") and err.count("\n") == 1


def test_generate_unwritable_sidecar_exits_two(tmp_path, capsys):
    sidecar = str(tmp_path / "missing" / "t.txt")
    code, _, err = run(capsys, "generate", "stc-reduction", "--universe", "3",
                       "--triplet", "1,2,3", "--sidecar", sidecar)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
