import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_verify_counts_only_strong_pairs_that_are_edges(tmp_path, capsys):
    """The value counts each strong edge of the graph once, in either label
    order; a strong pair that is no edge counts for nothing."""
    gpath = write(tmp_path, "g.txt", P3)

    def verify(strong, value):
        lab = {"strong": strong, "weak": [["b", "c"]], "value": value}
        return run(capsys, "verify", gpath, write(tmp_path, "lab.json", json.dumps(lab)))

    with_non_edge = [["a", "b"], ["a", "c"]]
    assert verify(with_non_edge, 1) == (
        2, "", "error: strong and weak do not cover the edge set\n")
    code, out, err = verify(with_non_edge, 2)
    assert (code, out) == (2, "") and "claims value 2" in err
    assert verify([["b", "a"]], 1) == (0, "VALID value=1\n", "")
    code, out, err = verify([["b", "a"]], 2)
    assert (code, out) == (2, "") and "claims value 2 but the strong edges weigh 1" in err


def test_verify_refuses_a_value_that_is_not_an_integer(tmp_path, capsys):
    """JSON true equals 1 in Python and "1" is a string: neither is a value,
    whatever the strong edges weigh."""
    gpath = write(tmp_path, "g.txt", P3)
    for claim in (True, "1", None):
        lab = {"strong": [["a", "b"]], "weak": [["b", "c"]], "value": claim}
        lpath = write(tmp_path, "lab.json", json.dumps(lab))
        code, out, err = run(capsys, "verify", gpath, lpath)
        assert (code, out) == (2, ""), claim
        assert err.startswith("error: ") and "'value' must be an integer" in err, claim


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


def test_negative_oracle_cap_refuses_every_graph_that_reaches_the_oracle(tmp_path, capsys):
    c5 = write(tmp_path, "c5.txt", "a b\nb c\nc d\nd e\ne a\n")
    empty = write(tmp_path, "empty.txt", "")
    cases = [
        ((c5,), "component with 5 edges fits no class and exceeds the oracle cap -1"),
        ((c5, "--solver", "oracle"), "conflict graph has 5 nodes, cap is -1"),
        ((empty, "--solver", "oracle"), "conflict graph has 0 nodes, cap is -1"),
    ]
    for argv, message in cases:
        assert run(capsys, "solve", *argv, "--oracle-cap", "-1") == (4, "", f"error: {message}\n")


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


BOM = "\ufeff".encode()


def test_a_leading_byte_order_mark_is_not_part_of_the_input(tmp_path, capsys, monkeypatch):
    """A BOM is not glued to the first label, nor refused by the JSON reader,
    whether the text comes from a file or from stdin."""
    gpath = write_bytes(tmp_path, "dup.txt", BOM + b"a b\nb a\n")
    assert run(capsys, "solve", gpath) == (2, "", "error: line 2: duplicate edge b a\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeffa b\nb a\n"))
    assert run(capsys, "solve", "-") == (2, "", "error: line 2: duplicate edge b a\n")
    gpath = write_bytes(tmp_path, "g.txt", BOM + P3.encode())
    code, out, _ = run(capsys, "recognize", gpath)
    assert code == 0 and "proper-interval: yes (order: a b c)" in out
    lab = json.dumps({"strong": [["a", "b"]], "weak": [["b", "c"]]})
    lpath = write_bytes(tmp_path, "lab.json", BOM + lab.encode())
    assert run(capsys, "verify", gpath, lpath) == (0, "VALID value=1\n", "")


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


def fresh_process(*argv):
    """Exit code, stdout and stderr of the CLI run in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "from stcsolve.cli import entry; entry()", *argv],
        capture_output=True, text=True, env=env, check=False, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_a_sequence_of_commands(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; options given to one command
    must not leak into the next, and each output equals a fresh run's."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width in both
    gpath = write(tmp_path, "g.txt", NO_CLASS + P4.replace("a", "p").replace("b", "q"))
    sequence = [
        ("solve", gpath, "--solver", "oracle", "--oracle-cap", "5"),
        ("solve", gpath),
        ("solve", "--solver", "nope", gpath),
        ("recognize", gpath),
    ]
    outputs = [run(capsys, *argv) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in outputs] == [4, 0, 2, 0]
    assert "cap is 5" in outputs[0][2]
    # auto dispatch, and the default cap: the NO_CLASS component has 7 edges
    doc = json.loads(outputs[1][1])
    assert doc["solver"] == "mixed" and doc["stats"]["component_solvers"]["h"] == "oracle"
    assert "invalid choice: 'nope'" in outputs[2][2]
    for argv, got in zip(sequence, outputs):
        assert got == fresh_process(*argv), argv
