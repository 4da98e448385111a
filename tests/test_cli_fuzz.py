"""Seeded fuzzing of the command line: mutated edge lists and labeling
documents must end in a documented exit code, never in an exception that
escapes cli.main. Exit 1 means an invalid labeling and comes only with its
INVALID line; exits 2 to 4 print exactly one error line."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from oracles import random_graph
from stcsolve import cli, format_edge_list, gen_random_trivially_perfect

BASES = [
    "a b\nb c\nc d\n",  # P4
    "a b\nb c\nc d\nd a\n",  # C4
    "a b\nb c\nc a\n",  # triangle
    "h a\nh b\nh c\n",  # claw
    "a b\nb c\nc d\nd e\ne a\n",  # C5
    "a b\nc d\nvertex e\n",  # 2K2 and an isolated vertex
    "h x\nh y\nh z\nx t1\nx t2\nt1 t2\ny t1\n",  # outside every class
    "a-b c\na b-c\n",  # two edges whose conflict-graph names collide
    "vertex only\n",
    "",
] + [format_edge_list(random_graph(3 + s % 6, 2 + s % 9, s)) for s in range(8)] + [
    format_edge_list(gen_random_trivially_perfect(4 + s, seed=s)) for s in range(4)
]

LINES = [
    "vertex\n", "vertex p q\n", "a a\n", "x x\n", "a\n", "a b c\n", "# note\n",
    "a b  # tail\n", "\n", "vertex a\n", "b a\n", "z y\n",
]


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(8)
        at = rng.randint(0, len(data))
        if k == 0 and data:  # flip one byte to any value
            i = rng.randrange(len(data))
            data = data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
        elif k == 1:
            data = data[:at]
        elif k == 2:
            data = data[:at] + rng.choice(LINES).encode() + data[at:]
        elif k == 3:
            data = data.replace(b"\n", b"\r\n")
        elif k == 4:
            data = data.replace(b" ", b"\t")
        elif k == 5:
            data = data[:at] + rng.choice([b"\xff", b"\xc3(", b"\xe2\x82", b"\x80"]) + data[at:]
        elif k == 6 and data:  # repeat a slice, often a whole line
            i = rng.randrange(len(data))
            data = data[:at] + data[i:i + rng.randint(1, 8)] + data[at:]
        else:
            noise = rng.choice([b" ", b"\x00", b"\x0b", b"\xc2\x85", b"#"])
            data = data[:at] + noise + data[at:]
    return data


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err, case):
    assert code in (0, 1, 2, 3, 4), case
    if code == 1:
        assert out.startswith("INVALID ") and out.count("\n") == 1, case
    if code in (2, 3, 4):
        assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    else:
        assert err == "", (case, err)


def test_mutated_edge_lists_end_in_documented_exit_codes(tmp_path):
    path = tmp_path / "g.txt"
    commands = [
        ["solve"], ["solve", "--solver", "pig"], ["solve", "--solver", "tp"],
        ["solve", "--solver", "bip"], ["solve", "--solver", "oracle"],
        ["recognize"], ["incompat"],
    ]
    rng = random.Random(20161)
    codes = set()
    for case in range(3000):
        path.write_bytes(mutate(rng.choice(BASES).encode(), rng))
        for command in commands:
            code, out, err = run([command[0], str(path), *command[1:]])
            check_outcome(code, out, err, (case, command))
            codes.add(code)
    assert codes == {0, 2, 3, 4}


def labeling_documents(tmp_path):
    """(graph, document) pairs to mutate: the solved document of each base
    that solves, a planted open wedge and an empty labeling."""
    path = tmp_path / "base.txt"
    docs = []
    for text in BASES[:7]:
        path.write_text(text)
        code, out, _ = run(["solve", str(path)])
        if code == 0:
            docs.append((text.encode(), out.encode()))
    wedge = b'{"strong": [["a", "b"], ["b", "c"]], "weak": [["c", "d"]]}'
    docs.append((BASES[0].encode(), wedge))
    docs.append((BASES[0].encode(), b'{"strong": [], "weak": [], "value": 0}'))
    return docs


DOC_EDITS = [
    lambda d: {**d, "value": d.get("value", 0) + 1},
    lambda d: {**d, "value": "two"},
    lambda d: {**d, "strong": d["strong"] + d["weak"], "weak": []},
    lambda d: {**d, "strong": d["strong"] + [["a", "zz"]]},
    lambda d: {**d, "strong": [[1, 2]]},
    lambda d: {**d, "weak": [["a"]]},
    lambda d: {**d, "weak": "ab"},
    lambda d: {"strong": d["strong"]},
    lambda d: [d],
    lambda d: {**d, "strong": [["a", "a"]]},
    lambda d: {**d, "value": int("9" * 50)},
]


def test_mutated_labeling_documents_end_in_documented_exit_codes(tmp_path):
    docs = labeling_documents(tmp_path)
    gpath, lpath = tmp_path / "g.txt", tmp_path / "lab.json"
    rng = random.Random(2016)
    codes = set()
    for case in range(3000):
        graph, doc = rng.choice(docs)
        if rng.random() < 0.5:
            edited = rng.choice(DOC_EDITS)(json.loads(doc))
            doc = json.dumps(edited, indent=rng.choice([None, 2])).encode()
        elif rng.random() < 0.05:  # an integer longer than json.loads converts
            doc = b'{"strong": [], "weak": [], "value": ' + b"9" * 5000 + b"}"
        if rng.random() < 0.6:
            doc = mutate(doc, rng)
        gpath.write_bytes(graph)
        lpath.write_bytes(doc)
        code, out, err = run(["verify", str(gpath), str(lpath)])
        check_outcome(code, out, err, case)
        codes.add(code)
    assert codes == {0, 1, 2}


def test_oracle_search_deeper_than_the_recursion_limit_exits_four(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("".join(f"p{i:04d} p{i + 1:04d}\n" for i in range(2499)))
    code, out, err = run(["solve", str(path), "--solver", "oracle", "--oracle-cap", "1000000"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
