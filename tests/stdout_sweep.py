"""Print one digest line per command-line run over the benchmark's instances,
so that two source trees can be checked for identical behaviour.

    python3 tests/stdout_sweep.py path/to/src > sweep.txt

The instances are batches 0-1 of seeds 1-2 of every workload, built by
perfbench/workloads.py of this checkout; `stcsolve` is imported from the
given `src` directory. Every graph that the benchmark solves runs through
`solve` (auto and each `--solver`), `recognize` and `incompat`; every
recognize and verify operation of `check` runs as it is, verify with the
labeling document the benchmark writes. Each line holds the workload, seed,
batch, operation index, the command and its arguments without file paths,
and the sha256 of the exit code, stdout and stderr. A `malformed` line
follows for each refused input of a fixed list, with the same sha256, so
the readers' error paths are compared too: each kind of bad edge-list line
(BAD_LINES) first, in the middle and last among comment-only, blank and
vertex lines, with LF and with CRLF endings, through `solve` and `verify`;
each labeling document that `verify` refuses (BAD_LABELINGS: not JSON,
missing keys, a side that is no list, a bad entry, a `value` that is no
integer or the wrong one); and a graph and a labeling that are not UTF-8.
Inputs with a byte-order mark are left out, as older trees read the mark as
part of the first label. Every solved graph also
goes through each library solver in LIBRARY_RUNS, one line each with the
sha256 of the whole result (certificates never reach stdout). The output
then has one line per `certify_reduction` report over REDUCTION_FAMILIES,
the sha256 of its fields, so the packing search and the split search are
compared too. It ends with one line per twin contraction of
`oracles.planted_twin_graph(seed, max_total=12)` for WEIGHTED_SEEDS, whose
weighted conflict graphs no command-line run reaches: the sha256 of the
forced oracle's value, strong set and certificate on the contracted graph
and of `maxstc_optimum_contracted` on the graph. Its stats are left out, as
the weighted search may visit other states for the same answer. Then come
one line per `skewed_conflict_graph(seed)` of tests/test_oracle_bound.py for
SKEWED_SEEDS: the sha256 of the forced `brute_mwis` value and witness on a
conflict graph of up to 14 nodes with one heavy node per planted clique,
where a bound that is not an upper bound loses the optimum. Last come one
`tp_twins` line per `chain_forest(seed)` of tests/test_tp_forest.py for
TP_TWIN_SEEDS: the sha256 of `solve_trivially_perfect`'s whole result on a
forest of up to about 300 vertices hung with chains of only children, whose
twin classes the stats count and the benchmark's shallow forests barely
have. Diff the output of two trees: equal files mean equal behaviour on
every run. Not a pytest module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build_batch  # noqa: E402

SEEDS = (1, 2)
BATCHES = (0, 1)
SOLVE_RUNS = (
    ["solve"],
    ["solve", "--solver", "pig"],
    ["solve", "--solver", "tp"],
    ["solve", "--solver", "bip"],
    ["solve", "--solver", "oracle"],
    ["recognize"],
    ["incompat"],
)
LIBRARY_RUNS = ("solve_auto", "solve_pig_dp", "solve_trivially_perfect",
                "solve_bipartite", "solve_oracle")
# (universe size, triplets) of test_reductions.py's generic-path cross-check
REDUCTION_FAMILIES = (
    (3, ((1, 2, 3),)),
    (4, ((1, 2, 3),)),
    (4, ((1, 2, 3), (1, 2, 4))),
    (5, ((1, 2, 3), (1, 4, 5))),
    (5, ((1, 2, 3), (3, 4, 5))),
    (6, ((1, 2, 3), (4, 5, 6))),
)
WEIGHTED_SEEDS = range(120)
SKEWED_SEEDS = range(200)
TP_TWIN_SEEDS = range(300)
# a well-formed edge list with a comment-only line, a blank line, a declared
# vertex and a trailing comment; each bad line goes first, in the middle and last
GOOD_LINES = ("a b", "# comment only", "b c", "", "vertex z", "c d  # trailing", "d e")
BAD_LINES = (
    ("vertex-bare", "vertex"),
    ("vertex-two", "vertex x y"),
    ("one-label", "a"),
    ("three-labels", "a b c"),
    ("self-loop", "q q"),
    ("duplicate", "b c"),
    ("duplicate-reversed", "e d"),
)
BAD_AT = (("first", 0), ("middle", len(GOOD_LINES) // 2), ("last", len(GOOD_LINES)))
GOOD_LABELING = {"strong": [["a", "b"], ["c", "d"]], "weak": [["c", "b"], ["d", "e"]]}
# labeling documents every one of which verify refuses, against GOOD_LINES
BAD_LABELINGS = (
    ("empty", ""),
    ("not-json", "{"),
    ("trailing-comma", '{"strong": [], "weak": [],}'),
    ("deep", "[" * 3000 + "]" * 3000),
    ("top-list", "[]"),
    ("no-strong", '{"weak": []}'),
    ("no-weak", '{"strong": []}'),
    ("strong-dict", '{"strong": {}, "weak": []}'),
    ("weak-string", '{"strong": [], "weak": "ab"}'),
    ("entry-string", '{"strong": ["ab"], "weak": []}'),
    ("entry-int", '{"strong": [["a", "b"]], "weak": [3]}'),
    ("entry-null", '{"strong": [null], "weak": []}'),
    ("entry-one", '{"strong": [["a"]], "weak": []}'),
    ("entry-three", '{"strong": [["a", "b"], ["b", "c", "d"]], "weak": []}'),
    ("member-int", '{"strong": [], "weak": [["a", 1]]}'),
    ("member-bool", '{"strong": [[true, "b"]], "weak": []}'),
    ("member-null", '{"strong": [["a", null]], "weak": []}'),
    ("member-nested", '{"strong": [["a", ["b"]]], "weak": []}'),
    ("bad-strong-and-weak", '{"strong": [["a", "b"], 7], "weak": [["c"]]}'),
    ("value-bool", json.dumps({**GOOD_LABELING, "value": True})),
    ("value-string", json.dumps({**GOOD_LABELING, "value": "2"})),
    ("value-float", json.dumps({**GOOD_LABELING, "value": 2.0})),
    ("value-wrong", json.dumps({**GOOD_LABELING, "value": 3})),
    ("value-negative", json.dumps({**GOOD_LABELING, "value": -2})),
)
NOT_UTF8 = b"a b\n\xff c\n"


def digest(cli, argv: list[str], tmp: str) -> str:
    """sha256 of the exit code, stdout and stderr of one run, with the
    temporary directory's path masked; an escaping exception stands in
    for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    text = "\0".join((code, out.getvalue(), err.getvalue())).replace(tmp, "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(solve, g) -> str:
    """sha256 of the JSON of one library result: value, sorted strong
    edges, solver, stats and certificate, dict order included; or of the
    exception's type and message when the call raises. A `time_ms` stat,
    the wall clock that older trees stamped into results, is dropped so
    their lines compare."""
    try:
        res = solve(g)
        stats = {k: v for k, v in res.stats.items() if k != "time_ms"}
        text = json.dumps([res.value, sorted(res.labeling.strong), res.solver, stats,
                           res.certificate])
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(stcsolve, n: int, triplets) -> str:
    """sha256 of the JSON of one certification report: packing size,
    sorted packing witness, optimum, rows and verdict; or of the
    exception's type and message when the call raises."""
    try:
        sp = stcsolve.SetPackingInstance(n, tuple(frozenset(t) for t in triplets))
        rep = stcsolve.certify_reduction(sp)
        text = json.dumps([rep.packing_size, sorted(rep.packing_witness), rep.optimum,
                           rep.rows, rep.all_hold])
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def weighted_oracle_digest(stcsolve, g) -> str:
    """sha256 of the JSON of the forced oracle's value, sorted strong edges
    and certificate on g's twin contraction, and of g's contracted optimum;
    or of the exception's type and message when a call raises."""
    try:
        cg, _tp, _intra = stcsolve.contract_twins(g)
        res = stcsolve.solve_oracle(cg, force=True)
        text = json.dumps([res.value, sorted(res.labeling.strong), res.certificate,
                           stcsolve.maxstc_optimum_contracted(g)])
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def skewed_mwis_digest(stcsolve, h) -> str:
    """sha256 of the JSON of the forced `brute_mwis` value and sorted
    witness on conflict graph h; or of the exception's type and message
    when the call raises."""
    try:
        value, witness = stcsolve.brute_mwis(h, force=True)
        text = json.dumps([value, sorted(witness)])
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def malformed_lines(cli, tmp: str):
    """One digest line per malformed input: each bad edge-list line at each
    place, with LF and CRLF endings, through solve and verify; each refused
    labeling document through verify; and text that is not UTF-8 as either
    file."""
    good_lab = Path(tmp) / "good.json"
    good_lab.write_text(json.dumps(GOOD_LABELING), encoding="utf-8")
    text = Path(tmp) / "bad.txt"
    for name, bad in BAD_LINES:
        for place, at in BAD_AT:
            for ending in ("\n", "\r\n"):
                lines = [*GOOD_LINES[:at], bad, *GOOD_LINES[at:]]
                text.write_bytes(ending.join(lines).encode())
                end = "crlf" if ending == "\r\n" else "lf"
                for argv in (["solve", str(text)], ["verify", str(text), str(good_lab)]):
                    yield ("malformed", name, place, end, argv[0], digest(cli, argv, tmp))
    graph = Path(tmp) / "good.txt"
    graph.write_text("\n".join(GOOD_LINES) + "\n", encoding="utf-8")
    labeling = Path(tmp) / "bad.json"
    for name, doc in BAD_LABELINGS:
        labeling.write_text(doc, encoding="utf-8")
        argv = ["verify", str(graph), str(labeling)]
        yield ("malformed", "labeling", name, digest(cli, argv, tmp))
    text.write_bytes(NOT_UTF8)
    for name, argv in (("graph", ["verify", str(text), str(good_lab)]),
                       ("labeling", ["verify", str(graph), str(text)])):
        yield ("malformed", "not-utf8", name, digest(cli, argv, tmp))


def runs(op, graph: Path) -> list[tuple[list[str], list[str]]]:
    """(shown arguments, full argv) of each run of one operation."""
    if op.kind == "solve":
        return [(a, [a[0], str(graph)] + a[1:]) for a in SOLVE_RUNS]
    if op.kind == "recognize":
        return [(["recognize"], ["recognize", str(graph)])]
    strong = sorted(op.strong)
    doc = {"strong": [list(e) for e in strong],
           "weak": [list(e) for e in sorted(set(op.inst.edges) - op.strong)]}
    if not op.planted:
        doc["value"] = len(strong)
    labeling = graph.with_suffix(".json")
    labeling.write_text(json.dumps(doc), encoding="utf-8")
    return [(["verify"], ["verify", str(graph), str(labeling)])]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    import stcsolve
    from stcsolve import cli

    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for batch in BATCHES:
                    for k, op in enumerate(build_batch(workload, seed, batch)):
                        graph = Path(tmp) / f"{k}.txt"
                        graph.write_text(op.inst.edge_list_text(), encoding="utf-8")
                        for shown, full in runs(op, graph):
                            print(workload, seed, batch, k, *shown, digest(cli, full, tmp))
                        if op.kind == "solve":
                            g = stcsolve.parse_edge_list(op.inst.edge_list_text())
                            for name in LIBRARY_RUNS:
                                solve = getattr(stcsolve, name)
                                print(workload, seed, batch, k, name, result_digest(solve, g))
        for line in malformed_lines(cli, tmp):
            print(*line)
    for n, triplets in REDUCTION_FAMILIES:
        family = ",".join("-".join(map(str, t)) for t in triplets)
        print("certify_reduction", n, family, report_digest(stcsolve, n, triplets))
    from oracles import planted_twin_graph  # imports the stcsolve given above

    for seed in WEIGHTED_SEEDS:
        g, _ = planted_twin_graph(seed, max_total=12)
        print("weighted_oracle", seed, weighted_oracle_digest(stcsolve, g))
    from test_oracle_bound import skewed_conflict_graph

    for seed in SKEWED_SEEDS:
        h = skewed_conflict_graph(seed)
        print("skewed_mwis", seed, skewed_mwis_digest(stcsolve, h))
    from test_tp_forest import chain_forest

    for seed in TP_TWIN_SEEDS:
        g = chain_forest(seed)
        print("tp_twins", seed, result_digest(stcsolve.solve_trivially_perfect, g))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
