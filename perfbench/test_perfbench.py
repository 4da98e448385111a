"""Tests of the benchmark itself: generators, checker, guard and statistics."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import families as F  # noqa: E402
import guard  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from checker import (  # noqa: E402
    adjacency,
    check_recognize,
    check_solve,
    check_verify,
    is_bipartite,
    is_trivially_perfect,
    is_umbrella,
)
import workloads  # noqa: E402
from workloads import WORKLOADS, build_batch  # noqa: E402

GENERATORS = {
    "pig": lambda r: F.pig(r, 60, 6),
    "tp": lambda r: F.tp(r, 60, 2, 1.5),
    "threshold": lambda r: F.threshold(r, 40),
    "bipartite": lambda r: F.sparse_bipartite(r, 60, 3),
    "bipartite-connected": lambda r: F.sparse_bipartite(r, 61, 2, connected=True),
    "odd-cycle": lambda r: F.odd_cycle(r, 11),
    "c5-join-clique": lambda r: F.c5_join_clique(r, 7),
    "path": lambda r: F.path(r, 30),
    "star": lambda r: F.star(r, 9),
    "clique": lambda r: F.clique(r, 9),
    "mixed-isolated": lambda r: workloads._mixed_union(r, [20], [7], [10], True, isolated=2),
}


def _solve_doc(inst: F.Instance, strong: set, value: int | None = None) -> str:
    weak = set(inst.edges) - strong
    return json.dumps({
        "value": len(strong) if value is None else value,
        "solver": "test",
        "stats": {},
        "strong": [list(e) for e in sorted(strong)],
        "weak": [list(e) for e in sorted(weak)],
    })


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(family):
    gen = GENERATORS[family]
    a, b = gen(random.Random(5)), gen(random.Random(5))
    assert (a.vertices, a.edges, a.clusters) == (b.vertices, b.edges, b.clusters)
    c = gen(random.Random(6))
    assert (a.vertices, a.edges) != (c.vertices, c.edges)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batches_are_deterministic_per_seed_and_batch(workload):
    def texts(seed, batch):
        return [op.inst.edge_list_text() for op in build_batch(workload, seed, batch)]

    first = texts(3, 0)
    assert first == texts(3, 0)
    assert first != texts(3, 1)
    assert first != texts(4, 0)


def test_generated_graphs_are_in_their_classes():
    r = random.Random(1)
    for _ in range(20):
        tp = F.tp(r, 40, 2, 1.5)
        assert is_trivially_perfect(adjacency(tp))
        th = F.threshold(r, 30)
        assert is_trivially_perfect(adjacency(th))
        assert is_bipartite(adjacency(F.sparse_bipartite(r, 40, 3)))
        pig = F.pig(r, 40, 5)
        # the clusters are consecutive blocks of an umbrella ordering
        order = [v for c in pig.clusters for v in c]
        assert is_umbrella(adjacency(pig), order)
    for inst in (tp, th, pig):
        assert check_solve(inst, adjacency(inst), 0,
                           _solve_doc(inst, inst.strong_edges()))[0] is None


def test_references_match_stcsolve_on_small_instances():
    stcsolve = pytest.importorskip("stcsolve")
    r = random.Random(2)
    for _ in range(15):
        for inst in (F.pig(r, 30, 5), F.tp(r, 25, 1, 1.6), F.sparse_bipartite(r, 30, 3),
                     F.odd_cycle(r, 9), F.path(r, 17), F.star(r, 6)):
            g = stcsolve.Graph(inst.vertices, inst.edges)
            value = stcsolve.solve_auto(g).value
            assert value == inst.ref_value, inst.name


def test_checker_rejects_a_planted_open_wedge():
    inst = F.path(random.Random(0), 4)  # a - b - c - d after relabelling
    adj = adjacency(inst)
    a, b, c, _ = inst.vertices
    wedge = {F.canon(a, b), F.canon(b, c)}
    reason, _ = check_solve(inst, adj, 0, _solve_doc(inst, wedge))
    assert reason is not None and "open wedge" in reason
    # verify must answer INVALID with a real open wedge as the witness
    assert check_verify(inst, adj, wedge, True, 1, f"INVALID {a} {b} {c}\n") is None
    assert check_verify(inst, adj, wedge, True, 0, "VALID value=2\n") is not None
    assert check_verify(inst, adj, wedge, True, 1, f"INVALID {b} {c} {a}\n") is not None


def test_checker_rejects_an_off_by_one_value():
    inst = F.sparse_bipartite(random.Random(3), 40, 3)
    adj = adjacency(inst)
    best = inst.strong_edges()
    assert check_solve(inst, adj, 0, _solve_doc(inst, best)) == (None, len(best))
    # the claimed value disagrees with the strong edges
    reason, _ = check_solve(inst, adj, 0, _solve_doc(inst, best, len(best) + 1))
    assert reason is not None and reason.startswith("wrong")
    # a valid labeling one edge short of the optimum
    short = set(sorted(best)[1:])
    reason, _ = check_solve(inst, adj, 0, _solve_doc(inst, short))
    assert reason is not None and "optimum" in reason
    # a lower-bound reference rejects values below it too
    pig = F.pig(random.Random(3), 50, 6)
    short = set(sorted(pig.strong_edges())[1:])
    reason, _ = check_solve(pig, adjacency(pig), 0, _solve_doc(pig, short))
    assert reason is not None and "lower bound" in reason
    # verify must report the value of the labeling it was given
    assert check_verify(inst, adj, best, False, 0, f"VALID value={len(best)}") is None
    assert check_verify(inst, adj, best, False, 0, f"VALID value={len(best) - 1}") is not None


def test_checker_checks_recognize_certificates(tmp_path):
    cli = pytest.importorskip("stcsolve.cli")
    inst = F.c5_join_clique(random.Random(1), 4)
    adj = adjacency(inst)
    path = tmp_path / "g.txt"
    path.write_text(inst.edge_list_text())
    outcome = guard.run_guarded(lambda: cli.main(["recognize", str(path)]))
    assert outcome.error is None
    assert check_recognize(inst, adj, 0, outcome.out) is None
    flipped = outcome.out.replace("trivially-perfect: no", "trivially-perfect: yes")
    assert check_recognize(inst, adj, 0, flipped) is not None
    forged = outcome.out.replace("bipartite: no (odd cycle:", "bipartite: no (odd cycle: a0")
    assert check_recognize(inst, adj, 0, forged) is not None
    first, rest = outcome.out.split("\n", 1)
    garbled = "proper-interval: no (umbrella violated: nobody)\n" + rest
    assert first.startswith("proper-interval: no")
    assert check_recognize(inst, adj, 0, garbled) is not None
    assert check_recognize(inst, adj, 2, outcome.out) is not None


def test_guard_names_crashes_and_timeouts(monkeypatch):
    def crash():
        raise RecursionError("deep")

    outcome = guard.run_guarded(crash)
    assert outcome.error == "RecursionError"

    def stall():
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass
        return 0

    monkeypatch.setattr(guard, "TIME_LIMIT_S", 0.05)
    t0 = time.perf_counter()
    outcome = guard.run_guarded(stall)
    assert outcome.error == "timeout"
    assert time.perf_counter() - t0 < 2.0
    assert guard.run_guarded(lambda: 0).error is None


def test_failures_count_as_the_time_limit():
    assert run.op_seconds(0.002, failed=True) == guard.TIME_LIMIT_S
    assert run.op_seconds(0.002, failed=False) == 0.002

    def records(failures: int) -> list[dict]:
        out = []
        for i in range(100):
            failed = i < failures
            out.append({"name": f"op{i}", "seconds": run.op_seconds(0.01, failed),
                        "wall_s": 0.01, "reason": "RecursionError" if failed else None})
        return out

    def metrics(failures: int) -> tuple[dict, list[str]]:
        return run.end_to_end({"records": records(failures), "batch_times": [1.0],
                               "peak_rss_mb": 30.0, "setups": [0.1], "raw_setups": [0.1]})

    base, _ = metrics(0)
    # ten failures sit beyond the 90th percentile; eleven reach it
    assert metrics(10)[0]["op_p90_ms"][0] == base["op_p90_ms"][0] == pytest.approx(10.0)
    worse, lines = metrics(11)
    assert worse["op_p90_ms"][0] == guard.TIME_LIMIT_S * 1000.0
    assert worse["ok_share"][0] == pytest.approx(0.89)
    assert any("11 of 100 operations failed" in line for line in lines)


def test_percentiles_come_with_their_sample_count():
    value, n = run.percentile([float(i) for i in range(1, 101)], 90)
    assert (value, n) == (90.0, 100)
    line = run.format_percentile("op_p90_ms", 90, value, n)
    assert "n=100" in line and "10 samples beyond" in line
    with pytest.raises(ValueError):
        run.percentile([], 50)
    records = [{"name": "x", "seconds": 0.01 * i, "wall_s": 0.01, "reason": None}
               for i in range(1, 121)]
    res = {"records": records, "batch_times": [1.0], "peak_rss_mb": 30.0,
           "setups": [0.1], "raw_setups": [0.1]}
    _, lines = run.end_to_end(res)
    for name in ("op_p50_ms", "op_p90_ms"):
        (line,) = [ln for ln in lines if ln.startswith(name)]
        assert "(n=120" in line


def test_run_refuses_a_directory_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "check", "--seed", "1", "--seconds", "1"]) == 2
    out = capsys.readouterr().out
    assert out == ""


def test_isolated_vertices_sort_first_in_mixed_unions():
    inst = workloads._mixed_union(random.Random(4), [20], [7], [10], True, isolated=2)
    adj = adjacency(inst)
    first = sorted(inst.vertices)[:3]
    assert [len(adj[v]) for v in first[:2]] == [0, 0] and adj[first[2]]
    assert inst.proper_interval is False  # the odd cycle is no PIG
    # check's recognize set reaches the split scan's O(n^3) prefix
    recognized = [adjacency(op.inst) for op in build_batch("check", 1, 0)
                  if op.kind == "recognize"]
    assert any(not adj[min(adj)] for adj in recognized)


def test_value_digests_pin_every_batch():
    def record(batch, name, value, reason=None):
        return {"batch": batch, "name": name, "value": value, "reason": reason}

    records = [record(0, "a", 3), record(0, "b", 5), record(1, "a", 4),
               record(2, "a", 1), record(2, "b", None, "timeout"), record(3, "v", None)]
    digests = run.batch_digests(records)
    assert digests[0] is not None and digests[1] is not None
    # a batch with a failure or without values has no digest
    assert digests[2:] == [None, None]
    assert run.digest_mismatches(digests, list(digests)) == []
    # one value off by one in batch 1 no longer matches its pin
    changed = run.batch_digests(records[:2] + [record(1, "a", 5)] + records[3:])
    assert run.digest_mismatches(changed, digests) == [1]
    # batches past the pinned ones, or pinned as None, are not checked
    assert run.digest_mismatches(changed, digests[:1]) == []
    assert run.digest_mismatches(changed, [digests[0], None]) == []


def test_per_layer_table_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == [(name, unit) for name, (unit, _, _) in layers.METRICS.items()]


def test_a_metric_whose_public_function_is_gone_is_absent():
    op_span = [layers.OP_SPAN, 0.0, 1.0, None, 0, None, None]
    parse = ["edgelist.parse", 0.1, 0.3, 0, 0, None, None]
    present = set(layers.LAYERS) - {"incompat.build"}
    metrics, absent = layers.summarize([op_span, parse], {0: 1.0}, present, 2,
                                       [None, "RecursionError", "wrong value"])
    assert set(absent) == {"incompat.build_ms", "incompat.conflict_nodes",
                           "incompat.conflict_edges"}
    assert not set(absent) & set(metrics)
    assert metrics["edgelist.parse_ms"] == (pytest.approx(100.0), "ms")  # 200 ms over 2 sets
    assert metrics["solvers.errors"] == (2, "count")
    assert metrics["solvers.errors.RecursionError"] == (1, "count")
    assert metrics["solvers.errors.other"] == (1, "count")
