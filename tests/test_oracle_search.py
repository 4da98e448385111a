"""The brute-force oracle's two searches share one step and one state
counter; value, witness and visited-state count stay those of the searches
that each took their own forced nodes (`oracles.brute_mwis_reference`)."""

import re
from itertools import combinations

import pytest

from oracles import brute_mwis_reference, planted_twin_graph, random_graph
from stcsolve import (
    DEFAULT_ORACLE_CAP,
    Graph,
    IncompatGraph,
    OracleCapError,
    StrongWeakLabeling,
    brute_mwis,
    build_incompat,
    contract_twins,
    maxstc_optimum_contracted,
    solve_oracle,
)
from stcsolve.incompat import canon_pair


def cycle(k: int) -> Graph:
    labels = [f"c{i:02d}" for i in range(k)]
    return Graph(labels, [(labels[i], labels[(i + 1) % k]) for i in range(k)])


def check(h) -> int:
    counters = {"bb_states": 0}
    value, witness = brute_mwis(h, force=True, counters=counters)
    want = brute_mwis_reference(h)
    assert (value, witness, counters["bb_states"]) == want, h
    assert not any(a in witness and b in witness for a, b in h.conflicts)
    return want[2]


def test_empty_conflict_graph_visits_no_state():
    h = IncompatGraph((), {}, frozenset())
    assert brute_mwis_reference(h) == (0, frozenset(), 0)
    check(h)
    check(build_incompat(Graph(["a", "b"])))


def test_odd_cycles_match_the_reference():
    for k in range(3, DEFAULT_ORACLE_CAP + 1, 2):
        check(build_incompat(cycle(k)))  # a conflict cycle from k = 5 on
        # an odd conflict cycle with uneven weights
        ring = [(f"r{i:02d}", "s") for i in range(k)]
        conflicts = frozenset(
            canon_pair(ring[i], ring[(i + 1) % k]) for i in range(k)
        )
        weights = {e: 1 + i % 3 for i, e in enumerate(ring)}
        check(IncompatGraph(tuple(ring), weights, conflicts))


def test_seeded_random_graphs_up_to_the_cap_match_the_reference():
    states = 0
    for seed in range(400):
        n = 5 + seed % 9
        m = min(1 + seed % DEFAULT_ORACLE_CAP, n * (n - 1) // 2)
        states += check(build_incompat(random_graph(n, m, seed)))
    assert states > 400  # the sweep reaches branching states


def test_weighted_contractions_match_the_reference():
    for seed in range(120):
        g, _ = planted_twin_graph(seed, max_total=12)
        cg, _tp, intra = contract_twins(g)
        h = build_incompat(cg)
        check(h)
        assert maxstc_optimum_contracted(g) == brute_mwis_reference(h)[0] + intra


def test_oracle_labels_weighted_graphs_from_its_witness():
    weighted = 0
    for seed in range(120):
        g, _ = planted_twin_graph(seed, max_total=12)
        cg, _tp, _intra = contract_twins(g)
        res = solve_oracle(cg, force=True)
        want = StrongWeakLabeling.from_strong(cg, res.certificate["independent_set"])
        assert res.labeling == want and res.value == want.value, seed
        weighted += not cg.is_unit_weight()
    assert weighted >= 30


def test_contracted_optimum_matches_the_reference_on_random_graphs():
    for seed in range(60):
        g = random_graph(7, 3 + seed % 12, seed)
        cg, _tp, intra = contract_twins(g)
        assert maxstc_optimum_contracted(g) == (
            brute_mwis_reference(build_incompat(cg))[0] + intra
        )
    assert maxstc_optimum_contracted(Graph([])) == 0
    assert maxstc_optimum_contracted(Graph(list("abc"), combinations("abc", 2))) == 3


def test_counters_grow_by_the_states_visited():
    h = build_incompat(cycle(7))
    counters = {"bb_states": 5, "other": 1}
    brute_mwis(h, counters=counters)
    assert counters == {"bb_states": 5 + brute_mwis_reference(h)[2], "other": 1}
    brute_mwis(h)  # no counters: nothing to report into


def test_malformed_conflict_pairs_are_refused():
    ab, bc, cd = ("a", "b"), ("b", "c"), ("c", "d")
    weights = {ab: 1, bc: 1}
    self_pair = IncompatGraph((ab, bc), weights, frozenset({(ab, ab)}))
    stray_pair = IncompatGraph((ab, bc), weights, frozenset({(ab, cd)}))
    for h, pair in ((self_pair, (ab, ab)), (stray_pair, (ab, cd))):
        msg = re.escape(f"conflict pair {pair} is not two distinct nodes")
        with pytest.raises(ValueError, match=msg):
            h.adjacency()
        with pytest.raises(ValueError, match=msg):
            brute_mwis(h)


def test_conflict_pairs_are_checked_with_no_nodes():
    ab, bc = ("a", "b"), ("b", "c")
    h = IncompatGraph((), {}, frozenset({(ab, bc)}))
    msg = re.escape(f"conflict pair {(ab, bc)} is not two distinct nodes")
    with pytest.raises(ValueError, match=msg):
        brute_mwis(h)
    counters = {"bb_states": 0}
    assert brute_mwis(IncompatGraph((), {}, frozenset()), counters=counters) == (0, frozenset())
    assert counters == {"bb_states": 0}
    with pytest.raises(OracleCapError):
        brute_mwis(IncompatGraph((ab,), {ab: 1}, frozenset({(ab, ab)})), cap=0)
