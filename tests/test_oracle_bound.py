"""The oracle's clique-cover bound charges each cover clique that meets the
remaining nodes its heaviest member. On unit weights that is the bound that
charged the heaviest member still remaining
(`oracles.remaining_member_bound_reference`), so value, witness and visited
states stay that bound's; on weighted conflict graphs the bound is looser,
and value and witness still match an exhaustive search."""

import random

import pytest

from oracles import (
    brute_mwis_reference,
    mwis_exhaustive_reference,
    planted_twin_graph,
    random_graph,
    remaining_member_bound_reference,
)
from stcsolve import (
    DEFAULT_ORACLE_CAP,
    Graph,
    IncompatGraph,
    brute_mwis,
    build_incompat,
    contract_twins,
)
from stcsolve.incompat import canon_pair
from stcsolve.solvers import _BitGraph


def cycle(k: int) -> Graph:
    labels = [f"c{i:02d}" for i in range(k)]
    return Graph(labels, [(labels[i], labels[(i + 1) % k]) for i in range(k)])


def remaining_member_run(h) -> tuple[int, frozenset, int]:
    """Value, witness and visited states of the reference search with the
    remaining-member bound standing in for the package's bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BitGraph, "bound_reaches", remaining_member_bound_reference)
        return brute_mwis_reference(h)


def run(h) -> tuple[int, frozenset, int]:
    counters = {"bb_states": 0}
    value, witness = brute_mwis(h, force=True, counters=counters)
    return value, witness, counters["bb_states"]


def skewed_conflict_graph(seed: int) -> IncompatGraph:
    """At most 14 nodes in planted conflict cliques of 1 to 4 nodes, plus
    random conflicts between cliques; one node per clique weighs 20 to 40,
    the others 1 to 3. Labels are shuffled, so the heavy node falls anywhere
    in label order."""
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    labels = [(f"v{i:02d}", "w") for i in range(n)]
    rng.shuffle(labels)
    weights, conflicts, cliques = {}, set(), []
    i = 0
    while i < n:
        clique = labels[i:i + rng.randint(1, 4)]
        i += len(clique)
        cliques.append(clique)
        for j, a in enumerate(clique):
            weights[a] = rng.randint(20, 40) if j == 0 else rng.randint(1, 3)
            conflicts.update(canon_pair(a, b) for b in clique[:j])
    density = rng.uniform(0.1, 0.4)
    for x, cx in enumerate(cliques):
        for cy in cliques[:x]:
            conflicts.update(canon_pair(a, b) for a in cx for b in cy
                             if rng.random() < density)
    return IncompatGraph(tuple(sorted(labels)), weights, frozenset(conflicts))


def test_unit_weight_bound_matches_the_remaining_member_bound_on_random_graphs():
    states = 0
    for seed in range(400):
        n = 5 + seed % 9
        m = min(1 + seed % DEFAULT_ORACLE_CAP, n * (n - 1) // 2)
        h = build_incompat(random_graph(n, m, seed))
        got = run(h)
        assert got == remaining_member_run(h), seed
        states += got[2]
    assert states > 400  # the sweep reaches branching states


def test_unit_weight_bound_matches_the_remaining_member_bound_on_odd_cycles():
    for k in range(3, DEFAULT_ORACLE_CAP + 1, 2):
        h = build_incompat(cycle(k))
        assert run(h) == remaining_member_run(h), k


def test_weighted_contractions_keep_the_remaining_member_value_and_witness():
    weighted = 0
    for seed in range(120):
        g, _ = planted_twin_graph(seed, max_total=12)
        cg, _tp, _intra = contract_twins(g)
        h = build_incompat(cg)
        assert run(h)[:2] == remaining_member_run(h)[:2], seed
        weighted += not cg.is_unit_weight()
    assert weighted >= 30


def test_skewed_weights_keep_the_exhaustive_value_and_witness():
    differ = 0
    for seed in range(200):
        h = skewed_conflict_graph(seed)
        value, witness, states = run(h)
        assert (value, witness) == mwis_exhaustive_reference(h), seed
        differ += states != remaining_member_run(h)[2]
    assert differ >= 20  # the looser bound really changes the search
