import random
from itertools import combinations

import pytest

from oracles import max_set_packing
from stcsolve import (
    Graph,
    SetPackingInstance,
    SplitInstance,
    brute_disjointnn,
    certify_reduction,
    gen_disjointnn_from_3sp,
    gen_maxstc_from_disjointnn,
    gen_random_proper_interval,
    gen_random_trivially_perfect,
    maxstc_optimum_contracted,
    nonneighborhoods,
    recognize,
    solve_oracle,
    split_assignment_optimum,
    find_p4_or_c4,
)


def fs(*xs):
    return frozenset(xs)


def test_set_packing_instance_validation():
    SetPackingInstance(4, (fs(1, 2, 3),))
    with pytest.raises(ValueError):
        SetPackingInstance(4, (fs(1, 2),))
    with pytest.raises(ValueError):
        SetPackingInstance(4, (fs(1, 2, 5),))
    with pytest.raises(ValueError):
        SetPackingInstance(-1, ())


def test_split_instance_reverifies_partition():
    g = Graph(["a", "b", "c"], [("a", "b")])
    SplitInstance(g, fs("a", "b"), fs("c"))
    with pytest.raises(ValueError):
        SplitInstance(g, fs("a", "c"), fs("b"))  # a-c not an edge
    with pytest.raises(ValueError):
        SplitInstance(g, fs("c"), fs("a", "b"))  # a-b inside independent side
    with pytest.raises(ValueError):
        SplitInstance(g, fs("a"), fs("c"))  # b unplaced


def test_disjointnn_encoding():
    sp = SetPackingInstance(4, (fs(1, 2, 3), fs(2, 3, 4)))
    si = gen_disjointnn_from_3sp(sp)
    assert si.graph.n == 6
    nn = nonneighborhoods(si)
    assert nn["w1"] == fs("c1", "c2", "c3")
    assert nn["w2"] == fs("c2", "c3", "c4")


def test_brute_disjointnn_frozen_witness():
    sp = SetPackingInstance(6, (fs(1, 2, 3), fs(4, 5, 6), fs(1, 4, 5)))
    si = gen_disjointnn_from_3sp(sp)
    assert brute_disjointnn(si) == (2, fs("w1", "w2"))


def test_brute_disjointnn_matches_packing_oracle():
    """Disjoint non-neighborhoods in the encoding are exactly disjoint
    triplets in the family."""
    pool = [fs(*c) for c in combinations(range(1, 7), 3)]
    fams = [fam for r in (0, 1, 2) for fam in combinations(pool[:8], r)]
    fams += [tuple(pool[i::7][:3]) for i in range(7)]
    for fam in fams:
        si = gen_disjointnn_from_3sp(SetPackingInstance(6, fam))
        size, _ = brute_disjointnn(si)
        assert size == max_set_packing(fam), f"fam={sorted(map(sorted, fam))}"


def test_brute_disjointnn_cap():
    fam = tuple(fs(*c) for c in combinations(range(1, 7), 3))[:4]
    si = gen_disjointnn_from_3sp(SetPackingInstance(6, fam))
    with pytest.raises(ValueError):
        brute_disjointnn(si, cap=3)


def test_stc_reduction_shape_single_triplet():
    """The smallest instance: a 3-element universe and one triplet."""
    sp = SetPackingInstance(3, (fs(1, 2, 3),))
    si = gen_disjointnn_from_3sp(sp)
    inst, threshold = gen_maxstc_from_disjointnn(si)
    assert inst.graph.n == 10
    assert inst.graph.m == 33
    assert threshold(1) == 17
    assert split_assignment_optimum(inst) == 17


def test_threshold_function_values():
    sp = SetPackingInstance(4, (fs(1, 2, 3),))
    si = gen_disjointnn_from_3sp(sp)
    _inst, threshold = gen_maxstc_from_disjointnn(si)
    assert threshold(0) == 30
    assert [threshold(k) for k in range(4)] == [30, 31, 31, 32]


def test_reduction_refuses_bad_nonneighborhood_size():
    g = Graph(["c1", "c2", "w1"], [("c1", "c2"), ("c1", "w1")])
    si = SplitInstance(g, fs("c1", "c2"), fs("w1"))
    with pytest.raises(ValueError):
        gen_maxstc_from_disjointnn(si)


def test_reduction_refuses_label_collisions():
    g = Graph(
        ["c1", "c2", "c3", "y1"],
        [("c1", "c2"), ("c1", "c3"), ("c2", "c3")],
    )
    si = SplitInstance(g, fs("c1", "c2", "c3"), fs("y1"))
    with pytest.raises(ValueError, match="collide"):
        gen_maxstc_from_disjointnn(si)


def test_assignment_solver_matches_generic_path():
    """The split-structured search and the twin-contracted conflict-graph
    search must land on the same optimum."""
    fams = [
        (3, (fs(1, 2, 3),)),
        (4, (fs(1, 2, 3),)),
        (4, (fs(1, 2, 3), fs(1, 2, 4))),
        (5, (fs(1, 2, 3), fs(1, 4, 5))),
        (5, (fs(1, 2, 3), fs(3, 4, 5))),
        (6, (fs(1, 2, 3), fs(4, 5, 6))),
    ]
    for n, fam in fams:
        si = gen_disjointnn_from_3sp(SetPackingInstance(n, fam))
        inst, _ = gen_maxstc_from_disjointnn(si)
        assert split_assignment_optimum(inst) == maxstc_optimum_contracted(inst.graph)


def test_assignment_solver_matches_oracle_on_tiny_splits():
    """Hand-rolled split graphs, not from the generator, against the
    brute-force conflict-graph solver."""
    cases = []
    g1 = Graph(["a", "b", "c", "u", "v"],
               [("a", "b"), ("a", "c"), ("b", "c"), ("u", "a"), ("v", "b"), ("v", "c")])
    cases.append(SplitInstance(g1, fs("a", "b", "c"), fs("u", "v")))
    g2 = Graph(["a", "b", "u"], [("a", "b"), ("u", "a"), ("u", "b")])
    cases.append(SplitInstance(g2, fs("a", "b"), fs("u")))
    g3 = Graph(["a", "u", "v"], [("a", "u"), ("a", "v")])
    cases.append(SplitInstance(g3, fs("a"), fs("u", "v")))
    for si in cases:
        assert split_assignment_optimum(si) == solve_oracle(si.graph).value


def test_assignment_solver_matches_oracle_on_seeded_split_graphs():
    """Seeded split graphs with 1-7 clique and 0-6 independent vertices,
    each independent-clique pair an edge with probability 0.6, so
    non-neighborhoods come in every size and the search's clique order
    departs from label order. Graphs with at most 22 edges are checked
    against the brute-force conflict-graph solver."""
    checked = 0
    for seed in range(1500):
        rng = random.Random(seed)
        ks = [f"k{i}" for i in range(rng.randint(1, 7))]
        us = [f"u{i}" for i in range(rng.randint(0, 6))]
        edges = list(combinations(ks, 2))
        edges += [(u, k) for u in us for k in ks if rng.random() < 0.6]
        if len(edges) > 22:
            continue
        si = SplitInstance(Graph(ks + us, edges), fs(*ks), fs(*us))
        want = solve_oracle(si.graph, force=True).value
        assert split_assignment_optimum(si) == want, f"seed={seed}"
        checked += 1
    assert checked > 1000


def test_certification_small_consistent_family():
    """Two disjoint triplets over six elements: the equivalence holds at
    every target size."""
    rep = certify_reduction(SetPackingInstance(6, (fs(1, 2, 3), fs(4, 5, 6))))
    assert rep.packing_size == 2
    assert rep.optimum == 70
    assert rep.all_hold
    assert [(k, t) for k, t, _, _ in rep.rows] == [(0, 69), (1, 70), (2, 70)]


def test_certification_detects_parity_gap():
    """A single triplet over an even universe misses the threshold by one."""
    rep = certify_reduction(SetPackingInstance(6, (fs(1, 2, 3),)))
    assert rep.packing_size == 1
    assert rep.optimum == 69
    assert not rep.all_hold
    k1 = rep.rows[1]
    assert k1[1] == 70 and k1[2] is False and k1[3] is True


def test_certification_odd_universe_single_triplet_holds():
    rep = certify_reduction(SetPackingInstance(3, (fs(1, 2, 3),)))
    assert rep.packing_size == 1
    assert rep.optimum == 17
    assert rep.all_hold


def test_pig_generator_output_is_proper_interval():
    for seed in range(30):
        g = gen_random_proper_interval(9, seed=seed, density=0.4)
        assert g.n == 9
        assert recognize(g) is not None, f"seed={seed}"
    dense = gen_random_proper_interval(6, seed=1, density=1.0)
    assert dense.m == 15


def test_pig_generator_rejects_bad_density():
    with pytest.raises(ValueError):
        gen_random_proper_interval(5, density=1.5)


def test_tp_generator_output_is_trivially_perfect():
    for seed in range(30):
        g = gen_random_trivially_perfect(10, seed=seed)
        assert g.n == 10
        assert find_p4_or_c4(g) is None, f"seed={seed}"


def test_generators_are_deterministic():
    a = gen_random_proper_interval(8, seed=3)
    b = gen_random_proper_interval(8, seed=3)
    assert a == b
    c = gen_random_trivially_perfect(8, seed=4)
    d = gen_random_trivially_perfect(8, seed=4)
    assert c == d
