"""The four workloads: one instance set ("batch") per (workload, seed, batch).

Every batch is drawn from its own random stream, so no input is timed
twice in a process and a memo keyed on the input cannot register as a gain.
Sizes follow a fixed schedule; the seed changes the graphs and the labels.
Every size is chosen so that the seed's time for it lies below a third of
the per-operation limit; rows of the ROADMAP baseline that crash or stall
at the seed are kept apart as probes (`build_probes`), which the traced run
executes once and reports by name with their reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import families as F
from checker import adjacency, is_trivially_perfect

WORKLOADS = ("interval", "trivially-perfect", "sparse-mixed", "check")


@dataclass
class Op:
    name: str
    kind: str  # "solve", "recognize" or "verify"
    inst: F.Instance
    args: list[str] = field(default_factory=list)  # extra CLI arguments
    strong: set[F.Edge] | None = None  # verify: the labeling handed over
    planted: bool = False  # verify: the labeling has a planted open wedge


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{batch}")


def _non_tp_pig(rng: random.Random, n: int, d: float, components: int = 1) -> F.Instance:
    """A proper interval graph with an induced P4, so `solve_auto` does not
    route it to the trivially-perfect solver."""
    while True:
        inst = F.pig(rng, n, d, components=components)
        if not is_trivially_perfect(adjacency(inst)):
            return inst


def _grid(lo: float, hi: float, k: int) -> list[float]:
    """k sizes from lo to hi in geometric steps, fine enough that
    neighbouring sizes differ in cost by about one instance's noise, so the
    median does not fall into a gap between two size classes. Each batch
    also repeats one heavy size about 6 times (a "plateau") so that the
    90th percentile falls inside that size's spread of times rather than
    between two sizes."""
    return [lo * (hi / lo) ** (i / (k - 1)) for i in range(k)]


def _interval(rng: random.Random) -> list[Op]:
    insts = []
    # single dense components
    for x in _grid(40, 200, 16) + [200] * 8:
        insts.append(_non_tp_pig(rng, round(x), round(x / 7 + 6)))
    # sparser graphs of many components of about 25 vertices
    for x, d in zip(_grid(100, 600, 12), _grid(8, 4, 12)):
        insts.append(_non_tp_pig(rng, round(x), round(d, 2), round(x / 25)))
    # paths stay below the PIG DP's recursion ceiling (about 330 vertices)
    for x in _grid(8, 200, 8):
        insts.append(F.path(rng, round(x)))
    return [Op(i.name, "solve", i) for i in insts]


def _trivially_perfect(rng: random.Random) -> list[Op]:
    insts = []
    # single deep trees, then bushier forests
    for x in _grid(30, 220, 16):
        insts.append(F.tp(rng, round(x), 1, 2.0))
    for x in _grid(100, 400, 8):
        insts.append(F.tp(rng, round(x), round(x / 20), 1.3))
    for x in _grid(20, 90, 10):
        insts.append(F.threshold(rng, round(x)))
    for x in _grid(10, 160, 4):
        insts.append(F.star(rng, round(x)))
    for x in _grid(8, 40, 4):
        insts.append(F.clique(rng, round(x)))
    return [Op(i.name, "solve", i) for i in insts]


def _mixed_union(rng: random.Random, bip: list[int], cycles: list[int],
                 pigs: list[int], connected: bool = False,
                 isolated: int = 0) -> F.Instance:
    """Union of bipartite, odd-cycle and PIG components, plus `isolated`
    isolated vertices whose labels sort before all others."""
    parts = [F.isolated(isolated)] if isolated else []
    for j, n in enumerate(bip):
        parts.append(F.sparse_bipartite(rng, n, 2.5, f"b{j}_", connected))
    for j, k in enumerate(cycles):
        parts.append(F.odd_cycle(rng, k, prefix=f"o{j}_"))
    for j, n in enumerate(pigs):
        parts.append(F.pig(rng, n, 4, prefix=f"i{j}_"))
    n = sum(len(p.vertices) for p in parts)
    return F.disjoint_union(f"mixed-{n}-c{len(parts)}", parts)


def _sparse_mixed(rng: random.Random) -> list[Op]:
    insts = []
    # unions of about 60% bipartite, 10% odd-cycle and 30% PIG vertices,
    # in components of a tenth to a half of the total (a quarter on the
    # plateau)
    for i, x in enumerate(_grid(300, 1000, 20) + [1300] * 6):
        share = (0.5, 0.25, 0.1)[i % 3] if x < 1300 else 0.25
        part = max(20, round(x * share))
        bip = [part] * max(1, round(0.6 * x / part))
        cycles = [5 + 2 * ((i + j) % 13) for j in range(max(1, round(0.1 * x / 17)))]
        pigs = [max(10, part // 2)] * max(1, round(0.3 * x / max(10, part // 2)))
        insts.append(_mixed_union(rng, bip, cycles, pigs))
    for x in _grid(100, 450, 5):
        insts.append(F.sparse_bipartite(rng, round(x), 3))
    # baseline row: sparse bipartite n=1600, m=3.2k
    insts.append(F.sparse_bipartite(rng, 1600, 4))
    return [Op(i.name, "solve", i) for i in insts]


def _planted_wedge(inst: F.Instance) -> set[F.Edge]:
    """The instance's cluster labeling plus one weak edge v-w made strong,
    where v has a strong neighbour u not adjacent to w."""
    strong = inst.strong_edges()
    adj = adjacency(inst)
    for c in inst.clusters:
        if len(c) < 2:
            continue
        members = set(c)
        for v in c:
            u = next(x for x in c if x != v)
            for w in sorted(adj[v] - members):
                if w not in adj[u]:
                    return strong | {F.canon(v, w)}
    raise ValueError(f"{inst.name}: no weak edge makes an open wedge")


def _check(rng: random.Random) -> list[Op]:
    ops = []
    # recognize scans vertex 4-sets in label order for a split obstruction;
    # each isolated vertex with a small label costs that scan about n^3 / 6
    # quadruples. The mixed union with one such vertex (n about 100)
    # measures that prefix; every bipartite component is connected, so
    # the number of isolated vertices the scan meets first, and so its cost,
    # is set here rather than by chance
    recog = [F.pig(rng, 100, 8), F.pig(rng, 200, 12), F.tp(rng, 80, 1, 2.0),
             F.tp(rng, 150, 7, 1.3), F.threshold(rng, 60),
             F.sparse_bipartite(rng, 150, 3, connected=True),
             F.sparse_bipartite(rng, 250, 2.5, connected=True),
             _mixed_union(rng, [60, 40], [9], [], connected=True),
             _mixed_union(rng, [40, 30], [9], [20], connected=True, isolated=1),
             F.odd_cycle(rng, 25)]
    recog += [F.c5_join_clique(rng, round(k)) for k in _grid(6, 12, 6) + [14] * 6]
    ops += [Op(f"recognize/{i.name}", "recognize", i) for i in recog]
    for planted in (False, True):
        insts = [F.pig(rng, 80, 6), F.pig(rng, 150, 10), F.pig(rng, 300, 3),
                 F.tp(rng, 60, 1, 2.0), F.tp(rng, 120, 6, 1.3), F.threshold(rng, 80),
                 F.sparse_bipartite(rng, 150, 3), F.sparse_bipartite(rng, 400, 3),
                 _mixed_union(rng, [100, 60], [7, 11], [30, 20]),
                 F.c5_join_clique(rng, 12), F.c5_join_clique(rng, 25)]
        for inst in insts:
            strong = _planted_wedge(inst) if planted else inst.strong_edges()
            tag = "verify-wedge" if planted else "verify-valid"
            ops.append(Op(f"{tag}/{inst.name}", "verify", inst, strong=strong,
                          planted=planted))
    # half the operations above cost less than verifying c5join-25 and half
    # more than recognizing c5join-7, so the median would fall into the gap
    # between the two; a plateau of six PIGs costing in between holds it
    for _ in range(6):
        inst = F.pig(rng, 180, 10)
        ops.append(Op(f"verify-valid/{inst.name}", "verify", inst,
                      strong=inst.strong_edges()))
    return ops


_SCHEDULES = {
    "interval": _interval,
    "trivially-perfect": _trivially_perfect,
    "sparse-mixed": _sparse_mixed,
    "check": _check,
}


def build_batch(workload: str, seed: int, batch: int) -> list[Op]:
    return _SCHEDULES[workload](_rng(workload, seed, batch))


def build_probes(workload: str, seed: int) -> list[Op]:
    """ROADMAP baseline rows that crash or stall at the seed. Their seed
    times lie far outside a third to three times the time limit."""
    rng = _rng(workload, seed, -1)
    if workload == "interval":
        return [
            # random PIG n=800 via solve_pig_dp: RecursionError in the DP
            Op("probe/pig-800", "solve", F.pig(rng, 800, 4), ["--solver", "pig"]),
            # path on 1000 vertices via solve_auto: RecursionError (PIG DP)
            Op("probe/path-1000", "solve", F.path(rng, 1000)),
            # path on 3000 vertices, labels in path order, via solve_bipartite:
            # RecursionError in the augmenting-path search
            Op("probe/path-3000-bip", "solve", F.path(rng, 3000, ordered=True),
               ["--solver", "bip"]),
        ]
    if workload == "trivially-perfect":
        # threshold graph n=600: stalls in the cograph MWIS
        return [Op("probe/threshold-600", "solve", F.threshold(rng, 600))]
    if workload == "sparse-mixed":
        # sparse bipartite n=10^4 via solve_auto: stalls in LexBFS
        return [Op("probe/bip-10000", "solve", F.sparse_bipartite(rng, 10000, 4))]
    # C5 joined with K60: the O(n^5) split-obstruction scan stalls
    return [Op("probe/recognize-c5join-60", "recognize", F.c5_join_clique(rng, 60))]
