"""Hardness-reduction instances and random generators.

The pipeline turns a 3-set-packing instance into a split graph whose
independent side encodes the triplets (each independent vertex misses exactly
its triplet inside the clique), and then into a larger split graph whose
maximum strong triadic closure is tied to the packing number through a
threshold function. `certify_reduction` checks that tie by brute force at
desk scale. Random generators for proper interval and trivially perfect
graphs live here too, since the test suites draw instances from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .graph import Graph, contract_twins
from .incompat import build_incompat
from .solvers import _BitGraph, _bb_max


@dataclass(frozen=True)
class SetPackingInstance:
    """Universe 1..n with a family of 3-element subsets."""

    n: int
    triplets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("universe size must be non-negative")
        for t in self.triplets:
            if len(t) != 3:
                raise ValueError(f"triplet {sorted(t)} does not have 3 elements")
            if not all(isinstance(x, int) and 1 <= x <= self.n for x in t):
                raise ValueError(f"triplet {sorted(t)} leaves the universe 1..{self.n}")


@dataclass(frozen=True)
class SplitInstance:
    """A graph with a verified split partition: the sides partition the
    vertices into a clique and an edgeless set. The check counts each
    vertex's neighbours in its own side, O(n + m); a failure names the first
    offending pair in label order (its first vertex's smallest partner)."""

    graph: Graph
    clique_side: frozenset[str]
    independent_side: frozenset[str]

    def __post_init__(self):
        g, cs, ins = self.graph, self.clique_side, self.independent_side
        if cs | ins != set(g.vertices) or cs & ins:
            raise ValueError("sides do not partition the vertex set")
        for v in g.vertices:  # sorted
            if v in cs and len(g.neighbors(v) & cs) < len(cs) - 1:
                u = min(cs - g.neighbors(v) - {v})
                raise ValueError(f"clique side misses edge ({v}, {u})")
        for v in g.vertices:
            if v in ins and not g.neighbors(v).isdisjoint(ins):
                u = min(g.neighbors(v) & ins)
                raise ValueError(f"independent side contains edge ({v}, {u})")


def gen_disjointnn_from_3sp(sp: SetPackingInstance) -> SplitInstance:
    """Encode a 3-set-packing instance as a split graph: clique c1..cn, one
    independent vertex per triplet adjacent to everything in the clique
    except its own three elements."""
    cs = [f"c{i}" for i in range(1, sp.n + 1)]
    ws = [f"w{i}" for i in range(1, len(sp.triplets) + 1)]
    edges = [(u, v) for u, v in combinations(cs, 2)]
    for w, t in zip(ws, sp.triplets):
        missing = {cs[x - 1] for x in t}
        edges.extend((w, c) for c in cs if c not in missing)
    g = Graph(cs + ws, edges)
    return SplitInstance(g, frozenset(cs), frozenset(ws))


def nonneighborhoods(si: SplitInstance) -> dict[str, frozenset[str]]:
    """Clique vertices each independent vertex misses."""
    return {
        w: si.clique_side - si.graph.neighbors(w)
        for w in sorted(si.independent_side)
    }


def _misses_three(si: SplitInstance) -> dict[str, frozenset[str]]:
    """nonneighborhoods(si), refusing any independent vertex that does not
    miss exactly 3 clique vertices."""
    nn = nonneighborhoods(si)
    for w, miss in nn.items():
        if len(miss) != 3:
            raise ValueError(f"{w} misses {len(miss)} clique vertices, expected 3")
    return nn


def brute_disjointnn(si: SplitInstance, cap: int = 20) -> tuple[int, frozenset[str]]:
    """Largest set of independent-side vertices with pairwise disjoint
    non-neighborhoods, by depth-first search over the independent side.

    Requires every non-neighborhood to have exactly 3 vertices and at most
    `cap` independent vertices.
    """
    nn = _misses_three(si)
    ws = sorted(si.independent_side)
    if len(ws) > cap:
        raise ValueError(f"{len(ws)} independent vertices exceed the cap {cap}")

    best: tuple[str, ...] = ()

    def dfs(i: int, used: frozenset[str], picked: tuple[str, ...]) -> None:
        nonlocal best
        if len(picked) > len(best):
            best = picked
        if i == len(ws) or len(picked) + (len(ws) - i) <= len(best):
            return
        w = ws[i]
        if not (nn[w] & used):
            dfs(i + 1, used | nn[w], picked + (w,))
        dfs(i + 1, used, picked)

    dfs(0, frozenset(), ())
    return len(best), frozenset(best)


def gen_maxstc_from_disjointnn(
    si: SplitInstance,
) -> tuple[SplitInstance, Callable[[int], int]]:
    """Blow a disjoint-non-neighborhood instance up into a strong-triadic
    instance: add y1..yn to the clique (yi misses only xi) and an independent
    x1..xn (xi adjacent to the whole clique except yi). Returns the instance
    and the threshold function k -> n(2n-1) + floor(n/2) + ceil(k/2).

    Refuses instances where some independent vertex does not miss exactly 3
    clique vertices, and label collisions with the y/x scheme.
    """
    _misses_three(si)
    n = len(si.clique_side)
    ys = [f"y{i}" for i in range(1, n + 1)]
    xs = [f"x{i}" for i in range(1, n + 1)]
    old = set(si.graph.vertices)
    clash = old & set(ys + xs)
    if clash:
        raise ValueError(f"labels collide with the y/x scheme: {sorted(clash)}")

    cs = sorted(si.clique_side)
    ws = sorted(si.independent_side)
    edges: list[tuple[str, str]] = list(si.graph.edges)
    for i, y in enumerate(ys):
        edges.extend((y, c) for c in cs)
        edges.extend((y, y2) for y2 in ys[i + 1 :])
        edges.extend((y, w) for w in ws)
        edges.extend((y, x) for j, x in enumerate(xs) if j != i)
    for i, x in enumerate(xs):
        edges.extend((x, c) for c in cs)
    g = Graph(sorted(old) + ys + xs, edges)
    inst = SplitInstance(
        g, si.clique_side | frozenset(ys), si.independent_side | frozenset(xs)
    )

    def threshold(k: int) -> int:
        return n * (2 * n - 1) + n // 2 + (k + 1) // 2

    return inst, threshold


def maxstc_optimum_contracted(g: Graph) -> int:
    """Exact optimum via twin contraction plus branch-and-bound on the
    conflict graph. Contraction keeps generated instances tractable and is
    value-preserving (intra-class edges are always strong)."""
    cg, _tp, intra = contract_twins(g)
    h = build_incompat(cg)
    return _bb_max(_BitGraph(h)) + intra


def split_assignment_optimum(si: SplitInstance) -> int:
    """Exact optimum for a split graph, by searching edge assignments.

    In a split graph every independent-side vertex has a clique neighborhood,
    so conflicts between edges only arise around clique vertices: two
    clique-independent edges at the same clique vertex always conflict, two
    clique-clique edges never do, and a clique-clique edge (a, b) conflicts
    exactly with the edges (a, u) and (b, u) whose independent endpoint u
    misses the far clique vertex. A maximum solution therefore picks at most
    one independent-side edge per clique vertex and keeps every clique-clique
    edge not killed by those picks. The search branches over that one choice
    per clique vertex, which is a far smaller space than the conflict graph.

    The suffix bound charges a killed clique-clique edge half to each
    unassigned endpoint (doubled arithmetic keeps it integral). Unit weights
    only.
    """
    g = si.graph
    if not g.is_unit_weight():
        raise ValueError("split assignment search expects unit weights")
    non = nonneighborhoods(si)

    # assign first the clique vertices that cheap options kill into, so the
    # bound charges those kills exactly instead of halving them
    def settle_rank(k: str) -> tuple[int, str]:
        sizes = [len(nn) for nn in non.values() if k in nn]
        return (min(sizes) if sizes else len(si.clique_side) + 1, k)

    ks = sorted(si.clique_side, key=settle_rank)

    # settled[i] holds the edges whose lower-indexed endpoint is before depth
    # i; bits go out by lower endpoint, so it is a run of low bits
    ebit: dict[tuple[str, str], int] = {}
    settled = [0]
    for i, a in enumerate(ks):
        for b in ks[i + 1 :]:
            ebit[(a, b)] = ebit[(b, a)] = 1 << len(ebit) // 2
        settled.append((1 << len(ebit) // 2) - 1)
    total_k = len(ebit) // 2

    # per clique vertex: (doubled gain, clique edges its pick would kill)
    options: list[list[tuple[int, int]]] = []
    for k in ks:
        opts = [(2, sum(ebit[(k, b)] for b in non[u])) for u in sorted(non) if k not in non[u]]
        opts.append((0, 0))
        options.append(opts)

    best = total_k  # assigning nothing keeps the whole clique strong
    nks = len(ks)

    def bound_exceeds(i: int, alive: int, needed2: int) -> bool:
        """True when the doubled suffix bound beats `needed2`. Exits as soon
        as the partial sum settles the question either way."""
        acc = 0
        stl = settled[i]
        for j in range(i, nks):
            top = 0
            for gain2, kills in options[j]:
                live = kills & alive
                cost2 = (live & stl).bit_count() * 2 + (live & ~stl).bit_count()
                if gain2 - cost2 > top:
                    top = gain2 - cost2
            acc += top
            if acc > needed2:
                return True
        return acc > needed2

    def dfs(i: int, alive: int, cur: int) -> None:
        nonlocal best
        if i == nks:
            if cur > best:
                best = cur
            return
        if not bound_exceeds(i, alive, 2 * (best - cur)):
            return
        moves = sorted(
            ((gain2 // 2 - (kills & alive).bit_count(), kills) for gain2, kills in options[i]),
            key=lambda t: -t[0],
        )
        for delta, kills in moves:
            dfs(i + 1, alive & ~kills, cur + delta)

    dfs(0, (1 << total_k) - 1, total_k)
    return best


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of checking the packing/threshold equivalence on one instance."""

    packing_size: int
    packing_witness: frozenset[str]
    optimum: int
    rows: tuple[tuple[int, int, bool, bool], ...]  # (k, threshold, stc>=, pack>=)
    all_hold: bool


def certify_reduction(sp: SetPackingInstance) -> CertificationReport:
    """Brute-check, for every k from 0 to the family size, that the generated
    instance's optimum reaches threshold(k) exactly when the packing number
    reaches k."""
    si = gen_disjointnn_from_3sp(sp)
    size, witness = brute_disjointnn(si)
    inst, threshold = gen_maxstc_from_disjointnn(si)
    opt = split_assignment_optimum(inst)
    rows = []
    for k in range(len(sp.triplets) + 1):
        t = threshold(k)
        rows.append((k, t, opt >= t, size >= k))
    all_hold = all(stc == pack for _, _, stc, pack in rows)
    return CertificationReport(size, witness, opt, tuple(rows), all_hold)


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------


def gen_random_proper_interval(n: int, seed: int = 0, density: float = 0.5) -> Graph:
    """Intersection graph of n random unit intervals.

    Left endpoints are drawn uniformly from a window that shrinks as density
    grows; density 1.0 collapses the window and yields a complete graph.
    Each interval meets the ones that start at most 1.0 after it, so a scan
    in order of left endpoint finds the m edges in O(n log n + m).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    width = max(len(str(max(n - 1, 0))), 2)
    labels = [f"u{i:0{width}d}" for i in range(n)]
    spread = (1.0 - density) * n
    lefts = {v: rng.uniform(0.0, spread) for v in labels}
    order = sorted(labels, key=lefts.__getitem__)
    edges = []
    for i, u in enumerate(order):
        j = i + 1
        while j < n and lefts[order[j]] - lefts[u] <= 1.0:
            edges.append((u, order[j]))
            j += 1
    return Graph(labels, edges)


def gen_random_trivially_perfect(n: int, seed: int = 0) -> Graph:
    """Random trivially perfect graph, built the way the class is defined:
    a single vertex, a disjoint union, or a universal vertex over a smaller
    one."""
    rng = random.Random(seed)
    width = max(len(str(max(n - 1, 0))), 2)
    labels = [f"t{i:0{width}d}" for i in range(n)]
    edges: list[tuple[str, str]] = []

    def build(part: list[str]) -> None:
        if len(part) <= 1:
            return
        if rng.random() < 0.5:
            cut = rng.randint(1, len(part) - 1)
            build(part[:cut])
            build(part[cut:])
        else:
            head, rest = part[0], part[1:]
            edges.extend((head, v) for v in rest)
            build(rest)

    build(labels)
    return Graph(labels, edges)
