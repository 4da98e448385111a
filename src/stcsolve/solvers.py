"""Exact solvers for maximum strong triadic closure.

Every solver returns the optimal number of strong edges (unit-weight terms)
together with a witness labeling that is re-validated before it is returned.
The brute-force oracle works on any graph whose conflict graph fits under the
node cap; the class solvers are polynomial on proper interval, trivially
perfect, and bipartite inputs respectively, and refuse anything else.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field

from .graph import Edge, Graph, canon_edge, contract_twins
from .incompat import (
    IncompatGraph,
    StrongWeakLabeling,
    build_incompat,
    labeling_from_independent_set,
    lift_labeling,
    validate_stc,
)
from .ordering import recognize

DEFAULT_ORACLE_CAP = 34


class WrongClassError(ValueError):
    """A solver was forced onto a graph outside its class."""


class UnsupportedInstanceError(ValueError):
    """No available solver applies to the instance."""


class OracleCapError(UnsupportedInstanceError):
    """The conflict graph exceeds the brute-force node cap."""


@dataclass(frozen=True)
class SolveResult:
    value: int
    labeling: StrongWeakLabeling
    solver: str
    stats: dict = field(default_factory=dict)
    certificate: dict = field(default_factory=dict)


def _finish(g: Graph, lab: StrongWeakLabeling, solver: str, stats: dict,
            certificate: dict) -> SolveResult:
    witness = validate_stc(g, lab)
    if witness is not None:
        raise RuntimeError(f"{solver} produced an invalid labeling, wedge {witness}")
    return SolveResult(lab.value, lab, solver, stats, certificate)


def _solve_contracted(g: Graph, solver: str, core) -> SolveResult:
    """Contract true twins, solve the weighted contracted graph and lift.

    core(cg) returns the contracted strong set (canonical pairs), its
    weight, and the class's own stats and certificate entries. Edges inside
    a twin class are always strong: on the classes solved this way MaxSTC
    is cluster deletion (Grüttemeier & Komusiewicz, Algorithmica 2020), and
    an optimal clustering keeps true twins together. An edge between classes
    is strong when its contracted edge is (lift_labeling).
    """
    t0 = time.perf_counter()
    cg, tp, intra = contract_twins(g)
    strong_c, value_c, stats, cert = core(cg)
    lab = lift_labeling(g, tp.rep_of(), strong_c)
    stats.update(contracted_n=cg.n, intra_twin_value=intra,
                 time_ms=(time.perf_counter() - t0) * 1000.0)
    cert.update(intra_twin_value=intra, twin_classes=[sorted(c) for c in tp.classes])
    result = _finish(g, lab, solver, stats, cert)
    assert result.value == value_c + intra
    return result


# ---------------------------------------------------------------------------
# brute-force maximum weighted independent set
# ---------------------------------------------------------------------------


class _BitGraph:
    """Bitmask view of a conflict graph, ordered for branch and bound.

    Internal node order is by descending conflict degree (label-lexicographic
    on ties) so the branching pivot is always the lowest set bit. A greedy
    clique cover computed once per instance supplies the upper bound: each
    cover clique contributes at most its heaviest remaining member.
    """

    def __init__(self, h: IncompatGraph):
        nodes = list(h.nodes)
        idx = {e: i for i, e in enumerate(nodes)}
        deg = [0] * len(nodes)
        adj = [0] * len(nodes)
        for a, b in h.conflicts:
            ia, ib = idx[a], idx[b]
            adj[ia] |= 1 << ib
            adj[ib] |= 1 << ia
            deg[ia] += 1
            deg[ib] += 1
        order = sorted(range(len(nodes)), key=lambda i: (-deg[i], nodes[i]))
        self.nodes = [nodes[i] for i in order]
        self.weight = [h.node_weight[nodes[i]] for i in order]
        remap = {old: new for new, old in enumerate(order)}
        self.adj = [0] * len(nodes)
        for new, old in enumerate(order):
            m = adj[old]
            acc = 0
            while m:
                low = m & -m
                acc |= 1 << remap[low.bit_length() - 1]
                m ^= low
            self.adj[new] = acc
        self.n = len(nodes)
        # lexicographic scan order over internal indices
        self.lex = sorted(range(self.n), key=lambda i: self.nodes[i])
        self.cover = self._clique_cover()

    def _clique_cover(self) -> list[tuple[int, list[int]]]:
        cliques: list[list[int]] = []
        masks: list[int] = []
        for i in range(self.n):
            ai = self.adj[i]
            for c, cm in enumerate(masks):
                if cm & ~ai == 0:  # i conflicts with every member
                    cliques[c].append(i)
                    masks[c] |= 1 << i
                    break
            else:
                cliques.append([i])
                masks.append(1 << i)
        out = []
        for c, cm in zip(cliques, masks):
            members = sorted(c, key=lambda i: -self.weight[i])
            out.append((cm, members))
        return out

    def bound_reaches(self, rest: int, needed: int) -> bool:
        """True when the clique-cover bound on `rest` is at least `needed`."""
        acc = 0
        for cm, members in self.cover:
            if cm & rest:
                for i in members:
                    if (rest >> i) & 1:
                        acc += self.weight[i]
                        break
                if acc >= needed:
                    return True
        return False

    def greedy(self) -> int:
        best = 0
        for key in (lambda i: (self.adj[i].bit_count(), -self.weight[i]),
                    lambda i: -self.weight[i]):
            rest = (1 << self.n) - 1
            total = 0
            for i in sorted(range(self.n), key=key):
                if (rest >> i) & 1:
                    total += self.weight[i]
                    rest &= ~(self.adj[i] | (1 << i))
            best = max(best, total)
        return best


def _bb_max(bg: _BitGraph, counters: dict) -> int:
    best = bg.greedy()
    full = (1 << bg.n) - 1

    def dfs(rest: int, cur: int) -> None:
        nonlocal best
        counters["bb_states"] += 1
        while rest:
            v = (rest & -rest).bit_length() - 1
            if bg.adj[v] & rest == 0:  # conflict-free: always take
                cur += bg.weight[v]
                rest &= ~(1 << v)
            else:
                break
        if not rest:
            if cur > best:
                best = cur
            return
        if not bg.bound_reaches(rest, best + 1 - cur):
            return
        v = (rest & -rest).bit_length() - 1
        dfs(rest & ~(bg.adj[v] | (1 << v)), cur + bg.weight[v])
        dfs(rest & ~(1 << v), cur)

    if bg.n:
        dfs(full, 0)
    return best


def _bb_reaches(bg: _BitGraph, rest: int, cur: int, target: int, counters: dict) -> bool:
    """Decision variant: can `cur` plus an independent set inside `rest`
    reach `target`?"""
    counters["bb_states"] += 1
    while rest:
        v = (rest & -rest).bit_length() - 1
        if bg.adj[v] & rest == 0:
            cur += bg.weight[v]
            rest &= ~(1 << v)
        else:
            break
    if cur >= target:
        return True
    if not rest or not bg.bound_reaches(rest, target - cur):
        return False
    v = (rest & -rest).bit_length() - 1
    if _bb_reaches(bg, rest & ~(bg.adj[v] | (1 << v)), cur + bg.weight[v], target, counters):
        return True
    return _bb_reaches(bg, rest & ~(1 << v), cur, target, counters)


def mwis_value(h: IncompatGraph, counters: dict | None = None) -> int:
    """Exact maximum weight of an independent set, value only."""
    counters = counters if counters is not None else {"bb_states": 0}
    counters.setdefault("bb_states", 0)
    if not h.nodes:
        return 0
    return _bb_max(_BitGraph(h), counters)


def brute_mwis(
    h: IncompatGraph,
    cap: int = DEFAULT_ORACLE_CAP,
    force: bool = False,
    counters: dict | None = None,
) -> tuple[int, frozenset[Edge]]:
    """Exact maximum weighted independent set of a conflict graph.

    Among all optima the lexicographically smallest node set is returned:
    after the value is known, nodes are committed in label order whenever an
    optimum containing the committed prefix still exists. Refuses graphs with
    more than `cap` nodes unless `force` is set.
    """
    if len(h.nodes) > cap and not force:
        raise OracleCapError(
            f"conflict graph has {len(h.nodes)} nodes, cap is {cap}"
        )
    if counters is None:
        counters = {"bb_states": 0}
    counters.setdefault("bb_states", 0)
    if not h.nodes:
        return 0, frozenset()
    bg = _BitGraph(h)
    best = _bb_max(bg, counters)
    chosen: list[Edge] = []
    cur = 0
    rest = (1 << bg.n) - 1
    for i in bg.lex:
        if not (rest >> i) & 1:
            continue
        taken = rest & ~(bg.adj[i] | (1 << i))
        if _bb_reaches(bg, taken, cur + bg.weight[i], best, counters):
            chosen.append(bg.nodes[i])
            cur += bg.weight[i]
            rest = taken
        else:
            rest &= ~(1 << i)
    if cur != best:
        raise RuntimeError("witness extraction lost the optimum")
    return best, frozenset(chosen)


def solve_oracle(
    g: Graph, cap: int = DEFAULT_ORACLE_CAP, force: bool = False
) -> SolveResult:
    """Brute-force solve via the conflict graph. Works on any graph whose
    edge count fits under the cap."""
    t0 = time.perf_counter()
    h = build_incompat(g)
    counters = {"bb_states": 0}
    value, sset = brute_mwis(h, cap, force, counters)
    lab = labeling_from_independent_set(g, h, sset)
    assert lab.value == value
    stats = {
        "nodes": len(h.nodes),
        "conflicts": len(h.conflicts),
        "bb_states": counters["bb_states"],
        "time_ms": (time.perf_counter() - t0) * 1000.0,
    }
    cert = {"independent_set": sorted(sset)}
    return _finish(g, lab, "oracle", stats, cert)


# ---------------------------------------------------------------------------
# proper interval graphs: consecutive clique blocks
# ---------------------------------------------------------------------------


def _clique_blocks(weights, right) -> tuple[int, list[tuple[int, int]]]:
    """Heaviest partition of an umbrella ordering into consecutive cliques:
    its weight and its blocks as half-open position ranges (i, k).

    best[i] is the best weight of positions i..n-1; block i..k-1 is a clique
    exactly when right[i] >= k - 1, so k runs from i + 1 to right[i] + 1 and
    the scan costs O(n + m). Ties keep the smallest k.
    """
    n = len(weights)
    pref = [0] * (n + 1)
    prefsq = [0] * (n + 1)
    for i, w in enumerate(weights):
        pref[i + 1] = pref[i] + w
        prefsq[i + 1] = prefsq[i] + w * w
    best = [0] * (n + 1)
    nxt = [n] * n
    for i in range(n - 1, -1, -1):
        top = -1
        for k in range(i + 1, right[i] + 2):
            s = pref[k] - pref[i]
            val = (s * s - prefsq[k] + prefsq[i]) // 2 + best[k]
            if val > top:
                top, nxt[i] = val, k
        best[i] = top
    blocks = []
    i = 0
    while i < n:
        blocks.append((i, nxt[i]))
        i = nxt[i]
    return best[0], blocks


def _pig_blocks(cg: Graph):
    """solve_pig_dp's core for _solve_contracted."""
    o = recognize(cg)
    if o is None:
        raise WrongClassError("not a proper interval graph")
    order = o.order
    value_c, blocks = _clique_blocks([cg.weights[v] for v in order], o.right_reach)
    strong_c = {
        canon_edge(order[s], order[t])
        for i, k in blocks
        for s in range(i, k)
        for t in range(s + 1, k)
    }
    cert = {"ordering": list(order), "contracted_strong": sorted(strong_c)}
    return strong_c, value_c, {"contracted_m": cg.m}, cert


def solve_pig_dp(g: Graph) -> SolveResult:
    """Polynomial solve for proper interval graphs.

    Contract true twins, recognize an umbrella ordering of the contracted
    graph, cut the ordering into consecutive cliques of largest total
    weight (_clique_blocks) and make every block a strong clique; the
    result is lifted to the input (_solve_contracted).

    Why blocks suffice: some optimum of MaxSTC on a proper interval graph
    is a partition into cliques, so MaxSTC is cluster deletion on this
    class (Konstantinidis & Papadopoulos, "Maximizing the strong triadic
    closure in split graphs and proper interval graphs"; Grüttemeier &
    Komusiewicz, "On the relation of strong triadic closure and cluster
    deletion", Algorithmica 2020). Some optimal clique partition is
    consecutive in the umbrella ordering. Two blocks X, Y whose position
    spans overlap, X's starting first, either nest (then X and Y lie in
    X's span, a clique, and merging them gains w(X) w(Y)) or cross: X's
    span [a, b] and Y's span [c, d] with a < c <= b < d are cliques, so
    the members of X and Y inside [c, b] may join either side, and the
    sum of the two block weights is convex in their weight on one side:
    moving them all to one side loses nothing and leaves disjoint spans,
    each inside its old one. Repeating this ends in consecutive blocks.
    The recurrence tries every consecutive partition. Ties keep the
    shortest first block; that rule fixes which optimum, and so which
    output, a run returns.
    """
    if not g.is_unit_weight():
        raise ValueError("solve_pig_dp expects a unit-weight graph")
    return _solve_contracted(g, "pig-dp", _pig_blocks)


# ---------------------------------------------------------------------------
# trivially perfect graphs: chains of a rooted forest
# ---------------------------------------------------------------------------


def find_p4_or_c4(g: Graph) -> tuple[str, tuple[str, str, str, str]] | None:
    """First induced P4 or C4 (as ("P4"|"C4", (a, b, c, d)) along the path),
    or None. Scans middles: an edge bc with a in N(b)-N[c] and d in N(c)-N[b]
    always yields one of the two patterns on {a, b, c, d}."""
    for b in g.vertices:  # edges in sorted order, without sorting them all
        nb = g.neighbors(b)
        for c in sorted(x for x in nb if x > b):
            nc = g.neighbors(c)
            left = sorted(nb - nc - {c})
            right = sorted(nc - nb - {b})
            for a in left:
                for d in right:
                    if a == d:
                        continue
                    kind = "C4" if g.has_edge(a, d) else "P4"
                    return (kind, (a, b, c, d))
    return None


def trivially_perfect_forest(g: Graph) -> dict[str, str | None] | None:
    """Parent map (None at roots) of a rooted forest whose comparability
    graph is g, listing every parent before its children, or None when g is
    not trivially perfect.

    Adjacent vertices of a trivially perfect graph have nested closed
    neighbourhoods (a vertex outside each would close an induced P4 or C4),
    so in the order by (-degree, label) each vertex's earlier neighbours
    must be its parent p, the deepest of them, plus p's ancestors. Every edge
    joins a vertex to an earlier neighbour, so a full pass proves g the
    comparability graph of the forest (Golumbic, "Trivially perfect
    graphs", Discrete Math 1978): O(n + m) after the sort, and it stops at
    the first vertex that fails.
    """
    parent: dict[str, str | None] = {}
    depth: dict[str, int] = {}  # also marks the vertices already placed
    for v in sorted(g.vertices, key=g.degree, reverse=True):  # stable: ties by label
        nv = g.neighbors(v)
        earlier = [u for u in nv if u in depth]
        a = p = max(earlier, key=depth.__getitem__, default=None)
        for _ in earlier:  # p's chain must be the earlier neighbours, no more
            if a not in nv:  # also when the chain ends too soon (a is None)
                return None
            a = parent[a]
        if a is not None:
            return None
        parent[v] = p
        depth[v] = len(earlier)
    return parent


def _tp_chains(cg: Graph):
    """solve_trivially_perfect's core for _solve_contracted."""
    parent = trivially_perfect_forest(cg)
    if parent is None:
        raise RuntimeError("twin contraction left the trivially perfect class")
    w = cg.weights
    best: dict[str, int] = {}
    low = {v: v for v in parent}  # smallest label in the subtree
    pick: dict[str, str] = {}  # the child each chain continues into
    for v in reversed(parent):
        best[v] = w[v] + (best[pick[v]] if v in pick else 0)
        p = parent[v]
        if p is not None:
            low[p] = min(low[p], low[v])
            q = pick.get(p)
            if q is None or (-best[v], low[v]) < (-best[q], low[q]):
                pick[p] = v
    above: dict[str, list[str]] = {}  # the members of v's chain above v
    for v, p in parent.items():
        above[v] = above[p] + [p] if pick.get(p) == v else []
    strong_c = {canon_edge(a, v) for v in parent for a in above[v]}
    value_c = sum(w[v] * (best[v] - w[v]) for v in parent)
    return strong_c, value_c, {"conflict_nodes": cg.m}, {"independent_set": sorted(strong_c)}


def solve_trivially_perfect(g: Graph) -> SolveResult:
    """Polynomial solve for trivially perfect ((P4, C4)-free) graphs.

    On the forest of the twin-contracted graph (trivially_perfect_forest),
    a vertex's strong neighbours form a clique exactly when its strong
    descendants lie on one downward path. Counting each strong edge at its
    upper end, v contributes w(v) times the weight of its strong
    descendants, at most w(v) * (best(v) - w(v)) with best(v) the heaviest
    chain down from v. Cutting the forest into long paths, each vertex
    continuing its chain into the child of largest best, meets every bound
    at once. The chains are cliques, so this is the greedy peeling of
    maximum cliques that solves cluster deletion on cographs (Gao, Hare &
    Nastos, Discrete Math 2013), and here MaxSTC equals cluster deletion.
    Ties go to the child whose subtree holds the smallest label: the
    optimum that the conflict graph's cograph MWIS picks, taking the join
    part with the smallest edge.
    """
    if not g.is_unit_weight():
        raise ValueError("solve_trivially_perfect expects a unit-weight graph")
    if trivially_perfect_forest(g) is None:
        kind, quad = find_p4_or_c4(g)
        raise WrongClassError(f"not trivially perfect: induced {kind} on {quad}")
    return _solve_contracted(g, "trivially-perfect", _tp_chains)


# ---------------------------------------------------------------------------
# bipartite graphs: maximum matching
# ---------------------------------------------------------------------------


def _color_or_odd_cycle(g: Graph) -> dict[str, int] | list[str]:
    """Breadth-first 2-coloring, components in label order and neighbours in
    label order: the coloring, or at the first edge inside one color class
    the vertices of an odd cycle through it."""
    colors: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    for v in g.vertices:
        if v in colors:
            continue
        colors[v] = 0
        parent[v] = None
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in sorted(g.neighbors(x)):
                if y not in colors:
                    colors[y] = 1 - colors[x]
                    parent[y] = x
                    queue.append(y)
                elif colors[y] == colors[x]:
                    # same color means same BFS depth: walk both ancestries
                    # to the meeting point
                    up_x, up_y = [x], [y]
                    ax, ay = x, y
                    while ax != ay:
                        ax = parent[ax]  # type: ignore[assignment]
                        ay = parent[ay]  # type: ignore[assignment]
                        up_x.append(ax)
                        up_y.append(ay)
                    return up_x + list(reversed(up_y[:-1]))
    return colors


def two_coloring(g: Graph) -> dict[str, int] | None:
    """A proper 2-coloring, or None when some component has an odd cycle."""
    found = _color_or_odd_cycle(g)
    return found if isinstance(found, dict) else None


def find_odd_cycle(g: Graph) -> list[str] | None:
    """Vertices of an odd cycle when the graph is not bipartite."""
    found = _color_or_odd_cycle(g)
    return found if isinstance(found, list) else None


def maximum_matching(g: Graph, colors: dict[str, int]) -> frozenset[Edge]:
    """Maximum matching of a 2-colored graph via augmenting paths.

    Each color-0 vertex, in label order, runs one depth-first search for an
    augmenting path that tries neighbours in label order and visits each
    color-1 vertex at most once. The search keeps an explicit stack, so the
    path length is not bounded by the interpreter's recursion limit.
    """
    match: dict[str, str] = {}
    nbrs = {u: sorted(g.neighbors(u)) for u in g.vertices if colors[u] == 0}
    for root in sorted(nbrs):
        seen: set[str] = set()
        # stack[i] = (color-0 vertex, its untried neighbours); path[i] is the
        # matched neighbour stack[i] currently tries to take over
        stack = [(root, iter(nbrs[root]))]
        path: list[str] = []
        while stack:
            u, untried = stack[-1]
            for v in untried:
                if v in seen:
                    continue
                seen.add(v)
                if v not in match:
                    match[v] = u
                    for (w, _), x in zip(stack, path):
                        match[x] = w
                    stack.clear()
                    break
                path.append(v)
                stack.append((match[v], iter(nbrs[match[v]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
    return frozenset(canon_edge(u, v) for v, u in match.items())


def solve_bipartite(g: Graph) -> SolveResult:
    """Polynomial solve for bipartite graphs: the optimum is a maximum
    matching (no triangles means any two adjacent strong edges conflict)."""
    if not g.is_unit_weight():
        raise ValueError("solve_bipartite expects a unit-weight graph")
    t0 = time.perf_counter()
    colors = two_coloring(g)
    if colors is None:
        raise WrongClassError("not bipartite")
    matching = maximum_matching(g, colors)
    stats = {
        "matching_size": len(matching),
        "time_ms": (time.perf_counter() - t0) * 1000.0,
    }
    cert = {
        "coloring": {v: colors[v] for v in g.vertices},
        "matching": sorted(matching),
    }
    lab = StrongWeakLabeling.from_strong(g, matching)
    return _finish(g, lab, "bipartite-matching", stats, cert)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def solve_auto(g: Graph, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SolveResult:
    """Pick a solver: trivially perfect (checked on the whole graph; the class
    is closed under disjoint union), then per component proper interval,
    bipartite, and finally the brute-force oracle under its cap. Each
    component goes to the class solvers in that order and is classified
    once, by the first solver that accepts it."""
    if not g.is_unit_weight():
        raise ValueError("solve_auto expects a unit-weight graph")
    with suppress(WrongClassError):
        return solve_trivially_perfect(g)
    t0 = time.perf_counter()
    strong: set[Edge] = set()
    tags: list[str] = []
    per_comp: dict[str, str] = {}
    for comp in g.connected_components():
        # each class solver recognizes its input once and refuses it with
        # WrongClassError, so trying them in turn classifies the component
        for route in (solve_pig_dp, solve_bipartite):
            try:
                res = route(comp)
                break
            except WrongClassError:
                pass
        else:
            if comp.m > oracle_cap:
                raise UnsupportedInstanceError(
                    f"component with {comp.m} edges fits no class and exceeds "
                    f"the oracle cap {oracle_cap}"
                )
            res = solve_oracle(comp, cap=oracle_cap)
        strong |= res.labeling.strong
        tags.append(res.solver)
        per_comp[comp.vertices[0]] = res.solver
    solver = tags[0] if len(set(tags)) == 1 else "mixed"
    stats = {
        "components": len(per_comp),
        "component_solvers": per_comp,
        "time_ms": (time.perf_counter() - t0) * 1000.0,
    }
    # a wedge's three vertices lie in one component and each component's
    # labeling passed validate_stc in its solver, so the union is valid
    lab = StrongWeakLabeling.from_strong(g, strong)
    return SolveResult(lab.value, lab, solver, stats, {"dispatch": per_comp})
