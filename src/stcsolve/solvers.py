"""Exact solvers for maximum strong triadic closure.

Every solver returns the optimal number of strong edges (unit-weight terms)
together with a witness labeling that is re-validated before it is returned.
The brute-force oracle works on any graph whose conflict graph fits under the
node cap; the class solvers are polynomial on proper interval, trivially
perfect, and bipartite inputs respectively, and refuse anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, canon_edge, contract_twins
from .incompat import (
    IncompatGraph,
    StrongWeakLabeling,
    build_incompat,
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
    stats: dict
    certificate: dict


def _finish(g: Graph, lab: StrongWeakLabeling, solver: str, stats: dict,
            certificate: dict) -> SolveResult:
    """Validate the labeling and wrap it as the solver's result."""
    witness = validate_stc(g, lab)
    if witness is not None:
        raise RuntimeError(f"{solver} produced an invalid labeling, wedge {witness}")
    return SolveResult(lab.value, lab, solver, stats, certificate)


# ---------------------------------------------------------------------------
# brute-force maximum weighted independent set
# ---------------------------------------------------------------------------


class _BitGraph:
    """Bitmask view of a conflict graph's `IncompatGraph.adjacency()`, ordered
    for branch and bound: nodes by descending conflict degree (label order on
    ties), so the branching pivot is always the lowest set bit. The bound on
    `rest` adds the heaviest member of each clique of a greedy cover, built
    once, that meets it: an independent set has at most one node per clique,
    and on unit weights the bound counts those cliques. Both searches open
    every state with `settle`, which counts it in `states`.
    """

    def __init__(self, h: IncompatGraph):
        nbrs = h.adjacency()
        self.nodes = sorted(h.nodes, key=lambda e: (-len(nbrs[e]), e))
        self.weight = [h.node_weight[e] for e in self.nodes]
        bit = {e: 1 << i for i, e in enumerate(self.nodes)}
        self.adj = [sum(map(bit.__getitem__, nbrs[e])) for e in self.nodes]
        self.n = len(self.nodes)
        # lexicographic scan order over internal indices
        self.lex = sorted(range(self.n), key=lambda i: self.nodes[i])
        self.cover = self._clique_cover()
        self.states = 0

    def _clique_cover(self) -> list[tuple[int, list[int]]]:
        cover: list[list] = []  # [mask, members] per clique
        for i in range(self.n):
            ai = self.adj[i]
            for c in cover:
                if c[0] & ~ai == 0:  # i conflicts with every member
                    c[0] |= 1 << i
                    c[1].append(i)
                    break
            else:
                cover.append([1 << i, [i]])
        return [(cm, sorted(c, key=lambda i: -self.weight[i])) for cm, c in cover]

    def settle(self, rest: int, cur: int) -> tuple[int, int]:
        """Count a state, then take the lowest node of `rest` into `cur` for
        as long as it conflicts with nothing left in `rest`."""
        self.states += 1
        while rest:
            v = (rest & -rest).bit_length() - 1
            if self.adj[v] & rest:
                break
            cur += self.weight[v]
            rest &= ~(1 << v)
        return rest, cur

    def bound_reaches(self, rest: int, needed: int) -> bool:
        """True when the clique-cover bound on `rest` is at least `needed`."""
        acc = 0
        for cm, members in self.cover:
            if cm & rest:
                acc += self.weight[members[0]]
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


def _bb_max(bg: _BitGraph) -> int:
    best = bg.greedy()

    def dfs(rest: int, cur: int) -> None:
        nonlocal best
        rest, cur = bg.settle(rest, cur)
        if not rest:
            if cur > best:
                best = cur
            return
        if not bg.bound_reaches(rest, best + 1 - cur):
            return
        v = (rest & -rest).bit_length() - 1
        dfs(rest & ~(bg.adj[v] | (1 << v)), cur + bg.weight[v])
        dfs(rest & ~(1 << v), cur)

    dfs((1 << bg.n) - 1, 0)
    return best


def _bb_reaches(bg: _BitGraph, rest: int, cur: int, target: int) -> bool:
    """Decision variant: can `cur` plus an independent set inside `rest`
    reach `target`?"""
    rest, cur = bg.settle(rest, cur)
    if cur >= target:
        return True
    if not rest or not bg.bound_reaches(rest, target - cur):
        return False
    v = (rest & -rest).bit_length() - 1
    if _bb_reaches(bg, rest & ~(bg.adj[v] | (1 << v)), cur + bg.weight[v], target):
        return True
    return _bb_reaches(bg, rest & ~(1 << v), cur, target)


def brute_mwis(
    h: IncompatGraph,
    cap: int = DEFAULT_ORACLE_CAP,
    force: bool = False,
    counters: dict | None = None,
) -> tuple[int, frozenset[Edge]]:
    """Exact maximum weighted independent set of a conflict graph.

    Among all optima the lexicographically smallest node set is returned:
    after the value is known, each node in label order is committed when some
    optimum holds it and every node committed before it. Refuses graphs with
    more than `cap` nodes unless `force` is set, and raises ValueError on a
    malformed conflict pair even when there are no nodes. When `counters`
    is given, `counters["bb_states"]` grows by the number of search states
    visited.
    """
    if len(h.nodes) > cap and not force:
        raise OracleCapError(
            f"conflict graph has {len(h.nodes)} nodes, cap is {cap}"
        )
    bg = _BitGraph(h)
    if not bg.n:
        return 0, frozenset()
    best = _bb_max(bg)
    chosen: list[Edge] = []
    cur = 0
    rest = (1 << bg.n) - 1
    for i in bg.lex:
        if not (rest >> i) & 1:
            continue
        taken = rest & ~(bg.adj[i] | (1 << i))
        if _bb_reaches(bg, taken, cur + bg.weight[i], best):
            chosen.append(bg.nodes[i])
            cur += bg.weight[i]
            rest = taken
        else:
            rest &= ~(1 << i)
    if cur != best:
        raise RuntimeError("witness extraction lost the optimum")
    if counters is not None:
        counters["bb_states"] = counters.get("bb_states", 0) + bg.states
    return best, frozenset(chosen)


def solve_oracle(
    g: Graph, cap: int = DEFAULT_ORACLE_CAP, force: bool = False
) -> SolveResult:
    """Brute-force solve via the conflict graph, whose nodes are g's edges
    weighted by edge weight, so brute_mwis's witness is the strong set. A
    graph with more edges than the cap is refused, unless forced, before
    its conflict graph is built."""
    if g.m > cap and not force:
        raise OracleCapError(f"conflict graph has {g.m} nodes, cap is {cap}")
    h = build_incompat(g)
    stats = {"nodes": len(h.nodes), "conflicts": len(h.conflicts), "bb_states": 0}
    value, sset = brute_mwis(h, cap, force, stats)
    lab = StrongWeakLabeling(sset, g.edges - sset, value)  # _finish validates it
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
    the scan costs O(n + m). Ties keep the smallest k. Growing the block by
    position k-1 adds that weight times the block's weight so far.
    """
    n = len(weights)
    best = [0] * (n + 1)
    nxt = [n] * n
    for i in range(n - 1, -1, -1):
        top = -1
        s = pairs = 0
        for k in range(i + 1, right[i] + 2):
            pairs += s * weights[k - 1]
            s += weights[k - 1]
            if pairs + best[k] > top:
                top, nxt[i] = pairs + best[k], k
        best[i] = top
    blocks = []
    i = 0
    while i < n:
        blocks.append((i, nxt[i]))
        i = nxt[i]
    return best[0], blocks


def solve_pig_dp(g: Graph) -> SolveResult:
    """Polynomial solve for proper interval graphs.

    Contract true twins, recognize an umbrella ordering of the contracted
    graph, cut the ordering into consecutive cliques of largest total
    weight (_clique_blocks) and make every block a strong clique. Every
    result is lifted to the input (lift_labeling), a twin-free input's too,
    whose classes are single vertices: an edge inside a twin class is
    always strong, because an optimal clustering keeps true twins together,
    and an edge between classes is strong when its contracted edge is.

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
    cg, tp, intra = contract_twins(g)
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
    lab = lift_labeling(g, tp.rep_of(), strong_c)
    stats = {"contracted_m": cg.m, "contracted_n": cg.n, "intra_twin_value": intra}
    cert = {"ordering": list(order), "contracted_strong": sorted(strong_c),
            "intra_twin_value": intra}
    result = _finish(g, lab, "pig-dp", stats, cert)
    assert result.value == value_c + intra
    return result


# ---------------------------------------------------------------------------
# trivially perfect graphs: chains of a rooted forest
# ---------------------------------------------------------------------------


def find_p4_or_c4(g: Graph) -> tuple[str, tuple[str, str, str, str]] | None:
    """First induced P4 or C4 (as ("P4"|"C4", (a, b, c, d)) along the path),
    or None. Scans middles: an edge bc with a in N(b)-N[c] and d in N(c)-N[b]
    always yields one of the two patterns on {a, b, c, d}; a and d exist
    unless N[b] and N[c] nest, a test at the smaller degree. A component
    with a forest has no such edge, so its vertices are skipped."""
    comps = g.connected_components()
    skip = {v for c in comps if len(comps) > 1 and trivially_perfect_forest(c) is not None
            for v in c.vertices}
    for b in g.vertices:  # edges in sorted order, without sorting them all
        if b in skip:
            continue
        nb = g.neighbors(b)
        for c in sorted(x for x in nb if x > b):
            nc = g.neighbors(c)
            small, large = (nc, nb) if len(nc) <= len(nb) else (nb, nc)
            if len(small - large) == 1:  # only the other end: N[b], N[c] nest
                continue
            a, d = min(nb - nc - {c}), min(nc - nb - {b})
            return ("C4" if g.has_edge(a, d) else "P4", (a, b, c, d))
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


def _solve_on_forest(g: Graph, parent: dict[str, str | None]) -> SolveResult:
    """solve_trivially_perfect on g's forest, once it is built."""
    best: dict[str, int] = {}  # the length of the longest chain down from v
    low = {v: v for v in parent}  # smallest label in the subtree
    pick: dict[str, str] = {}  # the child each chain continues into
    for v in reversed(parent):
        best[v] = 1 + (best[pick[v]] if v in pick else 0)
        p = parent[v]
        if p is not None:
            low[p] = min(low[p], low[v])
            q = pick.get(p)
            if q is None or (-best[v], low[v]) < (-best[q], low[q]):
                pick[p] = v
    above: dict[str, list[str]] = {}  # the members of v's chain above v
    for v, p in parent.items():
        above[v] = above[p] + [p] if pick.get(p) == v else []
    strong = frozenset(canon_edge(a, v) for v in parent for a in above[v])
    lab = StrongWeakLabeling(strong, g.edges - strong, len(strong))
    assert lab.value == sum(best.values()) - len(best)
    cg, _tp, intra = contract_twins(g)
    stats = {"conflict_nodes": cg.m, "contracted_n": cg.n, "intra_twin_value": intra}
    return _finish(g, lab, "trivially-perfect", stats, {"forest": parent})


def solve_trivially_perfect(g: Graph) -> SolveResult:
    """Polynomial solve for trivially perfect ((P4, C4)-free) graphs.

    On the forest of g (trivially_perfect_forest), a vertex's strong
    neighbours form a clique exactly when its strong descendants lie on one
    downward path. Counting each strong edge at its upper end, v
    contributes its number of strong descendants, at most best(v) - 1 with
    best(v) the longest chain down from v. Cutting the forest into long
    paths, each vertex continuing its chain into the child of largest best,
    meets every bound at once. The chains are cliques, so this is the
    greedy peeling of maximum cliques that solves cluster deletion on
    cographs (Gao, Hare & Nastos, Discrete Math 2013), and here MaxSTC
    equals cluster deletion. Ties go to the child whose subtree holds the
    smallest label: the optimum that the conflict graph's cograph MWIS
    picks, taking the join part with the smallest edge. A vertex that is
    its parent's only child is the parent's true twin and always continues
    its chain, so true twins end up in one strong clique.

    The stats report the sizes of g's twin contraction (contract_twins);
    the certificate is the forest, whose ancestor-descendant pairs are
    exactly g's edges.
    """
    if not g.is_unit_weight():
        raise ValueError("solve_trivially_perfect expects a unit-weight graph")
    parent = trivially_perfect_forest(g)
    if parent is None:
        kind, quad = find_p4_or_c4(g)
        raise WrongClassError(f"not trivially perfect: induced {kind} on {quad}")
    return _solve_on_forest(g, parent)


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
        queue = [v]
        for x in queue:
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
    color-1 vertex at most once. It keeps an explicit stack of frames (u,
    untried, via): a color-0 vertex, its neighbours not yet tried, and the
    matched neighbour it was reached through (None at the root), so the
    path length is not bounded by the interpreter's recursion limit.
    """
    match: dict[str, str] = {}
    nbrs = {u: sorted(g.neighbors(u)) for u in g.vertices if colors[u] == 0}
    for root in nbrs:  # built in g.vertices order, so sorted
        seen: set[str] = set()
        stack = [(root, iter(nbrs[root]), None)]
        while stack:
            u, untried, _ = stack[-1]
            for v in untried:
                if v in seen:
                    continue
                seen.add(v)
                if v not in match:
                    match[v] = u
                    for (w, _, _), (_, _, x) in zip(stack, stack[1:]):
                        match[x] = w
                    stack.clear()
                    break
                stack.append((match[v], iter(nbrs[match[v]]), v))
                break
            else:
                stack.pop()
    return frozenset(canon_edge(u, v) for v, u in match.items())


def _solve_on_coloring(g: Graph, colors: dict[str, int]) -> SolveResult:
    """solve_bipartite on g's 2-coloring, once it is made."""
    matching = maximum_matching(g, colors)
    lab = StrongWeakLabeling(matching, g.edges - matching, len(matching))
    cert = {"coloring": {v: colors[v] for v in g.vertices}, "matching": sorted(matching)}
    return _finish(g, lab, "bipartite-matching", {"matching_size": len(matching)}, cert)


def solve_bipartite(g: Graph) -> SolveResult:
    """Polynomial solve for bipartite graphs, by _solve_on_coloring: the optimum
    is a maximum matching (no triangles: any two adjacent strong edges conflict)."""
    if not g.is_unit_weight():
        raise ValueError("solve_bipartite expects a unit-weight graph")
    colors = two_coloring(g)
    if colors is None:
        raise WrongClassError("not bipartite")
    return _solve_on_coloring(g, colors)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def solve_auto(g: Graph, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SolveResult:
    """Pick a solver: trivially perfect (the whole graph's forest is built
    once and solved on when it exists; the class is closed under disjoint
    union), then per component proper interval for a path or a component
    with an odd cycle, and the matching for every other one: a connected
    bipartite graph is proper interval exactly when it is a path, since a
    vertex of degree 3 or more centres a claw and a shortest cycle is an
    induced even cycle. A component that is not a path is 2-colored once
    and the matching reads that coloring (_solve_on_coloring). A component
    the proper interval solver refuses goes to the brute-force oracle under
    its cap; one with more edges than the cap gets its own forest before it
    is refused. An isolated vertex is only recorded, as "pig-dp". No P4 or
    C4 witness is searched for: nothing prints it."""
    if not g.is_unit_weight():
        raise ValueError("solve_auto expects a unit-weight graph")
    parent = trivially_perfect_forest(g)
    if parent is not None:
        return _solve_on_forest(g, parent)
    strong: set[Edge] = set()
    per_comp: dict[str, str] = {}
    for comp in g.connected_components():
        if comp.n == 1:  # no edge to label
            per_comp[comp.vertices[0]] = "pig-dp"
            continue
        # a bipartite non-path holds a claw or an induced even cycle: not PIG
        path = comp.m < comp.n and all(comp.degree(v) <= 2 for v in comp.vertices)
        colors = None if path else two_coloring(comp)
        try:
            res = solve_pig_dp(comp) if colors is None else _solve_on_coloring(comp, colors)
        except WrongClassError:  # only solve_pig_dp refuses, on an odd cycle
            if comp.m <= oracle_cap:
                res = solve_oracle(comp, cap=oracle_cap)
            elif (forest := trivially_perfect_forest(comp)) is not None:
                res = _solve_on_forest(comp, forest)  # too big for the oracle
            else:
                raise UnsupportedInstanceError(
                    f"component with {comp.m} edges fits no class and exceeds "
                    f"the oracle cap {oracle_cap}"
                )
        strong |= res.labeling.strong
        per_comp[comp.vertices[0]] = res.solver
    kinds = set(per_comp.values())  # not empty: the empty graph has a forest
    solver = kinds.pop() if len(kinds) == 1 else "mixed"
    stats = {"components": len(per_comp), "component_solvers": per_comp}
    # a wedge's three vertices lie in one component and each component's
    # labeling passed validate_stc in its solver, so the union is valid
    lab = StrongWeakLabeling(frozenset(strong), g.edges - strong, len(strong))
    return SolveResult(lab.value, lab, solver, stats, {"dispatch": per_comp})
