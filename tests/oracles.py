"""Independent reference implementations the tests check the library against.

Everything here is written straight from definitions, on purpose: validity of
a strong-edge set is the neighborhood-clique condition, optima come from
enumerating all labelings, ordering existence from searching permutations.
None of it shares code with the package.
"""

import json
import random
from collections import deque
from itertools import combinations
from typing import NamedTuple, Sequence

from stcsolve import (
    Graph,
    IncompatGraph,
    ParseError,
    SolveResult,
    StrongWeakLabeling,
    TwinPartition,
    UnsupportedInstanceError,
    WrongClassError,
    build_incompat,
    canon_edge,
    contract_twins,
    recognize,
    solve_bipartite,
    solve_oracle,
    solve_pig_dp,
    trivially_perfect_forest,
)
from stcsolve.incompat import canon_pair, lift_labeling
from stcsolve.solvers import _solve_on_forest


def strong_set_valid(g: Graph, strong) -> bool:
    """A strong set is valid when every vertex's strong neighbors are
    pairwise adjacent."""
    nbrs = {v: set() for v in g.vertices}
    for u, v in strong:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for sn in nbrs.values():
        for a, b in combinations(sorted(sn), 2):
            if not g.has_edge(a, b):
                return False
    return True


def enumerate_optimum(g: Graph) -> int:
    """Best strong weight over all 2^m labelings. Small graphs only."""
    edges = sorted(g.edges)
    best = 0
    for bits in range(1 << len(edges)):
        strong = [e for i, e in enumerate(edges) if (bits >> i) & 1]
        if strong_set_valid(g, strong):
            best = max(best, sum(g.edge_weight(u, v) for u, v in strong))
    return best


def umbrella_exists(g: Graph) -> bool:
    """Search all orderings, pruning prefixes that already break the
    umbrella condition (a violation never heals by appending)."""
    vs = list(g.vertices)

    def ok_with_last(prefix) -> bool:
        k = len(prefix) - 1
        for i in range(k - 1):
            if g.has_edge(prefix[i], prefix[k]):
                for j in range(i + 1, k):
                    if not g.has_edge(prefix[i], prefix[j]) or not g.has_edge(
                        prefix[j], prefix[k]
                    ):
                        return False
        return True

    def extend(prefix, rest) -> bool:
        if not rest:
            return True
        for v in rest:
            prefix.append(v)
            if ok_with_last(prefix) and extend(prefix, rest - {v}):
                return True
            prefix.pop()
        return False

    return extend([], set(vs))


def verify_umbrella_reference(g: Graph, order) -> tuple | None:
    """The first violating triple by gap sets: for each position in turn,
    the first non-neighbour between it and its farthest right neighbour,
    then the first between its farthest left neighbour and it."""
    order = tuple(order)
    if len(order) != g.n or set(order) != set(g.vertices):
        raise ValueError("order is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        right = [pos[u] for u in g.neighbors(v) if pos[u] > i]
        if right:
            k = max(right)
            rset = set(right)
            for j in range(i + 1, k):
                if j not in rset:
                    return (v, order[j], order[k])
        left = [pos[u] for u in g.neighbors(v) if pos[u] < i]
        if left:
            l = min(left)
            lset = set(left)
            for j in range(l + 1, i):
                if j not in lset:
                    return (order[l], order[j], v)
    return None


def reaches_reference(g: Graph, order) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Smallest and largest position of each closed neighbourhood."""
    pos = {v: i for i, v in enumerate(order)}
    left, right = [], []
    for i, v in enumerate(order):
        ps = [pos[u] for u in g.neighbors(v)]
        left.append(min(ps + [i]))
        right.append(max(ps + [i]))
    return tuple(left), tuple(right)


def max_set_packing(triplets) -> int:
    """Largest pairwise-disjoint subfamily, by checking every subfamily."""
    fam = list(triplets)
    best = 0
    for bits in range(1 << len(fam)):
        chosen = [fam[i] for i in range(len(fam)) if (bits >> i) & 1]
        if all(not (a & b) for a, b in combinations(chosen, 2)):
            best = max(best, len(chosen))
    return best


def find_induced_p4(nodes, adj) -> tuple | None:
    """An induced 4-vertex path in an arbitrary adjacency structure, or None.

    Checks every 4-subset for the degree pattern of a path: exactly three
    edges and no vertex seeing all the others.
    """
    items = sorted(nodes)
    for quad in combinations(items, 4):
        inside = [
            (u, v) for u, v in combinations(quad, 2) if v in adj[u]
        ]
        if len(inside) != 3:
            continue
        deg = {v: 0 for v in quad}
        for u, v in inside:
            deg[u] += 1
            deg[v] += 1
        if sorted(deg.values()) == [1, 1, 2, 2]:
            ends = [v for v in quad if deg[v] == 1]
            if ends[1] not in adj[ends[0]]:
                return quad
    return None


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(n)]
    pairs = list(combinations(labels, 2))
    chosen = rng.sample(pairs, min(m, len(pairs)))
    return Graph(labels, chosen)


def random_bipartite(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(n)]
    left = set(rng.sample(labels, rng.randint(0, n)))
    cross = [
        (u, v)
        for u, v in combinations(labels, 2)
        if (u in left) != (v in left) and rng.random() < 0.5
    ]
    return Graph(labels, cross)


def random_sparse_bipartite(n: int, avg_degree: float, seed: int, connected: bool = False) -> Graph:
    """Random bipartite graph with about n * avg_degree / 2 edges and
    shuffled labels. With `connected`, every vertex but the first is first
    tied to a random earlier vertex of the other side, a spanning tree."""
    rng = random.Random(seed)
    width = len(str(max(n - 1, 0)))
    labels = [f"v{i:0{width}d}" for i in range(n)]
    rng.shuffle(labels)
    sides = (labels[0::2], labels[1::2])
    edges = set()
    if connected:
        for i in range(1, n):
            j = rng.randrange(1 - i % 2, i, 2)  # earlier, other side
            edges.add(tuple(sorted((labels[i], labels[j]))))
    target = min(round(n * avg_degree / 2), len(sides[0]) * len(sides[1]))
    while len(edges) < target:
        edges.add(tuple(sorted((rng.choice(sides[0]), rng.choice(sides[1])))))
    return Graph(labels, edges)


def planted_twin_graph(seed: int, max_total: int = 9) -> tuple[Graph, list[list[str]]]:
    """A graph built by blowing base vertices up into clique classes.

    Members of a class share a closed neighborhood by construction, so the
    planted classes are true twins (possibly merged further when base
    vertices happen to be twins themselves).
    """
    rng = random.Random(seed)
    base_n = rng.randint(2, 4)
    base = [f"b{i}" for i in range(base_n)]
    base_edges = [(u, v) for u, v in combinations(base, 2) if rng.random() < 0.5]
    sizes = [rng.randint(1, 3) for _ in base]
    while sum(sizes) > max_total:
        sizes[sizes.index(max(sizes))] -= 1
    classes = [[f"{b}x{j}" for j in range(sz)] for b, sz in zip(base, sizes)]
    vertices = [v for cls in classes for v in cls]
    edges = []
    for cls in classes:
        edges.extend(combinations(cls, 2))
    for (u, v) in base_edges:
        cu, cv = classes[base.index(u)], classes[base.index(v)]
        edges.extend((a, b) for a in cu for b in cv)
    return Graph(vertices, edges), classes


def lexbfs_reference(g: Graph, vertices, prev=None) -> list[str]:
    """One LexBFS sweep over `vertices` by rescanning every group for every
    pivot, O(n^2): the sweep `stcsolve.ordering` used before partition
    refinement.

    Ties inside the first label group break lexicographically on the first
    sweep, and by latest position in the previous sweep afterwards (the
    plus-rule). Groups keep their internal priority order across splits.
    """
    if prev is None:
        groups = [sorted(vertices)]
    else:
        rank = {v: i for i, v in enumerate(prev)}
        groups = [sorted(vertices, key=lambda v: -rank[v])]
    if not groups[0]:  # no vertices: an empty sweep
        return []
    out = []
    while groups:
        head = groups[0]
        v = head.pop(0)
        if not head:
            groups.pop(0)
        out.append(v)
        nv = g.neighbors(v)
        split = []
        for grp in groups:
            ins = [x for x in grp if x in nv]
            outs = [x for x in grp if x not in nv]
            if ins:
                split.append(ins)
            if outs:
                split.append(outs)
        groups = split
    return out


def lexbfs_partition_reference(g: Graph, prev: Sequence[str] | None = None) -> list[str]:
    """One LexBFS sweep over all of g, by partition refinement, as
    `stcsolve.ordering._lexbfs` was written with live group sizes and
    adjacency lists sorted on every sweep.

    The unvisited vertices sit in a list of groups of equal LexBFS label,
    best label first. The next pivot is the first vertex of the first
    group, and each pivot splits every group stably, moving its neighbours
    into a new group just before the rest. Ties break by a priority order:
    label order on the first sweep, latest position in `prev` afterwards
    (the classic plus-rule). Because every split is stable, each group lists
    its members in priority order, so each adjacency list is sorted by
    priority once and each pivot moves its unvisited neighbours in that
    order, appending each to the front group split off its old group. A
    pivot touches only its own adjacency list: O(n + m log n) per sweep.
    """
    order = list(g.vertices) if prev is None else list(reversed(prev))
    rank = {v: i for i, v in enumerate(order)}
    # vertices are their priority ranks from here on
    adj = [sorted(rank[u] for u in g.neighbors(v)) for v in order]
    n = len(order)
    group_of = [0] * n  # group id per vertex, -1 once visited
    # per group: members in priority order (stale entries of vertices that
    # moved on are skipped lazily), first live index, live size, links
    members: list[list[int]] = [list(range(n))]
    head = [0]
    size = [n]
    before = [-1]
    after = [-1]
    first = 0 if n else -1
    out: list[str] = []
    while first >= 0:
        grp = first
        mem = members[grp]
        i = head[grp]
        while group_of[mem[i]] != grp:
            i += 1
        v = mem[i]
        head[grp] = i + 1
        group_of[v] = -1
        out.append(order[v])
        size[grp] -= 1
        if not size[grp]:
            first = after[grp]
            if first >= 0:
                before[first] = -1
        split: dict[int, int] = {}  # old group -> its front part this pivot
        for w in adj[v]:
            old = group_of[w]
            if old < 0:
                continue
            new = split.get(old)
            if new is None:
                new = split[old] = len(members)
                members.append([])
                head.append(0)
                size.append(0)
                prev_grp = before[old]
                before.append(prev_grp)
                after.append(old)
                before[old] = new
                if prev_grp >= 0:
                    after[prev_grp] = new
                else:
                    first = new
            members[new].append(w)
            group_of[w] = new
            size[new] += 1
            size[old] -= 1
            if not size[old]:
                b, a = before[old], after[old]
                after[b] = a  # old has its front part before it
                if a >= 0:
                    before[a] = b
    return out


def twin_classes_reference(g: Graph) -> TwinPartition:
    """Group vertices by closed neighborhood.

    Two distinct vertices share a closed neighborhood exactly when they are
    adjacent and see the same vertices elsewhere (true twins), so this is the
    true-twin partition. `stcsolve.graph.twin_classes` as it was first
    written: classes sorted by smallest member, which represents each.
    """
    by_nbhd: dict[frozenset[str], list[str]] = {}
    for v in g.vertices:
        key = g.neighbors(v) | {v}
        by_nbhd.setdefault(frozenset(key), []).append(v)
    classes = sorted((frozenset(c) for c in by_nbhd.values()), key=min)
    return TwinPartition(tuple(classes), tuple(min(c) for c in classes))


def component_vertex_sets(g: Graph) -> list[list[str]]:
    """Vertex sets of the connected components, each sorted, in order of
    their smallest label."""
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for y in g.neighbors(stack.pop()):
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def candidate_order_reference(g: Graph) -> tuple[str, ...]:
    """Three reference sweeps (the last two plus-rule) of each component on
    its own, components laid out in smallest-label order."""
    full = []
    for vs in component_vertex_sets(g):
        comp = g.induced_subgraph(vs)
        s1 = lexbfs_reference(comp, vs)
        s2 = lexbfs_reference(comp, vs, prev=s1)
        full.extend(lexbfs_reference(comp, vs, prev=s2))
    return tuple(full)


def matching_reference(g: Graph, colors) -> frozenset:
    """Recursive augmenting-path matching: each color-0 vertex in label
    order searches depth first, neighbours in label order, with one seen set
    per search. Recursion depth grows with the augmenting path, so keep the
    inputs small."""
    match = {}

    def augment(u, seen) -> bool:
        for v in sorted(g.neighbors(u)):
            if v in seen:
                continue
            seen.add(v)
            if v not in match or augment(match[v], seen):
                match[v] = u
                return True
        return False

    for u in sorted(v for v in g.vertices if colors[v] == 0):
        augment(u, set())
    return frozenset(tuple(sorted((u, v))) for v, u in match.items())


def matching_size(g: Graph) -> int:
    """Size of a maximum matching of a bipartite graph by Hopcroft-Karp
    (SIAM J. Comput. 1973), written without recursion: alternate BFS layers
    from the free left vertices and depth-first augmentation along them."""
    side = {}
    for start in g.vertices:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in side:
                    side[y] = 1 - side[x]
                    stack.append(y)
    left = [v for v in g.vertices if side[v] == 0]
    mate = {}
    size = 0
    while True:
        dist = {u: 0 for u in left if u not in mate}
        queue = list(dist)
        found = False
        for u in queue:
            for v in g.neighbors(u):
                w = mate.get(v)
                if w is None:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return size
        done = set()
        for root in left:
            if root in mate or root in done:
                continue
            done.add(root)
            stack = [(root, iter(g.neighbors(root)))]
            chosen = []
            while stack:
                u, it = stack[-1]
                for v in it:
                    w = mate.get(v)
                    if w is None:
                        chosen.append(v)
                        for (a, _), b in zip(stack, chosen):
                            mate[a], mate[b] = b, a
                        size += 1
                        stack = []
                        break
                    if w not in done and dist.get(w) == dist[u] + 1:
                        done.add(w)
                        chosen.append(v)
                        stack.append((w, iter(g.neighbors(w))))
                        break
                else:
                    stack.pop()
                    if chosen:
                        chosen.pop()


def _components_of(nodes, adj) -> list[list]:
    seen = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y in comp or y not in nodes:
                    continue
                comp.add(y)
                queue.append(y)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def cograph_mwis_reference(h) -> tuple[int, frozenset]:
    """Maximum weighted independent set of a cograph by modular recursion:
    sum over components, maximum over join parts (the first part, in order
    of smallest node, on ties). The trivially perfect solver used this on
    the conflict graph before it moved to the forest model. Raises
    ValueError on a subgraph that is neither a union nor a join."""
    adj = h.adjacency()

    def rec(nodes):
        if len(nodes) == 1:
            return h.node_weight[nodes[0]], frozenset(nodes)
        nodeset = set(nodes)
        comps = _components_of(nodeset, adj)
        if len(comps) > 1:
            val = 0
            out = set()
            for comp in comps:
                v, s = rec(comp)
                val += v
                out |= s
            return val, frozenset(out)
        co_adj = {x: (nodeset - adj[x]) - {x} for x in nodes}
        cocomps = _components_of(nodeset, co_adj)
        if len(cocomps) == 1:
            raise ValueError("conflict graph is not a cograph")
        best = None
        for part in cocomps:
            v, s = rec(part)
            if best is None or v > best[0]:
                best = (v, s)
        return best

    if not h.nodes:
        return 0, frozenset()
    return rec(sorted(h.nodes))


def bitgraph_reference(h) -> tuple[list, list, list, list, list]:
    """Nodes, weights, conflict bits, lexicographic scan order and clique
    cover of the oracle's bit graph, built as `stcsolve.solvers._BitGraph`
    built them before it read `IncompatGraph.adjacency()`: degrees and bits
    from two scans of the conflict pairs, the cover from two parallel lists.
    Equal to the package's view on conflict sets of canonical pairs of
    distinct nodes."""
    deg = dict.fromkeys(h.nodes, 0)
    for a, b in h.conflicts:
        deg[a] += 1
        deg[b] += 1
    nodes = sorted(h.nodes, key=lambda e: (-deg[e], e))
    weight = [h.node_weight[e] for e in nodes]
    idx = {e: i for i, e in enumerate(nodes)}
    adj = [0] * len(nodes)
    for a, b in h.conflicts:
        ia, ib = idx[a], idx[b]
        adj[ia] |= 1 << ib
        adj[ib] |= 1 << ia
    n = len(nodes)
    lex = sorted(range(n), key=lambda i: nodes[i])
    cliques: list[list[int]] = []
    masks: list[int] = []
    for i in range(n):
        ai = adj[i]
        for c, cm in enumerate(masks):
            if cm & ~ai == 0:  # i conflicts with every member
                cliques[c].append(i)
                masks[c] |= 1 << i
                break
        else:
            cliques.append([i])
            masks.append(1 << i)
    cover = []
    for c, cm in zip(cliques, masks):
        members = sorted(c, key=lambda i: -weight[i])
        cover.append((cm, members))
    return nodes, weight, adj, lex, cover


def brute_mwis_reference(h) -> tuple[int, frozenset, int]:
    """Value, witness and visited-state count of the brute-force oracle as
    `stcsolve.solvers` searched before both searches shared one step: each
    search takes its own forced nodes and counts its states in a dict.

    It runs on the package's `_BitGraph` for the node order, clique-cover
    bound and greedy start, so it checks the search, not the bit graph."""
    from stcsolve.solvers import _BitGraph

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

    counters = {"bb_states": 0}
    if not h.nodes:
        return 0, frozenset(), counters["bb_states"]
    bg = _BitGraph(h)
    best = _bb_max(bg, counters)
    chosen = []
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
    return best, frozenset(chosen), counters["bb_states"]


def remaining_member_bound_reference(bg, rest: int, needed: int) -> bool:
    """The clique-cover bound as `stcsolve.solvers._BitGraph.bound_reaches`
    read it before it charged each clique its heaviest member: each cover
    clique that meets `rest` adds its heaviest member still in `rest`. On
    unit weights both bounds count the cliques that meet `rest`. Takes the
    bit graph as `self`, so it can stand in for the method."""
    acc = 0
    for cm, members in bg.cover:
        if cm & rest:
            for i in members:
                if (rest >> i) & 1:
                    acc += bg.weight[i]
                    break
            if acc >= needed:
                return True
    return False


def mwis_exhaustive_reference(h) -> tuple[int, frozenset]:
    """Maximum weight of an independent set of a conflict graph, found by
    listing every independent set, and the optimum that the brute-force
    oracle's commit rule picks: in label order, each node is committed when
    some optimum holds it and every node committed before it."""
    nodes = sorted(h.nodes)
    nbrs = {e: set() for e in nodes}
    for a, b in h.conflicts:
        nbrs[a].add(b)
        nbrs[b].add(a)
    sets = [frozenset()]
    for e in nodes:
        sets += [s | {e} for s in sets if not nbrs[e] & s]
    weights = [sum(h.node_weight[e] for e in s) for s in sets]
    best = max(weights)
    optima = [s for s, w in zip(sets, weights) if w == best]
    chosen: set = set()
    for e in nodes:
        if any(chosen | {e} <= s for s in optima):
            chosen.add(e)
    return best, frozenset(chosen)


def tp_strong_reference(g: Graph) -> frozenset:
    """Strong set the conflict-graph route picks on a trivially perfect
    graph: contract true twins, take the cograph MWIS of the contracted
    conflict graph, and make it and every intra-twin edge strong."""
    cg, tp, _intra = contract_twins(g)
    _value, sset = cograph_mwis_reference(build_incompat(cg))
    rep = tp.rep_of()
    return frozenset(
        (u, v) for u, v in g.edges
        if rep[u] == rep[v] or tuple(sorted((rep[u], rep[v]))) in sset
    )


def tp_contracted_reference(g: Graph) -> tuple[frozenset, frozenset, int, dict]:
    """The contract, solve and lift route solve_trivially_perfect took
    before it solved on g's own forest: contract true twins, build the
    forest of the contracted graph, peel its heaviest chains with the class
    sizes as weights (ties to the child whose subtree holds the smallest
    label) and lift the chains back to g. Returns the strong set, the weak
    set, the value and the stats without time_ms."""
    cg, tp, intra = contract_twins(g)
    parent = trivially_perfect_forest(cg)
    assert parent is not None, "contraction left the trivially perfect class"
    w = cg.weights
    best, low, pick = {}, {v: v for v in parent}, {}
    for v in reversed(parent):
        best[v] = w[v] + (best[pick[v]] if v in pick else 0)
        p = parent[v]
        if p is not None:
            low[p] = min(low[p], low[v])
            q = pick.get(p)
            if q is None or (-best[v], low[v]) < (-best[q], low[q]):
                pick[p] = v
    above = {}
    for v, p in parent.items():
        above[v] = above[p] + [p] if pick.get(p) == v else []
    strong_c = {canon_edge(a, v) for v in parent for a in above[v]}
    value_c = sum(w[v] * (best[v] - w[v]) for v in parent)
    lab = lift_labeling(g, tp.rep_of(), strong_c)
    assert lab.value == value_c + intra
    stats = {"conflict_nodes": cg.m, "contracted_n": cg.n, "intra_twin_value": intra}
    return lab.strong, lab.weak, lab.value, stats


def forest_graph(labels, parent) -> Graph:
    """Comparability graph of a rooted forest given by a parent array over
    indices (None at roots, parents before children): every vertex is
    adjacent to all its ancestors."""
    anc = []
    edges = []
    for i, p in enumerate(parent):
        anc.append([] if p is None else anc[p] + [p])
        edges.extend((labels[a], labels[i]) for a in anc[i])
    return Graph(labels, edges)


def long_path_value(parent) -> int:
    """MaxSTC optimum of the comparability graph of a rooted forest (parent
    array as in forest_graph): every vertex keeps strong the edges to the
    longest downward path below it, so the optimum is the sum of heights."""
    height = [0] * len(parent)
    for i in range(len(parent) - 1, -1, -1):
        p = parent[i]
        if p is not None:
            height[p] = max(height[p], height[i] + 1)
    return sum(height)


def random_forest_parents(n: int, seed: int, roots: int = 1) -> list:
    """Random parent array: the first `roots` vertices are roots, every
    later one hangs under a uniformly chosen earlier vertex."""
    rng = random.Random(seed)
    return [None if i < roots else rng.randrange(i) for i in range(n)]


def threshold_graph(n: int, seed: int) -> tuple[Graph, list]:
    """Random threshold graph with shuffled labels, plus the parent array of
    its forest. Vertices are added one at a time, each either isolated or
    dominating (adjacent to every earlier one); in the forest each vertex
    hangs under the earliest dominating vertex added after it, and the
    array lists vertices in reverse order of addition."""
    rng = random.Random(seed)
    labels = [f"h{i:0{len(str(n))}d}" for i in range(n)]
    rng.shuffle(labels)
    dominating = [rng.random() < 0.5 for _ in range(n)]
    edges = [(labels[j], labels[i]) for i in range(n) if dominating[i] for j in range(i)]
    parent = []
    following = None
    for i in range(n - 1, -1, -1):
        parent.append(None if following is None else n - 1 - following)
        if dominating[i]:
            following = i
    return Graph(labels, edges), parent


def first_open_wedge_reference(g: Graph, strong) -> tuple | None:
    """First open strong wedge (u, v, w) by scanning every vertex v in label
    order and every pair of its strong neighbours in label order; None when
    the strong set is valid."""
    nbrs = {v: [] for v in g.vertices}
    for u, v in strong:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in g.vertices:
        for u, w in combinations(sorted(nbrs[v]), 2):
            if not g.has_edge(u, w):
                return (u, v, w)
    return None


def p4_or_c4_reference(g: Graph):
    """First induced P4 or C4 over all edges bc sorted up front: a in
    N(b)-N[c] and d in N(c)-N[b], both in label order."""
    for b, c in sorted(g.edges):
        nb, nc = g.neighbors(b), g.neighbors(c)
        for a in sorted(nb - nc - {c}):
            for d in sorted(nc - nb - {b}):
                if a != d:
                    return ("C4" if g.has_edge(a, d) else "P4", (a, b, c, d))
    return None


class DpState(NamedTuple):
    """Positions are into the umbrella ordering of the contracted graph.

    The active prefix {a..b} is a clique whose internal edges are committed
    strong; no strong edge may leave the prefix for a position past r.
    """

    a: int
    b: int
    r: int


def pig_dp_reference(order, weights, right) -> tuple[int, list[tuple[int, int]]]:
    """The three-index DP solve_pig_dp ran before the clique-block DP.
    Memoized recursion whose depth grows with n, so keep the inputs under
    about 300 positions.

    Optimal strong-edge weight over an umbrella ordering, plus the chosen
    strong pairs as position tuples.

    Peeling the head of the prefix maximizes over how far the head's strong
    edges extend (the consecutive-strong form: a head is strong to a prefix
    of its right neighborhood). Closing a prefix at b == r commits all its
    internal edges and restarts cleanly after it.
    """
    n = len(order)
    pref = [0] * (n + 1)
    prefsq = [0] * (n + 1)
    for i, w in enumerate(weights):
        pref[i + 1] = pref[i] + w
        prefsq[i + 1] = prefsq[i] + w * w

    def head_edges(a: int, j: int) -> int:
        return weights[a] * (pref[j + 1] - pref[a + 1])

    def clique_value(a: int, b: int) -> int:
        s = pref[b + 1] - pref[a]
        sq = prefsq[b + 1] - prefsq[a]
        return (s * s - sq) // 2

    memo: dict[DpState, tuple[int, int | None]] = {}

    def fresh(p: int) -> int:
        if p >= n:
            return 0
        return solve(DpState(p, p, right[p]))

    def solve(st: DpState) -> int:
        got = memo.get(st)
        if got is not None:
            return got[0]
        a, b, r = st
        if b < r:
            best = -1
            bestj: int | None = None
            for j in range(b, r + 1):
                sub = fresh(a + 1) if j == a else solve(DpState(a + 1, j, r))
                val = sub + head_edges(a, j)
                if val > best:
                    best, bestj = val, j
            memo[st] = (best, bestj)
        elif r < n - 1:
            memo[st] = (fresh(r + 1) + clique_value(a, b), None)
        else:
            memo[st] = (clique_value(a, b), None)
        return memo[st][0]

    if n == 0:
        return 0, []
    total = fresh(0)

    strong: list[tuple[int, int]] = []
    st: DpState | None = DpState(0, 0, right[0])
    while st is not None:
        a, b, r = st
        _, j = memo[st]
        if b < r:
            assert j is not None
            strong.extend((a, t) for t in range(a + 1, j + 1))
            if j == a:
                st = DpState(a + 1, a + 1, right[a + 1]) if a + 1 < n else None
            else:
                st = DpState(a + 1, j, r)
        else:
            strong.extend(
                (s, t) for s in range(a, b + 1) for t in range(s + 1, b + 1)
            )
            nxt = b + 1
            st = DpState(nxt, nxt, right[nxt]) if nxt < n else None
    return total, strong


def pig_reference_value(g: Graph) -> int:
    """MaxSTC optimum of a proper interval graph by the three-index DP,
    one component at a time so the recursion stays as deep as the largest
    component: contract twins, run the DP on the umbrella ordering, add the
    intra-twin edges back."""
    total = 0
    for comp in g.connected_components():
        cg, _tp, intra = contract_twins(comp)
        o = recognize(cg)
        value, _pairs = pig_dp_reference(o.order, [cg.weights[v] for v in o.order], o.right_reach)
        total += value + intra
    return total


def unit_interval_edges(labels, lefts) -> list:
    """Edges of the intersection graph of unit intervals starting at
    `lefts`, by one sweep over the sorted starts: O(n + m)."""
    ranked = sorted(zip(lefts, labels))
    edges = []
    for i, (x, u) in enumerate(ranked):
        j = i + 1
        while j < len(ranked) and ranked[j][0] - x <= 1.0:
            edges.append((u, ranked[j][1]))
            j += 1
    return edges


def gen_random_proper_interval_reference(n: int, seed: int = 0, density: float = 0.5):
    """gen_random_proper_interval as it was first written: the same seeded
    left endpoints, and every one of the n(n-1)/2 pairs of intervals tested
    for overlap."""
    rng = random.Random(seed)
    width = max(len(str(max(n - 1, 0))), 2)
    labels = [f"u{i:0{width}d}" for i in range(n)]
    spread = (1.0 - density) * n
    lefts = {v: rng.uniform(0.0, spread) for v in labels}
    edges = [(u, v) for u, v in combinations(labels, 2) if abs(lefts[u] - lefts[v]) <= 1.0]
    return Graph(labels, edges)


def random_proper_interval_union(total: int, seed: int) -> Graph:
    """Disjoint union of small random unit interval graphs with `total`
    vertices in all; component j's labels start with its own prefix."""
    rng = random.Random(seed)
    labels, edges = [], []
    j = 0
    while len(labels) < total:
        size = min(rng.randint(3, 40), total - len(labels))
        part = [f"q{j:04d}_{i:02d}" for i in range(size)]
        spread = rng.uniform(0.1, 0.8) * size
        edges.extend(unit_interval_edges(part, [rng.uniform(0.0, spread) for _ in part]))
        labels.extend(part)
        j += 1
    return Graph(labels, edges)


def split_obstruction_reference(g: Graph) -> tuple[str, tuple[str, ...]]:
    """An induced 2K2, C4, or C5; one always exists in a non-split graph."""
    for quad in combinations(g.vertices, 4):
        pairs = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
        if len(pairs) == 2 and not (set(pairs[0]) & set(pairs[1])):
            return "2K2", pairs[0] + pairs[1]
        if len(pairs) == 4 and all(
            sum(v in p for p in pairs) == 2 for v in quad
        ):
            a = quad[0]
            p, q = sorted(v for v in quad if g.has_edge(a, v))
            (r,) = [v for v in quad if v not in (a, p, q)]
            return "C4", (a, p, r, q)
    for five in combinations(g.vertices, 5):
        pairs = [(u, v) for u, v in combinations(five, 2) if g.has_edge(u, v)]
        if len(pairs) == 5 and all(sum(v in p for p in pairs) == 2 for v in five):
            cycle = [five[0]]
            prev = None
            while len(cycle) < 5:
                nxt = min(
                    v
                    for v in five
                    if v != prev and v != cycle[-1] and g.has_edge(cycle[-1], v)
                )
                prev = cycle[-1]
                cycle.append(nxt)
            return "C5", tuple(cycle)
    raise RuntimeError("no split obstruction found in a non-split graph")


def random_graph_isolated_first(n: int, seed: int) -> Graph:
    """A random graph on n vertices whose 0 to 3 isolated vertices carry
    the smallest labels, so a scan in label order meets them first."""
    rng = random.Random(seed)
    k = rng.randint(0, min(3, n))
    labels = [f"v{i:02d}" for i in range(n)]
    density = rng.uniform(0.2, 0.8)
    edges = [(u, v) for u, v in combinations(labels[k:], 2) if rng.random() < density]
    return Graph(labels, edges)


def random_pseudo_split(seed: int, max_clique: int = 4, max_independent: int = 4) -> Graph:
    """A C5 complete to a clique and anticomplete to an independent set
    whose vertices see random clique vertices; the C5 labels sort last."""
    rng = random.Random(seed)
    clique = [f"c{i}" for i in range(rng.randint(0, max_clique))]
    indep = [f"s{i}" for i in range(rng.randint(0, max_independent))]
    cycle = [f"z{i}" for i in range(5)]
    rng.shuffle(cycle)
    edges = [(cycle[i], cycle[(i + 1) % 5]) for i in range(5)]
    edges += list(combinations(clique, 2))
    edges += [(u, z) for u in clique for z in cycle]
    edges += [(s, u) for s in indep for u in clique if rng.random() < 0.5]
    return Graph(clique + indep + cycle, edges)


def edge_toggles(g: Graph):
    """Every graph one vertex pair away from g: one edge removed or added."""
    for u, v in combinations(g.vertices, 2):
        edges = set(g.edges) ^ {(u, v)}
        yield Graph(g.vertices, edges)


def result_document_reference(result) -> str:
    """The solve output document through the general JSON encoder."""
    doc = {
        "value": result.value,
        "solver": result.solver,
        "strong": [list(e) for e in sorted(result.labeling.strong)],
        "weak": [list(e) for e in sorted(result.labeling.weak)],
        "stats": {k: v for k, v in result.stats.items() if k != "time_ms"},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_edge_list_reference(text: str) -> Graph:
    """Edge-list parsing that checks each line, then builds the graph
    through the public, fully checking Graph constructor."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()

    def declare(label: str) -> None:
        if label not in seen:
            seen.add(label)
            vertices.append(label)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError(
                    f"line {lineno}: vertex line needs exactly one label"
                )
            declare(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected two labels, got {len(tokens)}"
            )
        u, v = tokens
        if u == v:
            raise ParseError(f"line {lineno}: self-loop on {u!r}")
        e = canon_edge(u, v)
        if e in edge_seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        edge_seen.add(e)
        declare(u)
        declare(v)
        edges.append((u, v))

    return Graph(vertices, edges)


def labeling_pairs_reference(doc: dict, key: str) -> frozenset:
    """The canonical label pairs of one side of a parsed labeling document,
    each entry checked with isinstance and put in order by canon_edge."""
    pairs = doc[key]
    if not isinstance(pairs, list):
        raise ParseError(f"'{key}' must be a list of edge pairs")
    out = set()
    for item in pairs:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise ParseError(f"'{key}' entry {item!r} is not a label pair")
        out.add(canon_edge(*item))
    return frozenset(out)


def graph_invariant_violations(g: Graph) -> list[str]:
    """What a Graph must satisfy, however it was built: sorted distinct
    vertices, canonical edges between them, a symmetric adjacency that
    holds exactly the edges, and a positive integer weight per vertex."""
    out = []
    vs = set(g.vertices)
    if not isinstance(g.vertices, tuple) or list(g.vertices) != sorted(vs):
        out.append("vertices are not a sorted tuple of distinct labels")
    if not isinstance(g.edges, frozenset):
        out.append("edges are not a frozenset")
    out += [f"edge {e!r} is not canonical" for e in g.edges if not e[0] < e[1]]
    out += [f"edge {e!r} leaves the vertex set" for e in g.edges if not set(e) <= vs]
    if set(g._adj) != vs:
        out.append("adjacency keys differ from the vertices")
    else:
        for v, ns in g._adj.items():
            if not isinstance(ns, frozenset):
                out.append(f"neighbours of {v!r} are not a frozenset")
            out += [f"{v!r} -> {y!r} has no reverse" for y in ns if v not in g._adj.get(y, ())]
        from_adj = {canon_edge(v, y) for v, ns in g._adj.items() for y in ns}
        if from_adj != set(g.edges):
            out.append("adjacency and edges disagree")
    if set(g.weights) != vs:
        out.append("weight keys differ from the vertices")
    out += [f"weight of {v!r} is {w!r}" for v, w in g.weights.items()
            if not isinstance(w, int) or isinstance(w, bool) or w < 1]
    return out


def split_sides_reference(g: Graph, clique_side, independent_side) -> str | None:
    """The message of the ValueError that `SplitInstance` raises for these
    sides, or None when they pass, found by scanning every pair of each side
    in label order."""
    vs = set(g.vertices)
    if clique_side | independent_side != vs or (clique_side & independent_side):
        return "sides do not partition the vertex set"
    for u, v in combinations(sorted(clique_side), 2):
        if not g.has_edge(u, v):
            return f"clique side misses edge ({u}, {v})"
    for u, v in combinations(sorted(independent_side), 2):
        if g.has_edge(u, v):
            return f"independent side contains edge ({u}, {v})"
    return None


def build_incompat_reference(g: Graph) -> IncompatGraph:
    """The conflict graph built with each vertex's neighbours sorted before
    they are paired: the build `stcsolve.incompat` used while it sorted."""
    nodes = tuple(sorted(g.edges))
    weights = {e: g.weights[e[0]] * g.weights[e[1]] for e in nodes}
    conflicts = set()
    for v in g.vertices:
        for u, w in combinations(sorted(g.neighbors(v)), 2):
            if not g.has_edge(u, w):
                conflicts.add(canon_pair(canon_edge(u, v), canon_edge(v, w)))
    return IncompatGraph(nodes, weights, frozenset(conflicts))


def color_or_odd_cycle_reference(g: Graph) -> dict | list:
    """Breadth-first 2-coloring with a `deque` queue, components and
    neighbours in label order: the coloring, or at the first edge inside one
    color class the odd cycle through it, the two BFS ancestries walked to
    their meeting point."""
    colors, parent = {}, {}
    for v in g.vertices:
        if v in colors:
            continue
        colors[v], parent[v] = 0, None
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in sorted(g.neighbors(x)):
                if y not in colors:
                    colors[y], parent[y] = 1 - colors[x], x
                    queue.append(y)
                elif colors[y] == colors[x]:
                    up_x, up_y = [x], [y]
                    while up_x[-1] != up_y[-1]:
                        up_x.append(parent[up_x[-1]])
                        up_y.append(parent[up_y[-1]])
                    return up_x + up_y[-2::-1]
    return colors


def solve_auto_reference(g: Graph, oracle_cap: int):
    """solve_auto as it dispatched before each component got one route:
    the whole graph's forest first, then every component tried on the
    proper interval solver and then on the matching, each refusing with
    WrongClassError, and the oracle under its cap or the component's own
    forest after both refused."""
    parent = trivially_perfect_forest(g)
    if parent is not None:
        return _solve_on_forest(g, parent)
    strong, per_comp = set(), {}
    for comp in g.connected_components():
        for route in (solve_pig_dp, solve_bipartite):
            try:
                res = route(comp)
                break
            except WrongClassError:
                pass
        else:
            if comp.m <= oracle_cap:
                res = solve_oracle(comp, cap=oracle_cap)
            elif (forest := trivially_perfect_forest(comp)) is not None:
                res = _solve_on_forest(comp, forest)
            else:
                raise UnsupportedInstanceError(
                    f"component with {comp.m} edges fits no class and exceeds "
                    f"the oracle cap {oracle_cap}"
                )
        strong |= res.labeling.strong
        per_comp[comp.vertices[0]] = res.solver
    kinds = set(per_comp.values())
    solver = kinds.pop() if len(kinds) == 1 else "mixed"
    stats = {"components": len(per_comp), "component_solvers": per_comp}
    lab = StrongWeakLabeling(frozenset(strong), g.edges - strong, len(strong))
    return SolveResult(lab.value, lab, solver, stats, {"dispatch": per_comp})
