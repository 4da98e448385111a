"""Seeded instance generators owned by the benchmark (standard library only).

Nothing here imports stcsolve, so a change to the program's own generators
cannot change a workload. Every generator takes a `random.Random` and
returns an `Instance`: the graph plus a partition of its vertices into
cliques ("clusters"). Making every intra-cluster edge strong is always a
valid STC labeling, so the clusters give the checker a reference value and
give `verify` a valid labeling to check. `exact` says whether that value is
the optimum (closed forms, and maximum matchings on triangle-free graphs,
where strong edges must form a matching) or only a lower bound (cluster
deletion on proper interval and trivially perfect graphs).

Why each family is in the benchmark:
- pig: proper interval graphs are the source paper's polynomial class; they
  drive twin contraction, LexBFS recognition and the prefix-clique DP.
- tp, threshold: trivially perfect graphs drive the P4/C4 scan, the
  conflict-graph build and the cograph MWIS; threshold graphs are their
  densest members.
- sparse_bipartite: drives 2-coloring and matching, and the LexBFS sweeps
  `solve_auto` spends on components that then fail recognition.
- odd_cycle: small components outside every class, so they reach the
  brute-force oracle.
- c5_join_clique: non-split graphs whose only obstruction is a C5 whose
  labels sort last, the worst case of `recognize`'s split-obstruction scan.
- path, clique, star: closed-form optima.
- isolated: vertices with no edge; with labels that sort first they make
  `recognize`'s split-obstruction scan spend O(n^3) on quadruples that
  hold them before it reaches the rest of the graph.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

Edge = tuple[str, str]


def canon(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass
class Instance:
    name: str
    vertices: list[str]
    edges: list[Edge]
    clusters: list[list[str]]
    exact: bool
    # whether the construction guarantees a proper interval graph (True) or
    # guarantees none (False); None when it says nothing
    proper_interval: bool | None = None

    @property
    def ref_value(self) -> int:
        return sum(len(c) * (len(c) - 1) // 2 for c in self.clusters)

    def strong_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for c in self.clusters:
            for i, u in enumerate(c):
                for v in c[i + 1:]:
                    out.add(canon(u, v))
        return out

    def edge_list_text(self) -> str:
        touched = {x for e in self.edges for x in e}
        lines = [f"vertex {v}" for v in self.vertices if v not in touched]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _labels(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct labels whose sort order is a random permutation of the
    construction order, so tie-breaking by label is not the generator's."""
    width = len(str(max(n - 1, 0)))
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i:0{width}d}" for i in ids]


def _chunk_pairs(seq: list[str]) -> list[list[str]]:
    return [list(seq[i:i + 2]) for i in range(0, len(seq), 2)]


# -- closed forms -----------------------------------------------------------


def path(rng: random.Random, n: int, prefix: str = "p", ordered: bool = False) -> Instance:
    """Path on n vertices; with `ordered`, labels sort along the path."""
    vs = _labels(rng, prefix, n)
    if ordered:
        vs.sort()
    edges = [canon(vs[i], vs[i + 1]) for i in range(n - 1)]
    # triangle-free: the optimum is a maximum matching, floor(n / 2)
    return Instance(f"path-{n}", vs, edges, _chunk_pairs(vs), True, True)


def clique(rng: random.Random, n: int, prefix: str = "k") -> Instance:
    vs = _labels(rng, prefix, n)
    edges = [canon(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    return Instance(f"clique-{n}", vs, edges, [list(vs)], True, True)


def star(rng: random.Random, leaves: int) -> Instance:
    vs = _labels(rng, "s", leaves + 1)
    hub = vs[0]
    edges = [canon(hub, v) for v in vs[1:]]
    clusters = [[hub, vs[1]]] + [[v] for v in vs[2:]]
    return Instance(f"star-{leaves}", vs, edges, clusters, True)


def isolated(k: int) -> Instance:
    """k vertices and no edge; their labels sort in index order."""
    vs = [f"a{i}" for i in range(k)]
    return Instance(f"isolated-{k}", vs, [], [[v] for v in vs], True, True)


def odd_cycle(rng: random.Random, k: int, prefix: str = "o") -> Instance:
    if k < 5 or k % 2 == 0:
        raise ValueError("odd_cycle needs an odd length of at least 5")
    vs = _labels(rng, prefix, k)
    edges = [canon(vs[i], vs[(i + 1) % k]) for i in range(k)]
    # triangle-free, so the optimum is a maximum matching: floor(k / 2)
    clusters = _chunk_pairs(vs[:-1]) + [[vs[-1]]]
    return Instance(f"oddcycle-{k}", vs, edges, clusters, True, False)


# -- proper interval graphs -------------------------------------------------


def pig(rng: random.Random, n: int, avg_degree: float, prefix: str = "i",
        components: int = 1) -> Instance:
    """Unit-interval graph: u ~ v when their left ends differ by < 1.

    The left ends sit on a grid spaced for the requested average degree,
    each moved right by up to two grid steps at random, then sorted; with
    `components` > 1 the grid is cut into that many runs set 2 apart. The
    jitter makes twins and gaps random without letting the edge count
    drift far from n * avg_degree / 2.

    Runs in O(n + m) after the sort. The sorted order is an umbrella
    ordering, and the clusters are the best partition of it into
    consecutive cliques (a cluster deletion, so a lower bound).
    """
    step = 2.0 / max(avg_degree, 1e-9)
    xs = sorted(i * step + rng.uniform(0.0, 2.0 * step) + 2.0 * (i * components // n)
                for i in range(n))
    vs = _labels(rng, prefix, n)
    reach = [0] * n  # last position adjacent to i on the right
    edges: list[Edge] = []
    j = 0
    for i in range(n):
        j = max(j, i)
        while j + 1 < n and xs[j + 1] - xs[i] < 1.0:
            j += 1
        reach[i] = j
        edges.extend(canon(vs[i], vs[t]) for t in range(i + 1, j + 1))
    # best[i]: best value of the first i positions split into clique blocks
    best = [0] * (n + 1)
    cut = [0] * (n + 1)
    for i in range(1, n + 1):
        b, c = -1, 0
        j = i - 1
        while j >= 0 and reach[j] >= i - 1:
            s = i - j
            val = best[j] + s * (s - 1) // 2
            if val > b:
                b, c = val, j
            j -= 1
        best[i], cut[i] = b, c
    clusters: list[list[str]] = []
    i = n
    while i > 0:
        clusters.append(vs[cut[i]:i])
        i = cut[i]
    clusters.reverse()
    return Instance(f"pig-{n}-d{avg_degree:g}", vs, edges, clusters, False, True)


# -- trivially perfect graphs -----------------------------------------------


def _forest_instance(name: str, vs: list[str], parent: list[int | None]) -> Instance:
    """Comparability graph of a rooted forest (parents precede children),
    which is exactly a trivially perfect graph. Clusters come from peeling
    a longest remaining root-to-leaf chain until nothing is left."""
    n = len(vs)
    anc: list[list[int]] = []
    edges: list[Edge] = []
    for i in range(n):
        p = parent[i]
        chain = [] if p is None else anc[p] + [p]
        anc.append(chain)
        edges.extend(canon(vs[a], vs[i]) for a in chain)
    alive = [True] * n
    clusters: list[list[str]] = []
    remaining = n
    while remaining:
        depth = [0] * n
        near: list[int | None] = [None] * n  # nearest alive ancestor
        top, top_i = -1, -1
        for i in range(n):
            p = parent[i]
            near[i] = p if p is None or alive[p] else near[p]
            if alive[i]:
                q = near[i]
                depth[i] = 1 + (depth[q] if q is not None else 0)
                if depth[i] > top:
                    top, top_i = depth[i], i
        chain = [top_i] + [a for a in anc[top_i] if alive[a]]
        for a in chain:
            alive[a] = False
        remaining -= len(chain)
        clusters.append([vs[a] for a in chain])
    return Instance(name, vs, edges, clusters, False)


def tp(rng: random.Random, n: int, roots: int, growth: float) -> Instance:
    """Random trivially perfect graph from its definition as the
    comparability graph of a rooted forest, built level by level without
    recursion.

    Level 0 holds `roots` trees; level k holds about `growth` times as many
    nodes as level k-1, dealt round-robin to the nodes of level k-1 in a
    random order, so every parent gets within one child of the others. The
    shape, and so the cost of solving, varies little between seeds; the
    seed changes which parents get the extra children, and the labels.
    """
    if roots < 1 or growth < 1.0:
        raise ValueError("tp needs at least one root and a growth of at least 1")
    sizes: list[int] = []
    s = float(roots)
    while sum(sizes) + int(s) < n:
        sizes.append(int(s))
        s *= growth
    sizes.append(n - sum(sizes))
    parent: list[int | None] = []
    prev: list[int] = []
    for size in sizes:
        start = len(parent)
        if prev:
            rng.shuffle(prev)
            parent.extend(prev[j % len(prev)] for j in range(size))
        else:
            parent.extend([None] * size)
        prev = list(range(start, start + size))
    vs = _labels(rng, "t", n)
    return _forest_instance(f"tp-{n}-r{roots}-g{growth:g}", vs, parent)


def threshold(rng: random.Random, n: int) -> Instance:
    """Threshold graph: vertices are added in runs, alternately isolated
    and dominating (adjacent to every earlier vertex). Run lengths cycle
    through 1, 2 and 3 (the last one cut to fit n) and are then shuffled, so
    the number of runs, and of twin classes, is fixed by n. As a forest,
    each vertex hangs under the earliest dominating vertex added after it."""
    lengths: list[int] = []
    total = 0
    while total < n:
        lengths.append(min(1 + len(lengths) % 3, n - total))
        total += lengths[-1]
    rng.shuffle(lengths)
    dom: list[bool] = []
    kind = rng.random() < 0.5
    for run in lengths:
        dom.extend([kind] * run)
        kind = not kind
    nxt: list[int | None] = [None] * n
    following: int | None = None
    for i in range(n - 1, -1, -1):
        nxt[i] = following
        if dom[i]:
            following = i
    # re-index so parents precede children: reverse construction order
    order = list(range(n - 1, -1, -1))
    where = {old: new for new, old in enumerate(order)}
    parent = [None if nxt[old] is None else where[nxt[old]] for old in order]
    vs = _labels(rng, "h", n)
    return _forest_instance(f"threshold-{n}", vs, parent)


# -- bipartite graphs -------------------------------------------------------


def max_matching(left: list[str], adj: dict[str, list[str]]) -> dict[str, str]:
    """Hopcroft-Karp, iterative. Returns the matching as left -> right."""
    INF = float("inf")
    match_l: dict[str, str | None] = {u: None for u in left}
    match_r: dict[str, str] = {}
    while True:
        dist: dict[str, float] = {}
        q = deque()
        for u in left:
            if match_l[u] is None:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        if not found:
            break
        for root in left:
            if match_l[root] is not None:
                continue
            # iterative DFS along the layered graph
            stack = [(root, iter(adj[root]))]
            path: list[tuple[str, str]] = []
            while stack:
                u, it = stack[-1]
                advanced = False
                for v in it:
                    w = match_r.get(v)
                    if w is None:
                        path.append((u, v))
                        for a, b in path:
                            match_l[a] = b
                            match_r[b] = a
                        stack = []
                        advanced = True
                        break
                    if dist[w] == dist[u] + 1:
                        path.append((u, v))
                        stack.append((w, iter(adj[w])))
                        advanced = True
                        break
                if not advanced:
                    dist[u] = INF
                    stack.pop()
                    if path:
                        path.pop()
    return {u: v for u, v in match_l.items() if v is not None}


def sparse_bipartite(rng: random.Random, n: int, avg_degree: float,
                     prefix: str = "b", connected: bool = False) -> Instance:
    """Random bipartite graph with n vertices split evenly and about
    n * avg_degree / 2 distinct edges; with `connected`, a random spanning
    tree comes first. Triangle-free, so the optimum is a maximum matching,
    computed here by Hopcroft-Karp."""
    vs = _labels(rng, prefix, n)
    left, right = vs[: n // 2], vs[n // 2:]
    target = min(int(n * avg_degree / 2), len(left) * len(right))
    es: set[Edge] = set()
    if connected:
        # alternate sides so each vertex meets an earlier one across
        order = [v for pair in zip(left, right) for v in pair] + right[len(left):]
        placed: tuple[list[str], list[str]] = ([], [])
        for i, v in enumerate(order):
            side = i % 2 if i < 2 * len(left) else 1
            if i:
                es.add(canon(v, rng.choice(placed[1 - side])))
            placed[side].append(v)
    while len(es) < target:
        es.add(canon(rng.choice(left), rng.choice(right)))
    edges = sorted(es)
    adj: dict[str, list[str]] = {u: [] for u in left}
    lset = set(left)
    for a, b in edges:
        u, v = (a, b) if a in lset else (b, a)
        adj[u].append(v)
    matching = max_matching(left, adj)
    matched = set(matching) | set(matching.values())
    clusters = [[u, v] for u, v in matching.items()]
    clusters.extend([v] for v in vs if v not in matched)
    return Instance(f"bip-{n}-d{avg_degree:g}", vs, edges, clusters, True)


# -- non-split graphs -------------------------------------------------------


def c5_join_clique(rng: random.Random, k: int) -> Instance:
    """A C5 joined to K_k. The C5 labels start with 'z' and the clique's
    with 'a', so the C5 sorts last; it is the only split obstruction."""
    cyc = [f"z{i}" for i in range(5)]
    rng.shuffle(cyc)
    kv = _labels(rng, "a", k)
    edges = [canon(cyc[i], cyc[(i + 1) % 5]) for i in range(5)]
    edges += [canon(u, v) for i, u in enumerate(kv) for v in kv[i + 1:]]
    edges += [canon(u, c) for u in kv for c in cyc]
    clusters = [list(kv), cyc[0:2], cyc[2:4], [cyc[4]]]
    return Instance(f"c5join-{k}", cyc + kv, edges, clusters, False, False)


# -- combining --------------------------------------------------------------


def disjoint_union(name: str, parts: list[Instance]) -> Instance:
    """Union of instances with pairwise disjoint labels (give each part its
    own prefix). The union is a proper interval graph when every part is,
    and is not when some part is not; the reference value is exact when
    every part's is."""
    vs: list[str] = []
    edges: list[Edge] = []
    clusters: list[list[str]] = []
    for p in parts:
        vs += p.vertices
        edges += p.edges
        clusters += p.clusters
    if len(set(vs)) != len(vs):
        raise ValueError("disjoint_union parts share labels")
    flags = [p.proper_interval for p in parts]
    proper_interval = False if False in flags else (True if all(flags) else None)
    return Instance(name, vs, edges, clusters, all(p.exact for p in parts),
                    proper_interval)
