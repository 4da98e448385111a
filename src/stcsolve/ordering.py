"""Proper interval (umbrella) orderings: recognition and verification.

An ordering v_0 .. v_{n-1} has the umbrella property when for every i < j < k
with v_i v_k an edge, both v_i v_j and v_j v_k are edges. A graph admits such
an ordering exactly when it is a proper interval graph. Recognition runs
multi-sweep lexicographic BFS and then always verifies the candidate, so
correctness rests on the verification, not on the sweep heuristic.

Verification checks that every closed neighbourhood is consecutive in the
ordering, which is the umbrella property (the straight orderings of Looges
& Olariu, Comput. Math. Appl. 1993), and the same scan yields the reaches
the DP needs. Each sweep is partition refinement (Habib, McConnell, Paul &
Viennot, "Lex-BFS and partition refinement", TCS 2000) and costs O(n + m).
Recognition sweeps once, sorts the BFS layers from the sweep's last vertex
and scans that candidate; only a graph it does not prove connected and
twin-free takes two more sweeps and a second scan. Linear but for the sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph


@dataclass(frozen=True)
class ProperIntervalOrdering:
    """A verified umbrella ordering with per-position neighborhood reaches.

    left_reach[i] / right_reach[i] are the smallest / largest positions
    adjacent to position i (i itself when it has no neighbor on that side).
    """

    order: tuple[str, ...]
    left_reach: tuple[int, ...]
    right_reach: tuple[int, ...]

    def position(self, v: str) -> int:
        return self.order.index(v)


def _closed_spans(g: Graph, order: tuple[str, ...]) -> tuple[list[int], list[int], int | None]:
    """One scan of `order`: left[i] / right[i] are the smallest / largest
    positions of the closed neighbourhood of position i, up to the first
    position whose closed neighbourhood is not consecutive, which is
    returned third (None when there is none).

    An ordering is an umbrella ordering exactly when every closed
    neighbourhood is consecutive in it: an edge v_i v_k puts every position
    between i and k into both closed neighbourhoods, and a gap between two
    members of a closed neighbourhood is a violating triple. A neighbourhood
    is consecutive when its span is no wider than its size. O(n + m).
    """
    pos = {v: i for i, v in enumerate(order)}
    left: list[int] = []
    right: list[int] = []
    for i, v in enumerate(order):
        ps = [pos[u] for u in g.neighbors(v)]
        ps.append(i)
        lo, hi = min(ps), max(ps)
        left.append(lo)
        right.append(hi)
        if hi - lo >= len(ps):
            return left, right, i
    return left, right, None


def verify_umbrella(g: Graph, order: Sequence[str]) -> tuple[str, str, str] | None:
    """Return None if `order` has the umbrella property, else a violating
    triple (x, y, z) with x before y before z, xz an edge and xy or yz not.
    The triple comes from the first position whose closed neighbourhood has
    a gap: the earliest gap on its right, else the earliest on its left,
    with the far end of that side as the third vertex.

    Raises ValueError when `order` is not a permutation of g's vertices.
    """
    order = tuple(order)
    if len(order) != g.n or set(order) != set(g.vertices):
        raise ValueError("order is not a permutation of the vertex set")
    left, right, i = _closed_spans(g, order)
    if i is None:
        return None
    v = order[i]
    nv = g.neighbors(v)
    k, l = right[i], left[i]
    for j in range(i + 1, k):
        if order[j] not in nv:
            return (v, order[j], order[k])
    j = next(j for j in range(l + 1, i) if order[j] not in nv)
    return (order[l], order[j], v)


def _lexbfs(g: Graph, prev: Sequence[str] | None = None) -> list[str]:
    """One LexBFS sweep over all of g, by partition refinement.

    The unvisited vertices sit in a list of groups of equal LexBFS label,
    best label first. The next pivot is the top vertex of the first group,
    and each pivot splits every group stably, moving its neighbours into a
    new group just before the rest. Ties break by a priority order: label
    order on the first sweep, latest position in `prev` afterwards (the
    classic plus-rule). Each group is a stack in falling priority, its top
    the next pivot: the adjacency lists are built in falling priority, so
    each pivot pushes its unvisited neighbours in that order onto the front
    group split off their old group, which keeps every split stable. An
    entry whose vertex moved on is stale and popped when it reaches the
    top; a group with no live entry left is dropped once it reaches the
    front. A pivot touches only its own adjacency list: O(n + m) per sweep.
    """
    order = list(g.vertices) if prev is None else list(reversed(prev))
    n = len(order)
    rank = {v: i for i, v in enumerate(order)}
    # vertices are their priority ranks from here on
    adj: list[list[int]] = [[] for _ in order]
    for i, v in zip(range(n - 1, -1, -1), reversed(order)):
        for u in g.neighbors(v):
            adj[rank[u]].append(i)
    group_of = [0] * n  # group id per vertex, -1 once visited
    # per group: a stack of members, top first in priority; links
    members: list[list[int]] = [list(range(n - 1, -1, -1))]
    before, after = [-1], [-1]
    first = 0
    out: list[str] = []
    while first >= 0:
        mem = members[first]
        while mem:
            v = mem.pop()
            if group_of[v] == first:
                break
        else:  # no live member: drop the group
            first = after[first]
            if first >= 0:
                before[first] = -1  # so no split links behind the dead group
            continue
        group_of[v] = -1
        out.append(order[v])
        split: dict[int, int] = {}  # old group -> its front part this pivot
        for w in adj[v]:
            old = group_of[w]
            if old < 0:
                continue
            new = split.get(old)
            if new is None:
                new = split[old] = len(members)
                members.append([])
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
    return out


def candidate_order(g: Graph) -> tuple[str, ...]:
    """The ordering the recognition sweeps propose, unverified.

    Three LexBFS sweeps of the whole graph, the last two with the plus-rule
    (Corneil, "A simple 3-sweep LBFS algorithm for the recognition of unit
    interval graphs", DAM 2004). A sweep finishes a component before it
    leaves it; the first sweep enters the components in smallest-label
    order and each plus-rule sweep reverses their order, so the third lays
    them out consecutively in smallest-label order, each swept exactly as
    on its own. On a proper interval graph the result is an umbrella
    ordering; on anything else it violates the umbrella property somewhere,
    which makes it a useful counterexample carrier. O(n + m).
    """
    s1 = _lexbfs(g)
    s2 = _lexbfs(g, s1)
    return tuple(_lexbfs(g, s2))


def _layer_candidate(g: Graph, b: str) -> tuple[str, ...]:
    """The vertices b's BFS reaches, by (layer, -neighbours in the layer
    before, neighbours in the layer after and in their own layer), reversed.
    On an umbrella ordering starting at b the layers are blocks and, within
    one, the reaches rise (the left one in the layer before), so if no two
    vertices share both reaches this key rises strictly along it and the
    sort rebuilds it."""
    layer = {b: 0}
    queue = [b]
    for x in queue:
        for y in g.neighbors(x):
            if y not in layer:
                layer[y] = layer[x] + 1
                queue.append(y)

    def key(v: str) -> tuple[int, int, int, int]:
        d = layer[v]
        ls = [layer[u] for u in g.neighbors(v)]
        before, after = ls.count(d - 1), ls.count(d + 1)
        return d, -before, after, len(ls) - before - after

    return tuple(sorted(queue, key=key, reverse=True))


def recognize(g: Graph) -> ProperIntervalOrdering | None:
    """A verified umbrella ordering, always `candidate_order(g)`, or None
    when g has none (the sweep candidate is one whenever one exists).

    After sweep s1 the layer candidate from b = s1[-1] is taken when it
    verifies and has n distinct reach pairs. A BFS that misses a vertex
    gives fewer than n pairs, so g is then a connected twin-free proper
    interval graph (twins share both reaches), which has two umbrella
    orderings, each the other reversed (Deng, Hell & Huang, SIAM J. Comput.
    1996), so only one ends at b. The cited lemma: the last vertex of a
    LexBFS of a proper interval graph is an end vertex (Corneil, Olariu &
    Stewart, SODA 1998; Corneil, DAM 2004). So sweep 2 runs from b to the
    other end and sweep 3 back to b. That the lemma holds for these plus-rule
    sweeps is checked only empirically, on seeded graphs. Other graphs get
    sweeps 2 and 3 from the same s1."""
    s1 = _lexbfs(g)
    if s1:
        order = _layer_candidate(g, s1[-1])
        left, right, bad = _closed_spans(g, order)
        if bad is None and len(set(zip(left, right))) == g.n:
            return ProperIntervalOrdering(order, tuple(left), tuple(right))
    order = tuple(_lexbfs(g, _lexbfs(g, s1)))
    left, right, bad = _closed_spans(g, order)
    if bad is not None:
        return None
    return ProperIntervalOrdering(order, tuple(left), tuple(right))


def reverse(o: ProperIntervalOrdering) -> ProperIntervalOrdering:
    """Reverse of an umbrella ordering; the reaches mirror accordingly."""
    n = len(o.order)
    order = tuple(reversed(o.order))
    left = tuple(n - 1 - o.right_reach[n - 1 - i] for i in range(n))
    right = tuple(n - 1 - o.left_reach[n - 1 - i] for i in range(n))
    return ProperIntervalOrdering(order, left, right)
