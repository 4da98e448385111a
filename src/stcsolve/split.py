"""Split graphs: the clique/independent-set partition, or an obstruction.

A graph is split when its vertices divide into a clique and an independent
set, which the degree sequence decides (Hammer & Simeone, "The splittance
of a graph", Combinatorica 1981); the graphs that are not split are those
with an induced 2K2, C4 or C5 (Földes & Hammer 1977). The obstruction
reported is the first induced 2K2 or C4 among the vertex 4-sets in
`itertools.combinations` order of the sorted labels, or, in a graph with
neither, the first induced C5, which is then the only one.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph


def split_partition(g: Graph) -> tuple[list[str], list[str]] | None:
    """Split partition via the degree-sequence threshold, or None.

    Sort by (-degree, label); K is the first m vertices, m the last
    position i with degree >= i - 1, and S the rest. As sum_K d - sum_S d
    = 2e(K) - 2e(S) <= m(m - 1), the identity sum_K d = m(m - 1) + sum_S d
    holds exactly when K is a clique and S has no edge; every split graph
    passes it (Hammer & Simeone), so the sides need no second check.
    """
    vs = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in vs]
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    return vs[:m], vs[m:]


def find_split_obstruction(g: Graph) -> tuple[str, tuple[str, ...]]:
    """An induced 2K2, C4, or C5; one always exists in a non-split graph.

    A 2K2 is given as its two edges, a C4 or C5 along the cycle from its
    smallest label towards that label's smaller cycle neighbour. A graph
    with no 2K2 and no C4 is pseudo-split, so the C5 test runs first, in
    O(n + m); otherwise an ordered search fixes the members of the first
    2K2 or C4 one at a time, each by an exact existence test. A test costs
    O(n + m) for most vertices and O(m * d) at worst for a vertex of degree
    d, so the search is O((n + m)^2) at worst, against O(n^5) for a scan
    of every 4-set and 5-set.
    """
    five = _pseudo_split_cycle(g)
    if five is not None:
        cycle = [min(five)]
        cycle.append(min(g.neighbors(cycle[0]) & five))
        while len(cycle) < 5:
            (nxt,) = g.neighbors(cycle[-1]) & five - {cycle[-2]}
            cycle.append(nxt)
        return "C5", tuple(cycle)
    quad = _first_quadruple(g)
    if quad is None:
        raise RuntimeError("no split obstruction found in a non-split graph")
    pairs = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
    if len(pairs) == 2:
        return "2K2", pairs[0] + pairs[1]
    a = quad[0]
    p, q = sorted(v for v in quad if g.has_edge(a, v))
    (r,) = [v for v in quad if v not in (a, p, q)]
    return "C4", (a, p, r, q)


def _pseudo_split_cycle(g: Graph) -> frozenset[str] | None:
    """The C5 part Q of a partition of g into a clique C, Q and an
    independent set S, with Q complete to C and anticomplete to S, or None.

    Such a graph has no 2K2 and no C4, and Q is its only induced C5: a C
    vertex's two non-neighbours on another C5 would be adjacent S vertices
    (Maffray & Preissmann, "Linear recognition of pseudo-split graphs",
    DAM 1994). With c = |C|, C vertices have degree at least c + 4, Q
    vertices exactly c + 2 and S vertices at most c, so in the order by
    (-degree, label) Q sits at positions c .. c + 4. Degree minus position
    falls strictly along that order, so only one c can fit.
    """
    vs = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    c = next((i for i in range(len(vs) - 4) if g.degree(vs[i]) == i + 2), None)
    if c is None:
        return None
    clique, five = frozenset(vs[:c]), frozenset(vs[c : c + 5])
    if any(len(g.neighbors(v) & clique) != c - 1 for v in clique):
        return None
    for v in five:
        nv = g.neighbors(v)
        if len(nv & five) != 2 or len(nv & clique) != c:
            return None
    if any(not g.neighbors(v) <= clique for v in vs[c + 5 :]):
        return None
    return five


def _first_quadruple(g: Graph) -> tuple[str, str, str, str] | None:
    """The first 4-set (a, b, c, d) in label order that induces a 2K2 or
    C4, or None.

    a is the first vertex in any such 4-set; b the first later vertex in
    one with a whose other two vertices come after b; c the first vertex
    after b for which a fourth vertex d after c exists, and d the smallest.
    Every 4-set holding a has no vertex before a, so b, c and d exist.
    """
    vs = g.vertices
    pos = {v: i for i, v in enumerate(vs)}
    a = next((v for v in vs if _in_some_quad(g, v)), None)
    if a is None:
        return None
    b = next(v for v in vs[pos[a] + 1 :] if _pair_in_quad(g, pos, a, v))
    for c in vs[pos[b] + 1 :]:
        after_c = [d for d in _fourths(g, a, b, c) if pos[d] > pos[c]]
        if after_c:
            return a, b, c, min(after_c)


def _in_some_quad(g: Graph, a: str) -> bool:
    """Whether a lies in an induced 2K2 or C4."""
    na = g.neighbors(a)
    if not na:
        return False
    shared: dict[str, set[str]] = {}  # non-neighbour x -> N(x) & N(a)
    for u in na:
        for x in g.neighbors(u):
            if x != a and x not in na:
                shared.setdefault(x, set()).add(u)
    # 2K2 a-u, x-y: an edge outside N[a] that misses some u in N(a)
    for x, y in g.edges:
        if x == a or y == a or x in na or y in na:
            continue
        nx, ny = g.neighbors(x), g.neighbors(y)
        if any(u not in nx and u not in ny for u in na):
            return True
    # C4 with x opposite a: two non-adjacent vertices in N(x) & N(a)
    return any(
        len(g.neighbors(u) & s) < len(s) - 1 for s in shared.values() for u in s
    )


def _pair_in_quad(g: Graph, pos: dict[str, int], a: str, b: str) -> bool:
    """Whether a and b lie in an induced 2K2 or C4 whose other two
    vertices both come after b."""
    pb = pos[b]
    na, nb = g.neighbors(a), g.neighbors(b)
    only_a = {x for x in na - nb if pos[x] > pb}
    only_b = {y for y in nb - na if pos[y] > pb}
    if b in na:
        # C4 a-b-y-x: an edge between N(a) - N[b] and N(b) - N[a]
        if any(not g.neighbors(x).isdisjoint(only_b) for x in only_a):
            return True
        # 2K2 ab, xy: an edge outside N(a) | N(b)
        rest = {v for v in g.vertices[pb + 1 :] if v not in na and v not in nb}
        return any(not g.neighbors(x).isdisjoint(rest) for x in rest)
    # C4 a-x-b-y: two non-adjacent common neighbours
    common = {x for x in na & nb if pos[x] > pb}
    if any(len(g.neighbors(x) & common) < len(common) - 1 for x in common):
        return True
    # 2K2 a-x, b-y: x in N(a) - N(b) and y in N(b) - N(a) not adjacent
    return any(not only_b <= g.neighbors(x) for x in only_a)


def _fourths(g: Graph, a: str, b: str, c: str) -> frozenset[str]:
    """Every d for which {a, b, c, d} induces a 2K2 or C4.

    A triple inducing one edge xy and a lone z extends only to the 2K2 xy,
    zd, with d in N(z) - N(x) - N(y); a path x-y-z extends only to the C4
    x-y-z-d, with d in N(x) & N(z) - N[y]; any other triple extends to
    neither.
    """
    edges = [(x, y) for x, y in ((a, b), (a, c), (b, c)) if g.has_edge(x, y)]
    if len(edges) == 1:
        ((x, y),) = edges
        (z,) = {a, b, c} - {x, y}
        return g.neighbors(z) - g.neighbors(x) - g.neighbors(y)
    if len(edges) == 2:
        (y,) = set(edges[0]) & set(edges[1])
        x, z = {a, b, c} - {y}
        return (g.neighbors(x) & g.neighbors(z)) - g.neighbors(y) - {y}
    return frozenset()
