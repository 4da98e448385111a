"""Edge-conflict (line incompatibility) graphs and strong/weak labelings.

A labeling obeys strong triadic closure when no vertex has two strong
neighbors that are themselves non-adjacent. Equivalently: build one node per
edge and connect two nodes when their edges share exactly one endpoint whose
far ends are non-adjacent; the strong sets of valid labelings are exactly the
independent sets of that conflict graph, with node weight the product of the
endpoint weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import Edge, Graph, TwinPartition, canon_edge

ConflictPair = tuple[Edge, Edge]


def canon_pair(a: Edge, b: Edge) -> ConflictPair:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class IncompatGraph:
    """Conflict graph over the edges of a source graph."""

    nodes: tuple[Edge, ...]
    node_weight: dict[Edge, int]
    conflicts: frozenset[ConflictPair]

    def adjacency(self) -> dict[Edge, set[Edge]]:
        adj: dict[Edge, set[Edge]] = {e: set() for e in self.nodes}
        for a, b in self.conflicts:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def is_independent(self, s: Iterable[Edge]) -> bool:
        ss = set(s)
        return all(not (a in ss and b in ss) for a, b in self.conflicts)


def build_incompat(g: Graph) -> IncompatGraph:
    nodes = tuple(sorted(g.edges))
    weights = {e: g.weights[e[0]] * g.weights[e[1]] for e in nodes}
    conflicts: set[ConflictPair] = set()
    for v in g.vertices:
        ns = sorted(g.neighbors(v))
        for u, w in combinations(ns, 2):
            if not g.has_edge(u, w):
                conflicts.add(canon_pair(canon_edge(u, v), canon_edge(v, w)))
    return IncompatGraph(nodes, weights, frozenset(conflicts))


@dataclass(frozen=True)
class StrongWeakLabeling:
    """Partition of the edge set into strong and weak, with the strong value."""

    strong: frozenset[Edge]
    weak: frozenset[Edge]
    value: int

    @classmethod
    def from_strong(cls, g: Graph, strong: Iterable[Edge]) -> "StrongWeakLabeling":
        s = frozenset(canon_edge(*e) for e in strong)
        unknown = s - g.edges
        if unknown:
            raise ValueError(f"strong set contains non-edges {sorted(unknown)}")
        value = sum(g.weights[u] * g.weights[v] for u, v in s)
        return cls(s, g.edges - s, value)


def validate_stc(g: Graph, lab: StrongWeakLabeling) -> tuple[str, str, str] | None:
    """Return None when `lab` satisfies strong triadic closure on g, else the
    first violating wedge (u, v, w): strong edges uv and vw with uw not in g.

    Raises ValueError when strong/weak do not partition the edge set.
    """
    if lab.strong & lab.weak:
        raise ValueError("strong and weak overlap")
    if lab.strong | lab.weak != g.edges:
        raise ValueError("strong and weak do not cover the edge set")
    closed: dict[str, set[str]] = {}
    for u, v in lab.strong:
        closed.setdefault(u, {u}).add(v)
        closed.setdefault(v, {v}).add(u)
    # one check per distinct closed strong neighbourhood (a cluster shares one)
    cliques: set[frozenset[str]] = set()
    for v in g.vertices:
        c = frozenset(closed.get(v, ()))
        if len(c) < 3 or c in cliques:  # a wedge needs two strong neighbours
            continue
        if all(len(g.neighbors(u) & c) == len(c) - 1 for u in c):
            cliques.add(c)
            continue
        for u, w in combinations(sorted(c - {v}), 2):
            if not g.has_edge(u, w):
                return (u, v, w)
    return None


def labeling_from_independent_set(
    g: Graph, h: IncompatGraph, s: Iterable[Edge]
) -> StrongWeakLabeling:
    """Interpret an independent set of the conflict graph as a labeling."""
    ss = frozenset(s)
    unknown = ss - set(h.nodes)
    if unknown:
        raise ValueError(f"not nodes of the conflict graph: {sorted(unknown)}")
    if not h.is_independent(ss):
        raise ValueError("set is not independent in the conflict graph")
    return StrongWeakLabeling.from_strong(g, ss)


def lift_labeling(g: Graph, rep: dict[str, str], contracted_strong) -> StrongWeakLabeling:
    """Labeling of g from a strong set of its twin contraction (rep maps
    each vertex to its class representative): one pass over g's edges, an
    edge strong when its ends share a class or their classes' contracted
    edge is strong. The contracted strong pairs must be canonical."""
    strong = []
    for e in g.edges:
        ru, rv = rep[e[0]], rep[e[1]]
        if ru == rv or ((ru, rv) if ru < rv else (rv, ru)) in contracted_strong:
            strong.append(e)
    s = frozenset(strong)
    w = g.weights
    return StrongWeakLabeling(s, g.edges - s, sum(w[u] * w[v] for u, v in s))


def expand_labeling(
    original: Graph,
    tp: TwinPartition,
    contracted_lab: StrongWeakLabeling,
    intra_twin_value: int,
) -> StrongWeakLabeling:
    """Lift a labeling of the twin-contracted graph back to the original.

    Every edge inside a twin class becomes strong; an edge between two classes
    is strong exactly when the corresponding contracted edge is. The lifted
    value is the contracted value plus the intra-class edge count, which is
    re-derived here and checked against the caller's figure.
    """
    covered = set()
    for cls in tp.classes:
        if covered & cls:
            raise ValueError("twin classes overlap")
        covered |= cls
    if covered != set(original.vertices):
        raise ValueError("twin classes do not cover the vertex set")

    rep = tp.rep_of()
    contracted_edges = {
        canon_edge(rep[u], rep[v]) for u, v in original.edges if rep[u] != rep[v]
    }
    if contracted_lab.strong | contracted_lab.weak != frozenset(contracted_edges):
        raise ValueError("labeling does not match the contraction of the original")

    intra = sum(len(c) * (len(c) - 1) // 2 for c in tp.classes)
    if intra != intra_twin_value:
        raise ValueError(
            f"intra_twin_value {intra_twin_value} does not match the partition ({intra})"
        )
    return lift_labeling(original, rep, contracted_lab.strong)
