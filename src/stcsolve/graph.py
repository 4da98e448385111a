"""Simple undirected graphs with string labels and integer vertex weights.

Weights default to 1 and only become meaningful after true-twin contraction,
where they carry class sizes. All derived orders (vertices, edges, component
lists) are lexicographic so downstream output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

Edge = tuple[str, str]


def canon_edge(u: str, v: str) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Immutable simple graph. Self-loops and repeated edges are rejected."""

    __slots__ = ("vertices", "edges", "weights", "_adj")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        weights: Mapping[str, int] | None = None,
    ):
        vs = list(vertices)
        vset = set(vs)
        if len(vset) != len(vs):
            raise ValueError("duplicate vertex labels")
        self.vertices: tuple[str, ...] = tuple(sorted(vs))

        es: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
            e = canon_edge(u, v)
            if e in es:
                raise ValueError(f"duplicate edge {e!r}")
            es.add(e)
        self.edges: frozenset[Edge] = frozenset(es)

        w = {v: 1 for v in vs}
        if weights is not None:
            for k, x in weights.items():
                if k not in vset:
                    raise ValueError(f"weight for unknown vertex {k!r}")
                if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                    raise ValueError(f"weight of {k!r} must be a positive integer")
                w[k] = x
        self.weights: dict[str, int] = w

        adj: dict[str, set[str]] = {v: set() for v in vs}
        for u, v in es:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return canon_edge(u, v) in self.edges

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def edge_weight(self, u: str, v: str) -> int:
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u!r}, {v!r})")
        return self.weights[u] * self.weights[v]

    def is_unit_weight(self) -> bool:
        return all(w == 1 for w in self.weights.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, keep: Iterable[str]) -> "Graph":
        ks = set(keep)
        missing = ks - set(self.vertices)
        if missing:
            raise ValueError(f"unknown vertices {sorted(missing)}")
        es = [e for e in self.edges if e[0] in ks and e[1] in ks]
        return Graph(sorted(ks), es, {v: self.weights[v] for v in ks})

    def connected_components(self) -> list["Graph"]:
        """Components as induced subgraphs, ordered by smallest contained label.

        One pass: a BFS labels every vertex with its component, then a single
        scan of the edges buckets each into its component, O(n + m) in all.
        """
        comp_of: dict[str, int] = {}
        members: list[list[str]] = []
        for start in self.vertices:  # sorted, so components come out ordered
            if start in comp_of:
                continue
            comp_of[start] = len(members)
            queue = [start]
            for x in queue:
                for y in self._adj[x]:
                    if y not in comp_of:
                        comp_of[y] = len(members)
                        queue.append(y)
            members.append(queue)
        if len(members) == 1:
            return [self]
        edges: list[list[Edge]] = [[] for _ in members]
        for e in self.edges:
            edges[comp_of[e[0]]].append(e)
        return [
            Graph(vs, es, {v: self.weights[v] for v in vs})
            for vs, es in zip(members, edges)
        ]


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex set into true-twin classes.

    Classes are keyed by their lexicographically smallest member (the
    representative) and listed in representative order.
    """

    classes: tuple[frozenset[str], ...]
    representatives: tuple[str, ...]

    def rep_of(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for rep, cls in zip(self.representatives, self.classes):
            for v in cls:
                out[v] = rep
        return out


def twin_classes(g: Graph) -> TwinPartition:
    """Group vertices by closed neighborhood.

    Two distinct vertices share a closed neighborhood exactly when they are
    adjacent and see the same vertices elsewhere (true twins), so this is the
    true-twin partition.
    """
    by_nbhd: dict[frozenset[str], list[str]] = {}
    for v in g.vertices:
        key = g.neighbors(v) | {v}
        by_nbhd.setdefault(frozenset(key), []).append(v)
    classes = sorted((frozenset(c) for c in by_nbhd.values()), key=min)
    return TwinPartition(tuple(classes), tuple(min(c) for c in classes))


def contract_twins(g: Graph) -> tuple[Graph, TwinPartition, int]:
    """Collapse each true-twin class to its representative.

    Requires unit weights (contraction is what introduces weights). The
    contracted graph carries class sizes as vertex weights. Also returns the
    number of edges inside twin classes; those are always strong in an optimal
    labeling, so that count is added back when a contracted solution is
    lifted. A graph without twins comes back as itself.
    """
    if not g.is_unit_weight():
        raise ValueError("contract_twins expects a unit-weight graph")
    tp = twin_classes(g)
    if len(tp.classes) == g.n:  # twin-free: contracting would copy g
        return g, tp, 0
    rep = tp.rep_of()
    edges = {
        canon_edge(rep[u], rep[v]) for u, v in g.edges if rep[u] != rep[v]
    }
    weights = {r: len(c) for r, c in zip(tp.representatives, tp.classes)}
    contracted = Graph(tp.representatives, edges, weights)
    intra = sum(len(c) * (len(c) - 1) // 2 for c in tp.classes)
    return contracted, tp, intra
