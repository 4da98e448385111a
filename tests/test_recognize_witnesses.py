"""Every witness `stcsolve recognize` prints, checked against the adjacency
outside the program: the command proves none of its proper-interval,
trivially-perfect and bipartite witnesses a second time, so this is where
they are checked."""

import random
import re
from collections import Counter
from itertools import combinations

from oracles import (
    candidate_order_reference,
    p4_or_c4_reference,
    random_graph,
    random_proper_interval_union,
    random_pseudo_split,
    verify_umbrella_reference,
)
from stcsolve import Graph, cli, format_edge_list, gen_random_trivially_perfect

# the edges of each induced pattern, by index into its vertices as printed
PATTERNS = {
    "P4": {(0, 1), (1, 2), (2, 3)},
    "C4": {(0, 1), (1, 2), (2, 3), (0, 3)},
    "2K2": {(0, 1), (2, 3)},
    "C5": {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
}

LINE = re.compile(r"(\S+): (yes|no)(?: \((.*)\))?")


def cycle(k: int, seed: int) -> Graph:
    labels = [f"c{i:02d}" for i in range(k)]
    random.Random(seed).shuffle(labels)
    return Graph(labels, [(labels[i], labels[(i + 1) % k]) for i in range(k)])


def inputs():
    for k in range(3, 13):
        yield cycle(k, k)
    for seed in range(60):
        n = 3 + seed % 10
        yield random_graph(n, seed % (n * (n - 1) // 2 + 1), seed)
    for seed in range(25):
        yield random_proper_interval_union(4 + seed % 20, seed)
    for seed in range(25):
        yield random_pseudo_split(seed)
    for seed in range(40):
        yield gen_random_trivially_perfect(2 + seed % 12, seed)


def induces(g: Graph, kind: str, verts: list[str]) -> bool:
    edges = PATTERNS[kind]
    k = 1 + max(j for _, j in edges)
    return len(verts) == k == len(set(verts)) and all(
        g.has_edge(verts[i], verts[j]) == ((i, j) in edges)
        for i, j in combinations(range(k), 2)
    )


def sides(text: str, first: str, second: str) -> tuple[list[str], list[str]]:
    left, right = text.split(" | ")
    assert left.startswith(first) and right.startswith(second)
    return left[len(first) :].split(), right[len(second) :].split()


def edgeless(g: Graph, side: list[str]) -> bool:
    return not any(g.has_edge(u, v) for u, v in combinations(side, 2))


def partitions(g: Graph, a: list[str], b: list[str]) -> bool:
    return len(a) + len(b) == g.n and set(a) | set(b) == set(g.vertices)


def check_proper_interval(g: Graph, yes: bool, body: str) -> None:
    if yes:
        assert body.startswith("order: ")
        assert verify_umbrella_reference(g, body[len("order: ") :].split()) is None
        return
    assert body.startswith("umbrella violated: ")
    x, y, z = body[len("umbrella violated: ") :].split()
    pos = {v: i for i, v in enumerate(candidate_order_reference(g))}
    assert pos[x] < pos[y] < pos[z]
    assert g.has_edge(x, z) and not (g.has_edge(x, y) and g.has_edge(y, z))


def check_trivially_perfect(g: Graph, yes: bool, body: str | None) -> None:
    if yes:
        assert body is None and p4_or_c4_reference(g) is None
        return
    kind, verts = re.fullmatch(r"induced (P4|C4): (.*)", body).groups()
    assert induces(g, kind, verts.split())


def check_bipartite(g: Graph, yes: bool, body: str) -> None:
    if yes:
        zero, one = sides(body, "sides: ", "")
        assert partitions(g, zero, one)
        assert edgeless(g, zero) and edgeless(g, one)
        return
    assert body.startswith("odd cycle: ")
    ring = body[len("odd cycle: ") :].split()
    assert len(ring) % 2 == 1 and len(set(ring)) == len(ring)
    assert all(g.has_edge(ring[i - 1], ring[i]) for i in range(len(ring)))


def check_split(g: Graph, yes: bool, body: str) -> None:
    if yes:
        clique, rest = sides(body, "clique: ", "independent: ")
        assert partitions(g, clique, rest) and edgeless(g, rest)
        assert all(g.has_edge(u, v) for u, v in combinations(clique, 2))
        return
    kind, verts = re.fullmatch(r"induced (2K2|C4|C5): (.*)", body).groups()
    assert induces(g, kind, verts.split())


CHECKS = {
    "proper-interval": check_proper_interval,
    "trivially-perfect": check_trivially_perfect,
    "bipartite": check_bipartite,
    "split": check_split,
}


def test_every_printed_witness_holds_in_the_graph(tmp_path, capsys):
    path = tmp_path / "g.txt"
    reached = Counter()
    for g in inputs():
        path.write_text(format_edge_list(g))
        assert cli.main(["recognize", str(path)]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == "" and [ln.split(":")[0] for ln in lines] == list(CHECKS)
        for line in lines:
            name, answer, body = LINE.fullmatch(line).groups()
            CHECKS[name](g, answer == "yes", body)
            reached[name, answer] += 1
    assert {(name, a) for name in CHECKS for a in ("yes", "no")} == set(reached)
    assert min(reached.values()) >= 20, reached
