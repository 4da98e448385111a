"""Output checker, independent of the solvers (imports nothing from stcsolve).

Each check returns None when the output is right, else a one-line reason
that starts with "wrong". Checked for `solve`: the exit code and document
shape, that strong and weak split the edge set exactly, validity by the
clique-per-strong-neighbourhood test, and the value against the instance's
reference (equal when the reference is exact, at least it when it is a
cluster-deletion lower bound). For `verify`: the verdict and value, or a
real open wedge as the witness. For `recognize`: every certificate, and
every yes/no against the benchmark's own class tests.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations

from families import Edge, Instance, canon

Adj = dict[str, set[str]]


def adjacency(inst: Instance) -> Adj:
    adj: Adj = {v: set() for v in inst.vertices}
    for u, v in inst.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def open_wedge(adj: Adj, strong: set[Edge]) -> tuple[str, str, str] | None:
    """A strong wedge u-v-w with uw not an edge, or None: each vertex's
    strong neighbourhood must be a clique."""
    sn: dict[str, list[str]] = {v: [] for v in adj}
    for u, v in strong:
        sn[u].append(v)
        sn[v].append(u)
    for v, ns in sn.items():
        for u in ns:
            missing = set(ns) - adj[u] - {u}
            if missing:
                return u, v, min(missing)
    return None


# -- class tests ------------------------------------------------------------


def is_trivially_perfect(adj: Adj) -> bool:
    """(P4, C4)-free exactly when every edge has nested closed
    neighbourhoods."""
    for u, nu in adj.items():
        cu = nu | {u}
        for v in nu:
            if u < v:
                cv = adj[v] | {v}
                if not (cu <= cv or cv <= cu):
                    return False
    return True


def is_bipartite(adj: Adj) -> bool:
    color: dict[str, int] = {}
    for s in adj:
        if s in color:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    q.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def is_split(adj: Adj) -> bool:
    """Hammer-Simeone degree-sequence test."""
    degs = sorted((len(ns) for ns in adj.values()), reverse=True)
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    return sum(degs[:m]) == m * (m - 1) + sum(degs[m:])


def is_umbrella(adj: Adj, order: list[str]) -> bool:
    """Every vertex's neighbours are consecutive around it in `order`."""
    pos = {v: i for i, v in enumerate(order)}
    for v, ns in adj.items():
        if not ns:
            continue
        ps = [pos[u] for u in ns] + [pos[v]]
        if max(ps) - min(ps) + 1 != len(ps):
            return False
    return True


def _induced_kind(adj: Adj, vs: list[str]) -> str | None:
    """Name of the induced subgraph on vs among P4, C4, 2K2, C5 (in the
    given vertex order for the paths and cycles)."""
    n = len(vs)
    if len(set(vs)) != n or any(v not in adj for v in vs):
        return None
    edges = {frozenset(p) for p in combinations(vs, 2) if p[1] in adj[p[0]]}
    ring = {frozenset((vs[i], vs[(i + 1) % n])) for i in range(n)}
    if n == 4:
        chain = {frozenset((vs[i], vs[i + 1])) for i in range(3)}
        if edges == chain:
            return "P4"
        if edges == ring:
            return "C4"
        if edges == {frozenset(vs[:2]), frozenset(vs[2:])}:
            return "2K2"
    if n == 5 and edges == ring:
        return "C5"
    return None


# -- per-subcommand checks ----------------------------------------------------


def check_solve(inst: Instance, adj: Adj, code: int, out: str) -> tuple[str | None, int | None]:
    """Returns (reason or None, value)."""
    if code != 0:
        return f"wrong exit code {code}", None
    try:
        doc = json.loads(out)
        value = doc["value"]
        strong_l, weak_l = doc["strong"], doc["weak"]
        if not isinstance(doc["solver"], str) or not isinstance(doc["stats"], dict):
            raise TypeError("solver/stats")
        strong = [canon(*e) for e in strong_l]
        weak = [canon(*e) for e in weak_l]
    except (ValueError, KeyError, TypeError) as exc:
        return f"wrong document shape: {exc}", None
    sset, wset = set(strong), set(weak)
    if len(sset) != len(strong) or len(wset) != len(weak) or sset & wset:
        return "wrong: strong/weak repeat or overlap", value
    if sset | wset != set(inst.edges):
        return "wrong: strong + weak is not the edge set", value
    if value != len(sset):
        return f"wrong value {value}: {len(sset)} strong edges", value
    wedge = open_wedge(adj, sset)
    if wedge is not None:
        return f"wrong: open wedge {' '.join(wedge)}", value
    ref = inst.ref_value
    if inst.exact and value != ref:
        return f"wrong value {value}, optimum {ref}", value
    if value < ref:
        return f"wrong value {value} below lower bound {ref}", value
    return None, value


def check_verify(inst: Instance, adj: Adj, strong: set[Edge], planted: bool,
                 code: int, out: str) -> str | None:
    """`strong` is the labeling handed to verify; `planted` says whether it
    carries a planted open wedge."""
    line = out.strip()
    if not planted:
        if code != 0 or line != f"VALID value={len(strong)}":
            return f"wrong verdict on a valid labeling: exit {code}, {line[:80]!r}"
        return None
    parts = line.split()
    if code != 1 or len(parts) != 4 or parts[0] != "INVALID":
        return f"wrong verdict on a planted wedge: exit {code}, {line[:80]!r}"
    u, v, w = parts[1:]
    if (canon(u, v) not in strong or canon(v, w) not in strong
            or u == w or w in adj.get(u, ())):
        return f"wrong: witness {u} {v} {w} is not an open strong wedge"
    return None


def check_recognize(inst: Instance, adj: Adj, code: int, out: str) -> str | None:
    if code != 0:
        return f"wrong exit code {code}"
    lines = out.splitlines()
    keys = ["proper-interval", "trivially-perfect", "bipartite", "split"]
    if len(lines) != 4 or [ln.split(":", 1)[0] for ln in lines] != keys:
        return "wrong recognize shape"
    truth = {
        "trivially-perfect": is_trivially_perfect(adj),
        "bipartite": is_bipartite(adj),
        "split": is_split(adj),
    }
    if inst.proper_interval is not None:
        truth["proper-interval"] = inst.proper_interval
    for key, line in zip(keys, lines):
        body = line.split(":", 1)[1].strip()
        yes = body.startswith("yes")
        if not (yes or body.startswith("no")):
            return f"wrong {key} answer {body[:40]!r}"
        if key in truth and truth[key] != yes:
            return f"wrong {key} answer: {'yes' if yes else 'no'}"
        cert = body[body.find("(") + 1: body.rfind(")")] if "(" in body else ""
        try:
            bad = _certificate_error(key, yes, cert, adj)
        except (ValueError, KeyError, IndexError):
            bad = f"unreadable {cert[:40]!r}"
        if bad:
            return f"wrong {key} certificate: {bad}"
    return None


def _certificate_error(key: str, yes: bool, cert: str, adj: Adj) -> str | None:
    words = cert.split()
    if key == "proper-interval":
        if yes:
            order = words[1:]  # "order: ..."
            if sorted(order) != sorted(adj) or not is_umbrella(adj, order):
                return "order is not an umbrella ordering"
            return None
        x, y, z = words[-3:]
        if z not in adj[x] or (y in adj[x] and z in adj[y]):
            return f"{x} {y} {z} violates no umbrella"
        return None
    if key == "trivially-perfect":
        if yes:
            return None
        kind, quad = words[1].rstrip(":"), words[2:]
        return None if _induced_kind(adj, quad) == kind else f"no induced {kind}"
    if key == "bipartite":
        if yes:
            text = cert.split(":", 1)[1]
            a, b = (set(s.split()) for s in text.split("|"))
            if a & b or a | b != set(adj):
                return "sides do not partition the vertices"
            if any(adj[v] & a for v in a) or any(adj[v] & b for v in b):
                return "an edge inside a side"
            return None
        cyc = words[2:]
        k = len(cyc)
        if k % 2 == 0 or len(set(cyc)) != k or any(
                cyc[(i + 1) % k] not in adj[cyc[i]] for i in range(k)):
            return "not an odd cycle"
        return None
    # split
    if yes:
        text = cert.split(":", 1)[1]
        cl_text, ind_text = text.split("|")
        cl = cl_text.split()
        ind = ind_text.split(":", 1)[1].split()
        if set(cl) | set(ind) != set(adj) or set(cl) & set(ind):
            return "sides do not partition the vertices"
        if any(v not in adj[u] for u, v in combinations(cl, 2)):
            return "clique side is not a clique"
        if any(adj[v] & set(ind) for v in ind):
            return "independent side has an edge"
        return None
    kind, vs = words[1].rstrip(":"), words[2:]
    return None if _induced_kind(adj, vs) == kind else f"no induced {kind}"
