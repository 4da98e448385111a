"""Plain-text edge-list parsing and formatting.

One edge per line as two whitespace-separated labels. Isolated vertices are
declared as `vertex <label>` lines. `#` starts a comment that runs to the end
of the line. Blank lines are skipped.
"""

from __future__ import annotations

from .graph import Graph


class ParseError(ValueError):
    """Raised when edge-list text is malformed, with the line number."""


def parse_edge_list(text: str) -> Graph:
    """The graph of an edge list, checked and built in one pass."""
    adj: dict[str, set[str]] = {}
    edges: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError(
                    f"line {lineno}: vertex line needs exactly one label"
                )
            adj.setdefault(tokens[1], set())
            continue
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected two labels, got {len(tokens)}"
            )
        u, v = tokens
        if u == v:
            raise ParseError(f"line {lineno}: self-loop on {u!r}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        edges.add(e)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return Graph._trusted(
        tuple(sorted(adj)),
        frozenset(edges),
        dict.fromkeys(adj, 1),
        {v: frozenset(ns) for v, ns in adj.items()},
    )


def format_edge_list(g: Graph) -> str:
    """The edge-list text of g; ValueError names a label that would not
    read back as one token (empty, with whitespace or with `#`)."""
    for v in g.vertices:
        if v.split() != [v] or "#" in v:
            raise ValueError(f"label {v!r} cannot be written in an edge list")
    lines = [f"vertex {v}" for v in g.vertices if g.degree(v) == 0]
    # an edge line starting with `vertex` would read back as a declaration
    lines.extend(f"{v} {u}" if u == "vertex" else f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + ("\n" if lines else "")
