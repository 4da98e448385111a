"""Command line front end.

Subcommands: solve, verify, generate, recognize, incompat. Graphs travel as
plain edge-list text (``-`` reads stdin), labelings as JSON documents. Exit
codes: 0 success, 1 invalid labeling, 2 malformed input or bad parameters,
3 forced solver given a graph outside its class, 4 instance unsupported
(the brute-force cap, or a search deeper than the recursion limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cache
from itertools import combinations
from json.encoder import encode_basestring_ascii

from .edgelist import ParseError, format_edge_list, parse_edge_list
from .graph import Graph, canon_edge
from .incompat import StrongWeakLabeling, build_incompat, validate_stc
from .ordering import candidate_order, verify_umbrella
from .reductions import (
    SetPackingInstance,
    gen_disjointnn_from_3sp,
    gen_maxstc_from_disjointnn,
    gen_random_proper_interval,
    gen_random_trivially_perfect,
)
from .solvers import (
    DEFAULT_ORACLE_CAP,
    UnsupportedInstanceError,
    WrongClassError,
    _color_or_odd_cycle,
    find_p4_or_c4,
    solve_auto,
    solve_bipartite,
    solve_oracle,
    solve_pig_dp,
    solve_trivially_perfect,
    trivially_perfect_forest,
)
from .split import find_split_obstruction, split_partition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_WRONG_CLASS = 3
EXIT_UNSUPPORTED = 4

# exit code of each failure a command raises, first match wins; others escape main
_EXIT_CODES = {
    WrongClassError: EXIT_WRONG_CLASS,
    UnsupportedInstanceError: EXIT_UNSUPPORTED,  # also OracleCapError
    RecursionError: EXIT_UNSUPPORTED,  # a search deeper than the recursion limit
    ValueError: EXIT_INPUT,  # also ParseError: malformed input, bad parameters
    OSError: EXIT_INPUT,  # a file that cannot be read or written
}


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name} is not UTF-8 text: {exc}") from None


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _pairs(edges) -> str:
    """A sorted list of label pairs as json.dumps(indent=2) lays it out one
    level deep."""
    if not edges:
        return "[]"
    enc = encode_basestring_ascii
    body = "\n    ],\n    [\n      ".join(
        f"{enc(u)},\n      {enc(v)}" for u, v in sorted(edges)
    )
    return f"[\n    [\n      {body}\n    ]\n  ]"


def _result_document(result) -> str:
    """The result as json.dumps(doc, indent=2, sort_keys=True) writes it,
    without that call's pure-Python encoder: the keys in sorted order, the
    pairs escaped by the same function json uses, only the small stats
    dict through json.dumps."""
    stats_doc = json.dumps(result.stats, indent=2, sort_keys=True).replace("\n", "\n  ")
    return (
        f'{{\n  "solver": {encode_basestring_ascii(result.solver)},\n'
        f'  "stats": {stats_doc},\n'
        f'  "strong": {_pairs(result.labeling.strong)},\n'
        f'  "value": {json.dumps(result.value)},\n'
        f'  "weak": {_pairs(result.labeling.weak)}\n}}'
    )


def _cmd_solve(args) -> int:
    g = _load_graph(args.input)
    if args.solver == "auto":
        result = solve_auto(g, oracle_cap=args.oracle_cap)
    elif args.solver == "pig":
        result = solve_pig_dp(g)
    elif args.solver == "tp":
        result = solve_trivially_perfect(g)
    elif args.solver == "bip":
        result = solve_bipartite(g)
    else:
        result = solve_oracle(g, cap=args.oracle_cap)
    print(_result_document(result))
    return EXIT_OK


def _parse_labeling(g: Graph, text: str) -> StrongWeakLabeling:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ParseError(f"labeling is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "strong" not in doc or "weak" not in doc:
        raise ParseError("labeling document needs 'strong' and 'weak' lists")

    def side(key: str) -> frozenset:
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

    strong, weak = side("strong"), side("weak")
    value = len(strong & g.edges)  # an edge-list graph has unit weights
    claim = doc.get("value", value)
    if isinstance(claim, bool) or not isinstance(claim, int):  # JSON true is not 1
        raise ParseError(f"'value' must be an integer, not {claim!r}")
    if claim != value:
        raise ParseError(f"document claims value {claim} but the strong edges weigh {value}")
    return StrongWeakLabeling(strong=strong, weak=weak, value=value)


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    lab = _parse_labeling(g, _read_text(args.labeling))
    witness = validate_stc(g, lab)
    if witness is not None:
        print(f"INVALID {' '.join(witness)}")
        return EXIT_INVALID
    print(f"VALID value={lab.value}")
    return EXIT_OK


def _parse_triplets(specs: list[str]) -> tuple[frozenset[int], ...]:
    out = []
    for spec in specs:
        parts = spec.split(",")
        if len(parts) != 3:
            raise ValueError(f"triplet {spec!r} needs three comma-separated numbers")
        try:
            vals = frozenset(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"triplet {spec!r} has a non-integer entry") from None
        out.append(vals)
    return tuple(out)


def _cmd_generate(args) -> int:
    if args.kind in ("pig", "tp"):
        if args.n is None:
            raise ValueError(f"--n is required for kind {args.kind}")
        if args.n < 0:
            raise ValueError("--n must be non-negative")
        if args.kind == "pig":
            g = gen_random_proper_interval(args.n, seed=args.seed, density=args.density)
        else:
            g = gen_random_trivially_perfect(args.n, seed=args.seed)
        sys.stdout.write(format_edge_list(g))
        return EXIT_OK
    if args.universe is None:
        raise ValueError(f"--universe is required for kind {args.kind}")
    sp = SetPackingInstance(args.universe, _parse_triplets(args.triplet))
    si = gen_disjointnn_from_3sp(sp)
    if args.kind == "3sp-reduction":
        sys.stdout.write(format_edge_list(si.graph))
        return EXIT_OK
    inst, threshold = gen_maxstc_from_disjointnn(si)
    sys.stdout.write(format_edge_list(inst.graph))
    rows = [(k, threshold(k)) for k in range(len(sp.triplets) + 1)]
    sys.stdout.writelines(f"# threshold {k} {t}\n" for k, t in rows)
    if args.sidecar:
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} {t}\n" for k, t in rows)
    return EXIT_OK


# the edges of each split obstruction, by index into its vertices as
# listed: cycles along themselves, a 2K2 as its two edges
_PATTERNS = {
    "C4": ((0, 1), (1, 2), (2, 3), (0, 3)),
    "2K2": ((0, 1), (2, 3)),
    "C5": ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
}


def _induces(g: Graph, kind: str, verts: tuple[str, ...]) -> bool:
    """Whether verts are distinct and induce exactly the pattern `kind`."""
    edges = _PATTERNS.get(kind, ())
    k = len(verts)
    if not edges or k != 1 + max(j for _, j in edges) or len(set(verts)) != k:
        return False
    return all(
        g.has_edge(verts[i], verts[j]) == ((i, j) in edges)
        for i, j in combinations(range(k), 2)
    )


def _cmd_recognize(args) -> int:
    g = _load_graph(args.input)

    order = candidate_order(g)  # what recognize() returns when it verifies
    triple = verify_umbrella(g, order)
    if triple is None:
        print(f"proper-interval: yes (order: {' '.join(order)})")
    else:
        print(f"proper-interval: no (umbrella violated: {' '.join(triple)})")

    if trivially_perfect_forest(g) is not None:
        print("trivially-perfect: yes")
    else:
        kind, four = find_p4_or_c4(g)
        print(f"trivially-perfect: no (induced {kind}: {' '.join(four)})")

    found = _color_or_odd_cycle(g)  # a coloring, or else an odd cycle
    if isinstance(found, dict):
        zero = " ".join(v for v in g.vertices if found[v] == 0)
        one = " ".join(v for v in g.vertices if found[v] == 1)
        print(f"bipartite: yes (sides: {zero} | {one})")
    else:
        print(f"bipartite: no (odd cycle: {' '.join(found)})")

    split = split_partition(g)
    if split is not None:
        clique, rest = split
        print(f"split: yes (clique: {' '.join(clique)} | independent: {' '.join(rest)})")
    else:
        kind, verts = find_split_obstruction(g)
        if not _induces(g, kind, verts):
            raise RuntimeError("split obstruction is not the claimed subgraph")
        print(f"split: no (induced {kind}: {' '.join(verts)})")
    return EXIT_OK


def _cmd_incompat(args) -> int:
    g = _load_graph(args.input)
    h = build_incompat(g)
    name = {e: f"{e[0]}-{e[1]}" for e in h.nodes}
    clash = sorted(x for x, k in Counter(name.values()).items() if k > 1)
    if clash:  # labels with '-' can make two edges' names equal
        raise UnsupportedInstanceError(f"conflict-graph node name {clash[0]!r} names two edges")
    out = Graph(
        [name[e] for e in h.nodes],
        [(name[a], name[b]) for a, b in h.conflicts],
    )
    sys.stdout.write(format_edge_list(out))
    return EXIT_OK


@cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stcsolve",
        description="Exact strong triadic closure maximization on small and "
        "structured graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and print a JSON result")
    p.add_argument("input", help="edge-list file, or - for stdin")
    p.add_argument(
        "--solver",
        choices=["auto", "pig", "tp", "bip", "oracle"],
        default="auto",
        help="force a specific solver instead of dispatching by class",
    )
    p.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_ORACLE_CAP,
        metavar="N",
        help="largest conflict graph the brute-force solver accepts",
    )
    p.add_argument(
        "--seedless",
        action="store_true",
        help="accepted for compatibility; solving is already deterministic",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a labeling document against a graph")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("labeling", help="JSON labeling file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="emit a generated instance as an edge list")
    p.add_argument("kind", choices=["pig", "tp", "3sp-reduction", "stc-reduction"])
    p.add_argument("--n", type=int, help="vertex count for pig and tp")
    p.add_argument("--density", type=float, default=0.5, help="pig density in [0,1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--universe", type=int, help="universe size for the reductions")
    p.add_argument(
        "--triplet",
        action="append",
        default=[],
        metavar="A,B,C",
        help="one 3-element subset; repeat for more",
    )
    p.add_argument(
        "--sidecar",
        metavar="PATH",
        help="also write the stc-reduction threshold table to this file",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "recognize", help="report graph-class memberships with checked witnesses"
    )
    p.add_argument("input", help="edge-list file, or - for stdin")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser(
        "incompat", help="print the edge-conflict graph as an edge list"
    )
    p.add_argument("input", help="edge-list file, or - for stdin")
    p.set_defaults(func=_cmd_incompat)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
