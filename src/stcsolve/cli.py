"""Command line front end.

Subcommands: solve, verify, generate, recognize, incompat. Graphs travel as
plain edge-list text (``-`` reads stdin), labelings as JSON documents. Exit
codes: 0 success, 1 invalid labeling, 2 malformed input or bad parameters,
3 forced solver given a graph outside its class, 4 instance unsupported
(for example the brute-force cap).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import combinations

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
    OracleCapError,
    UnsupportedInstanceError,
    WrongClassError,
    find_odd_cycle,
    find_p4_or_c4,
    solve_auto,
    solve_bipartite,
    solve_oracle,
    solve_pig_dp,
    solve_trivially_perfect,
    trivially_perfect_forest,
    two_coloring,
)
from .split import find_split_obstruction, split_partition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_WRONG_CLASS = 3
EXIT_UNSUPPORTED = 4


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


def _result_document(result) -> str:
    doc = {
        "value": result.value,
        "solver": result.solver,
        "strong": [list(e) for e in sorted(result.labeling.strong)],
        "weak": [list(e) for e in sorted(result.labeling.weak)],
        "stats": {k: v for k, v in result.stats.items() if k != "time_ms"},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _cmd_solve(args) -> int:
    g = _load_graph(args.input)
    try:
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
    except WrongClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRONG_CLASS
    except (OracleCapError, UnsupportedInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
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
    value = sum(g.edge_weight(u, v) for u, v in strong if (u, v) in g.edges)
    if "value" in doc and doc["value"] != value:
        raise ParseError(
            f"document claims value {doc['value']} but the strong edges "
            f"weigh {value}"
        )
    return StrongWeakLabeling(strong=strong, weak=weak, value=value)


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    lab = _parse_labeling(g, _read_text(args.labeling))
    try:
        witness = validate_stc(g, lab)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if witness is not None:
        u, v, w = witness
        print(f"INVALID {u} {v} {w}")
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
    try:
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
        for k, t in rows:
            sys.stdout.write(f"# threshold {k} {t}\n")
        if args.sidecar:
            with open(args.sidecar, "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} {t}\n" for k, t in rows)
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _induced_quad_kind(g: Graph, quad: tuple[str, str, str, str]) -> str | None:
    a, b, c, d = quad
    path = g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
    if path and not g.has_edge(a, c) and not g.has_edge(b, d):
        return "C4" if g.has_edge(a, d) else "P4"
    return None


def _split_witness_holds(g: Graph, kind: str, verts: tuple[str, ...]) -> bool:
    """Whether verts induce exactly the claimed 2K2 (two edges, as listed),
    C4 or C5 (along the cycle)."""
    k = len(verts)
    if k != {"2K2": 4, "C4": 4, "C5": 5}.get(kind) or len(set(verts)) != k:
        return False
    for i, j in combinations(range(k), 2):
        edge = (i, j) in ((0, 1), (2, 3)) if kind == "2K2" else j - i in (1, k - 1)
        if g.has_edge(verts[i], verts[j]) != edge:
            return False
    return True


def _cmd_recognize(args) -> int:
    g = _load_graph(args.input)

    order = candidate_order(g)  # the order recognize() verifies
    triple = verify_umbrella(g, order)
    if triple is None:
        print(f"proper-interval: yes (order: {' '.join(order)})")
    else:
        print(f"proper-interval: no (umbrella violated: {' '.join(triple)})")

    if trivially_perfect_forest(g) is not None:
        print("trivially-perfect: yes")
    else:
        kind, four = find_p4_or_c4(g)
        if _induced_quad_kind(g, four) != kind:
            raise RuntimeError("reported quadruple is not the claimed subgraph")
        print(f"trivially-perfect: no (induced {kind}: {' '.join(four)})")

    colors = two_coloring(g)
    if colors is not None:
        bad = [(u, v) for u, v in g.edges if colors[u] == colors[v]]
        if bad:
            raise RuntimeError(f"2-coloring leaves monochromatic edges {bad}")
        zero = " ".join(v for v in g.vertices if colors[v] == 0)
        one = " ".join(v for v in g.vertices if colors[v] == 1)
        print(f"bipartite: yes (sides: {zero} | {one})")
    else:
        cycle = find_odd_cycle(g)
        if (
            cycle is None
            or len(cycle) % 2 == 0
            or not all(
                g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            )
        ):
            raise RuntimeError("odd-cycle witness does not check out")
        print(f"bipartite: no (odd cycle: {' '.join(cycle)})")

    split = split_partition(g)
    if split is not None:
        clique, rest = split
        print(f"split: yes (clique: {' '.join(clique)} | independent: {' '.join(rest)})")
    else:
        kind, verts = find_split_obstruction(g)
        if not _split_witness_holds(g, kind, verts):
            raise RuntimeError("split obstruction is not the claimed subgraph")
        print(f"split: no (induced {kind}: {' '.join(verts)})")
    return EXIT_OK


def _cmd_incompat(args) -> int:
    g = _load_graph(args.input)
    h = build_incompat(g)
    name = {e: f"{e[0]}-{e[1]}" for e in h.nodes}
    clash = sorted(x for x, k in Counter(name.values()).items() if k > 1)
    if clash:  # labels with '-' can make two edges' names equal
        print(f"error: conflict-graph node name {clash[0]!r} names two edges", file=sys.stderr)
        return EXIT_UNSUPPORTED
    out = Graph(
        [name[e] for e in h.nodes],
        [(name[a], name[b]) for a, b in h.conflicts],
    )
    sys.stdout.write(format_edge_list(out))
    return EXIT_OK


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
    except (ParseError, OSError) as exc:  # unreadable or malformed input, on every command
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
