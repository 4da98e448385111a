"""No recursion whose depth grows with the input: every function in
src/stcsolve that can reach itself through calls it makes by name must be on
the allowlist below, with the bound on its depth."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stcsolve"

# "file:qualified name" -> what bounds the recursion depth
ALLOWED = {
    "solvers.py:_bb_max.dfs": "one level per branching conflict node, at most the oracle cap",
    "solvers.py:_bb_reaches": "one level per branching conflict node, at most the oracle cap",
    "reductions.py:brute_disjointnn.dfs": "one level per independent vertex, at most `cap`",
    "reductions.py:split_assignment_optimum.dfs": "one level per clique vertex of a small "
    "reduction instance (exponential search)",
    "reductions.py:gen_random_trivially_perfect.build": "at most n levels; a seeded generator "
    "of small test graphs, not a solver path",
}


def _call_graph(tree: ast.Module, fname: str) -> dict[str, set[str]]:
    """Qualified function name -> qualified names of the functions it calls
    by plain name (resolved through the enclosing function scopes, then the
    module) or as self.method inside a class."""
    calls: dict[str, set[str]] = {}

    def visit(node, prefix: str, scopes: list[dict[str, str]], cls: str | None) -> None:
        local = {
            c.name: f"{prefix}{c.name}"
            for c in node.body
            if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", scopes, f"{prefix}{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                inner = scopes if isinstance(node, ast.ClassDef) else scopes + [local]
                names = {
                    c.name: f"{qual}.{c.name}"
                    for c in child.body
                    if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                found = calls.setdefault(f"{fname}:{qual}", set())
                for sub in ast.walk(child):
                    if not isinstance(sub, ast.Call):
                        continue
                    f = sub.func
                    if isinstance(f, ast.Name):
                        for scope in reversed(inner + [names]):
                            if f.id in scope:
                                found.add(f"{fname}:{scope[f.id]}")
                                break
                    elif (
                        cls is not None
                        and isinstance(f, ast.Attribute)
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"
                    ):
                        found.add(f"{fname}:{cls}.{f.attr}")
                visit(child, f"{qual}.", inner, None)

    visit(tree, "", [], None)
    return calls


def recursive_functions(sources: dict[str, str]) -> set[str]:
    """Functions that lie on a cycle of the call graph of each source."""
    out = set()
    for fname, text in sources.items():
        calls = _call_graph(ast.parse(text), fname)
        for start in calls:
            stack, seen = list(calls[start]), set()
            while stack:
                f = stack.pop()
                if f == start:
                    out.add(start)
                    break
                if f in seen or f not in calls:
                    continue
                seen.add(f)
                stack.extend(calls[f])
    return out


def test_recursion_finder_sees_direct_and_mutual_recursion():
    text = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n"
        "    def a():\n        b()\n"
        "    def b():\n        a()\n"
        "    def c():\n        pass\n"
        "    c()\n"
        "class K:\n    def m(self):\n        self.m()\n    def p(self):\n        self.q()\n"
    )
    assert recursive_functions({"x.py": text}) == {"x.py:f", "x.py:g.a", "x.py:g.b", "x.py:K.m"}


def test_no_recursion_outside_the_allowlist():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = recursive_functions(sources)
    assert found - ALLOWED.keys() == set(), "recursion whose depth may grow with n"
    assert ALLOWED.keys() <= found, "stale allowlist entries"
