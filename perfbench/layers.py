"""Per-layer tracing over stcsolve's public API.

The traced run swaps each public function listed in `LAYERS` for a wrapper
in every stcsolve module that holds it, so calls the program makes between
its own layers are recorded as nested spans. Underscore names are never
wrapped. A span is (name, start, end, parent index, operation id, info,
error); spans stay in memory and are written out when the run ends. A
layer's self time is its span's duration minus that of its child spans.
A public name that no longer exists is reported as absent.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# span name -> (public name on the stcsolve package, info taken from the result)
LAYERS: dict[str, tuple[str, Callable[[Any, tuple], Any] | None]] = {
    "edgelist.parse": ("parse_edge_list", None),
    "graph.components": ("Graph.connected_components", lambda r, a: len(r)),
    "graph.contract": ("contract_twins", lambda r, a: (r[0].n, a[0].n)),
    "ordering.candidate": ("candidate_order", None),
    "ordering.verify": ("verify_umbrella", None),
    "ordering.recognize": ("recognize", lambda r, a: r is not None),
    "incompat.build": ("build_incompat", lambda r, a: (len(r.nodes), len(r.conflicts))),
    "incompat.expand": ("expand_labeling", None),
    "incompat.validate": ("validate_stc", None),
    "solvers.tp_check": ("find_p4_or_c4", None),
    "solvers.bipartite_check": ("two_coloring", None),
    "solvers.pig": ("solve_pig_dp", None),
    "solvers.tp": ("solve_trivially_perfect", None),
    "solvers.bipartite": ("solve_bipartite", lambda r, a: r.stats.get("matching_size", 0)),
    "solvers.oracle": ("solve_oracle", lambda r, a: r.stats.get("bb_states", 0)),
    "solvers.auto": ("solve_auto", None),
}
ROUTES = ("solvers.pig", "solvers.tp", "solvers.bipartite", "solvers.oracle")
OP_SPAN = "cli.op"

def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self.present: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every public function of LAYERS wherever stcsolve holds it."""
        package = sys.modules["stcsolve"]
        modules = [m for k, m in sys.modules.items()
                   if k == "stcsolve" or k.startswith("stcsolve.")]
        for span, (public, info) in LAYERS.items():
            original = _resolve(package, public)
            if original is None:
                continue
            self.present.add(span)
            wrapper = self._wrap(span, original, info)
            if "." in public:  # a method: patch its class
                owner_name, attr = public.rsplit(".", 1)
                owners = [_resolve(package, owner_name)]
            else:
                attr = public
                owners = [m for m in modules if getattr(m, attr, None) is original]
            for owner in owners:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, info):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, info, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, info, args=(), kwargs=None):
        parent = self.stack[-1] if self.stack else None
        span = [name, 0.0, 0.0, parent, self.op_id, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            span[6] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if info is not None:
            try:
                span[5] = info(result, args)
            except (AttributeError, TypeError, IndexError):
                pass  # the result changed shape: keep the timing, drop the count
        return result


ERROR_KINDS = ("RecursionError", "timeout", "memory", "other")


class Totals:
    """What the traced run measured, as the metric table reads it. Times
    and counts are per instance set (divided by the number of batches);
    error counts are per run."""

    def __init__(self, batches: int) -> None:
        self.batches = batches
        self.dur: dict[str, float] = defaultdict(float)  # span name -> seconds
        self.self_s: dict[str, float] = defaultdict(float)  # span name -> seconds
        self.counts: dict[str, float] = defaultdict(float)
        self.coverage: list[float] = []
        self.overhead: list[float] = []
        self.errors: dict[str, int] = dict.fromkeys(ERROR_KINDS, 0)
        self.auto_parts_s = 0.0  # tp_check and route calls made by solve_auto

    def ms(self, span: str) -> float:
        return self.dur[span] * 1000.0 / self.batches

    def self_ms(self, span: str) -> float:
        return self.self_s[span] * 1000.0 / self.batches

    def count(self, key: str) -> float:
        return self.counts[key] / self.batches

    def share(self, num: str, den: str) -> float:
        return self.counts[num] / self.counts[den] if self.counts[den] else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# per-layer metric -> (unit, the spans it needs, its value). A metric is
# absent when a span it needs has no public function any more.
METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[Totals], float]]] = {
    "edgelist.parse_ms": ("ms", ("edgelist.parse",), lambda t: t.ms("edgelist.parse")),
    "graph.components_ms": ("ms", ("graph.components",), lambda t: t.ms("graph.components")),
    "graph.components": ("count", ("graph.components",), lambda t: t.count("components")),
    "graph.contract_ms": ("ms", ("graph.contract",), lambda t: t.ms("graph.contract")),
    "graph.contracted_share": ("share", ("graph.contract",),
                               lambda t: t.share("contracted_n", "contract_n")),
    "ordering.candidate_ms": ("ms", ("ordering.candidate",),
                              lambda t: t.ms("ordering.candidate")),
    "ordering.verify_ms": ("ms", ("ordering.verify",), lambda t: t.ms("ordering.verify")),
    "ordering.recognize_calls": ("count", ("ordering.recognize",),
                                 lambda t: t.count("recognize")),
    "ordering.accept_share": ("share", ("ordering.recognize",),
                              lambda t: t.share("accepted", "recognize")),
    "incompat.build_ms": ("ms", ("incompat.build",), lambda t: t.ms("incompat.build")),
    "incompat.conflict_nodes": ("count", ("incompat.build",),
                                lambda t: t.count("conflict_nodes")),
    "incompat.conflict_edges": ("count", ("incompat.build",),
                                lambda t: t.count("conflict_edges")),
    "incompat.expand_ms": ("ms", ("incompat.expand",), lambda t: t.ms("incompat.expand")),
    "incompat.validate_ms": ("ms", ("incompat.validate",),
                             lambda t: t.ms("incompat.validate")),
    "solvers.tp_check_ms": ("ms", ("solvers.tp_check",), lambda t: t.ms("solvers.tp_check")),
    "solvers.bipartite_check_ms": ("ms", ("solvers.bipartite_check",),
                                   lambda t: t.ms("solvers.bipartite_check")),
    "solvers.matching_size": ("count", ("solvers.bipartite",), lambda t: t.count("matching")),
    "solvers.pig_self_ms": ("ms", ("solvers.pig",), lambda t: t.self_ms("solvers.pig")),
    "solvers.tp_self_ms": ("ms", ("solvers.tp",), lambda t: t.self_ms("solvers.tp")),
    "solvers.bipartite_self_ms": ("ms", ("solvers.bipartite",),
                                  lambda t: t.self_ms("solvers.bipartite")),
    "solvers.oracle_self_ms": ("ms", ("solvers.oracle",),
                               lambda t: t.self_ms("solvers.oracle")),
    "solvers.bb_states": ("count", ("solvers.oracle",), lambda t: t.count("bb_states")),
    "solvers.auto_over_direct": ("ratio", ("solvers.auto", "solvers.tp_check") + ROUTES,
                                 lambda t: (t.dur["solvers.auto"] / t.auto_parts_s
                                            if t.auto_parts_s else 0.0)),
    "solvers.errors": ("count", (), lambda t: sum(t.errors.values())),
    **{f"solvers.errors.{kind}": ("count", (), lambda t, kind=kind: t.errors[kind])
       for kind in ERROR_KINDS},
    "cli.self_ms": ("ms", (), lambda t: t.self_ms(OP_SPAN)),
    # median share of an operation's untraced time that its spans cover
    "trace.coverage_share": ("share", (), lambda t: _median(t.coverage)),
    # median traced / untraced time of an operation, minus 1
    "trace.overhead_share": ("share", (), lambda t: _median(t.overhead)),
}


def summarize(spans: list[list], untraced_s: dict[int, float], present: set[str],
              batches: int, reasons: list[str | None]
              ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, as name -> (value, unit), over the spans of the
    workload's operations (probes have negative operation ids and are left
    out), with the names of the metrics that are absent because a public
    function they time is gone. `reasons` holds the failure reason (or
    None) of every operation, probes included, for the error counts."""
    t = Totals(max(batches, 1))
    child: list[float] = [0.0] * len(spans)
    op_root: dict[int, int] = {}
    for i, (name, t0, t1, parent, op, info, _err) in enumerate(spans):
        if op < 0:
            continue
        d = t1 - t0
        t.dur[name] += d
        if parent is not None:
            child[parent] += d
            pname = spans[parent][0]
            if pname == "solvers.auto" and (name in ROUTES or name == "solvers.tp_check"):
                t.auto_parts_s += d
        if name == OP_SPAN:
            op_root[op] = i
        elif name == "graph.components" and info is not None:
            t.counts["components"] += info
        elif name == "graph.contract" and info is not None:
            t.counts["contracted_n"] += info[0]
            t.counts["contract_n"] += info[1]
        elif name == "ordering.recognize":
            t.counts["recognize"] += 1
            t.counts["accepted"] += 1 if info else 0
        elif name == "incompat.build" and info is not None:
            t.counts["conflict_nodes"] += info[0]
            t.counts["conflict_edges"] += info[1]
        elif name == "solvers.bipartite" and info is not None:
            t.counts["matching"] += info
        elif name == "solvers.oracle" and info is not None:
            t.counts["bb_states"] += info
    for i, span in enumerate(spans):
        if span[4] >= 0 and (span[0] in ROUTES or span[0] == OP_SPAN):
            t.self_s[span[0]] += span[2] - span[1] - child[i]
    for op, i in op_root.items():
        base = untraced_s.get(op)
        if base:
            t.coverage.append(child[i] / base)
            t.overhead.append((spans[i][2] - spans[i][1]) / base - 1.0)
    for reason in reasons:
        if reason is not None:
            t.errors[reason if reason in t.errors else "other"] += 1
    absent = [m for m, (_, needs, _) in METRICS.items() if any(s not in present for s in needs)]
    out = {m: (value(t), unit) for m, (unit, _, value) in METRICS.items() if m not in absent}
    return out, absent
