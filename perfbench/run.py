"""Seeded, standard-library benchmark of the stcsolve command line.

    python3 perfbench/run.py --workload interval --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
./src. One process, one closed-loop client, no threads: each operation is
`stcsolve.cli.main([...])` on edge-list files written under
perfbench/work/, with stdout and stderr captured, which is what the console
script does minus interpreter start. Every output is checked by
checker.py. Operations run batch after batch (each batch is the
workload's whole instance set, freshly drawn) until --seconds have passed
and at least MIN_OPS operations ran. End-to-end times are wall times
rescaled to a reference CPU speed (refclock.py); the raw wall times are
printed beside them.

--trace 0 reports the end-to-end metrics; --trace 1 runs each operation
once untraced and once with every public layer function wrapped (see
layers.py), reports the per-layer metrics, then runs the workload's probes.
A failed operation (exception, unexpected exit code, wrong output, time
limit or memory guard) counts as the time limit in every timing. The
report lines name each failure with its reason; the last stdout line is
the JSON result, and a fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import families as F  # noqa: E402
import guard  # noqa: E402
import refclock  # noqa: E402
from checker import adjacency, check_recognize, check_solve, check_verify  # noqa: E402
from layers import OP_SPAN, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Op, build_batch, build_probes  # noqa: E402

MIN_OPS = 100
SETUP_REPS = 9
HARD_STOP_S = 120.0  # start no operation after this, whatever --seconds says
DEFAULT_SEED = 1
# Pinned digests of each batch's optimum values, per workload and seed:
# baseline.json "digests" -> workload -> seed -> [digest of batch 0, 1, ...].
# They pin optimality where the checker's reference is only a lower bound.
# Source: stcsolve at the commit that added this benchmark, where every one
# of those values also passed the checker's own reference (a closed form, a
# maximum matching, or at least a cluster-deletion bound); sweep.py
# --record writes them. Batches past the pinned ones print their digests.
BASELINE = HERE / "baseline.json"


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile, always paired with its sample count."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def op_seconds(seconds: float, failed: bool) -> float:
    """The time an operation counts for: the limit when it failed."""
    return guard.TIME_LIMIT_S if failed else seconds


def format_percentile(name: str, q: float, value_ms: float, n: int) -> str:
    """A percentile line; it cannot be written without its sample count."""
    beyond = n - max(1, math.ceil(q / 100.0 * n))
    return f"{name} {value_ms:.4f} ms (n={n}, {beyond} samples beyond)"


# -- one operation --------------------------------------------------------------


def write_inputs(ops: list[Op], workdir: Path) -> list[list[str]]:
    """Write each operation's files; return its CLI argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for k, op in enumerate(ops):
        gpath = workdir / f"{k}.txt"
        gpath.write_text(op.inst.edge_list_text(), encoding="utf-8")
        if op.kind == "verify":
            strong = sorted(op.strong)
            doc = {"strong": [list(e) for e in strong],
                   "weak": [list(e) for e in sorted(set(op.inst.edges) - op.strong)]}
            if not op.planted:
                doc["value"] = len(strong)
            lpath = workdir / f"{k}.json"
            lpath.write_text(json.dumps(doc), encoding="utf-8")
            argvs.append(["verify", str(gpath), str(lpath)])
        else:
            argvs.append([op.kind, str(gpath)] + op.args)
    return argvs


def check(op: Op, outcome: guard.Outcome) -> tuple[str | None, int | None]:
    """Failure reason (None when the output is right) and the solve value."""
    if outcome.error is not None:
        return outcome.error, None
    adj = adjacency(op.inst)
    if op.kind == "solve":
        return check_solve(op.inst, adj, outcome.code, outcome.out)
    if op.kind == "recognize":
        return check_recognize(op.inst, adj, outcome.code, outcome.out), None
    return check_verify(op.inst, adj, op.strong, op.planted, outcome.code, outcome.out), None


# -- set-up ---------------------------------------------------------------------


def fresh_cli():
    """Import stcsolve from ./src afresh, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "stcsolve" or k.startswith("stcsolve.")]:
        del sys.modules[name]
    cli = importlib.import_module("stcsolve.cli")
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise ImportError(f"stcsolve imported from {cli.__file__}, not {SRC}")
    return cli


def warm_up(cli, workdir: Path) -> None:
    """Solve and recognize one tiny fixed graph, checking both outputs."""
    inst = F.disjoint_union("warm-up", [F.path(random.Random(0), 6, "w"),
                                        F.clique(random.Random(0), 3, "x")])
    ops = [Op("warm-up", "solve", inst), Op("warm-up", "recognize", inst)]
    for op, argv in zip(ops, write_inputs(ops, workdir / "warm-up")):
        reason, _ = check(op, guard.run_guarded(lambda: cli.main(argv)))
        if reason is not None:
            raise RuntimeError(f"warm-up operation failed: {reason}")


# -- the run ----------------------------------------------------------------------


def count_src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def batch_digests(records: list[dict]) -> list[str | None]:
    """Digest of each batch's optimum values; None for a batch that has
    none, or that has a failed operation (its failure is counted already)."""
    texts: dict[int, str] = {}
    spoilt: set[int] = set()
    for r in records:
        if r["reason"] is not None:
            spoilt.add(r["batch"])
        elif r["value"] is not None:
            texts[r["batch"]] = texts.get(r["batch"], "") + f"{r['name']}={r['value']}\n"
    nb = max((r["batch"] for r in records), default=-1) + 1
    return [hashlib.sha256(texts[b].encode()).hexdigest()[:16]
            if b in texts and b not in spoilt else None for b in range(nb)]


def pinned_digests(workload: str, seed: int) -> list[str | None]:
    digests = json.loads(BASELINE.read_text(encoding="utf-8")).get("digests", {})
    return digests.get(workload, {}).get(str(seed), [])


def digest_mismatches(digests: list[str | None], pinned: list[str | None]) -> list[int]:
    """Batches whose values differ from their pinned digest."""
    return [b for b, (d, p) in enumerate(zip(digests, pinned))
            if d is not None and p is not None and d != p]


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    # set-up runs SETUP_REPS times, each preparing one batch; only batch 0
    # is kept, so the inputs held in memory are one batch at any time
    gauge = refclock.SpeedGauge()
    gauge.sample()
    setups, raw_setups = [], []
    for b in range(SETUP_REPS):
        t0 = time.perf_counter()
        cli = fresh_cli()
        ops = build_batch(workload, seed, b)
        argv = write_inputs(ops, workdir / str(b))
        warm_up(cli, workdir)
        raw = time.perf_counter() - t0
        gauge.sample()
        raw_setups.append(raw)
        setups.append(raw * gauge.scale())
        if b == 0:
            batches, argvs = [ops], [argv]
        else:
            shutil.rmtree(workdir / str(b), ignore_errors=True)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    records: list[dict] = []
    batch_times: list[float] = []
    untraced_s: dict[int, float] = {}
    t_start = time.perf_counter()
    b = 0
    while True:
        if b >= len(batches):
            batches.append(build_batch(workload, seed, b))
            argvs.append(write_inputs(batches[b], workdir / str(b)))
        total = 0.0
        gc.collect()  # every batch starts from the same collector state
        gauge.sample()
        for op, argv in zip(batches[b], argvs[b]):
            op_id = len(records)
            if time.perf_counter() - t_start > HARD_STOP_S:
                # past the run's deadline the rest of the batch is charged
                # as failed, so a stall can never shorten a batch
                outcome = guard.Outcome(0.0, None, "", "not run: run deadline")
            else:
                outcome = guard.run_guarded(lambda: cli.main(argv))
            gauge.sample()
            ref_seconds = outcome.seconds * gauge.scale()
            reason, value = check(op, outcome)
            if tracer is not None and outcome.error is None:
                untraced_s[op_id] = outcome.seconds
                tracer.op_id, tracer.active = op_id, True
                traced = guard.run_guarded(
                    lambda: tracer.call(OP_SPAN, cli.main, None, (argv,)))
                tracer.active = False
                if reason is None and (traced.error or traced.out != outcome.out):
                    reason = f"traced run differs: {traced.error or 'output'}"
            secs = op_seconds(ref_seconds, reason is not None)
            total += secs
            records.append({"name": op.name, "kind": op.kind, "batch": b,
                            "seconds": secs, "wall_s": outcome.seconds,
                            "reason": reason, "value": value})
        batch_times.append(total)
        batches[b] = argvs[b] = None  # inputs are timed once, then dropped
        shutil.rmtree(workdir / str(b), ignore_errors=True)
        b += 1
        elapsed = time.perf_counter() - t_start
        if elapsed > HARD_STOP_S or (elapsed >= seconds and len(records) >= MIN_OPS):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probes = []
    if tracer is not None:
        probe_ops = build_probes(workload, seed)
        for op, argv in zip(probe_ops, write_inputs(probe_ops, workdir / "probes")):
            tracer.op_id, tracer.active = -1 - len(probes), True
            outcome = guard.run_guarded(
                lambda: tracer.call(OP_SPAN, cli.main, None, (argv,)))
            tracer.active = False
            reason, _ = check(op, outcome)
            probes.append({"name": op.name, "seconds": outcome.seconds, "reason": reason})
        tracer.uninstall()

    return {"setups": setups, "raw_setups": raw_setups, "records": records,
            "batch_times": batch_times, "peak_rss_mb": peak_rss_mb, "probes": probes,
            "tracer": tracer, "untraced_s": untraced_s}


def end_to_end(res: dict) -> tuple[dict, list[str]]:
    times_ms = [r["seconds"] * 1000.0 for r in res["records"]]
    p50 = statistics.median(times_ms)
    p90, n = percentile(times_ms, 90)
    failed = sum(r["reason"] is not None for r in res["records"])
    batch_s = statistics.median(res["batch_times"])
    metrics = {
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "batch_s": (batch_s, "s"),
        "ok_share": ((n - failed) / n, "share"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(res["setups"]), "s"),
    }
    wall_ms = [r["wall_s"] * 1000.0 for r in res["records"]]
    lines = [
        "times are at reference speed (see refclock.py); raw wall times: "
        f"op p50 {statistics.median(wall_ms):.4f} ms, "
        f"p90 {percentile(wall_ms, 90)[0]:.4f} ms, "
        f"set-up {statistics.median(res['raw_setups']):.4f} s",
        f"op_p50_ms {p50:.4f} ms (n={n})",
        format_percentile("op_p90_ms", 90, p90, n),
        f"batch_s {batch_s:.4f} s (median of {len(res['batch_times'])} batches)",
        f"fail_share {failed / n:.4f} ({failed} of {n} operations failed)",
        f"ok_share {(n - failed) / n:.4f} share (n={n})",
        f"peak_rss_mb {res['peak_rss_mb']:.1f} MB",
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(res['setups'])} set-ups)",
    ]
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    tracer = res["tracer"]
    nb = max(len(res["batch_times"]), 1)
    metrics, absent = summarize(tracer.spans, res["untraced_s"], tracer.present, nb,
                                [r["reason"] for r in res["records"] + res["probes"]])
    lines = [f"per-layer figures are per instance set (mean of {nb} batches); "
             "solvers.errors counts failed operations, probes included"]
    lines += [f"absent: {m} (its public function is gone)" for m in absent]
    for p in res["probes"]:
        verdict = "ok" if p["reason"] is None else f"FAILED {p['reason']}"
        lines.append(f"probe {p['name']}: {verdict} ({p['seconds']:.3f} s)")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stcsolve" / "cli.py").is_file():
        print(f"error: no stcsolve sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    guard.install_memory_guard()

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = res["records"]
    failed = [r for r in records if r["reason"] is not None]
    wrong = [r for r in failed if r["reason"].startswith(("wrong", "traced run"))]
    digests = batch_digests(records)
    pinned = pinned_digests(args.workload, args.seed)
    mismatched = digest_mismatches(digests, pinned)
    if args.trace:
        metrics, lines = per_layer(res)
    else:
        metrics, lines = end_to_end(res)
    header = (f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{len(records)} operations in {len(res['batch_times'])} batches")
    lines = [header] + lines
    lines += [f"failed {r['name']} (batch {r['batch']}): {r['reason']}" for r in failed]
    if any(d is not None for d in digests):
        checked = sum(d is not None and p is not None for d, p in zip(digests, pinned))
        lines.append(f"value digests: {checked} of {len(digests)} batches checked "
                     f"against pinned ones, {len(mismatched)} differ")
        lines += [f"wrong values in batch {b}: digest {digests[b]}, pinned {pinned[b]}"
                  for b in mismatched]
        lines += [f"value digest of batch {b}: {d}"
                  for b, d in enumerate(digests) if b >= len(pinned) and d is not None]
    lines.append(f"src_lines {count_src_lines()}")

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "setups_s": res["setups"], "batch_s": res["batch_times"],
              "operations": records, "probes": res["probes"],
              "batch_digests": digests, "src_lines": count_src_lines()}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if res["tracer"] is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "info", "error"],
             "spans": res["tracer"].spans}))

    for line in lines:
        print(line)
    result = {
        "correct": not wrong and not mismatched,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
