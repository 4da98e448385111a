"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --workloads interval,check --seeds 1-10 --seconds 25

For every workload and metric it prints the median of the runs and their
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. With --record PATH it also writes the
per-run values, medians and spreads as JSON, with the line count of src/,
and each run's per-batch value digests, which run.py then pins. Workloads
already in PATH and not swept now are kept.
Runs go one after another, never in parallel, so they do not slow each
other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import count_src_lines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, list[str | None]]:
    """The run's JSON result and its per-batch value digests."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    return json.loads(proc.stdout.strip().splitlines()[-1]), record["batch_digests"]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict = {}
    digests: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res, digests.setdefault(workload, {})[str(seed)] = run_once(
                workload, seed, args.seconds)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(workload, seed, res["correct"], res["attempted"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            metrics[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound}
            print(f"  {workload} {name}: median {metrics[name]['median']:.4f} "
                  f"spread {metrics[name]['spread']:.4f} (bound {bound}, a third "
                  f"{bound / 3:.4f})", flush=True)
        summary[workload] = {"seeds": seeds, "seconds": args.seconds,
                             "metrics": metrics, "runs": runs}
    if args.record:
        path = Path(args.record)
        old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        doc = {"src_lines": count_src_lines(),
               "workloads": {**old.get("workloads", {}), **summary},
               "digests": {**old.get("digests", {}),
                           **{w: d for w, d in digests.items()
                              if any(x for run in d.values() for x in run)}}}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
