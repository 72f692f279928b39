"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 benchmark/summarize.py --runs 10 --seconds 40 [--workload NAME ...]
                                   [--first-seed 1] [--out FILE]

Prints, per workload and metric, the median, the quartiles, the sample count
and the interquartile spread as a share of the median (the figure compared
with each metric's bound in BENCHMARK.json). Exits 1 if any run fails its
checks; failed runs are reported, never retried or dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values),
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    summary = {}
    all_ok = True
    for name in args.workload or sorted(WORKLOADS):
        results, failures = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failures.append({"seed": seed, "exit": proc.returncode,
                                 "stderr": proc.stderr[-2000:]})
            if result is not None:
                results.append(result)
        metrics = {}
        for metric in results[0]["metrics"] if results else []:
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = {"unit": results[0]["metrics"][metric]["unit"],
                               **summarize(values)}
        summary[name] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                         "seconds": args.seconds, "metrics": metrics,
                         "attempted": sum(r["attempted"] for r in results),
                         "failed": sum(r["failed"] for r in results),
                         "failed_runs": failures}
        all_ok = all_ok and not failures
        for metric, s in metrics.items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and s["iqr_share"] > bound / 3:
                flag = "  spread above a third of the bound"
            print(f"{name:16s} {metric:42s} median {s['median']:.6g} {s['unit']} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['count']} "
                  f"iqr/median {s['iqr_share']:.4f}{flag}")
        for f in failures:
            print(f"{name}: run with seed {f['seed']} failed (exit {f['exit']}):\n"
                  f"{f['stderr']}", file=sys.stderr)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
